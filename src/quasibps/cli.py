"""Command-line front end.

Subcommands: magic-count, s-set, ih-dim, bps-dim, find-delta, verify.
Dimension vectors and central weights are entered comma-separated in the
vertex order of the quiver file; there is no reordering or matching by name.

Exit codes: 0 success, 1 failed verify check, 2 malformed input or an
unwritable report path, 3 asymmetric quiver, 4 refused blowup (lift the
cutoff with --force), 5 two counting routes disagree under
--fast-membership checked.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .bps import (
    block_table_from_dict,
    bps_assembly_dim,
    builtin_block_table,
    ktheory_dim_from_bps,
    load_block_table,
    score_sequence_count,
)
from .errors import (
    AsymmetricQuiverError,
    CutoffExceededError,
    InputSchemaError,
    RouteDisagreementError,
)
from .magic import magic_dimension
from .partitions import admissible_partitions, find_central_weight
from .quiver import Quiver, load_quiver, loop_quiver
from .weights import CentralWeight


def _parse_dim(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise InputSchemaError(f"dimension vector {text!r} is not comma-separated integers")


def _load_quiver_arg(args) -> Quiver:
    if args.quiver is not None:
        return load_quiver(args.quiver)
    if args.loops is not None:
        return loop_quiver(args.loops)
    raise InputSchemaError("no quiver given; pass --quiver PATH or --loops N")


def _delta_arg(args, d) -> CentralWeight:
    if args.delta is not None:
        return CentralWeight.parse(args.delta)
    if args.v is not None:
        return CentralWeight.spread(d, args.v)
    raise InputSchemaError("no central weight given; pass --v INT or --delta LIST")


def _fraction_json(f: Fraction):
    return int(f) if f.denominator == 1 else str(f)


def _emit(fields: dict, output: str) -> None:
    """One result record in the chosen format; values agree across formats."""
    if output == "json":
        print(json.dumps(fields, sort_keys=True, separators=(",", ":")))
    elif output == "csv":
        import csv  # loaded only for csv output, so importing the CLI stays cheap
        writer = csv.writer(sys.stdout)
        writer.writerow(fields.keys())
        writer.writerow("" if v is None else v for v in fields.values())
    else:
        width = max(len(k) for k in fields)
        for key, value in fields.items():
            print(f"{key:<{width}}  {'-' if value is None else value}")


def cmd_magic_count(args) -> int:
    q = _load_quiver_arg(args)
    d = _parse_dim(args.dim)
    delta = _delta_arg(args, d)
    count = magic_dimension(q, d, delta, fast=args.fast_membership,
                            jobs=args.threads, force=args.force)
    _emit({"magic_k0_dim": count}, args.output)
    return 0


def cmd_s_set(args) -> int:
    q = _load_quiver_arg(args)
    d = _parse_dim(args.dim)
    delta = _delta_arg(args, d)
    parts = admissible_partitions(q, d, delta, force=args.force)
    if args.output == "json":
        payload = {"count": len(parts),
                   "partitions": [[list(p) for p in a.parts] for a in parts]}
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    elif args.output == "csv":
        import csv
        writer = csv.writer(sys.stdout)
        writer.writerow(["partition"])
        writer.writerows([str(a)] for a in parts)
    else:
        for a in parts:
            print(a)
    return 0


def cmd_ih_dim(args) -> int:
    if args.loops is None or args.loops % 2 == 0:
        raise InputSchemaError("ih-dim needs --loops 2g+1 (an odd loop count)")
    d = _parse_dim(args.dim)
    if len(d) != 1:
        raise InputSchemaError("ih-dim is a one-vertex computation; --dim takes one entry")
    if args.v is None:
        raise InputSchemaError("ih-dim needs --v")
    g = (args.loops - 1) // 2
    _emit({"ih_dim": score_sequence_count(g, d[0], args.v)}, args.output)
    return 0


def cmd_bps_dim(args) -> int:
    q = _load_quiver_arg(args)
    d = _parse_dim(args.dim)
    delta = _delta_arg(args, d)
    if args.blocks is not None:
        table = load_block_table(args.blocks)
    elif args.builtin is not None:
        table = builtin_block_table(args.builtin)
    else:
        raise InputSchemaError("no block table given; pass --blocks PATH or --builtin NAME")
    total = bps_assembly_dim(q, d, delta, table, force=args.force)
    fields = {"bps_dim": total}
    if args.flavor is not None:
        k0, k1 = ktheory_dim_from_bps(total, args.flavor, monodromy=table.monodromy,
                                      invariant_dim=table.invariant_dim)
        fields["k0_dim"] = k0
        fields["k1_dim"] = k1
    _emit(fields, args.output)
    return 0


def cmd_find_delta(args) -> int:
    q = _load_quiver_arg(args)
    d = _parse_dim(args.dim)
    delta = find_central_weight(q, d, max_v=args.max_v, force=args.force)
    if delta is None:
        _emit({"delta": None, "v": None}, args.output)
        return 0
    v = delta.total_pairing(d)
    if args.output == "json":
        payload = {"delta": [_fraction_json(f) for f in delta.values],
                   "v": _fraction_json(v)}
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        _emit({"delta": ",".join(str(f) for f in delta.values), "v": v}, args.output)
    return 0


def cmd_verify(args) -> int:
    from . import verify  # the self-checks; loaded only by this command

    def progress(r):
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name}  [{r.anchor}]  {r.ms} ms",
              file=sys.stderr)

    # open the report first, so a bad path fails before the checks run
    try:
        report = None if args.report is None else open(args.report, "w")
    except OSError as exc:
        raise InputSchemaError(f"cannot write report {args.report}: {exc}")
    results = verify.run_checks(deep=args.deep, progress=progress if not args.quiet else None)
    text = verify.report_json(results)
    if report is not None:
        try:
            with report:  # a full disk may fail the write or the flush at close
                report.write(text + "\n")
        except OSError as exc:
            raise InputSchemaError(f"cannot write report {args.report}: {exc}")
    if args.output == "json":
        print(text)
    else:
        for row in verify.report_dict(results)["checks"]:
            status = "pass" if row["pass"] else "FAIL"
            print(f"{status}  {row['name']:<24} {row['ms']:>7} ms  {row['anchor']}")
            if not row["pass"]:
                print(f"      expected: {row['expected']}")
                print(f"      computed: {row['computed']}")
    return 0 if all(r.passed for r in results) else 1


def _add_quiver_args(sub, loops_only=False, delta=False):
    if not loops_only:
        sub.add_argument("--quiver", metavar="PATH",
                         help="quiver JSON file: vertices, arrow matrix, optional potential")
    sub.add_argument("--loops", type=int, metavar="N",
                     help="shortcut: one-vertex quiver with N loops")
    sub.add_argument("--dim", required=True, metavar="A,B,..",
                     help="dimension vector, comma-separated, in quiver vertex order")
    if delta:
        group = sub.add_mutually_exclusive_group()
        group.add_argument("--v", type=int,
                           help="integer weight parameter; delta = v/dbar at each vertex")
        group.add_argument("--delta", metavar="P/Q,..",
                           help="central weight, comma-separated rationals in vertex order")


def _magic_count_args(p):
    _add_quiver_args(p, delta=True)
    p.add_argument("--fast-membership", choices=("on", "off", "checked"), default="on",
                   help="on and off both run the block-profile count; checked also runs "
                        "the flow-membership count and exits 5 if they differ")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted and checked for compatibility; starts no processes")


def _ih_dim_args(p):
    _add_quiver_args(p, loops_only=True)
    p.add_argument("--v", type=int, help="integer weight parameter")


def _bps_dim_args(p):
    _add_quiver_args(p, delta=True)
    p.add_argument("--blocks", metavar="PATH", help="block dimension table JSON file")
    p.add_argument("--builtin", metavar="NAME",
                   help="shipped block table: tripled-one-loop, one-loop, toric-potential")
    p.add_argument("--flavor", choices=("mf", "preprojective"),
                   help="also derive per-parity K-theory dimensions")


def _find_delta_args(p):
    _add_quiver_args(p)
    p.add_argument("--max-v", type=int, default=None, help="search bound on the weight parameter")


def _verify_args(p):
    p.add_argument("--deep", action="store_true", help="also run the slow oracle suites")
    p.add_argument("--report", metavar="PATH", help="write the JSON report here")
    p.add_argument("--quiet", action="store_true", help="no per-check progress on stderr")


# name: (help, handler, adds the subcommand's own options, takes --force, --output formats)
_COMMANDS = {
    "magic-count": ("lattice count of dominant weights in the shifted window",
                    cmd_magic_count, _magic_count_args, True, ("table", "json", "csv")),
    "s-set": ("admissible partitions of the dimension vector",
              cmd_s_set, lambda p: _add_quiver_args(p, delta=True), True, ("table", "json", "csv")),
    "ih-dim": ("score-sequence count for an odd loop quiver",
               cmd_ih_dim, _ih_dim_args, False, ("table", "json", "csv")),
    "bps-dim": ("assembled BPS dimension over admissible partitions",
                cmd_bps_dim, _bps_dim_args, True, ("table", "json", "csv")),
    "find-delta": ("smallest central weight with singleton admissible set",
                   cmd_find_delta, _find_delta_args, True, ("table", "json", "csv")),
    "verify": ("run the release self-checks", cmd_verify, _verify_args, False, ("table", "json")),
}


def _configure(p: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    _, func, add_args, force, formats = _COMMANDS[name]
    add_args(p)
    if force:
        p.add_argument("--force", action="store_true", help="override the size cutoff")
    p.add_argument("--output", choices=formats, default="table")
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasibps",
        description="Exact window, partition, and BPS dimension counts for symmetric quivers.")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, *_) in _COMMANDS.items():
        _configure(subs.add_parser(name, help=help_text), name)
    return parser


# built on first use, keyed by subcommand name (None: the full parser), so that
# importing the CLI stays cheap and a run builds only the parser it needs
_parsers: dict[str | None, argparse.ArgumentParser] = {}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    name = argv[0] if argv and argv[0] in _COMMANDS else None
    if name not in _parsers:
        _parsers[name] = (build_parser() if name is None else
                          _configure(argparse.ArgumentParser(prog=f"quasibps {name}"), name))
    args = _parsers[name].parse_args(argv if name is None else argv[1:])
    try:
        return args.func(args)
    except InputSchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AsymmetricQuiverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CutoffExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except RouteDisagreementError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())

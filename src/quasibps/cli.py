"""Command-line front end.

Subcommands: magic-count, s-set, ih-dim, bps-dim, find-delta, verify.
Dimension vectors and central weights are entered comma-separated in the
vertex order of the quiver file; there is no reordering or matching by name.

Each subcommand's options are rows of one table, ``_COMMANDS``, which both
readers and the help read. A plain line, with every flag spelled in full
(``--opt value`` or ``--opt=value``) and every value valid, is read from the
table alone, since argparse's gettext and locale imports cost more than a
small count. argparse, with parsers built from the same table, reads every
other line: abbreviations, ``--``, ``-h``, and every rejected line.

Exit codes: 0 success, 1 failed verify check, 2 malformed input, a rejected
command line or an unwritable report path, 3 asymmetric quiver, 4 refused
blowup (lift the cutoff with --force), 5 two counting routes disagree under
--fast-membership checked, 141 (128 + SIGPIPE) stdout closed by its reader,
as in ``quasibps s-set ... | head -1``.
"""

from __future__ import annotations

import json
import os
import re
import sys
from fractions import Fraction
from types import SimpleNamespace

from .bps import (
    bps_assembly_dim,
    builtin_block_table,
    ktheory_dim_from_bps,
    load_block_table,
    loop_count,
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
    if args.loops is None or args.loops < 0 or args.loops % 2 == 0:
        raise InputSchemaError("ih-dim needs --loops 2g+1 (an odd loop count)")
    d = _parse_dim(args.dim)
    if len(d) != 1:
        raise InputSchemaError("ih-dim is a one-vertex computation; --dim takes one entry")
    if args.v is None:
        raise InputSchemaError("ih-dim needs --v")
    g = (args.loops - 1) // 2
    _emit({"ih_dim": loop_count(g, d[0], args.v)}, args.output)
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


_REQUIRED = object()  # the default of an option every command line must give
# option rows: (flag, metavar or a tuple of choices, type, default, help);
# type None marks a switch, which takes no value and defaults to False
_QUIVER = (("--quiver", "PATH", str, None,
            "quiver JSON file: vertices, arrow matrix, optional potential"),
           ("--loops", "N", int, None, "shortcut: one-vertex quiver with N loops"),
           ("--dim", "A,B,..", str, _REQUIRED,
            "dimension vector, comma-separated, in quiver vertex order"))
_WEIGHT = (("--v", "V", int, None, "integer weight parameter; delta = v/dbar at each vertex"),
           ("--delta", "P/Q,..", str, None,
            "central weight, comma-separated rationals in vertex order"))
_EXCLUSIVE = {"--v": "--delta", "--delta": "--v"}  # a command line gives at most one of a pair
_FORCE = ("--force", None, None, False, "override the size cutoff")
_OUTPUT = ("--output", ("table", "json", "csv"), str, "table", "output format")

# name: (help, handler, option rows)
_COMMANDS = {
    "magic-count": ("lattice count of dominant weights in the shifted window", cmd_magic_count,
                    _QUIVER + _WEIGHT + (
                        ("--fast-membership", ("on", "off", "checked"), str, "on",
                         "on and off both run the block-profile count; checked also runs "
                         "the flow-membership count and exits 5 if they differ"),
                        ("--threads", "THREADS", int, 1,
                         "accepted and checked for compatibility; starts no processes"),
                        _FORCE, _OUTPUT)),
    "s-set": ("admissible partitions of the dimension vector", cmd_s_set,
              _QUIVER + _WEIGHT + (_FORCE, _OUTPUT)),
    "ih-dim": ("one-vertex count for an odd loop quiver, in closed form", cmd_ih_dim,
               _QUIVER[1:] + (("--v", "V", int, None, "integer weight parameter"), _OUTPUT)),
    "bps-dim": ("assembled BPS dimension over admissible partitions", cmd_bps_dim,
                _QUIVER + _WEIGHT + (
                    ("--blocks", "PATH", str, None, "block dimension table JSON file"),
                    ("--builtin", "NAME", str, None,
                     "shipped block table: tripled-one-loop, one-loop, toric-potential"),
                    ("--flavor", ("mf", "preprojective"), str, None,
                     "also derive per-parity K-theory dimensions"),
                    _FORCE, _OUTPUT)),
    "find-delta": ("smallest central weight with singleton admissible set", cmd_find_delta,
                   _QUIVER + (("--max-v", "MAX_V", int, None,
                               "search bound on the weight parameter"), _FORCE, _OUTPUT)),
    "verify": ("run the release self-checks", cmd_verify, (
        ("--deep", None, None, False, "also run the slow oracle suites"),
        ("--report", "PATH", str, None, "write the JSON report here"),
        ("--quiet", None, None, False, "no per-check progress on stderr"),
        ("--output", ("table", "json"), str, "table", "output format"))),
}
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")  # read as values, not as options


def _form(row) -> str:
    flag, meta, convert = row[:3]
    meta = "{" + ",".join(meta) + "}" if isinstance(meta, tuple) else meta
    return flag if convert is None else f"{flag} {meta}"


def _usage(name) -> str:
    if name is None:
        return f"usage: quasibps [-h] {{{','.join(_COMMANDS)}}} ..."
    forms = (_form(r) if r[3] is _REQUIRED else f"[{_form(r)}]" for r in _COMMANDS[name][2])
    return f"usage: quasibps {name} [-h] {' '.join(forms)}"


def _help(name) -> str:
    """Help for subcommand ``name`` (None: the top level), not wrapped."""
    if name is None:
        about = "Exact window, partition, and BPS dimension counts for symmetric quivers."
        rows = [(n, entry[0]) for n, entry in _COMMANDS.items()]
    else:
        about, rows = _COMMANDS[name][0], [(_form(r), r[4]) for r in _COMMANDS[name][2]]
    rows.insert(0, ("-h, --help", "show this help message and exit"))
    width = max(len(left) for left, _ in rows)
    return "\n".join([_usage(name), "", about, "", *(f"  {a:<{width}}  {b}" for a, b in rows)])


def _plain(name: str, argv: list[str]):
    """Subcommand ``name``'s option values from ``argv`` when every flag is spelled
    in full and every value is plain and valid; else None, and argparse reads it."""
    rows = {row[0]: row for row in _COMMANDS[name][2]}
    given, i = {}, 0
    while i < len(argv):
        flag, eq, value = argv[i].partition("=")
        if flag not in rows:
            return None
        meta, convert = rows[flag][1:3]
        i += 1
        if convert is None:
            if eq:
                return None
            given[flag] = True
            continue
        if not eq:
            if i == len(argv) or argv[i].startswith("-") and not _NEGATIVE.match(argv[i]):
                return None
            value, i = argv[i], i + 1
        try:
            given[flag] = convert(value)
        except ValueError:
            return None
        if isinstance(meta, tuple) and value not in meta:
            return None
    if any(row[3] is _REQUIRED and f not in given for f, row in rows.items()):
        return None
    if any(_EXCLUSIVE.get(f) in given for f in given):
        return None
    values = {f[2:].replace("-", "_"): given.get(f, row[3]) for f, row in rows.items()}
    return SimpleNamespace(**values)


def _read(argv: list[str]):
    """The subcommand ``argv`` names and its option values, read as argparse reads them."""
    name = argv[0] if argv and argv[0] in _COMMANDS else None
    args = None if name is None else _plain(name, argv[1:])
    if args is not None:
        return name, args
    import argparse  # only a line the plain reader declines pays for this import

    class Parser(argparse.ArgumentParser):
        """argparse, printing the help and the usage line from ``_COMMANDS``."""

        def print_help(self, file=None):
            # flushed here, so a closed pipe raises inside main and exits 141
            print(_help(self.prog.partition(" ")[2] or None), flush=True)

        def error(self, message):
            usage = _usage(self.prog.partition(" ")[2] or None)
            print(f"{usage}\n{self.prog}: error: {message}", file=sys.stderr)
            raise SystemExit(2)

    def build(parser, command):
        exclusive = None
        for flag, meta, convert, default, _ in _COMMANDS[command][2]:
            group = parser
            if flag in _EXCLUSIVE:
                group = exclusive = exclusive or parser.add_mutually_exclusive_group()
            if convert is None:
                group.add_argument(flag, action="store_true")
                continue
            required = default is _REQUIRED
            shown = {"choices": meta} if isinstance(meta, tuple) else {"metavar": meta}
            group.add_argument(flag, type=convert, required=required,
                               default=None if required else default, **shown)
        return parser

    # a line that starts with a subcommand is read by that subcommand's parser
    if name is not None:
        args = build(Parser(prog=f"quasibps {name}"), name).parse_args(argv[1:])
    else:
        parser = Parser(prog="quasibps")
        subs = parser.add_subparsers(dest="command", required=True)
        for command in _COMMANDS:
            build(subs.add_parser(command), command)
        args = parser.parse_args(argv)
        name = args.command
    # argparse before 3.13 reads "--opt=--" as [], where the value "--" was meant
    empty = [key for key, value in vars(args).items() if value == []]
    if empty:
        Parser(prog=f"quasibps {name}").error(
            f"argument --{empty[0].replace('_', '-')}: expected one argument")
    return name, args


# the exit code of each error a subcommand reports, on one stderr line
_EXIT_CODES = {InputSchemaError: 2, AsymmetricQuiverError: 3, CutoffExceededError: 4,
               RouteDisagreementError: 5}


def main(argv=None) -> int:
    try:
        name, args = _read(sys.argv[1:] if argv is None else argv)
        code = _COMMANDS[name][1](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader has gone: send what is still buffered to devnull, as the
        # Python docs' SIGPIPE note does, and exit as SIGPIPE would (128 + 13)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())

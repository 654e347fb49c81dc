"""Command-line front end.

Subcommands: magic-count, s-set, ih-dim, bps-dim, find-delta, verify.
Dimension vectors and central weights are entered comma-separated in the
vertex order of the quiver file; there is no reordering or matching by name.

Each subcommand's options are rows of one table, ``_COMMANDS``, which both
the parser and the help read; the parser reads a command line as argparse
did (``--opt value`` or ``--opt=value``, unique prefixes of long flags, the
last of a repeated option wins) without importing argparse, whose gettext
and locale imports cost more than a small count.

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
_HELP = ("-h", "--help")
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


def _fail(name, message: str):
    """Exit 2 as argparse does: the usage line, then one error line, on stderr."""
    prog = "quasibps" if name is None else f"quasibps {name}"
    print(f"{_usage(name)}\n{prog}: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _classify(name, arg: str, flags):
    """How argparse reads one token: None for a value, else (flag, inline value),
    with flag None for an unknown option; an ambiguous prefix fails."""
    if arg in flags:
        return arg, None
    if len(arg) < 2 or arg[0] != "-":
        return None
    head, eq, value = arg.partition("=")
    if eq and head in flags:
        return head, value
    if arg[1] == "-":  # a long flag may be abbreviated to a unique prefix
        hits = [f for f in flags if f.startswith(head)]
        if len(hits) > 1:
            _fail(name, f"ambiguous option: {arg} could match {', '.join(hits)}")
        if hits:
            return hits[0], value if eq else None
    elif arg.startswith("-h"):  # -hX is -h with the inline value X
        return "-h", arg[2:]
    return None if _NEGATIVE.match(arg) or " " in arg else (None, None)


def _take_help(name, flag: str, value) -> None:
    """Print the help and exit 0; an inline value fails as it does in argparse."""
    rest = value if flag == "--help" or value is None else value.lstrip("h")  # -hh is -h -h
    if value == "" or rest:
        _fail(name, f"argument -h/--help: ignored explicit argument {rest!r}")
    print(_help(name), flush=True)  # so a closed pipe reaches main's handler
    raise SystemExit(0)


def _parse(name: str, argv: list[str]) -> tuple[SimpleNamespace, list[str]]:
    """Subcommand ``name``'s option values from ``argv``, and the tokens left over."""
    rows = {row[0]: row for row in _COMMANDS[name][2]}
    # "--" ends the options: it is left over itself, and every later token is a value
    end, flags = argv.index("--") if "--" in argv else len(argv), [*_HELP, *rows]
    kinds = [_classify(name, a, flags) for a in argv[:end]] + [(None, None)] * (end < len(argv))
    kinds += [None] * (len(argv) - len(kinds))
    given, extras, i = {}, [], 0
    while i < len(argv):
        arg, kind = argv[i], kinds[i]
        i += 1
        if kind is None or kind[0] is None:
            extras.append(arg)
            continue
        flag, value = kind
        if flag in _HELP:
            _take_help(name, flag, value)
        meta, convert = rows[flag][1:3]
        if convert is None and value is not None:
            _fail(name, f"argument {flag}: ignored explicit argument {value!r}")
        if convert is not None and value is None:
            if i == len(argv) or kinds[i] is not None:
                _fail(name, f"argument {flag}: expected one argument")
            value, i = argv[i], i + 1
        try:
            given[flag] = True if convert is None else convert(value)
        except ValueError:
            _fail(name, f"argument {flag}: invalid {convert.__name__} value: {value!r}")
        if isinstance(meta, tuple) and value not in meta:
            _fail(name, f"argument {flag}: invalid choice: {value!r} "
                        f"(choose from {', '.join(map(repr, meta))})")
        if _EXCLUSIVE.get(flag) in given:
            _fail(name, f"argument {flag}: not allowed with argument {_EXCLUSIVE[flag]}")
    missing = [f for f, row in rows.items() if row[3] is _REQUIRED and f not in given]
    if missing:
        _fail(name, f"the following arguments are required: {', '.join(missing)}")
    values = {f[2:].replace("-", "_"): given.get(f, row[3]) for f, row in rows.items()}
    return SimpleNamespace(**values), extras


def _read(argv: list[str]) -> tuple[str, SimpleNamespace]:
    """The subcommand ``argv`` names and its option values, read as argparse read them."""
    # the first value names the subcommand; the tokens before it are options
    at = next((i for i, arg in enumerate(argv)
               if arg == "--" or _classify(None, arg, _HELP) is None), len(argv))
    for flag, value in (_classify(None, arg, _HELP) for arg in argv[:at]):
        if flag is not None:
            _take_help(None, flag, value)
    if argv[at:] in ([], ["--"]):
        _fail(None, "the following arguments are required: command")
    name = argv[at]
    if name not in _COMMANDS:
        _fail(None, f"argument command: invalid choice: {name!r} "
                    f"(choose from {', '.join(map(repr, _COMMANDS))})")
    args, unknown = _parse(name, argv[at + 1:])
    if at or unknown:  # argparse names the parser that was left the tokens
        _fail(None if at else name, f"unrecognized arguments: {' '.join(argv[:at] + unknown)}")
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

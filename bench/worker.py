"""One benchmark pass in a fresh interpreter.

Reads a pass input (see ``workloads.build_pass_input``) as JSON on stdin,
imports ``quasibps`` from the repository's ``src``, runs every fixed CLI
instance and then the sweep, checks each result against its pinned value,
and prints one JSON object on stdout.  Each segment (set-up, each fixed
instance, the sweep) is timed by a ``hostspeed.SpeedProbe`` and reported at
nominal host speed.  With ``"trace": true`` the pass runs under a
``tracing.Tracer`` and also reports the per-layer metrics.  With
``"setup_only": true`` it stops after set-up and reports only ``setup_s``.

Nothing here starts threads or processes: the pass is one process, as a CLI
user's command is.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import traceback
from pathlib import Path

import workloads
from hostspeed import SpeedProbe
from tracing import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def quiver_from_arrows(quasibps, arrows):
    return quasibps.Quiver(tuple(str(i) for i in range(len(arrows))),
                           tuple(tuple(r) for r in arrows))


def quiver(name):
    """The quiver ``workloads.QUIVERS[name]``; needs ``quasibps`` importable."""
    import quasibps
    return quiver_from_arrows(quasibps, workloads.QUIVERS[name])


def build_inputs(quasibps, pass_input):
    """Library arguments for each sweep case; CLI argv lists need no building."""
    out = []
    for case in pass_input["sweep"]:
        if "g" in case:
            q = quasibps.loop_quiver(2 * case["g"] + 1)
            out.append(("window-score", (q, case["g"], case["d"], case["v"]), case["expect"]))
        elif "v" in case:
            q = quiver_from_arrows(quasibps, case["arrows"])
            out.append(("window", (q, tuple(case["d"]), case["v"]), case["expect"]))
        else:
            q = quiver_from_arrows(quasibps, case["arrows"])
            out.append(("central-weight", (q, tuple(case["d"])), case["expect"]))
    return out


def run_cli(cli, argv, keys):
    """The CLI's printed values under ``keys``, or None when the command exits nonzero."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    if code != 0:
        return None
    out = json.loads(buf.getvalue())
    return {k: out[k] for k in keys}


def run_case(quasibps, kind, args):
    """The value a sweep case computes; looks functions up at call time."""
    if kind == "window-score":
        q, g, d, v = args
        window = quasibps.magic_dimension_v(q, (d,), v)
        score = quasibps.score_sequence_count(g, d, v)
        return window if window == score else ("routes disagree", window, score)
    if kind == "window":
        return quasibps.magic_dimension_v(*args)
    delta = quasibps.find_central_weight(*args)
    return None if delta is None else [str(f) for f in delta.values]


def attempt(fn, *args):
    try:
        return fn(*args)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return "raised"


def import_and_build(pass_input):
    sys.path.insert(0, str(SRC))
    import quasibps
    import quasibps.cli as cli
    if Path(quasibps.__file__).resolve().parent != (SRC / "quasibps").resolve():
        raise SystemExit(f"imported quasibps from {quasibps.__file__}, not from {SRC}")
    return quasibps, cli, build_inputs(quasibps, pass_input)


def run_sweep(quasibps, cases):
    return [attempt(run_case, quasibps, kind, args) for kind, args, _ in cases]


def run_pass(pass_input, trace_spans_path=None) -> dict:
    """One pass; times are at nominal host speed (see ``hostspeed``)."""
    clock = SpeedProbe()
    (quasibps, cli, cases), setup_s, setup_plain = clock.measure(import_and_build, pass_input)
    if pass_input.get("setup_only"):
        return {"setup_s": setup_s}

    tracer = Tracer().install() if pass_input.get("trace") else None
    values, times, plain = [], [], []
    try:
        for inst in pass_input["fixed"]:
            value, nominal_s, plain_s = clock.measure(
                attempt, run_cli, cli, inst["argv"], inst["keys"])
            values.append(value)
            times.append(nominal_s)
            plain.append(plain_s)
        swept, sweep_s, sweep_plain = clock.measure(run_sweep, quasibps, cases)
        values += swept
    finally:
        if tracer is not None:
            tracer.restore()

    expected = [inst["expect"] for inst in pass_input["fixed"]] + [c[2] for c in cases]
    result = {
        "setup_s": setup_s,
        "wall_s": sum(times) + sweep_s,
        "largest_s": times[0],
        "sweep_s": sweep_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        # plain wall seconds, probes excluded, for the printed table only
        "plain": {"setup_s": setup_plain, "wall_s": sum(plain) + sweep_plain,
                  "largest_s": plain[0], "sweep_s": sweep_plain},
        "host_speed": clock.host_speed(),
        "attempted": len(expected),
        "failed": sum(v != e for v, e in zip(values, expected)),
        "values": values,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["missing"] = sorted(tracer.missing)
        if trace_spans_path is not None:
            tracer.write_spans(trace_spans_path)
    return result


def main() -> int:
    pass_input = json.load(sys.stdin)
    print(json.dumps(run_pass(pass_input, pass_input.get("spans_path"))))
    return 0


if __name__ == "__main__":
    sys.exit(main())

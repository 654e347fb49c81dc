"""Benchmark of the quasibps CLI and library: three workloads, end to end and per layer.

Run from the repository root:

    python3 bench/run.py                                  # every workload, untraced
    python3 bench/run.py --workload one-vertex --trace 1  # per-layer metrics

Each pass runs a workload's fixed work in a fresh interpreter (see
``worker.py``) and reports its times at nominal host speed (see
``hostspeed.py``).  A run makes as many passes as fit in the ``run_seconds`` of
``BENCHMARK.json`` (the only value ``--seconds`` accepts), rounded to the
nearest whole pass and at least ``MIN_PASSES``, and reports the median of
each metric over its passes; ``setup_s`` is the median over the passes and
``SETUPS_PER_PASS`` set-up-only processes before each untraced pass.  Every computed value is checked
against ``expected.json``.  With ``--trace 1`` untraced and traced passes
alternate; the run reports the per-layer metrics of the traced passes and
the tracing overhead.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"setup_s": "s", "wall_s": "s", "largest_s": "s", "sweep_s": "s",
              "peak_rss_mb": "MB"}
MIN_PASSES = 3          # untraced; a traced run makes at least one of each kind
SETUPS_PER_PASS = 3     # set-up-only processes before each untraced pass
PASS_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark itself cannot run: code missing or a pass process failed."""


def run_one_pass(pass_input: dict) -> dict:
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py")],
                              input=json.dumps(pass_input), capture_output=True,
                              text=True, cwd=ROOT, timeout=PASS_TIMEOUT_S,
                              env=dict(os.environ, PYTHONHASHSEED="0"))
    except subprocess.TimeoutExpired:
        raise BenchError(f"a {pass_input['workload']} pass ran over {PASS_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"a {pass_input['workload']} pass exited {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Passes for about ``seconds``; medians of per-pass metrics."""
    pass_input = workloads.build_pass_input(name, seed, OUT / "quivers")
    plain, traced, durations, setups = [], [], [], []
    begin = time.perf_counter()
    while True:
        # stop once the next pass would end more than half a pass past the deadline
        elapsed = time.perf_counter() - begin
        enough = bool(plain and traced) if trace else len(plain) >= MIN_PASSES
        if enough and elapsed + statistics.median(durations) / 2 > seconds:
            break
        traced_pass = trace and len(traced) < len(plain)
        spans = str(OUT / f"spans-{name}.tsv") if traced_pass else None
        if not traced_pass:
            setups += [run_one_pass(dict(pass_input, setup_only=True))["setup_s"]
                       for _ in range(SETUPS_PER_PASS)]
        result = run_one_pass(dict(pass_input, trace=traced_pass, spans_path=spans))
        (traced if traced_pass else plain).append(result)
        if not traced_pass:
            setups.append(result["setup_s"])
        durations.append(time.perf_counter() - begin - elapsed)

    passes = plain + traced
    reference = plain[0]["values"]
    agree = all(p["values"] == reference for p in passes)
    summary = {
        "workload": name,
        "passes": len(passes),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "agree": agree,
    }
    if trace:
        layers = tracing.median_metrics([p["layers"] for p in traced])
        layers["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                      - statistics.median(p["wall_s"] for p in plain))
        summary["metrics"] = {k: (v, tracing.LAYER_METRICS[k]) for k, v in layers.items()}
        summary["missing"] = traced[0]["missing"]
    else:
        summary["metrics"] = {k: (statistics.median(p[k] for p in plain), unit)
                              for k, unit in END_TO_END.items()}
        summary["metrics"]["setup_s"] = (statistics.median(setups), "s")
        summary["plain"] = {k: statistics.median(p["plain"][k] for p in plain)
                            for k in plain[0]["plain"]}
        summary["host_speed"] = statistics.median(p["host_speed"] for p in plain)
    return summary


def report(summaries: list[dict], prefix_names: bool) -> dict:
    """Print a readable table per workload; return the final JSON object."""
    metrics = {}
    for s in summaries:
        rate = s["failed"] / s["attempted"]
        print(f"== {s['workload']}: {s['passes']} passes, medians over passes")
        for name, (value, unit) in s["metrics"].items():
            shown = "null" if value is None else f"{value:.6g}"
            print(f"  {name:<48} {shown:>12} {unit}")
            key = f"{s['workload']}.{name}" if prefix_names else name
            metrics[key] = {"value": value, "unit": unit}
        print(f"  {'error_rate':<48} {rate:>12.6g} share "
              f"({s['failed']} of {s['attempted']} instances)")
        if "plain" in s:
            shown = ", ".join(f"{k} {v:.4g}" for k, v in s["plain"].items())
            print(f"  plain wall seconds: {shown}; host ran at {s['host_speed']:.3g} "
                  "of nominal speed")
        if not s["agree"]:
            print("  passes computed different values (traced vs untraced or run to run)")
        if s.get("missing"):
            print(f"  no longer in the package, reported null: {', '.join(s['missing'])}")
    return {
        "correct": all(s["failed"] == 0 and s["agree"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }


def parse_args(argv=None) -> argparse.Namespace:
    """Options; the default seed and run length are the ones BENCHMARK.json records."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = spec["command"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=int(command[command.index("--seed") + 1]),
                        help="picks the sweep sample and its order")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="how long a run makes passes; must equal run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds != spec["run_seconds"]:
        # runs of another length would not be comparable with the recorded ones
        parser.error(f"--seconds must be {spec['run_seconds']} (run_seconds in BENCHMARK.json)")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "quasibps" / "__init__.py").is_file():
        print(f"error: no quasibps sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        # compile once so that no pass pays for writing bytecode
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
                       check=True, capture_output=True, timeout=PASS_TIMEOUT_S)
        workloads.write_quiver_files(OUT / "quivers")
        summaries = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report(summaries, prefix_names=len(names) > 1)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

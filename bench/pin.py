"""Compute the pinned answer table ``expected.json`` and cross-check it.

Every fixed instance and every member of every sweep family gets the value
the package computes, and each value is checked once against a route that
does not share its algorithm:

* one-vertex: window counts against score-sequence counts (both ways);
* multi-vertex: the naive bounding-box scan of ``oracle.lattice_count_naive``
  for the sweep family and the two smaller fixed instances, 2g+1 / 2g+2 for
  toric d = (1,1), and the indicator/flow agreement of ``fast="checked"``
  for the largest instance;
* partitions: p(n) for the 3-loop s-set at v = 0 and the tripled assembly;
  every partition of 13 in the admit-heavy s-set; only {d} at a weight
  coprime to the rank; and, for every central weight found, the blockwise
  admissibility route on every partition of d.

Run from the repository root (takes a few minutes):

    python3 bench/pin.py            # check the committed table
    python3 bench/pin.py --write    # rewrite it
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import quasibps  # noqa: E402
from quasibps import cli, oracle  # noqa: E402

import workloads  # noqa: E402
from worker import quiver, run_cli  # noqa: E402


def delta_strings(delta):
    return None if delta is None else [str(f) for f in delta.values]


def check(ok, what):
    if not ok:
        raise SystemExit(f"cross-check failed: {what}")


def pin_fixed(quiver_dir) -> dict:
    out = {}
    for workload in workloads.WORKLOADS:
        for argv, keys in workloads.FIXED[workload]:
            name = workloads.fixed_name(argv)
            t = time.perf_counter()
            value = run_cli(cli, workloads.cli_argv(argv, quiver_dir), keys)
            if value is None:
                raise SystemExit(f"{name} exited nonzero")
            out[name] = value
            shown = {k: v for k, v in value.items() if k != "partitions"}
            print(f"{name} = {shown}  ({time.perf_counter() - t:.2f} s)", flush=True)
    return out


def cross_check_fixed(fixed) -> None:
    loops3 = quiver("loops3")
    check(fixed["magic-count --loops 3 --dim 8 --v 1"]["magic_k0_dim"]
          == quasibps.score_sequence_count(1, 8, 1),
          "window d=8 vs score route")
    check(fixed["ih-dim --loops 3 --dim 10 --v 1"]["ih_dim"]
          == quasibps.magic_dimension_v(loops3, (10,), 1),
          "score d=10 vs window route")
    check(fixed["magic-count --quiver @toric1 --dim 3,4 --v 1"]["magic_k0_dim"]
          == quasibps.magic_dimension_v(quiver("toric1"), (3, 4), 1, fast="checked"),
          "toric (3,4): indicator and flow membership agree")
    for name, d, v in (("cross", (3, 3), 0), ("three", (2, 2, 2), 1)):
        naive = oracle.lattice_count_naive(quiver(name), d, quasibps.CentralWeight.spread(d, v))
        argv = f"magic-count --quiver @{name} --dim {','.join(map(str, d))} --v {v}"
        check(fixed[argv]["magic_k0_dim"] == naive, f"{name} {d}: naive scan")
    every = [[list(p) for p in a.parts] for a in quasibps.enumerate_vector_partitions((13,))]
    admit_all = fixed["s-set --loops 3 --dim 13 --v 0"]
    check(admit_all["count"] == quasibps.partition_count(13), "p(13)")
    check(sorted(admit_all["partitions"]) == sorted(every), "every partition of 13 admitted")
    check(fixed["s-set --loops 3 --dim 12 --v 1"] == {"count": 1, "partitions": [[[12]]]},
          "coprime weight admits only {d}")
    check(fixed["bps-dim --loops 3 --dim 12 --v 0 --builtin tripled-one-loop"]["bps_dim"]
          == quasibps.partition_count(12), "p(12)")


def pin_one_vertex() -> dict:
    out = {}
    for case in workloads.sweep_family("one-vertex"):
        g, d, v = case["g"], case["d"], case["v"]
        window = quasibps.magic_dimension_v(quasibps.loop_quiver(2 * g + 1), (d,), v)
        check(window == quasibps.score_sequence_count(g, d, v), f"score route at {case}")
        out[workloads.case_key(case)] = window
    return out


def pin_multi_vertex() -> dict:
    out = {}
    for case in workloads.sweep_family("multi-vertex"):
        q, d, v = quiver(case["quiver"]), tuple(case["d"]), case["v"]
        value = quasibps.magic_dimension_v(q, d, v)
        naive = oracle.lattice_count_naive(q, d, quasibps.CentralWeight.spread(d, v))
        check(naive == value, f"naive scan at {case}")
        if case["quiver"].startswith("toric") and d == (1, 1):
            g = int(case["quiver"][5:])
            check(value == (2 * g + 2 if v % 2 else 2 * g + 1), f"2g+1/2g+2 at {case}")
        out[workloads.case_key(case)] = value
    return out


def pin_partitions() -> dict:
    out = {}
    for case in workloads.sweep_family("partitions"):
        q, d = quiver(case["quiver"]), tuple(case["d"])
        t = time.perf_counter()
        delta = quasibps.find_central_weight(q, d)
        ms = (time.perf_counter() - t) * 1000
        if delta is not None:
            admitted = [a for a in quasibps.enumerate_vector_partitions(d)
                        if quasibps.partition_indicator_blockwise(q, d, a, delta)]
            check(admitted == [quasibps.VectorPartition((d,))],
                  f"blockwise route admits only {{d}} at {case}")
        print(f"{workloads.case_key(case)}: {delta_strings(delta)}  ({ms:.0f} ms)", flush=True)
        out[workloads.case_key(case)] = delta_strings(delta)
    return out


def dump(table) -> str:
    """JSON with one line per pinned value, so that a changed value is a changed line."""
    sections = []
    for name, entries in sorted(table.items()):
        lines = [f"  {json.dumps(k)}: {json.dumps(v, separators=(',', ':'))}"
                 for k, v in sorted(entries.items())]
        sections.append(f" {json.dumps(name)}: {{\n" + ",\n".join(lines) + "\n }")
    return "{\n" + ",\n".join(sections) + "\n}\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="rewrite expected.json")
    args = parser.parse_args(argv)
    quiver_dir = HERE / "out" / "quivers"
    workloads.write_quiver_files(quiver_dir)
    table = {"fixed": pin_fixed(quiver_dir)}
    cross_check_fixed(table["fixed"])
    table["one-vertex"] = pin_one_vertex()
    table["multi-vertex"] = pin_multi_vertex()
    table["partitions"] = pin_partitions()
    if args.write:
        workloads.EXPECTED_PATH.write_text(dump(table))
        print(f"wrote {workloads.EXPECTED_PATH}")
        return 0
    same = table == workloads.load_expected()
    print("pinned table matches" if same else "pinned table DIFFERS from expected.json")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import quasibps  # noqa: E402
import quasibps.cli  # noqa: E402
import quasibps.magic  # noqa: E402
from quasibps import oracle  # noqa: E402

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

EXPECTED = workloads.load_expected()
quiver = worker.quiver


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_family_member_and_fixed_instance_is_pinned(workload):
    keys = {workloads.case_key(c) for c in workloads.sweep_family(workload)}
    assert keys == set(EXPECTED[workload])
    for argv, keys in workloads.FIXED[workload]:
        pinned = EXPECTED["fixed"][workloads.fixed_name(argv)]
        assert set(pinned) == set(keys)
        assert all(isinstance(pinned[k], int) for k in keys if k != "partitions")


@pytest.mark.parametrize("g,d,v", [(0, 3, 3), (1, 2, 1), (1, 3, 2), (2, 3, 4), (1, 4, 3)])
def test_one_vertex_pins_match_naive_scan(g, d, v):
    q = quasibps.loop_quiver(2 * g + 1)
    naive = oracle.lattice_count_naive(q, (d,), quasibps.CentralWeight.spread((d,), v))
    assert EXPECTED["one-vertex"][f"g={g} d={d} v={v}"] == naive


@pytest.mark.parametrize("name,d,v", [("cross", (1, 2), 1), ("toric2", (2, 2), -1),
                                      ("three", (1, 1, 1), 0), ("toric0", (1, 2), 3)])
def test_multi_vertex_pins_match_naive_scan(name, d, v):
    naive = oracle.lattice_count_naive(quiver(name), d, quasibps.CentralWeight.spread(d, v))
    case = {"quiver": name, "d": list(d), "v": v}
    assert EXPECTED["multi-vertex"][workloads.case_key(case)] == naive


def test_partition_pins_match_closed_values():
    fixed = EXPECTED["fixed"]
    admit_all = fixed["s-set --loops 3 --dim 13 --v 0"]
    assert admit_all["count"] == len(admit_all["partitions"]) == quasibps.partition_count(13)
    assert fixed["s-set --loops 3 --dim 12 --v 1"] == {"count": 1, "partitions": [[[12]]]}
    assert (fixed["bps-dim --loops 3 --dim 12 --v 0 --builtin tripled-one-loop"]["bps_dim"]
            == quasibps.partition_count(12))
    delta = EXPECTED["partitions"]["loops3 d=5"]
    weight = quasibps.CentralWeight.parse(",".join(delta))
    d = (5,)
    admitted = [a for a in quasibps.enumerate_vector_partitions(d)
                if quasibps.partition_indicator_blockwise(quiver("loops3"), d, a, weight)]
    assert admitted == [quasibps.VectorPartition((d,))]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_sampler_is_deterministic_and_stratified(workload):
    a, b = workloads.sample_sweep(workload, 7), workloads.sample_sweep(workload, 8)
    assert a == workloads.sample_sweep(workload, 7)
    assert a != b
    assert len(a) == {"one-vertex": 60, "multi-vertex": 80, "partitions": 34}[workload]
    # every seed takes the same number of members from each stratum
    assert Counter(map(workloads.stratum, a)) == Counter(map(workloads.stratum, b))
    family = workloads.sweep_family(workload)
    assert all(c in family for c in a)
    assert len({workloads.case_key(c) for c in a}) == len(a)


def test_tracer_wraps_every_namespace_and_restores_originals():
    originals = {(m.__name__, attr): v for m in (quasibps, quasibps.cli, quasibps.magic)
                 for attr, v in vars(m).items() if callable(v)}
    tracer = tracing.Tracer().install()
    try:
        assert quasibps.magic.contains is not originals[("quasibps.magic", "contains")]
        assert quasibps.cli.magic_dimension is not originals[("quasibps.cli", "magic_dimension")]
        assert quasibps.magic_dimension_v(quasibps.loop_quiver(3), (2,), 1) == 1
    finally:
        tracer.restore()
    after = {(m.__name__, attr): v for m in (quasibps, quasibps.cli, quasibps.magic)
             for attr, v in vars(m).items() if callable(v)}
    assert after == originals
    m = tracer.layer_metrics()
    assert m["magic.magic_dimension.calls"] == 1
    assert m["zonotope.contains.calls"] >= 1
    assert m["magic.points_per_test"] > 0


def test_missing_function_yields_null():
    targets = tracing.TARGETS + (("zonotope", "gone", None), ("no_such_module", "f", None))
    tracer = tracing.Tracer(targets=targets).install()
    try:
        quasibps.score_sequence_count(1, 3, 1)
    finally:
        tracer.restore()
    m = tracer.layer_metrics()
    assert tracer.missing == {"zonotope.gone", "no_such_module.f"}
    assert m["zonotope.gone.calls"] is None and m["no_such_module.f.self_s"] is None
    assert m["bps.score_sequence_count.calls"] == 1
    assert m["zonotope.contains.calls"] == 0


def test_speed_probe_samples_inside_a_segment_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    clock = hostspeed.SpeedProbe()

    def work():  # about 0.6 s, so about ten probes run inside it
        return sum(hostspeed.probe() for _ in range(150))

    result, nominal_s, plain_s = clock.measure(work)
    assert result == 150 * hostspeed.probe()
    inside = len(clock.samples) - 2 * hostspeed.EDGE_PROBES
    assert inside >= 3
    # nominal time = plain time scaled by nominal over mean probe time
    mean_probe = sum(clock.samples) / len(clock.samples)
    assert nominal_s == pytest.approx(plain_s * hostspeed.NOMINAL_PROBE_S / mean_probe)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    with pytest.raises(ZeroDivisionError):
        clock.measure(lambda: 1 / 0)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def tiny_pass_input(tmp_path):
    workloads.write_quiver_files(tmp_path)
    cases = [("one-vertex", {"g": 1, "d": 3, "v": 2}),
             ("one-vertex", {"g": 0, "d": 4, "v": 4}),
             ("multi-vertex", {"quiver": "toric1", "d": [1, 2], "v": -1}),
             ("partitions", {"quiver": "cross", "d": [2, 1]}),
             ("partitions", {"quiver": "loops3", "d": [5]})]
    sweep = [dict(case, expect=EXPECTED[w][workloads.case_key(case)],
                  arrows=workloads.QUIVERS.get(case.get("quiver")))
             for w, case in cases]
    fixed = [{"name": "toric0", "keys": ["magic_k0_dim"], "expect": {"magic_k0_dim": 2},
              "argv": ["magic-count", "--quiver", str(tmp_path / "toric0.json"),
                       "--dim", "1,1", "--v", "1", "--output", "json"]},
             {"name": "s-set", "keys": ["count", "partitions"],
              "expect": {"count": 1, "partitions": [[[4]]]},
              "argv": ["s-set", "--loops", "3", "--dim", "4", "--v", "1", "--output", "json"]}]
    return {"workload": "smoke", "fixed": fixed, "sweep": sweep}


def test_smoke_pass_untraced_and_traced_agree(tmp_path):
    pass_input = tiny_pass_input(tmp_path)
    plain = worker.run_pass(pass_input)
    assert plain["failed"] == 0 and plain["attempted"] == 7
    assert 0 < plain["sweep_s"] < plain["wall_s"] and 0 < plain["largest_s"] < plain["wall_s"]
    assert plain["host_speed"] > 0
    traced = worker.run_pass(dict(pass_input, trace=True), tmp_path / "spans.tsv")
    assert traced["values"] == plain["values"]
    assert traced["failed"] == 0
    assert traced["layers"]["cli.main.calls"] == 2
    assert traced["missing"] == []
    assert set(traced["layers"]) | {"trace.overhead_s"} == set(tracing.LAYER_METRICS)
    assert (tmp_path / "spans.tsv").read_text().startswith("span\tparent\tname")
    # a wrong pinned value is counted, not raised
    pass_input["fixed"][0]["expect"] = {"magic_k0_dim": 3}
    assert worker.run_pass(pass_input)["failed"] == 1
    # so is another admissible set of the same size
    pass_input["fixed"][1]["expect"]["partitions"] = [[[3], [1]]]
    assert worker.run_pass(pass_input)["failed"] == 2


def test_benchmark_json_matches_the_metrics_produced():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_METRICS
    # the run length and default seed have one source: BENCHMARK.json
    args = run.parse_args([])
    assert args.seconds == spec["run_seconds"]
    assert ["--seed", str(args.seed)] == spec["command"][-2:]
    with pytest.raises(SystemExit):
        run.parse_args(["--seconds", str(spec["run_seconds"] + 1)])


def test_run_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "partitions",
                           "--seed", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

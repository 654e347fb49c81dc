import json
import re

import pytest

import quasibps.cli as cli
import quasibps.verify as verify
from quasibps import magic
from quasibps.verify import (
    CHECKS,
    DEEP_CHECKS,
    CheckResult,
    check_deep_fractional_central,
    check_deep_naive_lattice,
    check_deep_width_bruteforce,
    report_dict,
    report_json,
    toric_quiver,
)


def test_registry_names_are_unique_slugs():
    names = [name for name, _, _ in CHECKS + DEEP_CHECKS]
    assert len(set(names)) == len(names)
    assert all(re.fullmatch(r"[a-z0-9]+(-[a-z0-9]+)*", n) for n in names)
    assert all(anchor for _, anchor, _ in CHECKS + DEEP_CHECKS)


def test_toric_quiver_shape():
    q = toric_quiver(2)
    assert q.arrows == ((1, 5), (5, 1))


def test_deep_checks_pass():
    for fn in (check_deep_width_bruteforce, check_deep_naive_lattice,
               check_deep_fractional_central):
        expected, computed, passed = fn()
        assert passed, (fn.__name__, expected, computed)


def test_report_shape_and_failure_propagation():
    rows = [CheckResult("a", "anchor a", "1", "1", True, 5),
            CheckResult("b", "anchor b", "2", "3", False, 6)]
    obj = report_dict(rows)
    assert obj["pass"] is False
    assert [set(c) for c in obj["checks"]] == \
        [{"name", "anchor", "expected", "computed", "pass", "ms"}] * 2
    assert obj["checks"][1]["computed"] == "3"
    raw = report_json(rows)
    assert json.dumps(json.loads(raw), sort_keys=True, separators=(",", ":")) == raw


def plus_one(f):
    return lambda *args, **kwargs: f(*args, **kwargs) + 1


def plus_one_at_full_rank(f):
    """magic_dimension_v, one too high at v = |d| alone: that splits the
    sweep's gcd class {0, |d|, 2|d|}."""
    return lambda q, d, v, **kwargs: f(q, d, v, **kwargs) + (v == sum(d))


# plant id: the name in quasibps.verify replaced by a wrong one, the wrong
# one, and the checks that must fail
PLANTS = {
    "loop_count": ("loop_count", plus_one, ["score-route-agreement"]),
    "magic_dimension_v": ("magic_dimension_v", plus_one,
                          ["toric-window-counts", "odd-loop-rank-two",
                           "one-loop-divisibility", "score-route-agreement"]),
    "magic_dimension_v-at-full-rank": ("magic_dimension_v", plus_one_at_full_rank,
                                       ["gcd-invariance"]),
    "partition_indicator": ("partition_indicator",
                            lambda f: lambda *args, **kwargs: not f(*args, **kwargs),
                            ["admissibility-routes"]),
    "bps_assembly_dim": ("bps_assembly_dim", plus_one,
                         ["toric-window-counts", "tripled-loop-assembly"]),
    "find_central_weight": ("find_central_weight", lambda f: lambda *args, **kwargs: None,
                            ["central-weight-search"]),
    "admissible_partitions": ("admissible_partitions",
                              lambda f: lambda *args, **kwargs: f(*args, **kwargs)[1:],
                              ["closed-form-sets", "central-weight-search"]),
    "magic_dimension": ("magic_dimension", plus_one, ["naive-lattice", "fractional-central"]),
}


def plant(monkeypatch, plant_id):
    """Apply the plant ``plant_id`` and leave only its targeted checks registered."""
    name, wrong, names = PLANTS[plant_id]
    monkeypatch.setattr(verify, name, wrong(getattr(verify, name)))
    monkeypatch.setattr(verify, "CHECKS", [c for c in CHECKS + DEEP_CHECKS if c[0] in names])
    monkeypatch.setattr(verify, "DEEP_CHECKS", [])


@pytest.mark.parametrize("plant_id", PLANTS)
def test_every_targeted_check_fails_under_its_plant(monkeypatch, plant_id):
    names = PLANTS[plant_id][2]
    plant(monkeypatch, plant_id)
    seen = []
    results = verify.run_checks(progress=seen.append)
    assert [r.name for r in results] == [r.name for r in seen] == \
        [c[0] for c in CHECKS + DEEP_CHECKS if c[0] in names]
    for r in results:
        assert r.passed is False, r
        # odd-loop-rank-two prints its counts rather than a mismatch list
        assert "mismatches" in r.computed or r.name == "odd-loop-rank-two", r
    assert report_dict(results)["pass"] is False


def test_membership_routes_fail_when_the_window_count_is_off(monkeypatch):
    # the checked route raises, and the check reports it rather than crashing
    count = magic._window_count
    monkeypatch.setattr(magic, "_window_count", lambda *args: count(*args) + 1)
    _, computed, passed = verify.check_membership_routes()
    assert passed is False
    assert "mismatches" in computed and "route disagreement" in computed


def test_cli_verify_exits_one_under_a_plant(monkeypatch, capsys):
    plant(monkeypatch, "loop_count")
    assert cli.main(["verify", "--quiet"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("FAIL  score-route-agreement")
    assert "      computed: " in out and "mismatches" in out

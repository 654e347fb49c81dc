import json
import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasibps.bps import (
    BlockDimTable,
    block_table_from_dict,
    block_table_to_dict,
    bps_assembly_dim,
    builtin_block_table,
    ktheory_dim_from_bps,
    load_block_table,
    loop_count,
    partition_count,
    score_sequence_count,
    sym_power_dim,
)
from quasibps.errors import InputSchemaError, MissingBlockError
from quasibps.magic import magic_dimension_v
from quasibps.quiver import Quiver, loop_quiver, triple
from quasibps.weights import CentralWeight

TORIC1 = Quiver(("0", "1"), ((1, 3), (3, 1)))


def test_score_sequence_small_values():
    # derived by hand from the defining inequalities
    assert score_sequence_count(1, 2, 0) == 2
    assert score_sequence_count(1, 2, 1) == 1
    assert score_sequence_count(1, 2, 2) == 2
    assert score_sequence_count(2, 2, 0) == 3
    assert score_sequence_count(2, 2, 1) == 2


def test_score_sequence_rank_one():
    for g in range(3):
        for v in range(-3, 4):
            assert score_sequence_count(g, 1, v) == 1


def test_score_sequence_g_zero():
    for d in range(1, 6):
        for v in range(-4, 9):
            assert score_sequence_count(0, d, v) == (1 if v % d == 0 else 0)


def test_score_sequence_matches_window_count():
    for g in range(2):
        q = loop_quiver(2 * g + 1)
        for d in range(1, 5):
            for v in range(0, d + 2):
                assert score_sequence_count(g, d, v) == magic_dimension_v(q, (d,), v)


def _score_sequences_in_box(g, d, v, margin=0):
    """Tuples of the box [lo - margin, hi + margin]^d summing to v that satisfy
    the defining inequalities as written; the last entry is fixed by the sum."""
    lo = math.ceil(Fraction(v, d)) - 2 * g * (d - 1) - margin
    hi = math.floor(Fraction(v, d)) + 2 * g * (d - 1) + margin
    count = 0
    for head in product(range(lo, hi + 1), repeat=d - 1):
        last = v - sum(head)
        if not lo <= last <= hi:
            continue
        c = (*head, last)
        if (all(c[i] - c[i - 1] + 2 * g >= 0 for i in range(1, d))
                and all(d * sum(c[d - k:]) <= v * k for k in range(1, d + 1))):
            count += 1
    return count


@st.composite
def score_cases(draw):
    g = draw(st.integers(0, 2))
    d = draw(st.integers(1, 5))
    return g, d, draw(st.integers(-2, 2 * d + 2))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(score_cases())
def test_score_sequence_count_matches_box_scan(case):
    assert score_sequence_count(*case) == _score_sequences_in_box(*case)


@pytest.mark.parametrize("d", [2, 3])
def test_score_sequence_counted_pair_on_an_edge_grid(d):
    # d = 2 is the counted last pair alone; d = 3 adds one walked entry.  The
    # scan's box is wider than the one the entries must lie in, so the
    # test does not rest on that box.
    for g in range(5):
        for v in range(-2 * d - 3, 4 * d + 4):
            want = _score_sequences_in_box(g, d, v, margin=3)
            assert score_sequence_count(g, d, v) == want, (g, v)


def test_score_sequence_shares_no_code_with_the_window_count(monkeypatch):
    import quasibps.magic as magic

    def refuse(*args, **kwargs):
        raise AssertionError("the score walk called the window count")

    for name in ("_window_count", "_small_last", "_box3"):
        monkeypatch.setattr(magic, name, refuse)
    pinned = {  # g: rows d = 1..5, each over v = -1..d+1
        0: [[1, 1, 1, 1], [0, 1, 0, 1, 0], [0, 1, 0, 0, 1, 0], [0, 1, 0, 0, 0, 1, 0],
            [0, 1, 0, 0, 0, 0, 1, 0]],
        1: [[1, 1, 1, 1], [1, 2, 1, 2, 1], [3, 5, 3, 3, 5, 3], [10, 16, 10, 11, 10, 16, 10],
            [40, 59, 40, 40, 40, 40, 59, 40]],
        2: [[1, 1, 1, 1], [2, 3, 2, 3, 2], [10, 13, 10, 10, 13, 10], [60, 76, 60, 63, 60, 76, 60],
            [425, 521, 425, 425, 425, 425, 521, 425]],
    }
    for g, rows in pinned.items():
        got = [[score_sequence_count(g, d, v) for v in range(-1, d + 2)] for d in range(1, 6)]
        assert got == rows, g


def test_score_sequence_pinned_large_ranks():
    # rank 16 agrees with the window count; rank 24 was computed by the
    # former memoized recursive walk
    assert score_sequence_count(1, 16, 1) == 2_936_000_232
    assert score_sequence_count(1, 24, 1) == 4_600_845_868_539_708


def test_score_sequence_input_errors():
    with pytest.raises(InputSchemaError):
        score_sequence_count(-1, 2, 0)
    with pytest.raises(InputSchemaError):
        score_sequence_count(1, 0, 0)
    with pytest.raises(InputSchemaError):
        score_sequence_count(True, 3, 1)
    with pytest.raises(InputSchemaError):
        score_sequence_count(1, True, 1)
    with pytest.raises(InputSchemaError):
        score_sequence_count(1, 3, 0.5)
    with pytest.raises(InputSchemaError):
        score_sequence_count(1, 3, True)


@st.composite
def loop_cases(draw):
    g = draw(st.integers(0, 6))
    d = draw(st.integers(1, 12))
    return g, d, draw(st.integers(-3, 2 * d))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(loop_cases())
def test_loop_count_matches_score_walk(case):
    assert loop_count(*case) == score_sequence_count(*case)


def test_loop_count_pinned_large_ranks():
    assert loop_count(1, 16, 1) == 2_936_000_232
    assert loop_count(1, 24, 1) == 4_600_845_868_539_708


def test_loop_count_at_coprime_weight_is_the_dt_invariant():
    # k = gcd(d, v) = 1 leaves the single factor t^1, whose coefficient is
    # Omega_d; for the 3-loop quiver these are Reineke's 1, 1, 3, 10, 40, 171, 791
    assert [loop_count(1, e, 1) for e in range(1, 8)] == [1, 1, 3, 10, 40, 171, 791]
    assert [loop_count(0, e, 1) for e in range(1, 6)] == [1, 0, 0, 0, 0]


def test_loop_count_depends_on_gcd_of_rank_and_weight():
    for v in (0, 6, 12, -6):
        assert loop_count(1, 6, v) == score_sequence_count(1, 6, v) == loop_count(1, 6, 0)
    assert loop_count(1, 6, 2) == loop_count(1, 6, 4) == loop_count(1, 6, -2)


@pytest.mark.parametrize("args", [(-1, 2, 0), (1, 0, 0), (True, 3, 1), (1, True, 1),
                                  (1, 3, 0.5), (1, 3, True), (1.0, 3, 1), (1, -2, 1)])
def test_loop_count_refuses_what_the_walk_refuses(args):
    with pytest.raises(InputSchemaError) as walk:
        score_sequence_count(*args)
    with pytest.raises(InputSchemaError) as closed:
        loop_count(*args)
    assert str(closed.value) == str(walk.value)


def test_partition_count_values():
    want = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]
    assert [partition_count(n) for n in range(10)] == want
    with pytest.raises(InputSchemaError):
        partition_count(-1)
    with pytest.raises(InputSchemaError):
        partition_count("3")
    with pytest.raises(InputSchemaError):
        partition_count(True)


def test_sym_power_dim():
    assert sym_power_dim(5, 0) == 1
    assert sym_power_dim(1, 9) == 1
    assert sym_power_dim(2, 3) == 4
    assert sym_power_dim(3, 2) == 6
    assert sym_power_dim(0, 2) == 0
    assert sym_power_dim(0, 0) == 1
    with pytest.raises(InputSchemaError):
        sym_power_dim(-1, 0)
    for n, m in ((True, 2), (2, True), (1.5, 2), (2, 1.0)):
        with pytest.raises(InputSchemaError):
            sym_power_dim(n, m)


def test_block_table_lookup():
    table = BlockDimTable((((2,), 5), ((1,), 3)))
    assert table.dims == (((1,), 3), ((2,), 5))  # canonical order
    assert table.dim_for((1,)) == 3
    assert table.dim_for([2]) == 5
    with pytest.raises(MissingBlockError):
        table.dim_for((3,))
    with_default = BlockDimTable((), default_dim=1)
    assert with_default.dim_for((7,)) == 1
    assert with_default == BlockDimTable((), "trivial", 1)
    table = BlockDimTable(dims=[((1,), 2)], monodromy="full-input", invariant_dim=3)
    assert table == BlockDimTable((((1,), 2),), "full-input", None, 3)
    assert table != BlockDimTable((((1,), 2),), "full-input", None, 4)
    with pytest.raises(InputSchemaError):
        BlockDimTable((), monodromy="mysterious")
    for dims, default, invariant in [((((1,), 1.7),), None, None),
                                     ((((1,), True),), None, None),
                                     ((((1,), -1),), None, None),
                                     ((), "x", None), ((), 1.5, None), ((), True, None),
                                     ((), None, "foo"), ((), None, -2),
                                     ((((1.5,), 1),), None, None), ((("ab", 1),), None, None),
                                     ((((), 1),), None, None), ((((True,), 1),), None, None),
                                     (((1, 1),), None, None),
                                     ((((1,), 5), ((1,), 1)), None, None),
                                     ((((1,), 1), ([1], 5)), None, None)]:
        with pytest.raises(InputSchemaError):
            BlockDimTable(dims, "full-input", default, invariant)


def test_builtin_tables():
    assert builtin_block_table("tripled-one-loop").dim_for((9,)) == 1
    one = builtin_block_table("one-loop")
    assert one.dim_for((1,)) == 1
    assert one.dim_for((2,)) == 0
    toric = builtin_block_table("toric-potential")
    assert toric.dim_for((1, 0)) == 1
    assert toric.dim_for((1, 1)) == 0
    with pytest.raises(InputSchemaError):
        builtin_block_table("nonesuch")


def test_block_table_json_round_trip(tmp_path):
    table = BlockDimTable((((1, 0), 2),), monodromy="full-input",
                          default_dim=0, invariant_dim=1)
    obj = block_table_to_dict(table)
    assert block_table_from_dict(obj) == table
    path = tmp_path / "table.json"
    path.write_text(json.dumps(obj))
    assert load_block_table(path) == table


def test_load_block_table_errors(tmp_path):
    with pytest.raises(InputSchemaError, match="cannot read"):
        load_block_table(tmp_path / "absent.json")
    path = tmp_path / "broken.json"
    path.write_text('{"blocks": [')
    with pytest.raises(InputSchemaError, match="not valid JSON"):
        load_block_table(path)
    path.write_bytes(b"\xff\xfe\x00bad")
    with pytest.raises(InputSchemaError, match="cannot read"):
        load_block_table(path)
    path.write_bytes(b"[" * 200_000)
    with pytest.raises(InputSchemaError, match="not valid JSON"):
        load_block_table(path)


def test_block_table_schema_errors():
    for bad in ([], {}, {"blocks": 3}, {"blocks": [{"e": [1]}]},
                {"blocks": [{"e": [], "dim": 1}]},
                {"blocks": [{"e": [1], "dim": -1}]},
                {"blocks": [{"e": [1.5], "dim": 1}]},
                {"blocks": [{"e": [True], "dim": 1}]},
                {"blocks": [{"e": [1], "dim": True}]},
                {"blocks": [{"e": "ab", "dim": 1}]},
                {"blocks": [{"e": 1, "dim": 1}]},
                {"blocks": [{"e": [1], "dim": 5}, {"e": [1], "dim": 1}]},
                {"blocks": [{"e": [1], "dim": 1}, {"e": [1], "dim": 5}]}):
        with pytest.raises(InputSchemaError):
            block_table_from_dict(bad)


def test_assembly_tripled_one_loop():
    q = triple(loop_quiver(1))
    table = builtin_block_table("tripled-one-loop")
    for n in range(1, 7):
        assert bps_assembly_dim(q, (n,), CentralWeight.spread((n,), 0), table) \
            == partition_count(n)
        assert bps_assembly_dim(q, (n,), CentralWeight.spread((n,), 1), table) == 1


def test_assembly_one_loop():
    q = loop_quiver(1)
    table = builtin_block_table("one-loop")
    for n in range(1, 5):
        # only the all-ones partition carries a nonzero block
        assert bps_assembly_dim(q, (n,), CentralWeight.spread((n,), 0), table) == 1
    assert bps_assembly_dim(q, (2,), CentralWeight.spread((2,), 1), table) == 0


def test_assembly_toric():
    table = builtin_block_table("toric-potential")
    for v in range(-2, 4):
        want = 1 if v % 2 else 0  # diagonal block vanishes, split survives odd v
        assert bps_assembly_dim(TORIC1, (1, 1), CentralWeight.spread((1, 1), v),
                                table) == want


def test_assembly_multiplicities_use_symmetric_powers():
    q = loop_quiver(3)
    table = BlockDimTable((((1,), 3), ((2,), 5)))
    # v = 0 admits {2} and {1,1}: 5 + Sym^2 of a 3-dim block = 5 + 6
    assert bps_assembly_dim(q, (2,), CentralWeight.spread((2,), 0), table) == 11


def test_assembly_missing_block():
    table = builtin_block_table("toric-potential")
    with pytest.raises(MissingBlockError):
        bps_assembly_dim(TORIC1, (2, 2), CentralWeight.spread((2, 2), 0), table)


def test_ktheory_parities():
    assert ktheory_dim_from_bps(7, "mf") == (7, 7)
    assert ktheory_dim_from_bps(7, "preprojective") == (7, 0)
    assert ktheory_dim_from_bps(9, "mf", monodromy="full-input",
                                invariant_dim=4) == (4, 4)
    with pytest.raises(InputSchemaError):
        ktheory_dim_from_bps(9, "mf", monodromy="full-input")
    with pytest.raises(InputSchemaError):
        ktheory_dim_from_bps(9, "spicy")
    with pytest.raises(InputSchemaError):
        ktheory_dim_from_bps(9, "mf", monodromy="partial")
    for assembly, invariant in [(-4, None), (1.5, None), (True, None), ("3", None),
                                (None, None), (3, "foo"), (3, -1), (3, 2.0), (3, False)]:
        with pytest.raises(InputSchemaError, match="nonnegative integer"):
            ktheory_dim_from_bps(assembly, "mf", monodromy="full-input",
                                 invariant_dim=invariant)
    with pytest.raises(InputSchemaError, match="nonnegative integer"):
        ktheory_dim_from_bps(-4)
    assert ktheory_dim_from_bps(0, "preprojective") == (0, 0)

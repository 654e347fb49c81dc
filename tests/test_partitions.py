import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasibps import partitions
from quasibps.bps import partition_count
from quasibps.errors import (
    AsymmetricQuiverError,
    CutoffExceededError,
    InputSchemaError,
)
from quasibps.oracle import _orderings, partition_indicator_blockwise
from quasibps.partitions import (
    VectorPartition,
    _admissible_parts,
    _parts,
    admissible_partitions,
    enumerate_vector_partitions,
    find_central_weight,
    partition_indicator,
)
from quasibps.quiver import Quiver, WeightMultiset, loop_quiver, total_dim, triple
from quasibps.weights import CentralWeight

TORIC1 = Quiver(("0", "1"), ((1, 3), (3, 1)))
CROSS = Quiver(("a", "b"), ((1, 2), (2, 1)))
ALL_ONES_3 = Quiver(("0", "1", "2"), ((1, 1, 1),) * 3)


def test_vector_partition_canonical():
    a = VectorPartition(((1, 0), (1, 1), (1, 0)))
    b = VectorPartition(((1, 1), (1, 0), (1, 0)))
    assert a == b
    assert hash(a) == hash(b)
    assert a == VectorPartition(parts=[(1, 0), (1, 1), (1, 0)])
    # equal fields, different record class or a bare tuple: never equal
    assert VectorPartition(((1,),)) != WeightMultiset(((1,),))
    assert VectorPartition(((1,),)) != CentralWeight((1,))
    assert a != (a.parts,)
    assert a.parts == ((1, 1), (1, 0), (1, 0))
    assert a.length == 3
    assert a.vector_sum() == (3, 1)
    assert a.multiplicities() == {(1, 1): 1, (1, 0): 2}
    assert str(a) == "(1,1)+(1,0)+(1,0)"
    assert str(VectorPartition(((2,), (1,)))) == "2+1"
    with pytest.raises(InputSchemaError):
        VectorPartition(((1,), (0,)))
    with pytest.raises(InputSchemaError):
        VectorPartition(((1, -1),))
    with pytest.raises(InputSchemaError):
        VectorPartition(((True,),))


def test_listed_partitions_pass_the_public_constructor():
    # the enumerator builds its records unchecked; each must be what the
    # checking constructor makes of its parts
    for top in ((3, 3), (2, 2, 2)):
        for d in product(*(range(m + 1) for m in top)):
            if any(d):
                for p in enumerate_vector_partitions(d):
                    assert p == VectorPartition(p.parts)


def test_enumerate_single_vertex_matches_partition_function():
    for n in range(1, 7):
        parts = enumerate_vector_partitions((n,))
        assert len(parts) == partition_count(n)
        assert all(a.vector_sum() == (n,) for a in parts)
        assert len(set(parts)) == len(parts)
    assert [str(a) for a in enumerate_vector_partitions((3,))] == ["3", "2+1", "1+1+1"]


def test_enumerate_two_vertex_counts():
    assert len(enumerate_vector_partitions((1, 1))) == 2
    assert len(enumerate_vector_partitions((2, 1))) == 4
    assert len(enumerate_vector_partitions((2, 2))) == 9
    for a in enumerate_vector_partitions((2, 2)):
        assert a.vector_sum() == (2, 2)


def test_enumerate_cutoff():
    with pytest.raises(CutoffExceededError):
        enumerate_vector_partitions((21,))
    assert len(enumerate_vector_partitions((21,), force=True)) == partition_count(21)
    with pytest.raises(InputSchemaError):
        enumerate_vector_partitions((True,))


def test_orderings_of_a_multiset():
    parts = ((1, 0), (1, 0), (0, 1))
    seen = list(_orderings(parts))
    assert len(seen) == 3
    assert len(set(seen)) == 3
    assert all(tuple(sorted(o, reverse=True)) == parts for o in seen)


def test_full_partition_is_always_admissible():
    for q, d in [(loop_quiver(3), (4,)), (TORIC1, (1, 1)), (CROSS, (2, 2)),
                 (ALL_ONES_3, (30, 30, 30))]:
        for v in range(0, 4):
            delta = CentralWeight.spread(d, v)
            assert partition_indicator(q, d, [tuple(d)], delta) == 1


def test_indicator_evaluates_only_the_distinct_parts(monkeypatch):
    # H is evaluated on the partition's own parts, not on every profile of d
    half_widths = partitions._scaled_half_widths
    seen = []

    def record(q, d, delta, verts, profiles):
        seen.append(list(profiles))
        return half_widths(q, d, delta, verts, seen[-1])

    monkeypatch.setattr(partitions, "_scaled_half_widths", record)
    parts = [(1, 0), (1, 1), (1, 0), (0, 1)]
    for v in range(0, 4):
        delta = CentralWeight.spread((3, 2), v)
        assert partition_indicator(CROSS, (3, 2), parts, delta) == \
            partition_indicator_blockwise(CROSS, (3, 2), parts, delta)
    assert seen == [[(1, 1), (1, 0), (0, 1)]] * 4


def test_indicator_three_loop_rank_two():
    q = loop_quiver(3)
    two = VectorPartition(((1,), (1,)))
    assert partition_indicator(q, (2,), two, CentralWeight.spread((2,), 0)) == 1
    assert partition_indicator(q, (2,), two, CentralWeight.spread((2,), 1)) == 0
    assert partition_indicator(q, (2,), two, CentralWeight.spread((2,), 2)) == 1


def test_indicator_toric_two_part_tracks_parity():
    two = VectorPartition(((1, 0), (0, 1)))
    for v in range(-2, 4):
        delta = CentralWeight.spread((1, 1), v)
        assert partition_indicator(TORIC1, (1, 1), two, delta) == v % 2


def test_indicator_one_loop_tracks_evenness():
    q = loop_quiver(1)
    two = VectorPartition(((1,), (1,)))
    for v in range(0, 4):
        delta = CentralWeight.spread((2,), v)
        assert partition_indicator(q, (2,), two, delta) == (1 if v % 2 == 0 else 0)


def test_blockwise_route_agrees():
    quivers = [loop_quiver(1), loop_quiver(2), loop_quiver(3), CROSS, TORIC1]
    for q in quivers:
        dims = [(d,) for d in (1, 2, 3)] if q.num_vertices == 1 else \
               [(1, 1), (2, 1), (1, 2)]
        for d in dims:
            for v in range(total_dim(d) + 1):
                delta = CentralWeight.spread(d, v)
                for a in enumerate_vector_partitions(d):
                    assert partition_indicator(q, d, a, delta) == \
                        partition_indicator_blockwise(q, d, a, delta)
    # and on a non-spread central weight
    delta = CentralWeight.parse("1/2,-1/2")
    for a in enumerate_vector_partitions((2, 2)):
        assert partition_indicator(CROSS, (2, 2), a, delta) == \
            partition_indicator_blockwise(CROSS, (2, 2), a, delta)


@st.composite
def admissibility_cases(draw, max_total=5):
    """A symmetric quiver with at most 3 vertices, d with 1 <= |d| <= max_total,
    and a central weight with denominators at most 6."""
    nv = draw(st.integers(1, 3))
    arrows = [[0] * nv for _ in range(nv)]
    for i in range(nv):
        for j in range(i, nv):
            arrows[i][j] = arrows[j][i] = draw(st.integers(0, 4))
    total = draw(st.integers(1, max_total))
    cuts = sorted(draw(st.lists(st.integers(0, total), min_size=nv - 1, max_size=nv - 1)))
    d = tuple(b - a for a, b in zip([0] + cuts, cuts + [total]))
    delta = CentralWeight(tuple(
        draw(st.fractions(min_value=-2, max_value=2, max_denominator=6)) for _ in range(nv)))
    return Quiver(tuple(map(str, range(nv))), arrows), d, delta


@settings(derandomize=True, deadline=None, max_examples=300)
@given(admissibility_cases())
def test_per_part_rule_matches_every_ordering(case):
    q, d, delta = case
    blockwise = [a for a in enumerate_vector_partitions(d)
                 if partition_indicator_blockwise(q, d, a, delta)]
    for a in enumerate_vector_partitions(d):
        assert partition_indicator(q, d, a, delta) == (a in blockwise)
    assert admissible_partitions(q, d, delta) == tuple(blockwise)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(admissibility_cases(max_total=9))
def test_admissible_set_is_the_filtered_enumeration(case):
    # the enumerate-then-filter route, kept as the reference at ranks where
    # walking every ordering would be too slow
    q, d, delta = case
    every = enumerate_vector_partitions(d)
    assert all(a.parts > b.parts for a, b in zip(every, every[1:]))
    assert admissible_partitions(q, d, delta) == \
        tuple(a for a in every if partition_indicator(q, d, a, delta))


@st.composite
def integral_cases(draw):
    """An admissibility case with delta shifted at one vertex k with d_k > 0,
    so that <delta, d> is an integer."""
    q, d, delta = draw(admissibility_cases(max_total=8))
    k = draw(st.sampled_from([i for i, m in enumerate(d) if m]))
    total = delta.total_pairing(d)
    shift = [Fraction(0)] * len(d)
    shift[k] = Fraction(math.floor(total) - total, d[k])
    return q, d, delta + CentralWeight(tuple(shift))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(integral_cases())
def test_part_rule_is_symmetric_under_complement(case):
    # E is symmetric, so the tests of e and d - e sum to E(e, d - e) + <delta, d>:
    # with that pairing an integer, {d} is the whole set exactly when no
    # proper part is admissible, which is the rule the search decides on
    q, d, delta = case
    assert delta.total_pairing(d).denominator == 1
    proper = [e for e in product(*(range(m + 1) for m in d)) if 0 < sum(e) < sum(d)]
    admissible = set(_admissible_parts(q, d, delta, _parts(d, False)))
    for e in proper:
        rest = tuple(m - c for m, c in zip(d, e))
        assert (e in admissible) == (rest in admissible)
    singleton = admissible_partitions(q, d, delta) == (VectorPartition((d,)),)
    assert singleton == (not any(e in admissible for e in proper))


def test_admissible_sets_three_loop():
    q = loop_quiver(3)
    sets = {v: [str(a) for a in
                admissible_partitions(q, (3,), CentralWeight.spread((3,), v))]
            for v in range(4)}
    assert sets[0] == ["3", "2+1", "1+1+1"]
    assert sets[1] == ["3"]
    assert sets[2] == ["3"]
    assert sets[3] == ["3", "2+1", "1+1+1"]


def test_scaled_coprime_set_sizes():
    # odd loops: admissible sets at n-fold scalings of a coprime pair biject
    # with ordinary partitions of n
    q3 = loop_quiver(3)
    for n in range(1, 7):
        assert len(admissible_partitions(q3, (n,), CentralWeight.spread((n,), 0))) \
            == partition_count(n)
        assert len(admissible_partitions(q3, (n,), CentralWeight.spread((n,), n))) \
            == partition_count(n)


def test_indicator_accepts_raw_part_lists():
    q = loop_quiver(3)
    delta = CentralWeight.spread((3,), 0)
    assert partition_indicator(q, (3,), [(2,), (1,)], delta) == 1
    with pytest.raises(InputSchemaError):
        partition_indicator(q, (3,), [(2,), (2,)], delta)
    # a part with another vertex count is refused, although its entries add up
    with pytest.raises(InputSchemaError, match="need 1 entries"):
        partition_indicator(q, (3,), [(2, 0), (1,)], delta)


def test_find_central_weight_odd_loops():
    q = loop_quiver(3)
    assert find_central_weight(q, (1,)) == CentralWeight.spread((1,), 0)
    for d in (2, 3, 5, 8):
        assert find_central_weight(q, (d,)) == CentralWeight.spread((d,), 1)


def test_find_central_weight_even_loops():
    q = loop_quiver(2)
    assert find_central_weight(q, (2,)) == CentralWeight.spread((2,), 0)
    assert find_central_weight(q, (4,)) == CentralWeight.spread((4,), 1)
    # rank 2 mod 4: the first working parameter shares a factor with the rank
    assert find_central_weight(q, (6,)) == CentralWeight.spread((6,), 2)


def test_find_central_weight_two_vertices():
    assert find_central_weight(TORIC1, (1, 1)) == CentralWeight.spread((1, 1), 0)
    assert find_central_weight(CROSS, (1, 1)) == CentralWeight.spread((1, 1), 1)


def test_find_central_weight_builds_one_table(monkeypatch):
    # E(e, d - e) is evaluated once per search; each candidate weight only
    # rescales its own pairing.  toric g=1 at d=(3,3) rejects v = 0 and 1
    # and accepts v = 2
    half_widths, scaled_central = partitions._scaled_half_widths, partitions._scaled_central
    tables, candidates = [], []

    def record_table(*args):
        tables.append(args[2])
        return half_widths(*args)

    def record_candidate(delta):
        candidates.append(delta)
        return scaled_central(delta)

    monkeypatch.setattr(partitions, "_scaled_half_widths", record_table)
    monkeypatch.setattr(partitions, "_scaled_central", record_candidate)
    assert find_central_weight(TORIC1, (3, 3)) == CentralWeight.spread((3, 3), 2)
    assert tables == [CentralWeight.zero(2)]
    assert candidates == [CentralWeight.spread((3, 3), v) for v in range(3)]


def test_find_central_weight_exhausted():
    assert find_central_weight(loop_quiver(3), (4,), max_v=0) is None


def test_find_central_weight_force_lifts_the_cutoff():
    with pytest.raises(CutoffExceededError):
        find_central_weight(loop_quiver(3), (25,))
    assert find_central_weight(loop_quiver(3), (25,), force=True) == CentralWeight.spread((25,), 1)


def test_find_central_weight_second_stage():
    # no spread weight isolates {d}; the first sum-zero correction that does
    # moves a third from one vertex to the other
    q = Quiver(("0", "1"), ((0, 1), (1, 1)))
    for v in range(4):
        assert len(admissible_partitions(q, (2, 2), CentralWeight.spread((2, 2), v))) > 1
    delta = find_central_weight(q, (2, 2))
    assert delta == CentralWeight((Fraction(-2, 3), Fraction(2, 3)))
    assert [a for a in enumerate_vector_partitions((2, 2))
            if partition_indicator_blockwise(q, (2, 2), a, delta)] == \
        [VectorPartition(((2, 2),))]


def test_find_central_weight_lists_no_partition(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the search must not list partitions")

    for name in ("_partitions_into", "admissible_partitions", "VectorPartition"):
        monkeypatch.setattr(partitions, name, refuse)
    q = Quiver(("0", "1"), ((0, 1), (1, 1)))
    assert find_central_weight(q, (2, 2)) == CentralWeight((Fraction(-2, 3), Fraction(2, 3)))
    assert find_central_weight(loop_quiver(2), (6,)) == CentralWeight.spread((6,), 2)
    assert find_central_weight(loop_quiver(3), (4,), max_v=0) is None
    with pytest.raises(CutoffExceededError, match="partition cutoff 20"):
        find_central_weight(loop_quiver(3), (21,))


def test_tripled_quiver_reuses_arrow_data():
    # admissibility sees only arrow counts, so the tripled one-loop quiver
    # behaves exactly like the plain three-loop one
    tq = triple(loop_quiver(1))
    delta = CentralWeight.spread((3,), 0)
    assert admissible_partitions(tq, (3,), delta) == \
        admissible_partitions(loop_quiver(3), (3,), delta)


def test_partition_input_errors():
    asym = Quiver(("a", "b"), ((0, 2), (1, 0)))
    with pytest.raises(AsymmetricQuiverError):
        partition_indicator(asym, (1, 1), [(1, 1)], CentralWeight.zero(2))
    with pytest.raises(InputSchemaError):
        admissible_partitions(loop_quiver(3), (2, 2), CentralWeight.zero(1))
    with pytest.raises(InputSchemaError, match="zero"):
        admissible_partitions(CROSS, (0, 0), CentralWeight.zero(2))
    with pytest.raises(InputSchemaError, match="zero"):
        find_central_weight(CROSS, (0, 0))
    for bad in (2.5, "3", True, False, -1, Fraction(1)):
        with pytest.raises(InputSchemaError, match="max_v"):
            find_central_weight(loop_quiver(3), (4,), max_v=bad)


def _first_isolating_weight(q, d):
    """The search's candidate stream with every correction, repeats included,
    and {d} checked against the whole admissible set."""
    spread = [CentralWeight.spread(d, v) for v in range(total_dim(d))]
    corrected = (s + CentralWeight(tuple(Fraction(num, den) for num in nums))
                 for s in spread for den in range(1, partitions.DEN_BOUND + 1)
                 for nums in product(range(-partitions.NUM_BOUND, partitions.NUM_BOUND + 1),
                                     repeat=len(d))
                 if any(nums) and sum(m * x for m, x in zip(d, nums)) == 0)
    for delta in (*spread, *corrected):
        if admissible_partitions(q, d, delta) == (VectorPartition((d,)),):
            return delta
    return None


def test_find_central_weight_skips_only_repeated_corrections():
    # the bench's partitions families, d=(4,4), and a quiver whose hit is a
    # denominator-3 correction, reached past the repeats at denominator 2
    cases = [(loop_quiver(2), (n,)) for n in range(1, 9)]
    cases += [(loop_quiver(3), (n,)) for n in range(1, 9)]
    cases += [(q, (a, b)) for q in (CROSS, TORIC1)
              for a in range(1, 5) for b in range(1, 5) if a + b < 8 or a == b == 4]
    second = Quiver(("0", "1"), ((0, 1), (1, 1)))
    cases += [(second, (2, 2)), (second, (2, 4))]
    for q, d in cases:
        assert find_central_weight(q, d) == _first_isolating_weight(q, d), (q, d)
    assert find_central_weight(second, (2, 4)) == \
        CentralWeight((Fraction(-2, 3), Fraction(5, 6)))

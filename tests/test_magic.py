import math
import multiprocessing
import os
from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasibps import magic
from quasibps.errors import (
    AsymmetricQuiverError,
    CutoffExceededError,
    InputSchemaError,
    RouteDisagreementError,
)
from quasibps.magic import magic_dimension, magic_dimension_v
from quasibps.oracle import lattice_count_naive
from quasibps.partitions import _admissible_parts, _parts
from quasibps.quiver import Quiver, loop_quiver, slot_blocks, total_dim
from quasibps.weights import (
    CentralWeight,
    _scaled_central,
    _scaled_half_widths,
    integrality_indicator,
    pairing,
    weyl_vector,
    window_width,
)
from quasibps.zonotope import bounding_box, contains, weight_zonotope

TORIC = {g: Quiver(("0", "1"), ((1, 2 * g + 1), (2 * g + 1, 1))) for g in range(5)}
CROSS = Quiver(("a", "b"), ((1, 2), (2, 1)))
ALL_ONES_3 = Quiver(("0", "1", "2"), ((1,) * 3,) * 3)
ALL_ONES_4 = Quiver(("0", "1", "2", "3"), ((1,) * 4,) * 4)


def test_toric_counts():
    for g in range(3):
        for v in range(-2, 3):
            want = 2 * g + 2 if v % 2 else 2 * g + 1
            assert magic_dimension_v(TORIC[g], (1, 1), v) == want


def test_odd_loop_rank_two_counts():
    for e in range(1, 5):
        assert magic_dimension_v(loop_quiver(2 * e + 1), (2,), 1) == e


def test_one_loop_counts():
    for d in range(1, 6):
        for v in range(-4, 9):
            assert magic_dimension_v(loop_quiver(1), (d,), v) == (1 if v % d == 0 else 0)


def test_spread_delta_equals_v_route():
    for q, d, v in [(loop_quiver(3), (3,), 2), (TORIC[1], (1, 1), 1), (CROSS, (2, 1), 0)]:
        delta = CentralWeight.spread(d, v)
        assert magic_dimension(q, d, delta) == magic_dimension_v(q, d, v)


def test_fractional_slice_is_empty():
    assert magic_dimension(loop_quiver(3), (1,), CentralWeight((Fraction(1, 2),))) == 0
    assert magic_dimension(TORIC[1], (1, 1),
                           CentralWeight((Fraction(1, 3), Fraction(1, 3)))) == 0


def test_integer_vertex_shift_picks_the_other_slice():
    # v = 1 via delta = (1, 0) walks the integer diagonal slice: 2g+1 points,
    # while the spread weight walks the half-integer slice: 2g+2
    for g in range(3):
        assert magic_dimension(TORIC[g], (1, 1), CentralWeight((1, 0))) == 2 * g + 1
        assert magic_dimension_v(TORIC[g], (1, 1), 1) == 2 * g + 2


def test_shift_and_duality_invariance():
    for q, d in [(loop_quiver(3), (2,)), (loop_quiver(3), (3,)),
                 (TORIC[2], (1, 1)), (CROSS, (1, 2))]:
        n = total_dim(d)
        for v in range(-2, 3):
            base = magic_dimension_v(q, d, v)
            assert magic_dimension_v(q, d, v + n) == base
            assert magic_dimension_v(q, d, v - 2 * n) == base
            assert magic_dimension_v(q, d, -v) == base


def test_fast_modes_agree():
    # (2, 2, 3) is the case where a rank-2 earlier block's block-end state
    # seeds another rank-2 earlier block; CROSS (2, 4) and (4, 2) are walked
    # larger block first
    for q, d in [(loop_quiver(3), (3,)), (TORIC[1], (1, 1)), (CROSS, (2, 1)),
                 (CROSS, (2, 4)), (CROSS, (4, 2)),
                 (ALL_ONES_4, (1, 1, 2, 2)), (ALL_ONES_3, (2, 2, 3))]:
        for v in range(0, 3):
            on = magic_dimension_v(q, d, v, fast="on")
            off = magic_dimension_v(q, d, v, fast="off")
            checked = magic_dimension_v(q, d, v, fast="checked")
            assert on == off == checked


def test_parallel_jobs_agree():
    q, d = loop_quiver(3), (3,)
    for v in (0, 1):
        serial = magic_dimension_v(q, d, v)
        assert magic_dimension_v(q, d, v, jobs=2) == serial
        assert magic_dimension_v(q, d, v, jobs=5) == serial


def test_against_naive_box_scan():
    cases = [(loop_quiver(3), (2,), range(0, 3)),
             (loop_quiver(1), (3,), range(0, 4)),
             (TORIC[1], (1, 1), range(-2, 3)),
             (CROSS, (1, 1), range(0, 2))]
    for q, d, vs in cases:
        for v in vs:
            delta = CentralWeight.spread(d, v)
            assert magic_dimension(q, d, delta) == lattice_count_naive(q, d, delta)


def test_non_spread_delta_against_naive_scan():
    delta = CentralWeight((Fraction(3, 2), Fraction(-1, 2)))
    assert magic_dimension(TORIC[1], (1, 1), delta) == \
        lattice_count_naive(TORIC[1], (1, 1), delta)


def test_input_errors():
    asym = Quiver(("a", "b"), ((0, 2), (1, 0)))
    with pytest.raises(AsymmetricQuiverError):
        magic_dimension_v(asym, (1, 1), 0)
    with pytest.raises(InputSchemaError):
        magic_dimension_v(loop_quiver(1), (0,), 0)
    with pytest.raises(InputSchemaError):
        magic_dimension_v(loop_quiver(1), (2,), 0, fast="sometimes")
    with pytest.raises(InputSchemaError):
        magic_dimension_v(loop_quiver(1), (2,), 0, jobs=0)
    with pytest.raises(InputSchemaError):
        magic_dimension_v(loop_quiver(3), (3,), 1, jobs=True)
    with pytest.raises(InputSchemaError):
        magic_dimension_v(loop_quiver(3), (3,), 0.5)
    with pytest.raises(InputSchemaError):
        magic_dimension_v(loop_quiver(3), (3,), True)
    with pytest.raises(InputSchemaError):
        magic_dimension(TORIC[1], (1, 1), CentralWeight((1,)))
    with pytest.raises(InputSchemaError, match="zero"):
        magic_dimension(TORIC[1], (0, 0), CentralWeight.zero(2))
    with pytest.raises(InputSchemaError):
        magic_dimension(loop_quiver(3), (2,), CentralWeight((0.5,)))


def test_spread_errors_keep_their_order():
    # d is checked first, then v and a zero d, then symmetry, then the modes,
    # and all of them before the rank cutoff
    asym = Quiver(("a", "b"), ((0, 2), (1, 0)))
    with pytest.raises(InputSchemaError, match=r"dim\[1\] = -1"):
        magic_dimension_v(asym, (1, -1), 0.5)
    with pytest.raises(InputSchemaError, match="weight parameter v must be an integer"):
        magic_dimension_v(asym, (1, 1), 0.5)
    with pytest.raises(InputSchemaError,
                       match="cannot spread a weight over a zero dimension vector"):
        magic_dimension_v(asym, (0, 0), 0)
    with pytest.raises(AsymmetricQuiverError):
        magic_dimension_v(asym, (1, 1), 0, fast="sometimes")
    with pytest.raises(InputSchemaError, match="fast-membership mode"):
        magic_dimension_v(loop_quiver(1), (13,), 0, fast="sometimes")


def test_count_cutoff_and_force():
    with pytest.raises(CutoffExceededError):
        magic_dimension_v(loop_quiver(0), (13,), 0)
    # no generators: the window is the origin and the dominance order rules
    # out the only candidate as soon as the block has two slots
    assert magic_dimension_v(loop_quiver(0), (13,), 0, force=True) == 0
    assert magic_dimension_v(loop_quiver(0), (1,), 5) == 1


@pytest.mark.parametrize("call", [
    lambda: magic_dimension_v(loop_quiver(3), (13,), 1, fast="bogus"),
    lambda: magic_dimension_v(loop_quiver(3), (13,), 1, jobs=0),
    lambda: magic_dimension(TORIC[1], (7, 6), CentralWeight((1,))),
], ids=["fast", "jobs", "delta-vertices"])
def test_arguments_are_checked_before_the_rank_cutoff(call):
    # a bad argument is an input error (exit 2) even when the rank is refused
    with pytest.raises(InputSchemaError):
        call()


def test_forced_rank_17_count_without_generators_is_zero():
    assert magic_dimension_v(loop_quiver(0), (17,), 0, force=True) == 0


def test_forced_two_block_counts_above_the_cutoff():
    # rank 10 and 12, two blocks of rank > 1; the BPS assembly over
    # admissible partitions gives the same integers
    assert magic_dimension_v(TORIC[1], (5, 5), 1, force=True) == 1_822_630
    assert magic_dimension_v(CROSS, (6, 6), 0, force=True) == 3_666_387


def test_three_blocks_where_the_final_cap_binds():
    # the last block's full sum is cut by its final cap row here; a walk that
    # skips that test counts 1200 and 1873
    q = Quiver(("0", "1", "2"), ((0, 2, 2), (2, 0, 2), (2, 2, 0)))
    assert magic_dimension_v(q, (2, 2, 2), 0, fast="checked") == 1184
    assert magic_dimension_v(q, (2, 2, 2), 3, fast="checked") == 1808


def test_last_blocks_of_rank_three_and_four():
    # the last block's final three slots are counted as partitions in a box:
    # a rank-3 last block at its first slot, a rank-4 one after one walked
    # slot; bench/pin.py confirms the last two by the flow DFS
    assert magic_dimension_v(CROSS, (3, 3), 0, fast="checked") == 325
    assert magic_dimension_v(TORIC[1], (3, 4), 1) == 5_005
    assert magic_dimension_v(loop_quiver(3), (8,), 1) == 3_828


UNEVEN_3 = Quiver(("0", "1", "2"), ((1, 2, 1), (2, 0, 1), (1, 1, 3)))


@pytest.mark.parametrize("q, d, deltas", [
    (TORIC[1], (1, 1), None),
    (ALL_ONES_3, (1, 2, 2), None),
    (UNEVEN_3, (1, 0, 2), None),
    (ALL_ONES_3, (1, 1, 1), None),
    (ALL_ONES_3, (1, 1, 1), ("-1/2,1/3,1/6", "1/4,1/2,-3/4", "1,-1/2,1/2")),
    (UNEVEN_3, (1, 1, 2), ("1,0,-1/2", "1/3,2/3,-1/2", "1/4,3/4,0")),
], ids=["rank-1-after-one-block", "rank-2-after-two-blocks", "zero-block",
        "rank-1-after-two-blocks", "rank-1-rational-delta", "rank-2-rational-delta"])
def test_small_last_blocks_are_counted_at_the_last_earlier_slot(q, d, deltas):
    # a last block of rank at most 2 is counted at the last earlier block's
    # final slot, or from the start state when it is the only block: each
    # state adds its ways times the length of the first slot's range.  Every
    # v in [-n, 2n], or rational deltas, whose counts have no v <-> -v
    # symmetry to hide a swapped cap; "checked" compares with the flow DFS
    n = total_dim(d)
    weights = ([CentralWeight.spread(d, v) for v in range(-n, 2 * n + 1)] if deltas is None
               else [CentralWeight.parse(text) for text in deltas])
    assert all([magic_dimension(q, d, delta, fast="checked") for delta in weights])


def test_sweep_heaviest_strata():
    # the multi-vertex bench sweep's costliest strata, all with a last block
    # of rank at most 2; the same integers as bench/expected.json
    cases = [(TORIC[0], (2, 2), [2, 3, 2, 7, 2, 3, 2]),
             (TORIC[1], (2, 2), [36, 42, 36, 58, 36, 42, 36]),
             (TORIC[2], (2, 2), [150, 165, 150, 201, 150, 165, 150]),
             (TORIC[3], (2, 2), [392, 420, 392, 484, 392, 420, 392]),
             (TORIC[4], (2, 2), [810, 855, 810, 955, 810, 855, 810]),
             (ALL_ONES_3, (1, 1, 2), [7, 8, 7, 10, 7, 8, 7])]
    for q, d, want in cases:
        assert [magic_dimension_v(q, d, v, fast="checked") for v in range(-3, 4)] == want


def test_box3_counts_partitions_in_a_box():
    for k in range(26):
        want = [0] * (3 * k + 1)
        for a in range(k + 1):
            for b in range(a + 1):
                for c in range(b + 1):
                    want[a + b + c] += 1
        for n in range(-3, 3 * k + 4):
            assert magic._box3(n, k) == (want[n] if 0 <= n <= 3 * k else 0), (n, k)


def test_largest_block_is_counted_last(monkeypatch):
    # blocks are walked in ascending order of rank, so the largest carries no
    # residual; largest first, all-twos d=(1,4,6) takes about 4.5x as long
    # (2.4 s against 0.5 s).  Of exactly two blocks the larger goes first only
    # when the smaller has rank >= 2 and the larger rank >= 4; here the smaller
    # has rank 1, so the rank-11 block still comes last
    d = (11, 1)
    half_widths = magic._scaled_half_widths
    ranks = []

    def record_ranks(q, d, scale, sdelta, verts, profiles):
        ranks.extend(d[i] for i in verts)
        return half_widths(q, d, scale, sdelta, verts, profiles)

    monkeypatch.setattr(magic, "_scaled_half_widths", record_ranks)
    q = Quiver(("0", "1"), ((3, 2), (2, 1)))
    assert magic_dimension_v(q, d, 1) == 23_841_480
    assert ranks == [1, 11]


SKEW = Quiver(("0", "1"), ((3, 2), (2, 1)))
BLOCK_ORDERS = [
    # two blocks: larger first exactly when 2 <= smaller < larger >= 4
    (SKEW, (1, 2), [0, 1]), (SKEW, (1, 4), [0, 1]), (SKEW, (2, 3), [0, 1]),
    (SKEW, (11, 1), [1, 0]), (SKEW, (3, 4), [1, 0]), (SKEW, (2, 4), [1, 0]),
    (SKEW, (4, 2), [0, 1]),
    (SKEW, (4, 4), [0, 1]),  # equal ranks keep vertex order
    # three blocks stay ascending, also when the two-block bounds hold
    (ALL_ONES_3, (2, 4, 1), [2, 0, 1]),
    (ALL_ONES_3, (2, 4, 4), [0, 1, 2]),
]


@pytest.mark.parametrize("q, d, order", BLOCK_ORDERS,
                         ids=[",".join(map(str, d)) for _, d, _ in BLOCK_ORDERS])
def test_window_count_block_order(monkeypatch, q, d, order):
    half_widths = magic._scaled_half_widths
    walked = []

    def record_order(q, d, scale, sdelta, verts, profiles):
        walked.append(list(verts))
        return half_widths(q, d, scale, sdelta, verts, profiles)

    monkeypatch.setattr(magic, "_scaled_half_widths", record_order)
    magic_dimension_v(q, d, 1)
    assert walked == [order]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.integers(0, 3), st.integers(1, 8), st.data())
def test_odd_loop_count_depends_on_gcd_only(g, d, data):
    # on the 2g+1-loop quiver the count at v depends only on gcd(v, d), so a
    # unit multiple of v plus a multiple of d gives the same count
    v = data.draw(st.integers(-2 * d, 3 * d))
    u = data.draw(st.sampled_from([u for u in range(-d, d + 1) if math.gcd(u, d) == 1]))
    w = u * v + data.draw(st.integers(-2, 2)) * d
    q = loop_quiver(2 * g + 1)
    assert magic_dimension_v(q, (d,), w) == magic_dimension_v(q, (d,), v)


def test_jobs_start_no_process(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a process was started")

    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
    assert magic_dimension_v(loop_quiver(3), (3,), 1, jobs=5) == 3


@st.composite
def window_cases(draw):
    """A symmetric quiver with at most 3 vertices and at most 2 arrows per
    pair, d with 1 <= |d| <= 5, and a central weight with denominators at
    most 6: either the spread of an integer v or one rational per vertex."""
    nv = draw(st.integers(1, 3))
    arrows = [[0] * nv for _ in range(nv)]
    for i in range(nv):
        for j in range(i, nv):
            arrows[i][j] = arrows[j][i] = draw(st.integers(0, 2))
    total = draw(st.integers(1, 5))
    cuts = sorted(draw(st.lists(st.integers(0, total), min_size=nv - 1, max_size=nv - 1)))
    d = tuple(b - a for a, b in zip([0] + cuts, cuts + [total]))
    if draw(st.booleans()):
        delta = CentralWeight.spread(d, draw(st.integers(-total, 2 * total)))
    else:
        delta = CentralWeight(tuple(
            draw(st.fractions(min_value=-2, max_value=2, max_denominator=6))
            for _ in range(nv)))
    return Quiver(tuple(map(str, range(nv))), arrows), d, delta


@settings(derandomize=True, deadline=None, max_examples=300)
@given(window_cases())
def test_count_matches_naive_box_scan(case):
    q, d, delta = case
    assert magic_dimension(q, d, delta) == lattice_count_naive(q, d, delta)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(window_cases())
def test_count_is_shift_and_duality_invariant(case):
    q, d, delta = case
    base = magic_dimension(q, d, delta)
    ones = CentralWeight((1,) * q.num_vertices)
    assert magic_dimension(q, d, delta + ones) == base
    assert magic_dimension(q, d, CentralWeight(tuple(-x for x in delta.values))) == base


@settings(derandomize=True, deadline=None, max_examples=300)
@given(window_cases(), st.data())
def test_count_is_invariant_under_relabelling(case, data):
    q, d, delta = case
    perm = data.draw(st.permutations(range(q.num_vertices)))
    relabelled = Quiver(tuple(q.vertices[i] for i in perm),
                        tuple(tuple(q.arrows[i][j] for j in perm) for i in perm))
    assert magic_dimension(relabelled, tuple(d[i] for i in perm),
                           CentralWeight(tuple(delta.values[i] for i in perm))) \
        == magic_dimension(q, d, delta)


def _box_ranges(q, d, delta):
    """Lower and upper slot ends of the bounding box shifted by delta - rho."""
    shift = [x - r for x, r in zip(delta.expand(d), weyl_vector(d))]
    ranges = [(math.ceil(a + s), math.floor(b + s))
              for (a, b), s in zip(bounding_box(weight_zonotope(q, d)), shift)]
    return [a for a, _ in ranges], [b for _, b in ranges]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(window_cases())
def test_block_ranges_match_bounding_box(case):
    # the count's range for every slot of block i, [v - F(d - e_i), F(e_i)],
    # is the shifted box's tightest lower and upper ends over the block
    q, d, delta = case
    v = delta.total_pairing(d)
    if v.denominator != 1:
        return
    lo, hi = _box_ranges(q, d, delta)
    for i, (b0, b1) in enumerate(slot_blocks(d)):
        if b1 == b0:
            continue
        e = tuple(int(j == i) for j in range(len(d)))
        scale, sdelta = _scaled_central(delta, d)
        top, rest = _scaled_half_widths(q, d, scale, sdelta, range(len(d)),
                                        [e, tuple(m - x for m, x in zip(d, e))])
        assert (v - rest // scale, top // scale) == (max(lo[b0:b1]), min(hi[b0:b1]))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(window_cases())
def test_weyl_cut_rule_matches_flow_membership(case):
    q, d, delta = case
    total = delta.total_pairing(d)
    ranges = _box_ranges(q, d, delta)
    if total.denominator != 1 or any(a > b for a, b in zip(*ranges)):
        return
    # one step beyond the box on each side, so that points outside it are tested too
    lo = [x - 1 for x in ranges[0]]
    hi = [x + 1 for x in ranges[1]]
    verts = [i for i, m in enumerate(d) if m]
    profiles = list(product(*(range(d[i] + 1) for i in verts)))
    scale, sdelta = _scaled_central(delta, d)
    table = _scaled_half_widths(q, d, scale, sdelta, verts, profiles)
    cuts = [(ks, h // scale) for ks, h in zip(profiles, table)]
    # the dominant chi in the ranges: one nondecreasing tuple per nonzero block
    per_block = []
    for b0, b1 in (slot_blocks(d)[i] for i in verts):
        values = range(min(lo[b0:b1]), max(hi[b0:b1]) + 1)
        per_block.append([c for c in combinations_with_replacement(values, b1 - b0)
                          if all(a <= x <= b for a, x, b in zip(lo[b0:b1], c, hi[b0:b1]))])
    z = weight_zonotope(q, d)
    shift = [x - r for x, r in zip(delta.expand(d), weyl_vector(d))]
    for parts in product(*per_block):
        chi = [x for part in parts for x in part]
        if sum(chi) != total:
            continue
        weyl = all(sum(sum(part[len(part) - k:]) for part, k in zip(parts, ks)) <= cap
                   for ks, cap in cuts)
        assert weyl == contains(z, tuple(c - s for c, s in zip(chi, shift)))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(window_cases())
def test_scaled_half_widths_match_the_width_definition(case):
    # the one table behind the window cuts and part admissibility is half the
    # width plus the central pairing along the cocharacter 1 on the top k_i
    # slots of each block i
    q, d, delta = case
    profiles = list(product(*(range(m + 1) for m in d)))
    scale, sdelta = _scaled_central(delta, d)
    table = _scaled_half_widths(q, d, scale, sdelta, range(len(d)), profiles)
    assert len(table) == len(profiles)
    assert table[0] == 0  # D H(0) = 0: the window count keeps no residual there

    def top_slots(k):
        return tuple(x for m, ki in zip(d, k) for x in [0] * (m - ki) + [1] * ki)

    for k, h in zip(profiles, table):
        lam = top_slots(k)
        assert Fraction(h, scale) == \
            Fraction(window_width(q, d, lam), 2) + pairing(lam, delta.expand(d))
    # the same values over the window count's own blocks: ascending d, ties
    # in vertex order, zero blocks skipped.  Its one exception, two blocks of
    # ranks 2 <= a < b with b >= 4 walked larger first, needs |d| >= 6, so it
    # never arises here
    verts = sorted((i for i, m in enumerate(d) if m), key=d.__getitem__)
    sub = list(product(*(range(d[i] + 1) for i in verts)))
    by_profile = dict(zip(profiles, table))

    def in_vertex_order(k):
        full = [0] * len(d)
        for i, ki in zip(verts, k):
            full[i] = ki
        return tuple(full)

    assert _scaled_half_widths(q, d, scale, sdelta, verts, sub) == \
        [by_profile[in_vertex_order(k)] for k in sub]
    admissible = set(_admissible_parts(q, d, delta, _parts(d, True)))
    for e in profiles[1:]:
        assert (e in admissible) == (integrality_indicator(q, d, top_slots(e), delta) == 1)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.integers(1, 30), st.integers(-60, 60), st.integers(1, 3), st.data())
def test_spread_reaches_the_count_as_integers(n, v, nv, data):
    # magic_dimension_v scales the weight v/n itself, D = 2n/g and
    # D delta_i = 2v/g with g = gcd(v, n): what the spread weight scales to
    cuts = sorted(data.draw(st.lists(st.integers(0, n), min_size=nv - 1, max_size=nv - 1)))
    d = tuple(b - a for a, b in zip([0] + cuts, cuts + [n]))
    seen = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(magic, "_window_count", lambda q, d, *scaled: seen.append(scaled) or 0)
        magic_dimension_v(Quiver(tuple(map(str, range(nv))), ((1,) * nv,) * nv), d, v,
                          force=True)
    assert seen == [_scaled_central(CentralWeight.spread(d, v), d)]


class _NoWeight:
    def __init__(self, *args):
        raise AssertionError("a central weight was built")

    spread = classmethod(lambda cls, *args: cls())


def test_spread_count_builds_no_central_weight(monkeypatch):
    monkeypatch.setattr(magic, "CentralWeight", _NoWeight)
    for g in range(3):
        for v in range(-2, 3):
            assert magic_dimension_v(TORIC[g], (1, 1), v) == (2 * g + 2 if v % 2 else 2 * g + 1)
    assert magic_dimension_v(CROSS, (3, 3), 0, fast="off") == 325
    # the flow-membership reference reads a central weight, so "checked" builds one
    with pytest.raises(AssertionError, match="central weight was built"):
        magic_dimension_v(CROSS, (1, 1), 0, fast="checked")


def test_checked_route_raises_when_the_counts_disagree(monkeypatch):
    count = magic._window_count
    monkeypatch.setattr(magic, "_window_count", lambda *args: count(*args) + 1)
    delta = CentralWeight.spread((1, 1), 1)
    assert magic_dimension_v(TORIC[1], (1, 1), 1) == magic_dimension(TORIC[1], (1, 1), delta) == 5
    with pytest.raises(RouteDisagreementError, match="block-profile DP 5, flow DFS 4"):
        magic_dimension_v(TORIC[1], (1, 1), 1, fast="checked")
    with pytest.raises(RouteDisagreementError, match="block-profile DP 5, flow DFS 4"):
        magic_dimension(TORIC[1], (1, 1), delta, fast="checked")

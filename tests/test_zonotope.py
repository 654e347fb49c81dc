import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasibps.errors import InputSchemaError
from quasibps.quiver import Quiver, loop_quiver, total_dim, weight_multisets
from quasibps.zonotope import (
    Zonotope,
    bounding_box,
    contains,
    contains_fast,
    support,
    weight_zonotope,
)

TORIC0 = Quiver(("0", "1"), ((1, 1), (1, 1)))
TORIC1 = Quiver(("0", "1"), ((1, 3), (3, 1)))
CROSS = Quiver(("a", "b"), ((1, 2), (2, 1)))


def test_weight_zonotope_generators():
    z = weight_zonotope(loop_quiver(3), (2,))
    assert z.dim == 2
    assert z.arcs == ((0, 1, 3), (1, 0, 3))  # 3 each way, zero weights dropped
    assert weight_zonotope(loop_quiver(2), (1,)).arcs == ()
    # arcs (r, p, m) of e_p - e_r, sorted: slot 0 of block a to slot 2 of block b
    assert weight_zonotope(CROSS, (2, 1)).arcs[:2] == ((0, 1, 1), (0, 2, 2))
    # one arrow a -> b: the weight e_0 - e_1 is the arc from slot 1 to slot 0
    assert weight_zonotope(Quiver(("a", "b"), ((0, 1), (0, 0))), (1, 1)).arcs == ((1, 0, 1),)


def test_one_arc_points_from_r_to_p():
    """A single generator (e_1 - e_0)/2: the segment is not centrally symmetric,
    so an arc read the wrong way round shows here, unlike on a symmetric quiver."""
    z = Zonotope(2, ((0, 1, 1),))
    assert contains(z, (Fraction(-1, 2), Fraction(1, 2)))
    assert contains(z, (Fraction(-1, 4), Fraction(1, 4)))
    assert not contains(z, (Fraction(1, 2), Fraction(-1, 2)))
    assert bounding_box(z) == ((Fraction(-1, 2), 0), (0, Fraction(1, 2)))
    assert support(z, (0, 1)) == Fraction(1, 2)
    assert support(z, (1, 0)) == 0


def test_support_examples():
    z = weight_zonotope(loop_quiver(3), (2,))
    assert support(z, (1, 0)) == Fraction(3, 2)
    assert support(z, (0, 1)) == Fraction(3, 2)
    assert support(z, (1, -1)) == 3
    assert support(z, (1, 1)) == 0
    assert support(z, (0, 0)) == 0
    with pytest.raises(InputSchemaError):
        support(z, (1, 0, 0))


def test_support_is_sublinear():
    rng = random.Random(3)
    z = weight_zonotope(CROSS, (2, 1))
    for _ in range(100):
        lam = tuple(rng.randint(-4, 4) for _ in range(z.dim))
        mu = tuple(rng.randint(-4, 4) for _ in range(z.dim))
        both = tuple(a + b for a, b in zip(lam, mu))
        assert support(z, both) <= support(z, lam) + support(z, mu)
        assert support(z, tuple(3 * a for a in lam)) == 3 * support(z, lam)
        # negation-stable generators: symmetric support
        assert support(z, tuple(-a for a in lam)) == support(z, lam)


def test_bounding_box():
    z = weight_zonotope(loop_quiver(3), (2,))
    assert bounding_box(z) == (((Fraction(-3, 2), Fraction(3, 2))),
                               ((Fraction(-3, 2), Fraction(3, 2))))


def test_contains_segment():
    # toric g=0 at d=(1,1): the segment from (-1/2,1/2) to (1/2,-1/2)
    z = weight_zonotope(TORIC0, (1, 1))
    assert contains(z, (Fraction(1, 2), Fraction(-1, 2)))
    assert contains(z, (Fraction(-1, 2), Fraction(1, 2)))
    assert contains(z, (Fraction(1, 4), Fraction(-1, 4)))
    assert contains(z, (0, 0))
    assert not contains(z, (Fraction(3, 4), Fraction(-3, 4)))
    assert not contains(z, (Fraction(1, 2), Fraction(1, 2)))  # off the hyperplane
    with pytest.raises(InputSchemaError):
        contains(z, (0,))


def test_contains_loop_rank_two():
    z = weight_zonotope(loop_quiver(3), (2,))
    assert contains(z, (Fraction(3, 2), Fraction(-3, 2)))  # vertex
    assert contains(z, (1, -1))
    assert not contains(z, (Fraction(7, 4), Fraction(-7, 4)))
    assert not contains(z, (2, -2))


BAD_ARCS = [
    (0, 0, 1),                  # r == p: a zero weight
    (0, 2, 1), (2, 0, 1),       # a slot outside range(dim)
    (-1, 1, 1),                 # a negative slot
    (0, 1, -1),                 # a negative multiplicity
    (0, 1, Fraction(1, 2)), (0, 1.0, 1), (True, 1, 1),  # not ints
    (0, 1), (0, 1, 1, 1),       # not a triple
]


def test_contains_rejects_bad_generators():
    for arc in BAD_ARCS:
        with pytest.raises(InputSchemaError):
            Zonotope(2, (arc,))


def _half_grid(box):
    axes = []
    for lo, hi in box:
        n0 = int(2 * lo) - 1
        n1 = int(2 * hi) + 1
        axes.append([Fraction(n, 2) for n in range(n0, n1 + 1)])
    return itertools.product(*axes)


@pytest.mark.parametrize("q,d", [
    (loop_quiver(3), (2,)),
    (loop_quiver(3), (3,)),
    (loop_quiver(1), (3,)),
    (TORIC1, (1, 1)),
    (CROSS, (2, 1)),
])
def test_fast_route_agrees_on_half_grid(q, d):
    """Flow membership against Gale's inequalities over every 0/1 indicator."""
    z = weight_zonotope(q, d)
    bounds = [(lam, support(z, lam), support(z, tuple(-a for a in lam)))
              for lam in itertools.product((0, 1), repeat=z.dim)]
    checked = 0
    for x in _half_grid(bounding_box(z)):
        gale = all(-down <= sum(a * b for a, b in zip(lam, x)) <= up for lam, up, down in bounds)
        assert contains(z, x) == gale
        checked += 1
    assert checked > 0


def test_fast_route_rejects_off_hyperplane():
    z = weight_zonotope(loop_quiver(3), (2,))
    assert not contains_fast(z, (1, 1))
    assert not contains_fast(z, (Fraction(1, 8), 0))


def test_central_symmetry():
    rng = random.Random(17)
    for q, d in [(loop_quiver(3), (3,)), (TORIC1, (1, 1)), (CROSS, (1, 2))]:
        z = weight_zonotope(q, d)
        box = bounding_box(z)
        for _ in range(60):
            raw = [Fraction(rng.randint(int(4 * lo), int(4 * hi)), 4) for lo, hi in box]
            shift = sum(raw) / z.dim
            x = tuple(c - shift for c in raw)
            assert contains(z, x) == contains(z, tuple(-c for c in x))


def test_support_dominates_members():
    rng = random.Random(23)
    z = weight_zonotope(loop_quiver(3), (3,))
    box = bounding_box(z)
    hits = 0
    for _ in range(200):
        raw = [Fraction(rng.randint(int(4 * lo), int(4 * hi)), 4) for lo, hi in box]
        shift = sum(raw) / z.dim
        x = tuple(c - shift for c in raw)
        if not contains(z, x):
            continue
        hits += 1
        lam = tuple(rng.randint(-5, 5) for _ in range(z.dim))
        assert sum(a * b for a, b in zip(lam, x)) <= support(z, lam)
    assert hits > 10


def _half_generators(q, d):
    """The definition: every nonzero representation weight as a full +-1
    vector, once per multiplicity, each of length 1/2."""
    n = total_dim(d)
    gens = []
    for (p, r), m in weight_multisets(q, d)[0].nonzero():
        vec = [0] * n
        vec[p], vec[r] = 1, -1
        gens.extend([tuple(vec)] * m)
    return gens


def _support_by_definition(gens, lam):
    return sum(Fraction(max(sum(a * b for a, b in zip(lam, g)), 0), 2) for g in gens)


@st.composite
def zonotope_cases(draw):
    """A symmetric quiver with at most 3 vertices and at most 3 arrows per
    pair, d with entries at most 3, and a functional with entries in [-4, 4]."""
    nv = draw(st.integers(1, 3))
    arrows = [[0] * nv for _ in range(nv)]
    for i in range(nv):
        for j in range(i, nv):
            arrows[i][j] = arrows[j][i] = draw(st.integers(0, 3))
    d = tuple(draw(st.lists(st.integers(0, 3), min_size=nv, max_size=nv)))
    n = sum(d)
    lam = tuple(draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n)))
    return Quiver(tuple(map(str, range(nv))), arrows), d, lam


@settings(derandomize=True, deadline=None, max_examples=200)
@given(zonotope_cases())
def test_closed_forms_match_the_generator_definition(case):
    q, d, lam = case
    gens = _half_generators(q, d)
    z = weight_zonotope(q, d)
    assert support(z, lam) == _support_by_definition(gens, lam)
    units = [tuple(int(i == p) for i in range(z.dim)) for p in range(z.dim)]
    assert bounding_box(z) == tuple(
        (-_support_by_definition(gens, tuple(-a for a in e)), _support_by_definition(gens, e))
        for e in units)

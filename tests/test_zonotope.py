import itertools
import random
from fractions import Fraction

import pytest

from quasibps.errors import InputSchemaError
from quasibps.quiver import Quiver, loop_quiver
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
    assert len(z.generators) == 6  # 3 each way, zero weights dropped
    assert all(length == Fraction(1, 2) for _, length in z.generators)
    assert weight_zonotope(loop_quiver(2), (1,)).generators == ()


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


def test_contains_rejects_bad_generators():
    z = Zonotope(2, (((2, -2), Fraction(1, 2)),))
    with pytest.raises(InputSchemaError):
        contains(z, (0, 0))


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


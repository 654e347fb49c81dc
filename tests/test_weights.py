import random
from fractions import Fraction

import pytest

from quasibps.errors import InputSchemaError
from quasibps.quiver import Quiver, loop_quiver, total_dim
from quasibps.weights import (
    CentralWeight,
    integrality_indicator,
    is_antidominant,
    is_dominant,
    level_partition,
    ones_vector,
    pairing,
    parse_rational,
    weyl_vector,
    window_width,
)

CROSS = Quiver(("a", "b"), ((1, 2), (2, 1)))


def test_pairing():
    assert pairing((1, 2), (3, -1)) == 1
    assert pairing((), ()) == 0
    with pytest.raises(InputSchemaError):
        pairing((1,), (1, 2))


def test_weyl_vector_blocks():
    assert weyl_vector((1,)) == (0,)
    assert weyl_vector((2,)) == (Fraction(-1, 2), Fraction(1, 2))
    assert weyl_vector((3,)) == (-1, 0, 1)
    assert weyl_vector((2, 3)) == (Fraction(-1, 2), Fraction(1, 2), -1, 0, 1)
    # each block sums to zero and is dominant
    for d in [(4,), (2, 2), (1, 5, 2)]:
        rho = weyl_vector(d)
        assert sum(rho) == 0
        assert is_dominant(rho, d)


def test_dominance_predicates():
    assert is_dominant((0, 0, 1), (3,))
    assert not is_dominant((0, 1, 0), (3,))
    assert is_dominant((5, -1, 0), (1, 2))  # block boundary resets the comparison
    assert is_antidominant((2, 1, 1), (3,))
    assert not is_antidominant((1, 2), (2,))
    assert is_antidominant((), ())


def test_ones_vector():
    assert ones_vector((2, 3)) == (1, 1, 1, 1, 1)


def test_central_weight_basics():
    w = CentralWeight((Fraction(1, 2), 1))
    assert w.values == (Fraction(1, 2), Fraction(1))
    assert w.expand((2, 1)) == (Fraction(1, 2), Fraction(1, 2), Fraction(1))
    assert w.total_pairing((2, 1)) == 2
    assert (w + w).values == (Fraction(1), Fraction(2))
    assert CentralWeight.zero(3).values == (0, 0, 0)
    with pytest.raises(InputSchemaError):
        w.expand((1,))
    with pytest.raises(InputSchemaError):
        w + CentralWeight.zero(3)
    # exact values only: a float would be stored as its binary expansion
    for bad in (0.1, 0.5, True, "1/2", None):
        with pytest.raises(InputSchemaError):
            CentralWeight((bad,))


def test_central_weight_spread():
    w = CentralWeight.spread((1, 1), 3)
    assert w.values == (Fraction(3, 2), Fraction(3, 2))
    assert w.total_pairing((1, 1)) == 3
    # the diagonal pairing is v whatever the dimension vector shape
    for d, v in [((2,), 5), ((1, 2), -4), ((3, 1, 2), 7)]:
        assert CentralWeight.spread(d, v).total_pairing(d) == v
    # built without re-validation, it is the record the checked
    # constructor makes from the same values
    for d, v in [((2,), 5), ((1, 2), -4), ((3, 0, 2), 0), ((4,), 6)]:
        spread, checked = CentralWeight.spread(d, v), CentralWeight((Fraction(v, sum(d)),) * len(d))
        assert spread == checked and hash(spread) == hash(checked)
        assert repr(spread) == repr(checked)
        assert all(type(x) is Fraction for x in spread.values)
    for d in [(0, 0), (0,)]:
        with pytest.raises(InputSchemaError):
            CentralWeight.spread(d, 1)
    for v in (0.5, 1.0, True, "1", Fraction(1, 2)):
        with pytest.raises(InputSchemaError):
            CentralWeight.spread((2,), v)


def test_parse_rational():
    assert parse_rational("3") == 3
    assert parse_rational("-3/6") == Fraction(-1, 2)
    assert parse_rational(" 7 / 2 ") == Fraction(7, 2)
    for bad in ("", "x", "1.5", "1/0", "1/2/3"):
        with pytest.raises(InputSchemaError):
            parse_rational(bad)
    assert CentralWeight.parse("1/2,-1,0").values == (Fraction(1, 2), -1, 0)


def test_level_partition():
    assert level_partition((2, 2, 0), (3,)) == ((2,), (1,))
    assert level_partition((1, 0, 1, 0), (2, 2)) == ((1, 1), (1, 1))
    assert level_partition((0, 0), (2,)) == ((2,),)
    with pytest.raises(InputSchemaError):
        level_partition((0, 1), (2,))  # not antidominant
    with pytest.raises(InputSchemaError):
        level_partition((0,), (2,))


def test_window_width_examples():
    # 3 loops, rank 2, lam = (1, 0): 3 * 1 (rep pairs) - 1 (adjoint) = 2
    assert window_width(loop_quiver(3), (2,), (1, 0)) == 2
    assert window_width(loop_quiver(1), (2,), (1, 0)) == 0
    assert window_width(loop_quiver(0), (2,), (1, 0)) == -1
    # constant cocharacters see nothing
    for q, d in [(loop_quiver(3), (3,)), (CROSS, (2, 2))]:
        assert window_width(q, d, ones_vector(d)) == 0
        assert window_width(q, d, (0,) * total_dim(d)) == 0


def test_window_width_invariances():
    rng = random.Random(11)
    cases = [(loop_quiver(2), (3,)), (loop_quiver(3), (2,)), (CROSS, (2, 1)),
             (CROSS, (1, 3)), (loop_quiver(5), (4,))]
    for _ in range(200):
        q, d = cases[rng.randrange(len(cases))]
        lam = tuple(rng.randint(-4, 4) for _ in range(total_dim(d)))
        w = window_width(q, d, lam)
        k = rng.randint(-3, 3)
        shifted = tuple(c + k for c in lam)
        assert window_width(q, d, shifted) == w
        c = rng.randint(1, 3)
        assert window_width(q, d, tuple(c * x for x in lam)) == c * w
        assert window_width(q, d, tuple(-x for x in lam)) == w  # symmetric quiver


def test_window_width_parity_all_odd_diag_even_cross():
    # odd loop counts at every vertex and even counts across: width is even
    q = Quiver(("a", "b"), ((3, 2), (2, 1)))
    rng = random.Random(5)
    for _ in range(100):
        d = (rng.randint(1, 3), rng.randint(1, 3))
        lam = tuple(rng.randint(-3, 3) for _ in range(total_dim(d)))
        assert window_width(q, d, lam) % 2 == 0


def test_integrality_indicator():
    q = loop_quiver(3)
    # width((1,0)) = 2, so the bit only tests the central pairing
    assert integrality_indicator(q, (2,), (1, 0), CentralWeight((Fraction(0),))) == 1
    assert integrality_indicator(q, (2,), (1, 0), CentralWeight((Fraction(1, 2),))) == 0
    assert integrality_indicator(q, (2,), (1, 0), CentralWeight((Fraction(1),))) == 1
    # zero cocharacter is always admissible
    assert integrality_indicator(q, (2,), (0, 0), CentralWeight((Fraction(1, 3),))) == 1

import random

import pytest

from quasibps.errors import CutoffExceededError, InputSchemaError
from quasibps.magic import magic_dimension_v
from quasibps.oracle import (
    lattice_count_naive,
    partition_indicator_blockwise,
    partition_indicator_sampling,
    window_width_bruteforce,
)
from quasibps.partitions import enumerate_vector_partitions, partition_indicator
from quasibps.quiver import Quiver, loop_quiver, total_dim
from quasibps.weights import CentralWeight, window_width

CROSS = Quiver(("a", "b"), ((1, 2), (2, 1)))
TORIC1 = Quiver(("0", "1"), ((1, 3), (3, 1)))


def test_bruteforce_width_examples():
    assert window_width_bruteforce(loop_quiver(3), (2,), (1, 0)) == 2
    assert window_width_bruteforce(loop_quiver(3), (2,), (0, 0)) == 0
    assert window_width_bruteforce(loop_quiver(0), (2,), (1, 0)) == -1


def test_bruteforce_width_matches_primary():
    rng = random.Random(41)
    cases = [(loop_quiver(1), (3,)), (loop_quiver(4), (2,)), (CROSS, (2, 2)),
             (TORIC1, (1, 1)), (loop_quiver(3), (4,))]
    for _ in range(300):
        q, d = cases[rng.randrange(len(cases))]
        lam = tuple(rng.randint(-6, 6) for _ in range(total_dim(d)))
        assert window_width_bruteforce(q, d, lam) == window_width(q, d, lam)


def test_sampling_verdicts():
    q = loop_quiver(3)
    two = ((1,), (1,))
    assert partition_indicator_sampling(q, (2,), two, CentralWeight.spread((2,), 0)) == 1
    assert partition_indicator_sampling(q, (2,), two, CentralWeight.spread((2,), 1)) == 0


def test_sampling_checks_the_partition_sum():
    q = loop_quiver(3)
    delta = CentralWeight.spread((3,), 0)
    with pytest.raises(InputSchemaError):
        partition_indicator_sampling(q, (3,), [(1,)], delta)
    with pytest.raises(InputSchemaError):
        partition_indicator_blockwise(q, (3,), [(1,)], delta)


def test_sampling_returns_unknown_off_the_grid():
    q = loop_quiver(3)
    parts = tuple(((1,),) * 4)
    # four strictly decreasing levels cannot fit in {-1, 0, 1}
    verdict = partition_indicator_sampling(q, (4,), parts,
                                           CentralWeight.spread((4,), 0), bound=1)
    assert verdict == "unknown"


def test_sampling_never_refutes_the_indicator():
    for q, d in [(loop_quiver(2), (3,)), (CROSS, (1, 2)), (TORIC1, (1, 1))]:
        for v in range(total_dim(d) + 1):
            delta = CentralWeight.spread(d, v)
            for a in enumerate_vector_partitions(d):
                main = partition_indicator(q, d, a, delta)
                sampled = partition_indicator_sampling(q, d, a, delta, bound=5)
                assert sampled in (0, 1)
                assert main == sampled


def test_naive_count_matches_primary():
    for q, d, vs in [(loop_quiver(3), (2,), range(0, 3)),
                     (loop_quiver(1), (4,), range(0, 5)),
                     (TORIC1, (1, 1), range(-1, 3))]:
        for v in vs:
            delta = CentralWeight.spread(d, v)
            assert lattice_count_naive(q, d, delta) == magic_dimension_v(q, d, v)


def test_naive_count_refuses_big_boxes():
    with pytest.raises(CutoffExceededError):
        lattice_count_naive(loop_quiver(3), (6,), CentralWeight.spread((6,), 0),
                            max_points=1000)

"""Vector partitions and the admissible subset attached to a central weight.

A partition of a dimension vector is an unordered multiset of nonzero
dimension vectors summing to it.  A partition is *admissible* for a central
weight when half the window width plus the central pairing is an integer
along every antidominant integer cocharacter whose level sets are its parts.

Along such a cocharacter, with part a_j at level v_j, the window width is
the sum over j < k of (v_j - v_k) E(a_j, a_k), where E(a, b) = a^T Q b - a.b
is symmetric for a symmetric quiver.  Modulo integers the coefficient of v_j
in half the width plus the central pairing is E(a_j, d - a_j)/2 +
<delta, a_j>, which does not depend on where the other parts sit.  So a
partition is admissible exactly when each of its parts e passes that test
on its own: the *per-part rule*.  That test is H(e) in the integers, with
H the function whose floor gives the window's cuts in ``magic``; both read
it from ``weights._scaled_half_widths``, which evaluates D H on just the
parts it is given, e admissible exactly when D divides D H(e).  The
admissible set is therefore built as the partitions of d into admissible
parts, by the same walk that lists all partitions; no partition with an
inadmissible part is ever formed.  The routes that walk the orderings of
the parts are kept in ``oracle`` as references.

When <delta, d> is an integer, so is H(d), and E is symmetric, so H(e) and
H(d - e) sum to the integer E(e, d - e) + <delta, d>: a part is admissible
exactly when its complement is, and {d} is the whole admissible set exactly
when d is the only admissible part.  The central-weight search decides on
that and lists no partition; it evaluates E(e, d - e) once, and each
candidate adds only its own D <delta, e>, in integers over D = 2 t den.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, product
from math import gcd
from operator import le, mul, sub

from .errors import CutoffExceededError, InputSchemaError
from .quiver import (
    DimVector,
    Quiver,
    _Record,
    check_dim_vector,
    is_count,
    require_symmetric,
    total_dim,
)
from .weights import CentralWeight, _scaled_central, _scaled_half_widths

PARTITION_CUTOFF = 20  # total rank above which enumeration is refused
NUM_BOUND, DEN_BOUND = 2, 3  # |numerators| and denominators of the search's corrections


class VectorPartition(_Record):
    """Unordered multiset of nonzero dimension vectors, stored canonically.

    Parts are sorted in decreasing lexicographic order so equal multisets
    compare and hash equal.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[DimVector, ...]):
        parts = tuple(sorted((tuple(p) for p in parts), reverse=True))
        for p in parts:
            if not any(p):
                raise InputSchemaError("partition contains a zero part")
            if not all(map(is_count, p)):
                raise InputSchemaError(f"partition part {p!r} is not a nonnegative vector")
        self._init(parts)

    @classmethod
    def _trusted(cls, parts: tuple[DimVector, ...]) -> VectorPartition:
        """A partition from nonzero count vectors already in canonical order."""
        out = cls.__new__(cls)
        out._init(parts)
        return out

    @property
    def length(self) -> int:
        return len(self.parts)

    def multiplicities(self) -> dict[DimVector, int]:
        out: dict[DimVector, int] = {}
        for p in self.parts:
            out[p] = out.get(p, 0) + 1
        return out

    def vector_sum(self) -> DimVector:
        return tuple(sum(col) for col in zip(*self.parts))

    def __str__(self) -> str:
        if all(len(p) == 1 for p in self.parts):
            return "+".join(str(p[0]) for p in self.parts)
        return "+".join("(" + ",".join(str(c) for c in p) + ")" for p in self.parts)


def _parts(d, force: bool) -> list[DimVector]:
    """Nonzero e <= d in decreasing order, d itself first; refused above
    PARTITION_CUTOFF unless forced."""
    if not all(map(is_count, d)):
        raise InputSchemaError(f"dimension vector {d!r} is not nonnegative")
    if total_dim(d) > PARTITION_CUTOFF and not force:
        raise CutoffExceededError(
            f"total rank {total_dim(d)} above partition cutoff {PARTITION_CUTOFF}; "
            "use force to override")
    return [e for e in product(*(range(m, -1, -1) for m in d)) if any(e)]


def _partitions_into(d, parts) -> list[VectorPartition]:
    """Partitions of d into the given parts, canonical order: the parts come
    in decreasing order and are picked with a nondecreasing index, so
    partitions come out in decreasing order of parts."""
    results: list[VectorPartition] = []
    stack: list[DimVector] = []

    def rec(rem, start):
        if not any(rem):
            results.append(VectorPartition._trusted(tuple(stack)))
            return
        for k in range(start, len(parts)):
            e = parts[k]
            if all(map(le, e, rem)):
                stack.append(e)
                rec(tuple(map(sub, rem, e)), k)
                stack.pop()

    rec(d, 0)
    return results


def enumerate_vector_partitions(d, *, force: bool = False) -> list[VectorPartition]:
    """All partitions of d into nonzero dimension vectors, canonical order."""
    return _partitions_into(d, _parts(d, force))


def _partition_checked(d, partition) -> VectorPartition:
    if not isinstance(partition, VectorPartition):
        partition = VectorPartition(tuple(partition))
    if any(len(p) != len(d) for p in partition.parts):
        raise InputSchemaError(f"partition parts {partition.parts} need {len(d)} entries each")
    if partition.vector_sum() != tuple(d):
        raise InputSchemaError(
            f"partition sums to {partition.vector_sum()}, expected {tuple(d)}")
    return partition


def _admissible_parts(q: Quiver, d, delta: CentralWeight, parts) -> list[DimVector]:
    """The e of ``parts`` with H(e) = E(e, d - e)/2 + <delta, e> an integer."""
    scale, sdelta = _scaled_central(delta, d)
    table = _scaled_half_widths(q, d, scale, sdelta, range(len(d)), parts)
    return [e for e, h in zip(parts, table) if h % scale == 0]


def partition_indicator(q: Quiver, d, partition, delta: CentralWeight) -> int:
    """1 when every distinct part of the partition is admissible, else 0."""
    require_symmetric(q)
    d = check_dim_vector(q, d)
    distinct = list(_partition_checked(d, partition).multiplicities())
    return int(len(_admissible_parts(q, d, delta, distinct)) == len(distinct))


def admissible_partitions(q: Quiver, d, delta: CentralWeight, *,
                          force: bool = False) -> tuple[VectorPartition, ...]:
    """All partitions of d whose parts are all admissible, canonical order."""
    require_symmetric(q)
    d = check_dim_vector(q, d)
    if not any(d):
        raise InputSchemaError("dimension vector is zero")
    return tuple(_partitions_into(d, _admissible_parts(q, d, delta, _parts(d, force))))


def find_central_weight(q: Quiver, d, *, max_v: int | None = None,
                        force: bool = False) -> CentralWeight | None:
    """Search for a central weight whose only admissible partition is {d}.

    Tries the evenly spread weights with parameter 0, 1, ..., max_v first,
    then the same spread weights corrected by a sum-zero central weight with
    numerators bounded by NUM_BOUND and denominators by DEN_BOUND.  Returns
    the first hit in that deterministic order, or None, skipping each nums/den
    with gcd(den, *nums) > 1: it equals a correction already tried and
    rejected.  ``max_v`` is None (total rank minus one) or a nonnegative int;
    ``force`` lifts the partition cutoff on the total rank.

    A candidate is accepted when d is its only admissible part, with no
    partition listed.  That is exact when <delta, d> is an integer (see the
    module docstring), which holds for every candidate tried: a spread weight
    pairs with d to its parameter v, and a correction pairs with d to zero.
    """
    require_symmetric(q)
    d = check_dim_vector(q, d)
    if not any(d):
        raise InputSchemaError("dimension vector is zero")
    if max_v is not None and not is_count(max_v):
        raise InputSchemaError(f"max_v {max_v!r} is not a nonnegative integer")
    parts, t = _parts(d, force), total_dim(d)
    vs = range(t if max_v is None else max_v + 1)
    # E(e, d - e) once per search: D H at D = 2 and delta = 0.  A candidate
    # v/t + num_i/den is tested at the unreduced D = 2 t den, D delta_i =
    # 2 (v den + t num_i), and only the hit is built.  d itself always passes
    others = parts[1:]
    widths = _scaled_half_widths(q, d, 2, (0,) * len(d), range(len(d)), others)
    for v, den, nums in _candidates(d, vs):
        half = t * den
        sdelta = [2 * (v * den + t * num) for num in nums]
        if all((half * w + sum(map(mul, e, sdelta))) % (2 * half)
               for e, w in zip(others, widths)):
            return CentralWeight(tuple(Fraction(v * den + t * num, half) for num in nums))
    return None


def _candidates(d, vs):
    """The search's (v, den, nums) in order, v/t + num_i/den at vertex i with t
    the total rank: each spread weight as den 1 and zero nums, then each
    corrected by a sum-zero nums/den."""
    return chain(((v, 1, (0,) * len(d)) for v in vs),
                 ((v, den, nums) for v in vs for den in range(1, DEN_BOUND + 1)
                  for nums in product(range(-NUM_BOUND, NUM_BOUND + 1), repeat=len(d))
                  if any(nums) and sum(map(mul, d, nums)) == 0 and gcd(den, *nums) == 1))

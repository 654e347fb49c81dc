"""Brute-force reference routes used to pin expected values.

Everything here is deliberately naive and shares only the core data types
with the primary implementations: weight lists are materialized element by
element, admissibility walks every distinct permutation of the parts
(through blockwise half-sums or over explicit cocharacter grids) instead of
testing each part once, and window counts decide each candidate by flow
membership in ``Zonotope(dim, arcs)``, the weight multiset's integer arcs,
scanning the whole bounding box with no structural pruning or walking the
dominant candidates of the right coordinate sum.  Small instances only.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, permutations, product
from operator import mul

from .errors import CutoffExceededError
from .partitions import _partition_checked
from .quiver import (
    Quiver,
    check_dim_vector,
    require_symmetric,
    slot_blocks,
    total_dim,
    weight_multisets,
)
from .weights import CentralWeight, is_dominant, weyl_vector
from .zonotope import bounding_box, contains, weight_zonotope


def _signed_weight_vectors(q: Quiver, d):
    """Every weight as a full vector, once per multiplicity: (vector, +1) for
    representation weights, (vector, -1) for adjoint roots."""
    n = total_dim(d)
    rep, adj = weight_multisets(q, d)
    vectors = []
    for multiset, sign in ((rep, 1), (adj, -1)):
        for (p, r), m in multiset.entries:
            vec = [0] * n
            vec[p] += 1
            vec[r] -= 1
            vectors.extend([(tuple(vec), sign)] * m)
    return vectors


def _width_from_vectors(vectors, lam):
    total = 0
    for vec, sign in vectors:
        val = sum(map(mul, lam, vec))
        if val > 0:
            total += sign * val
    return total


def window_width_bruteforce(q: Quiver, d, lam):
    """Window width by expanding every weight into a full vector and dotting."""
    require_symmetric(q)
    d = check_dim_vector(q, d)
    return _width_from_vectors(_signed_weight_vectors(q, d), lam)


def _orderings(parts):
    """Distinct orderings of a multiset of parts, in decreasing order."""
    return sorted(set(permutations(parts)), reverse=True)


def partition_indicator_blockwise(q: Quiver, d, partition, delta: CentralWeight) -> int:
    """Admissibility through blockwise half-sums, one ordering at a time.

    For each ordering, the representation weights and roots whose pairing
    with the cone is positive are accumulated (with signs -1/2 and +1/2) into
    a single lattice vector; the ordering passes when the coordinate sum of
    that vector over each ordered part, plus the part's central pairing, is
    an integer.  Shares only the weight multisets with the per-part rule.
    """
    require_symmetric(q)
    d = check_dim_vector(q, d)
    partition = _partition_checked(d, partition)
    n = total_dim(d)
    rep, adj = weight_multisets(q, d)
    blocks = slot_blocks(d)
    for ordering in _orderings(partition.parts):
        level_of = [0] * n
        slot = {i: blocks[i][0] for i in range(len(d))}
        for j, part in enumerate(ordering):
            for i, m in enumerate(part):
                for _ in range(m):
                    level_of[slot[i]] = j
                    slot[i] += 1
        theta2 = [0] * n  # twice the accumulated half-sum vector
        for (p, r), m in rep.entries:
            if level_of[p] < level_of[r]:
                theta2[p] -= m
                theta2[r] += m
        for (p, r), m in adj.entries:
            if level_of[p] < level_of[r]:
                theta2[p] += m
                theta2[r] -= m
        for j, part in enumerate(ordering):
            coord = sum(theta2[p] for p in range(n) if level_of[p] == j)
            central = sum((Fraction(m) * val for m, val in zip(part, delta.values)),
                          Fraction(0))
            if (Fraction(coord, 2) + central).denominator != 1:
                return 0
    return 1


def partition_indicator_sampling(q: Quiver, d, partition, delta: CentralWeight,
                                 bound: int = 6):
    """Sample the admissibility quantifier over a finite cocharacter grid.

    Walks every ordering of the parts and every strictly decreasing integer
    level tuple with values in [-bound, bound].  Returns 0 on any failure,
    1 when all sampled cocharacters pass, and "unknown" when the grid admits
    no cocharacter (more parts than available levels).  A return of 1 is a
    necessary-condition witness, not a proof.
    """
    require_symmetric(q)
    d = check_dim_vector(q, d)
    partition = _partition_checked(d, partition)
    dexp = delta.expand(d)
    vectors = _signed_weight_vectors(q, d)
    tested = False
    for ordering in _orderings(partition.parts):
        k = len(ordering)
        for values in combinations(range(bound, -bound - 1, -1), k):
            tested = True
            lam = []
            for i in range(len(d)):
                for j, part in enumerate(ordering):
                    lam.extend([values[j]] * part[i])
            lam = tuple(lam)
            width = _width_from_vectors(vectors, lam)
            val = Fraction(width, 2) + sum(
                (a * b for a, b in zip(lam, dexp)), Fraction(0))
            if val.denominator != 1:
                return 0
    return 1 if tested else "unknown"


def _shifted_box(q: Quiver, d, delta: CentralWeight):
    """The weight zonotope, the shift delta - rho from candidates chi to its
    points, and the integer bounding-box ranges of chi: per slot lo and hi."""
    z = weight_zonotope(q, d)
    shift = tuple(dv - rv for dv, rv in zip(delta.expand(d), weyl_vector(d)))
    box = bounding_box(z)
    lo = [math.ceil(b[0] + s) for b, s in zip(box, shift)]
    hi = [math.floor(b[1] + s) for b, s in zip(box, shift)]
    return z, shift, lo, hi


def window_count_dfs(q: Quiver, d, delta: CentralWeight) -> int:
    """Window count by a pruned depth-first walk with flow membership per candidate.

    Walks the slots vertex-major with coefficients nondecreasing inside each
    block, prunes on bounding-box ranges and suffix sums of the coordinate
    total, and decides every completed candidate with ``contains``.  Apart
    from the bounding-box slot ranges it shares no logic with the
    block-profile count it is compared against.
    """
    require_symmetric(q)
    d = check_dim_vector(q, d)
    total = delta.total_pairing(d)
    if total.denominator != 1:
        return 0
    v = int(total)
    n = total_dim(d)
    z, shift, lo, hi = _shifted_box(q, d, delta)
    starts = {b0 for b0, b1 in slot_blocks(d) if b1 > b0}
    suffix_lo = [0] * (n + 1)
    suffix_hi = [0] * (n + 1)
    for p in range(n - 1, -1, -1):
        suffix_lo[p] = suffix_lo[p + 1] + lo[p]
        suffix_hi[p] = suffix_hi[p + 1] + hi[p]

    count = 0
    chi = [0] * n

    def walk(p, acc):
        nonlocal count
        if p == n:
            if acc == v and contains(z, tuple(Fraction(c) - s for c, s in zip(chi, shift))):
                count += 1
            return
        floor_p = lo[p] if p in starts else max(lo[p], chi[p - 1])
        for c in range(floor_p, hi[p] + 1):
            acc2 = acc + c
            if acc2 + suffix_lo[p + 1] > v:
                break  # values only grow from here
            if acc2 + suffix_hi[p + 1] < v:
                continue
            chi[p] = c
            walk(p + 1, acc2)

    walk(0, 0)
    return count


def lattice_count_naive(q: Quiver, d, delta: CentralWeight,
                        max_points: int = 2_000_000) -> int:
    """Window count by scanning the full bounding box lattice.

    Filters by dominance and exact membership only; no sum constraint is used
    to prune, so this is an enumeration oracle for the primary counter.
    """
    require_symmetric(q)
    d = check_dim_vector(q, d)
    z, shift, lo, hi = _shifted_box(q, d, delta)
    ranges = []
    size = 1
    for a, b in zip(lo, hi):
        ranges.append(range(a, b + 1))
        size *= len(ranges[-1])
        if size > max_points:
            raise CutoffExceededError(
                f"naive scan would visit more than {max_points} points")
    count = 0
    for chi in product(*ranges):
        if not is_dominant(chi, d):
            continue
        x = tuple(Fraction(c) - s for c, s in zip(chi, shift))
        if contains(z, x):
            count += 1
    return count

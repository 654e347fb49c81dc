"""Weights, cocharacters, central weights, and window widths.

Vectors over the linearized slot lattice are plain tuples.  Conventions are
fixed once for the whole package:

* a weight is *dominant* when its coefficients are nondecreasing in the slot
  index within every vertex block;
* a cocharacter is *antidominant* when its values are nonincreasing within
  every vertex block, so its level sets read off an ordered tuple of
  dimension vectors with strictly decreasing values.

Counts computed downstream are invariant under flipping both conventions at
once; this pair is the one used throughout.

Along the cocharacter 1 on the top k_i slots of each block i, half the
window width plus the central pairing is H(k) = E(k, d - k)/2 + <delta, k>,
with E(a, b) = a^T Q b - a.b.  The window's cut at the profile k is
floor(H(k)) (``magic``), and a part e is admissible exactly when H(e) is an
integer (``partitions``).  Both read D H, scaled by D = 2 lcm of the
denominators of delta, from ``_scaled_half_widths``, which evaluates it on
just the profiles it is given: the one code that evaluates H.  With
half = D/2, m the arrow counts and a, b over the blocks of the profile,

    D H(k) = sum_a k_a (base_a + half k_a - sum_b half m_ab k_b),
    base_a = half (sum_b m_ab d_b - d_a) + D delta_a,

so base and the rows half m_ab are built once per table, and the terms
with k_a = 0 are skipped; D H(0) = 0.  The central-weight search reads
E(e, d - e) from it once, at the zero weight, and adds each candidate's
D <delta, e>, with D and D delta from ``_scaled_central``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from .errors import InputSchemaError
from .quiver import (
    DimVector,
    Quiver,
    _Record,
    check_dim_vector,
    is_int,
    require_symmetric,
    slot_blocks,
    total_dim,
)


def pairing(lam, x):
    """Euclidean pairing of a cocharacter with a weight, slotwise."""
    if len(lam) != len(x):
        raise InputSchemaError(f"pairing of length {len(lam)} with length {len(x)}")
    return sum(a * b for a, b in zip(lam, x))


def weyl_vector(d) -> tuple[Fraction, ...]:
    """Half-sum-of-positive-roots shift, block by block.

    Slot a (1-based) of a rank-m block gets (2a - m - 1)/2, so each block is
    an arithmetic progression with step 1 centered at zero: (-1/2, 1/2) for
    m = 2, (-1, 0, 1) for m = 3.  Dominant in the package convention.
    """
    out = []
    for m in d:
        for a in range(1, m + 1):
            out.append(Fraction(2 * a - m - 1, 2))
    return tuple(out)


def ones_vector(d) -> tuple[int, ...]:
    """All-ones tuple: the determinant weight and the diagonal cocharacter."""
    return (1,) * total_dim(d)


def is_dominant(chi, d) -> bool:
    for b0, b1 in slot_blocks(d):
        for p in range(b0 + 1, b1):
            if chi[p - 1] > chi[p]:
                return False
    return True


def is_antidominant(lam, d) -> bool:
    for b0, b1 in slot_blocks(d):
        for p in range(b0 + 1, b1):
            if lam[p - 1] < lam[p]:
                return False
    return True


class CentralWeight(_Record):
    """A rational weight constant on every vertex block, stored per vertex.

    Constant-on-blocks is exactly Weyl invariance, so instances can be added
    and scaled freely without leaving the class.  Values must be ints or
    Fractions: floats, bools and strings are refused, so nothing is rounded.
    """

    __slots__ = ("values",)

    def __init__(self, values: tuple[Fraction, ...]):
        values = tuple(values)
        for v in values:
            if not (is_int(v) or isinstance(v, Fraction)):
                raise InputSchemaError(f"central weight value {v!r} is not an int or a Fraction")
        self._init(tuple(map(Fraction, values)))

    @classmethod
    def zero(cls, num_vertices: int) -> "CentralWeight":
        return cls((Fraction(0),) * num_vertices)

    @classmethod
    def spread(cls, d, v) -> "CentralWeight":
        """The central weight with value v/(total rank) on every slot.

        Its pairing with the diagonal cocharacter is exactly v; this is the
        standard way an integer weight parameter enters the theory.
        """
        if not is_int(v):
            raise InputSchemaError(f"weight parameter v must be an integer, got {v!r}")
        t = total_dim(d)
        if t == 0:
            raise InputSchemaError("cannot spread a weight over a zero dimension vector")
        out = cls.__new__(cls)
        out._init((Fraction(v, t),) * len(d))
        return out

    @classmethod
    def parse(cls, text: str) -> "CentralWeight":
        """Parse a comma-separated list of per-vertex rationals like "1/2,0,-3"."""
        vals = []
        for tok in text.split(","):
            vals.append(parse_rational(tok))
        return cls(tuple(vals))

    def _check_vertices(self, d) -> None:
        """Refuse a dimension vector with another vertex count."""
        if len(self.values) != len(d):
            raise InputSchemaError(
                f"central weight has {len(self.values)} vertices, dimension vector {len(d)}")

    def expand(self, d) -> tuple[Fraction, ...]:
        self._check_vertices(d)
        out = []
        for m, v in zip(d, self.values):
            out.extend([v] * m)
        return tuple(out)

    def total_pairing(self, d) -> Fraction:
        """Pairing with the diagonal cocharacter: sum of d[i] * values[i]."""
        self._check_vertices(d)
        return sum((Fraction(m) * v for m, v in zip(d, self.values)), Fraction(0))

    def __add__(self, other: "CentralWeight") -> "CentralWeight":
        if len(self.values) != len(other.values):
            raise InputSchemaError("adding central weights of different vertex counts")
        return CentralWeight(tuple(a + b for a, b in zip(self.values, other.values)))


def _scaled_half_widths(q: Quiver, d, delta: CentralWeight, verts, profiles):
    """D = 2 lcm of the denominators of delta, and D H(k) for each k of
    ``profiles``, a profile over the blocks ``verts``, which hold every
    nonzero block.  Refuses a central weight with another vertex count."""
    delta._check_vertices(d)
    scale, sdelta = _scaled_central(delta)
    half = scale // 2
    rows = [[half * q.arrows[i][j] for j in verts] for i in verts]
    base = [half * (sum(q.arrows[i][j] * d[j] for j in verts) - d[i]) + sdelta[i]
            for i in verts]
    out = []
    for k in profiles:
        h = 0
        for ka, b, row in zip(k, base, rows):
            if ka:
                h += ka * (b + half * ka - sum(map(mul, row, k)))
        out.append(h)
    return scale, out


def _scaled_central(delta: CentralWeight):
    """D = 2 lcm of the denominators of delta, and the integers D delta_i."""
    scale = 2 * math.lcm(*(x.denominator for x in delta.values))
    return scale, [x.numerator * (scale // x.denominator) for x in delta.values]


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" with optional sign.  Floats are rejected on purpose."""
    tok = text.strip()
    try:
        if "/" in tok:
            num, den = tok.split("/")
            return Fraction(int(num.strip()), int(den.strip()))
        return Fraction(int(tok))
    except (ValueError, ZeroDivisionError):
        raise InputSchemaError(f"not a rational literal: {text!r}")


def level_partition(lam, d) -> tuple[DimVector, ...]:
    """Ordered dimension vectors carved out by an antidominant cocharacter.

    Slots are grouped by cocharacter value, values taken in decreasing order;
    the j-th group records how many slots of each vertex sit at that level.
    """
    if len(lam) != total_dim(d):
        raise InputSchemaError(f"cocharacter length {len(lam)} does not match rank {total_dim(d)}")
    if not is_antidominant(lam, d):
        raise InputSchemaError("cocharacter is not antidominant for this dimension vector")
    levels = sorted(set(lam), reverse=True)
    blocks = slot_blocks(d)
    out = []
    for v in levels:
        out.append(tuple(sum(1 for p in range(b0, b1) if lam[p] == v) for b0, b1 in blocks))
    return tuple(out)


def window_width(q: Quiver, d, lam):
    """Width of the weight window cut out along a cocharacter.

    Sum of the positive pairings of lam against the representation weights,
    minus the same sum against the adjoint roots.  Integer for integer lam.
    Invariant under adding a multiple of the diagonal cocharacter and
    positively homogeneous of degree one.
    """
    require_symmetric(q)
    d = check_dim_vector(q, d)
    if len(lam) != total_dim(d):
        raise InputSchemaError(f"cocharacter length {len(lam)} does not match rank {total_dim(d)}")
    blocks = slot_blocks(d)

    def rises(i, j):  # the positive lam_p - lam_r, p in block i and r in block j
        return sum(lam[p] - lam[r] for p in range(*blocks[i]) for r in range(*blocks[j])
                   if lam[p] > lam[r])

    n = q.num_vertices
    return (sum(q.arrows[i][j] * rises(i, j) for i in range(n) for j in range(n) if q.arrows[i][j])
            - sum(rises(i, i) for i in range(n)))


def integrality_indicator(q: Quiver, d, lam, delta: CentralWeight) -> int:
    """1 if half the window width plus the central pairing lands in the integers.

    This is the per-cocharacter admissibility bit; the partition-level variant
    quantifies it over a cone of cocharacters.
    """
    w = window_width(q, d, lam)
    val = Fraction(w, 2) + pairing(lam, delta.expand(d))
    return 1 if Fraction(val).denominator == 1 else 0

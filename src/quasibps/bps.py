"""One-vertex counts, block dimension tables, and BPS assembly.

``loop_count`` is the one-vertex window count of the 2g+1 loop quiver at
rank d and weight v in closed form, the BPS side of the paper's theorem, and
what ``ih-dim`` prints.  With k = gcd(d, v) (k = d for v = 0) the admissible
parts are the multiples of d/k and chi(e, e) = -2g e^2 is even, so every
factor is a plain symmetric power:

    count = [t^k] prod_{j=1..k} (1 - t^j)^(-Omega_{j d/k}),
    Omega_e = e^-2 sum_{r | e} mu(e/r) C((2g+1) r - 1, r - 1)

with Omega Reineke's DT invariant of the m-loop quiver, whose sign
(-1)^((m-1)(e-r)) is +1 for odd m.  The product is truncated at t^k and
costs about k^2 log k exact products, so v = 0 is the worst case; the
binomials add a cost that grows about as d^2.

The score-sequence count is the independent route to the same numbers,
kept as the cross-check: for 2g+1 loops, rank d and weight v it enumerates
the integer tuples (c_1, ..., c_d) with

* c_i - c_{i-1} + 2g >= 0 for 2 <= i <= d,
* sum of the last k entries at most v*k/d for k = 1..d,
* total sum exactly v.

The count works in dominance coordinates a_j = c_{d+1-j} - 2g(j-1): the
tuple read back to front, with its steps taken out.  There the entries are
non-increasing, the suffix sums become prefix caps a_1 + ... + a_k <=
floor(v k / d) - g k(k-1), and the total is the cap at k = d.  The count runs
one layer per entry, mapping each partial sum to the ways of ending in each
previous entry.  An entry a may follow any previous entry of at least a, so
a is walked downward with a running sum of those ways, down to the mean of
what is left of the total, below which the rest could not reach it.  The
last two entries are counted in closed form, not walked.
The assembly side combines a table of per-part block dimensions over the
admissible partitions of a central weight, multiplying symmetric-power
dimensions over repeated parts.
"""

from __future__ import annotations

import math

from .errors import InputSchemaError, MissingBlockError
from .partitions import admissible_partitions
from .quiver import DimVector, Quiver, _Record, _read_json, check_dim_vector, is_count, is_int
from .weights import CentralWeight


def score_sequence_count(g: int, d: int, v: int) -> int:
    """Number of score sequences for the 2g+1 loop quiver at rank d, weight v."""
    if not is_count(g):
        raise InputSchemaError(f"loop parameter g must be a nonnegative integer, got {g!r}")
    if not is_count(d) or d < 1:
        raise InputSchemaError(f"rank must be a positive integer, got {d!r}")
    if not is_int(v):
        raise InputSchemaError(f"weight parameter v must be an integer, got {v!r}")
    if d == 1:
        return 1
    # count a_j = c_{d+1-j} - 2g(j-1): the steps become a_{j+1} <= a_j and
    # the suffix sums prefix caps, a_1 + ... + a_k <= cap[k], with total
    # cap[d].  layer[acc][prev]: ways for the entries so far to sum to acc
    # and end in prev; the start state lets a_1 reach cap[1].  An entry a at
    # or below cap[j] - acc follows every prev >= a, and the d - j + 1
    # entries from a on, none above a, reach the total only if
    # a >= ceil((total - acc) / (d - j + 1)).
    cap = [v * k // d - g * k * (k - 1) for k in range(d + 1)]
    total = cap[d]
    layer = {0: {cap[1]: 1}}
    for j in range(1, d - 1):
        nxt: dict[int, dict[int, int]] = {}
        for acc, ways in layer.items():
            top = cap[j] - acc
            run = 0  # ways over the prevs >= a
            for a in range(max(ways), -((acc - total) // (d - j + 1)) - 1, -1):
                run += ways.get(a, 0)
                if a <= top:
                    nxt.setdefault(acc + a, {})[a] = run
        layer = nxt
    # the last two, a >= b with a + b = total - acc, are counted: a runs
    # from ceil((total - acc) / 2) to min(prev, cap[d - 1] - acc)
    return sum(w * max(0, min(prev, cap[d - 1] - acc) + (acc - total) // 2 + 1)
               for acc, ways in layer.items() for prev, w in ways.items())


def _mobius(n: int) -> int:
    """Möbius function of a positive integer, by trial division."""
    mu, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if n > 1 else mu


def loop_count(g: int, d: int, v: int) -> int:
    """``score_sequence_count(g, d, v)`` from the DT invariants of the m = 2g+1 loop quiver."""
    if not is_count(g):
        raise InputSchemaError(f"loop parameter g must be a nonnegative integer, got {g!r}")
    if not is_count(d) or d < 1:
        raise InputSchemaError(f"rank must be a positive integer, got {d!r}")
    if not is_int(v):
        raise InputSchemaError(f"weight parameter v must be an integer, got {v!r}")
    m, k = 2 * g + 1, math.gcd(d, v)
    series = [1] + [0] * k  # the product so far, truncated at t^k
    for j in range(1, k + 1):
        e = j * (d // k)
        total = 0  # e^2 Omega_e = sum over r | e of mu(e/r) C(m r - 1, r - 1)
        for r in range(1, math.isqrt(e) + 1):
            if e % r == 0:
                for s in {r, e // r}:
                    total += _mobius(e // s) * math.comb(m * s - 1, s - 1)
        omega, rem = divmod(total, e * e)
        assert rem == 0, f"DT invariant at e = {e} is not an integer"
        if omega == 0:
            continue
        # times (1 - t^j)^(-omega): t^(j r) has coefficient C(omega + r - 1, r)
        coeffs = [1]
        for r in range(1, k // j + 1):
            coeffs.append(coeffs[-1] * (omega + r - 1) // r)
        for n in range(k, j - 1, -1):
            series[n] += sum(coeffs[r] * series[n - j * r] for r in range(1, n // j + 1))
    return series[k]


def partition_count(n: int) -> int:
    """Number of integer partitions of n (1 for n = 0)."""
    if not is_count(n):
        raise InputSchemaError(f"partition count needs a nonnegative integer, got {n!r}")
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for m in range(part, n + 1):
            table[m] += table[m - part]
    return table[n]


def sym_power_dim(n: int, m: int) -> int:
    """Dimension of the m-th symmetric power of an n-dimensional space."""
    if not (is_count(n) and is_count(m)):
        raise InputSchemaError(f"sym_power_dim needs nonnegative integers, got ({n!r}, {m!r})")
    if n == 0:
        return 1 if m == 0 else 0
    return math.comb(n + m - 1, m)


class BlockDimTable(_Record):
    """Per-part block dimensions feeding the assembly.

    ``dims`` maps dimension vectors to total dimensions; ``default_dim``, when
    set, covers every part without an explicit entry (the tables for loop
    quivers are uniform).  ``monodromy`` is "trivial" or "full-input"; with
    full input the invariant dimension must be supplied alongside, since no
    equivariant computation is attempted here.
    """

    __slots__ = ("dims", "monodromy", "default_dim", "invariant_dim")

    def __init__(self, dims: tuple[tuple[DimVector, int], ...], monodromy: str = "trivial",
                 default_dim: int | None = None, invariant_dim: int | None = None):
        dims = tuple(sorted(_block_row(p, v) for p, v in dims))
        for (p, _), (p2, _) in zip(dims, dims[1:]):
            if p == p2:
                raise InputSchemaError(f"part {p} appears twice in the block table")
        for name, v in (("default_dim", default_dim), ("invariant_dim", invariant_dim)):
            if v is not None and not is_count(v):
                raise InputSchemaError(f"{name} {v!r} is not a nonnegative integer")
        if monodromy not in ("trivial", "full-input"):
            raise InputSchemaError(f"unknown monodromy flag {monodromy!r}")
        self._init(dims, monodromy, default_dim, invariant_dim)

    def dim_for(self, part: DimVector) -> int:
        for p, val in self.dims:
            if p == tuple(part):
                return val
        if self.default_dim is not None:
            return self.default_dim
        raise MissingBlockError(f"no block dimension for part {tuple(part)}")


def _block_row(p, v) -> tuple[DimVector, int]:
    """One (part, dimension) entry of a block table, checked."""
    if not isinstance(p, (tuple, list)) or not p or not all(map(is_count, p)):
        raise InputSchemaError(f"block part {p!r} is not a nonempty list of nonnegative integers")
    if not is_count(v):
        raise InputSchemaError(f"block dimension {v!r} of part {tuple(p)} is not "
                               "a nonnegative integer")
    return tuple(p), v


def builtin_block_table(name: str) -> BlockDimTable:
    """Tables shipped for the standard small examples.

    ``tripled-one-loop``: the tripled single-loop quiver; every block is one
    dimensional and the monodromy is trivial.  ``one-loop``: the single loop
    with zero potential; only rank one carries a block.  ``toric-potential``:
    the two-vertex quiver from the toric family with its potential; the
    diagonal block vanishes and the two unit blocks are one dimensional.
    """
    tables = {
        "tripled-one-loop": BlockDimTable((), default_dim=1),
        "one-loop": BlockDimTable((((1,), 1),), default_dim=0),
        "toric-potential": BlockDimTable((((1, 0), 1), ((0, 1), 1), ((1, 1), 0))),
    }
    if name not in tables:
        raise InputSchemaError(
            f"unknown builtin block table {name!r}; choices: {', '.join(sorted(tables))}")
    return tables[name]


def block_table_from_dict(obj) -> BlockDimTable:
    if not isinstance(obj, dict) or "blocks" not in obj:
        raise InputSchemaError('block table JSON must be an object with a "blocks" list')
    rows = obj["blocks"]
    if not isinstance(rows, list):
        raise InputSchemaError('"blocks" must be a list')
    dims = []
    for k, row in enumerate(rows):
        if not isinstance(row, dict) or "e" not in row or "dim" not in row:
            raise InputSchemaError(f'blocks[{k}] must have keys "e" and "dim"')
        dims.append((row["e"], row["dim"]))
    return BlockDimTable(
        tuple(dims),
        monodromy=obj.get("monodromy", "trivial"),
        default_dim=obj.get("default_dim"),
        invariant_dim=obj.get("invariant_dim"),
    )


def block_table_to_dict(table: BlockDimTable) -> dict:
    obj: dict = {
        "blocks": [{"e": list(p), "dim": v} for p, v in table.dims],
        "monodromy": table.monodromy,
    }
    if table.default_dim is not None:
        obj["default_dim"] = table.default_dim
    if table.invariant_dim is not None:
        obj["invariant_dim"] = table.invariant_dim
    return obj


def load_block_table(path) -> BlockDimTable:
    return block_table_from_dict(_read_json(path, "block table"))


def bps_assembly_dim(q: Quiver, d, delta: CentralWeight, table: BlockDimTable, *,
                     force: bool = False) -> int:
    """Total assembled dimension over the admissible partitions.

    Each admissible partition contributes the product, over its distinct
    parts, of the symmetric-power dimension of the part's block in the part's
    multiplicity.  Every block is treated as even: an odd block would take an
    exterior power instead (ROADMAP item 4), so with odd blocks this total
    can exceed the window count.
    """
    d = check_dim_vector(q, d)
    for p, _ in table.dims:
        if len(p) != len(d):
            raise InputSchemaError(
                f"block part {p} has {len(p)} entries, quiver has {len(d)} vertices")
    total = 0
    for a in admissible_partitions(q, d, delta, force=force):
        prod = 1
        for part, mult in sorted(a.multiplicities().items()):
            prod *= sym_power_dim(table.dim_for(part), mult)
        total += prod
    return total


def ktheory_dim_from_bps(assembly: int, flavor: str = "mf", *,
                         monodromy: str = "trivial",
                         invariant_dim: int | None = None) -> tuple[int, int]:
    """Per-parity topological K-theory dimensions from an assembled total.

    Matrix-factorization flavor ("mf"): both parities carry the full
    dimension.  Preprojective flavor: everything sits in parity zero.  With
    nontrivial monodromy the caller must pass the invariant dimension, which
    then replaces the assembly.
    """
    if flavor not in ("mf", "preprojective"):
        raise InputSchemaError(f"unknown flavor {flavor!r}; choices: mf, preprojective")
    if not is_count(assembly):
        raise InputSchemaError(f"assembly {assembly!r} is not a nonnegative integer")
    if invariant_dim is not None and not is_count(invariant_dim):
        raise InputSchemaError(f"invariant_dim {invariant_dim!r} is not a nonnegative integer")
    if monodromy == "trivial":
        effective = assembly
    elif monodromy == "full-input":
        if invariant_dim is None:
            raise InputSchemaError(
                "nontrivial monodromy needs invariant_dim supplied with the table")
        effective = invariant_dim
    else:
        raise InputSchemaError(f"unknown monodromy flag {monodromy!r}")
    if flavor == "mf":
        return (effective, effective)
    return (effective, 0)

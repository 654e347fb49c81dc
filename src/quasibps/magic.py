"""Counting dominant lattice weights in the shifted window polytope.

The count attached to (quiver, dimension vector, central weight) is the
number of dominant integer weights chi such that chi + (Weyl vector) -
(central weight) lies in the weight zonotope.  All generators of the
zonotope sum to zero, so the count vanishes unless the central weight pairs
integrally with the diagonal cocharacter; that integer v also fixes the
coordinate sum of every counted weight.

Every generator is a slot difference (e_p - e_r)/2, so by Gale's theorem a
sum-zero point lies in the zonotope exactly when its sum over every slot
subset S is at most the support value h(S) = 1/2 sum_ij m_ij k_i (d_j - k_j),
where k_i = |S cap block i|.  The shifted point increases inside each block,
so only the top k_i slots of each block bind: chi is counted exactly when

    sum_i T_i(k_i) <= F(k) = floor(H(k))   for every block profile k,
    sum_i T_i(d_i) = v,

with T_i(k) the sum of the top k entries of chi in block i and
H(k) = h(k) - sum_i k_i (d_i - k_i)/2 + sum_i k_i delta_i, which is
E(k, d - k)/2 + <delta, k>: the same H whose integrality decides part
admissibility.  ``weights._scaled_half_widths`` evaluates it for both.

The count walks the nonzero blocks in ascending order of d_i, ties in
vertex order, so the largest comes last.  Once some blocks are fixed, the
rest depends only on the running total and on the residual caps
c(r) = min over the fixed profiles of F - sum T, one per profile r of the
later blocks: one layered pass over the blocks carries {(c, total): ways}.
Inside a block a layered walk over the slots, top first, carries (c,
previous value, prefix sum); the last block's residual is empty, since
nothing follows it.  Every bound is read from the one table of D H, D = 2
lcm of the denominators of delta: v = H(d) = <delta, d>, and every slot of
block i lies in [v - F(d - e_i), F(e_i)], since the top slot alone is cut
by F(e_i) and the other slots of the sum v by F(d - e_i).  No zonotope is
built, no membership test runs and no process starts.
``fast="checked"`` also runs the flow-membership reference
``oracle.window_count_dfs`` and raises ``RouteDisagreementError`` when the
two counts differ; ``"on"`` and ``"off"`` are kept as aliases of the DP.
"""

from __future__ import annotations

from itertools import product

from .errors import CutoffExceededError, InputSchemaError, RouteDisagreementError
from .quiver import Quiver, check_dim_vector, is_count, require_symmetric, total_dim
from .weights import CentralWeight, _scaled_half_widths

COUNT_CUTOFF = 12  # refuse larger total ranks unless force=True

_FAST_MODES = ("on", "off", "checked")


def magic_dimension(q: Quiver, d, delta: CentralWeight, *,
                    fast: str = "on", jobs: int = 1, force: bool = False) -> int:
    """Number of dominant integer weights inside the shifted window.

    ``jobs`` is validated for compatibility but starts no process.
    """
    require_symmetric(q)
    d = check_dim_vector(q, d)
    n = total_dim(d)
    if n == 0:
        raise InputSchemaError("dimension vector is zero")
    if n > COUNT_CUTOFF and not force:
        raise CutoffExceededError(
            f"total rank {n} above counting cutoff {COUNT_CUTOFF}; use force to override")
    if fast not in _FAST_MODES:
        raise InputSchemaError(f"unknown fast-membership mode {fast!r}")
    if not is_count(jobs) or jobs < 1:
        raise InputSchemaError(f"jobs must be a positive integer, got {jobs!r}")

    count = _window_count(q, d, delta)
    if fast == "checked":
        from . import oracle  # the reference route; loaded only when asked for
        reference = oracle.window_count_dfs(q, d, delta)
        if reference != count:
            raise RouteDisagreementError(
                f"window counts disagree for d={d}: "
                f"block-profile DP {count}, flow DFS {reference}")
    return count


def magic_dimension_v(q: Quiver, d, v: int, **kwargs) -> int:
    """Same count with the integer weight parameter spread evenly."""
    d = check_dim_vector(q, d)
    return magic_dimension(q, d, CentralWeight.spread(d, v), **kwargs)


def _window_count(q, d, delta) -> int:
    # the nonzero blocks in ascending order of d_i, ties in vertex order, so
    # the largest, whose walk has the most states, carries no residual
    verts = sorted((i for i, m in enumerate(d) if m), key=d.__getitem__)
    scale, table = _scaled_half_widths(q, d, delta, verts,
                                       product(*(range(d[i] + 1) for i in verts)))
    v, off = divmod(table[-1], scale)  # H(d) = <delta, d>
    if off:
        return 0  # the window misses the integer slice of the sum hyperplane
    cuts = [h // scale for h in table]

    # per block (m, lo, hi): the top slot is at most F(e_i) and the bottom one
    # at least v - F(d - e_i), so every slot lies in [lo, hi]
    ranges, stride = [], len(cuts)
    for i in verts:
        stride //= d[i] + 1
        ranges.append((d[i], v - cuts[-1 - stride], cuts[stride]))
    nb = len(ranges)

    # rest_lo[i][r]: lower bound on the top sums of blocks i.. at their profile
    # r; rest_hi[i]: bound on their full sum
    rest_lo = [[0] for _ in range(nb + 1)]
    rest_hi = [0] * (nb + 1)
    for i in range(nb - 1, -1, -1):
        m, lo, hi = ranges[i]
        rest_lo[i] = [k * lo + r for k in range(m + 1) for r in rest_lo[i + 1]]
        rest_hi[i] = m * hi + rest_hi[i + 1]

    # one layer per block: {(residual caps over the later profiles, total): ways}
    layer = {(tuple(cuts), 0): 1}
    for i, (m, lo, hi) in enumerate(ranges):
        later = rest_lo[i + 1]
        width = len(later)  # the caps c are flat over (k_i, r), r a later profile
        nxt: dict = {}
        for (c, acc), ways in layer.items():
            need = v - acc
            if i == nb - 1:  # nothing follows the last block: c is its caps, no residual
                caps, rows = c, [()] * (m + 1)
            else:
                rows = [c[k * width:(k + 1) * width] for k in range(m + 1)]
                caps = [min(a - b for a, b in zip(row, later)) for row in rows]
            states = _block_states(m, lo, hi, caps, rows, need - rest_hi[i + 1], need - later[-1])
            for res, group in states.items():
                for (_, t), n in group.items():
                    nxt[res, acc + t] = nxt.get((res, acc + t), 0) + ways * n
        layer = nxt
    return layer.get(((), v), 0)


def _block_states(m, lo, hi, caps, rows, need_lo, need_hi) -> dict:
    """{residual: {(last value, T(m)): ways}} over the nondecreasing sequences
    of m values in [lo, hi] with T(k) <= caps[k] and need_lo <= T(m) <= need_hi,
    where residual = min over k of rows[k] - T(k) entrywise.  Top slot first;
    states are grouped by residual, which the inner loop never touches."""
    if caps[0] < 0:
        return {}
    layer = {rows[0]: {(hi, 0): 1}}
    for k in range(m):
        # slot p: the p slots below it sum to at least p lo, and to at most
        # p hi and p times its value
        p, cap, row = m - 1 - k, caps[k + 1], rows[k + 1]
        below_lo, below_hi = p * lo, p * hi
        nxt: dict = {}
        for res, group in layer.items():
            step: dict = {}
            for (prev, s), ways in group.items():
                short = need_lo - s
                for x in range(max(lo, short - below_hi, -(-short // (p + 1))),
                               min(prev, cap - s, need_hi - s - below_lo) + 1):
                    step[x, s + x] = step.get((x, s + x), 0) + ways
            if not row:
                nxt[res] = step
                continue
            for (x, t), ways in step.items():
                into = nxt.setdefault(tuple([min(a, b - t) for a, b in zip(res, row)]), {})
                into[x, t] = into.get((x, t), 0) + ways
        layer = nxt
    return layer

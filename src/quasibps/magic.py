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
nothing follows it.  Slot ranges come from the single-slot profiles, and
every bound is an integer scaled by 2 lcm of the denominators of delta: no
zonotope is built, no membership test runs and no process starts.
``fast="checked"`` also runs the flow-membership reference
``oracle.window_count_dfs`` and raises ``RouteDisagreementError`` when the
two counts differ; ``"on"`` and ``"off"`` are kept as aliases of the DP.
"""

from __future__ import annotations

from itertools import accumulate

from .errors import CutoffExceededError, InputSchemaError, RouteDisagreementError
from .quiver import Quiver, check_dim_vector, is_count, require_symmetric, slot_blocks, total_dim
from .weights import CentralWeight, _scaled_delta, _scaled_half_widths

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


def _slot_bounds(q, d, scale, sdelta):
    """Integer per-slot ranges for candidate weights, or None when empty: the
    single-slot cut gives |x_p| <= w_i = (sum_j m_ij d_j - m_ii)/2 in block i."""
    lo, hi = [], []
    for i, m in enumerate(d):
        width = scale // 2 * (sum(a * dj for a, dj in zip(q.arrows[i], d)) - q.arrows[i][i])
        for a in range(1, m + 1):
            mid = sdelta[i] - scale // 2 * (2 * a - m - 1)  # D (delta_i - rho_p)
            lo.append(-((width - mid) // scale))
            hi.append((width + mid) // scale)
            if lo[-1] > hi[-1]:
                return None
    return lo, hi


def _window_count(q, d, delta) -> int:
    delta.expand(d)  # refuses a central weight with another vertex count
    scale, sdelta = _scaled_delta(delta)
    v, off = divmod(sum(m * x for m, x in zip(d, sdelta)), scale)
    if off:
        return 0  # the window misses the integer slice of the sum hyperplane
    bounds = _slot_bounds(q, d, scale, sdelta)
    if bounds is None:
        return 0
    lo, hi = bounds

    # per nonzero block, the ranges a nondecreasing sequence can really take;
    # blocks in ascending order of d_i, so the largest, whose walk has the
    # most states, carries no residual
    verts, ranges = [], []
    for i, (b0, b1) in sorted(enumerate(slot_blocks(d)), key=lambda blk: d[blk[0]]):
        if b1 == b0:
            continue
        blo = list(accumulate(lo[b0:b1], max))
        bhi = list(accumulate(reversed(hi[b0:b1]), min))[::-1]
        if any(a > b for a, b in zip(blo, bhi)):
            return 0
        verts.append(i)
        ranges.append((blo, bhi))
    nb = len(verts)

    # rest_lo[i][r]: lower bound on the top sums of blocks i.. at their profile
    # r, the sum of the top lower bounds; rest_hi[i]: bound on their full sum
    rest_lo = [[0] for _ in range(nb + 1)]
    rest_hi = [0] * (nb + 1)
    for i in range(nb - 1, -1, -1):
        blo, bhi = ranges[i]
        top_lo = [0, *accumulate(reversed(blo))]
        rest_lo[i] = [t + r for t in top_lo for r in rest_lo[i + 1]]
        rest_hi[i] = sum(bhi) + rest_hi[i + 1]

    # one layer per block: {(residual caps over the later profiles, total): ways}
    layer = {(tuple([h // scale for h in _scaled_half_widths(q, d, scale, sdelta, verts)]), 0): 1}
    for i, (blo, bhi) in enumerate(ranges):
        later = rest_lo[i + 1]
        width = len(later)  # the caps c are flat over (k_i, r), r a later profile
        m = len(blo)
        nxt: dict = {}
        for (c, acc), ways in layer.items():
            need = v - acc
            if i == nb - 1:  # nothing follows the last block: c is its caps, no residual
                caps, rows = c, [()] * (m + 1)
            else:
                rows = [c[k * width:(k + 1) * width] for k in range(m + 1)]
                caps = [min(a - b for a, b in zip(row, later)) for row in rows]
            states = _block_states(blo, bhi, caps, rows, need - rest_hi[i + 1], need - later[-1])
            for res, group in states.items():
                for (_, t), n in group.items():
                    nxt[res, acc + t] = nxt.get((res, acc + t), 0) + ways * n
        layer = nxt
    return layer.get(((), v), 0)


def _slot_choices(blo, bhi, need_lo, need_hi):
    """``choices(p, s, prev, cap)``: the values slot p can take when the slots
    above it sum to s, the slot above holds prev, the new top sum must stay
    at most cap and the block sum must be able to land in [need_lo, need_hi]."""
    below_lo = [0] + list(accumulate(blo))  # least sum of the bottom p slots
    below_hi = [0] + list(accumulate(bhi))

    def choices(p, s, prev, cap):
        top = min(bhi[p], prev, cap - s, need_hi - s - below_lo[p])
        # the p slots below x sum to at most min(below_hi[p], p * x)
        short = need_lo - s
        first = max(blo[p], short - below_hi[p], -(-short // (p + 1)))
        return range(first, top + 1)

    return choices


def _block_states(blo, bhi, caps, rows, need_lo, need_hi) -> dict:
    """{residual: {(last value, T(m)): ways}} over the nondecreasing sequences
    in the ranges with T(k) <= caps[k] and need_lo <= T(m) <= need_hi, where
    residual = min over k of rows[k] - T(k) entrywise.  Top slot first; states
    are grouped by residual, which the inner loop never touches."""
    m = len(blo)
    if caps[0] < 0:
        return {}
    choices = _slot_choices(blo, bhi, need_lo, need_hi)
    layer = {rows[0]: {(bhi[-1], 0): 1}}
    for k in range(m):
        p, row = m - 1 - k, rows[k + 1]
        nxt: dict = {}
        for res, group in layer.items():
            step: dict = {}
            for (prev, s), ways in group.items():
                for x in choices(p, s, prev, caps[k + 1]):
                    step[x, s + x] = step.get((x, s + x), 0) + ways
            if not row:
                nxt[res] = step
                continue
            for (x, t), ways in step.items():
                into = nxt.setdefault(tuple([min(a, b - t) for a, b in zip(res, row)]), {})
                into[x, t] = into.get((x, t), 0) + ways
        layer = nxt
    return layer

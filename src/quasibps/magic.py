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

The count is one layered walk over every slot: the nonzero blocks in
ascending order of d_i, ties in vertex order, so the largest comes last
(but of two blocks of ranks 2 <= a < b with b >= 4 the larger goes first),
and inside a block the top slot first.  A state is keyed by what the rest
of the walk can still see: the total of the earlier blocks and, for each
nonzero profile r of the later blocks, the residual min over the passed
profiles of F - sum T followed by the caps F of the profiles still to come
(at r = 0 the residual is F(0) = 0 and stays 0, so it is not kept); under
the key it carries the previous value and the block's prefix sum; at a
block's last slot that sum joins the total and only the ways stay.  The
last block has no later profiles and keeps no residual, so its states are
keyed by its remaining caps and the total alone, and choices in the
earlier blocks that leave the same caps merge.  Before each of its slots
the current cap is folded into the previous value, u = min(prev, cap - s),
so keys that differed only in that cap merge too, and x is walked
downward per prefix sum with a running sum over u.  Its final three slots
are counted, not walked: the values a >= b >= c left are at most u, at
least lo and at least what the cap on the block's sum less its last value
leaves, and they sum to what the block still needs, so a state adds its
ways times a number of partitions into at most three parts in a box, a
Gaussian-binomial coefficient in closed form (``_box3``).  A last block of
rank at most 2 keeps no states: at the last earlier block's final slot, or
at the start if it is the only block, each state adds, per sum of the
block before it, its ways times the length of its first slot's range
(``_small_last``).  Every bound is read from the one table of D H, D = 2 lcm
of the denominators of delta: v = H(d) = <delta, d>, and every slot of
block i lies in [v - F(d - e_i), F(e_i)], since the top slot alone is cut
by F(e_i) and the other slots of the sum v by F(d - e_i).  No zonotope is
built, no membership test runs and no process starts.
``fast="checked"`` also runs the flow-membership reference
``oracle.window_count_dfs`` and raises ``RouteDisagreementError`` when the
two counts differ; ``"on"`` and ``"off"`` are kept as aliases of the DP.
"""

from __future__ import annotations

from itertools import product
from operator import sub

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
    if fast not in _FAST_MODES:
        raise InputSchemaError(f"unknown fast-membership mode {fast!r}")
    if not is_count(jobs) or jobs < 1:
        raise InputSchemaError(f"jobs must be a positive integer, got {jobs!r}")
    delta._check_vertices(d)
    if n > COUNT_CUTOFF and not force:
        raise CutoffExceededError(
            f"total rank {n} above counting cutoff {COUNT_CUTOFF}; use force to override")

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
    # the nonzero blocks in ascending order of d_i, ties in vertex order, so the
    # largest carries no residual; two blocks 2 <= a < b >= 4 go larger first
    verts = sorted((i for i, m in enumerate(d) if m), key=d.__getitem__)
    if len(verts) == 2 and 2 <= d[verts[0]] < d[verts[1]] >= 4:
        verts.reverse()
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

    # rest_lo[i][r]: lower bound on the top sums of blocks i.. at their profile
    # r; rest_hi[i]: bound on their full sum
    rest_lo, rest_hi = [[0]], [0]
    for m, lo, hi in reversed(ranges):
        rest_lo.insert(0, [k * lo + r for k in range(m + 1) for r in rest_lo[0]])
        rest_hi.insert(0, m * hi + rest_hi[0])

    # one layer per slot of the earlier blocks: {(c, earlier blocks' total):
    # {(last value, block prefix sum): ways}}, c flat over (k, r), r a later
    # profile: first the residual min over the passed k of F - sum T at every
    # r but the zero profile, where it is F(0) = 0 and stays 0 (every cap
    # keeps F - sum T >= 0 there), then the rows of F still to come.  At a
    # block's last slot the prefix sum joins the total and only the ways are
    # kept, since the next block starts from prev = hi and s = 0.  A last
    # block of rank at most 2 is counted at the last earlier block's final
    # slot, or, if it is the only block, from the start state with y = 0
    last = ranges[-1]
    small = last[0] < 3
    if small and len(ranges) == 1:
        return _small_last(*last, cuts[1:], cuts[1:], v, {0: 1})
    layer, total = {(tuple(cuts[1:]), 0): 1}, 0
    for i, (m, lo, hi) in enumerate(ranges[:-1]):
        later = rest_lo[i + 1]
        fuse = small and i == len(ranges) - 2
        w, sum_lo, sum_hi = len(later) - 1, v - rest_hi[i + 1], v - later[-1]
        layer = {key: {(hi, 0): ways} for key, ways in layer.items()}
        for p in range(m - 1, -1, -1):
            # p slots below this one sum to at least p lo, and to at most p hi
            # and p times its value
            below_lo, below_hi = p * lo, p * hi
            nxt: dict = {}
            for (c, acc), group in layer.items():
                head, row, rest = c[:w], c[w:2 * w + 1], c[2 * w + 1:]
                cap, row = min(map(sub, row, later)), row[1:]
                need_lo, need_hi = sum_lo - acc, sum_hi - acc  # bounds on T(m)
                step: dict = {}
                for (prev, s), ways in group.items():
                    short = need_lo - s
                    for x in range(max(lo, short - below_hi, -(-short // (p + 1))),
                                   min(prev, cap - s, need_hi - s - below_lo) + 1):
                        xy = (x, s + x) if p else s + x
                        step[xy] = step.get(xy, 0) + ways
                if fuse and not p:
                    total += _small_last(*last, head, row, v - acc, step)
                    continue
                for xy, ways in step.items():
                    y = xy[1] if p else xy
                    key = (tuple([a if a < (t := b - y) else t
                                  for a, b in zip(head, row)]) + rest,
                           acc if p else acc + y)
                    if not p:
                        nxt[key] = nxt.get(key, 0) + ways
                    elif (into := nxt.get(key)) is None:
                        nxt[key] = {xy: ways}
                    else:
                        into[xy] = into.get(xy, 0) + ways
            layer = nxt

    if small:
        return total
    # the last block has no later profiles, so the key's caps are the
    # residuals at its profiles k = 1..m, the current one first; the earlier
    # total fixes the block's sum need = v - acc, and a key whose final cap
    # is below need has no completion.  Each state carries {prefix sum:
    # {last value: ways}}
    m, lo, hi = last
    layer = {key: {0: {hi: ways}} for key, ways in layer.items() if v - key[1] <= key[0][-1]}
    for p in range(m - 1, 2, -1):
        # fold the current cap into the last value, u = min(prev, cap - s),
        # so that keys differing only in that cap merge
        folded: dict = {}
        for (c, acc), group in layer.items():
            cap, into = c[0], folded.setdefault((c[1:], acc), {})
            for s, prevs in group.items():
                us, t = into.setdefault(s, {}), cap - s
                for prev, ways in prevs.items():
                    u = prev if prev < t else t
                    us[u] = us.get(u, 0) + ways
        # then walk x downward per prefix sum, with a running sum over u >= x
        layer = {}
        for key, group in folded.items():
            need, into = v - key[1], {}
            for s, us in group.items():
                short = need - s
                top = min(max(us), short - p * lo)
                run = sum(ways for u, ways in us.items() if u > top)
                for x in range(top, max(lo, short - p * hi, -(-short // (p + 1))) - 1, -1):
                    run += us.get(x, 0)
                    into.setdefault(s + x, {})[x] = run
            if into:
                layer[key] = into

    # the final three slots are counted, not walked.  The values a >= b >= c
    # left sum to need - s, with a <= U = min(prev, cap - s) and
    # c >= L = max(lo, need - c[1]), since the cap on the block's sum less its
    # last value bounds that value below: the partitions of need - s - 3 L
    # into at most three parts of at most U - L
    for (c, acc), group in layer.items():
        need = v - acc
        low = max(lo, need - c[1])
        for s, prevs in group.items():
            for prev, ways in prevs.items():
                total += ways * _box3(need - s - 3 * low, min(prev, c[0] - s) - low)
    return total


def _small_last(m: int, lo: int, hi: int, head, row, need: int, ys: dict) -> int:
    """Ways to fill a last block of rank m <= 2 from one state; ``ys`` maps each
    sum y of the block before it to its ways.  The block's caps are then
    min(head, row - y): its sum n = need - y is at most the last one, and its
    top value x at most the first one and hi, with n - x in [lo, x] if m = 2."""
    h0, hl, r0, rl = head[0], head[-1], row[0], row[-1]
    count = 0
    for y, ways in ys.items():
        if (n := need - y) <= hl and n <= rl - y:
            count += ways * len(range(max(lo, n - (m - 1) * hi, -(-n // m)),
                                      min(hi, h0, r0 - y, n - (m - 1) * lo) + 1))
    return count


def _box3(n: int, k: int) -> int:
    """Partitions of n into at most three parts, each at most k: the
    coefficient of q^n in the Gaussian binomial [k + 3, 3]_q."""
    if n < 0 or n > 3 * k:
        return 0
    n = min(n, 3 * k - n)  # the coefficients are symmetric about 3k/2
    # all partitions into at most three parts, less those with a part above k
    return ((n + 3) ** 2 + 6) // 12 - max(n - k + 1, 0) ** 2 // 4

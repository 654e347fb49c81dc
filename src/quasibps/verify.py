"""Self-check registry: every release gate as a named, timed check.

Each check compares computed values against either a closed formula or an
independent route, using exact integer equality.  The registry powers both
the ``verify`` CLI subcommand and the acceptance test module; report rows
serialize to the stable JSON shape {"checks": [...], "pass": bool}.
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction
from itertools import accumulate, product
from math import gcd

from .bps import (
    BlockDimTable,
    bps_assembly_dim,
    builtin_block_table,
    ktheory_dim_from_bps,
    loop_count,
    partition_count,
    score_sequence_count,
)
from .errors import RouteDisagreementError
from .magic import magic_dimension, magic_dimension_v
from .oracle import (
    lattice_count_naive,
    partition_indicator_blockwise,
    partition_indicator_sampling,
    window_width_bruteforce,
)
from .partitions import (
    VectorPartition,
    admissible_partitions,
    enumerate_vector_partitions,
    find_central_weight,
    partition_indicator,
)
from .quiver import Quiver, _Record, loop_quiver, slot_blocks, total_dim, triple
from .weights import CentralWeight, _scaled_half_widths, weyl_vector, window_width
from .zonotope import bounding_box, contains, support, weight_zonotope


class CheckResult(_Record):
    """One check's outcome; unlike the other records it is mutable."""

    __slots__ = ("name", "anchor", "expected", "computed", "passed", "ms")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, name: str, anchor: str, expected: str, computed: str,
                 passed: bool, ms: int):
        self._init(name, anchor, expected, computed, passed, ms)


def toric_quiver(g: int) -> Quiver:
    return Quiver(("0", "1"), ((1, 2 * g + 1), (2 * g + 1, 1)))


def _fails_summary(fails, limit=4) -> str:
    if not fails:
        return "all match"
    head = "; ".join(str(f) for f in fails[:limit])
    more = "" if len(fails) <= limit else f" (+{len(fails) - limit} more)"
    return f"{len(fails)} mismatches: {head}{more}"


# --- individual checks -----------------------------------------------------

def check_toric_window_counts():
    """Two-vertex toric family: parity formula and assembly route agree."""
    fails = []
    cases = 0
    for g in range(5):
        q = toric_quiver(g)
        table = BlockDimTable((((1, 1), 2 * g + 1), ((1, 0), 1), ((0, 1), 1)))
        for v in range(-3, 4):
            cases += 1
            want = 2 * g + 2 if v % 2 else 2 * g + 1
            got = magic_dimension_v(q, (1, 1), v)
            assembly = bps_assembly_dim(q, (1, 1), CentralWeight.spread((1, 1), v), table)
            if got != want or assembly != want:
                fails.append((g, v, want, got, assembly))
    return (f"count = 2g+2 for odd v, 2g+1 for even v, = BPS assembly ({cases} cases)",
            _fails_summary(fails), not fails)


def check_odd_loop_rank_two():
    """2e+1 loops, rank 2, weight 1: exactly e weights in the window."""
    got = [magic_dimension_v(loop_quiver(2 * e + 1), (2,), 1) for e in range(1, 5)]
    want = [1, 2, 3, 4]
    return (f"counts {want} for e=1..4", f"counts {got}", got == want)


def check_one_loop_divisibility():
    """Single loop: the count is 1 exactly when the rank divides the weight."""
    fails = []
    cases = 0
    for d in range(1, 7):
        for v in range(-6, 13):
            cases += 1
            want = 1 if v % d == 0 else 0
            got = magic_dimension_v(loop_quiver(1), (d,), v)
            if got != want:
                fails.append((d, v, want, got))
    return (f"1 iff d | v ({cases} cases)", _fails_summary(fails), not fails)


def _loop_sweep():
    """Window counts for the odd-loop family, recomputed by each of two checks."""
    out = {}
    for g in range(3):
        q = loop_quiver(2 * g + 1)
        for d in range(1, 6):
            vs = sorted(set(range(d)) | set(range(d, 2 * d + 1)))
            for v in vs:
                out[(g, d, v)] = magic_dimension_v(q, (d,), v)
    return out


def check_score_route_agreement():
    """Closed-form, score-sequence and window counts agree on the odd-loop sweep
    and ranks 8 to 16."""
    counts = _loop_sweep()
    for g, ranks in ((1, (8, 10, 12, 14, 16)), (2, (8, 10, 12))):
        for d in ranks:
            for v in (0, 1, d // 2):
                counts[(g, d, v)] = magic_dimension_v(loop_quiver(2 * g + 1), (d,), v, force=True)
    fails = []
    for (g, d, v), window in counts.items():
        closed, walk = loop_count(g, d, v), score_sequence_count(g, d, v)
        if not closed == walk == window:
            fails.append((g, d, v, closed, walk, window))
    return (f"closed form, score walk and window count agree ({len(counts)} cases)",
            _fails_summary(fails), not fails)


def check_gcd_invariance():
    """Window counts on the sweep depend only on gcd(v, d)."""
    counts = _loop_sweep()
    grouped: dict[tuple[int, int, int], set[int]] = {}
    for (g, d, v), c in counts.items():
        grouped.setdefault((g, d, gcd(v, d)), set()).add(c)
    fails = [key for key, vals in grouped.items() if len(vals) > 1]
    return (f"counts constant on gcd classes ({len(grouped)} classes)",
            _fails_summary(fails), not fails)


def _closed_form_instances():
    yield loop_quiver(1), [(d,) for d in range(1, 6)]
    yield loop_quiver(3), [(d,) for d in range(1, 6)]
    yield Quiver(("0", "1"), ((1, 2), (2, 1))), [(1, 1), (2, 1), (1, 3), (2, 2), (3, 2)]
    yield Quiver(("0", "1"), ((3, 0), (0, 1))), [(1, 1), (2, 2), (4, 1)]


def check_closed_form_sets():
    """Admissible sets match the closed forms of two families.

    Odd loop counts with even cross arrows: a part e passes iff v|e|/|d| is
    an integer.  One vertex with a positive even loop count: a part of size
    e at position i of the canonical order passes iff
    e*(sum before - sum after)/2 + v*e/d is an integer.
    """
    def odd_loops_even_cross(d, v):
        n = total_dim(d)
        return tuple(a for a in enumerate_vector_partitions(d)
                     if all(Fraction(v * total_dim(p), n).denominator == 1
                            for p in a.parts))

    def one_vertex_even_loops(d, v):
        n = d[0]
        out = []
        for a in enumerate_vector_partitions(d):
            before = 0
            for (e,) in a.parts:
                after = n - before - e
                if (Fraction(e * (before - after), 2) + Fraction(v * e, n)).denominator != 1:
                    break
                before += e
            else:
                out.append(a)
        return tuple(out)

    fails = []
    cases = 0
    families = [(q, dims, odd_loops_even_cross) for q, dims in _closed_form_instances()]
    families += [(loop_quiver(loops), [(d,) for d in range(1, 6)], one_vertex_even_loops)
                 for loops in (2, 4)]
    for q, dims, closed_form in families:
        for d in dims:
            for v in range(total_dim(d) + 1):
                cases += 1
                if admissible_partitions(q, d, CentralWeight.spread(d, v)) != closed_form(d, v):
                    fails.append((q.arrows, d, v))
    return (f"generic = closed form ({cases} cases)", _fails_summary(fails), not fails)


def check_admissibility_routes():
    """Per-part, blockwise, and sampled admissibility agree at small rank."""
    fails = []
    cases = 0
    quivers = [loop_quiver(1), loop_quiver(2), loop_quiver(3), loop_quiver(4),
               Quiver(("0", "1"), ((1, 2), (2, 1))), toric_quiver(1)]
    for q in quivers:
        nv = q.num_vertices
        dims = ([(d,) for d in range(1, 5)] if nv == 1 else
                [(a, b) for a in range(3) for b in range(3) if 0 < a + b <= 4])
        for d in dims:
            for v in range(total_dim(d) + 1):
                delta = CentralWeight.spread(d, v)
                for a in enumerate_vector_partitions(d):
                    cases += 1
                    main = partition_indicator(q, d, a, delta)
                    block = partition_indicator_blockwise(q, d, a, delta)
                    sampled = partition_indicator_sampling(q, d, a, delta, bound=6)
                    if main != block:
                        fails.append(("blockwise", q.arrows, d, v, str(a)))
                    if main == 1 and sampled == 0:
                        fails.append(("sampling refuted", q.arrows, d, v, str(a)))
                    if main == 0 and sampled == 1:
                        fails.append(("sampling missed", q.arrows, d, v, str(a)))
    return (f"three admissibility routes agree ({cases} cases)",
            _fails_summary(fails), not fails)


def check_tripled_loop_assembly():
    """Tripled single loop: partition-count identity and K-theory parities."""
    q = triple(loop_quiver(1))
    table = builtin_block_table("tripled-one-loop")
    fails = []
    for n in range(1, 9):
        p = partition_count(n)
        a0 = bps_assembly_dim(q, (n,), CentralWeight.spread((n,), 0), table)
        if a0 != p:
            fails.append(("v=0", n, p, a0))
        for v in range(1, n + 1):
            if gcd(n, v) == 1:
                av = bps_assembly_dim(q, (n,), CentralWeight.spread((n,), v), table)
                if av != 1:
                    fails.append(("coprime", n, v, av))
        if ktheory_dim_from_bps(a0, "mf") != (p, p):
            fails.append(("mf", n))
        if ktheory_dim_from_bps(a0, "preprojective") != (p, 0):
            fails.append(("preprojective", n))
    return ("assembly(v=0) = partition count, 1 at coprime weights, parities "
            "(p, p) mf / (p, 0) preprojective for n <= 8",
            _fails_summary(fails), not fails)


def check_central_weight_search():
    """3-loop search returns the spread weight 0 (rank 1) or 1 (rank >= 2)."""
    fails = []
    q = loop_quiver(3)
    for d in range(1, 9):
        found = find_central_weight(q, (d,))
        want_v = 0 if d == 1 else 1
        want = CentralWeight.spread((d,), want_v)
        sset = admissible_partitions(q, (d,), want)
        if found != want:
            fails.append((d, "got", found))
        if sset != (VectorPartition(((d,),)),):
            fails.append((d, "set", [str(a) for a in sset]))
    return ("search returns weight parameter 0 iff d = 1, and the admissible "
            "set is the singleton {d}", _fails_summary(fails), not fails)


def check_membership_routes():
    """Counting and membership routes agree; symmetry and invariances hold."""
    fails = []
    samples = 0
    # (a) block-profile count against the flow-membership DFS, small
    # families; the all-ones quivers walk three and four blocks
    instances = [(toric_quiver(1), (1, 1)), (toric_quiver(4), (1, 1)),
                 (loop_quiver(3), (4,)), (loop_quiver(5), (3,)),
                 (loop_quiver(1), (6,)), (loop_quiver(3), (6,)),
                 (Quiver(tuple("012"), ((1,) * 3,) * 3), (1, 2, 2)),
                 (Quiver(tuple("0123"), ((1,) * 4,) * 4), (1, 1, 1, 2))]
    for q, d in instances:
        for v in (0, 1, total_dim(d)):
            try:
                magic_dimension_v(q, d, v, fast="checked")
            except RouteDisagreementError as exc:
                fails.append(("route disagreement", q.arrows, d, v, str(exc)))
    # (b) central symmetry, support domination, scaling and the count's
    # Weyl cut rule against flow membership, on random points
    rng = random.Random(20260823)
    for q, d in instances:
        z = weight_zonotope(q, d)
        box = bounding_box(z)
        blocks = slot_blocks(d)
        rho = weyl_vector(d)
        profiles = list(product(*(range(m + 1) for m in d)))
        for trial in range(90):
            samples += 1
            raw = [Fraction(rng.randint(4 * int(lo) - 2, 4 * int(hi) + 2), 4)
                   for lo, hi in box]
            if trial % 5:
                # project into the sum-zero hyperplane, else contains is
                # trivially false on both sides of every comparison
                shift = sum(raw) / z.dim
                x = tuple(c - shift for c in raw)
            else:
                x = tuple(raw)
            inside = contains(z, x)
            if inside != contains(z, tuple(-c for c in x)):
                fails.append(("central symmetry", z.dim, x))
            if inside:
                lam = tuple(rng.randint(-3, 3) for _ in range(z.dim))
                if sum(a * b for a, b in zip(lam, x)) > support(z, lam):
                    fails.append(("support violated", z.dim, x, lam))
                half = tuple(c / 2 for c in x)
                if not contains(z, half):
                    fails.append(("scaling", z.dim, x))
            # a dominant integer chi with the central weight of its own sum
            # passes every cut exactly when chi + rho - delta is inside
            chi = [rng.randint(int(lo) - 1, int(hi) + 1) for lo, hi in box]
            chi = [c for b0, b1 in blocks for c in sorted(chi[b0:b1])]
            delta = CentralWeight.spread(d, sum(chi))
            scale, table = _scaled_half_widths(q, d, delta, range(len(d)), profiles)
            tops = [[0, *accumulate(reversed(chi[b0:b1]))] for b0, b1 in blocks]
            by_cuts = all(sum(t[k] for t, k in zip(tops, ks)) <= h // scale
                          for ks, h in zip(profiles, table))
            shifted = tuple(c + r - e for c, r, e in zip(chi, rho, delta.expand(d)))
            if by_cuts != contains(z, shifted):
                fails.append(("cut rule disagrees", d, tuple(chi)))
    # (c) weight-shift and duality invariance of the counts
    for q, d in [(loop_quiver(3), (2,)), (loop_quiver(3), (3,)),
                 (toric_quiver(2), (1, 1)), (loop_quiver(2), (3,))]:
        n = total_dim(d)
        for v in range(-2, 3):
            samples += 1
            base = magic_dimension_v(q, d, v)
            if magic_dimension_v(q, d, v + n) != base:
                fails.append(("shift", q.arrows, d, v))
            if magic_dimension_v(q, d, -v) != base:
                fails.append(("duality", q.arrows, d, v))
    return (f"agreement, symmetry, domination, shift/duality ({samples} samples)",
            _fails_summary(fails), not fails)


# --- deep checks -----------------------------------------------------------

def check_deep_width_bruteforce():
    """Window width equals its brute-force expansion on random cocharacters."""
    rng = random.Random(97)
    fails = []
    for _ in range(1000):
        nv = rng.randint(1, 2)
        if nv == 1:
            q = loop_quiver(rng.randint(0, 4))
            d = (rng.randint(1, 4),)
        else:
            a, b, c = rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 3)
            q = Quiver(("0", "1"), ((a, c), (c, b)))
            d = (rng.randint(0, 3), rng.randint(0, 3))
            if total_dim(d) == 0:
                d = (1, 1)
        lam = tuple(rng.randint(-5, 5) for _ in range(total_dim(d)))
        if window_width(q, d, lam) != window_width_bruteforce(q, d, lam):
            fails.append((q.arrows, d, lam))
    return ("1000 random cocharacters agree", _fails_summary(fails), not fails)


def check_deep_naive_lattice():
    """Window counts equal the unpruned box-scan oracle on small instances."""
    fails = []
    cases = 0
    for q, d, vs in [(toric_quiver(1), (1, 1), range(-4, 5)),
                     (toric_quiver(2), (1, 1), range(-2, 3)),
                     (loop_quiver(3), (2,), range(0, 4)),
                     (loop_quiver(3), (3,), range(0, 4)),
                     (loop_quiver(5), (2,), range(0, 3)),
                     (loop_quiver(1), (4,), range(0, 5))]:
        for v in vs:
            cases += 1
            delta = CentralWeight.spread(d, v)
            want = lattice_count_naive(q, d, delta)
            got = magic_dimension(q, d, delta)
            if got != want:
                fails.append((q.arrows, d, v, want, got))
    return (f"pruned count = box-scan count ({cases} cases)",
            _fails_summary(fails), not fails)


def check_deep_fractional_central():
    """Non-integral diagonal pairing forces an empty window."""
    fails = []
    for q, d in [(loop_quiver(3), (3,)), (toric_quiver(1), (1, 1))]:
        delta = CentralWeight((Fraction(1, 2),) * q.num_vertices)
        if delta.total_pairing(d).denominator != 1:
            if magic_dimension(q, d, delta) != 0:
                fails.append((q.arrows, d))
    return ("count 0 off the integer slice", _fails_summary(fails), not fails)


CHECKS = [
    ("toric-window-counts", "toric family parity count", check_toric_window_counts),
    ("odd-loop-rank-two", "odd-loop rank-2 window count", check_odd_loop_rank_two),
    ("one-loop-divisibility", "single-loop divisibility count", check_one_loop_divisibility),
    ("score-route-agreement", "one-vertex route agreement", check_score_route_agreement),
    ("gcd-invariance", "gcd invariance of counts", check_gcd_invariance),
    ("closed-form-sets", "closed-form admissible sets", check_closed_form_sets),
    ("admissibility-routes", "admissibility route agreement", check_admissibility_routes),
    ("tripled-loop-assembly", "tripled-loop partition identity", check_tripled_loop_assembly),
    ("central-weight-search", "central weight search rule", check_central_weight_search),
    ("membership-routes", "membership route properties", check_membership_routes),
]

DEEP_CHECKS = [
    ("width-bruteforce", "window width brute force", check_deep_width_bruteforce),
    ("naive-lattice", "unpruned lattice scan", check_deep_naive_lattice),
    ("fractional-central", "fractional central weight", check_deep_fractional_central),
]


def run_checks(deep: bool = False, progress=None) -> list[CheckResult]:
    results = []
    table = CHECKS + (DEEP_CHECKS if deep else [])
    for name, anchor, fn in table:
        start = time.perf_counter()
        expected, computed, passed = fn()
        ms = int((time.perf_counter() - start) * 1000)
        result = CheckResult(name, anchor, expected, computed, passed, ms)
        results.append(result)
        if progress is not None:
            progress(result)
    return results


def report_dict(results: list[CheckResult]) -> dict:
    return {
        "checks": [
            {"name": r.name, "anchor": r.anchor, "expected": r.expected,
             "computed": r.computed, "pass": r.passed, "ms": r.ms}
            for r in results
        ],
        "pass": all(r.passed for r in results),
    }


def report_json(results: list[CheckResult]) -> str:
    """Canonical serialization; parsing and re-serializing is byte-identical."""
    return json.dumps(report_dict(results), sort_keys=True, separators=(",", ":"))

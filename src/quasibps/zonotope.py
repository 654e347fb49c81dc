"""The closed weight zonotope and exact membership tests.

The polytope attached to (quiver, dimension vector) is the Minkowski sum of
the segments [0, g/2] over the nonzero representation weights g.  For a
symmetric quiver the generator multiset is negation-stable, so the polytope
is centrally symmetric and lives in the sum-zero hyperplane.

There is one exact membership route, ``contains``.  Every generator is a
slot difference e_p - e_q, so "x = sum t g with 0 <= t <= cap" is a
capacitated flow-feasibility problem once parallel generators are
aggregated.  Denominators are cleared and the integer problem is solved by
max-flow with shortest augmenting paths in a fixed arc order: exact,
deterministic, terminating.  By Gale's theorem the same points are cut out
by the support inequalities of the 0/1 indicator cocharacters, which is the
rule the window count applies; ``verify`` checks the two against each other.
``contains_fast`` is kept as a name and runs ``contains``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

from .errors import InputSchemaError
from .quiver import Quiver, _Record, check_dim_vector, total_dim, weight_multisets


class Zonotope(_Record):
    """Minkowski sum of segments [0, length * direction], all starting at 0.

    Directions are integer vectors; for everything built by
    ``weight_zonotope`` they are slot differences e_p - e_q and every length
    is 1/2, one generator per multiset element.
    """

    __slots__ = ("dim", "generators")

    def __init__(self, dim: int, generators: tuple[tuple[tuple[int, ...], Fraction], ...]):
        self._init(dim, generators)


def weight_zonotope(q: Quiver, d) -> Zonotope:
    """Zonotope of the nonzero representation weights of (q, d), lengths 1/2."""
    d = check_dim_vector(q, d)
    n = total_dim(d)
    rep, _ = weight_multisets(q, d)
    gens = []
    half = Fraction(1, 2)
    for (p, r), m in rep.nonzero():
        vec = [0] * n
        vec[p] = 1
        vec[r] = -1
        gens.extend([(tuple(vec), half)] * m)
    return Zonotope(n, tuple(gens))


def support(z: Zonotope, lam) -> Fraction:
    """Support function: max of <lam, x> over the zonotope."""
    if len(lam) != z.dim:
        raise InputSchemaError(f"functional length {len(lam)} vs ambient dimension {z.dim}")
    tot = Fraction(0)
    for vec, length in z.generators:
        s = sum(a * b for a, b in zip(lam, vec))
        if s > 0:
            tot += length * s
    return tot


def bounding_box(z: Zonotope) -> tuple[tuple[Fraction, Fraction], ...]:
    """Per-coordinate (min, max) over the zonotope."""
    box = []
    for p in range(z.dim):
        unit = tuple(1 if i == p else 0 for i in range(z.dim))
        neg = tuple(-1 if i == p else 0 for i in range(z.dim))
        box.append((-support(z, neg), support(z, unit)))
    return tuple(box)


# --- exact membership via integer flow feasibility -------------------------

def _aggregated_arcs(z: Zonotope) -> tuple[tuple[int, int, Fraction], ...]:
    """Parallel generators merged: (src, dst, capacity) per direction e_dst - e_src.

    Raises if some generator is not a slot difference; only those arise here.
    """
    caps: dict[tuple[int, int], Fraction] = {}
    for vec, length in z.generators:
        pos = [i for i, a in enumerate(vec) if a == 1]
        neg = [i for i, a in enumerate(vec) if a == -1]
        if len(pos) != 1 or len(neg) != 1 or any(a not in (-1, 0, 1) for a in vec):
            raise InputSchemaError(
                "zonotope generator is not a difference of two slot vectors")
        key = (neg[0], pos[0])
        caps[key] = caps.get(key, Fraction(0)) + length
    return tuple((s, t, c) for (s, t), c in sorted(caps.items()))


@lru_cache(maxsize=256)
def _arc_cache(z: Zonotope):
    return _aggregated_arcs(z)


def _max_flow(num_nodes: int, edges, source: int, sink: int) -> int:
    """Max flow with integer capacities, BFS augmenting paths, fixed arc order."""
    head: list[int] = []
    cap: list[int] = []
    adj: list[list[int]] = [[] for _ in range(num_nodes)]

    def add(u, v, c):
        adj[u].append(len(head))
        head.append(v)
        cap.append(c)
        adj[v].append(len(head))
        head.append(u)
        cap.append(0)

    for u, v, c in edges:
        add(u, v, c)

    flow = 0
    while True:
        prev_edge = [-1] * num_nodes
        prev_edge[source] = -2
        queue = [source]
        while queue and prev_edge[sink] == -1:
            nxt = []
            for u in queue:
                for eid in adj[u]:
                    v = head[eid]
                    if cap[eid] > 0 and prev_edge[v] == -1:
                        prev_edge[v] = eid
                        nxt.append(v)
            queue = nxt
        if prev_edge[sink] == -1:
            return flow
        bottleneck = None
        v = sink
        while v != source:
            eid = prev_edge[v]
            bottleneck = cap[eid] if bottleneck is None else min(bottleneck, cap[eid])
            v = head[eid ^ 1]
        v = sink
        while v != source:
            eid = prev_edge[v]
            cap[eid] -= bottleneck
            cap[eid ^ 1] += bottleneck
            v = head[eid ^ 1]
        flow += bottleneck


def contains(z: Zonotope, x) -> bool:
    """Exact membership of a rational point in the closed zonotope."""
    if len(x) != z.dim:
        raise InputSchemaError(f"point length {len(x)} vs ambient dimension {z.dim}")
    x = tuple(Fraction(v) for v in x)
    if sum(x) != 0:
        return False
    arcs = _arc_cache(z)
    scale = lcm(*(v.denominator for v in x), *(c.denominator for _, _, c in arcs), 1)
    demand = [int(v * scale) for v in x]
    source, sink = z.dim, z.dim + 1
    edges = [(u, v, int(c * scale)) for u, v, c in arcs]
    need = 0
    for p, b in enumerate(demand):
        if b > 0:
            edges.append((p, sink, b))
            need += b
        elif b < 0:
            edges.append((source, p, -b))
    return _max_flow(z.dim + 2, edges, source, sink) == need


def contains_fast(z: Zonotope, x) -> bool:
    """Same as ``contains``; the name is kept for callers of the former indicator route."""
    return contains(z, x)

"""The closed weight zonotope and exact membership tests.

The polytope attached to (quiver, dimension vector) is the Minkowski sum of
the segments [0, g/2] over the nonzero representation weights g.  For a
symmetric quiver the generator multiset is negation-stable, so the polytope
is centrally symmetric and lives in the sum-zero hyperplane.  Every
generator is a slot difference, so ``Zonotope(dim, arcs)`` keeps the integer
arcs of the weight multiset; support and bounding box are closed forms.

There is one exact membership route, ``contains``.  Doubled, membership is
flow feasibility with capacity m on each arc r -> p and demand 2x; with
denominators cleared it is solved by max-flow with shortest augmenting
paths in a fixed arc order: exact, deterministic, terminating.  By Gale's
theorem the same points are cut out by the support inequalities of the 0/1
indicator cocharacters, which is the rule the window count applies;
``verify`` checks the two against each other.  ``contains_fast`` is kept as
a name and runs ``contains``.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import InputSchemaError
from .quiver import Quiver, _Record, check_dim_vector, is_count, total_dim, weight_multisets


class Zonotope(_Record):
    """Minkowski sum of segments [0, (e_p - e_r)/2] in ``dim`` slots.

    Each arc ``(r, p, m)`` stands for m such generators, r != p.
    """

    __slots__ = ("dim", "arcs")

    def __init__(self, dim: int, arcs: tuple[tuple[int, int, int], ...]):
        for arc in arcs:
            if not (len(arc) == 3 and all(map(is_count, arc)) and arc[0] != arc[1]
                    and max(arc[0], arc[1]) < dim):
                raise InputSchemaError(f"zonotope arc {arc!r} is not (r, p, m) with "
                                       f"slots r != p below {dim} and m >= 0")
        self._init(dim, arcs)


def weight_zonotope(q: Quiver, d) -> Zonotope:
    """Zonotope of the nonzero representation weights of (q, d), lengths 1/2."""
    d = check_dim_vector(q, d)
    rep, _ = weight_multisets(q, d)
    return Zonotope(total_dim(d), tuple(sorted((r, p, m) for (p, r), m in rep.nonzero())))


def support(z: Zonotope, lam) -> Fraction:
    """Support function: max of <lam, x> over the zonotope."""
    if len(lam) != z.dim:
        raise InputSchemaError(f"functional length {len(lam)} vs ambient dimension {z.dim}")
    return Fraction(sum(m * max(lam[p] - lam[r], 0) for r, p, m in z.arcs), 2)


def bounding_box(z: Zonotope) -> tuple[tuple[Fraction, Fraction], ...]:
    """Per-coordinate (min, max) over the zonotope: half the arc
    multiplicity out of and into each slot."""
    out = [0] * z.dim
    into = [0] * z.dim
    for r, p, m in z.arcs:
        out[r] += m
        into[p] += m
    return tuple((Fraction(-a, 2), Fraction(b, 2)) for a, b in zip(out, into))


# --- exact membership via integer flow feasibility -------------------------

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
    scale = lcm(*(v.denominator for v in x))
    demand = [int(2 * v * scale) for v in x]
    source, sink = z.dim, z.dim + 1
    edges = [(r, p, m * scale) for r, p, m in z.arcs]
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

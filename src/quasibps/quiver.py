"""Symmetric quivers, dimension vectors, and the weight multisets they induce.

A quiver is a vertex list plus an integer matrix, ``arrows[i][j]`` = number of
arrows from vertex i to vertex j.  A dimension vector assigns a rank to each
vertex in the same order.  The weight lattice of the associated reductive
group is linearized vertex-major: vertex 0 owns slots ``0 .. d[0]-1``, vertex 1
the next ``d[1]`` slots, and so on.  Every weight that matters downstream is a
difference of two slot basis vectors, so multisets of weights are stored as
``((p, q), multiplicity)`` meaning ``e_p - e_q`` with that multiplicity.

All types here are immutable and hashable; functions return new objects.
"""

from __future__ import annotations

import json

from .errors import AsymmetricQuiverError, InputSchemaError

DimVector = tuple[int, ...]


def is_int(m) -> bool:
    """An int; bools are refused although they are ints."""
    return isinstance(m, int) and not isinstance(m, bool)


def is_count(m) -> bool:
    """A nonnegative int; bools are refused although they are ints."""
    return is_int(m) and m >= 0


class _Record:
    """Frozen record whose ``__slots__`` name its fields: equality (same class
    only), hash and repr of the field tuple, as a frozen dataclass has them.
    A subclass ``__init__`` validates, then stores the fields with ``_init``."""

    __slots__ = ()

    def _init(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self):
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({body})"

    def __reduce__(self):
        return self.__class__, self._fields()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Quiver(_Record):
    __slots__ = ("vertices", "arrows", "potential")

    def __init__(self, vertices: tuple[str, ...], arrows: tuple[tuple[int, ...], ...],
                 potential: str | None = None):  # opaque tag such as "tripled"; never evaluated
        vertices = tuple(str(v) for v in vertices)
        try:
            arrows = tuple(tuple(row) for row in arrows)
        except TypeError:
            raise InputSchemaError("arrows must be a matrix of nonnegative integers")
        n = len(vertices)
        if n == 0:
            raise InputSchemaError("quiver needs at least one vertex")
        if len(arrows) != n:
            raise InputSchemaError(
                f"arrows has {len(arrows)} rows, expected {n}")
        for i, row in enumerate(arrows):
            if len(row) != n:
                raise InputSchemaError(
                    f"arrows[{i}] has {len(row)} entries, expected {n}")
            for j, m in enumerate(row):
                if not is_count(m):
                    raise InputSchemaError(
                        f"arrows[{i}][{j}] = {m!r} is not a nonnegative integer")
        self._init(vertices, arrows, potential)

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)


def loop_quiver(loops: int) -> Quiver:
    """One vertex with the given number of loops."""
    if not isinstance(loops, int) or loops < 0:
        raise InputSchemaError(f"loop count {loops!r} is not a nonnegative integer")
    return Quiver(("0",), ((loops,),))


def is_symmetric(q: Quiver) -> bool:
    n = q.num_vertices
    return all(q.arrows[i][j] == q.arrows[j][i] for i in range(n) for j in range(i + 1, n))


def require_symmetric(q: Quiver) -> None:
    n = q.num_vertices
    for i in range(n):
        for j in range(i + 1, n):
            if q.arrows[i][j] != q.arrows[j][i]:
                raise AsymmetricQuiverError(
                    f"arrows[{i}][{j}] = {q.arrows[i][j]} but arrows[{j}][{i}] = "
                    f"{q.arrows[j][i]}; operation needs a symmetric quiver")


def double(q: Quiver) -> Quiver:
    """Add a reverse arrow for every arrow.  Always symmetric."""
    n = q.num_vertices
    arr = tuple(tuple(q.arrows[i][j] + q.arrows[j][i] for j in range(n)) for i in range(n))
    return Quiver(q.vertices, arr)


def triple(q: Quiver) -> Quiver:
    """Double the quiver and add one loop per vertex.

    The canonical potential attached to this construction is recorded only as
    the opaque tag ``"tripled"``; it selects documentation and the
    trivial-monodromy convention downstream and is never evaluated.
    """
    n = q.num_vertices
    dq = double(q)
    arr = tuple(tuple(dq.arrows[i][j] + (1 if i == j else 0) for j in range(n))
                for i in range(n))
    return Quiver(q.vertices, arr, potential="tripled")


def check_dim_vector(q: Quiver, d) -> DimVector:
    try:
        d = tuple(d)
    except TypeError:
        raise InputSchemaError(f"dimension vector {d!r} is not a sequence")
    if len(d) != q.num_vertices:
        raise InputSchemaError(
            f"dimension vector has {len(d)} entries, quiver has {q.num_vertices} vertices")
    for i, m in enumerate(d):
        if not is_count(m):
            raise InputSchemaError(f"dim[{i}] = {m!r} is not a nonnegative integer")
    return d


def total_dim(d) -> int:
    return sum(d)


def slot_blocks(d) -> tuple[tuple[int, int], ...]:
    """Per-vertex (start, stop) slot ranges of the vertex-major linearization."""
    out = []
    start = 0
    for m in d:
        out.append((start, start + m))
        start += m
    return tuple(out)


class WeightMultiset(_Record):
    """Multiset of slot-difference weights ``e_p - e_q``.

    Entries are ``((p, q), multiplicity)``.  Entries with ``p == q`` are zero
    weights; they are kept so that cardinality audits see the full
    representation, but they contribute nothing to pairings or polytopes.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[tuple[tuple[int, int], int], ...]):
        self._init(entries)

    def size(self) -> int:
        """Total cardinality, multiplicities and zero weights included."""
        return sum(m for _, m in self.entries)

    def nonzero(self):
        for (p, q), m in self.entries:
            if p != q:
                yield (p, q), m

    def negated(self) -> "WeightMultiset":
        return WeightMultiset(tuple(((q, p), m) for (p, q), m in self.entries))


def weight_multisets(q: Quiver, d) -> tuple[WeightMultiset, WeightMultiset]:
    """Weight data of (q, d): (representation weights, adjoint roots).

    The first multiset collects ``e_p - e_q`` with multiplicity
    ``arrows[i][j]`` for every slot p of vertex i and slot q of vertex j; the
    second collects each root ``e_p - e_q`` (p != q inside one block) once.
    Vertices with dimension zero contribute no slots.
    """
    d = check_dim_vector(q, d)
    blocks = slot_blocks(d)
    rep = []
    for i in range(q.num_vertices):
        for j in range(q.num_vertices):
            m = q.arrows[i][j]
            if m == 0:
                continue
            for p in range(*blocks[i]):
                for r in range(*blocks[j]):
                    rep.append(((p, r), m))
    adj = []
    for i in range(q.num_vertices):
        b0, b1 = blocks[i]
        for p in range(b0, b1):
            for r in range(b0, b1):
                if p != r:
                    adj.append(((p, r), 1))
    return WeightMultiset(tuple(rep)), WeightMultiset(tuple(adj))


# --- JSON interchange ------------------------------------------------------

def quiver_from_dict(obj) -> Quiver:
    if not isinstance(obj, dict):
        raise InputSchemaError("quiver JSON must be an object")
    missing = [k for k in ("vertices", "arrows") if k not in obj]
    if missing:
        raise InputSchemaError(f"quiver JSON missing key(s): {', '.join(missing)}")
    vertices = obj["vertices"]
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise InputSchemaError("vertices must be a list of strings")
    arrows = obj["arrows"]
    if not isinstance(arrows, list) or not all(isinstance(r, list) for r in arrows):
        raise InputSchemaError("arrows must be a list of integer rows")
    potential = obj.get("potential")
    if potential is not None and not isinstance(potential, str):
        raise InputSchemaError("potential tag must be a string when present")
    return Quiver(tuple(vertices), tuple(tuple(r) for r in arrows), potential)


def quiver_to_dict(q: Quiver) -> dict:
    obj = {"vertices": list(q.vertices), "arrows": [list(r) for r in q.arrows]}
    if q.potential is not None:
        obj["potential"] = q.potential
    return obj


def _read_json(path, what: str):
    """The JSON value in a UTF-8 file; a failure to read, decode or parse it,
    nesting too deep included, is an InputSchemaError naming ``what``."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:  # caught before ValueError, its base
        raise InputSchemaError(f"cannot read {what} {path}: {exc}")
    except (ValueError, RecursionError) as exc:
        raise InputSchemaError(f"{what} {path} is not valid JSON: {exc}")


def load_quiver(path) -> Quiver:
    return quiver_from_dict(_read_json(path, "quiver file"))

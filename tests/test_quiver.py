import copy
import json
import pickle
from fractions import Fraction

import pytest

from quasibps.bps import BlockDimTable
from quasibps.errors import AsymmetricQuiverError, InputSchemaError
from quasibps.partitions import VectorPartition
from quasibps.quiver import (
    Quiver,
    WeightMultiset,
    check_dim_vector,
    double,
    is_symmetric,
    load_quiver,
    loop_quiver,
    quiver_from_dict,
    quiver_to_dict,
    require_symmetric,
    slot_blocks,
    total_dim,
    triple,
    weight_multisets,
)
from quasibps.verify import CheckResult
from quasibps.weights import CentralWeight
from quasibps.zonotope import Zonotope


def test_construction_normalizes_to_tuples():
    q = Quiver(["a", "b"], [[0, 2], [2, 1]])
    assert q.vertices == ("a", "b")
    assert q.arrows == ((0, 2), (2, 1))
    assert q.potential is None
    assert q.num_vertices == 2
    assert hash(q) == hash(Quiver(("a", "b"), ((0, 2), (2, 1))))
    assert q == Quiver(arrows=[[0, 2], [2, 1]], vertices=["a", "b"])
    assert q != Quiver(("a", "b"), ((0, 2), (2, 1)), potential="tripled")
    tagged = Quiver(vertices=("a",), arrows=((1,),), potential="tripled")
    assert tagged.potential == "tripled"
    assert tagged == Quiver(("a",), ((1,),), "tripled")


def test_construction_rejects_bad_shapes():
    with pytest.raises(InputSchemaError):
        Quiver((), ())
    with pytest.raises(InputSchemaError):
        Quiver(("a",), ((0,), (0,)))
    with pytest.raises(InputSchemaError):
        Quiver(("a", "b"), ((0, 1), (1,)))
    with pytest.raises(InputSchemaError):
        Quiver(("a",), ((-1,),))
    with pytest.raises(InputSchemaError):
        Quiver(("a",), ((True,),))
    with pytest.raises(InputSchemaError):
        Quiver(("a",), ((1.0,),))


def test_loop_quiver():
    q = loop_quiver(3)
    assert q.vertices == ("0",)
    assert q.arrows == ((3,),)
    with pytest.raises(InputSchemaError):
        loop_quiver(-1)


def test_symmetry_predicates():
    asym = Quiver(("a", "b"), ((0, 2), (1, 0)))
    assert not is_symmetric(asym)
    assert is_symmetric(loop_quiver(5))
    with pytest.raises(AsymmetricQuiverError):
        require_symmetric(asym)
    require_symmetric(double(asym))


def test_double_and_triple():
    q = Quiver(("a", "b"), ((1, 2), (0, 0)))
    dq = double(q)
    assert dq.arrows == ((2, 2), (2, 0))
    tq = triple(q)
    assert tq.arrows == ((3, 2), (2, 1))
    assert tq.potential == "tripled"
    # tripling the one-loop quiver gives the three-loop quiver
    assert triple(loop_quiver(1)).arrows == ((3,),)


def test_dim_vector_checks():
    q = Quiver(("a", "b"), ((0, 1), (1, 0)))
    assert check_dim_vector(q, [2, 3]) == (2, 3)
    assert check_dim_vector(q, (0, 1)) == (0, 1)
    for bad in (7, (1,), (1, 2, 3), (1, -1), (1, "x")):
        with pytest.raises(InputSchemaError):
            check_dim_vector(q, bad)
    assert total_dim((2, 3)) == 5
    assert slot_blocks((2, 3)) == ((0, 2), (2, 5))
    assert slot_blocks((0, 2)) == ((0, 0), (0, 2))


def test_weight_multiset_cardinalities():
    # |rep| = sum arrows[i][j] d_i d_j including zero weights,
    # |adjoint| = sum d_i (d_i - 1)
    cases = [
        (loop_quiver(3), (2,)),
        (loop_quiver(1), (4,)),
        (Quiver(("a", "b"), ((1, 2), (2, 1))), (2, 3)),
        (Quiver(("a", "b"), ((0, 3), (3, 0))), (1, 1)),
    ]
    for q, d in cases:
        rep, adj = weight_multisets(q, d)
        want_rep = sum(q.arrows[i][j] * d[i] * d[j]
                       for i in range(q.num_vertices) for j in range(q.num_vertices))
        want_adj = sum(m * (m - 1) for m in d)
        assert rep.size() == want_rep
        assert adj.size() == want_adj


def test_weight_multiset_symmetry():
    q = Quiver(("a", "b"), ((1, 2), (2, 1)))
    rep, adj = weight_multisets(q, (2, 1))
    def as_counter(entries):
        out = {}
        for (p, r), m in entries:
            out[(p, r)] = out.get((p, r), 0) + m
        return out
    # symmetric quiver: the multiset of nonzero weights is negation-stable
    fwd = as_counter(rep.nonzero())
    bwd = as_counter(rep.negated().nonzero())
    assert fwd == bwd
    assert as_counter(adj.nonzero()) == as_counter(adj.negated().nonzero())


def test_zero_dimension_vertices_contribute_nothing():
    q = Quiver(("a", "b"), ((2, 1), (1, 0)))
    rep, adj = weight_multisets(q, (0, 3))
    assert all(0 <= p < 3 and 0 <= r < 3 for (p, r), _ in rep.entries)
    assert rep.size() == 0  # only the b-vertex has slots and b has no loops
    assert adj.size() == 6


def test_multiset_nonzero_filters_diagonal():
    ms = WeightMultiset((((0, 0), 4), ((0, 1), 2)))
    assert ms.size() == 6
    assert list(ms.nonzero()) == [((0, 1), 2)]


def test_json_round_trip(tmp_path):
    q = Quiver(("x", "y"), ((1, 2), (2, 1)), potential="tripled")
    obj = quiver_to_dict(q)
    assert obj == {"vertices": ["x", "y"], "arrows": [[1, 2], [2, 1]],
                   "potential": "tripled"}
    assert quiver_from_dict(obj) == q
    path = tmp_path / "q.json"
    path.write_text(json.dumps(obj))
    assert load_quiver(path) == q


def test_json_schema_errors(tmp_path):
    for bad in ([], {"vertices": ["a"]}, {"arrows": [[0]]},
                {"vertices": "a", "arrows": [[0]]},
                {"vertices": ["a"], "arrows": [0]},
                {"vertices": ["a"], "arrows": [[0]], "potential": 7}):
        with pytest.raises(InputSchemaError):
            quiver_from_dict(bad)
    # not JSON, not UTF-8, and nested past the parser's recursion limit
    for name, data in (("bad.json", b"not json"), ("binary.json", b"\xff\xfe\x00bad"),
                       ("deep.json", b"[" * 200_000)):
        path = tmp_path / name
        path.write_bytes(data)
        with pytest.raises(InputSchemaError):
            load_quiver(path)
    with pytest.raises(InputSchemaError):
        load_quiver(tmp_path / "missing.json")


# one instance of each value record, with the repr a dataclass gave it
RECORDS = [
    (Quiver(("0",), ((3,),)), "Quiver(vertices=('0',), arrows=((3,),), potential=None)"),
    (WeightMultiset((((0, 1), 2),)), "WeightMultiset(entries=(((0, 1), 2),))"),
    (CentralWeight((Fraction(1, 2),)), "CentralWeight(values=(Fraction(1, 2),))"),
    (VectorPartition(((1,), (2,))), "VectorPartition(parts=((2,), (1,)))"),
    (BlockDimTable((), default_dim=1),
     "BlockDimTable(dims=(), monodromy='trivial', default_dim=1, invariant_dim=None)"),
    (Zonotope(dim=2, arcs=((1, 0, 1),)), "Zonotope(dim=2, arcs=((1, 0, 1),))"),
    (CheckResult("a", "anchor", "1", "2", False, 3),
     "CheckResult(name='a', anchor='anchor', expected='1', computed='2', passed=False, ms=3)"),
]


@pytest.mark.parametrize("record, text", RECORDS, ids=[type(r).__name__ for r, _ in RECORDS])
def test_record_repr_copy_and_assignment(record, text):
    assert repr(record) == text
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record
    field = text[text.index("(") + 1:text.index("=")]  # the first field, as repr names it
    if isinstance(record, CheckResult):  # the one mutable, unhashable record
        changed = copy.copy(record)
        changed.name = "b"
        assert changed.name == "b" and changed != record
        with pytest.raises(TypeError):
            hash(record)
        return
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert hash(record) == hash(copy.copy(record))

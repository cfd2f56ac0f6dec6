"""The immutable value classes: constructors, equality, hash, read-only
fields, repr and pickling."""

import pickle
from fractions import Fraction

import pytest

import metgraph as mg
from conftest import scaled_graph
from metgraph.invariants import CheckMismatch

F = Fraction

SEGMENT = mg.MetrizedGraph(("a", "b"), (mg.Edge(0, 1, F(1, 2)),))


def graph():
    return mg.MetrizedGraph(("a", "b"), (mg.Edge(0, 1, F(1, 2)), (0, 1, "3")))


def value_matrix():
    # a network of its own, dropped on return: the matrix still makes its rows
    net = mg.Network(SEGMENT)
    return mg.green.value_matrix_of(net.divisor(mg.Divisor((1, 0))))


def subdivided():
    return mg.subdivide_at_points(SEGMENT, [(0, F(1, 4))])


# per class: a builder called twice for two equal values, the field names,
# and the repr the class had as a frozen dataclass
RECORDS = {
    "MetrizedGraph": (
        graph,
        ("vertices", "edges"),
        "MetrizedGraph(vertices=('a', 'b'), edges=(Edge(tail=0, head=1, length=Fraction(1, 2)),"
        " Edge(tail=0, head=1, length=Fraction(3, 1))))",
    ),
    "Divisor": (lambda: mg.Divisor([1, -1]), ("coefficients",), "Divisor(coefficients=(1, -1))"),
    "ConnectivityMatrix": (
        lambda: mg.ConnectivityMatrix(((1,),)),
        ("entries",),
        "ConnectivityMatrix(entries=((1,),))",
    ),
    "ValueMatrix": (
        value_matrix,
        ("divisor", "rows"),
        "ValueMatrix(divisor=Divisor(coefficients=(1, 0)),"
        " rows=(((144, 8, 24, 24, 0, 0, 0, -72),),))",
    ),
    "CheckReport": (
        lambda: mg.CheckReport("x", 2, (CheckMismatch("g(v0, v1)", F(1, 2), F(1, 3)),)),
        ("name", "comparisons", "mismatches"),
        "CheckReport(name='x', comparisons=2, mismatches=(CheckMismatch(location='g(v0, v1)',"
        " expected=Fraction(1, 2), got=Fraction(1, 3)),))",
    ),
}


@pytest.mark.parametrize("name", RECORDS)
class TestValueClassContract:
    def test_equal_values_are_equal_and_hash_equal(self, name):
        build, fields, _ = RECORDS[name]
        a, b = build(), build()
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert {a: name}[b] == name
        assert a != tuple(getattr(a, field) for field in fields)

    def test_keyword_constructor(self, name):
        build, fields, _ = RECORDS[name]
        a = build()
        assert type(a)(**{field: getattr(a, field) for field in fields}) == a

    def test_assignment_raises(self, name):
        build, fields, _ = RECORDS[name]
        a = build()
        for field in (*fields, "other"):
            with pytest.raises(AttributeError):
                setattr(a, field, None)
            with pytest.raises(AttributeError):
                delattr(a, field)
        assert a == build()

    def test_repr_is_the_dataclass_text(self, name):
        build, _, text = RECORDS[name]
        assert repr(build()) == text


@pytest.mark.parametrize("name", ["MetrizedGraph", "Divisor", "ValueMatrix"])
def test_pickle_round_trip(name):
    a = RECORDS[name][0]()
    copy = pickle.loads(pickle.dumps(a))
    assert copy is not a
    assert copy == a and hash(copy) == hash(a)
    assert repr(copy) == repr(a)


def test_unequal_fields_are_unequal():
    g = graph()
    assert g != mg.MetrizedGraph(("a", "c"), g.edges)
    assert g != scaled_graph(g, 2)
    assert mg.Divisor((1, -1)) != mg.Divisor((-1, 1))
    assert mg.CheckReport("x", 2, ()) != mg.CheckReport("x", 3, ())
    assert mg.ConnectivityMatrix(((1,),)) != mg.ConnectivityMatrix(((0,),))


def test_graph_and_divisor_hash_once_at_construction():
    # every network lookup hashes the graph, so it keeps its hash; only the
    # graph does since a network holds one divisor analysis, not a dict of them
    g, d = graph(), mg.Divisor((1, -1))
    assert g._hash == hash((g.vertices, g.edges)) == hash(g)
    assert hash(d) == hash((d.coefficients,))


def test_constructors_validate_as_before():
    with pytest.raises(mg.MetgraphError):
        mg.Divisor(coefficients=(1, True))
    with pytest.raises(mg.NonpositiveLength):
        mg.MetrizedGraph(vertices=("a", "b"), edges=((0, 1, 0),))
    with pytest.raises(mg.GraphDisconnected):
        mg.MetrizedGraph(("a", "b", "c"), ((0, 1, 1),))
    with pytest.raises(TypeError):
        mg.Divisor()


@pytest.mark.parametrize(
    "cls,constructor",
    [(mg.RationalMatrix, "_reduced"), (mg.EdgePairFunction, "_over"), (mg.EdgeFunction, "_over")],
    ids=["RationalMatrix", "EdgePairFunction", "EdgeFunction"],
)
def test_integer_classes_refuse_the_bare_constructor(cls, constructor):
    # each is made only by its trusted constructor; called, with arguments
    # or none, it names that constructor instead of making an instance whose
    # slots are unset
    name = cls.__name__
    for args in ((), (1, 2)):
        with pytest.raises(TypeError, match=rf"^{name} instances are made by {name}\.{constructor}$"):
            cls(*args)


class TestSubdividedGraph:
    def test_network_is_no_field(self):
        sub = subdivided()
        again = mg.SubdividedGraph(
            original=sub.original, graph=sub.graph, relabeling=sub.relabeling
        )
        assert again.network is not sub.network
        assert isinstance(again.network, mg.Network)
        assert again == sub and hash(again) == hash(sub)
        assert "network" not in repr(sub)
        assert repr(sub) == (
            "SubdividedGraph(original=MetrizedGraph(vertices=('a', 'b'), edges=(Edge(tail=0,"
            " head=1, length=Fraction(1, 2)),)), graph=MetrizedGraph(vertices=('a', 'b', 's0'),"
            " edges=(Edge(tail=0, head=2, length=Fraction(1, 4)), Edge(tail=2, head=1,"
            " length=Fraction(1, 4)))), relabeling=PointRelabeling(original=MetrizedGraph("
            "vertices=('a', 'b'), edges=(Edge(tail=0, head=1, length=Fraction(1, 2)),)),"
            " segments=(((0, Fraction(0, 1), Fraction(1, 4)), (1, Fraction(1, 4),"
            " Fraction(1, 2))),)))"
        )
        with pytest.raises(TypeError):
            mg.SubdividedGraph(sub.original, sub.graph, sub.relabeling, sub.network)

    def test_refinements_at_the_same_points_compare_by_value(self):
        first, second = subdivided(), subdivided()
        assert first.relabeling is not second.relabeling
        assert first == second and hash(first) == hash(second)
        assert first.relabeling == second.relabeling
        copy = pickle.loads(pickle.dumps(first))
        assert copy == first
        assert copy.vertex_index((0, F(1, 4))) == first.vertex_index((0, F(1, 4))) == 2

    def test_fields_are_read_only(self):
        sub = subdivided()
        for field in ("original", "graph", "relabeling", "network"):
            with pytest.raises(AttributeError):
                setattr(sub, field, None)

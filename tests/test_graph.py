"""Graph construction, adequacy, bridges and connectivity codes."""

import copy
import hashlib
import pickle
import random
from decimal import Decimal
from fractions import Fraction

import pytest

import metgraph as mg
from conftest import (
    build_banana,
    build_circle,
    build_circle_with_tail,
    build_segment,
    build_tesseract,
    build_two_bridges,
    edge_reversed,
    representations,
    scaled_graph,
    shortest_distance,
    standing_graphs,
)


def build_raw_banana(a=1, b=2, c=3):
    """Two vertices joined by three parallel edges; not adequate."""
    return mg.MetrizedGraph(
        ("p0", "p1"),
        (
            mg.Edge(0, 1, Fraction(a)),
            mg.Edge(0, 1, Fraction(b)),
            mg.Edge(0, 1, Fraction(c)),
        ),
    )


def build_loop(length=3):
    return mg.MetrizedGraph(("p0",), (mg.Edge(0, 0, Fraction(length)),))


class TestConstruction:
    def test_lengths_normalized_to_fractions(self):
        g = mg.MetrizedGraph(("a", "b"), (mg.Edge(0, 1, "3/7"),))
        assert g.edges[0].length == Fraction(3, 7)

    def test_zero_length_rejected(self):
        with pytest.raises(mg.NonpositiveLength):
            mg.MetrizedGraph(("a", "b"), (mg.Edge(0, 1, 0),))

    @pytest.mark.parametrize("length", ["1e200000", "0.5", "1/0", " 3/7"])
    def test_length_string_must_be_an_integer_or_a_ratio(self, length):
        with pytest.raises(mg.MetgraphError, match="edge 1 length"):
            mg.MetrizedGraph(("a", "b"), (mg.Edge(0, 1, 1), mg.Edge(1, 0, length)))

    @pytest.mark.parametrize("length", [0.1, 0.5, Decimal("0.1")])
    def test_float_and_decimal_lengths_rejected(self, length):
        # 0.1 would otherwise become 3602879701896397/36028797018963968
        with pytest.raises(mg.MetgraphError, match="edge 0 length"):
            mg.MetrizedGraph(("a", "b"), ((0, 1, length),))

    def test_negative_length_rejected(self):
        with pytest.raises(mg.NonpositiveLength):
            mg.MetrizedGraph(("a", "b"), (mg.Edge(0, 1, Fraction(-1, 2)),))

    @pytest.mark.parametrize("flag", [True, False])
    def test_as_fraction_rejects_bools(self, flag):
        # a bool is an int by inheritance, but never meant as the number 1 or 0
        with pytest.raises(mg.MetgraphError, match="x: expected an integer"):
            mg.graph.as_fraction(flag, "x")

    @pytest.mark.parametrize("flag", [True, False])
    def test_bool_length_rejected(self, flag):
        with pytest.raises(mg.MetgraphError, match="edge 0 length: expected") as caught:
            mg.MetrizedGraph(("a", "b"), (mg.Edge(0, 1, flag),))
        assert not isinstance(caught.value, mg.NonpositiveLength)

    def test_negative_ratio_string_is_a_nonpositive_length(self):
        # a signed ratio is read as a number, then rejected as a length
        with pytest.raises(mg.NonpositiveLength):
            mg.MetrizedGraph(("a", "b"), (mg.Edge(0, 1, "-1/2"),))

    def test_signed_ratio_strings_build(self):
        # a sign may lead a length or an offset; the number read is then
        # checked against its bounds
        g = mg.MetrizedGraph(("a", "b"), (mg.Edge(0, 1, "+3/4"),))
        assert g.edges[0].length == Fraction(3, 4)
        assert mg.validate_point(g, (0, "+1/4")).offset == Fraction(1, 4)
        with pytest.raises(mg.PointOutOfRange, match=r"offset -1/4 outside \[0, 3/4\]"):
            mg.validate_point(g, (0, "-1/4"))
        with pytest.raises(mg.NonpositiveLength, match="length -1/2$"):
            mg.MetrizedGraph(("a", "b"), (mg.Edge(0, 1, "-1/2"),))

    @pytest.mark.parametrize("entry", ["1/-2", "--1", "-/2", "1/+2"])
    def test_sign_only_leads_a_ratio(self, entry):
        with pytest.raises(mg.MetgraphError, match="edge 0 length: malformed rational"):
            mg.MetrizedGraph(("a", "b"), (mg.Edge(0, 1, entry),))
        with pytest.raises(mg.MetgraphError, match="offset on edge 0: malformed rational"):
            mg.validate_point(build_segment(), (0, entry))

    def test_disconnected_rejected(self):
        with pytest.raises(mg.GraphDisconnected):
            mg.MetrizedGraph(
                ("a", "b", "c", "d"),
                (mg.Edge(0, 1, 1), mg.Edge(2, 3, 1)),
            )

    def test_dangling_endpoint_rejected(self):
        with pytest.raises(mg.MetgraphError):
            mg.MetrizedGraph(("a", "b"), (mg.Edge(0, 2, 1),))

    @pytest.mark.parametrize(
        "edge", [(0.9, 1, 1), (0, True, 1), ("1", 0, 1)], ids=["float", "bool", "string"]
    )
    def test_endpoint_must_be_an_int(self, edge):
        # int() would truncate 0.9 to vertex 0 and read True and "1" as vertex 1
        with pytest.raises(mg.MetgraphError, match="vertex index"):
            mg.MetrizedGraph(("a", "b"), (edge,))

    def test_empty_rejected(self):
        with pytest.raises(mg.MetgraphError):
            mg.MetrizedGraph((), ())
        with pytest.raises(mg.MetgraphError):
            mg.MetrizedGraph(("a",), ())

    def test_duplicate_labels_rejected(self):
        with pytest.raises(mg.MetgraphError):
            mg.MetrizedGraph(("a", "a"), (mg.Edge(0, 1, 1),))

    def test_hashable_and_equal_by_value(self):
        assert build_circle() == build_circle()
        assert hash(build_circle()) == hash(build_circle())

    def test_valence_counts_loop_twice(self):
        assert build_loop().valence(0) == 2
        assert build_two_bridges().valence(1) == 3
        assert build_two_bridges().valence(5) == 1

    def test_total_length(self):
        assert build_circle().total_length == 2
        assert build_banana(1, 2, 3).total_length == 6


class TestAdequacy:
    def test_standing_graphs_are_adequate(self):
        for _, g, _ in standing_graphs():
            assert mg.validate_adequate(g)

    def test_parallel_edges_not_adequate(self):
        assert not mg.validate_adequate(build_raw_banana())

    def test_loop_not_adequate(self):
        assert not mg.validate_adequate(build_loop())

    def test_make_adequate_identity_on_adequate_graph(self):
        g = build_circle()
        refined, relabel = mg.make_adequate(g)
        assert refined == g
        pt = mg.GraphPoint(1, Fraction(1, 3))
        assert relabel.point(pt) == pt

    def test_make_adequate_splits_parallel_class(self):
        g = build_raw_banana(1, 2, 3)
        refined, relabel = mg.make_adequate(g)
        assert mg.validate_adequate(refined)
        assert refined.n_vertices == 4
        assert refined.n_edges == 5
        assert refined.total_length == g.total_length
        # lowest-index member kept whole, the others split at their midpoint
        assert refined.edges[0] == mg.Edge(0, 1, Fraction(1))
        assert relabel.point(mg.GraphPoint(1, Fraction(1))).offset == Fraction(1)

    def test_make_adequate_trisects_loop(self):
        refined, relabel = mg.make_adequate(build_loop(3))
        assert mg.validate_adequate(refined)
        assert refined.n_vertices == 3
        assert refined.n_edges == 3
        assert all(e.length == 1 for e in refined.edges)
        assert mg.vertex_at(refined, relabel.point(mg.GraphPoint(0, Fraction(1)))) == 1

    def test_relabeling_places_offsets_on_their_segments(self):
        # edge 2 of length 3 is cut at 3/2 into refined edges 3 and 4; an
        # offset on the cut lands on the segment ending there
        _, relabel = mg.make_adequate(build_raw_banana(1, 2, 3))
        F = Fraction
        cases = [(F(0), (3, F(0))), (F(1), (3, F(1))), (F(3, 2), (3, F(3, 2))),
                 (F(2), (4, F(1, 2))), (F(3), (4, F(3, 2)))]
        for offset, expected in cases:
            assert relabel.point(mg.GraphPoint(2, offset)) == expected
        assert relabel.point((0, F(1))) == (0, F(1))

    @pytest.mark.parametrize(
        "pt, error",
        [
            ((2, 0.25), mg.MetgraphError),
            ((True, Fraction(1, 2)), mg.PointOutOfRange),
            ((3, Fraction(0)), mg.PointOutOfRange),
            ((1, Fraction(3)), mg.PointOutOfRange),
        ],
        ids=["float-offset", "bool-edge", "edge-past-the-graph", "offset-past-the-edge"],
    )
    def test_relabeling_validates_its_point(self, pt, error):
        _, relabel = mg.make_adequate(build_raw_banana(1, 2, 3))
        with pytest.raises(error):
            relabel.point(pt)

    def test_relabeling_reads_a_string_offset(self):
        _, relabel = mg.make_adequate(build_raw_banana(1, 2, 3))
        assert relabel.point((0, "1/2")) == relabel.point((0, Fraction(1, 2)))
        assert type(relabel.point((0, "1/2")).offset) is Fraction

    def test_make_adequate_preserves_vertex_distances(self):
        g = build_raw_banana(2, 3, 5)
        refined, _ = mg.make_adequate(g)
        for u in range(g.n_vertices):
            for v in range(g.n_vertices):
                assert shortest_distance(g, u, v) == shortest_distance(refined, u, v)

    def test_require_adequate_raises(self):
        with pytest.raises(mg.NotAdequate):
            mg.laplacian(build_raw_banana())


class TestBridges:
    def test_two_bridges_graph(self):
        g = build_two_bridges()
        assert mg.bridges(g) == frozenset({0, 5})

    def test_circle_has_none(self):
        assert mg.bridges(build_circle()) == frozenset()

    def test_segment_is_a_bridge(self):
        assert mg.bridges(build_segment()) == frozenset({0})

    def test_loop_is_not_a_bridge(self):
        assert mg.bridges(build_loop()) == frozenset()

    def test_matches_cycle_based_search(self):
        # independent oracle: depth-first lowpoints on the multigraph
        def lowpoint_bridges(g):
            adj = [[] for _ in range(g.n_vertices)]
            for idx, e in enumerate(g.edges):
                adj[e.tail].append((e.head, idx))
                adj[e.head].append((e.tail, idx))
            disc = [None] * g.n_vertices
            low = [0] * g.n_vertices
            found = set()
            timer = 0

            def dfs(u, entered_by):
                nonlocal timer
                disc[u] = low[u] = timer
                timer += 1
                for v, idx in adj[u]:
                    if idx == entered_by:
                        continue
                    if disc[v] is None:
                        dfs(v, idx)
                        low[u] = min(low[u], low[v])
                        if low[v] > disc[u]:
                            found.add(idx)
                    else:
                        low[u] = min(low[u], disc[v])

            dfs(0, None)
            return frozenset(found)

        cases = [g for _, g, _ in standing_graphs()]
        cases += [build_circle_with_tail(), build_raw_banana(), build_loop()]
        for g in cases:
            assert mg.bridges(g) == lowpoint_bridges(g)


class TestBridgeSide:
    # per bridge, the library finds the vertices on the side of its tail

    def test_vertices_of_two_bridges_graph(self):
        sides = mg.graph.find_bridge_sides(build_two_bridges())
        assert sides == {0: frozenset({0}), 5: frozenset({0, 1, 2, 3, 4})}

    def test_bridge_endpoints_classify_to_own_side(self):
        for g in [g for _, g, _ in standing_graphs()] + [build_circle_with_tail()]:
            for b, side in mg.graph.find_bridge_sides(g).items():
                assert g.edges[b].tail in side
                assert g.edges[b].head not in side

    def test_edges(self):
        # an edge other than the bridge lies wholly on one side
        sides = mg.graph.find_bridge_sides(build_two_bridges())
        assert sides[0].isdisjoint({4, 5})
        assert {0, 1} <= sides[5]
        assert sides[0].isdisjoint({1, 2})

    def test_partition_is_consistent_with_edges(self):
        g = build_circle_with_tail()
        sides = mg.graph.find_bridge_sides(g)
        assert set(sides) == mg.bridges(g) == {3}
        for e, side in sides.items():
            for j, edge in enumerate(g.edges):
                if j != e:
                    assert (edge.tail in side) == (edge.head in side)

    def test_rejects_non_bridge(self):
        # only bridges have sides
        assert mg.graph.find_bridge_sides(build_circle()) == {}
        assert set(mg.graph.find_bridge_sides(build_two_bridges())) == {0, 5}


class TestDistances:
    # the test-local shortest paths that the Rayleigh bound r <= d reads

    def test_two_bridges(self):
        g = build_two_bridges()
        assert shortest_distance(g, 0, 5) == 4
        assert shortest_distance(g, 0, 4) == 3
        assert shortest_distance(g, 2, 3) == 2

    def test_circle_takes_shorter_arc(self):
        g = build_circle()
        assert shortest_distance(g, 0, 2) == Fraction(1, 2)
        assert shortest_distance(g, 1, 2) == 1

    def test_symmetric_and_zero_on_diagonal(self):
        g = build_banana()
        for u in range(g.n_vertices):
            assert shortest_distance(g, u, u) == 0
            for v in range(g.n_vertices):
                assert shortest_distance(g, u, v) == shortest_distance(g, v, u)


def closest_neighbours(g, i, j):
    """The endpoints of bridges i and j at minimal distance, read off the
    connectivity code of (i, j): its tens digit is the end of i facing j and
    its units digit the end of j facing i, each 0 for the tail, 1 for the
    head."""
    code = mg.connectivity_matrix(g).entry(i, j)
    ei, ej = g.edges[i], g.edges[j]
    return (ei.head if code // 10 % 10 else ei.tail), (ej.head if code % 10 else ej.tail)


class TestClosestNeighbours:
    def test_two_bridges(self):
        g = build_two_bridges()
        assert closest_neighbours(g, 0, 5) == (1, 4)
        assert closest_neighbours(g, 5, 0) == (4, 1)

    def test_sharing_a_vertex(self):
        g = mg.MetrizedGraph(
            ("a", "b", "c"), (mg.Edge(0, 1, 1), mg.Edge(1, 2, 1))
        )
        assert closest_neighbours(g, 0, 1) == (1, 1)

    def test_agrees_with_bridge_sides(self):
        # the closest endpoint of a bridge is the one facing the other bridge
        g = build_two_bridges()
        sides = mg.graph.find_bridge_sides(g)
        for i, j in ((0, 5), (5, 0)):
            xi, xj = closest_neighbours(g, i, j)
            facing_head = g.edges[j].tail not in sides[i]
            assert xi == (g.edges[i].head if facing_head else g.edges[i].tail)
            assert shortest_distance(g, xi, xj) == min(
                shortest_distance(g, a, b)
                for a in (g.edges[i].tail, g.edges[i].head)
                for b in (g.edges[j].tail, g.edges[j].head)
            )


class TestCanonicalDivisor:
    def test_banana(self):
        divisor, polarized = mg.canonical_divisor(build_banana())
        assert divisor.coefficients == (1, 1, 0, 0)
        assert polarized

    def test_circle_is_zero(self):
        divisor, polarized = mg.canonical_divisor(build_circle())
        assert divisor.coefficients == (0, 0, 0)
        assert polarized

    def test_circle_with_tail_and_genus(self):
        divisor, polarized = mg.canonical_divisor(
            build_circle_with_tail(), {2: 1, 3: 1}
        )
        assert divisor.coefficients == (0, 0, 3, 1)
        assert polarized

    def test_pendant_vertex_breaks_effectivity(self):
        divisor, polarized = mg.canonical_divisor(build_circle_with_tail())
        assert divisor.coefficients == (0, 0, 1, -1)
        assert not polarized

    def test_negative_genus_not_polarized(self):
        _, polarized = mg.canonical_divisor(build_circle(), {0: -1})
        assert not polarized

    def test_genus_list_length_checked(self):
        with pytest.raises(mg.MetgraphError):
            mg.canonical_divisor(build_circle(), [0, 0])

    @pytest.mark.parametrize(
        "genus,shown",
        [([0.7, 0, 0], "0.7"), ([True, 0, 0], "True"), ({0: "2"}, "'2'")],
        ids=["float", "bool", "string"],
    )
    def test_genus_that_is_not_an_int_rejected(self, genus, shown):
        with pytest.raises(mg.MetgraphError, match=f"genus must be an integer, got {shown}$"):
            mg.canonical_divisor(build_circle(), genus)

    @pytest.mark.parametrize("key", [5, -1, True, "0"])
    def test_genus_key_outside_the_vertices_rejected(self, key):
        with pytest.raises(mg.MetgraphError, match="is not a vertex index in 0..2"):
            mg.canonical_divisor(build_circle(), {key: 3})


class TestDivisor:
    def test_degree_and_support(self):
        d = mg.Divisor((1, 0, -2, 3))
        assert d.degree == 2
        assert len(d) == 4
        assert d[3] == 3

    @pytest.mark.parametrize(
        "k", [True, False, -1, 4, 1.0], ids=["true", "false", "negative", "past-end", "float"]
    )
    def test_index_is_a_vertex(self, k):
        # a bool is no index, and a negative one does not count from the end
        with pytest.raises(IndexError, match="vertex index"):
            mg.Divisor((1, 0, -2, 3))[k]

    def test_zero(self):
        assert mg.Divisor.zero(3).coefficients == (0, 0, 0)

    def test_non_integer_rejected(self):
        with pytest.raises(mg.MetgraphError):
            mg.Divisor((Fraction(1, 2),))

    @pytest.mark.parametrize(
        "coefficient",
        ["x", None, 1.0, True, Fraction(2)],
        ids=["string", "none", "float", "bool", "fraction"],
    )
    def test_coefficient_must_be_an_int(self, coefficient):
        with pytest.raises(mg.MetgraphError, match="must be integers"):
            mg.Divisor((1, coefficient))


class TestPoints:
    def test_validate_point(self):
        g = build_circle()
        pt = mg.validate_point(g, (1, "1/3"))
        assert pt == mg.GraphPoint(1, Fraction(1, 3))
        # both ends and the points next to them are on edge 1, of length 1
        big = 10**30
        for offset in (0, 1, "1", Fraction(1, big), Fraction(big - 1, big)):
            assert mg.validate_point(g, (1, offset)).offset == Fraction(offset)

    def test_graph_point_with_a_fraction_offset_is_returned_as_it_is(self):
        g = build_circle()
        pt = mg.GraphPoint(1, Fraction(1, 3))
        assert mg.validate_point(g, pt) is pt
        rebuilt = mg.validate_point(g, mg.GraphPoint(1, "1/3"))
        assert rebuilt == pt and type(rebuilt.offset) is Fraction

    @pytest.mark.parametrize(
        "pt",
        [(0, 1, 2), (0,), "0:1/2", 5, None],
        ids=["three-tuple", "one-tuple", "string", "int", "none"],
    )
    def test_point_that_is_not_an_edge_offset_pair(self, pt):
        g = build_circle()
        with pytest.raises(mg.PointOutOfRange, match=r"a point is an \(edge, offset\) pair"):
            mg.validate_point(g, pt)
        with pytest.raises(mg.PointOutOfRange):
            mg.resistance_point(g, (0, 0), pt)

    def test_out_of_range(self):
        g = build_circle()
        with pytest.raises(mg.PointOutOfRange):
            mg.validate_point(g, (0, Fraction(2, 3)))
        with pytest.raises(mg.PointOutOfRange):
            mg.validate_point(g, (7, 0))
        with pytest.raises(mg.PointOutOfRange):
            mg.validate_point(g, (0, Fraction(-1, 5)))
        big = 10**30
        for offset in (Fraction(big + 1, big), Fraction(-1, big), -1, "-1/3", 2):
            with pytest.raises(mg.PointOutOfRange, match=r"offset \S+ outside \[0, 1\] on edge 1"):
                mg.validate_point(g, (1, offset))

    @pytest.mark.parametrize("offset", ["1e-1", "0.25", "1/0"])
    def test_offset_string_must_be_an_integer_or_a_ratio(self, offset):
        with pytest.raises(mg.MetgraphError, match="offset on edge 1"):
            mg.validate_point(build_circle(), (1, offset))

    def test_float_offset_rejected(self):
        with pytest.raises(mg.MetgraphError, match="offset on edge 1"):
            mg.validate_point(build_circle(), (1, 0.25))
        with pytest.raises(mg.MetgraphError, match="offset on edge 0"):
            mg.resistance_point(build_circle(), (0, 0.05), (0, 0))

    def test_bool_offset_rejected(self):
        g = build_circle()
        for flag in (True, False):
            with pytest.raises(mg.MetgraphError, match="offset on edge 1: expected"):
                mg.validate_point(g, (1, flag))
            with pytest.raises(mg.MetgraphError, match="offset on edge 0: expected"):
                mg.resistance_point(g, (0, flag), (0, 0))

    def test_bool_edge_index_rejected(self):
        g = build_circle()
        with pytest.raises(mg.PointOutOfRange):
            mg.validate_point(g, (True, Fraction(1, 2)))
        with pytest.raises(mg.PointOutOfRange):
            mg.resistance_point(g, (True, Fraction(1, 2)), (False, 0))

    # every hostile point gets, from validate_point, vertex_at and the three
    # point queries in either argument, the error and message frozen from
    # the implementation that validated each point apart from reading its
    # integers; a float offset is refused as a MetgraphError by as_fraction
    @pytest.mark.parametrize(
        "pt, error, message",
        [
            ((True, Fraction(0)), mg.PointOutOfRange, "edge index True outside 0..2"),
            ((-1, Fraction(0)), mg.PointOutOfRange, "edge index -1 outside 0..2"),
            ((3, Fraction(0)), mg.PointOutOfRange, "edge index 3 outside 0..2"),
            (
                (0, 0.5),
                mg.MetgraphError,
                "offset on edge 0: expected an integer, a Fraction or 'p/q', got 0.5",
            ),
            ((0, Fraction(-1, 3)), mg.PointOutOfRange, "offset -1/3 outside [0, 1/2] on edge 0"),
            (
                (0, Fraction(1, 2) + Fraction(1, 10**6)),
                mg.PointOutOfRange,
                "offset 500001/1000000 outside [0, 1/2] on edge 0",
            ),
            ((0, 1, 2), mg.PointOutOfRange, "a point is an (edge, offset) pair, got (0, 1, 2)"),
            ((0,), mg.PointOutOfRange, "a point is an (edge, offset) pair, got (0,)"),
            ("0:1/2", mg.PointOutOfRange, "a point is an (edge, offset) pair, got '0:1/2'"),
            (5, mg.PointOutOfRange, "a point is an (edge, offset) pair, got 5"),
            (None, mg.PointOutOfRange, "a point is an (edge, offset) pair, got None"),
        ],
        ids=[
            "bool-edge", "negative-edge", "past-the-end-edge", "float-offset",
            "negative-offset", "offset-past-the-length", "three-tuple", "one-tuple",
            "string", "int", "none",
        ],
    )
    def test_hostile_point_gets_one_error_from_every_entry(self, pt, error, message):
        g, d = build_circle(), mg.Divisor((1, 0, 0))
        good = mg.GraphPoint(1, Fraction(1, 3))
        calls = [
            lambda: mg.validate_point(g, pt),
            lambda: mg.vertex_at(g, pt),
            lambda: mg.evaluate_green(g, d, pt, good),
            lambda: mg.evaluate_green(g, d, good, pt),
            lambda: mg.resistance_point(g, pt, good),
            lambda: mg.resistance_point(g, good, pt),
            lambda: mg.resistance_to_divisor(g, d, pt),
        ]
        for call in calls:
            with pytest.raises(mg.MetgraphError) as raised:
                call()
            assert type(raised.value) is error and str(raised.value) == message

    def test_length_pairs_are_rebuilt_with_the_graph(self):
        # the (p, q) of each edge length, which the point check reads, is
        # made by the constructor, which every copy and derived graph runs
        g = build_circle()
        copies = [
            (g, ((1, 2), (1, 1), (1, 2))),
            (copy.copy(g), ((1, 2), (1, 1), (1, 2))),
            (copy.deepcopy(g), ((1, 2), (1, 1), (1, 2))),
            (pickle.loads(pickle.dumps(g)), ((1, 2), (1, 1), (1, 2))),
            (scaled_graph(g, "2/3"), ((1, 3), (2, 3), (1, 3))),
            (edge_reversed(g, 1), ((1, 2), (1, 1), (1, 2))),
        ]
        for h, lengths in copies:
            assert h._lengths == lengths
            for i, (p, q) in enumerate(lengths):
                end = Fraction(p, q)
                assert mg.vertex_at(h, (i, end)) == h.edges[i].head
                assert mg.validate_point(h, (i, end)).offset == end
                with pytest.raises(mg.PointOutOfRange, match="outside"):
                    mg.validate_point(h, (i, end + Fraction(1, 10**6)))

    def test_vertex_at(self):
        g = build_circle()
        assert mg.vertex_at(g, mg.GraphPoint(0, Fraction(0))) == 1
        assert mg.vertex_at(g, mg.GraphPoint(0, Fraction(1, 2))) == 0
        assert mg.vertex_at(g, mg.GraphPoint(0, Fraction(1, 4))) is None

    def test_representations(self):
        g = build_circle()
        reps = representations(g, 0)
        assert reps == (
            mg.GraphPoint(0, Fraction(1, 2)),
            mg.GraphPoint(2, Fraction(0)),
        )
        assert mg.point_of_vertex(g, 0) == reps[0]

    def test_point_of_vertex_is_the_first_representation(self):
        graphs = [g for _, g, _ in standing_graphs()] + [build_raw_banana(), build_loop()]
        for g in graphs:
            for v in range(g.n_vertices):
                assert mg.point_of_vertex(g, v) == representations(g, v)[0]
        with pytest.raises(mg.MetgraphError, match="vertex index 3"):
            mg.point_of_vertex(build_circle(), 3)


# Every public call that takes a vertex or edge index, with the index in
# one place; a bool or a non-int must raise MetgraphError rather than
# compare in range (True as 1) or fail inside the call with a bare TypeError.
INDEX_CALLS = {
    "valence": lambda g, d, k: g.valence(k),
    "r_D_on_edge": lambda g, d, k: mg.r_D_on_edge(g, d, k),
    "point_of_vertex": lambda g, d, k: mg.point_of_vertex(g, k),
    "epsilon_via_green": lambda g, d, k: mg.epsilon_via_green(g, d, base=k),
    "ValueMatrix.entry": lambda g, d, k: mg.value_matrix(g, d).entry(0, k),
    "ConnectivityMatrix.entry": lambda g, d, k: mg.connectivity_matrix(g).entry(k, 0),
}


@pytest.mark.parametrize("call", INDEX_CALLS.values(), ids=INDEX_CALLS)
def test_index_must_be_an_int(call):
    g = build_tesseract()
    d = mg.Divisor((1,) + (0,) * (g.n_vertices - 1))
    call(g, d, 1)
    for index in (True, False, 1.0, "1"):
        with pytest.raises(mg.MetgraphError, match=f"{index!r}"):
            call(g, d, index)


class TestConnectivityMatrix:
    def test_two_bridges_golden(self, two_bridges):
        assert mg.connectivity_matrix(two_bridges).entries == (
            (1, 1, 1, 1, 1, 110),
            (1, 0, 0, 0, 0, 0),
            (1, 0, 0, 0, 0, 0),
            (1, 0, 0, 0, 0, 0),
            (1, 0, 0, 0, 0, 0),
            (1, 0, 0, 0, 0, 1),
        )

    def test_circle_all_zero(self, circle):
        assert mg.connectivity_matrix(circle).entries == ((0,) * 3,) * 3

    def test_segment(self, segment):
        assert mg.connectivity_matrix(segment).entries == ((1,),)

    def test_pendant_edge(self):
        g = build_circle_with_tail()
        codes = mg.connectivity_matrix(g).entries
        assert codes[3][3] == 1
        for j in range(3):
            assert codes[3][j] == 0
            assert codes[j][3] == 0
            assert codes[j][j] == 0

    def test_requires_adequate(self):
        with pytest.raises(mg.NotAdequate):
            mg.connectivity_matrix(build_raw_banana())

    def test_entry_bounds(self, circle):
        with pytest.raises(mg.MetgraphError):
            mg.connectivity_matrix(circle).entry(0, 3)

    def test_codes_are_frozen(self):
        cases = [
            (f"tree {seed}", tree_plus_chords(seed)) for seed in range(40)
        ] + [(name, g) for name, g, _ in standing_graphs()]
        digest = hashlib.sha256()
        seen = set()
        for name, g in cases:
            digest.update(name.encode())
            for row in mg.connectivity_matrix(g).entries:
                seen.update(row)
                digest.update(b"\n" + " ".join(map(str, row)).encode())
        assert seen <= {0, 1, 110, 111}
        assert digest.hexdigest() == FROZEN_CONNECTIVITY_DIGEST


# sha256 of every connectivity code, frozen from the implementation that
# built each entry as an object with a kind, a side and a neighbour pair.
FROZEN_CONNECTIVITY_DIGEST = "37553302a75a6018cb50d29bf588ae240a1d089fd02209a75a2fa6735ae6a802"


def tree_plus_chords(seed: int) -> mg.MetrizedGraph:
    """A seeded random tree with a few chords, its edges oriented at random."""
    rng = random.Random(seed)
    n = rng.randint(4, 12)
    pairs = [(rng.randrange(v), v) for v in range(1, n)]
    missing = [(u, v) for v in range(n) for u in range(v) if (u, v) not in pairs]
    pairs += rng.sample(missing, min(len(missing), rng.randint(0, 3)))
    palette = ("1", "2", "1/2", "3/2")
    edges = []
    for u, v in pairs:
        tail, head = (u, v) if rng.random() < 0.5 else (v, u)
        edges.append(mg.Edge(tail, head, Fraction(rng.choice(palette))))
    return mg.MetrizedGraph(tuple(f"v{k}" for k in range(n)), tuple(edges))

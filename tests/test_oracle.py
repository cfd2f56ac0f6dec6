"""Subdivision machinery and oracle agreement with the closed forms."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

import metgraph as mg
from conftest import (
    build_circle,
    build_segment,
    build_tesseract,
    build_two_bridges,
    edge_reversed,
    load_pairs,
    mutant,
    sample_points,
    vertex_resistance,
)

F = Fraction

ROOT = Path(__file__).resolve().parent.parent


class TestSubdivide:
    def test_segment_single_cut(self):
        g = build_segment()
        sub = mg.subdivide_at_points(g, [(0, F(1, 3))])
        assert sub.graph.n_vertices == 3
        assert sub.graph.n_edges == 2
        assert sub.graph.total_length == 1
        assert sub.vertex_index((0, F(1, 3))) == 2
        assert sub.vertex_index((0, F(0))) == 0
        assert sub.vertex_index((0, F(1))) == 1

    def test_circle_cut_preserves_vertex_resistances(self):
        g = build_circle()
        sub = mg.subdivide_at_points(g, [(1, F(1, 2))])
        assert sub.graph.n_vertices == 4
        assert sub.graph.total_length == 2
        for p in range(3):
            for q in range(3):
                assert vertex_resistance(g, p, q) == vertex_resistance(
                    sub.graph, p, q
                )

    def test_no_points_is_identity(self):
        g = build_circle()
        sub = mg.subdivide_at_points(g, [])
        assert sub.graph == g

    def test_vertex_points_cause_no_cut(self):
        g = build_circle()
        sub = mg.subdivide_at_points(g, [(0, F(0)), (0, F(1, 2)), (1, F(1))])
        assert sub.graph == g

    def test_duplicate_points_collapse(self):
        g = build_segment()
        sub = mg.subdivide_at_points(g, [(0, F(1, 2)), (0, F(1, 2))])
        assert sub.graph.n_vertices == 3

    def test_interior_point_is_not_a_vertex_of_refinement(self):
        g = build_segment()
        sub = mg.subdivide_at_points(g, [(0, F(1, 2))])
        with pytest.raises(mg.PointOutOfRange):
            sub.vertex_index((0, F(1, 4)))

    def test_repairs_inadequate_input(self):
        loop = mg.MetrizedGraph(("p0",), (mg.Edge(0, 0, F(3)),))
        sub = mg.subdivide_at_points(loop, [(0, F(1, 2))])
        assert mg.validate_adequate(sub.graph)
        assert sub.graph.total_length == 3
        v = sub.vertex_index((0, F(1, 2)))
        assert sub.graph.valence(v) == 2

    def test_points_on_the_adequacy_cuts(self):
        # a loop at p0 and a parallel pair p0-p1: the points sit exactly where
        # make_adequate cuts, a loop third and the later parallel's midpoint
        g = mg.MetrizedGraph(
            ("p0", "p1"),
            (mg.Edge(0, 0, F(3)), mg.Edge(0, 1, F(1)), mg.Edge(1, 0, F(2))),
        )
        divisor = mg.Divisor((1, 2))
        refined, relabel = mg.make_adequate(g)
        lifted = mg.Divisor(
            divisor.coefficients + (0,) * (refined.n_vertices - g.n_vertices)
        )
        third, midpoint, inner = (0, F(1)), (2, F(1)), (1, F(1, 3))
        sub = mg.subdivide_at_points(g, [third, midpoint])
        assert sub.graph == refined
        pairs = [(third, midpoint), (midpoint, third), (third, inner), (inner, midpoint)]
        for x, y in pairs:
            rx, ry = relabel.point(x), relabel.point(y)
            assert mg.oracle_resistance(g, x, y) == mg.resistance_point(refined, rx, ry)
            assert mg.oracle_green(g, divisor, x, y) == mg.evaluate_green(
                refined, lifted, rx, ry
            )

    def test_uncut_edges_are_kept_as_they_are(self):
        g = build_tesseract()
        sub = mg.subdivide_at_points(g, [(3, F(1, 2)), (0, F(0))])
        kept = sub.graph.edges[:3] + sub.graph.edges[5:]
        assert len(kept) == g.n_edges - 1
        assert kept == g.edges[:3] + g.edges[4:]
        tail, head, _ = g.edges[3]
        assert sub.graph.edges[3:5] == (mg.Edge(tail, 16, F(1, 2)), mg.Edge(16, head, F(1, 2)))
        assert sub.relabeling.point(mg.GraphPoint(2, F(1, 3))) == (2, F(1, 3))
        assert sub.relabeling.point(mg.GraphPoint(4, F(1))) == (5, F(1))
        assert sub.relabeling.point(mg.GraphPoint(3, F(3, 4))) == (4, F(1, 4))

    def test_lift_divisor(self):
        g = build_circle()
        sub = mg.subdivide_at_points(g, [(1, F(1, 2))])
        lifted = sub.lift_divisor(mg.Divisor((0, 2, 0)))
        assert lifted.coefficients == (0, 2, 0, 0)


class TestOracleAgreement:
    def test_fixture_pairs_spot_check(self, standing):
        name, g, divisor = standing
        for x, y in load_pairs(name)[::5]:
            assert mg.resistance_point(g, x, y) == mg.oracle_resistance(g, x, y)
            assert mg.evaluate_green(g, divisor, x, y) == mg.oracle_green(
                g, divisor, x, y
            )

    @pytest.mark.parametrize(
        "reversed_edges", [(), (0,), (5,), (0, 5)], ids=["none", "0", "5", "both"]
    )
    def test_two_bridges_every_orientation(self, reversed_edges):
        # edges 0 and 5 are the bridges; the frozen pairs pin one orientation
        g = build_two_bridges()
        divisor = mg.Divisor((1, 0, 0, 0, 0, 2))
        for i in reversed_edges:
            g = edge_reversed(g, i)

        def mirror(pt):
            if pt.edge in reversed_edges:
                return mg.GraphPoint(pt.edge, g.edges[pt.edge].length - pt.offset)
            return pt

        # the frozen pairs never put both points on bridges, so add pairs that do
        across = [
            (mg.GraphPoint(0, F(1, 3)), mg.GraphPoint(5, F(3, 4))),
            (mg.GraphPoint(5, F(2, 7)), mg.GraphPoint(0, F(5, 6))),
            (mg.GraphPoint(0, F(1, 5)), mg.GraphPoint(0, F(4, 5))),
            (mg.GraphPoint(5, F(1, 9)), mg.GraphPoint(5, F(1, 2))),
        ]
        for x, y in load_pairs("two_bridges") + across:
            x, y = mirror(x), mirror(y)
            assert mg.resistance_point(g, x, y) == mg.oracle_resistance(g, x, y)
            assert mg.evaluate_green(g, divisor, x, y) == mg.oracle_green(
                g, divisor, x, y
            )
            r_d = sum(
                a * mg.oracle_resistance(g, mg.point_of_vertex(g, k), x)
                for k, a in enumerate(divisor.coefficients)
                if a
            )
            assert mg.resistance_to_divisor(g, divisor, x) == r_d

    def test_same_point_gives_zero_resistance(self, circle):
        x = mg.GraphPoint(1, F(2, 7))
        assert mg.oracle_resistance(circle, x, x) == 0

    def test_tau_subdivision_invariant(self, standing):
        _, g, _ = standing
        sub = mg.subdivide_at_points(g, sample_points(g, 10))
        assert mg.tau_constant(sub.graph) == mg.tau_constant(g)

    def test_epsilon_subdivision_invariant(self, standing):
        _, g, divisor = standing
        sub = mg.subdivide_at_points(g, sample_points(g, 10))
        lifted = sub.lift_divisor(divisor)
        assert mg.epsilon_via_resistance(sub.graph, lifted) == mg.epsilon_via_resistance(
            g, divisor
        )

    def test_oracle_green_rejects_bad_degree(self, circle):
        with pytest.raises(mg.BadDegree):
            mg.oracle_green(circle, mg.Divisor((-2, 0, 0)), (0, F(1, 4)), (1, F(1, 3)))


CLOSED_FORMS = (
    "resistance_triangle",
    "resistance_point",
    "r_D_on_edges",
    "edge_value",
    "constant_of",
    "evaluate_green",
    "build_value_matrix",
    "pair_rows",
)


class TestPairValues:
    """``oracle._pair_values``, the CLI's oracle: pairs batched into shared
    refinements of at most ``max_vertices`` vertices."""

    def test_values_are_the_per_pair_oracle(self, standing):
        name, g, d = standing
        pairs = load_pairs(name)[:10]
        pairs += [pairs[3], (pairs[0][1], pairs[0][0])]
        assert mg.oracle._pair_values(g, d, pairs, mg.cli.MAX_VERTICES) == [
            (mg.oracle_resistance(g, x, y), mg.oracle_green(g, d, x, y)) for x, y in pairs
        ]

    def test_pairs_are_read_through_the_refinement_readers(self, standing, monkeypatch):
        name, g, d = standing
        pairs = load_pairs(name)
        expected = mg.oracle._pair_values(g, d, pairs, mg.cli.MAX_VERTICES)
        calls = {"resistance": 0, "green": 0}
        for reader in calls:
            original = getattr(mg.SubdividedGraph, reader)

            def counted(self, *args, _reader=reader, _original=original):
                calls[_reader] += 1
                return _original(self, *args)

            monkeypatch.setattr(mg.SubdividedGraph, reader, counted)
        assert mg.oracle._pair_values(g, d, pairs, mg.cli.MAX_VERTICES) == expected
        assert calls == {"resistance": len(pairs), "green": len(pairs)}

    def test_pairs_with_the_same_cuts_share_a_refinement(self, monkeypatch):
        g, d = build_circle(), mg.Divisor((0, 2, 0))
        refinements, refine = [], mg.oracle.adequate_refinement

        def counted(g, cuts):
            refinements.append(cuts)
            return refine(g, cuts)

        monkeypatch.setattr(mg.oracle, "adequate_refinement", counted)
        # (1, 1/2) and (0, 1/4) in either order, and two pairs of vertices,
        # which cut nothing: two cut sets, which together make a refinement
        # of 5 vertices; under a bound of 4 the first is past the bound on
        # its own and is answered alone
        pairs = [
            ((1, F(1, 2)), (0, F(1, 4))),
            ((0, F(0)), (2, F(1, 2))),
            ((0, F(1, 4)), (1, F(1, 2))),
            ((1, F(1)), (2, F(0))),
        ]
        cuts = {1: {F(1, 2)}, 0: {F(1, 4)}}
        for bound, expected in [(100, [cuts]), (5, [cuts]), (4, [cuts, {}]), (1, [cuts, {}])]:
            refinements.clear()
            values = mg.oracle._pair_values(g, d, pairs, bound)
            assert refinements == expected
            assert values[0] == values[2]
            assert values[1][0] == vertex_resistance(g, 1, 2)

    def test_every_point_is_validated_before_any_refinement(self, monkeypatch):
        g = build_circle()
        refinements = []
        monkeypatch.setattr(mg.oracle, "adequate_refinement", lambda g, c: refinements.append(c))
        pairs = [((0, F(1, 4)), (1, F(1, 2))), ((1, F(3)), (0, F(5))), ((2, F(7)), (0, F(0)))]
        with pytest.raises(mg.PointOutOfRange, match=r"^offset 3 outside \[0, 1\] on edge 1$"):
            mg.oracle._pair_values(g, mg.Divisor.zero(3), pairs, mg.cli.MAX_VERTICES)
        assert refinements == []


def test_oracle_and_vertex_checks_call_no_closed_form(monkeypatch):
    # the oracle and both consistency checks check the closed forms, so they
    # must give the same answers with every closed form replaced by a stub
    # that raises; the value matrix the checks compare against comes first,
    # and makes its rows before the stubs go in, since ``pair_rows``, which
    # makes them, is one of the closed forms
    g, d = build_tesseract(), mg.Divisor(tuple(range(16)))
    x, y = load_pairs("tesseract")[0]
    expected_r, expected_g = mg.oracle_resistance(g, x, y), mg.oracle_green(g, d, x, y)
    assert (expected_r, expected_g) == (F(23, 36), F(94327, 803736))
    expected_tau = mg.tau_constant(g)
    mg.clear_caches()
    matrix = mg.value_matrix(g, d)
    matrix.rows

    def closed_form(*args, **kwargs):
        raise AssertionError("a closed form was called")

    for module in (mg.potential, mg.green):
        for name in CLOSED_FORMS:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, closed_form)
    assert mg.oracle_resistance(g, x, y) == expected_r
    assert mg.oracle_green(g, d, x, y) == expected_g
    assert mg.check_vertex_formula(g, d, matrix).passed
    assert mg.check_representation_independence(g, d, matrix).passed
    assert all(report.passed for report in mg.invariants._check_reports(g, d))
    assert mg.epsilon_via_resistance(g, d) == F(7875, 122)
    # tau reads only L+, so a fresh network builds no per-edge data for it
    fresh = mg.Network(g)
    assert fresh.tau == expected_tau
    assert "edges" not in fresh.__dict__


def oracle_rows(capsys, graph, points):
    """The exit status of the oracle command and its rows that differ, as
    (quantity, x, y)."""
    status = mg.cli.run(["oracle", str(graph), "--points", str(points), "--machine"])
    rows = json.loads(capsys.readouterr().out)["rows"]
    return status, {(row["quantity"], row["x"], row["y"]) for row in rows if row["diff"] != "0"}


TESSERACT_FILES = (
    ROOT / "graphs" / "tesseract.json",
    ROOT / "tests" / "data" / "oracle_points" / "tesseract.txt",
)


@pytest.fixture
def cold_caches():
    """Empty caches before and after, so no analysis built under a patch
    outlives the test."""
    mg.clear_caches()
    yield
    mg.clear_caches()


def test_a_fault_in_the_triangle_cross_term_fails_the_oracle(monkeypatch, capsys, cold_caches):
    # the x y term of r on two edges, in the one kernel that lays out both
    # the resistance triangle and the value matrix: the oracle parts from
    # resistance_point and evaluate_green on a pair whose points are inside
    # two edges, the representation check fails on the value matrix, and
    # the epsilon routes, which read neither table, still agree
    old, new = "(ai[hj] - ai[tj])", "(ai[hj] + ai[tj])"
    mutant(monkeypatch, mg.potential, "pair_rows", old, new, mg.green)
    status, differ = oracle_rows(capsys, *TESSERACT_FILES)
    assert status == 1
    assert {q for q, _, _ in differ} == {"r", "g"}
    assert {(x, y) for q, x, y in differ if q == "r"} == {(x, y) for q, x, y in differ if q == "g"}
    assert mg.cli.run(["check", str(TESSERACT_FILES[0])]) == 1
    assert "representation independence: FAIL" in capsys.readouterr().out
    assert mg.cli.run(["epsilon", str(TESSERACT_FILES[0])]) == 0
    assert "MATCH" in capsys.readouterr().out


def test_a_fault_in_the_r_D_scaling_of_evaluate_green_fails_the_oracle(
    monkeypatch, capsys, cold_caches
):
    # r_D / s in place of r_D / (2 s): only Green values part from the oracle
    old, new = "d * (sides - s * r)", "d * (2 * sides - s * r)"
    mutant(monkeypatch, mg.green, "evaluate_green", old, new, mg.cli)
    status, differ = oracle_rows(capsys, *TESSERACT_FILES)
    assert status == 1
    assert differ and {q for q, _, _ in differ} == {"g"}

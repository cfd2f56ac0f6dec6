"""Tau constant, point resistances and divisor resistance functions."""

from fractions import Fraction

import pytest

import metgraph as mg
from conftest import (
    FormContract,
    build_circle,
    build_circle_with_tail,
    build_segment,
    build_two_bridges,
    edge_form,
    pair_form,
    resistance_form,
    sample_points,
    scaled_graph,
    standing_graphs,
    vertex_resistance,
)

F = Fraction


class TestTauConstant:
    def test_goldens(self, circle, joint_circles):
        assert mg.tau_constant(circle) == F(1, 6)
        assert mg.tau_constant(joint_circles) == F(3, 4)

    def test_segment_is_quarter_length(self):
        for length in (F(1), F(5), F(2, 7)):
            assert mg.tau_constant(build_segment(length)) == length / 4

    def test_positive(self, standing):
        _, g, _ = standing
        assert mg.tau_constant(g) > 0

    def test_scales_linearly(self, standing):
        _, g, _ = standing
        tau = mg.tau_constant(g)
        for factor in (F(2), F(1, 3)):
            assert mg.tau_constant(scaled_graph(g, factor)) == factor * tau


class TestResistancePoint:
    def test_interior_against_vertex_shortcut(self, circle):
        # on edge 1 (length 1, endpoint resistance 1/2)
        x = mg.GraphPoint(1, F(1, 2))
        y = mg.GraphPoint(1, F(0))
        assert mg.resistance_point(circle, x, y) == F(3, 8)

    def test_vertices_use_pseudoinverse(self, standing):
        _, g, _ = standing
        lp = mg.pinv(g)
        for p in range(g.n_vertices):
            for q in range(g.n_vertices):
                rp = mg.point_of_vertex(g, p)
                rq = mg.point_of_vertex(g, q)
                assert mg.resistance_point(g, rp, rq) == mg.resistance_at_vertices(
                    lp, p, q
                )

    def test_vertex_index_out_of_range(self, circle):
        with pytest.raises(IndexError, match=r"vertices \(3, 0\) outside a 3-vertex matrix"):
            mg.resistance_at_vertices(mg.pinv(circle), 3, 0)

    def test_same_metric_point_gives_zero(self, circle):
        # head of edge 0 and tail of edge 2 are both the vertex p1
        assert mg.resistance_point(
            circle, mg.GraphPoint(0, F(1, 2)), mg.GraphPoint(2, F(0))
        ) == 0

    def test_segment_is_distance(self):
        g = build_segment(F(7, 3))
        assert mg.resistance_point(g, (0, F(1, 3)), (0, F(2))) == F(5, 3)

    def test_forced_through_both_bridges(self):
        g = build_two_bridges()
        # r(p1, p4) = 1: two parallel paths of length 2 through the diamond
        x = mg.GraphPoint(0, F(1, 4))
        y = mg.GraphPoint(5, F(2, 3))
        assert mg.resistance_point(g, x, y) == (1 - F(1, 4)) + 1 + F(2, 3)

    def test_symmetry(self, standing):
        _, g, _ = standing
        pts = sample_points(g, 8)
        for x in pts:
            for y in pts:
                assert mg.resistance_point(g, x, y) == mg.resistance_point(g, y, x)

    def test_vanishes_only_on_diagonal(self, standing):
        _, g, _ = standing
        pts = sample_points(g, 8)
        for x in pts:
            assert mg.resistance_point(g, x, x) == 0
            for y in pts:
                if x != y:
                    assert mg.resistance_point(g, x, y) > 0

    def test_point_validation(self, circle):
        with pytest.raises(mg.PointOutOfRange):
            mg.resistance_point(circle, (0, F(3, 4)), (1, F(0)))


class TestDivisorResistance:
    def test_circle_golden(self, circle):
        # coefficient 2 at the chosen vertex p0 (index 1), edge 0 of length 1/2
        d = mg.Divisor((0, 2, 0))
        fn = mg.r_D_on_edge(circle, d, 0)
        assert fn == edge_form(0, F(-1), F(2), F(0))

    def test_bridge_routing(self):
        g = build_two_bridges()
        d = mg.Divisor((1, 0, 0, 0, 0, 2))
        fn = mg.r_D_on_edge(g, d, 0)
        assert fn == edge_form(0, F(0), F(-1), F(6))

    def test_endpoint_values_match_vertex_sums(self, standing):
        _, g, divisor = standing
        for i, e in enumerate(g.edges):
            fn = mg.r_D_on_edge(g, divisor, i)
            for offset, vertex in ((F(0), e.tail), (e.length, e.head)):
                expected = sum(
                    a * vertex_resistance(g, k, vertex)
                    for k, a in enumerate(divisor.coefficients)
                    if a
                )
                assert fn(offset) == expected

    def test_linear_in_the_divisor(self, joint_circles):
        d1 = mg.Divisor((2, 0, 0, 0, 0))
        d2 = mg.Divisor((0, 1, 0, -1, 3))
        for i in range(joint_circles.n_edges):
            f1 = mg.r_D_on_edge(joint_circles, d1, i)
            f2 = mg.r_D_on_edge(joint_circles, d2, i)
            total = mg.Divisor(tuple(a + b for a, b in zip(d1.coefficients, d2.coefficients)))
            fs = mg.r_D_on_edge(joint_circles, total, i)
            assert (fs.a2, fs.a1, fs.a0) == (
                f1.a2 + f2.a2,
                f1.a1 + f2.a1,
                f1.a0 + f2.a0,
            )

    def test_pointwise_evaluation(self, circle):
        d = mg.Divisor((0, 2, 0))
        assert mg.resistance_to_divisor(circle, d, (0, F(1, 2))) == F(3, 4)

    def test_divisor_length_checked(self, circle):
        with pytest.raises(mg.MetgraphError):
            mg.r_D_on_edge(circle, mg.Divisor((1, 0)), 0)

    def test_matches_the_oracle(self, standing):
        # no runtime route reads r_D's denominator, so the refinement's L+,
        # which makes no closed form, checks it
        _, g, divisor = standing
        assert r_D_matches_the_oracle(g, divisor)

    def test_oracle_catches_a_doubled_denominator(self, standing, monkeypatch):
        _, g, divisor = standing
        build = mg.potential.r_D_on_edges

        def doubled(div):
            return tuple((2 * held[0], *held[1:]) for held in build(div))

        mg.clear_caches()
        monkeypatch.setattr(mg.potential, "r_D_on_edges", doubled)
        try:
            assert not r_D_matches_the_oracle(g, divisor)
        finally:
            mg.clear_caches()


def r_D_matches_the_oracle(g: mg.MetrizedGraph, divisor: mg.Divisor) -> bool:
    """``resistance_to_divisor`` at eight sample points equals
    sum_k a_k r(p_k, x) read off one refinement holding every point."""
    points = sample_points(g, 8)
    sub = mg.subdivide_at_points(g, points)
    support = [(mg.point_of_vertex(g, k), a) for k, a in enumerate(divisor.coefficients) if a]
    return all(
        mg.resistance_to_divisor(g, divisor, x)
        == sum(a * sub.resistance(pk, x) for pk, a in support)
        for x in points
    )


class TestEdgeFunctionValues(FormContract):
    """r_D forms hold integers over one denominator and compare by value."""

    cls = mg.EdgeFunction
    indices = ("edge",)
    terms = ("a2", "a1", "a0")
    at, other_at = (4,), (5,)
    call = ((F(2, 3),), F(1, 2) * F(4, 9) - F(1, 3) * F(2, 3) + F(1, 4))
    sample_repr = "EdgeFunction(edge=4, a2=Fraction(1, 2), a1=Fraction(-1, 3), a0=Fraction(1, 4))"

    @pytest.fixture
    def form(self, joint_circles):
        return mg.r_D_on_edge(joint_circles, mg.Divisor((0, 1, 0, -1, 3)), 2)


def test_edge_function_never_equals_edge_pair_function():
    # equal indices and coefficients, and still two kinds of form
    f, z = edge_form(0, 0, 0, 0), pair_form(0, 0)
    assert f.numerators == z.numerators[:3] and f.denominator == z.denominator
    assert f != z and z != f
    assert not f == z
    assert len({f, z}) == 2


class TestNormalizationConstant:
    def test_goldens(self, circle, joint_circles):
        assert mg.c_mu(circle, mg.Divisor((0, 2, 0))) == F(1, 8)
        assert mg.c_mu(joint_circles, mg.Divisor((2, 0, 0, 0, 0))) == F(9, 16)
        assert mg.c_mu(build_segment(), mg.Divisor((1, 1))) == F(1, 4)

    def test_degree_minus_two_rejected(self, circle):
        with pytest.raises(mg.BadDegree):
            mg.c_mu(circle, mg.Divisor((-2, 0, 0)))
        with pytest.raises(mg.BadDegree):
            mg.c_mu(circle, mg.Divisor((-1, -1, 0)))

    def test_zero_divisor(self, circle):
        # 8 tau / 8 = tau for the zero divisor
        assert mg.c_mu(circle, mg.Divisor.zero(3)) == mg.tau_constant(circle)


def tau_function_pair(g, divisor, i, j):
    """The tau function on edges i and j, g + r / 2: the value matrix entry
    plus half the point resistance's closed form."""
    entry = mg.value_matrix(g, divisor).entry(i, j)
    r = resistance_form(mg.network(g), i, j)
    halves = (a + b / 2 for a, b in zip(entry.coefficients(), r.coefficients()))
    return pair_form(i, j, *halves)


class TestTauFunctionPair:
    def test_circle_golden(self, circle):
        pair = tau_function_pair(circle, mg.Divisor((0, 2, 0)), 0, 0)
        # quadratic in x and in y apart, with no x y or |x - y| term
        assert (pair.cxy, pair.cabs) == (0, 0)
        assert (pair.c0, pair.cx, pair.cxx, pair.cy, pair.cyy) == (
            F(1, 24),
            F(1, 4),
            F(-1, 8),
            F(1, 4),
            F(-1, 8),
        )

    def test_segment_with_both_endpoints(self):
        g = build_segment()
        pair = tau_function_pair(g, mg.Divisor((1, 1)), 0, 0)
        assert (pair.c0, pair.cx, pair.cxx, pair.cy, pair.cyy) == (
            F(1, 4),
            F(0),
            F(0),
            F(0),
            F(0),
        )

    def test_evaluation(self, circle):
        pair = tau_function_pair(circle, mg.Divisor((0, 2, 0)), 0, 2)
        assert (pair.cxy, pair.cabs) == (0, 0)
        x, y = F(1, 3), F(1, 5)
        expected = (
            pair.c0
            + pair.cx * x
            + pair.cxx * x * x
            + pair.cy * y
            + pair.cyy * y * y
        )
        assert pair(x, y) == expected

    def test_degree_minus_two_rejected(self, circle):
        with pytest.raises(mg.BadDegree):
            tau_function_pair(circle, mg.Divisor((-2, 0, 0)), 0, 1)


class TestHomogeneity:
    def test_resistance_scales(self):
        for name, g, _ in standing_graphs():
            pts = sample_points(g, 5)
            for factor in (F(2), F(1, 3)):
                scaled = scaled_graph(g, factor)
                for x in pts:
                    for y in pts:
                        xs = mg.GraphPoint(x.edge, x.offset * factor)
                        ys = mg.GraphPoint(y.edge, y.offset * factor)
                        assert mg.resistance_point(
                            scaled, xs, ys
                        ) == factor * mg.resistance_point(g, x, y), name

"""Epsilon invariants and the two built-in consistency checks."""

import pickle
from fractions import Fraction

import pytest

import metgraph as mg
from conftest import build_banana, build_tesseract

F = Fraction


def moriwaki_value(a, b, c):
    a, b, c = F(a), F(b), F(c)
    return F(2, 27) * (a + b + c) + a * b * c / (a * b + a * c + b * c)


def closed_form_value(a, b, c):
    a, b, c = F(a), F(b), F(c)
    return (a + b + c + a * b * c / (a * b + a * c + b * c)) / 6


def corrupted_matrix(g, divisor):
    """The value matrix of ``g`` and ``divisor`` with 1/7 added to z_00's
    constant term, a new object beside the network's own."""
    matrix = mg.value_matrix(g, divisor)
    (den, c0, *rest), *first = matrix.rows[0]
    broken = (7 * den, 7 * c0 + den, *(7 * c for c in rest))
    return mg.ValueMatrix(divisor, ((broken, *first), *matrix.rows[1:]))


CHECKS = (mg.check_representation_independence, mg.check_vertex_formula)


class TestEpsilon:
    def test_tesseract_golden(self, tesseract):
        divisor = mg.Divisor(tuple(range(16)))
        assert mg.epsilon_via_green(tesseract, divisor) == F(7875, 122)
        assert mg.epsilon_via_resistance(tesseract, divisor) == F(7875, 122)

    @pytest.mark.parametrize("a,b,c", [(1, 2, 3), (2, 2, 2), (1, 1, 5)])
    def test_banana_canonical(self, a, b, c):
        g = build_banana(a, b, c)
        divisor, polarized = mg.canonical_divisor(g)
        assert polarized
        expected = closed_form_value(a, b, c)
        assert mg.epsilon_via_green(g, divisor) == expected
        assert mg.epsilon_via_resistance(g, divisor) == expected

    def test_banana_differs_from_flat_count(self):
        # the naive (2/27)-weighted formula is wrong in general ...
        for a, b, c in ((1, 2, 3), (1, 1, 5)):
            assert closed_form_value(a, b, c) != moriwaki_value(a, b, c)
        # ... but collides with the true value on the symmetric graph
        assert closed_form_value(2, 2, 2) == moriwaki_value(2, 2, 2)

    def test_methods_agree(self, standing):
        _, g, divisor = standing
        assert mg.epsilon_via_green(g, divisor) == mg.epsilon_via_resistance(g, divisor)

    def test_zero_divisor_gives_zero(self, standing):
        _, g, _ = standing
        zero = mg.Divisor.zero(g.n_vertices)
        assert mg.epsilon_via_green(g, zero) == 0
        assert mg.epsilon_via_resistance(g, zero) == 0

    def test_single_point_divisor(self, standing):
        # degree one, no self-resistance: epsilon = 4 tau / 3
        _, g, _ = standing
        one = mg.Divisor((1,) + (0,) * (g.n_vertices - 1))
        expected = 4 * mg.tau_constant(g) / 3
        assert mg.epsilon_via_resistance(g, one) == expected
        assert mg.epsilon_via_green(g, one) == expected

    def test_base_point_free(self, standing):
        _, g, divisor = standing
        values = {
            mg.epsilon_via_green(g, divisor, base=v) for v in range(g.n_vertices)
        }
        assert len(values) == 1

    def test_scales_linearly(self, standing):
        _, g, divisor = standing
        eps = mg.epsilon_via_resistance(g, divisor)
        for factor in (F(2), F(1, 3)):
            scaled = g.scaled(factor)
            assert mg.epsilon_via_resistance(scaled, divisor) == factor * eps
            assert mg.epsilon_via_green(scaled, divisor) == factor * eps

    def test_degree_minus_two_rejected(self, circle):
        bad = mg.Divisor((-2, 0, 0))
        with pytest.raises(mg.BadDegree):
            mg.epsilon_via_green(circle, bad)
        with pytest.raises(mg.BadDegree):
            mg.epsilon_via_resistance(circle, bad)


class TestConsistencyChecks:
    def test_pass_on_standing_graphs(self, standing):
        _, g, divisor = standing
        rep = mg.check_representation_independence(g, divisor)
        assert rep.passed and rep.comparisons > 0 and rep.mismatches == ()
        vf = mg.check_vertex_formula(g, divisor)
        assert vf.passed and vf.comparisons == g.n_vertices**2

    def test_comparison_count_on_circle(self, circle):
        # three valence-2 vertices, two descriptions each: 3 * 3 * 2 * 2
        rep = mg.check_representation_independence(circle, mg.Divisor.zero(3))
        assert rep.comparisons == 36

    def test_detect_corrupted_entry(self, circle):
        divisor = mg.Divisor((0, 2, 0))
        corrupted = corrupted_matrix(circle, divisor)
        rep = mg.check_representation_independence(circle, divisor, corrupted)
        assert not rep.passed
        assert all(m.got - m.expected in (F(1, 7), F(-1, 7)) for m in rep.mismatches)
        vf = mg.check_vertex_formula(circle, divisor, corrupted)
        assert not vf.passed
        assert all(m.got - m.expected == F(1, 7) for m in vf.mismatches)

    def test_report_shape(self, circle):
        rep = mg.check_vertex_formula(circle, mg.Divisor.zero(3))
        assert rep.name == "vertex formula"
        assert isinstance(rep.comparisons, int)
        assert rep.mismatches == ()

    def test_representation_check_validates_the_divisor_given_a_matrix(self, circle):
        matrix = mg.value_matrix(circle, mg.Divisor.zero(3))
        with pytest.raises(mg.MetgraphError, match="coefficients"):
            mg.check_representation_independence(circle, mg.Divisor((1, 0)), matrix)

    @pytest.mark.parametrize(
        "check", [mg.check_representation_independence, mg.check_vertex_formula]
    )
    def test_checks_reject_a_matrix_of_another_divisor(self, circle, check):
        matrix = mg.value_matrix(circle, mg.Divisor((0, 2, 0)))
        with pytest.raises(mg.MetgraphError, match="another divisor"):
            check(circle, mg.Divisor.zero(3), matrix)

    @pytest.mark.parametrize(
        "check", [mg.check_representation_independence, mg.check_vertex_formula]
    )
    def test_checks_reject_a_matrix_of_another_graph(self, circle, check):
        tesseract, divisor = build_tesseract(), mg.Divisor(tuple(range(16)))
        matrix = mg.value_matrix(circle, mg.Divisor.zero(3))
        with pytest.raises(mg.MetgraphError, match="3 edges but the graph has 32"):
            check(tesseract, divisor, matrix)


def test_vertex_formula_row_parts_are_built_once_per_divisor(monkeypatch):
    # W = sum_s a_s N[s], tau and c_mu enter every vertex row the same way
    calls = []
    build = mg.potential.vertex_formula

    def counted(div):
        calls.append(div.divisor)
        return build(div)

    monkeypatch.setattr(mg.potential, "vertex_formula", counted)
    g, divisor = build_tesseract(), mg.Divisor(tuple(range(16)))
    mg.clear_caches()
    assert all(report.passed for report in mg.invariants._check_reports(g, divisor))
    assert mg.check_vertex_formula(g, divisor).comparisons == 16 * 16
    assert calls == [divisor]
    # the zero row, from vertex 0, read off L+ alone
    numerators, den = mg.potential.green_row_at_vertices(mg.network(g).divisor(divisor), 0)
    lp = mg.pinv(g)
    row = [
        (sum(a * (lp[s, s] - lp[s, 0] - lp[s, q] + lp[0, q]) for s, a in enumerate(range(16)))
         + 4 * mg.tau_constant(g) - mg.resistance_at_vertices(lp, 0, q)) / (divisor.degree + 2)
        - mg.c_mu(g, divisor)
        for q in range(16)
    ]
    assert [F(x, den) for x in numerators] == row


class TestSharedVertexTable:
    """The network's own value matrix keeps its canonical vertex-pair values
    on its ``DivisorAnalysis``; any other matrix gets a table of its own."""

    @pytest.fixture
    def tables(self, monkeypatch):
        """The matrices ``_vertex_table`` is called on, in call order."""
        mg.clear_caches()
        called = []
        build = mg.invariants._vertex_table

        def counted(g, matrix):
            called.append(matrix)
            return build(g, matrix)

        monkeypatch.setattr(mg.invariants, "_vertex_table", counted)
        return called

    def test_both_checks_build_one_table(self, tables):
        g, divisor = build_tesseract(), mg.Divisor(tuple(range(16)))
        rep = mg.check_representation_independence(g, divisor)
        matrix = mg.value_matrix(g, divisor)
        vf = mg.check_vertex_formula(g, divisor, matrix)
        assert rep.passed and vf.passed
        assert len(tables) == 1 and tables[0] is matrix

    def test_corrupted_matrix_fails_the_same_on_a_warm_table(self, circle, tables):
        divisor = mg.Divisor((0, 2, 0))
        cold = [check(circle, divisor, corrupted_matrix(circle, divisor)) for check in CHECKS]
        mg.clear_caches()
        assert all(check(circle, divisor).passed for check in CHECKS)
        warm = [check(circle, divisor, corrupted_matrix(circle, divisor)) for check in CHECKS]
        assert not any(report.passed for report in warm)
        assert warm == cold
        # the first two tables were the corrupted copies', the third the network's
        assert [matrix is mg.value_matrix(circle, divisor) for matrix in tables] == [
            False, False, True, False, False
        ]

    def test_a_matrix_the_network_never_built_builds_none(self, monkeypatch):
        g, divisor = build_tesseract(), mg.Divisor(tuple(range(16)))
        matrix = mg.value_matrix(g, divisor)
        original = [check(g, divisor, matrix) for check in CHECKS]
        copy = pickle.loads(pickle.dumps(matrix))
        mg.clear_caches()
        built = []
        build = mg.green.build_value_matrix

        def counted(net, div):
            built.append(div)
            return build(net, div)

        monkeypatch.setattr(mg.green, "build_value_matrix", counted)
        assert [check(g, divisor, copy) for check in CHECKS] == original
        assert built == []

    def test_pickled_copy_gives_identical_reports(self, tables):
        g, divisor = build_tesseract(), mg.Divisor(tuple(range(16)))
        matrix = mg.value_matrix(g, divisor)
        copy = pickle.loads(pickle.dumps(matrix))
        assert copy == matrix and copy is not matrix
        original = [check(g, divisor, matrix) for check in CHECKS]
        copied = [check(g, divisor, copy) for check in CHECKS]
        assert copied == original and all(report.passed for report in original)
        assert [table is matrix for table in tables] == [True, False, False]

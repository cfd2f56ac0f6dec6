"""Epsilon invariants and the two built-in consistency checks."""

import pickle
import random
from fractions import Fraction
from pathlib import Path

import pytest

import metgraph as mg
from conftest import (
    build_banana,
    build_tesseract,
    load_pairs,
    mutant,
    scaled_graph,
    seeded_grid,
    standing_graphs,
)

F = Fraction
DATA = Path(__file__).parent / "data"


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
            scaled = scaled_graph(g, factor)
            assert mg.epsilon_via_resistance(scaled, divisor) == factor * eps
            assert mg.epsilon_via_green(scaled, divisor) == factor * eps

    def test_degree_minus_two_rejected(self, circle):
        bad = mg.Divisor((-2, 0, 0))
        mg.clear_caches()
        for call in (mg.c_mu, mg.epsilon_via_green, mg.epsilon_via_resistance):
            with pytest.raises(mg.BadDegree):
                call(circle, bad)
        # each refuses the degree before L+ is built
        assert "pinv" not in mg.network(circle).__dict__


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

    @pytest.mark.parametrize("check", CHECKS)
    def test_a_matrix_of_degree_minus_two_is_refused_unwalked(self, circle, monkeypatch, check):
        # the rows of a degree-1 matrix under a degree -2 divisor, which has
        # no Green function: the representation check passed them
        rows = mg.value_matrix(circle, mg.Divisor((1, 0, 0))).rows
        bad = mg.Divisor((-2, 0, 0))
        matrix = mg.ValueMatrix(bad, rows)
        mg.clear_caches()
        walked = []
        monkeypatch.setattr(mg.invariants, "_representation_report", lambda *a: walked.append(a))
        with pytest.raises(mg.BadDegree):
            check(circle, bad, matrix)
        assert walked == []
        assert "pinv" not in mg.network(circle).__dict__


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
    n = lp.rows()
    row = [
        (sum(a * (n[s][s] - n[s][0] - n[s][q] + n[0][q]) for s, a in enumerate(range(16)))
         + 4 * mg.tau_constant(g) - mg.resistance_at_vertices(lp, 0, q)) / (divisor.degree + 2)
        - mg.c_mu(g, divisor)
        for q in range(16)
    ]
    assert [F(x, den) for x in numerators] == row


class TestSharedVertexTable:
    """The representation walk fills the table of canonical vertex-pair
    values it compares against.  For the network's own value matrix, the
    ``DivisorAnalysis`` keeps the walk's report and table, so both checks
    cost one walk in either order; any other matrix is walked per check."""

    @pytest.fixture
    def walks(self, monkeypatch):
        """The matrices ``_representation_report`` walks, in call order."""
        mg.clear_caches()
        called = []
        walk = mg.invariants._representation_report

        def counted(g, matrix, table=None):
            called.append(matrix)
            return walk(g, matrix, table)

        monkeypatch.setattr(mg.invariants, "_representation_report", counted)
        return called

    def test_both_checks_build_one_table(self, walks):
        g, divisor = build_tesseract(), mg.Divisor(tuple(range(16)))
        for checks in (CHECKS, CHECKS[::-1]):
            mg.clear_caches()
            walks.clear()
            reports = [checks[0](g, divisor)]
            matrix = mg.value_matrix(g, divisor)
            reports.append(checks[1](g, divisor, matrix))
            assert all(report.passed for report in reports)
            assert len(walks) == 1 and walks[0] is matrix
            # a check run again reads what the analysis kept
            assert [check(g, divisor) for check in checks] == reports
            assert len(walks) == 1

    def test_corrupted_matrix_fails_the_same_on_a_warm_table(self, circle, walks):
        divisor = mg.Divisor((0, 2, 0))
        cold = [check(circle, divisor, corrupted_matrix(circle, divisor)) for check in CHECKS]
        mg.clear_caches()
        assert all(check(circle, divisor).passed for check in CHECKS)
        warm = [check(circle, divisor, corrupted_matrix(circle, divisor)) for check in CHECKS]
        assert not any(report.passed for report in warm)
        assert warm == cold
        # the first two walks were over the corrupted copies, the third over the network's
        assert [matrix is mg.value_matrix(circle, divisor) for matrix in walks] == [
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

    def test_pickled_copy_gives_identical_reports(self, walks):
        g, divisor = build_tesseract(), mg.Divisor(tuple(range(16)))
        matrix = mg.value_matrix(g, divisor)
        copy = pickle.loads(pickle.dumps(matrix))
        assert copy == matrix and copy is not matrix
        original = [check(g, divisor, matrix) for check in CHECKS]
        copied = [check(g, divisor, copy) for check in CHECKS]
        assert copied == original and all(report.passed for report in original)
        assert [walked is matrix for walked in walks] == [True, False, False]


# -- the checks on a mutated seeded 4x4 grid -----------------------------------
# One off-diagonal coefficient and one diagonal (cx, cy) pair are moved.  The
# mismatch lists were recorded from checks that compared every ordered vertex
# pair and evaluated every corner through a corner function of their own; the
# checks that walk one triangle and evaluate corners in one loop must report
# the same.

# the distinct (expected, got) pairs of the representation report; the
# vertex-formula report has each with expected and got swapped
V0 = ("1787568751381/275446675008", "134888701333/275446675008")
V1 = ("142196725913/1377233375040", "1519430100953/1377233375040")
V2 = ("225573019021/275446675008", "-49873655987/275446675008")
V3 = ("17857322478353/1377233375040", "1330521977873/1377233375040")
V4 = ("50686464781/275446675008", "326133139789/275446675008")
V5 = ("1201441787753/1377233375040", "-175791587287/1377233375040")
MUTATED_4X4_REPRESENTATION = [
    ("g(v0, v1) via z[0][2]", *V0),
    ("g(v0, v1) via z[0][3]", *V0),
    ("g(v0, v1) via z[1][0]", *V0),
    ("g(v0, v1) via z[1][2]", *V0),
    ("g(v0, v1) via z[1][3]", *V0),
    ("g(v0, v11) via z[0][20]", *V1),
    ("g(v0, v15) via z[0][23]", *V2),
    ("g(v0, v15) via z[1][20]", *V2),
    ("g(v0, v15) via z[1][23]", *V2),
    ("g(v1, v0) via z[0][1]", *V0),
    ("g(v1, v0) via z[2][0]", *V0),
    ("g(v1, v0) via z[2][1]", *V0),
    ("g(v1, v0) via z[3][0]", *V0),
    ("g(v1, v0) via z[3][1]", *V0),
    ("g(v1, v1) via z[0][2]", *V3),
    ("g(v1, v1) via z[0][3]", *V3),
    ("g(v1, v1) via z[2][0]", *V3),
    ("g(v1, v1) via z[2][2]", *V3),
    ("g(v1, v1) via z[2][3]", *V3),
    ("g(v1, v1) via z[3][0]", *V3),
    ("g(v1, v1) via z[3][2]", *V3),
    ("g(v1, v1) via z[3][3]", *V3),
    ("g(v1, v11) via z[0][20]", *V4),
    ("g(v1, v15) via z[0][23]", *V5),
    ("g(v1, v15) via z[2][20]", *V5),
    ("g(v1, v15) via z[2][23]", *V5),
    ("g(v1, v15) via z[3][20]", *V5),
    ("g(v1, v15) via z[3][23]", *V5),
    ("g(v11, v0) via z[20][0]", *V1),
    ("g(v11, v1) via z[20][0]", *V4),
    ("g(v15, v0) via z[20][1]", *V2),
    ("g(v15, v0) via z[23][0]", *V2),
    ("g(v15, v0) via z[23][1]", *V2),
    ("g(v15, v1) via z[20][2]", *V5),
    ("g(v15, v1) via z[20][3]", *V5),
    ("g(v15, v1) via z[23][0]", *V5),
    ("g(v15, v1) via z[23][2]", *V5),
    ("g(v15, v1) via z[23][3]", *V5),
]
MUTATED_4X4_VERTEX_FORMULA = [
    ("g(v0, v1)", *V0[::-1]),
    ("g(v0, v15)", *V2[::-1]),
    ("g(v1, v0)", *V0[::-1]),
    ("g(v1, v1)", *V3[::-1]),
    ("g(v1, v15)", *V5[::-1]),
    ("g(v15, v0)", *V2[::-1]),
    ("g(v15, v1)", *V5[::-1]),
]


def mutated_4x4():
    """The seeded 4x4 grid's value matrix with c0 of the entry holding the
    canonical descriptions of v0 and v15 moved by 1, and cx and cy of z_00
    each moved by 2."""
    g, divisor = seeded_grid(4, 0)
    matrix = mg.value_matrix(g, divisor)
    rows = [list(row) for row in matrix.rows]
    i, j = sorted(mg.point_of_vertex(g, v).edge for v in (0, 15))
    assert (i, j) == (0, 20)
    den, c0, *rest = rows[i][j - i]
    rows[i][j - i] = (den, c0 + den, *rest)
    den, c0, cx, cy, *rest = rows[0][0]
    rows[0][0] = (den, c0, cx + 2 * den, cy + 2 * den, *rest)
    return g, divisor, mg.ValueMatrix(divisor, tuple(map(tuple, rows)))


def printed(report):
    return [(m.location, str(m.expected), str(m.got)) for m in report.mismatches]


def test_mutated_grid_gives_the_pinned_mismatch_lists():
    g, divisor, matrix = mutated_4x4()
    rep = mg.check_representation_independence(g, divisor, matrix)
    assert (rep.comparisons, printed(rep)) == (2304, MUTATED_4X4_REPRESENTATION)
    vf = mg.check_vertex_formula(g, divisor, matrix)
    assert (vf.comparisons, printed(vf)) == (256, MUTATED_4X4_VERTEX_FORMULA)


# -- the vertex-formula check owns its weighted row ----------------------------


@pytest.fixture
def cold_caches():
    """Empty caches before and after, so no analysis built under a patch
    outlives the test."""
    mg.clear_caches()
    yield
    mg.clear_caches()


def test_vertex_formula_reads_no_r_D(monkeypatch, cold_caches):
    # W = sum_s a_s N[s] is summed by the vertex formula itself: with r_D
    # unreadable, b and W + diag N still come out, read off L+ alone
    def unreadable(div):
        raise AssertionError("the vertex formula read r_D")

    monkeypatch.setattr(mg.potential, "r_D_at_vertices", unreadable)
    g, divisor = build_tesseract(), mg.Divisor(tuple(range(16)))
    net = mg.Network(g)
    b, diagonal = net.divisor(divisor).vertex_formula
    lp, den = mg.pinv(g), net.pinv.denominator
    support = list(enumerate(divisor.coefficients))
    assert F(b, den) == sum(a * lp.row(s)[s] for s, a in support)
    assert [F(x, den) for x in diagonal] == [
        sum(a * lp.row(s)[q] for s, a in support) + lp.row(q)[q] for q in range(16)
    ]


def test_a_fault_in_r_D_fails_the_vertex_formula_check(monkeypatch, cold_caches):
    # 2 more in r_D's numerator at vertex 5 is r_D's W one less there; the
    # matrix is built from r_D and the check from its own W, so the check
    # fails at every cell of vertex 5, and the two epsilon routes part
    build = mg.potential.r_D_at_vertices

    def mutated(div):
        at = list(build(div))
        at[5] += 2
        return tuple(at)

    monkeypatch.setattr(mg.potential, "r_D_at_vertices", mutated)
    g, divisor = build_tesseract(), mg.Divisor(tuple(range(16)))
    report = mg.check_vertex_formula(g, divisor)
    assert report.comparisons == 16 * 16
    assert [m.location for m in report.mismatches] == [
        f"g(v{p}, v{q})" for p in range(16) for q in range(16) if 5 in (p, q)
    ]
    assert mg.epsilon_via_green(g, divisor) != mg.epsilon_via_resistance(g, divisor)


def test_a_fault_in_C_parts_the_two_epsilon_routes(monkeypatch, cold_caches):
    # the green route takes each g(base, p_k) from C = 4 tau / s - c_mu, and
    # the resistance route reads no C: 3 tau in place of 4 tau parts them
    mutant(monkeypatch, mg.green, "constant_of", "4 * tau.numerator * cd", "3 * tau.numerator * cd")
    g, divisor = build_tesseract(), mg.Divisor(tuple(range(16)))
    assert mg.epsilon_via_resistance(g, divisor) == F(7875, 122)
    assert mg.epsilon_via_green(g, divisor) != F(7875, 122)


# -- how many direct-formula values each reader makes ---------------------------


@pytest.fixture
def formula_values(monkeypatch):
    """The number of vertex-pair values ``green_row_at_vertices`` returns,
    through the names the check and the oracle call it by."""
    made = []
    reader = mg.potential.green_row_at_vertices

    def counted(*args):
        numerators, den = reader(*args)
        made.append(len(numerators))
        return numerators, den

    for module in (mg.invariants, mg.oracle):
        monkeypatch.setattr(module, "green_row_at_vertices", counted)
    return made


def test_vertex_formula_check_makes_one_value_per_unordered_pair(formula_values):
    g, divisor = build_tesseract(), mg.Divisor(tuple(range(16)))
    report = mg.check_vertex_formula(g, divisor)
    assert report.passed and report.comparisons == 16 * 16
    # row p makes its columns q >= p: 16 * 17 / 2 values in all
    assert formula_values == list(range(16, 0, -1))


def test_oracle_makes_one_value_per_pair(formula_values):
    g, divisor = build_tesseract(), mg.Divisor(tuple(range(16)))
    pairs = load_pairs("tesseract")
    values = mg.oracle._pair_values(g, divisor, pairs, mg.cli.MAX_VERTICES)
    assert len(values) == len(pairs)
    assert formula_values == [1] * len(pairs)


# -- c_mu and both epsilon routes against their formulas in Fractions -----------


def seeded_divisor(n, degree, seed):
    """A divisor of ``degree`` on n vertices whose coefficients, many of them
    zero, a seed draws; the last one makes up the degree."""
    rng = random.Random(seed)
    coeffs = [rng.choice((0, 0, 0, 1, -1, 2, 3, -3)) for _ in range(n - 1)]
    return mg.Divisor((*coeffs, degree - sum(coeffs)))


def reference_values(g, divisor):
    """c_mu, epsilon via resistance and epsilon via Green at every base
    vertex, each written out in Fractions over the entries of L+."""
    lp = mg.pinv(g).rows()
    n, a = g.n_vertices, divisor.coefficients
    deg, s = divisor.degree, divisor.degree + 2
    tau = mg.tau_constant(g)
    support = [k for k in range(n) if a[k]]
    r = [[lp[p][p] - 2 * lp[p][q] + lp[q][q] for q in range(n)] for p in range(n)]
    r_D = [sum((a[k] * r[k][v] for k in support), F(0)) for v in range(n)]
    c_mu = (8 * tau * (deg + 1) + sum((a[k] * r_D[k] for k in support), F(0))) / (2 * s**2)
    pairs = sum((a[k] * a[l] * r[k][l] for k in support for l in support), F(0))
    via_resistance = (4 * tau * deg + pairs) / s

    def green(p, q):
        return 4 * tau / s - c_mu + (r_D[p] + r_D[q]) / (2 * s) - r[p][q] / 2

    via_green = [s * sum((a[k] * green(p, k) for k in support), F(0)) + r_D[p] for p in range(n)]
    return c_mu, via_resistance, via_green


def exact_cases():
    for name, g, _ in standing_graphs():
        for seed, degree in enumerate((-1, 0, 1, 7)):
            yield pytest.param(g, seeded_divisor(g.n_vertices, degree, seed), id=f"{name}-degree{degree}")
    prime = mg.cli.parse_graph((DATA / "prime_ratio_8x8.json").read_text())[0]
    for name, g in (("seeded-10x10", seeded_grid(10, 0)[0]), ("prime-ratio-8x8", prime)):
        yield pytest.param(g, mg.Divisor((1,) * g.n_vertices), id=f"{name}-all-ones")


@pytest.mark.parametrize("g, divisor", exact_cases())
def test_c_mu_and_epsilon_equal_their_fraction_formulas(g, divisor):
    assert divisor.degree != -2
    c_mu, via_resistance, via_green = reference_values(g, divisor)
    assert mg.c_mu(g, divisor) == c_mu
    assert mg.epsilon_via_resistance(g, divisor) == via_resistance
    assert mg.epsilon_via_green(g, divisor) == via_green[g.edges[0].tail]
    assert [mg.epsilon_via_green(g, divisor, p) for p in range(g.n_vertices)] == via_green
    # the formulas agree with each other, as the routes must
    assert set(via_green) == {via_resistance}


"""Acceptance suite: every release-gating criterion, one PASS/FAIL line each.

Each test wraps its body in the ``criterion`` context manager from
conftest, which records a line for the terminal summary.  All comparisons
are exact rational equality; there are no tolerances anywhere.
"""

import time
from fractions import Fraction
from pathlib import Path

import metgraph as mg
from conftest import (
    build_banana,
    build_circle,
    build_joint_circles,
    build_two_bridges,
    edge_reversed,
    matmul,
    penrose_identities,
    rational_matrix,
    sample_offsets,
    sample_points,
    scaled_graph,
    standing_graphs,
)
from metgraph.cli import parse_graph
from test_oracle import load_pairs

F = Fraction

GRAPHS = Path(__file__).parent.parent / "graphs"


# ---------------------------------------------------------------------------
# criterion 1: circle with vertex order p1, p0, p2 and lengths 1/2, 1, 1/2

CIRCLE_LAPLACIAN = ((4, -2, -2), (-2, 3, -1), (-2, -1, 3))

CIRCLE_PINV = (
    (F(8, 72), F(-4, 72), F(-4, 72)),
    (F(-4, 72), F(11, 72), F(-7, 72)),
    (F(-4, 72), F(-7, 72), F(11, 72)),
)

# (c0, cx, cy, cxx, cyy, cxy, cabs) of g(x, y) for the zero divisor, with x
# on the row edge and y on the column edge.  Diagonal entries come from
# g = 1/6 - d/2 + d^2/4 at d = |x - y|; off-diagonal entries substitute the
# through-vertex distance, e.g. z20 = (x - y)^2/4 - (x - y)/4 - 1/48.
_DIAGONAL = (F(1, 6), F(0), F(0), F(1, 4), F(1, 4), F(-1, 2), F(-1, 2))
CIRCLE_ENTRIES = {
    (0, 0): _DIAGONAL,
    (1, 1): _DIAGONAL,
    (2, 2): _DIAGONAL,
    (0, 1): (F(1, 6), F(-1, 2), F(-1, 2), F(1, 4), F(1, 4), F(1, 2), F(0)),
    (1, 0): (F(1, 6), F(-1, 2), F(-1, 2), F(1, 4), F(1, 4), F(1, 2), F(0)),
    (0, 2): (F(-1, 48), F(1, 4), F(-1, 4), F(1, 4), F(1, 4), F(-1, 2), F(0)),
    (2, 0): (F(-1, 48), F(-1, 4), F(1, 4), F(1, 4), F(1, 4), F(-1, 2), F(0)),
    (1, 2): (F(-1, 48), F(-1, 4), F(-1, 4), F(1, 4), F(1, 4), F(1, 2), F(0)),
    (2, 1): (F(-1, 48), F(-1, 4), F(-1, 4), F(1, 4), F(1, 4), F(1, 2), F(0)),
}


def test_circle_closed_forms(criterion):
    with criterion(
        "circle 1/2,1,1/2: Laplacian, pseudoinverse, tau = 1/6, all nine entries"
    ):
        g = build_circle()
        assert mg.laplacian(g) == rational_matrix(CIRCLE_LAPLACIAN)
        assert mg.pinv(g) == rational_matrix(CIRCLE_PINV)
        assert mg.tau_constant(g) == F(1, 6)
        matrix = mg.value_matrix(g, mg.Divisor.zero(3))
        for (i, j), coeffs in CIRCLE_ENTRIES.items():
            assert matrix.entry(i, j).coefficients() == coeffs, (i, j)


# ---------------------------------------------------------------------------
# criterion 2: two circles of lengths l1, l2 joined at p0, divisor 2 p0.
# Expected coefficients are built from hand-derived block formulas: within
# circle i the entry at block position (r, c) is
#
#   (x^2 + y^2 - 4xy)/(4 li) + (linear form)/12 - |x-y|/2 [diagonal only]
#     + lj/48 + li * (constant)/144
#
# and across circles (x on the first, y on the second)
#
#   x^2/(4 l1) + y^2/(4 l2) - (linear form)/12 + l1*(c1)/144 + l2*(c2)/144.

M_LINEAR = (((3, 3), (5, -1), (1, 1)), ((-1, 5), (1, 1), (3, -3)), ((1, 1), (-3, 3), (-1, -1)))
M_CONSTANT = ((3, -5, -5), (-5, 19, 3), (-5, 3, 19))
W_LINEAR = (((3, 3), (3, 1), (3, -1)), ((1, 3), (1, 1), (1, -1)), ((-1, 3), (-1, 1), (-1, -1)))
W_CONSTANT_1 = ((3, 3, 3), (-5, -5, -5), (-5, -5, -5))
W_CONSTANT_2 = ((3, -5, -5), (3, -5, -5), (3, -5, -5))


def same_circle_entry(li, lj, r, c):
    ax, ay = M_LINEAR[r][c]
    return (
        lj / 48 + li * M_CONSTANT[r][c] / 144,
        F(ax, 12),
        F(ay, 12),
        F(1, 4) / li,
        F(1, 4) / li,
        F(-1) / li,
        F(-1, 2) if r == c else F(0),
    )


def cross_circle_entry(l1, l2, r, c):
    ax, ay = W_LINEAR[r][c]
    return (
        l1 * W_CONSTANT_1[r][c] / 144 + l2 * W_CONSTANT_2[r][c] / 144,
        F(-ax, 12),
        F(-ay, 12),
        F(1, 4) / l1,
        F(1, 4) / l2,
        F(0),
        F(0),
    )


def expected_joint_circle_entries(l1, l2):
    expected = {}
    for r in range(3):
        for c in range(3):
            expected[r, c] = same_circle_entry(l1, l2, r, c)
            expected[r + 3, c + 3] = same_circle_entry(l2, l1, r, c)
            c0, cx, cy, cxx, cyy, cxy, cabs = cross_circle_entry(l1, l2, r, c)
            expected[r, c + 3] = (c0, cx, cy, cxx, cyy, cxy, cabs)
            expected[c + 3, r] = (c0, cy, cx, cyy, cxx, cxy, cabs)
    return expected


def test_joint_circles_block_forms(criterion):
    with criterion("joint circles 3 and 6, D = 2p0: tau = 3/4, all 36 entries"):
        l1, l2 = F(3), F(6)
        g = build_joint_circles(l1, l2)
        assert mg.tau_constant(g) == F(3, 4)
        matrix = mg.value_matrix(g, mg.Divisor((2, 0, 0, 0, 0)))
        expected = expected_joint_circle_entries(l1, l2)
        assert len(expected) == 36
        for (i, j), coeffs in expected.items():
            assert matrix.entry(i, j).coefficients() == coeffs, (i, j)


# ---------------------------------------------------------------------------
# criterion 3: tesseract with divisor sum(k * p_k)


def test_tesseract_epsilon_and_runtime(criterion):
    with criterion("tesseract, D = sum k p_k: epsilon = 7875/122 twice, under 10 s"):
        mg.clear_caches()
        start = time.perf_counter()
        g, divisor = parse_graph((GRAPHS / "tesseract.json").read_text())
        lap = mg.laplacian(g)
        lp = mg.pinv(g)
        assert matmul(matmul(lap, lp), lap) == lap
        assert mg.tau_constant(g) > 0
        assert mg.connectivity_matrix(g).size == 32
        assert mg.value_matrix(g, divisor).size == 32
        via_green = mg.epsilon_via_green(g, divisor)
        via_resistance = mg.epsilon_via_resistance(g, divisor)
        elapsed = time.perf_counter() - start
        assert via_green == F(7875, 122)
        assert via_resistance == F(7875, 122)
        assert elapsed < 10.0, f"pipeline took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# criterion 4: banana graphs and the corrected epsilon formula


def corrected_epsilon(a, b, c):
    a, b, c = F(a), F(b), F(c)
    return (a + b + c + a * b * c / (a * b + a * c + b * c)) / 6


def flawed_epsilon(a, b, c):
    a, b, c = F(a), F(b), F(c)
    return F(2, 27) * (a + b + c) + a * b * c / (a * b + a * c + b * c)


def test_banana_epsilon_family(criterion):
    with criterion(
        "bananas (1,2,3) (2,2,2) (1,1,5): epsilon = (a+b+c+abc/(ab+ac+bc))/6"
    ):
        assert corrected_epsilon(1, 2, 3) == F(12, 11)
        for a, b, c in ((1, 2, 3), (2, 2, 2), (1, 1, 5)):
            g = build_banana(a, b, c)
            divisor, polarized = mg.canonical_divisor(g)
            assert polarized and divisor.coefficients == (1, 1, 0, 0)
            value = mg.epsilon_via_resistance(g, divisor)
            assert value == mg.epsilon_via_green(g, divisor)
            assert value == corrected_epsilon(a, b, c)
            # the older published formula disagrees except at (2,2,2)
            assert (value == flawed_epsilon(a, b, c)) == ((a, b, c) == (2, 2, 2))


# ---------------------------------------------------------------------------
# criterion 5: decimal-coded connectivity matrix of the two-bridge example

TWO_BRIDGE_CODES = (
    (1, 1, 1, 1, 1, 110),
    (1, 0, 0, 0, 0, 0),
    (1, 0, 0, 0, 0, 0),
    (1, 0, 0, 0, 0, 0),
    (1, 0, 0, 0, 0, 0),
    (1, 0, 0, 0, 0, 1),
)


def test_two_bridge_connectivity_codes(criterion):
    with criterion("two-bridge graph: 6x6 decimal-coded connectivity matrix"):
        assert mg.connectivity_matrix(build_two_bridges()).entries == TWO_BRIDGE_CODES


# ---------------------------------------------------------------------------
# criterion 6: exact property suite over the five standing graphs


def test_property_suite(criterion):
    with criterion(
        "properties on all five graphs: pseudoinverse identities, symmetry, "
        "weighted-sum constancy, zero-divisor form, checks, base independence"
    ):
        for name, g, divisor in standing_graphs():
            lap, lp = mg.laplacian(g), mg.pinv(g)
            assert penrose_identities(lap, lp), name

            matrix = mg.value_matrix(g, divisor)
            grids = [sample_offsets(e.length, 3) for e in g.edges]
            for i in range(g.n_edges):
                for j in range(g.n_edges):
                    zij, zji = matrix.entry(i, j), matrix.entry(j, i)
                    for x in grids[i]:
                        for y in grids[j]:
                            assert zij(x, y) == zji(y, x), (name, i, j)

            vertex_pts = [mg.point_of_vertex(g, k) for k in range(g.n_vertices)]
            sums = set()
            for x in sample_points(g, 20):
                total = matrix.entry(x.edge, x.edge)(x.offset, x.offset)
                for k, a in enumerate(divisor.coefficients):
                    if a:
                        y = vertex_pts[k]
                        total += a * matrix.entry(x.edge, y.edge)(x.offset, y.offset)
                sums.add(total)
            assert len(sums) == 1, name

            zero = mg.Divisor.zero(g.n_vertices)
            tau = mg.tau_constant(g)
            pts = sample_points(g, 4)
            for x in pts:
                for y in pts:
                    expected = tau - mg.resistance_point(g, x, y) / 2
                    assert mg.evaluate_green(g, zero, x, y) == expected, name

            assert mg.check_representation_independence(g, divisor, matrix).passed
            assert mg.check_vertex_formula(g, divisor, matrix).passed

            reference = mg.epsilon_via_green(g, divisor, base=0)
            for base in range(g.n_vertices):
                assert mg.epsilon_via_green(g, divisor, base=base) == reference, name


# ---------------------------------------------------------------------------
# criterion 7: fixed-pair oracle agreement and subdivision invariance


def test_oracle_suite(criterion):
    with criterion(
        "oracle on 52 frozen pairs per graph; tau/epsilon subdivision-invariant"
    ):
        for name, g, divisor in standing_graphs():
            pairs = load_pairs(name)
            assert len(pairs) >= 50, name
            for x, y in pairs:
                assert mg.resistance_point(g, x, y) == mg.oracle_resistance(g, x, y)
                assert mg.evaluate_green(g, divisor, x, y) == mg.oracle_green(
                    g, divisor, x, y
                )
            sub = mg.subdivide_at_points(g, sample_points(g, 10))
            assert mg.tau_constant(sub.graph) == mg.tau_constant(g), name
            assert mg.epsilon_via_resistance(
                sub.graph, sub.lift_divisor(divisor)
            ) == mg.epsilon_via_resistance(g, divisor), name


# ---------------------------------------------------------------------------
# criterion 8: scaling homogeneity and orientation independence


def test_transformation_suite(criterion):
    with criterion(
        "scaling by 2 and 1/3 multiplies tau, r, g, epsilon; edge reversals fix g"
    ):
        for name, g, divisor in standing_graphs():
            pts = sample_points(g, 4)
            base_tau = mg.tau_constant(g)
            base_eps = mg.epsilon_via_resistance(g, divisor)
            base_r = {(x, y): mg.resistance_point(g, x, y) for x in pts for y in pts}
            base_g = {(x, y): mg.evaluate_green(g, divisor, x, y) for x in pts for y in pts}

            for factor in (F(2), F(1, 3)):
                scaled = scaled_graph(g, factor)
                assert mg.tau_constant(scaled) == factor * base_tau, name
                assert mg.epsilon_via_resistance(scaled, divisor) == factor * base_eps
                for (x, y), value in base_r.items():
                    xs = mg.GraphPoint(x.edge, x.offset * factor)
                    ys = mg.GraphPoint(y.edge, y.offset * factor)
                    assert mg.resistance_point(scaled, xs, ys) == factor * value
                    assert mg.evaluate_green(scaled, divisor, xs, ys) == (
                        factor * base_g[x, y]
                    )

            for k in range(g.n_edges):
                flipped = edge_reversed(g, k)
                length = g.edges[k].length

                def on_flipped(p, k=k, length=length):
                    if p.edge == k:
                        return mg.GraphPoint(k, length - p.offset)
                    return p

                flip_pts = pts + [
                    mg.GraphPoint(k, length / 5),
                    mg.GraphPoint(k, length / 2),
                ]
                for x in flip_pts:
                    for y in flip_pts:
                        assert mg.evaluate_green(
                            flipped, divisor, on_flipped(x), on_flipped(y)
                        ) == mg.evaluate_green(g, divisor, x, y), (name, k)

"""Randomized invariant checks over small generated graphs.

Most graphs drawn here are connected with an adequate vertex set (no loops,
no parallel edges), so the whole pipeline applies without repair steps.
``multigraphs`` draws loops and parallel edges, which ``make_adequate``
must repair first.
"""

from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

import metgraph as mg
from conftest import sample_points

F = Fraction

LENGTHS = tuple(
    sorted({F(n, d) for n in (1, 2, 3) for d in (1, 2, 3)})
)


@st.composite
def adequate_graphs(draw) -> mg.MetrizedGraph:
    n = draw(st.integers(min_value=2, max_value=5))
    pairs = [
        (draw(st.integers(min_value=0, max_value=k - 1)), k) for k in range(1, n)
    ]
    candidates = sorted(
        {(a, b) for a in range(n) for b in range(a + 1, n)} - set(pairs)
    )
    if candidates:
        pairs += draw(
            st.lists(st.sampled_from(candidates), unique=True, max_size=2)
        )
    edges = []
    for tail, head in pairs:
        if draw(st.booleans()):
            tail, head = head, tail
        edges.append(mg.Edge(tail, head, draw(st.sampled_from(LENGTHS))))
    g = mg.MetrizedGraph(tuple(f"p{k}" for k in range(n)), tuple(edges))
    assert mg.validate_adequate(g)
    return g


@st.composite
def multigraphs(draw) -> mg.MetrizedGraph:
    """A spanning tree plus one to three loops or parallel edges."""
    n = draw(st.integers(min_value=1, max_value=4))
    pairs = [
        (draw(st.integers(min_value=0, max_value=k - 1)), k) for k in range(1, n)
    ]
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        if pairs and draw(st.booleans()):
            pairs.append(draw(st.sampled_from(pairs)))
        else:
            v = draw(st.integers(min_value=0, max_value=n - 1))
            pairs.append((v, v))
    edges = []
    for tail, head in pairs:
        if draw(st.booleans()):
            tail, head = head, tail
        edges.append(mg.Edge(tail, head, draw(st.sampled_from(LENGTHS))))
    g = mg.MetrizedGraph(tuple(f"p{k}" for k in range(n)), tuple(edges))
    assert not mg.validate_adequate(g)
    return g


@st.composite
def graph_and_divisor(draw) -> tuple[mg.MetrizedGraph, mg.Divisor]:
    g = draw(adequate_graphs())
    coeffs = draw(
        st.lists(
            st.integers(min_value=-2, max_value=3),
            min_size=g.n_vertices,
            max_size=g.n_vertices,
        )
    )
    assume(sum(coeffs) != -2)
    return g, mg.Divisor(tuple(coeffs))


# the example count and deadline come from the loaded profile (conftest.py)
common = settings()


@common
@given(adequate_graphs())
def test_pseudo_inverse_identities(g):
    lap = mg.laplacian(g)
    lp = mg.pinv(g)
    assert lap @ lp @ lap == lap
    assert lp @ lap @ lp == lp
    assert (lap @ lp).is_symmetric()
    assert lp.is_symmetric()
    assert all(s == 0 for s in lp.row_sums())


@common
@given(adequate_graphs())
def test_vertex_resistance_is_a_metric(g):
    n = g.n_vertices
    r = [[mg.vertex_resistance(g, p, q) for q in range(n)] for p in range(n)]
    for p in range(n):
        assert r[p][p] == 0
        for q in range(n):
            assert r[p][q] == r[q][p]
            if p != q:
                assert r[p][q] > 0
            for s in range(n):
                assert r[p][q] <= r[p][s] + r[s][q]


@common
@given(adequate_graphs(), st.sampled_from([F(2), F(1, 3), F(7, 5)]))
def test_tau_is_positive_and_scales_linearly(g, factor):
    tau = mg.tau_constant(g)
    assert tau > 0
    assert mg.tau_constant(g.scaled(factor)) == factor * tau


@common
@given(graph_and_divisor())
def test_consistency_checks_pass(gd):
    g, divisor = gd
    matrix = mg.value_matrix(g, divisor)
    assert mg.check_representation_independence(g, divisor, matrix).passed
    assert mg.check_vertex_formula(g, divisor, matrix).passed


@common
@given(graph_and_divisor())
def test_green_argument_swap(gd):
    g, divisor = gd
    pts = sample_points(g, 4)
    for x in pts:
        for y in pts:
            assert mg.evaluate_green(g, divisor, x, y) == mg.evaluate_green(
                g, divisor, y, x
            )


@common
@given(graph_and_divisor())
def test_epsilon_routes_agree(gd):
    g, divisor = gd
    assert mg.epsilon_via_green(g, divisor) == mg.epsilon_via_resistance(g, divisor)


@common
@given(graph_and_divisor())
def test_weighted_self_sum_is_constant(gd):
    g, divisor = gd
    values = set()
    for x in sample_points(g, 6):
        total = mg.evaluate_green(g, divisor, x, x)
        for k, a in enumerate(divisor.coefficients):
            if a:
                total += a * mg.evaluate_green(g, divisor, x, mg.point_of_vertex(g, k))
        values.add(total)
    assert len(values) == 1


@common
@given(graph_and_divisor())
def test_closed_forms_match_oracle(gd):
    g, divisor = gd
    x = mg.GraphPoint(0, g.edges[0].length / 3)
    y = mg.GraphPoint(g.n_edges - 1, g.edges[-1].length * 5 / 7)
    assert mg.resistance_point(g, x, y) == mg.oracle_resistance(g, x, y)
    assert mg.evaluate_green(g, divisor, x, y) == mg.oracle_green(g, divisor, x, y)


@common
@given(graph_and_divisor())
def test_invariants_survive_subdivision(gd):
    g, divisor = gd
    sub = mg.subdivide_at_points(g, sample_points(g, 3))
    assert mg.tau_constant(sub.graph) == mg.tau_constant(g)
    assert mg.epsilon_via_resistance(sub.graph, sub.lift_divisor(divisor)) == (
        mg.epsilon_via_resistance(g, divisor)
    )


@common
@given(multigraphs(), st.data())
def test_repaired_closed_forms_match_oracle(g, data):
    coeffs = data.draw(
        st.lists(
            st.integers(min_value=-2, max_value=3),
            min_size=g.n_vertices,
            max_size=g.n_vertices,
        )
    )
    assume(sum(coeffs) != -2)
    divisor = mg.Divisor(tuple(coeffs))
    refined, relabeling = mg.make_adequate(g)
    assert mg.validate_adequate(refined)
    lifted = mg.Divisor(divisor.coefficients + (0,) * (refined.n_vertices - g.n_vertices))
    x = mg.GraphPoint(0, g.edges[0].length / 3)
    y = mg.GraphPoint(g.n_edges - 1, g.edges[-1].length * 5 / 7)
    rx, ry = relabeling.point(x), relabeling.point(y)
    assert mg.resistance_point(refined, rx, ry) == mg.oracle_resistance(g, x, y)
    assert mg.evaluate_green(refined, lifted, rx, ry) == mg.oracle_green(g, divisor, x, y)

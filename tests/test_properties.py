"""Randomized invariant checks over small generated graphs.

Most graphs drawn here are connected with an adequate vertex set (no loops,
no parallel edges), so the whole pipeline applies without repair steps.
``multigraphs`` draws loops and parallel edges, which ``make_adequate``
must repair first.
"""

import copy
import pickle
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

import metgraph as mg
from conftest import (
    build_banana,
    build_circle,
    build_two_bridges,
    defines_pseudo_inverse,
    fraction_laplacian,
    gauss_jordan_pinv,
    is_symmetric,
    pair_form,
    penrose_identities,
    rational_matrix,
    representations,
    resistance_form,
    resistance_numerators,
    row_sums,
    sample_points,
    scaled_graph,
    seeded_grid,
    trace,
    vertex_resistance,
    voltage,
)

F = Fraction

LENGTHS = tuple(
    sorted({F(n, d) for n in (1, 2, 3) for d in (1, 2, 3)})
)
# ratios of three-digit primes: L+ and every entry then hold wide operands
WIDE_PRIMES = (101, 103, 107, 109, 113)
WIDE_LENGTHS = tuple(sorted({F(p, q) for p in WIDE_PRIMES for q in WIDE_PRIMES if p != q}))


@st.composite
def adequate_graphs(draw, lengths=LENGTHS) -> mg.MetrizedGraph:
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
        edges.append(mg.Edge(tail, head, draw(st.sampled_from(lengths))))
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
def graph_and_divisor(draw, lengths=LENGTHS) -> tuple[mg.MetrizedGraph, mg.Divisor]:
    g = draw(adequate_graphs(lengths))
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
    assert penrose_identities(lap, lp)
    assert is_symmetric(lp)
    assert all(s == 0 for s in row_sums(lp))


@common
@given(adequate_graphs())
def test_vertex_resistance_is_a_metric(g):
    n = g.n_vertices
    r = [[vertex_resistance(g, p, q) for q in range(n)] for p in range(n)]
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
    assert mg.tau_constant(scaled_graph(g, factor)) == factor * tau


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


@st.composite
def rational_length_graphs(draw) -> mg.MetrizedGraph:
    """An adequate graph or a multigraph whose lengths are drawn afresh,
    as ratios whose numerators and denominators often share primes."""
    g = draw(st.one_of(adequate_graphs(), multigraphs()))
    lengths = st.fractions(min_value=F(1, 360), max_value=360, max_denominator=360)
    edges = tuple(mg.Edge(e.tail, e.head, draw(lengths)) for e in g.edges)
    return mg.MetrizedGraph(g.vertices, edges)


@common
@given(rational_length_graphs())
def test_integer_laplacian_matches_fraction_build(g):
    # over the lcm s of the length numerators the Laplacian needs no
    # reduction: no prime of s divides every entry
    refined, _ = mg.make_adequate(g)
    lap = mg.linalg.laplacian_matrix(refined)
    assert gcd(lap.denominator, *(x for row in lap.numerators for x in row)) == 1
    assert lap == fraction_laplacian(refined)


def relabelled(lap: mg.RationalMatrix, perm: list[int]) -> mg.RationalMatrix:
    """P M P^T for the permutation matrix P taking vertex perm[v] to v."""
    return rational_matrix([[lap.row(p)[q] for q in perm] for p in perm])


@common
@given(st.one_of(adequate_graphs(), multigraphs()))
def test_pseudo_inverse_matches_gauss_jordan_and_definition(g):
    refined, _ = mg.make_adequate(g)
    lap = mg.linalg.laplacian_matrix(refined)
    lplus = mg.pseudo_inverse(lap)
    assert lplus == gauss_jordan_pinv(lap)
    assert defines_pseudo_inverse(lap, lplus)


@common
@given(st.one_of(adequate_graphs(), multigraphs()), st.data())
def test_relabelled_laplacian_gives_the_relabelled_pseudo_inverse(g, data):
    # a relabelling changes the elimination order and the grounded vertex,
    # never the result
    refined, _ = mg.make_adequate(g)
    lap = mg.linalg.laplacian_matrix(refined)
    perm = data.draw(st.permutations(range(refined.n_vertices)))
    assert mg.pseudo_inverse(relabelled(lap, perm)) == relabelled(mg.pseudo_inverse(lap), perm)


@common
@given(adequate_graphs(), multigraphs(), st.data())
def test_disjoint_union_is_singular(g, h, data):
    # the two components interleaved in any vertex order
    g, _ = mg.make_adequate(g)
    h, _ = mg.make_adequate(h)
    a, b = mg.linalg.laplacian_matrix(g), mg.linalg.laplacian_matrix(h)
    n = g.n_vertices + h.n_vertices
    union = rational_matrix(
        [[*a.row(i), *[F(0)] * h.n_vertices] for i in range(g.n_vertices)]
        + [[*[F(0)] * g.n_vertices, *b.row(i)] for i in range(h.n_vertices)]
    )
    perm = data.draw(st.permutations(range(n)))
    with pytest.raises(mg.SingularShift):
        mg.pseudo_inverse(relabelled(union, perm))


# -- reference for the integer kernel ------------------------------------------
# The value matrix and the resistance forms are built in integers over the
# common denominator of L+.  These are the Fraction formulas they replaced,
# read off L+ and tau alone, so the kernel is checked against an independent
# derivation of every coefficient.


def reference_edge(lp, e):
    a = tuple(x - y for x, y in zip(lp[e.tail], lp[e.head]))
    r = a[e.tail] - a[e.head]
    return e.tail, e.head, e.length, r, (e.length - r) / e.length**2, a


def reference_resistance_form(g, i, j):
    lp = mg.pinv(g).rows()
    ti, hi, li, _, wi, ai = reference_edge(lp, g.edges[i])
    if i == j:
        return (F(0), F(0), F(0), -wi, -wi, 2 * wi, F(1))
    tj, hj, lj, _, wj, aj = reference_edge(lp, g.edges[j])
    return (
        lp[ti][ti] - 2 * lp[ti][tj] + lp[tj][tj],
        (li - 2 * (ai[ti] - ai[tj])) / li,
        (lj - 2 * (aj[tj] - aj[ti])) / lj,
        -wi,
        -wj,
        2 * (ai[hj] - ai[tj]) / (li * lj),
        F(0),
    )


def reference_tau_halves(g, divisor):
    """tau's constant 4 tau / (deg + 2) - c_mu, and per edge r_D / 2 (deg + 2)
    as (a2, a1, a0)."""
    lp = mg.pinv(g).rows()
    deg, scale = divisor.degree, divisor.degree + 2
    at = [
        sum(
            (a * (lp[k][k] - 2 * lp[k][v] + lp[v][v]) for k, a in enumerate(divisor.coefficients)),
            F(0),
        )
        for v in range(g.n_vertices)
    ]
    pairs = sum((a * at[k] for k, a in enumerate(divisor.coefficients)), F(0))
    tau = mg.tau_constant(g)
    c = (8 * tau * (deg + 1) + pairs) / (2 * scale**2)
    halves = []
    for e in g.edges:
        t, h, length, r, w, _ = reference_edge(lp, e)
        a1 = (deg * (length - r) + at[h] - at[t]) / length
        halves.append((-deg * w / (2 * scale), a1 / (2 * scale), at[t] / (2 * scale)))
    return 4 * tau / scale - c, halves


def reference_entry(g, divisor, shift, halves, i, j):
    (ai2, ai1, ai0), (aj2, aj1, aj0) = halves[i], halves[j]
    tau = (shift + ai0 + aj0, ai1, aj1, ai2, aj2, F(0), F(0))
    r = reference_resistance_form(g, i, j)
    return tuple(t - c / 2 for t, c in zip(tau, r))


def exact(coefficients):
    return [(type(c), c.numerator, c.denominator) for c in coefficients]


@st.composite
def repaired_graph_and_divisor(draw) -> tuple[mg.MetrizedGraph, mg.Divisor]:
    g, _ = mg.make_adequate(draw(st.one_of(adequate_graphs(), multigraphs())))
    coeffs = draw(
        st.lists(
            st.integers(min_value=-3, max_value=3),
            min_size=g.n_vertices,
            max_size=g.n_vertices,
        )
    )
    assume(sum(coeffs) != -2)
    return g, mg.Divisor(tuple(coeffs))


@common
@given(repaired_graph_and_divisor())
def test_integer_kernel_matches_fraction_reference(gd):
    g, divisor = gd
    net = mg.network(g)
    matrix = mg.value_matrix(g, divisor)
    shift, halves = reference_tau_halves(g, divisor)
    # the network's stored triangle, coefficient by coefficient, i <= j
    for i, row in enumerate(net.resistance_triangle):
        for j, (den, *numerators) in enumerate(row, start=i):
            stored = [F(c, den) for c in numerators]
            assert exact(stored) == exact(reference_resistance_form(g, i, j))
    for i in range(g.n_edges):
        for j in range(g.n_edges):
            form = resistance_form(net, i, j)
            assert exact(form.coefficients()) == exact(reference_resistance_form(g, i, j))
            expected = reference_entry(g, divisor, shift, halves, i, j)
            assert exact(matrix.entry(i, j).coefficients()) == exact(expected)


def expanded(z, x, y):
    return (
        z.c0
        + z.cx * x
        + z.cy * y
        + z.cxx * x * x
        + z.cyy * y * y
        + z.cxy * x * y
        + z.cabs * abs(x - y)
    )


@common
@given(repaired_graph_and_divisor())
def test_horner_evaluation_matches_expanded_polynomial(gd):
    g, divisor = gd
    net = mg.network(g)
    matrix = mg.value_matrix(g, divisor)
    for i in range(g.n_edges):
        for j in range(g.n_edges):
            li, lj = g.edges[i].length, g.edges[j].length
            xs = (F(0), li / 3, li * 4 / 5, li)
            ys = (F(0), lj / 2, lj * 2 / 7, lj)
            for z in (matrix.entry(i, j), resistance_form(net, i, j)):
                for x in xs:
                    for y in ys:
                        assert z(x, y) == expanded(z, x, y)


# -- the Fraction kernel the integer entries replaced ------------------------
# Entries and resistance forms hold integers over one denominator.  These
# build the same coefficients the way they were built before, one Fraction
# per coefficient, and evaluate them by Fraction Horner.


def fraction_w(net, e):
    den = net.pinv.denominator
    return F((e.p * den - e.q * e.r) * e.q, den * e.p * e.p)


def fraction_resistance_form(net, i, j):
    ei = net.edges[i]
    if i == j:
        w = fraction_w(net, ei)
        return (F(0), F(0), F(0), -w, -w, 2 * w, F(1))
    ej = net.edges[j]
    den = net.pinv.denominator
    c0, cx, cy, cxy = resistance_numerators(net, i, j)
    return (
        F(c0, den),
        F(cx, den * ei.p),
        F(cy, den * ej.p),
        -fraction_w(net, ei),
        -fraction_w(net, ej),
        F(cxy, den * ei.p * ej.p),
        F(0),
    )


def fraction_entry(net, div, i, j):
    """g = 4 tau / s - c_mu + (r_D(x) + r_D(y)) / (2 s) - r(x, y) / 2 with
    s = deg D + 2, one Fraction per coefficient."""
    scale = div.divisor.degree + 2
    shift = 4 * net.tau / scale - div.c_mu
    c0, cx, cy, cxx, cyy, cxy, cabs = (-c / 2 for c in fraction_resistance_form(net, i, j))
    (den_i, *r_i), (den_j, *r_j) = div.r_D[i], div.r_D[j]
    xx, x, x0 = (F(c, den_i) / (2 * scale) for c in r_i)
    yy, y, y0 = (F(c, den_j) / (2 * scale) for c in r_j)
    return (shift + x0 + y0 + c0, cx + x, cy + y, cxx + xx, cyy + yy, cxy, cabs)


def fraction_value(coefficients, x, y):
    c0, cx, cy, cxx, cyy, cxy, cabs = coefficients
    value = c0
    if y:
        value += (cy + cyy * y) * y
    if x:
        value += (cx + cxx * x + cxy * y) * x
    if cabs:
        value += cabs * abs(x - y)
    return value


# pairs of offsets, each a fraction of its edge's length, ends included
FRACTIONS_OF_LENGTHS = st.lists(
    st.tuples(
        st.fractions(min_value=0, max_value=1, max_denominator=12),
        st.fractions(min_value=0, max_value=1, max_denominator=12),
    ),
    min_size=1,
    max_size=3,
)


@common
@given(repaired_graph_and_divisor(), FRACTIONS_OF_LENGTHS)
def test_integer_entries_match_the_fraction_kernel(gd, fractions_of_lengths):
    g, divisor = gd
    net = mg.network(g)
    div = net.divisor(divisor)
    matrix = mg.value_matrix(g, divisor)
    for i in range(g.n_edges):
        for j in range(g.n_edges):
            li, lj = g.edges[i].length, g.edges[j].length
            z, want = matrix.entry(i, j), fraction_entry(net, div, i, j)
            assert exact(z.coefficients()) == exact(want)
            for fx, fy in fractions_of_lengths:
                x, y = li * fx, lj * fy
                assert exact([z(x, y)]) == exact([fraction_value(want, x, y)])


@st.composite
def graph_and_admissible_divisor(draw) -> tuple[mg.MetrizedGraph, mg.Divisor]:
    """A repaired simple graph or multigraph and a divisor of degree -1 to 7."""
    g, _ = mg.make_adequate(draw(st.one_of(adequate_graphs(), multigraphs())))
    degree = draw(st.integers(min_value=-1, max_value=7))
    rest = draw(
        st.lists(
            st.integers(min_value=-3, max_value=3),
            min_size=g.n_vertices - 1,
            max_size=g.n_vertices - 1,
        )
    )
    return g, mg.Divisor((degree - sum(rest), *rest))


@common
@given(graph_and_admissible_divisor(), st.fractions(min_value=0, max_value=1, max_denominator=12))
def test_green_from_its_pieces_is_the_value_matrix(gd, share):
    # evaluate_green reads the resistance triangle, r_D's held integers and
    # C, and the matrix's rows come from a build loop of their own: the two
    # agree on every ordered edge pair, the same edge and i > j included, at
    # both ends of each edge and inside it
    g, divisor = gd
    matrix = mg.value_matrix(g, divisor)
    for i, ei in enumerate(g.edges):
        for j, ej in enumerate(g.edges):
            for x in (F(0), ei.length, ei.length * share):
                for y in (F(0), ej.length, ej.length / 3):
                    got = mg.evaluate_green(g, divisor, (i, x), (j, y))
                    want = matrix.entry(i, j)(x, y)
                    assert exact([got]) == exact([want]), (i, j, x, y)


def assert_resistance_point_matches_the_fraction_kernel(g, fractions_of_lengths):
    """r(x, y) at every ordered edge pair, the same edge included, against
    the Fraction form evaluated by Fraction Horner."""
    net = mg.network(g)
    for i, ei in enumerate(g.edges):
        for j, ej in enumerate(g.edges):
            want = fraction_resistance_form(net, i, j)
            for fx, fy in fractions_of_lengths:
                x, y = ei.length * fx, ej.length * fy
                got = mg.resistance_point(g, (i, x), (j, y))
                assert exact([got]) == exact([fraction_value(want, x, y)]), (i, j, x, y)


@common
@given(repaired_graph_and_divisor(), FRACTIONS_OF_LENGTHS)
def test_resistance_point_matches_the_fraction_kernel(gd, fractions_of_lengths):
    assert_resistance_point_matches_the_fraction_kernel(gd[0], fractions_of_lengths)


def test_resistance_point_on_bridges_matches_the_fraction_kernel():
    g = build_two_bridges()
    assert mg.bridges(g) == {0, 5}
    offsets = [(F(0), F(1)), (F(1, 3), F(3, 4)), (F(2, 5), F(2, 5)), (F(1), F(0)), (F(5, 7), F(1, 9))]
    assert_resistance_point_matches_the_fraction_kernel(g, offsets)


# -- reference for the integer consistency checks ------------------------------
# The representation check reads each entry at its corners in integers, and
# the vertex formula and tau read L+ over its common denominator.  These are
# the pairwise loop and the Fraction formulas they replaced.


def reference_representation_check(g, matrix):
    reps = [representations(g, v) for v in range(g.n_vertices)]
    comparisons = 0
    mismatches = []
    for p, reps_p in enumerate(reps):
        if len(reps_p) < 2:
            continue
        for q, reps_q in enumerate(reps):
            (i, x), (j, y) = reps_p[0], reps_q[0]
            expected = matrix.entry(i, j)(x, y)
            for rp in reps_p:
                for rq in reps_q:
                    comparisons += 1
                    got = matrix.entry(rp.edge, rq.edge)(rp.offset, rq.offset)
                    if got != expected:
                        location = f"g(v{p}, v{q}) via z[{rp.edge}][{rq.edge}]"
                        mismatches.append((location, expected, got))
    return comparisons, mismatches


def reference_tau(g):
    lp = mg.pinv(g)
    rows = lp.rows()
    total = F(0)
    for e in g.edges:
        dt, dh = rows[e.tail][e.tail], rows[e.head][e.head]
        r = dt - 2 * rows[e.tail][e.head] + dh
        total += ((e.length - r) ** 2 + 3 * (dt - dh) ** 2) / (12 * e.length)
    return total + trace(lp) / len(rows)


def reference_green_at_vertices(g, divisor, p, q):
    lp = mg.pinv(g)
    weighted = sum(
        (a * voltage(lp, s, p, q) for s, a in enumerate(divisor.coefficients)),
        F(0),
    )
    r = mg.resistance_at_vertices(lp, p, q)
    return (weighted + 4 * reference_tau(g) - r) / (divisor.degree + 2) - mg.c_mu(g, divisor)


COEFFICIENT_NAMES = ("c0", "cx", "cy", "cxx", "cyy", "cxy", "cabs")


MIRROR = dict(zip(COEFFICIENT_NAMES, ("c0", "cy", "cx", "cyy", "cxx", "cxy", "cabs")))


def replaced(matrix, changes):
    """``matrix`` with z_ij replaced by ``changes[i, j]`` for each key, i <= j."""
    rows = [list(row) for row in matrix.rows]
    for (i, j), entry in changes.items():
        rows[i][j - i] = (entry.denominator, *entry.numerators)
    return mg.ValueMatrix(matrix.divisor, tuple(map(tuple, rows)))


def moved(entry, name, delta):
    coefficients = dict(zip(COEFFICIENT_NAMES, entry.coefficients()))
    coefficients[name] += delta
    return pair_form(entry.i, entry.j, **coefficients)


def perturbed(matrix, i, j, name, delta):
    """z_ij's ``name`` moved by delta and z_ji's mirrored coefficient with
    it: a matrix holds one closed form per edge pair.  On the diagonal that
    is one entry, so moving cx or cxx also moves cy or cyy."""
    if i > j:
        i, j, name = j, i, MIRROR[name]
    entry = moved(matrix.entry(i, j), name, delta)
    if i == j and MIRROR[name] != name:
        entry = moved(entry, MIRROR[name], delta)
    return replaced(matrix, {(i, j): entry})


def assert_representation_check_matches_reference(g, divisor, matrix):
    report = mg.check_representation_independence(g, divisor, matrix)
    comparisons, mismatches = reference_representation_check(g, matrix)
    assert report.comparisons == comparisons
    assert [tuple(m) for m in report.mismatches] == mismatches
    assert all(exact(m[1:]) == exact(r[1:]) for m, r in zip(report.mismatches, mismatches))
    return report


def reference_vertex_formula_check(g, divisor, matrix):
    points = [mg.point_of_vertex(g, v) for v in range(g.n_vertices)]
    mismatches = []
    for p, x in enumerate(points):
        for q, y in enumerate(points):
            expected = reference_green_at_vertices(g, divisor, p, q)
            got = matrix.entry(x.edge, y.edge)(x.offset, y.offset)
            if got != expected:
                mismatches.append((f"g(v{p}, v{q})", expected, got))
    return len(points) ** 2, mismatches


def assert_vertex_formula_check_matches_reference(g, divisor, matrix):
    report = mg.check_vertex_formula(g, divisor, matrix)
    comparisons, mismatches = reference_vertex_formula_check(g, divisor, matrix)
    assert report.comparisons == comparisons
    assert [tuple(m) for m in report.mismatches] == mismatches
    assert all(exact(m[1:]) == exact(r[1:]) for m, r in zip(report.mismatches, mismatches))
    return report


@common
@given(repaired_graph_and_divisor(), st.data())
def test_integer_checks_match_fraction_reference(gd, data):
    g, divisor = gd
    assert exact([mg.tau_constant(g)]) == exact([reference_tau(g)])
    div = mg.network(g).divisor(divisor)
    for p in range(g.n_vertices):
        numerators, den = mg.potential.green_row_at_vertices(div, p)
        for q in range(g.n_vertices):
            value = F(numerators[q], den)
            assert exact([value]) == exact([reference_green_at_vertices(g, divisor, p, q)])
    matrix = mg.value_matrix(g, divisor)
    assert assert_representation_check_matches_reference(g, divisor, matrix).passed
    edge = st.integers(min_value=0, max_value=g.n_edges - 1)
    i, j = data.draw(edge), data.draw(edge)
    name = data.draw(st.sampled_from(COEFFICIENT_NAMES))
    delta = data.draw(st.sampled_from([F(1, 7), F(-2), F(5, 3)]))
    matrix = perturbed(matrix, i, j, name, delta)
    assert_representation_check_matches_reference(g, divisor, matrix)
    assert_vertex_formula_check_matches_reference(g, divisor, matrix)


@common
@given(
    repaired_graph_and_divisor(),
    st.fractions(min_value=0, max_value=1, max_denominator=60),
    st.integers(min_value=1, max_value=10**15),
)
def test_integer_point_queries_match_fraction_reference(gd, fraction_of_length, k):
    """r_D at offsets 0, L and a drawn point equals a2 x^2 + a1 x + a0 in
    Fractions, and the offset bound accepts exactly 0 <= x <= L, probed
    just inside and just outside both ends."""
    g, divisor = gd
    for i, e in enumerate(g.edges):
        f = mg.r_D_on_edge(g, divisor, i)
        for x in (F(0), e.length, e.length * fraction_of_length):
            got = mg.resistance_to_divisor(g, divisor, (i, x))
            assert exact([got]) == exact([f.a2 * x * x + f.a1 * x + f.a0])
        probes = (F(0), e.length, F(1, k), -F(1, k), e.length - F(1, k), e.length + F(1, k))
        for x in probes:
            for given_as in (x, str(x)):
                try:
                    accepted = mg.validate_point(g, (i, given_as)).offset == x
                except mg.PointOutOfRange:
                    accepted = False
                assert accepted == (0 <= x <= e.length)


def copied_validate_point(g, pt):
    """``validate_point`` as it was when it built a new GraphPoint per call
    and read each Fraction's integers through its properties: the reference
    for the value, the accept/reject decision and the error."""
    edge, offset = pt
    if isinstance(edge, bool) or not isinstance(edge, int) or not 0 <= edge < g.n_edges:
        raise mg.PointOutOfRange(f"edge index {edge!r} outside 0..{g.n_edges - 1}")
    if type(offset) is not Fraction:
        offset = mg.graph.as_fraction(offset, f"offset on edge {edge}")
    length = g.edges[edge].length
    x = offset.numerator
    if x < 0 or x * length.denominator > length.numerator * offset.denominator:
        raise mg.PointOutOfRange(f"offset {offset} outside [0, {length}] on edge {edge}")
    return mg.GraphPoint(edge, offset)


def outcome(validate, g, pt):
    try:
        value = validate(g, pt)
    except Exception as exc:
        return "raised", type(exc), str(exc)
    return "returned", type(value), value, type(value.offset)


@st.composite
def points_on(draw, g):
    """An (edge, offset) tuple or GraphPoint, the edge an int, a bool or
    out of range, the offset an int, a Fraction, a string, a float or a
    bool; an edge's ends and the points just past them come often."""
    edge = draw(st.one_of(st.integers(min_value=-2, max_value=g.n_edges + 1), st.booleans()))
    length = g.edges[edge].length if type(edge) is int and 0 <= edge < g.n_edges else F(1)
    near_ends = st.sampled_from((F(0), length, length + F(1, 12), F(-1, 12)))
    offset = draw(
        st.one_of(
            near_ends,
            near_ends.map(str),
            st.integers(min_value=-2, max_value=5),
            st.fractions(min_value=-1, max_value=5, max_denominator=12),
            st.fractions(min_value=-1, max_value=5, max_denominator=12).map(str),
            st.floats(),
            st.booleans(),
        )
    )
    return mg.GraphPoint(edge, offset) if draw(st.booleans()) else (edge, offset)


@common
@given(adequate_graphs(), st.data())
def test_validate_point_matches_the_copied_reference(g, data):
    for pt in data.draw(st.lists(points_on(g), min_size=1, max_size=20)):
        assert outcome(mg.validate_point, g, pt) == outcome(copied_validate_point, g, pt)


@pytest.mark.parametrize("name", COEFFICIENT_NAMES)
@pytest.mark.parametrize("i,j", [(2, 2), (1, 3)], ids=["diagonal", "off-diagonal"])
def test_perturbed_entry_gives_the_reference_mismatches(name, i, j):
    g, divisor = build_banana(), mg.Divisor((1, 1, 0, 0))
    matrix = perturbed(mg.value_matrix(g, divisor), i, j, name, F(1, 7))
    report = assert_representation_check_matches_reference(g, divisor, matrix)
    assert not report.passed
    # off the diagonal z_ij and z_ji move together, and both fail; cxy moves
    # only the corner at both heads, the canonical descriptions of v2 and v3,
    # so there every mismatch comes through the other descriptions
    if name != "cxy":
        assert_both_entries_fail(g, divisor, matrix, i, j)
    # the vertex formula sees a change only in an entry that holds the
    # canonical descriptions of a vertex pair: (1, 3) does, (2, 2) does not
    points = [mg.point_of_vertex(g, v) for v in range(g.n_vertices)]
    canonical = {(x.edge, y.edge) for x in points for y in points}
    assert ((1, 3) in canonical, (2, 2) in canonical) == (True, False)
    report = assert_vertex_formula_check_matches_reference(g, divisor, matrix)
    assert report.passed == (i == j)


# -- mirrored edge pairs in the representation check ----------------------------
# The check reads a stored pair {i, j} once, z_ji being z_ij with x and y
# swapped.  A pair perturbed by mirrored amounts still mirrors but fails, so
# it must come out with every mismatch of both entries.  A matrix holds one
# triangle, so it cannot express an unmirrored pair, and its constructor
# rejects a diagonal entry that does not mirror itself.


def mirrors(zij, zji):
    swapped = tuple(zij.numerators[COEFFICIENT_NAMES.index(MIRROR[n])] for n in COEFFICIENT_NAMES)
    return zij.denominator == zji.denominator and zji.numerators == swapped


def assert_both_entries_fail(g, divisor, matrix, i, j):
    report = assert_representation_check_matches_reference(g, divisor, matrix)
    assert not report.passed
    via = {m.location.rsplit(" via ", 1)[1] for m in report.mismatches}
    assert {f"z[{i}][{j}]", f"z[{j}][{i}]"} <= via


def standing_pairs(g):
    """Two off-diagonal edge pairs: the first and last edge, and the edges
    holding the canonical descriptions of the first and last vertex."""
    first, last = mg.point_of_vertex(g, 0).edge, mg.point_of_vertex(g, g.n_vertices - 1).edge
    return sorted({(0, g.n_edges - 1), (min(first, last), max(first, last))} - {(0, 0)})


@pytest.mark.parametrize("name,delta", [("c0", F(1, 7)), ("cx", F(-2))], ids=["c0", "cx-cy"])
def test_mirrored_perturbation_gives_the_reference_mismatches(standing, name, delta):
    _, g, divisor = standing
    matrix = mg.value_matrix(g, divisor)
    pairs = [(i, j) for i, j in standing_pairs(g) if i != j]
    assert pairs
    for i, j in pairs:
        changed = perturbed(matrix, i, j, name, delta)
        assert mirrors(changed.entry(i, j), changed.entry(j, i))
        assert_both_entries_fail(g, divisor, changed, i, j)


def test_diagonal_entry_with_unequal_slopes(standing):
    """A diagonal entry with cx != cy, or cxx != cyy, does not mirror
    itself, and the constructor rejects it."""
    _, g, divisor = standing
    matrix = mg.value_matrix(g, divisor)
    for i in range(g.n_edges):
        z = matrix.entry(i, i)
        assert mirrors(z, z)
        for name in ("cx", "cyy"):
            changed = moved(z, name, F(1, 5))
            assert not mirrors(changed, changed)
            with pytest.raises(mg.MetgraphError, match=rf"entry \({i}, {i}\) is not symmetric"):
                replaced(matrix, {(i, i): changed})


@common
@given(repaired_graph_and_divisor(), st.data())
def test_mirrored_pairs_match_the_reference_check(gd, data):
    g, divisor = gd
    assume(g.n_edges >= 2)
    matrix = mg.value_matrix(g, divisor)
    edge = st.integers(min_value=0, max_value=g.n_edges - 1)
    i = data.draw(edge)
    j = data.draw(edge.filter(lambda j: j != i))
    name = data.draw(st.sampled_from(COEFFICIENT_NAMES))
    delta = data.draw(st.sampled_from([F(1, 7), F(-2), F(5, 3)]))
    changed = perturbed(matrix, i, j, name, delta)
    assert mirrors(changed.entry(i, j), changed.entry(j, i))
    assert_representation_check_matches_reference(g, divisor, changed)
    assert_vertex_formula_check_matches_reference(g, divisor, changed)


# -- every built matrix mirrors --------------------------------------------------
# The build makes z_ji from z_ij's integers with x and y swapped and compares
# no pair, so these pin that every matrix it hands out mirrors exactly.


def assert_mirrors_exactly(matrix):
    entries = matrix.entries
    for i in range(matrix.size):
        for j in range(i, matrix.size):
            zij, zji = matrix.entry(i, j), matrix.entry(j, i)
            assert (zji.i, zji.j) == (j, i) and mirrors(zij, zji), (i, j)
            assert (entries[i][j], entries[j][i]) == (zij, zji), (i, j)


@pytest.mark.parametrize("zero", [False, True], ids=["file_divisor", "zero_divisor"])
def test_standing_matrices_mirror_exactly(standing, zero):
    _, g, divisor = standing
    if zero:
        divisor = mg.Divisor.zero(g.n_vertices)
    assert_mirrors_exactly(mg.value_matrix(g, divisor))


@common
@given(graph_and_divisor())
def test_built_matrices_mirror_exactly(gd):
    g, divisor = gd
    assert_mirrors_exactly(mg.value_matrix(g, divisor))


@common
@given(graph_and_divisor(WIDE_LENGTHS))
def test_wide_operands_match_the_references(gd):
    g, divisor = gd
    lap = mg.linalg.laplacian_matrix(g)
    assert mg.pseudo_inverse(lap) == gauss_jordan_pinv(lap)
    net = mg.network(g)
    div = net.divisor(divisor)
    matrix = mg.value_matrix(g, divisor)
    for i in range(g.n_edges):
        for j in range(g.n_edges):
            assert exact(matrix.entry(i, j).coefficients()) == exact(fraction_entry(net, div, i, j))
    assert_mirrors_exactly(matrix)


# -- bridges by their definition ------------------------------------------------


def cut_and_reach_sides(g):
    """Per bridge, in edge order, the vertices reached from its tail when it
    is cut: edge i is a bridge exactly when its head is not among them."""
    sides = {}
    for i, cut in enumerate(g.edges):
        reached, frontier = {cut.tail}, [cut.tail]
        while frontier:
            v = frontier.pop()
            for k, e in enumerate(g.edges):
                if k != i and v in (e.tail, e.head):
                    w = e.head if v == e.tail else e.tail
                    if w not in reached:
                        reached.add(w)
                        frontier.append(w)
        if cut.head not in reached:
            sides[i] = frozenset(reached)
    return sides


@common
@given(st.one_of(adequate_graphs(), multigraphs()))
def test_bridge_sides_match_cut_and_reach(g):
    sides = mg.graph.find_bridge_sides(g)
    expected = cut_and_reach_sides(g)
    assert sides == expected and list(sides) == list(expected)


def test_bridge_sides_of_a_long_path():
    """200 bridges, deeper than any recursion would comfortably go, each
    parametrized either way."""
    edges = tuple(mg.Edge(k + k % 2, k + 1 - k % 2, F(1)) for k in range(200))
    g = mg.MetrizedGraph(tuple(f"v{k}" for k in range(201)), edges)
    sides = mg.graph.find_bridge_sides(g)
    assert sides == cut_and_reach_sides(g)
    assert list(sides) == list(range(200))
    assert sides[0] == {0} and sides[1] == set(range(2, 201))


def reference_connectivity(g):
    sides = cut_and_reach_sides(g)
    m = g.n_edges

    def digit(bridge, other):
        return int(g.edges[other].tail not in sides[bridge])

    def code(i, j):
        if i == j:
            return int(i in sides)
        if i in sides and j in sides:
            return 110 * digit(i, j) + digit(j, i)
        if i in sides or j in sides:
            return digit(i, j) if i in sides else digit(j, i)
        return 0

    return tuple(tuple(code(i, j) for j in range(m)) for i in range(m))


@common
@given(adequate_graphs())
def test_connectivity_codes_match_their_definition(g):
    assert mg.connectivity_matrix(g).entries == reference_connectivity(g)


# -- the incidence table --------------------------------------------------------
# A graph lists the edge ends at each vertex once, at construction; these
# copies of the scans that table replaced are the reference.


def copied_valence(g, v):
    return sum((e.tail == v) + (e.head == v) for e in g.edges)


def copied_representations(g, v):
    reps = []
    for i, e in enumerate(g.edges):
        if e.tail == v:
            reps.append(mg.GraphPoint(i, F(0)))
        if e.head == v:
            reps.append(mg.GraphPoint(i, e.length))
    return tuple(reps)


def copied_point_of_vertex(g, v):
    return next(
        mg.GraphPoint(i, F(0)) if e.tail == v else mg.GraphPoint(i, e.length)
        for i, e in enumerate(g.edges)
        if v in (e.tail, e.head)
    )


def copied_validate_adequate(g):
    seen = set()
    for e in g.edges:
        if e.tail == e.head:
            return False
        key = frozenset((e.tail, e.head))
        if key in seen:
            return False
        seen.add(key)
    return True


@common
@given(st.one_of(adequate_graphs(), multigraphs()))
def test_incidence_table_matches_the_copied_scans(g):
    sides = cut_and_reach_sides(g)
    # a copy or an unpickled graph is rebuilt through the constructor
    for h in (g, copy.copy(g), pickle.loads(pickle.dumps(g))):
        assert h == g and hash(h) == hash(g)
        for v in range(g.n_vertices):
            assert h.valence(v) == copied_valence(g, v)
            reps = representations(h, v)
            assert reps == copied_representations(g, v)
            assert list(map(type, reps)) == [mg.GraphPoint] * len(reps)
            assert mg.point_of_vertex(h, v) == copied_point_of_vertex(g, v)
        assert sum(map(h.valence, range(g.n_vertices))) == 2 * g.n_edges
        assert mg.validate_adequate(h) == copied_validate_adequate(g)
        found = mg.graph.find_bridge_sides(h)
        assert found == sides and list(found) == list(sides)
        assert mg.bridges(h) == frozenset(sides)


# -- corners evaluated in the representation check's loop ----------------------
# The check reads an off-diagonal entry with no |x - y| term at its four
# corners with sums written out in its loop, and every other entry through
# ``_corners``.  Against a table that no corner equals, every comparison
# fails, so the report lists every corner value the check computed, in its
# order, and each must equal the value ``_corners`` gives.  From an empty
# table, the walk fills each cell with the first corner it meets for it,
# which must be the canonical one, read here off ``g._ends``.


def corner_values(g, matrix):
    """Every corner the representation check compares, from ``_corners``,
    in the check's order: by vertex pair, then by the two descriptions."""
    lengths = [e.length.as_integer_ratio() for e in g.edges]
    keyed = []
    for i, row in enumerate(matrix.rows):
        for j, entry in enumerate(row, i):
            den, (v0, v1, v2, v3) = mg.invariants._corners(entry, *lengths[i], *lengths[j])
            views = [(i, j, (v0, v1, v2, v3))]
            if i != j:
                # z_ji is z_ij with x and y swapped
                views.append((j, i, (v0, v2, v1, v3)))
            for x, y, corners in views:
                for a, p in enumerate(g.edges[x][:2]):
                    if g.valence(p) < 2:
                        continue
                    for b, q in enumerate(g.edges[y][:2]):
                        keyed.append(((p, q, x, a, y, b), F(corners[2 * a + b], den)))
    return [value for _, value in sorted(keyed)]


def with_abs_terms(matrix, data):
    """``matrix`` with a drawn nonzero |x - y| coefficient on some entries
    off the diagonal, as a caller may build one."""
    rows = [list(row) for row in matrix.rows]
    for row in rows:
        for k in range(1, len(row)):
            if data.draw(st.booleans()):
                den, *coefficients, _ = row[k]
                row[k] = (den, *coefficients, data.draw(st.integers(-5, 5).filter(bool)))
    return mg.ValueMatrix(matrix.divisor, tuple(map(tuple, rows)))


seeded_grids = st.builds(seeded_grid, st.integers(min_value=2, max_value=4), st.integers(0, 999))


def canonical_table(g, matrix):
    """The matrix's value at every vertex pair, each vertex at the first
    edge end ``g._ends`` lists for it, from ``_corners`` of the entry
    holding both ends, as (numerator, denominator)."""
    lengths = [e.length.as_integer_ratio() for e in g.edges]
    firsts = [g._ends[v][0][:2] for v in range(g.n_vertices)]
    table = []
    for i, a in firsts:
        row = []
        for j, b in firsts:
            if i <= j:
                den, corners = mg.invariants._corners(matrix.rows[i][j - i], *lengths[i], *lengths[j])
                row.append((corners[2 * a + b], den))
            else:  # z_ij is z_ji with x and y swapped
                den, corners = mg.invariants._corners(matrix.rows[j][i - j], *lengths[j], *lengths[i])
                row.append((corners[2 * b + a], den))
        table.append(row)
    return table


@common
@given(st.one_of(seeded_grids, repaired_graph_and_divisor()), st.booleans(), st.data())
def test_corners_in_the_check_loop_equal_the_corner_evaluator(gd, abs_terms, data):
    g, divisor = gd
    matrix = mg.value_matrix(g, divisor)
    if abs_terms:
        matrix = with_abs_terms(matrix, data)
    expected = corner_values(g, matrix)
    far = max(map(abs, expected), default=F(0)) + 1
    cell = (far.numerator, far.denominator)
    table = [[cell] * g.n_vertices for _ in range(g.n_vertices)]
    report, walked = mg.invariants._representation_report(g, matrix, table)
    assert report.comparisons == len(expected)
    assert [m.got for m in report.mismatches] == expected
    assert {m.expected for m in report.mismatches} <= {far}
    # a full table takes no corner
    assert walked is table and table == [[cell] * g.n_vertices for _ in range(g.n_vertices)]
    # an empty one takes each canonical corner, inline sums and |x - y| terms alike
    _, walked = mg.invariants._representation_report(g, matrix)
    assert walked == canonical_table(g, matrix)


@common
@given(
    st.one_of(
        st.builds(seeded_grid, st.integers(min_value=4, max_value=8), st.integers(0, 999)),
        repaired_graph_and_divisor(),
    )
)
def test_the_walk_fills_the_canonical_table(gd):
    g, divisor = gd
    mg.clear_caches()
    representation = mg.check_representation_independence(g, divisor)
    report, table = mg.network(g).divisor(divisor).representation_walk
    assert report is representation and report.passed
    assert table == canonical_table(g, mg.value_matrix(g, divisor))
    # cells (p, q) and (q, p) are one
    assert all(row[q] is table[q][p] for p, row in enumerate(table) for q in range(p))


def test_a_corrupted_canonical_corner_fails_both_checks():
    # c_xy moves only corner (L_i, L_j) of z_ij: here the canonical value of
    # two vertices that sit at the heads of their first edges i and j, so the
    # walk takes the corrupted value into its table, and every other
    # description of the pair must then disagree with it
    g, divisor = seeded_grid(4, 0)
    matrix = mg.value_matrix(g, divisor)
    p, q = next(
        (p, q)
        for p in range(g.n_vertices)
        for q in range(p + 1, g.n_vertices)
        if g._ends[p][0][1] == g._ends[q][0][1] == 1
    )
    i, j = g._ends[p][0][0], g._ends[q][0][0]
    assert i < j
    rows = [list(row) for row in matrix.rows]
    den, *coefficients = rows[i][j - i]
    coefficients[5] += den
    rows[i][j - i] = (den, *coefficients)
    corrupted = mg.ValueMatrix(divisor, tuple(map(tuple, rows)))
    at_p, at_q = mg.point_of_vertex(g, p), mg.point_of_vertex(g, q)
    true = matrix.entry(at_p.edge, at_q.edge)(at_p.offset, at_q.offset)
    wrong = true + g.edges[i].length * g.edges[j].length
    assert corrupted.entry(at_p.edge, at_q.edge)(at_p.offset, at_q.offset) == wrong
    _, table = mg.invariants._representation_report(g, corrupted)
    assert F(*table[p][q]) == wrong

    rep = mg.check_representation_independence(g, divisor, corrupted)
    descriptions = [(x.edge, y.edge) for x in representations(g, p) for y in representations(g, q)]
    expected = sorted(
        [(f"g(v{p}, v{q}) via z[{x}][{y}]", wrong, true) for x, y in descriptions[1:]]
        + [(f"g(v{q}, v{p}) via z[{y}][{x}]", wrong, true) for x, y in descriptions[1:]]
    )
    assert sorted(rep.mismatches) == expected
    vf = mg.check_vertex_formula(g, divisor, corrupted)
    assert list(vf.mismatches) == [
        (f"g(v{p}, v{q})", true, wrong),
        (f"g(v{q}, v{p})", true, wrong),
    ]


# -- identities across graphs, from the literature -------------------------------
# Each relates results of different graphs, read through the public API:
# - tau is additive over one-point unions (Cinkir, "The tau constant of
#   metrized graphs and its behavior under graph operations", Electron. J.
#   Combin. 2011);
# - a bridge of length L adds L / 4, the tau of a segment (Baker and Rumely
#   2007);
# - Foster's theorem: sum_e r_e / L_e = n - 1, r_e the resistance between
#   the ends of edge e (Foster 1949);
# - the series law: with p a cut vertex between x and y,
#   r(x, y) = r(x, p) + r(p, y).
# A mutation test per identity shows that it fails on a perturbed L+ or tau.


@st.composite
def repaired_graphs(draw) -> mg.MetrizedGraph:
    g, _ = mg.make_adequate(draw(st.one_of(adequate_graphs(), multigraphs())))
    return g


def joined(g, h, u, v, bridge=None):
    """g and h with h's vertex v glued onto g's vertex u or, given a bridge
    length, tied to it by a new last edge; h's edges follow g's."""
    n = g.n_vertices
    if bridge is None:
        index = [u if w == v else n + w - (w > v) for w in range(h.n_vertices)]
    else:
        index = [n + w for w in range(h.n_vertices)]
    edges = [*g.edges, *(mg.Edge(index[e.tail], index[e.head], e.length) for e in h.edges)]
    if bridge is not None:
        edges.append(mg.Edge(u, index[v], bridge))
    labels = tuple(f"v{k}" for k in range(max(index) + 1))
    return mg.MetrizedGraph(labels, edges)


def tau_sides(g, h, u, v, bridge=None):
    """tau of g and h joined, and what the identities give for it."""
    added = F(0) if bridge is None else bridge / 4
    return mg.tau_constant(joined(g, h, u, v, bridge)), mg.tau_constant(g) + mg.tau_constant(h) + added


def foster_sides(g):
    """sum_e r_e / L_e, and n - 1."""
    total = sum(vertex_resistance(g, e.tail, e.head) / e.length for e in g.edges)
    return total, g.n_vertices - 1


def series_sides(g, h, u, v, x, y):
    """In g and h glued at u and v, with x a point of g and y one of h:
    r(x, y), and r(x, p) + r(p, y) through the cut vertex p."""
    union = joined(g, h, u, v)
    y = mg.GraphPoint(g.n_edges + y.edge, y.offset)
    p = mg.point_of_vertex(union, u)

    def r(a, b):
        return mg.resistance_point(union, a, b)

    return r(x, y), r(x, p) + r(p, y)


def drawn_vertex(data, g):
    return data.draw(st.integers(min_value=0, max_value=g.n_vertices - 1))


def drawn_point(data, g):
    i = data.draw(st.integers(min_value=0, max_value=g.n_edges - 1))
    share = data.draw(st.sampled_from((F(0), F(1, 3), F(1, 2), F(1))))
    return mg.GraphPoint(i, share * g.edges[i].length)


@common
@given(repaired_graphs(), repaired_graphs(), st.data())
def test_tau_is_additive_over_one_point_unions(g, h, data):
    union, parts = tau_sides(g, h, drawn_vertex(data, g), drawn_vertex(data, h))
    assert union == parts


@common
@given(repaired_graphs(), repaired_graphs(), st.sampled_from(LENGTHS), st.data())
def test_a_bridge_adds_a_quarter_of_its_length(g, h, length, data):
    union, parts = tau_sides(g, h, drawn_vertex(data, g), drawn_vertex(data, h), length)
    assert union == parts


@common
@given(repaired_graphs())
def test_foster_sum_is_one_less_than_the_vertex_count(g):
    total, expected = foster_sides(g)
    assert total == expected


@common
@given(repaired_graphs(), repaired_graphs(), st.data())
def test_resistance_is_in_series_through_a_cut_vertex(g, h, data):
    u, v = drawn_vertex(data, g), drawn_vertex(data, h)
    direct, through = series_sides(g, h, u, v, drawn_point(data, g), drawn_point(data, h))
    assert direct == through


@pytest.fixture
def analysis_patch(monkeypatch):
    """``monkeypatch``, with the analysis cache emptied before and after, so
    no perturbed L+ or tau outlives the test."""
    mg.clear_caches()
    yield monkeypatch
    monkeypatch.undo()
    mg.clear_caches()


def perturb_tau(patch):
    """tau with 1/7 added, on every graph from here on."""
    tau_of = mg.potential.tau_of
    patch.setattr(mg.potential, "tau_of", lambda net: tau_of(net) + F(1, 7))
    mg.clear_caches()


def perturb_lplus(patch, k):
    """L+ with 1/7 added to its diagonal entry (k, k), on every graph from
    here on."""
    pseudo_inverse = mg.linalg.pseudo_inverse

    def moved(lap):
        rows = [list(row) for row in pseudo_inverse(lap).rows()]
        rows[k][k] += F(1, 7)
        return rational_matrix(rows)

    patch.setattr(mg.linalg, "pseudo_inverse", moved)
    mg.clear_caches()


def test_tau_additivity_fails_on_a_perturbed_tau(analysis_patch):
    g, h = build_circle(), build_banana()
    assert len(set(tau_sides(g, h, 0, 1))) == 1
    perturb_tau(analysis_patch)
    assert len(set(tau_sides(g, h, 0, 1))) == 2


def test_the_bridge_identity_fails_on_a_perturbed_tau(analysis_patch):
    g, h = build_circle(), build_banana()
    assert len(set(tau_sides(g, h, 2, 3, F(5, 2)))) == 1
    perturb_tau(analysis_patch)
    assert len(set(tau_sides(g, h, 2, 3, F(5, 2)))) == 2


def test_foster_sum_fails_on_a_perturbed_lplus(analysis_patch):
    g = build_banana()
    assert foster_sides(g) == (3, 3)
    perturb_lplus(analysis_patch, 0)
    assert foster_sides(g)[0] != 3


def test_the_series_law_fails_on_a_perturbed_lplus(analysis_patch):
    # the union's cut vertex is g's vertex 0; x and y are vertices away from it
    g, h = build_circle(), build_banana()
    x, y = mg.point_of_vertex(g, 2), mg.point_of_vertex(h, 3)
    direct, through = series_sides(g, h, 0, 1, x, y)
    assert direct == through
    perturb_lplus(analysis_patch, 0)
    assert series_sides(g, h, 0, 1, x, y) == (direct, through + F(2, 7))

"""Tau constant, point resistances and divisor resistance functions.

The resistance between arbitrary points reduces to vertex-level data: the
pseudoinverse supplies resistances and voltages at vertices, and on each
edge pair the function extends as one closed form.  The same forms hold
whether or not an edge is a bridge, so no bridge bookkeeping enters the
computation; the connectivity matrix in ``graph`` is only reported.

The forms read L+ as it is held, N / D with D its least common denominator
(``pinv.numerators`` over ``pinv.denominator``), and the per-edge data
``analysis.Network`` computes once from it: per edge its ends, its length
p / q, the vertex resistance r / D between its ends, the vector
a[s] = N[s, tail] - N[s, head], and W = (p D - q r) q, which is
w = (L - r) / L^2 over D p^2.  Each voltage the pair form needs is one
difference of two entries of an ``a`` vector.
r(x, y) does not depend on the divisor, so its closed form on every
unordered edge pair i <= j is kept once per graph, made by
``resistance_triangle`` on the first point read: eight integers per pair,
laid out as a value-matrix entry.  ``resistance_point`` is its one point
reader: it swaps its two points when the first lies on the later edge,
as r(x, y) = r(y, x), and evaluates the entry with ``pair_value``.
``pair_rows`` is the one loop over edge pairs that multiplies r's pair
coefficients out; it makes both that triangle and the Green function's
value matrix, which adds per-edge terms and a constant.
The divisor's r_D = sum_k a_k r(p_k, .) is held per edge as four integers
(den, a2, a1, a0), its coefficients over den = D p^2: the one-edge form of
a ``Rows`` entry, den first, which ``edge_value`` evaluates, so a point
query builds one Fraction, its answer.  A closed-form view holds the
stored tuple whole, with its edge indices, and reads every coefficient,
value, equality and hash from it: ``r_D_on_edge`` is the only code that
makes an ``EdgeFunction``, a view of one edge's tuple, as
``ValueMatrix.entry`` is the only code that makes an ``EdgePairFunction``.
The Green function at vertices has a direct formula in L+, tau and c_mu
alone, which ``green_row_at_vertices`` gives for a slice of one vertex row.
Its row-independent part, ``vertex_formula``, holds only the sums it makes
itself, apart from r_D's, which the value matrix it checks is built from.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import itemgetter, sub
from typing import NamedTuple, Sequence

from . import analysis
from .graph import Divisor, GraphPoint, MetrizedGraph, _point_integers, admissible_degree
from .linalg import RationalMatrix

# a triangle of edge-pair closed forms: row i holds the pairs (i, i), ...,
# (i, m - 1), each as the eight integers (den, c0, cx, cy, cxx, cyy, cxy, cabs)
Rows = tuple[tuple[tuple[int, ...], ...], ...]


def tau_constant(g: MetrizedGraph) -> Fraction:
    """The tau constant of the graph, computed once per graph."""
    return analysis.network(g).tau


def tau_of(net: analysis.Network) -> Fraction:
    """The tau constant, as one sum over the edges plus the normalized trace.

    With d the diagonal of L+ and, per edge e, its length L_e and the vertex
    resistance r_e between its ends (Cinkir 2011),
    tau = sum_e [(L_e - r_e)^2 + 3 (d_tail - d_head)^2] / (12 L_e) + tr(L+) / n.

    This is the Laplacian form -sum_e l_e (1/l_e + r_e)^2 / 12
    + sum_q sum_s l_qs d_q d_s / 4 + tr(L+) / n, with l the Laplacian and
    l_e = -1/L_e its entry for edge e: the double sum is the quadratic form
    d^T L d, which equals sum_e (d_tail - d_head)^2 / L_e.

    It reads only L+ = N / D, so it needs none of the per-edge ``a``
    vectors, and runs in integers: with L_e = p / q and r_e = r / D, edge e
    adds (p D - q r)^2 + 3 q^2 (N_tt - N_hh)^2 over 12 p q D^2.  The edge
    terms are summed over the lcm of the p q, and the trace tr(N) / (n D)
    is the second of two Fractions.
    """
    den, num = net.pinv.denominator, net.pinv.numerators
    terms = []
    for e in net.graph.edges:
        dt, dh = num[e.tail][e.tail], num[e.head][e.head]
        r = dt - 2 * num[e.tail][e.head] + dh
        p, q = e.length.numerator, e.length.denominator
        terms.append(((p * den - q * r) ** 2 + 3 * (q * (dt - dh)) ** 2, p * q))
    common = lcm(*(pq for _, pq in terms))
    total = sum(t * (common // pq) for t, pq in terms)
    trace = sum(num[v][v] for v in range(len(num)))
    return Fraction(total, 12 * common * den * den) + Fraction(trace, len(num) * den)


class EdgeData(NamedTuple):
    """One edge as the resistance forms read it, with L+ = N / D: length
    p / q, vertex resistance r / D between its ends, the integer vector
    a[s] = N[s, tail] - N[s, head], and W = (p D - q r) q, which is
    w = (L - r) / L^2 over D p^2."""

    tail: int
    head: int
    p: int
    q: int
    r: int
    a: tuple[int, ...]
    w: int


def edge_data(net: analysis.Network) -> tuple[EdgeData, ...]:
    den, lp = net.pinv.denominator, net.pinv.numerators
    out = []
    for e in net.graph.edges:
        # L+ is symmetric, so the column difference is a row difference
        a = tuple(map(sub, lp[e.tail], lp[e.head]))
        r = a[e.tail] - a[e.head]
        p, q = e.length.numerator, e.length.denominator
        out.append(EdgeData(e.tail, e.head, p, q, r, a, (p * den - q * r) * q))
    return tuple(out)


def _coefficient(k: int) -> property:
    """A read-only property: coefficient k as a reduced Fraction, made when read."""
    return property(lambda self: Fraction(self._held[k + 1], self._held[0]))


class _Form:
    """A view of one closed form as the package stores it: ``_at``, its
    edge indices, and ``_held``, the integers (den, *numerators), the
    coefficients over one positive denominator, which need not be the
    least, both taken as they are.  A coefficient is a reduced Fraction
    built only when read, through ``coefficients()`` or its name.  A form is
    made only by ``_over``; equality and hash go by the edge indices and
    the coefficients, and only between forms of one class.  A subclass
    names its edge indices in ``_indices`` and its coefficients in
    ``terms``.
    """

    __slots__ = ("_at", "_held")
    _indices: tuple[str, ...]
    terms: tuple[str, ...]

    denominator = property(lambda self: self._held[0])
    numerators = property(lambda self: self._held[1:])

    def __init__(self, *args, **kwargs):
        name = type(self).__name__
        raise TypeError(f"{name} instances are made by {name}._over")

    @classmethod
    def _over(cls, at: tuple[int, ...], held: tuple[int, ...]) -> _Form:
        """The form at the edge indices ``at`` whose integers ``held`` are
        (den, *numerators), den > 0, taken as they are."""
        form = cls.__new__(cls)
        form._at, form._held = at, held
        return form

    def coefficients(self) -> tuple[Fraction, ...]:
        den = self._held[0]
        return tuple(Fraction(c, den) for c in self._held[1:])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self._at, self.coefficients()) == (other._at, other.coefficients())

    def __hash__(self) -> int:
        return hash((self._at, self.coefficients()))

    def __repr__(self) -> str:
        fields = [*zip(self._indices, self._at), *zip(self.terms, self.coefficients())]
        return f"{type(self).__name__}({', '.join(f'{name}={v!r}' for name, v in fields)})"


class EdgePairFunction(_Form):
    """A closed form in x on edge i and y on edge j.

    Coefficients over the basis {1, x, y, x^2, y^2, x*y, |x - y|}, read as
    ``c0`` ... ``cabs``; the absolute-value coefficient can be nonzero only
    when i == j.  ``ValueMatrix.entry`` makes one as a view of one stored
    entry.
    """

    __slots__ = ()
    _indices = ("i", "j")
    terms = ("c0", "cx", "cy", "cxx", "cyy", "cxy", "cabs")

    i = property(lambda self: self._at[0])
    j = property(lambda self: self._at[1])
    c0, cx, cy, cxx, cyy, cxy, cabs = map(_coefficient, range(7))

    def __call__(self, x: Fraction, y: Fraction) -> Fraction:
        return pair_value(self._held, *x.as_integer_ratio(), *y.as_integer_ratio())


# the seven coefficients (c0, cx, cy, cxx, cyy, cxy, cabs) of z_ji from
# those of z_ij: one closed form with x and y swapped
swap_xy = itemgetter(0, 2, 1, 4, 3, 5, 6)


def pair_numerator(held: tuple[int, ...], X: int, u: int, Y: int, v: int) -> int:
    """An edge-pair closed form at offsets x = X / u and y = Y / v, as the
    integer it is over den u^2 v^2, from the integers ``held`` =
    (den, c0, cx, cy, cxx, cyy, cxy, cabs), the seven numerators over den,
    as a value matrix and the resistance triangle hold them."""
    # a vertex sits at offset 0 or at the length, so a zero offset is
    # common and its terms are skipped
    _, c0, cx, cy, cxx, cyy, cxy, cabs = held
    uu, vv = u * u, v * v
    value = c0 * uu * vv
    if Y:
        value += (cy * v + cyy * Y) * Y * uu
    if X:
        value += ((cx * u + cxx * X) * vv + cxy * Y * u * v) * X
    if cabs:
        value += cabs * abs(X * v - Y * u) * u * v
    return value


def pair_value(held: tuple[int, ...], X: int, u: int, Y: int, v: int) -> Fraction:
    """``pair_numerator`` over den u^2 v^2, one Fraction."""
    return Fraction(pair_numerator(held, X, u, Y, v), held[0] * u * u * v * v)


def pair_rows(
    lplus: RationalMatrix, edges: tuple[EdgeData, ...], t: int, shift: int, half: int,
    a0: Sequence[int], a1: Sequence[int], a2: Sequence[int],
) -> Rows:
    """shift / t + phi_i(x) + phi_j(y) - (half / t) D r(x, y), x on edge i
    and y on edge j, on every unordered edge pair i <= j, with L+ = N / D
    (``lplus``) and phi_e(x) = (a2_e x^2 + a1_e x) / (t p_e^2) + a0_e / t
    per edge.  Row i holds the pairs (i, i), ..., (i, m - 1), each as
    (den, c0, cx, cy, cxx, cyy, cxy, cabs), its coefficients over the basis
    {1, x, y, x^2, y^2, x*y, |x - y|} as integers over den = t p_i^2 p_j^2
    (t p_i^2 when i == j).  This is the one loop over edge pairs for r.

    On one edge r is |x - y| - w (x - y)^2, which is
    (0, 0, 0, -W, -W, 2 W, D p^2) over D p^2.  On two edges it is quadratic
    in both offsets, with coefficients read off the vertex resistances and
    voltages: with the voltage j_s(p, q) written v(s, p, q),
    c0 = r(t_i, t_j), cx = 1 - 2 v(t_i, h_i, t_j) / L_i,
    cy = 1 - 2 v(t_j, t_i, h_j) / L_j,
    cxy = 2 (v(t_j, t_i, h_j) - v(t_j, h_i, h_j)) / (L_i L_j), and -w_i and
    -w_j for x^2 and y^2, where v(t_i, h_i, t_j) = a_i[t_i] - a_i[t_j],
    v(t_j, t_i, h_j) = a_j[t_j] - a_j[t_i], and the cross term is
    a_i[h_j] - a_i[t_j], each over D.  With X = (D p - 2 q a[t]) p and
    K = 2 q p per edge, r's numerators over D p_i^2 p_j^2 are
      c0   (N[t_i, t_i] - 2 N[t_i, t_j] + N[t_j, t_j]) p_i^2 p_j^2,
      cx   (X_i + K_i a_i[t_j]) p_j^2,   cy   (X_j + K_j a_j[t_i]) p_i^2,
      cxx  -W_i p_j^2,   cyy  -W_j p_i^2,
      cxy  K_i q_j p_j (a_i[h_j] - a_i[t_j]),   cabs  0.
    Neither form depends on whether an edge is a bridge: there r(tail, head)
    equals the length, so the quadratic terms vanish and the voltages supply
    the piecewise-linear slopes.

    Times -half and with phi added, per edge Z = a0 - half N[t, t],
    S = a1 - half X, k = -half K and V = a2 + half W, the numerators over
    t p_i^2 p_j^2 are
      c0   (shift + Z_i + Z_j + 2 half N[t_i, t_j]) p_i^2 p_j^2,
      cx   (S_i + k_i a_i[t_j]) p_j^2,   cy   (S_j + k_j a_j[t_i]) p_i^2,
      cxx  V_i p_j^2,   cyy  V_j p_i^2,
      cxy  k_i q_j p_j (a_i[h_j] - a_i[t_j]),   cabs  0,
    and over t p^2 on one edge (shift + 2 a0) p^2, a1, a1, V, V, -2 half W
    and -half D p^2.  Swapping i with j and x with y leaves them unchanged,
    N being symmetric, so z_ji is z_ij with x and y swapped.  The loop runs
    row by row and makes what one edge supplies once per edge, what edge i
    adds once per row, and the terms that read both edges once per pair.
    """
    den, lp = lplus.denominator, lplus.numerators
    twice_half = 2 * half
    # per edge: tail, head, p^2, p q, Z, V, S, k and the a vector
    columns, diagonals = [], []
    for (tail, head, p, q, _, a, w), e0, e1, e2 in zip(edges, a0, a1, a2):
        pp, v = p * p, e2 + half * w
        columns.append((
            tail, head, pp, p * q, e0 - half * lp[tail][tail], v,
            e1 - half * (den * p - 2 * q * a[tail]) * p, -twice_half * q * p, a,
        ))
        diagonals.append(
            (t * pp, (shift + 2 * e0) * pp, e1, e1, v, v, -twice_half * w, -half * den * pp)
        )
    rows = []
    for i, (ti, _, ppi, _, zi, vi, si, ki, ai) in enumerate(columns):
        lpt, base, tpi = lp[ti], shift + zi, t * ppi
        row = [diagonals[i]]
        append = row.append
        for tj, hj, ppj, pqj, zj, vj, sj, kj, aj in columns[i + 1 :]:
            append((
                tpi * ppj,
                (base + zj + twice_half * lpt[tj]) * (ppi * ppj),
                (si + ki * ai[tj]) * ppj,
                (sj + kj * aj[ti]) * ppi,
                vi * ppj,
                vj * ppi,
                ki * pqj * (ai[hj] - ai[tj]),
                0,
            ))
        rows.append(tuple(row))
    return tuple(rows)


def resistance_triangle(net: analysis.Network) -> Rows:
    """The point resistance r(x, y) on every unordered edge pair i <= j, as
    ``pair_rows`` lays it out: t = D, no shift, phi = 0 and half = -1, so
    an entry is r's own numerators over D p_i^2 p_j^2 (D p^2 on one edge).
    """
    zeros = (0,) * len(net.edges)
    return pair_rows(net.pinv, net.edges, net.pinv.denominator, 0, -1, zeros, zeros, zeros)


def resistance_point(g: MetrizedGraph, x: GraphPoint | tuple, y: GraphPoint | tuple) -> Fraction:
    """Effective resistance between two arbitrary points of the graph: the
    closed form of their edge pair in the network's resistance triangle at
    their offsets.  With x = X / u on edge i and y = Y / v on edge j it is
    one integer over D (p u v)^2 on one edge and over D (p_i u p_j v)^2 on
    two.
    """
    i, _, X, u = _point_integers(g, x)
    j, _, Y, v = _point_integers(g, y)
    if i > j:
        i, X, u, j, Y, v = j, Y, v, i, X, u
    return pair_value(analysis.network(g).resistance_triangle[i][j - i], X, u, Y, v)


def vertex_formula(div: analysis.DivisorAnalysis) -> tuple[int, tuple[int, ...]]:
    """What every vertex row of ``green_row_at_vertices`` shares, made once
    per divisor from L+ = N / D alone: b = sum_s a_s N_ss and, with the
    weighted row W = sum_s a_s N[s], W_q + N_qq per vertex q.

    ``r_D_at_vertices`` sums the same W, but the vertex-formula check
    compares against values built from r_D, so it keeps a sum of its own:
    sharing r_D's W would let a fault in it cancel from both sides.
    """
    num = div.network.pinv.numerators
    support = [(s, a) for s, a in enumerate(div.divisor.coefficients) if a]
    weighted = [0] * len(num)
    for s, a in support:
        weighted = [w + a * x for w, x in zip(weighted, num[s])]
    b = sum(a * num[s][s] for s, a in support)
    return b, tuple(w + num[q][q] for q, w in enumerate(weighted))


def green_row_at_vertices(
    div: analysis.DivisorAnalysis, p: int, columns: slice = slice(None)
) -> tuple[tuple[int, ...], int]:
    """The Green function between vertex p and every vertex q in
    ``columns``, all by default, from its defining formula, as numerators
    over one denominator.

    (sum_s a_s j_s(p, q) + 4 tau - r(p, q)) / (deg D + 2) - c_mu, read off
    the pseudoinverse with no edge closed form, so it can check them.  With
    L+ = N / D the voltage j_s(p, q) is (N_ss - N_sp - N_sq + N_pq) / D and
    r(p, q) is (N_pp - 2 N_pq + N_qq) / D.  So with b = sum_s a_s N_ss and
    the row W = sum_s a_s N[s], the pair's part is
    b - (W_p + N_pp) - (W_q + N_qq) + (deg D + 2) N_pq over D (deg D + 2).
    The constant 4 tau / (deg D + 2) - c_mu is brought over the same
    denominator times those of tau and c_mu, which need not be the least.
    b and W + diag N are made once per divisor (``vertex_formula``).
    """
    c = div.c_mu  # rejects degree -2 before L+ is built
    tau, scale = div.network.tau, div.divisor.degree + 2
    b, diagonal = div.vertex_formula
    den = div.network.pinv.denominator
    # pair / (D scale) + (4 tau - scale c) / scale, over D scale tau_den c_den
    td, cd = tau.denominator, c.denominator
    unit = td * cd
    base = (b - diagonal[p]) * unit + den * (4 * tau.numerator * cd - scale * c.numerator * td)
    row_p = div.network.pinv.numerators[p][columns]
    numerators = tuple((scale * x - d) * unit + base for x, d in zip(row_p, diagonal[columns]))
    return numerators, den * scale * unit


class EdgeFunction(_Form):
    """A quadratic a2*x^2 + a1*x + a0 on a single edge, held like an
    ``EdgePairFunction``: ``r_D_on_edge`` makes one as a view of r_D's
    integers on that edge, and a value is one Fraction.
    """

    __slots__ = ()
    _indices = ("edge",)
    terms = ("a2", "a1", "a0")

    edge = property(lambda self: self._at[0])
    a2, a1, a0 = map(_coefficient, range(3))

    def __call__(self, x: Fraction) -> Fraction:
        return edge_value(self._held, *x.as_integer_ratio())


def edge_value(held: tuple[int, ...], X: int, u: int) -> Fraction:
    """A one-edge form at x = X / u, an integer over den u^2, from the
    integers ``held`` = (den, a2, a1, a0), the three numerators over den,
    as a divisor analysis holds r_D on each edge."""
    den, a2, a1, a0 = held
    return Fraction((a2 * X + a1 * u) * X + a0 * u * u, den * u * u)


def r_D_at_vertices(div: analysis.DivisorAnalysis) -> tuple[int, ...]:
    """sum_k a_k r(p_k, v) at every vertex v, as numerators over the common
    denominator D of L+.

    With r(k, v) = L+[k][k] - 2 L+[k][v] + L+[v][v] this is
    sum_k a_k L+[k][k] + deg D L+[v][v] - 2 sum_k a_k L+[k][v], so the
    divisor enters through one weighted sum of rows of the integer matrix
    N = D L+.
    """
    num = div.network.pinv.numerators
    support = [(k, a) for k, a in enumerate(div.divisor.coefficients) if a]
    deg = div.divisor.degree
    base = sum(a * num[k][k] for k, a in support)
    weighted = [0] * len(num)
    for k, a in support:
        weighted = [w + a * x for w, x in zip(weighted, num[k])]
    return tuple(base + deg * num[v][v] - 2 * w for v, w in enumerate(weighted))


def r_D_on_edges(div: analysis.DivisorAnalysis) -> tuple[tuple[int, int, int, int], ...]:
    """The divisor-weighted resistance sum_k a_k r(p_k, .) on every edge.

    Each vertex contributes one parabola: r(p_k, .) on edge i has quadratic
    term -w_i and runs from r(p_k, tail) to r(p_k, head), so the sum is
    fixed by its values at the two ends.  On a bridge w_i is zero and each
    slope comes out as +1 or -1.

    Each form is held as (den, a2, a1, a0) with den = D p^2: the
    numerators are -deg W, k p and r_D(tail) p^2.  The slope is k over
    D p, from (deg D (L - r) + r_D(head) - r_D(tail)) / L with
    L - r = (p D - q r) / (q D) in the integers of ``EdgeData``.
    """
    deg = div.divisor.degree
    den = div.network.pinv.denominator
    at = div.r_D_at_vertices
    forms = []
    for tail, head, p, q, r, _, w in div.network.edges:
        k = deg * (p * den - q * r) + q * (at[head] - at[tail])
        pp = p * p
        forms.append((den * pp, -deg * w, k * p, at[tail] * pp))
    return tuple(forms)


def r_D_on_edge(g: MetrizedGraph, divisor: Divisor, i: int) -> EdgeFunction:
    """The divisor-weighted resistance sum_k a_k r(p_k, .) restricted to edge i."""
    div = analysis.network(g).divisor(divisor)
    g._check_edge(i)
    return EdgeFunction._over((i,), div.r_D[i])


def resistance_to_divisor(g: MetrizedGraph, divisor: Divisor, x: GraphPoint | tuple) -> Fraction:
    """sum_k a_k r(p_k, x) evaluated at one point."""
    i, _, X, u = _point_integers(g, x)
    return edge_value(analysis.network(g).divisor(divisor).r_D[i], X, u)


def c_mu(g: MetrizedGraph, divisor: Divisor) -> Fraction:
    """Normalization constant of the admissible measure attached to a divisor."""
    return analysis.network(g).divisor(divisor).c_mu


def c_mu_of(div: analysis.DivisorAnalysis) -> Fraction:
    """c_mu = (8 tau (deg D + 1) + sum_k a_k r_D(p_k)) / (2 (deg D + 2)^2)
    (Zhang 1993), from the integers of tau = t / d and of r_D = R / D at the
    divisor's support: one Fraction, (8 t (deg D + 1) D + d sum_k a_k R_k)
    over 2 d D (deg D + 2)^2.  The degree is checked first, so degree -2
    raises ``BadDegree`` before L+ is built."""
    d = div.divisor
    deg = admissible_degree(div.network.graph, d)
    at = div.r_D_at_vertices
    weighted = sum(a * at[k] for k, a in enumerate(d.coefficients) if a)
    tau, den = div.network.tau, div.network.pinv.denominator
    top = 8 * tau.numerator * (deg + 1) * den + tau.denominator * weighted
    return Fraction(top, 2 * tau.denominator * den * (deg + 2) ** 2)

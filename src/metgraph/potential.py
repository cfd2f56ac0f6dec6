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
difference of two entries of an ``a`` vector.  ``resistance_point`` reads
the pair form off the numerators of ``resistance_numerators`` and the W of
its two edges as one integer, and the divisor's r_D = sum_k a_k r(p_k, .)
is held per edge as an ``EdgeFunction``, three integers over D p^2, so a
point query builds one Fraction, its answer.
The Green function at vertices has a direct formula in L+, tau and c_mu
alone, which ``green_row_at_vertices`` gives one vertex row at a time.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter, itemgetter
from typing import TYPE_CHECKING, NamedTuple

from .analysis import network
from .graph import (
    Divisor,
    GraphPoint,
    MetrizedGraph,
    admissible_degree,
    as_fraction,
    validate_point,
)
from .linalg import resistance_at_vertices

if TYPE_CHECKING:
    from .analysis import DivisorAnalysis, Network


def vertex_resistance(g: MetrizedGraph, p: int, q: int) -> Fraction:
    g._check_vertex(p)
    g._check_vertex(q)
    return resistance_at_vertices(network(g).pinv, p, q)


def tau_constant(g: MetrizedGraph) -> Fraction:
    """The tau constant of the graph, computed once per graph."""
    return network(g).tau


def tau_of(net: Network) -> Fraction:
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


def edge_data(net: Network) -> tuple[EdgeData, ...]:
    den, lp = net.pinv.denominator, net.pinv.numerators
    out = []
    for e in net.graph.edges:
        # L+ is symmetric, so the column difference is a row difference
        a = tuple(x - y for x, y in zip(lp[e.tail], lp[e.head]))
        r = a[e.tail] - a[e.head]
        p, q = e.length.numerator, e.length.denominator
        out.append(EdgeData(e.tail, e.head, p, q, r, a, (p * den - q * r) * q))
    return tuple(out)


def _coefficient(k: int) -> property:
    """A read-only property: coefficient k as a reduced Fraction, made when read."""
    return property(lambda self: Fraction(self._numerators[k], self._denominator))


class _Form:
    """Coefficients held, read-only, as the integers ``numerators`` over one
    positive ``denominator``, which need not be the least.  A coefficient is
    a reduced Fraction built only when read, through ``coefficients()`` or
    its name.  The constructor takes ints, Fractions and ``p/q`` strings;
    equality and hash go by the edge indices and the values, and only
    between forms of one class.  A subclass names its edge indices in
    ``_indices`` and its coefficients in ``terms``.
    """

    __slots__ = ("_denominator", "_numerators")
    _indices: tuple[str, ...]
    terms: tuple[str, ...]

    denominator = property(attrgetter("_denominator"))
    numerators = property(attrgetter("_numerators"))

    def __init__(self, values) -> None:
        coeffs = [as_fraction(c, "coefficient") for c in values]
        den = lcm(*(c.denominator for c in coeffs))
        self._denominator = den
        self._numerators = tuple(c.numerator * (den // c.denominator) for c in coeffs)

    def _at(self) -> tuple[int, ...]:
        return tuple(getattr(self, name) for name in self._indices)

    def coefficients(self) -> tuple[Fraction, ...]:
        den = self._denominator
        return tuple(Fraction(c, den) for c in self._numerators)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self._at() != other._at():
            return False
        den_a, den_b = self._denominator, other._denominator
        if den_a == den_b:
            return self._numerators == other._numerators
        return all(x * den_b == y * den_a for x, y in zip(self._numerators, other._numerators))

    def __hash__(self) -> int:
        # over the least common denominator equal values hold equal integers
        common = gcd(self._denominator, *self._numerators)
        lowest = tuple(c // common for c in self._numerators)
        return hash((self._at(), self._denominator // common, lowest))

    def __repr__(self) -> str:
        fields = [*zip(self._indices, self._at()), *zip(self.terms, self.coefficients())]
        return f"{type(self).__name__}({', '.join(f'{name}={v!r}' for name, v in fields)})"


class EdgePairFunction(_Form):
    """A closed form in x on edge i and y on edge j.

    Coefficients over the basis {1, x, y, x^2, y^2, x*y, |x - y|}, read as
    ``c0`` ... ``cabs``; the absolute-value coefficient can be nonzero only
    when i == j.
    """

    __slots__ = ("_i", "_j")
    _indices = ("i", "j")
    terms = ("c0", "cx", "cy", "cxx", "cyy", "cxy", "cabs")

    i = property(attrgetter("_i"))
    j = property(attrgetter("_j"))
    c0, cx, cy, cxx, cyy, cxy, cabs = map(_coefficient, range(7))

    def __init__(self, i: int, j: int, c0=0, cx=0, cy=0, cxx=0, cyy=0, cxy=0, cabs=0):
        self._i, self._j = i, j
        super().__init__((c0, cx, cy, cxx, cyy, cxy, cabs))

    @classmethod
    def _over(cls, i: int, j: int, den: int, numerators: tuple[int, ...]) -> EdgePairFunction:
        """The seven ``numerators`` over den > 0, taken as they are."""
        entry = cls.__new__(cls)
        entry._i, entry._j, entry._denominator, entry._numerators = i, j, den, numerators
        return entry

    def __call__(self, x: Fraction, y: Fraction) -> Fraction:
        return pair_value((self._denominator, *self._numerators), x, y)


# the seven coefficients (c0, cx, cy, cxx, cyy, cxy, cabs) of z_ji from
# those of z_ij: one closed form with x and y swapped
swap_xy = itemgetter(0, 2, 1, 4, 3, 5, 6)


def pair_value(held: tuple[int, ...], x: Fraction, y: Fraction) -> Fraction:
    """An edge-pair closed form at offsets x and y, from its integers
    ``held`` = (den, c0, cx, cy, cxx, cyy, cxy, cabs), the seven numerators
    over den, as a value matrix holds them."""
    # with x = X / u and y = Y / v the value is an integer over
    # den u^2 v^2; a vertex sits at offset 0 or at the length, so a zero
    # offset is common and its terms are skipped
    den, c0, cx, cy, cxx, cyy, cxy, cabs = held
    X, u = x.as_integer_ratio()
    Y, v = y.as_integer_ratio()
    uu, vv = u * u, v * v
    value = c0 * uu * vv
    if Y:
        value += (cy * v + cyy * Y) * Y * uu
    if X:
        value += ((cx * u + cxx * X) * vv + cxy * Y * u * v) * X
    if cabs:
        value += cabs * abs(X * v - Y * u) * u * v
    return Fraction(value, den * uu * vv)


def resistance_numerators(net: Network, i: int, j: int) -> tuple[int, int, int, int]:
    """The point resistance r(x, y), x on edge i and y on another edge j, as
    integers: the numerators of its coefficients c0, cx, cy and cxy over
    D, D p_i, D p_j and D p_i p_j.  Its x^2 and y^2 coefficients are -w_i
    and -w_j.

    r is quadratic in both offsets, with coefficients read off the vertex
    resistances and voltages: with the voltage j_s(p, q) written v(s, p, q),
    c0 = r(t_i, t_j), cx = 1 - 2 v(t_i, h_i, t_j) / L_i,
    cy = 1 - 2 v(t_j, t_i, h_j) / L_j and
    cxy = 2 (v(t_j, t_i, h_j) - v(t_j, h_i, h_j)) / (L_i L_j), where
    v(t_i, h_i, t_j) = a_i[t_i] - a_i[t_j], v(t_j, t_i, h_j) =
    a_j[t_j] - a_j[t_i], and the cross term is a_i[h_j] - a_i[t_j], each
    over D.
    """
    den, lp = net.pinv.denominator, net.pinv.numerators
    ti, _, pi, qi, _, ai, _ = net.edges[i]
    tj, hj, pj, qj, _, aj, _ = net.edges[j]
    return (
        lp[ti][ti] - 2 * lp[ti][tj] + lp[tj][tj],
        den * pi - 2 * qi * (ai[ti] - ai[tj]),
        den * pj - 2 * qj * (aj[tj] - aj[ti]),
        2 * qi * qj * (ai[hj] - ai[tj]),
    )


def resistance_point(g: MetrizedGraph, x: GraphPoint | tuple, y: GraphPoint | tuple) -> Fraction:
    """Effective resistance between two arbitrary points of the graph.

    On one edge r is |x - y| - w (x - y)^2; on two edges it is the
    quadratic of ``resistance_numerators``.  Neither form depends on
    whether an edge is a bridge: there r(tail, head) equals the length, so
    the quadratic terms vanish and the voltages supply the piecewise-linear
    slopes.  With x = X / u on edge i, y = Y / v on edge j and
    w = W / (D p^2), r is one integer over D (p u v)^2 on one edge and over
    D (p_i u p_j v)^2 on two.
    """
    i, x = validate_point(g, x)
    j, y = validate_point(g, y)
    net = network(g)
    X, u = x.as_integer_ratio()
    Y, v = y.as_integer_ratio()
    ei, den = net.edges[i], net.pinv.denominator
    if i == j:
        # x - y = d / (u v)
        d, uv, pp = X * v - Y * u, u * v, ei.p * ei.p
        return Fraction(den * pp * abs(d) * uv - ei.w * d * d, den * pp * uv * uv)
    ej = net.edges[j]
    c0, cx, cy, cxy = resistance_numerators(net, i, j)
    # c0 + cx x / p_i + cy y / p_j + cxy x y / (p_i p_j) - W_i (x / p_i)^2
    # - W_j (y / p_j)^2 over D, with x / p_i = X / a and y / p_j = Y / b
    a, b = ei.p * u, ej.p * v
    xb, ya = X * b, Y * a
    value = (c0 * a * b + cx * xb + cy * ya) * a * b + (cxy * ya - ei.w * xb) * xb - ej.w * ya * ya
    return Fraction(value, den * a * a * b * b)


class VertexFormula(NamedTuple):
    """What every vertex row of ``green_row_at_vertices`` shares, made
    once per divisor: with W = sum_s a_s N[s], ``diagonal`` holds
    W_q + N_qq per vertex q, ``base`` is b = sum_s a_s N_ss brought over
    the row's denominator ``den`` with the constant added, and ``scale``
    and ``unit`` are deg D + 2 and the product of the denominators of tau
    and c_mu."""

    diagonal: tuple[int, ...]
    base: int
    scale: int
    unit: int
    den: int


def vertex_formula(div: DivisorAnalysis) -> VertexFormula:
    """The parts of ``green_row_at_vertices`` that do not depend on the row."""
    c = div.c_mu  # rejects degree -2 before L+ is built
    tau, divisor = div.network.tau, div.divisor
    den, num = div.network.pinv.denominator, div.network.pinv.numerators
    support = [(s, a) for s, a in enumerate(divisor.coefficients) if a]
    weighted = [0] * len(num)
    for s, a in support:
        weighted = [w + a * x for w, x in zip(weighted, num[s])]
    scale, b = divisor.degree + 2, sum(a * num[s][s] for s, a in support)
    # pair / (D scale) + (4 tau - scale c) / scale, over D scale tau_den c_den
    td, cd = tau.denominator, c.denominator
    shift = den * (4 * tau.numerator * cd - scale * c.numerator * td)
    diagonal = tuple(w + num[q][q] for q, w in enumerate(weighted))
    return VertexFormula(diagonal, b * td * cd + shift, scale, td * cd, den * scale * td * cd)


def green_row_at_vertices(div: DivisorAnalysis, p: int) -> tuple[tuple[int, ...], int]:
    """The Green function between vertex p and every vertex q, from its
    defining formula, as numerators over one denominator.

    (sum_s a_s j_s(p, q) + 4 tau - r(p, q)) / (deg D + 2) - c_mu, read off
    the pseudoinverse with no edge closed form, so it can check them.  With
    L+ = N / D the voltage j_s(p, q) is (N_ss - N_sp - N_sq + N_pq) / D and
    r(p, q) is (N_pp - 2 N_pq + N_qq) / D.  So with b = sum_s a_s N_ss and
    the row W = sum_s a_s N[s], the pair's part is
    b - (W_p + N_pp) - (W_q + N_qq) + (deg D + 2) N_pq over D (deg D + 2).
    The constant 4 tau / (deg D + 2) - c_mu is brought over the same
    denominator, which need not be the least.  All but row p of N is made
    once per divisor (``vertex_formula``).
    """
    diagonal, base, scale, unit, den = div.vertex_formula
    base -= diagonal[p] * unit
    row_p = div.network.pinv.numerators[p]
    numerators = tuple((scale * x - d) * unit + base for x, d in zip(row_p, diagonal))
    return numerators, den


class EdgeFunction(_Form):
    """A quadratic a2*x^2 + a1*x + a0 on a single edge, held like an
    ``EdgePairFunction``: ``r_D_on_edges`` builds r_D's over D p^2, and a
    value is one Fraction.
    """

    # weakly referable, so a caller can see a cached form freed with its network
    __slots__ = ("_edge", "__weakref__")
    _indices = ("edge",)
    terms = ("a2", "a1", "a0")

    edge = property(attrgetter("_edge"))
    a2, a1, a0 = map(_coefficient, range(3))

    def __init__(self, edge: int, a2, a1, a0):
        self._edge = edge
        super().__init__((a2, a1, a0))

    @classmethod
    def _over(cls, edge: int, den: int, numerators: tuple[int, int, int]) -> EdgeFunction:
        """The numerators of a2, a1 and a0 over den > 0, taken as they are."""
        form = cls.__new__(cls)
        form._edge, form._denominator, form._numerators = edge, den, numerators
        return form

    def __call__(self, x: Fraction) -> Fraction:
        # with x = X / u the value is an integer over den u^2
        a2, a1, a0 = self._numerators
        X, u = x.as_integer_ratio()
        return Fraction((a2 * X + a1 * u) * X + a0 * u * u, self._denominator * u * u)


def r_D_at_vertices(div: DivisorAnalysis) -> tuple[int, ...]:
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


def r_D_on_edges(div: DivisorAnalysis) -> tuple[EdgeFunction, ...]:
    """The divisor-weighted resistance sum_k a_k r(p_k, .) on every edge.

    Each vertex contributes one parabola: r(p_k, .) on edge i has quadratic
    term -w_i and runs from r(p_k, tail) to r(p_k, head), so the sum is
    fixed by its values at the two ends.  On a bridge w_i is zero and each
    slope comes out as +1 or -1.

    Each form is held in integers over D p^2: the numerators are -deg W,
    k p and r_D(tail) p^2.  The slope is k over D p, from
    (deg D (L - r) + r_D(head) - r_D(tail)) / L with
    L - r = (p D - q r) / (q D) in the integers of ``EdgeData``.
    """
    deg = div.divisor.degree
    den = div.network.pinv.denominator
    at = div.r_D_at_vertices
    forms = []
    for i, e in enumerate(div.network.edges):
        k = deg * (e.p * den - e.q * e.r) + e.q * (at[e.head] - at[e.tail])
        pp = e.p * e.p
        forms.append(EdgeFunction._over(i, den * pp, (-deg * e.w, k * e.p, at[e.tail] * pp)))
    return tuple(forms)


def r_D_on_edge(g: MetrizedGraph, divisor: Divisor, i: int) -> EdgeFunction:
    """The divisor-weighted resistance sum_k a_k r(p_k, .) restricted to edge i."""
    div = network(g).divisor(divisor)
    g._check_edge(i)
    return div.r_D[i]


def resistance_to_divisor(g: MetrizedGraph, divisor: Divisor, x: GraphPoint | tuple) -> Fraction:
    """sum_k a_k r(p_k, x) evaluated at one point."""
    x = validate_point(g, x)
    return network(g).divisor(divisor).r_D[x.edge](x.offset)


def c_mu(g: MetrizedGraph, divisor: Divisor) -> Fraction:
    """Normalization constant of the admissible measure attached to a divisor."""
    return network(g).divisor(divisor).c_mu


def c_mu_of(div: DivisorAnalysis) -> Fraction:
    d = div.divisor
    deg = admissible_degree(div.network.graph, d)
    at = div.r_D_at_vertices
    weighted = sum(a * at[k] for k, a in enumerate(d.coefficients) if a)
    pairs = Fraction(weighted, div.network.pinv.denominator)
    return (8 * div.network.tau * (deg + 1) + pairs) / (2 * (deg + 2) ** 2)

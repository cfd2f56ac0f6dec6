"""Tau constant, point resistances and divisor resistance functions.

The resistance between arbitrary points reduces to vertex-level data: the
pseudoinverse supplies resistances and voltages at vertices, and on each
edge pair the function extends as one closed form.  The same forms hold
whether or not an edge is a bridge, so no bridge bookkeeping enters the
computation; the connectivity matrix in ``graph`` is only reported.

The forms read data that ``analysis.Network`` computes once per graph: the
pseudoinverse L+ and, per edge, its ends, length, the vertex resistance r
between its ends, w = (L - r) / L^2 and the vector
a[s] = L+[s, tail] - L+[s, head].  Each voltage the pair form needs is then
one difference of two entries of an ``a`` vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import TYPE_CHECKING, NamedTuple

from .analysis import network
from .graph import (
    Divisor,
    GraphPoint,
    MetrizedGraph,
    admissible_degree,
    validate_point,
)
from .linalg import resistance_at_vertices, voltage_at_vertices

if TYPE_CHECKING:
    from .analysis import DivisorAnalysis, Network


def vertex_resistance(g: MetrizedGraph, p: int, q: int) -> Fraction:
    return resistance_at_vertices(network(g).pinv, p, q)


def tau_constant(g: MetrizedGraph) -> Fraction:
    """The tau constant of the graph, computed once per graph."""
    return network(g).tau


_ZERO = Fraction(0)
_ONE = Fraction(1)


def tau_of(net: Network) -> Fraction:
    """The tau constant, as one sum over the edges plus the normalized trace.

    With d the diagonal of L+ and, per edge e, its length L_e and the vertex
    resistance r_e between its ends (Cinkir 2011),
    tau = sum_e [(L_e - r_e)^2 + 3 (d_tail - d_head)^2] / (12 L_e) + tr(L+) / n.

    This is the Laplacian form -sum_e l_e (1/l_e + r_e)^2 / 12
    + sum_q sum_s l_qs d_q d_s / 4 + tr(L+) / n, with l the Laplacian and
    l_e = -1/L_e its entry for edge e: the double sum is the quadratic form
    d^T L d, which equals sum_e (d_tail - d_head)^2 / L_e.  It reads only
    L+, so it needs none of the per-edge ``a`` vectors.
    """
    lp = net.lplus
    total = _ZERO
    for e in net.graph.edges:
        dt, dh = lp[e.tail][e.tail], lp[e.head][e.head]
        r = dt - 2 * lp[e.tail][e.head] + dh
        total += ((e.length - r) ** 2 + 3 * (dt - dh) ** 2) / (12 * e.length)
    return total + net.pinv.trace() / len(lp)


class EdgeData(NamedTuple):
    """One edge as the resistance forms read it."""

    tail: int
    head: int
    length: Fraction
    r: Fraction
    w: Fraction
    a: tuple[Fraction, ...]


def edge_data(net: Network) -> tuple[EdgeData, ...]:
    lp = net.lplus
    out = []
    for e in net.graph.edges:
        # L+ is symmetric, so the column difference is a row difference
        a = tuple(x - y for x, y in zip(lp[e.tail], lp[e.head]))
        r = a[e.tail] - a[e.head]
        out.append(EdgeData(e.tail, e.head, e.length, r, (e.length - r) / e.length**2, a))
    return tuple(out)


@dataclass(frozen=True)
class EdgePairFunction:
    """A closed form in x on edge i and y on edge j.

    Coefficients over the basis {1, x, y, x^2, y^2, x*y, |x - y|}; the
    absolute-value coefficient can be nonzero only when i == j.
    """

    i: int
    j: int
    c0: Fraction = _ZERO
    cx: Fraction = _ZERO
    cy: Fraction = _ZERO
    cxx: Fraction = _ZERO
    cyy: Fraction = _ZERO
    cxy: Fraction = _ZERO
    cabs: Fraction = _ZERO

    def __call__(self, x: Fraction, y: Fraction) -> Fraction:
        value = (
            self.c0
            + self.cx * x
            + self.cy * y
            + self.cxx * x * x
            + self.cyy * y * y
            + self.cxy * x * y
        )
        if self.cabs:
            value += self.cabs * abs(x - y)
        return value

    def coefficients(self) -> tuple[Fraction, ...]:
        return (self.c0, self.cx, self.cy, self.cxx, self.cyy, self.cxy, self.cabs)


def resistance_form(net: Network, i: int, j: int) -> EdgePairFunction:
    """Closed form of the point resistance r(x, y), x on edge i, y on edge j.

    On one edge r is |x - y| minus a parabola in x - y; on two edges it is
    quadratic in both offsets, with coefficients read off the vertex
    resistances and voltages.  Neither form depends on whether an edge is
    a bridge: there r(tail, head) equals the length, so the quadratic terms
    vanish and the voltages supply the piecewise-linear slopes.  With the
    voltage j_s(p, q) written v(s, p, q), the voltages are
    v(t_i, h_i, t_j) = a_i[t_i] - a_i[t_j], v(t_j, t_i, h_j) =
    a_j[t_j] - a_j[t_i], and the cross term
    v(t_j, t_i, h_j) - v(t_j, h_i, h_j) = a_i[h_j] - a_i[t_j].
    """
    edges, lp = net.edges, net.lplus
    ti, hi, li, _, wi, ai = edges[i]
    if i == j:
        return EdgePairFunction(i, j, cxx=-wi, cyy=-wi, cxy=2 * wi, cabs=_ONE)
    tj, hj, lj, _, wj, aj = edges[j]
    return EdgePairFunction(
        i,
        j,
        c0=lp[ti][ti] - 2 * lp[ti][tj] + lp[tj][tj],
        cx=(li - 2 * (ai[ti] - ai[tj])) / li,
        cy=(lj - 2 * (aj[tj] - aj[ti])) / lj,
        cxx=-wi,
        cyy=-wj,
        cxy=2 * (ai[hj] - ai[tj]) / (li * lj),
    )


def resistance_point(g: MetrizedGraph, x: GraphPoint | tuple, y: GraphPoint | tuple) -> Fraction:
    """Effective resistance between two arbitrary points of the graph."""
    x = validate_point(g, x)
    y = validate_point(g, y)
    return resistance_form(network(g), x.edge, y.edge)(x.offset, y.offset)


def green_at_vertices(div: DivisorAnalysis, p: int, q: int) -> Fraction:
    """The Green function between vertices p and q, from its defining formula.

    (sum_s a_s j_s(p, q) + 4 tau - r(p, q)) / (deg D + 2) - c_mu, read off
    the pseudoinverse with no edge closed form, so it can check them.
    """
    c = div.c_mu  # rejects degree -2 before L+ is built
    lplus, tau, divisor = div.network.pinv, div.network.tau, div.divisor
    coeffs = enumerate(divisor.coefficients)
    weighted = sum((a * voltage_at_vertices(lplus, s, p, q) for s, a in coeffs if a), _ZERO)
    return (weighted + 4 * tau - resistance_at_vertices(lplus, p, q)) / (divisor.degree + 2) - c


@dataclass(frozen=True)
class EdgeFunction:
    """A quadratic a2*x^2 + a1*x + a0 on a single edge."""

    edge: int
    a2: Fraction
    a1: Fraction
    a0: Fraction

    def __call__(self, x: Fraction) -> Fraction:
        return self.a2 * x * x + self.a1 * x + self.a0


def r_D_at_vertices(div: DivisorAnalysis) -> tuple[Fraction, ...]:
    """sum_k a_k r(p_k, v) at every vertex v.

    With r(k, v) = L+[k][k] - 2 L+[k][v] + L+[v][v] this is
    sum_k a_k L+[k][k] + deg D L+[v][v] - 2 sum_k a_k L+[k][v], so the
    divisor enters through one weighted sum of L+ rows, summed in integers
    over the common denominator of L+.
    """
    lp = div.network.lplus
    den = lcm(*(x.denominator for row in lp for x in row))
    num = [[x.numerator * (den // x.denominator) for x in row] for row in lp]
    support = [(k, a) for k, a in enumerate(div.divisor.coefficients) if a]
    deg = div.divisor.degree
    base = sum(a * num[k][k] for k, a in support)
    weighted = [0] * len(num)
    for k, a in support:
        weighted = [w + a * x for w, x in zip(weighted, num[k])]
    return tuple(
        Fraction(base + deg * num[v][v] - 2 * w, den) for v, w in enumerate(weighted)
    )


def r_D_on_edges(div: DivisorAnalysis) -> tuple[EdgeFunction, ...]:
    """The divisor-weighted resistance sum_k a_k r(p_k, .) on every edge.

    Each vertex contributes one parabola: r(p_k, .) on edge i has quadratic
    term -w_i and runs from r(p_k, tail) to r(p_k, head), so the sum is
    fixed by its values at the two ends.  On a bridge w_i is zero and each
    slope comes out as +1 or -1.
    """
    deg = div.divisor.degree
    at = div.r_D_at_vertices
    return tuple(
        EdgeFunction(
            i,
            -deg * e.w,
            (deg * (e.length - e.r) + at[e.head] - at[e.tail]) / e.length,
            at[e.tail],
        )
        for i, e in enumerate(div.network.edges)
    )


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
    pairs = sum((a * at[k] for k, a in enumerate(d.coefficients) if a), _ZERO)
    return (8 * div.network.tau * (deg + 1) + pairs) / (2 * (deg + 2) ** 2)


def tau_parts(div: DivisorAnalysis) -> tuple[Fraction, tuple[EdgeFunction, ...]]:
    """The pieces of the tau function: the constant 4 tau / (deg + 2) - c_mu
    and, per edge, r_D divided by 2 (deg + 2)."""
    scale = admissible_degree(div.network.graph, div.divisor) + 2
    shift = 4 * div.network.tau / scale - div.c_mu
    halves = tuple(
        EdgeFunction(f.edge, f.a2 / (2 * scale), f.a1 / (2 * scale), f.a0 / (2 * scale))
        for f in div.r_D
    )
    return shift, halves


def tau_form(div: DivisorAnalysis, i: int, j: int) -> EdgePairFunction:
    """Tau function restricted to x on edge i, y on edge j.

    Quadratic in x and in y separately, with no mixed or |x - y| term.
    """
    shift, halves = div.tau_parts
    fi, fj = halves[i], halves[j]
    return EdgePairFunction(
        i, j, c0=shift + fi.a0 + fj.a0, cx=fi.a1, cy=fj.a1, cxx=fi.a2, cyy=fj.a2
    )


def tau_function_pair(g: MetrizedGraph, divisor: Divisor, i: int, j: int) -> EdgePairFunction:
    """The tau function on edges i and j; see ``tau_form``."""
    div = network(g).divisor(divisor)
    g._check_edge(i)
    g._check_edge(j)
    return tau_form(div, i, j)

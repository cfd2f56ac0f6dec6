"""Tau constant, point resistances and divisor resistance functions.

The resistance between arbitrary points reduces to vertex-level data: the
pseudoinverse supplies resistances and voltages at vertices, and on each
edge pair the function extends as one closed form.  The same forms hold
whether or not an edge is a bridge, so no bridge bookkeeping enters the
computation; the connectivity matrix in ``graph`` is only reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .graph import (
    Divisor,
    GraphPoint,
    MetrizedGraph,
    admissible_degree,
    check_divisor,
    validate_point,
)
from .linalg import laplacian, pinv, resistance_at_vertices, voltage_at_vertices


def vertex_resistance(g: MetrizedGraph, p: int, q: int) -> Fraction:
    return resistance_at_vertices(pinv(g), p, q)


def vertex_voltage(g: MetrizedGraph, s: int, p: int, q: int) -> Fraction:
    return voltage_at_vertices(pinv(g), s, p, q)


@cache
def tau_constant(g: MetrizedGraph) -> Fraction:
    """The tau constant, assembled from the Laplacian and its pseudoinverse.

    Three pieces: a per-edge sum weighted by the off-diagonal Laplacian
    entries, a double vertex sum over diagonal pseudoinverse entries (the
    diagonal q = s terms included), and the normalized trace.
    """
    lap = laplacian(g)
    lp = pinv(g)
    n = g.n_vertices
    edge_sum = Fraction(0)
    for e in g.edges:
        l_pq = lap[e.tail, e.head]
        r_pq = resistance_at_vertices(lp, e.tail, e.head)
        edge_sum += l_pq * (1 / l_pq + r_pq) ** 2
    vertex_sum = Fraction(0)
    for q in range(n):
        for s in range(n):
            vertex_sum += lap[q, s] * lp[q, q] * lp[s, s]
    return -edge_sum / 12 + vertex_sum / 4 + lp.trace() / n


_ZERO = Fraction(0)


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


def resistance_function_pair(g: MetrizedGraph, i: int, j: int) -> EdgePairFunction:
    """Closed form of the point resistance r(x, y), x on edge i, y on edge j.

    On one edge r is |x - y| minus a parabola in x - y; on two edges it is
    quadratic in both offsets, with coefficients read off the vertex
    resistances and voltages.  Neither form depends on whether an edge is
    a bridge: there r(tail, head) equals the length, so the quadratic terms
    vanish and the voltages supply the piecewise-linear slopes.
    """
    g._check_edge(i)
    g._check_edge(j)
    lp = pinv(g)
    r = lambda a, b: resistance_at_vertices(lp, a, b)
    v = lambda s, a, b: voltage_at_vertices(lp, s, a, b)
    ei, ej = g.edges[i], g.edges[j]
    li, lj = ei.length, ej.length
    wi = (li - r(ei.tail, ei.head)) / li**2
    if i == j:
        return EdgePairFunction(i, j, cxx=-wi, cyy=-wi, cxy=2 * wi, cabs=Fraction(1))
    cross = v(ej.tail, ei.tail, ej.head) - v(ej.tail, ei.head, ej.head)
    return EdgePairFunction(
        i,
        j,
        c0=r(ei.tail, ej.tail),
        cx=(li - 2 * v(ei.tail, ei.head, ej.tail)) / li,
        cy=(lj - 2 * v(ej.tail, ei.tail, ej.head)) / lj,
        cxx=-wi,
        cyy=-(lj - r(ej.tail, ej.head)) / lj**2,
        cxy=2 * cross / (li * lj),
    )


def resistance_point(g: MetrizedGraph, x: GraphPoint | tuple, y: GraphPoint | tuple) -> Fraction:
    """Effective resistance between two arbitrary points of the graph."""
    x = validate_point(g, x)
    y = validate_point(g, y)
    return resistance_function_pair(g, x.edge, y.edge)(x.offset, y.offset)


@dataclass(frozen=True)
class EdgeFunction:
    """A quadratic a2*x^2 + a1*x + a0 on a single edge."""

    edge: int
    a2: Fraction
    a1: Fraction
    a0: Fraction

    def __call__(self, x: Fraction) -> Fraction:
        return self.a2 * x * x + self.a1 * x + self.a0


@cache
def r_D_on_edge(g: MetrizedGraph, divisor: Divisor, i: int) -> EdgeFunction:
    """The divisor-weighted resistance sum_k a_k r(p_k, .) restricted to edge i.

    Each vertex contributes one explicit parabola; on a bridge its quadratic
    term vanishes and the slope comes out as +1 or -1.
    """
    check_divisor(g, divisor)
    g._check_edge(i)
    lp = pinv(g)
    r = lambda a, b: resistance_at_vertices(lp, a, b)
    e = g.edges[i]
    r_pq = r(e.tail, e.head)
    a2 = a1 = a0 = Fraction(0)
    for k, ak in enumerate(divisor.coefficients):
        if ak == 0:
            continue
        a2 += ak * (-(e.length - r_pq) / e.length**2)
        a1 += ak * (e.length - r_pq + r(k, e.head) - r(k, e.tail)) / e.length
        a0 += ak * r(k, e.tail)
    return EdgeFunction(i, a2, a1, a0)


def resistance_to_divisor(g: MetrizedGraph, divisor: Divisor, x: GraphPoint | tuple) -> Fraction:
    """sum_k a_k r(p_k, x) evaluated at one point."""
    x = validate_point(g, x)
    return r_D_on_edge(g, check_divisor(g, divisor), x.edge)(x.offset)


@cache
def c_mu(g: MetrizedGraph, divisor: Divisor) -> Fraction:
    """Normalization constant of the admissible measure attached to a divisor."""
    deg = admissible_degree(g, divisor)
    support = divisor.support()
    pairs = Fraction(0)
    for s in support:
        for t in support:
            pairs += divisor[s] * divisor[t] * vertex_resistance(g, s, t)
    return (8 * tau_constant(g) * (deg + 1) + pairs) / (2 * (deg + 2) ** 2)


def tau_function_pair(g: MetrizedGraph, divisor: Divisor, i: int, j: int) -> EdgePairFunction:
    """Tau function restricted to x on edge i, y on edge j.

    Quadratic in x and in y separately, with no mixed or |x - y| term.
    """
    deg = admissible_degree(g, divisor)
    fi = r_D_on_edge(g, divisor, i)
    fj = r_D_on_edge(g, divisor, j)
    scale = deg + 2
    return EdgePairFunction(
        i,
        j,
        c0=(4 * tau_constant(g) + (fi.a0 + fj.a0) / 2) / scale - c_mu(g, divisor),
        cx=fi.a1 / (2 * scale),
        cy=fj.a1 / (2 * scale),
        cxx=fi.a2 / (2 * scale),
        cyy=fj.a2 / (2 * scale),
    )

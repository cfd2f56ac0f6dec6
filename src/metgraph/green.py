"""The admissible Green function as a matrix of closed-form edge-pair entries.

For a divisor D of degree other than -2 the Green function g(x, y) is, on
each ordered pair of edges, a polynomial in the two offsets plus possibly
one |x - y| term (diagonal entries only).  The value matrix collects these
closed forms; evaluating g anywhere afterwards costs a handful of rational
operations and no linear algebra.  The matrix is built once per graph and
divisor, from the per-edge data of ``analysis.Network``, so the loop over
edge pairs does no cache lookups.

Each entry is the tau function minus half the point resistance, combined in
integers: the divisor's tau parts are numerators over one denominator T,
and r's coefficients are the numerators of
``potential.resistance_numerators`` over the common denominator D of L+, of
which T is a multiple.  An entry holds its seven coefficients as integers
over T p_i^2 p_j^2 (over T p_i^2 on the diagonal), so the matrix is built
and checked without a Fraction; one is made only when a coefficient or a
value is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .analysis import network
from .errors import MetgraphError
from .graph import Divisor, GraphPoint, MetrizedGraph, validate_point
from .potential import EdgePairFunction, resistance_numerators, same_values

if TYPE_CHECKING:
    from .analysis import DivisorAnalysis, Network

__all__ = [
    "EdgePairFunction",
    "ValueMatrix",
    "evaluate_green",
    "value_matrix",
]


@dataclass(frozen=True)
class ValueMatrix:
    """All edge-pair closed forms of one Green function."""

    divisor: Divisor
    entries: tuple[tuple[EdgePairFunction, ...], ...]

    @property
    def size(self) -> int:
        return len(self.entries)

    def entry(self, i: int, j: int) -> EdgePairFunction:
        if not (0 <= i < self.size and 0 <= j < self.size):
            raise MetgraphError(f"entry ({i}, {j}) outside a {self.size}-edge matrix")
        return self.entries[i][j]

    def evaluate(self, x: GraphPoint, y: GraphPoint) -> Fraction:
        return self.entries[x.edge][y.edge](x.offset, y.offset)


def _entry(net: Network, div: DivisorAnalysis, i: int, j: int) -> EdgePairFunction:
    """The closed form for one ordered edge pair: the tau function on the
    pair minus half the point resistance.  Neither part depends on whether
    an edge is a bridge; the connectivity matrix is only reported.

    On one edge r has only the terms -w x^2 - w y^2 + 2 w x y + |x - y|,
    so there g's x y and |x - y| coefficients are -w and -1/2.  With
    w = W / (D p^2) both quadratic terms are W w_scale over T p^2."""
    t = div.tau_parts
    ei = net.edges[i]
    pi = ei.p
    half = t.r_half
    if i == j:
        pp = pi * pi
        cx, cxx = t.a1[i] * pi, ei.w * t.w_scale
        return EdgePairFunction._over(
            i,
            j,
            t.den * pp,
            (
                (t.shift + 2 * t.a0[i]) * pp,
                cx,
                cx,
                cxx,
                cxx,
                -2 * half * ei.w,
                -half * net.pinv.denominator * pp,
            ),
        )
    ej = net.edges[j]
    pj = ej.p
    c0, cx, cy, cxy = resistance_numerators(net, i, j)
    return EdgePairFunction._over(
        i,
        j,
        t.den * pi * pi * pj * pj,
        (
            (t.shift + t.a0[i] + t.a0[j] - half * c0) * pi * pi * pj * pj,
            (t.a1[i] - half * cx) * pi * pj * pj,
            (t.a1[j] - half * cy) * pi * pi * pj,
            ei.w * t.w_scale * pj * pj,
            ej.w * t.w_scale * pi * pi,
            -half * cxy * pi * pj,
            0,
        ),
    )


def value_matrix(g: MetrizedGraph, divisor: Divisor) -> ValueMatrix:
    """All edge-pair entries of the Green function, built once per graph and
    divisor."""
    return network(g).divisor(divisor).value_matrix


def build_value_matrix(net: Network, div: DivisorAnalysis) -> ValueMatrix:
    """All edge-pair entries, with the symmetry g(x, y) = g(y, x) checked
    coefficientwise before the matrix is handed out."""
    m = net.graph.n_edges
    entries = tuple(tuple(_entry(net, div, i, j) for j in range(m)) for i in range(m))
    for i in range(m):
        for j in range(i, m):
            zij, zji = entries[i][j], entries[j][i]
            c0, cx, cy, cxx, cyy, cxy, cabs = zji.numerators
            mirrored = (c0, cy, cx, cyy, cxx, cxy, cabs)
            if not same_values(zij.denominator, zij.numerators, zji.denominator, mirrored):
                raise MetgraphError(f"asymmetric entry pair ({i}, {j})")
    return ValueMatrix(div.divisor, entries)


def evaluate_green(
    g: MetrizedGraph, divisor: Divisor, x: GraphPoint | tuple, y: GraphPoint | tuple
) -> Fraction:
    """Green function value at two points, via the cached value matrix."""
    x = validate_point(g, x)
    y = validate_point(g, y)
    return value_matrix(g, divisor).evaluate(x, y)

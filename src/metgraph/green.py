"""The admissible Green function as a matrix of closed-form edge-pair entries.

For a divisor D of degree other than -2 the Green function g(x, y) is, on
each ordered pair of edges, a polynomial in the two offsets plus possibly
one |x - y| term (diagonal entries only).  The value matrix collects these
closed forms; evaluating g anywhere afterwards costs a handful of rational
operations and no linear algebra.  The matrix is built once per graph and
divisor, from the per-edge data of ``analysis.Network``, so the loop over
edge pairs does no cache lookups.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .analysis import network
from .errors import MetgraphError
from .graph import Divisor, GraphPoint, MetrizedGraph, validate_point
from .potential import EdgePairFunction, resistance_form, tau_form

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
        return self.entries[i][j]

    def evaluate(self, x: GraphPoint, y: GraphPoint) -> Fraction:
        return self.entries[x.edge][y.edge](x.offset, y.offset)


def _entry(net: Network, div: DivisorAnalysis, i: int, j: int) -> EdgePairFunction:
    """The closed form for one ordered edge pair: the tau function on the
    pair minus half the point resistance.  Neither part depends on whether
    an edge is a bridge; the connectivity matrix is only reported."""
    tau = tau_form(div, i, j)
    r = resistance_form(net, i, j)
    return EdgePairFunction(
        i, j, *(t - c / 2 for t, c in zip(tau.coefficients(), r.coefficients()))
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
            mirrored = (zji.c0, zji.cy, zji.cx, zji.cyy, zji.cxx, zji.cxy, zji.cabs)
            if zij.coefficients() != mirrored:
                raise MetgraphError(f"asymmetric entry pair ({i}, {j})")
    return ValueMatrix(div.divisor, entries)


def evaluate_green(
    g: MetrizedGraph, divisor: Divisor, x: GraphPoint | tuple, y: GraphPoint | tuple
) -> Fraction:
    """Green function value at two points, via the cached value matrix."""
    x = validate_point(g, x)
    y = validate_point(g, y)
    return value_matrix(g, divisor).evaluate(x, y)

"""Subdivision oracle: recompute point values with fresh vertex-level algebra.

Turning the points of interest into vertices of a refined graph makes every
quantity a plain pseudoinverse computation there.  No edge-restricted
closed forms are involved, so agreement with the closed-form path checks
the latter against an independent derivation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import NotAdequate, PointOutOfRange
from .graph import (
    Divisor,
    GraphPoint,
    MetrizedGraph,
    PointRelabeling,
    admissible_degree,
    check_divisor,
    make_adequate,
    validate_adequate,
    validate_point,
    vertex_at,
)
from .graph import _split_edges
from .linalg import pinv, resistance_at_vertices
from .potential import c_mu, green_at_vertices, tau_constant


@dataclass(frozen=True)
class SubdividedGraph:
    """A refinement of a graph whose requested points became vertices."""

    original: MetrizedGraph
    graph: MetrizedGraph
    relabeling: PointRelabeling

    def locate(self, pt: GraphPoint | tuple) -> GraphPoint:
        """Coordinates of an original point inside the refinement."""
        return self.relabeling.point(validate_point(self.original, pt))

    def vertex_index(self, pt: GraphPoint | tuple) -> int:
        """The refinement vertex an original point became."""
        v = vertex_at(self.graph, self.locate(pt))
        if v is None:
            raise PointOutOfRange(f"point {pt} is not a vertex of the refinement")
        return v

    def lift_divisor(self, divisor: Divisor) -> Divisor:
        """The same divisor over the refinement's vertex list."""
        check_divisor(self.original, divisor)
        pad = self.graph.n_vertices - self.original.n_vertices
        return Divisor(divisor.coefficients + (0,) * pad)


def subdivide_at_points(
    g: MetrizedGraph, points: Iterable[GraphPoint | tuple]
) -> SubdividedGraph:
    """Refine the graph so every listed point is a vertex.

    Points already at vertices cause no cut.  Splitting an adequate graph
    stays adequate; when the input was not adequate the refinement is
    repaired afterwards, which only adds further vertices.
    """
    cuts: dict[int, set[Fraction]] = {}
    for pt in points:
        pt = validate_point(g, pt)
        if vertex_at(g, pt) is None:
            cuts.setdefault(pt.edge, set()).add(pt.offset)
    refined, relabeling = _split_edges(g, cuts)
    if not validate_adequate(refined):
        if validate_adequate(g):
            raise NotAdequate("splitting an adequate graph broke adequacy")
        refined, repair = make_adequate(refined)
        relabeling = relabeling.then(repair)
    return SubdividedGraph(g, refined, relabeling)


def oracle_resistance(
    g: MetrizedGraph, x: GraphPoint | tuple, y: GraphPoint | tuple
) -> Fraction:
    """Resistance between two points, via subdivision and the pseudoinverse."""
    sub = subdivide_at_points(g, [x, y])
    lp = pinv(sub.graph)
    return resistance_at_vertices(lp, sub.vertex_index(x), sub.vertex_index(y))


def oracle_green(
    g: MetrizedGraph,
    divisor: Divisor,
    x: GraphPoint | tuple,
    y: GraphPoint | tuple,
) -> Fraction:
    """Green function value between two points, via subdivision.

    Evaluates the defining vertex formula on the refined graph; the tau
    constant and normalization constant are recomputed there, which is
    legitimate because both are invariant under subdivision.
    """
    admissible_degree(g, divisor)  # fail before any subdivision
    sub = subdivide_at_points(g, [x, y])
    refined = sub.graph
    lifted = sub.lift_divisor(divisor)
    lp, tau = pinv(refined), tau_constant(refined)
    u, v = sub.vertex_index(x), sub.vertex_index(y)
    return green_at_vertices(lp, lifted, tau, c_mu(refined, lifted), u, v)

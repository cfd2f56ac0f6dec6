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

from .errors import PointOutOfRange
from .graph import (
    Divisor,
    GraphPoint,
    MetrizedGraph,
    PointRelabeling,
    adequate_refinement,
    admissible_degree,
    check_divisor,
    validate_point,
    vertex_at,
)
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

    Points already at vertices cause no cut.  The point cuts and the cuts
    of ``make_adequate`` are made in one split, so an adequate graph gains
    only the listed points and any other graph comes out adequate too.
    """
    cuts: dict[int, set[Fraction]] = {}
    for pt in points:
        pt = validate_point(g, pt)
        if vertex_at(g, pt) is None:
            cuts.setdefault(pt.edge, set()).add(pt.offset)
    return SubdividedGraph(g, *adequate_refinement(g, cuts))


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

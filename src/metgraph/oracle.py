"""Subdivision oracle: recompute point values with fresh vertex-level algebra.

Turning the points of interest into vertices of a refined graph makes every
quantity a plain pseudoinverse computation there.  No edge-restricted
closed forms are involved, so agreement with the closed-form path checks
the latter against an independent derivation.  Each refinement carries its
own ``Network``, never entered in the ``analysis.network`` cache, so its
pseudoinverse, tau and c_mu are recomputed there and freed with it.

Values are read off a refinement only by ``SubdividedGraph.resistance``
and ``SubdividedGraph.green``, which find each point's vertex through the
relabeling, whose ``point`` validates the point against the original graph.
``oracle_resistance`` and ``oracle_green`` build one refinement per call.
The CLI's ``oracle`` command answers a whole points file through
``_pair_values``, which packs the pairs' distinct cut sets into batches
whose refinement has at most ``cli.MAX_VERTICES`` vertices, answers every
pair of a batch from that one refinement through the same two readers, and
keeps only one refinement alive at a time.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator

from .analysis import Network
from .errors import PointOutOfRange
from .graph import (
    Divisor,
    GraphPoint,
    MetrizedGraph,
    PointRelabeling,
    Record,
    _adequate_cuts,
    adequate_refinement,
    check_divisor,
    validate_point,
    vertex_at,
)
from .linalg import resistance_at_vertices
from .potential import green_row_at_vertices


class SubdividedGraph(Record):
    """A refinement of a graph whose requested points became vertices,
    with the refinement's own analysis, ``network``, which is no field:
    equality, hash and repr ignore it.

    ``resistance`` and ``green`` are the oracle's only readers of values;
    ``vertex_index`` maps a point through ``relabeling.point``, which
    validates it against ``original``."""

    __slots__ = ("original", "graph", "relabeling", "network")
    _fields = ("original", "graph", "relabeling")

    original: MetrizedGraph
    graph: MetrizedGraph
    relabeling: PointRelabeling
    network: Network

    def __init__(self, original: MetrizedGraph, graph: MetrizedGraph, relabeling: PointRelabeling):
        self._assign(original, graph, relabeling)
        object.__setattr__(self, "network", Network(graph))

    def vertex_index(self, pt: GraphPoint | tuple) -> int:
        """The refinement vertex an original point became."""
        v = vertex_at(self.graph, self.relabeling.point(pt))
        if v is None:
            raise PointOutOfRange(f"point {pt} is not a vertex of the refinement")
        return v

    def lift_divisor(self, divisor: Divisor) -> Divisor:
        """The same divisor over the refinement's vertex list."""
        check_divisor(self.original, divisor)
        pad = self.graph.n_vertices - self.original.n_vertices
        return Divisor(divisor.coefficients + (0,) * pad)

    def resistance(self, x: GraphPoint | tuple, y: GraphPoint | tuple) -> Fraction:
        """Resistance between two original points, read off the refinement's L+."""
        u, v = self.vertex_index(x), self.vertex_index(y)
        return resistance_at_vertices(self.network.pinv, u, v)

    def green(self, divisor: Divisor, x: GraphPoint | tuple, y: GraphPoint | tuple) -> Fraction:
        """Green function value between two original points, by the vertex formula."""
        div = self.network.divisor(self.lift_divisor(divisor))
        u, v = self.vertex_index(x), self.vertex_index(y)
        (numerator,), den = green_row_at_vertices(div, u, slice(v, v + 1))
        return Fraction(numerator, den)


def subdivide_at_points(
    g: MetrizedGraph, points: Iterable[GraphPoint | tuple]
) -> SubdividedGraph:
    """Refine the graph so every listed point is a vertex.

    Points already at vertices cause no cut.  The point cuts and the cuts
    of ``make_adequate`` are made in one split, so an adequate graph gains
    only the listed points and any other graph comes out adequate too.
    """
    return SubdividedGraph(g, *adequate_refinement(g, _cuts(g, points)))


def _cuts(g: MetrizedGraph, points: Iterable[GraphPoint | tuple]) -> dict[int, set[Fraction]]:
    """The interior offsets, per edge, at which the points cut ``g``; each
    point is validated in turn, and one at a vertex cuts nothing."""
    cuts: dict[int, set[Fraction]] = {}
    for pt in points:
        pt = validate_point(g, pt)
        if vertex_at(g, pt) is None:
            cuts.setdefault(pt.edge, set()).add(pt.offset)
    return cuts


def _pair_values(
    g: MetrizedGraph,
    divisor: Divisor,
    pairs: Iterable[tuple[GraphPoint | tuple, GraphPoint | tuple]],
    max_vertices: int,
) -> list[tuple[Fraction, Fraction]]:
    """``(oracle_resistance, oracle_green)`` of every pair (x, y), in input
    order.

    Every point is validated first, in order, x before y.  The distinct sets
    of cuts the pairs make are packed, in order of first appearance, into
    batches whose refinement has at most ``max_vertices`` vertices; a cut
    set past the bound on its own is a batch of its own.  All pairs of a
    batch are answered from one refinement, and each refinement is dropped
    before the next is built, so at most one, with its L+, is alive at a
    time.
    """
    pairs = [(validate_point(g, x), validate_point(g, y)) for x, y in pairs]
    cut_sets: dict[frozenset[GraphPoint], list[int]] = {}
    for k, pair in enumerate(pairs):
        key = frozenset(pt for pt in pair if vertex_at(g, pt) is None)
        cut_sets.setdefault(key, []).append(k)
    values: dict[int, tuple[Fraction, Fraction]] = {}
    for members in _batches(g, cut_sets, max_vertices):
        values.update(zip(members, _batch_values(g, divisor, [pairs[k] for k in members])))
    return [values[k] for k in range(len(pairs))]


def _batches(
    g: MetrizedGraph, cut_sets: dict[frozenset[GraphPoint], list[int]], max_vertices: int
) -> Iterator[list[int]]:
    """The members of ``cut_sets`` in batches, in order: a new batch starts
    where the next cut set would give a batch's refinement more than
    ``max_vertices`` vertices, which are the graph's own plus one per
    distinct cut, the cuts that make it adequate included."""
    adequacy = {(i, x) for i, offsets in _adequate_cuts(g, {}).items() for x in offsets}
    batch: list[int] = []
    cuts = adequacy
    for key, members in cut_sets.items():
        grown = cuts | key
        if batch and g.n_vertices + len(grown) > max_vertices:
            yield batch
            batch, grown = [], adequacy | key
        batch += members
        cuts = grown
    if batch:
        yield batch


def _batch_values(
    g: MetrizedGraph, divisor: Divisor, pairs: list[tuple[GraphPoint, GraphPoint]]
) -> list[tuple[Fraction, Fraction]]:
    """``(oracle_resistance, oracle_green)`` of validated pairs, all read
    off one refinement at their points through its ``resistance`` and
    ``green``, the readers the per-pair oracle uses; the refinement is freed
    on return."""
    # going through the public function keeps one call per refinement
    # visible to a wrapper around it
    sub = subdivide_at_points(g, (pt for pair in pairs for pt in pair))
    return [(sub.resistance(x, y), sub.green(divisor, x, y)) for x, y in pairs]


def oracle_resistance(g: MetrizedGraph, x: GraphPoint | tuple, y: GraphPoint | tuple) -> Fraction:
    """Resistance between two points, via subdivision and the pseudoinverse."""
    return subdivide_at_points(g, [x, y]).resistance(x, y)


def oracle_green(
    g: MetrizedGraph, divisor: Divisor, x: GraphPoint | tuple, y: GraphPoint | tuple
) -> Fraction:
    """Green function value between two points, via subdivision; tau and c_mu
    are recomputed on the refinement's own analysis, which is legitimate
    because both are invariant under subdivision."""
    return subdivide_at_points(g, [x, y]).green(divisor, x, y)

"""One analysis object per graph: everything derived from it, computed once.

``network(g)`` is the package's only cache.  It is keyed by the graph's
value, so equal graphs share one ``Network``, and it holds the networks of
the four graphs last used: a fifth graph evicts the one used longest ago,
and with it everything derived from that graph, so memory stays bounded
however many graphs a long-running process visits.  A command uses one
graph, and the benchmark's workloads at most two at a time.
``clear_caches`` empties the cache together with every derived quantity.
A ``Network`` computes each piece on first use: the Laplacian and its
pseudoinverse, the tau constant and the per-edge data the resistance form
reads.  L+ is kept once, as integers over its least common denominator
(``linalg.RationalMatrix``), which every formula reads.
Divisor-dependent data (``r_D`` at every vertex and on every edge, ``c_mu``,
the value matrix, held as one tuple of integers per unordered edge pair,
the row-independent parts of the vertex formula) hangs off a
``DivisorAnalysis``, and a ``Network`` holds one: that of the divisor last
asked for.  Every command and workload asks about one divisor per graph at
a time, so memory stays bounded however many divisors a long-running
process visits; a caller that alternates two divisors on one graph
rebuilds each analysis on every switch.  Once either consistency check has
run on the value matrix, the ``DivisorAnalysis`` also keeps that matrix's
canonical vertex-pair values, which both checks read: n^2 cells for n
vertices, (p, q) and (q, p) one object.

The formulas stay in the modules that own them; this module only decides
what is kept and for how long.  Those modules reach ``network`` at import
time, so the formulas are imported here on first use; ``graph`` imports
nothing from here.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING

from .graph import Divisor, MetrizedGraph, check_divisor

if TYPE_CHECKING:
    from .green import ValueMatrix
    from .linalg import RationalMatrix
    from .potential import EdgeData, EdgeFunction, VertexFormula


@lru_cache(maxsize=4)
def network(g: MetrizedGraph) -> Network:
    """The analysis of ``g``, shared by every graph equal to it while it is
    among the four graphs last used."""
    return Network(g)


class Network:
    """Lazily computed, never changing data of one graph."""

    def __init__(self, g: MetrizedGraph):
        self.graph = g
        self._divisor: DivisorAnalysis | None = None

    @cached_property
    def laplacian(self) -> RationalMatrix:
        from .linalg import laplacian_matrix

        return laplacian_matrix(self.graph)

    @cached_property
    def pinv(self) -> RationalMatrix:
        from .linalg import pseudo_inverse

        return pseudo_inverse(self.laplacian)

    @cached_property
    def tau(self) -> Fraction:
        from .potential import tau_of

        return tau_of(self)

    @cached_property
    def edges(self) -> tuple[EdgeData, ...]:
        from .potential import edge_data

        return edge_data(self)

    def divisor(self, d: Divisor) -> DivisorAnalysis:
        """The analysis of ``d`` on this graph.

        The network holds one analysis, that of the divisor last asked
        for, and hands it out again while the divisor asked for is that
        one or equal to it (the oracle lifts an equal divisor per pair).
        Any other divisor is checked and replaces it, which frees the old
        analysis at once; a caller that alternates two divisors rebuilds
        each on every switch.
        """
        child = self._divisor
        if child is None or (child.divisor is not d and child.divisor != d):
            check_divisor(self.graph, d)
            child = self._divisor = DivisorAnalysis(self, d)
        return child


class DivisorAnalysis:
    """What one divisor adds to a network, each piece computed once.

    Its network holds it only until another divisor is asked for.  It
    computes from its network, so reach it through ``network(g)`` rather
    than keep it beyond the network's life.
    """

    def __init__(self, net: Network, divisor: Divisor):
        self.divisor = divisor
        # The network holds its analysis; a strong reference back would
        # form a cycle that outlives ``network.cache_clear`` or the switch
        # to another divisor until the garbage collector runs.
        self.network = weakref.proxy(net)

    @cached_property
    def r_D_at_vertices(self) -> tuple[int, ...]:
        from .potential import r_D_at_vertices

        return r_D_at_vertices(self)

    @cached_property
    def r_D(self) -> tuple[EdgeFunction, ...]:
        """``r_D`` restricted to every edge, in edge order."""
        from .potential import r_D_on_edges

        return r_D_on_edges(self)

    @cached_property
    def c_mu(self) -> Fraction:
        from .potential import c_mu_of

        return c_mu_of(self)

    @cached_property
    def vertex_formula(self) -> VertexFormula:
        from .potential import vertex_formula

        return vertex_formula(self)

    @cached_property
    def value_matrix(self) -> ValueMatrix:
        from .green import build_value_matrix

        return build_value_matrix(self.network, self)

    @cached_property
    def vertex_table(self) -> list[list[tuple[int, int]]]:
        """``value_matrix`` at the canonical descriptions of every vertex
        pair, the table both consistency checks compare against."""
        from .invariants import _vertex_table

        return _vertex_table(self.network.graph, self.value_matrix)

"""One analysis object per graph: everything derived from it, computed once.

``network(g)`` is the package's only cache.  It is keyed by the graph's
value, so equal graphs share one ``Network``, and it holds the networks of
the four graphs last used: a fifth graph evicts the one used longest ago,
and with it everything derived from that graph, so memory stays bounded
however many graphs a long-running process visits.  A command uses one
graph, and the benchmark's workloads at most two at a time.
``clear_caches`` empties the cache together with every derived quantity.
A ``Network`` computes each piece on first use: the Laplacian and its
pseudoinverse, the tau constant, the per-edge data the resistance form
reads and, on the first point read, the resistance triangle, r's closed
form on every unordered edge pair, the one quadratic piece of the Green
function and free of the divisor.  L+ is kept once, as integers over its
least common denominator (``linalg.RationalMatrix``), which every formula
reads.
Divisor-dependent data hangs off a ``DivisorAnalysis``, and a ``Network``
holds one: that of the divisor last asked for.  Its pieces are O(m):
``r_D`` at every vertex and on every edge, ``c_mu`` and the Green
function's constant C, all held as integers (r_D on an edge as the tuple
(den, a2, a1, a0), the one-edge form of a triangle entry), which with the
triangle give every point value.  The value matrix it hands out makes its
m^2 rows, one tuple of integers per unordered edge pair, only when they are
first read, so a divisor switch builds nothing quadratic.  For the checks it also keeps the
vertex formula's b = sum_s a_s N_ss and W_q + N_qq per vertex, with
W = sum_s a_s N[s] summed apart from r_D's, so that the check it serves
shares no sum with the matrix it checks.  Every command and workload asks
about one divisor per graph at a time, so memory stays bounded however many
divisors a long-running process visits; a caller that alternates two
divisors on one graph rebuilds each analysis on every switch.  Once either
consistency check has run on the value matrix, the ``DivisorAnalysis`` also
keeps the representation check's report and the table of canonical
vertex-pair values its walk filled, n^2 cells, (p, q) and (q, p) one
object.

The formulas stay in the modules that own them; this module only decides
what is kept and for how long.  The cache calls each formula through its
module (``linalg.pseudo_inverse``, ``potential.vertex_formula``, ...), so it
runs whatever that module holds at call time, and the formula modules reach
the cache only as ``analysis.network``.  ``metgraph`` imports this module
first, and ``graph`` imports nothing from here.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from functools import cached_property, lru_cache

from . import green, invariants, linalg, potential
from .graph import Divisor, MetrizedGraph, check_divisor


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
    def laplacian(self) -> linalg.RationalMatrix:
        return linalg.laplacian_matrix(self.graph)

    @cached_property
    def pinv(self) -> linalg.RationalMatrix:
        return linalg.pseudo_inverse(self.laplacian)

    @cached_property
    def tau(self) -> Fraction:
        return potential.tau_of(self)

    @cached_property
    def edges(self) -> tuple[potential.EdgeData, ...]:
        return potential.edge_data(self)

    @cached_property
    def resistance_triangle(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """r(x, y) on every unordered edge pair, made on the first point read."""
        return potential.resistance_triangle(self)

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
        return potential.r_D_at_vertices(self)

    @cached_property
    def r_D(self) -> tuple[tuple[int, int, int, int], ...]:
        """``r_D`` restricted to every edge, in edge order, as (den, a2, a1, a0)."""
        return potential.r_D_on_edges(self)

    @cached_property
    def c_mu(self) -> Fraction:
        return potential.c_mu_of(self)

    @cached_property
    def constant(self) -> tuple[int, int, int]:
        """C = 4 tau / s - c_mu as (c, d, s): C = c / d, s = deg D + 2."""
        return green.constant_of(self)

    @cached_property
    def vertex_formula(self) -> tuple[int, tuple[int, ...]]:
        return potential.vertex_formula(self)

    @cached_property
    def value_matrix(self) -> green.ValueMatrix:
        """The value matrix, its rows made when first read."""
        return green.value_matrix_of(self)

    @cached_property
    def representation_walk(self) -> tuple[invariants.CheckReport, list[list[tuple[int, int]]]]:
        """The representation report of ``value_matrix`` and the table of
        canonical vertex-pair values its walk filled."""
        return invariants._representation_report(self.network.graph, self.value_matrix)

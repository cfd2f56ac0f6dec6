"""Epsilon invariant and whole-graph consistency checks.

Epsilon comes out of two unrelated computations: summing Green values at
the divisor's support against a base point, and a closed form in the tau
constant and pairwise resistances.  Agreement of the two is itself a strong
correctness check, so neither route is ever expressed through the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .analysis import network
from .graph import (
    Divisor,
    MetrizedGraph,
    admissible_degree,
    check_divisor,
    point_of_vertex,
    representations,
)
from .green import ValueMatrix, value_matrix
from .potential import green_at_vertices, tau_constant, vertex_resistance


def epsilon_via_green(g: MetrizedGraph, divisor: Divisor, base: int | None = None) -> Fraction:
    """Epsilon from Green values: (deg D + 2) sum_k a_k g(p, p_k) plus the
    resistance of the base point against the divisor.

    The result does not depend on the base vertex; by default the tail of
    edge 0 is used.
    """
    deg = admissible_degree(g, divisor)
    if base is None:
        base = g.edges[0].tail
    g._check_vertex(base)
    matrix = value_matrix(g, divisor)
    base_pt = point_of_vertex(g, base)
    green_sum = Fraction(0)
    resist_sum = Fraction(0)
    for k, ak in enumerate(divisor.coefficients):
        if ak == 0:
            continue
        green_sum += ak * matrix.evaluate(base_pt, point_of_vertex(g, k))
        resist_sum += ak * vertex_resistance(g, base, k)
    return (deg + 2) * green_sum + resist_sum


def epsilon_via_resistance(g: MetrizedGraph, divisor: Divisor) -> Fraction:
    """Epsilon from the closed form in tau and pairwise resistances."""
    deg = admissible_degree(g, divisor)
    support = divisor.support()
    quad = Fraction(0)
    for k in support:
        for l in support:
            quad += divisor[k] * divisor[l] * vertex_resistance(g, k, l)
    return (4 * tau_constant(g) * deg + quad) / (deg + 2)


class CheckMismatch(NamedTuple):
    location: str
    expected: Fraction
    got: Fraction


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one consistency check: comparison count plus every failure."""

    name: str
    comparisons: int
    mismatches: tuple[CheckMismatch, ...]

    @property
    def passed(self) -> bool:
        return not self.mismatches


def check_representation_independence(
    g: MetrizedGraph, divisor: Divisor, matrix: ValueMatrix | None = None
) -> CheckReport:
    """Vertex values must not depend on which incident edge describes them.

    For every vertex pair whose first member has valence at least two, all
    combinations of edge descriptions are evaluated and compared.
    """
    if matrix is None:
        matrix = value_matrix(g, check_divisor(g, divisor))
    reps = [representations(g, v) for v in range(g.n_vertices)]
    comparisons = 0
    mismatches = []
    for p, reps_p in enumerate(reps):
        if len(reps_p) < 2:
            continue
        for q, reps_q in enumerate(reps):
            expected = matrix.evaluate(reps_p[0], reps_q[0])
            for rp in reps_p:
                for rq in reps_q:
                    comparisons += 1
                    got = matrix.evaluate(rp, rq)
                    if got != expected:
                        mismatches.append(
                            CheckMismatch(
                                f"g(v{p}, v{q}) via z[{rp.edge}][{rq.edge}]",
                                expected,
                                got,
                            )
                        )
    return CheckReport("representation independence", comparisons, tuple(mismatches))


def check_vertex_formula(
    g: MetrizedGraph, divisor: Divisor, matrix: ValueMatrix | None = None
) -> CheckReport:
    """Closed forms must reproduce the direct pseudoinverse formula at vertices.

    The direct value is (sum_s a_s j_s(p, q) + 4 tau - r(p, q)) / (deg + 2)
    minus the normalization constant, computed without any edge functions
    by ``potential.green_at_vertices``.
    """
    if matrix is None:
        matrix = value_matrix(g, divisor)
    div = network(g).divisor(divisor)
    points = [point_of_vertex(g, v) for v in range(g.n_vertices)]
    comparisons = 0
    mismatches = []
    for p, rp in enumerate(points):
        for q, rq in enumerate(points):
            comparisons += 1
            direct = green_at_vertices(div, p, q)
            got = matrix.evaluate(rp, rq)
            if got != direct:
                mismatches.append(CheckMismatch(f"g(v{p}, v{q})", direct, got))
    return CheckReport("vertex formula", comparisons, tuple(mismatches))

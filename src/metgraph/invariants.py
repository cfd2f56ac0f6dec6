"""Epsilon invariant and whole-graph consistency checks.

Epsilon comes out of two unrelated computations: summing Green values at
the divisor's support against a base point, and a closed form in the tau
constant and pairwise resistances.  Agreement of the two is itself a strong
correctness check, so neither route is ever expressed through the other.

The two consistency checks test a value matrix and read nothing of how it
was built.  The representation check reads only the entries' coefficients:
it evaluates each entry at its four corners in integers and compares every
corner with the value at the canonical descriptions of its two vertices,
which ``EdgePairFunction.__call__`` gives.  The vertex-formula check
compares that call at every vertex pair with ``green_at_vertices``, which
reads L+, tau and c_mu and no per-edge data or closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm
from typing import NamedTuple

from .analysis import network
from .errors import MetgraphError
from .graph import (
    Divisor,
    MetrizedGraph,
    admissible_degree,
    check_divisor,
    point_of_vertex,
    representations,
)
from .green import ValueMatrix, value_matrix
from .potential import EdgePairFunction, green_at_vertices, tau_constant, vertex_resistance


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


def _corner_numerators(
    entry: EdgePairFunction, li: Fraction, lj: Fraction
) -> tuple[int, tuple[int, int, int, int]]:
    """An entry's values at its corners (0, 0), (L_i, 0), (0, L_j) and
    (L_i, L_j), as integer numerators over one denominator.

    It reads the entry's coefficients, not how they were built: over their
    lcm M they are integers C, and with x = X / u, y = Y / v each value is
    C0 u^2 v^2 + Cx X u v^2 + Cy Y u^2 v + Cxx X^2 v^2 + Cyy Y^2 u^2
    + Cxy X Y u v + Cabs |X v - Y u| u v over M u^2 v^2.
    """
    coeffs = entry.coefficients()
    m = lcm(*[c.denominator for c in coeffs])
    c0, cx, cy, cxx, cyy, cxy, cabs = [c.numerator * (m // c.denominator) for c in coeffs]
    u, v = li.denominator, lj.denominator
    uu, vv, uv = u * u, v * v, u * v
    values = []
    for x in (0, li.numerator):
        for y in (0, lj.numerator):
            values.append(
                c0 * uu * vv
                + (cx * u + cxx * x) * x * vv
                + (cy * v + cyy * y) * y * uu
                + (cxy * x * y + cabs * abs(x * v - y * u)) * uv
            )
    return m * uu * vv, tuple(values)


def _check_matrix(g: MetrizedGraph, divisor: Divisor, matrix: ValueMatrix | None) -> ValueMatrix:
    """The value matrix to check: ``matrix`` if it is the one of ``g`` and
    ``divisor``, built when None; the divisor is checked either way."""
    check_divisor(g, divisor)
    if matrix is None:
        return value_matrix(g, divisor)
    if matrix.size != g.n_edges:
        raise MetgraphError(
            f"value matrix has {matrix.size} edges but the graph has {g.n_edges}"
        )
    if matrix.divisor != divisor:
        raise MetgraphError("value matrix belongs to another divisor")
    return matrix


def check_representation_independence(
    g: MetrizedGraph, divisor: Divisor, matrix: ValueMatrix | None = None
) -> CheckReport:
    """Vertex values must not depend on which incident edge describes them.

    For every vertex pair whose first member has valence at least two, all
    combinations of edge descriptions are compared with the canonical one.
    Each combination is one corner of one entry, so the entries are walked
    once, each read at its four corners in integers; a Fraction is built
    only for a mismatch, and mismatches are reported in vertex-pair order.
    """
    matrix = _check_matrix(g, divisor, matrix)
    reps = [representations(g, v) for v in range(g.n_vertices)]
    expected = [
        [matrix.evaluate(reps_p[0], reps_q[0]).as_integer_ratio() for reps_q in reps]
        if len(reps_p) > 1
        else None
        for reps_p in reps
    ]
    comparisons = 0
    mismatches = []
    for i, ei in enumerate(g.edges):
        for j, ej in enumerate(g.edges):
            den, values = _corner_numerators(matrix.entries[i][j], ei.length, ej.length)
            ends = product(((0, ei.tail), (1, ei.head)), ((0, ej.tail), (1, ej.head)))
            for ((a, p), (b, q)), num in zip(ends, values):
                row = expected[p]
                if row is None:
                    continue
                comparisons += 1
                want, over = row[q]
                if num * over != want * den:
                    location = f"g(v{p}, v{q}) via z[{i}][{j}]"
                    found = CheckMismatch(location, Fraction(want, over), Fraction(num, den))
                    mismatches.append(((p, q, i, a, j, b), found))
    # the keys are unique: order by vertex pair, then by the two descriptions
    ordered = tuple(m for _, m in sorted(mismatches))
    return CheckReport("representation independence", comparisons, ordered)


def check_vertex_formula(
    g: MetrizedGraph, divisor: Divisor, matrix: ValueMatrix | None = None
) -> CheckReport:
    """Closed forms must reproduce the direct pseudoinverse formula at vertices.

    The direct value is (sum_s a_s j_s(p, q) + 4 tau - r(p, q)) / (deg + 2)
    minus the normalization constant, computed without any edge functions
    by ``potential.green_at_vertices``.
    """
    matrix = _check_matrix(g, divisor, matrix)
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

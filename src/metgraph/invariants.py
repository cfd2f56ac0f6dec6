"""Epsilon invariant and whole-graph consistency checks.

Epsilon comes out of two unrelated computations: summing Green values at
the divisor's support against a base point, and a closed form in the tau
constant and pairwise resistances.  Agreement of the two is itself a strong
correctness check, so neither route is ever expressed through the other.

The two consistency checks test a value matrix and read nothing of how it
was built: only the integers each entry holds, the edge lengths and
``green_ratio_at_vertices``, which reads L+, tau and c_mu and no per-edge
data or closed form.  Both evaluate the entries themselves, in integers,
and build a Fraction only for a mismatch.  Both compare against the value
at the canonical descriptions of each vertex pair, so they share one table
of those values.  The representation check evaluates each entry at its
four corners and compares every corner with that table; the
vertex-formula check compares the table with the direct formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import TYPE_CHECKING, NamedTuple

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
from .potential import (
    EdgePairFunction,
    green_ratio_at_vertices,
    tau_constant,
    vertex_resistance,
)

if TYPE_CHECKING:
    from .analysis import DivisorAnalysis


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


def _numerators(
    entry: EdgePairFunction, u: int, xs: tuple[int, ...], v: int, ys: tuple[int, ...]
) -> tuple[int, list[int]]:
    """An entry's values at x = X / u and y = Y / v, for every X in ``xs``
    and Y in ``ys``, as integer numerators over one denominator.

    It reads the integers the entry holds, not how they were built: with
    C its numerators over E, each value is C0 u^2 v^2 + Cx X u v^2
    + Cy Y u^2 v + Cxx X^2 v^2 + Cyy Y^2 u^2 + Cxy X Y u v
    + Cabs |X v - Y u| u v over E u^2 v^2.
    """
    c0, cx, cy, cxx, cyy, cxy, cabs = entry.numerators
    uu, vv, uv = u * u, v * v, u * v
    base = c0 * uu * vv
    values = [
        base
        + (cx * u + cxx * x) * x * vv
        + (cy * v + cyy * y) * y * uu
        + (cxy * x * y + cabs * abs(x * v - y * u)) * uv
        for x in xs
        for y in ys
    ]
    return entry.denominator * uu * vv, values


def _vertex_table(g: MetrizedGraph, matrix: ValueMatrix) -> list[list[tuple[int, int]]]:
    """The matrix's value at the canonical descriptions of every vertex
    pair, as (numerator, denominator)."""
    points = [point_of_vertex(g, v) for v in range(g.n_vertices)]
    table = []
    for x in points:
        row = matrix.entries[x.edge]
        u, xs = x.offset.denominator, (x.offset.numerator,)
        values = []
        for y in points:
            den, (num,) = _numerators(row[y.edge], u, xs, y.offset.denominator, (y.offset.numerator,))
            values.append((num, den))
        table.append(values)
    return table


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
    return _representation_report(g, matrix, _vertex_table(g, matrix))


def check_vertex_formula(
    g: MetrizedGraph, divisor: Divisor, matrix: ValueMatrix | None = None
) -> CheckReport:
    """Closed forms must reproduce the direct pseudoinverse formula at vertices.

    The direct value is (sum_s a_s j_s(p, q) + 4 tau - r(p, q)) / (deg + 2)
    minus the normalization constant, computed without any edge functions
    by ``potential.green_ratio_at_vertices``.  Values are compared by
    cross-multiplication.
    """
    matrix = _check_matrix(g, divisor, matrix)
    return _vertex_formula_report(network(g).divisor(divisor), _vertex_table(g, matrix))


def _check_reports(g: MetrizedGraph, divisor: Divisor) -> tuple[CheckReport, CheckReport]:
    """Both checks of the value matrix of ``g`` and ``divisor``, on one
    table of canonical vertex-pair values."""
    matrix = _check_matrix(g, divisor, None)
    table = _vertex_table(g, matrix)
    return (
        _representation_report(g, matrix, table),
        _vertex_formula_report(network(g).divisor(divisor), table),
    )


def _representation_report(
    g: MetrizedGraph, matrix: ValueMatrix, table: list[list[tuple[int, int]]]
) -> CheckReport:
    valence = [len(representations(g, v)) for v in range(g.n_vertices)]
    comparisons = 0
    mismatches = []
    for i, ei in enumerate(g.edges):
        li = ei.length
        for j, ej in enumerate(g.edges):
            lj = ej.length
            den, values = _numerators(
                matrix.entries[i][j],
                li.denominator,
                (0, li.numerator),
                lj.denominator,
                (0, lj.numerator),
            )
            ends = product(((0, ei.tail), (1, ei.head)), ((0, ej.tail), (1, ej.head)))
            for ((a, p), (b, q)), num in zip(ends, values):
                if valence[p] < 2:
                    continue
                comparisons += 1
                want, over = table[p][q]
                if num * over != want * den:
                    location = f"g(v{p}, v{q}) via z[{i}][{j}]"
                    found = CheckMismatch(location, Fraction(want, over), Fraction(num, den))
                    mismatches.append(((p, q, i, a, j, b), found))
    # the keys are unique: order by vertex pair, then by the two descriptions
    ordered = tuple(m for _, m in sorted(mismatches))
    return CheckReport("representation independence", comparisons, ordered)


def _vertex_formula_report(
    div: DivisorAnalysis, table: list[list[tuple[int, int]]]
) -> CheckReport:
    mismatches = []
    for p, row in enumerate(table):
        for q, (num, den) in enumerate(row):
            want, over = green_ratio_at_vertices(div, p, q)
            if num * over != want * den:
                found = CheckMismatch(f"g(v{p}, v{q})", Fraction(want, over), Fraction(num, den))
                mismatches.append(found)
    return CheckReport("vertex formula", len(table) ** 2, tuple(mismatches))

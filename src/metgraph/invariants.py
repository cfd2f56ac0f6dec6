"""Epsilon invariant and whole-graph consistency checks.

Epsilon comes out of two unrelated computations: summing Green values at
the divisor's support against a base point, and a closed form in the tau
constant and pairwise resistances.  Agreement of the two is itself a strong
correctness check, so neither route is ever expressed through the other.

The two consistency checks test a value matrix and read nothing of how it
was built: only the integers it holds per edge pair, the edge lengths and
``green_row_at_vertices``, which reads L+, tau and c_mu and no per-edge
data or closed form.  Both evaluate the entries themselves, in integers,
and build a Fraction only for a mismatch.  A vertex sits at an edge's end,
so every value either reads is a corner of a stored entry, given by one
evaluator, ``_corners``, from its integers.  Both compare against the
value at the canonical descriptions of each vertex pair, one table built
by ``_vertex_table``.  For the network's own value matrix, the matrix
``value_matrix(g, divisor)`` returns, that table is kept on its
``DivisorAnalysis`` as ``vertex_table``, so the two checks build it once
between them; any other matrix, even an equal copy, gets a table of its
own, built for each check, and checking it builds no matrix of the
network's.  The representation check compares every corner of every entry
with that table; the vertex-formula check compares it, row by row, with
the direct formula.

A value matrix holds z_ij for i <= j only, z_ji being z_ij with x and y
swapped, and each diagonal entry is symmetric in x and y, so corner (a, b)
of z_ij is also corner (b, a) of z_ji: each stored entry is read once, at
its four corners, and the table's cells (p, q) and (q, p) are one.  A pair
that fails a comparison goes through the per-entry comparison, and that
alone builds every mismatch, so counts, mismatches and their order are
those of the entry-by-entry walk.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .analysis import network
from .errors import MetgraphError
from .graph import (
    Divisor,
    MetrizedGraph,
    Record,
    admissible_degree,
    point_of_vertex,
)
from .green import ValueMatrix, value_matrix
from .potential import green_row_at_vertices, tau_constant

if TYPE_CHECKING:
    from .analysis import DivisorAnalysis


def epsilon_via_green(g: MetrizedGraph, divisor: Divisor, base: int | None = None) -> Fraction:
    """Epsilon from Green values: (deg D + 2) sum_k a_k g(p, p_k) plus the
    resistance of the base point against the divisor.

    The result does not depend on the base vertex; by default the tail of
    edge 0 is used.  The Green values come from the value matrix, the
    resistance from L+ = N / D alone: sum_k a_k r(p, p_k) is
    deg D N_pp + sum_k a_k (N_kk - 2 N_pk) over D, summed in integers.
    """
    deg = admissible_degree(g, divisor)
    if base is None:
        base = g.edges[0].tail
    g._check_vertex(base)
    matrix = value_matrix(g, divisor)
    base_pt = point_of_vertex(g, base)
    support = [(k, a) for k, a in enumerate(divisor.coefficients) if a]
    green_sum = Fraction(0)
    for k, ak in support:
        green_sum += ak * matrix.evaluate(base_pt, point_of_vertex(g, k))
    lplus = network(g).pinv
    num = lplus.numerators
    row = num[base]
    resist = deg * row[base] + sum(a * (num[k][k] - 2 * row[k]) for k, a in support)
    return (deg + 2) * green_sum + Fraction(resist, lplus.denominator)


def epsilon_via_resistance(g: MetrizedGraph, divisor: Divisor) -> Fraction:
    """Epsilon from the closed form in tau and pairwise resistances; with
    L+ = N / D, sum_k sum_l a_k a_l r(k, l) is summed in integers, as
    2 (deg D sum_k a_k N_kk - sum_k sum_l a_k a_l N_kl) / D."""
    deg = admissible_degree(g, divisor)
    support = [(k, a) for k, a in enumerate(divisor.coefficients) if a]
    lplus = network(g).pinv
    num = lplus.numerators
    diagonal = sum(a * num[k][k] for k, a in support)
    cross = sum(a * sum(b * num[k][l] for l, b in support) for k, a in support)
    quad = Fraction(2 * (deg * diagonal - cross), lplus.denominator)
    return (4 * tau_constant(g) * deg + quad) / (deg + 2)


class CheckMismatch(NamedTuple):
    location: str
    expected: Fraction
    got: Fraction


class CheckReport(Record):
    """Outcome of one consistency check: comparison count plus every failure."""

    __slots__ = ("name", "comparisons", "mismatches")
    _fields = ("name", "comparisons", "mismatches")

    name: str
    comparisons: int
    mismatches: tuple[CheckMismatch, ...]

    def __init__(self, name: str, comparisons: int, mismatches: tuple[CheckMismatch, ...]):
        self._assign(name, comparisons, mismatches)

    @property
    def passed(self) -> bool:
        return not self.mismatches


def _corners(
    entry: tuple[int, ...], pi: int, qi: int, pj: int, qj: int
) -> tuple[int, tuple[int, int, int, int]]:
    """An entry's values at x in {0, p_i / q_i} and y in {0, p_j / q_j}, in
    the order (0, 0), (0, p_j / q_j), (p_i / q_i, 0), (p_i / q_i, p_j / q_j),
    as integer numerators over one denominator.

    It reads the integers the matrix holds for the entry,
    ``(E, C0, Cx, Cy, Cxx, Cyy, Cxy, Cabs)``, not how they were built: the
    value at x = X / q_i and y = Y / q_j is
    C0 q_i^2 q_j^2 + Cx X q_i q_j^2 + Cy Y q_i^2 q_j + Cxx X^2 q_j^2
    + Cyy Y^2 q_i^2 + Cxy X Y q_i q_j + Cabs |X q_j - Y q_i| q_i q_j over
    E q_i^2 q_j^2, and the four corners share its partial sums.
    """
    den, c0, cx, cy, cxx, cyy, cxy, cabs = entry
    # the small factors are multiplied first, so each coefficient meets one
    qqi, qqj, qq = qi * qi, qj * qj, qi * qj
    base = c0 * (qqi * qqj)
    x = (cx * qi + cxx * pi) * (pi * qqj)
    y = (cy * qj + cyy * pj) * (pj * qqi)
    xy = cxy * (pi * pj * qq)
    if cabs:
        # |x - y| at the three corners off the origin
        x += cabs * (pi * qj * qq)
        y += cabs * (pj * qi * qq)
        xy += cabs * ((abs(pi * qj - pj * qi) - pi * qj - pj * qi) * qq)
    return den * (qqi * qqj), (base, base + y, base + x, base + x + y + xy)


def _vertex_table(g: MetrizedGraph, matrix: ValueMatrix) -> list[list[tuple[int, int]]]:
    """The matrix's value at the canonical descriptions of every vertex
    pair, as (numerator, denominator); each is one corner of one stored
    entry.  Cells (p, q) and (q, p) are one object."""
    lengths = [(e.length.numerator, e.length.denominator) for e in g.edges]
    # per vertex, its canonical description, its first edge end: the edge,
    # the end (0 the tail, 1 the head) and the edge's length
    ends = [(i, a, *lengths[i]) for (i, a, _), *_ in g._ends]
    rows = matrix.rows
    table: list[list[tuple[int, int]]] = [[None] * len(ends) for _ in ends]
    for p, (i, a, pi, qi) in enumerate(ends):
        for q in range(p, len(ends)):
            j, b, pj, qj = ends[q]
            if i <= j:
                over, corners = _corners(rows[i][j - i], pi, qi, pj, qj)
                cell = (corners[2 * a + b], over)
            else:
                # g(p, q) is z_ji at (q, p)
                over, corners = _corners(rows[j][i - j], pj, qj, pi, qi)
                cell = (corners[2 * b + a], over)
            table[p][q] = table[q][p] = cell
    return table


def _checked(
    g: MetrizedGraph, divisor: Divisor, matrix: ValueMatrix | None
) -> tuple[DivisorAnalysis, ValueMatrix, list[list[tuple[int, int]]]]:
    """The analysis of ``divisor``, the value matrix to check and the
    matrix's table of canonical vertex-pair values.

    The matrix is the analysis's own when ``matrix`` is None; when it is
    that very object, the table is the analysis's ``vertex_table``, built
    once for both checks.  Any other matrix, equal or not, gets a table of
    its own.  The divisor is checked either way.
    """
    div = network(g).divisor(divisor)
    if matrix is None:
        matrix = div.value_matrix
    elif matrix.size != g.n_edges:
        raise MetgraphError(
            f"value matrix has {matrix.size} edges but the graph has {g.n_edges}"
        )
    elif matrix.divisor != divisor:
        raise MetgraphError("value matrix belongs to another divisor")
    # a matrix the network has not built yet is not its own: reading
    # ``div.value_matrix`` would build one only to compare identities
    if matrix is div.__dict__.get("value_matrix"):
        return div, matrix, div.vertex_table
    return div, matrix, _vertex_table(g, matrix)


def check_representation_independence(
    g: MetrizedGraph, divisor: Divisor, matrix: ValueMatrix | None = None
) -> CheckReport:
    """Vertex values must not depend on which incident edge describes them.

    For every vertex pair whose first member has valence at least two, all
    combinations of edge descriptions are compared with the canonical one.
    Each combination is one corner of one entry, so the stored entries are
    walked once, each read at its four corners in integers; a Fraction is
    built only for a mismatch, and mismatches are reported in vertex-pair
    order.
    """
    _, matrix, table = _checked(g, divisor, matrix)
    return _representation_report(g, matrix, table)


def check_vertex_formula(
    g: MetrizedGraph, divisor: Divisor, matrix: ValueMatrix | None = None
) -> CheckReport:
    """Closed forms must reproduce the direct pseudoinverse formula at vertices.

    The direct value is (sum_s a_s j_s(p, q) + 4 tau - r(p, q)) / (deg + 2)
    minus the normalization constant, computed without any edge functions
    by ``potential.green_row_at_vertices`` one vertex row at a time.
    Values are compared by cross-multiplication.
    """
    div, _, table = _checked(g, divisor, matrix)
    mismatches = []
    for p, row in enumerate(table):
        wants, over = green_row_at_vertices(div, p)
        for q, ((num, den), want) in enumerate(zip(row, wants)):
            if num * over != want * den:
                found = CheckMismatch(f"g(v{p}, v{q})", Fraction(want, over), Fraction(num, den))
                mismatches.append(found)
    return CheckReport("vertex formula", len(table) ** 2, tuple(mismatches))


def _check_reports(g: MetrizedGraph, divisor: Divisor) -> tuple[CheckReport, CheckReport]:
    """Both checks of the value matrix of ``g`` and ``divisor``, which read
    one table of canonical vertex-pair values."""
    return check_representation_independence(g, divisor), check_vertex_formula(g, divisor)


def _representation_report(
    g: MetrizedGraph, matrix: ValueMatrix, table: list[list[tuple[int, int]]]
) -> CheckReport:
    """Every corner of every entry against the table, one stored edge pair
    {i, j}, i <= j, at a time.

    Each pair gets one ``_corners`` call: corner (a, b) of z_ij is g(p, q),
    and as corner (b, a) of z_ji, z_ij with x and y swapped, it is g(q, p),
    the same cell of the table.  So one comparison against that value
    stands for both entries, and a pair whose four corners all agree is
    settled.  Ends of valence one, read off the graph's incidence table,
    are compared there too, which can only send a pair back.  The diagonal
    entries and a pair with any failing comparison go through ``compare``,
    entry by entry, and that alone builds every mismatch.  The count is the
    entry-by-entry walk's: per edge i, two comparisons per compared end of
    i and per edge j.
    """
    lengths = [(e.length.numerator, e.length.denominator) for e in g.edges]
    ends = [(e.tail, e.head) for e in g.edges]
    # per edge, its ends compared, as the offset 2 a of their corners (a is
    # 0 at the tail, 1 at the head) and their row of the table
    firsts = [
        [(2 * a, p, table[p]) for a, p in enumerate(pair) if len(g._ends[p]) >= 2]
        for pair in ends
    ]
    m = len(ends)
    comparisons = 2 * m * sum(map(len, firsts))
    mismatches = []

    def compare(i: int, j: int, den: int, values: tuple[int, int, int, int]) -> None:
        """z_ij's four corners ``values`` over ``den`` against the table."""
        tj, hj = ends[j]
        for a, p, wants in firsts[i]:
            (wt, ot), (wh, oh) = wants[tj], wants[hj]
            if values[a] * ot == wt * den and values[a + 1] * oh == wh * den:
                continue
            for b, q in enumerate(ends[j]):
                num, (want, over) = values[a + b], wants[q]
                if num * over != want * den:
                    location = f"g(v{p}, v{q}) via z[{i}][{j}]"
                    found = CheckMismatch(location, Fraction(want, over), Fraction(num, den))
                    mismatches.append(((p, q, i, a // 2, j, b), found))

    for i, row in enumerate(matrix.rows):
        pi, qi = lengths[i]
        compare(i, i, *_corners(row[0], pi, qi, pi, qi))
        ti, hi = ends[i]
        at, ah = table[ti], table[hi]
        for j, entry in enumerate(row[1:], i + 1):
            den, values = _corners(entry, pi, qi, *lengths[j])
            v0, v1, v2, v3 = values
            tj, hj = ends[j]
            (w0, o0), (w1, o1), (w2, o2), (w3, o3) = at[tj], at[hj], ah[tj], ah[hj]
            if (
                v0 * o0 == w0 * den
                and v1 * o1 == w1 * den
                and v2 * o2 == w2 * den
                and v3 * o3 == w3 * den
            ):
                continue
            compare(i, j, den, values)
            compare(j, i, den, (v0, v2, v1, v3))
    # the keys are unique: order by vertex pair, then by the two descriptions
    ordered = tuple(found for _, found in sorted(mismatches))
    return CheckReport("representation independence", comparisons, ordered)

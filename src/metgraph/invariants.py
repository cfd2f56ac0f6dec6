"""Epsilon invariant and whole-graph consistency checks.

Epsilon comes out of two unrelated computations: summing Green values at
the divisor's support against a base point, and a closed form in the tau
constant and pairwise resistances.  Agreement of the two is itself a strong
correctness check, so neither route is ever expressed through the other.

The two consistency checks test a value matrix and read nothing of how it
was built: only the integers each entry holds, the edge lengths and
``green_row_at_vertices``, which reads L+, tau and c_mu and no per-edge
data or closed form.  Both evaluate the entries themselves, in integers,
and build a Fraction only for a mismatch.  A vertex sits at an edge's end,
so every value either reads is a corner of an entry, given by one
evaluator, ``_corners``, from the entry's integers.  Both compare against
the value at the canonical descriptions of each vertex pair, one table
built by ``_vertex_table``.  For the network's own value matrix, the
matrix ``value_matrix(g, divisor)`` returns, that table is kept on its
``DivisorAnalysis`` as ``vertex_table``, so the two checks build it once
between them; any other matrix, even an equal copy, gets a table of its
own, built for each check.  The representation check compares every
corner of every entry with that table; the vertex-formula check compares
it, row by row, with the direct formula.

g(x, y) = g(y, x), so both read an edge pair {i, j} once when z_ji holds
exactly z_ij's integers with x and y swapped: z_ji's corners are then
z_ij's, transposed.  The table then holds one cell for (p, q) and (q, p),
and the representation check walks the pairs, comparing each corner of a
mirrored pair once against that shared value.  A pair that does not
mirror, or meets a failing comparison, goes back through the per-entry
comparison, and that alone builds every mismatch, so counts, mismatches
and their order are those of the entry-by-entry walk.  The mirror test
reads the integers themselves, not how the build made them.
"""

from __future__ import annotations

from fractions import Fraction
from operator import itemgetter
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
from .potential import green_row_at_vertices, tau_constant, vertex_resistance

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
    den: int, numerators: tuple[int, ...], pi: int, qi: int, pj: int, qj: int
) -> tuple[int, tuple[int, int, int, int]]:
    """An entry's values at x in {0, p_i / q_i} and y in {0, p_j / q_j}, in
    the order (0, 0), (0, p_j / q_j), (p_i / q_i, 0), (p_i / q_i, p_j / q_j),
    as integer numerators over one denominator.

    It reads the integers the entry holds, ``numerators`` over ``den``, not
    how they were built: with C the numerators over E, the value at
    x = X / q_i and y = Y / q_j is
    C0 q_i^2 q_j^2 + Cx X q_i q_j^2 + Cy Y q_i^2 q_j + Cxx X^2 q_j^2
    + Cyy Y^2 q_i^2 + Cxy X Y q_i q_j + Cabs |X q_j - Y q_i| q_i q_j over
    E q_i^2 q_j^2, and the four corners share its partial sums.
    """
    c0, cx, cy, cxx, cyy, cxy, cabs = numerators
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


# (c0, cx, cy, cxx, cyy, cxy, cabs) with x and y swapped: z_ji mirrors z_ij
# when it holds z_ij's denominator and these numerators, and its corners are
# then z_ij's transposed, as the same integers
_SWAP_XY = itemgetter(0, 2, 1, 4, 3, 5, 6)


def _vertex_table(g: MetrizedGraph, matrix: ValueMatrix) -> list[list[tuple[int, int]]]:
    """The matrix's value at the canonical descriptions of every vertex
    pair, as (numerator, denominator); each is one corner of one entry.
    Cell (q, p) is cell (p, q), the same object, when the two entries
    holding them mirror, and is read off its own entry otherwise."""
    lengths = [(e.length.numerator, e.length.denominator) for e in g.edges]
    # per vertex: its edge, the end it sits at (0 the tail, 1 the head), the length
    points = [point_of_vertex(g, v) for v in range(g.n_vertices)]
    ends = [(x.edge, int(x.offset != 0), *lengths[x.edge]) for x in points]
    entries = matrix.entries
    table: list[list[tuple[int, int]]] = [[] for _ in ends]
    for p, (i, a, pi, qi) in enumerate(ends):
        row = entries[i]
        for q in range(p, len(ends)):
            j, b, pj, qj = ends[q]
            zij = row[j]
            den, nums = zij._denominator, zij._numerators
            over, corners = _corners(den, nums, pi, qi, pj, qj)
            table[p].append((corners[2 * a + b], over))
            if q == p:
                continue
            zji = entries[j][i]
            if den == zji._denominator and _SWAP_XY(nums) == zji._numerators:
                table[q].append(table[p][-1])
            else:
                over, corners = _corners(zji._denominator, zji._numerators, pj, qj, pi, qi)
                table[q].append((corners[2 * b + a], over))
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
    if matrix is div.value_matrix:
        return div, matrix, div.vertex_table
    return div, matrix, _vertex_table(g, matrix)


def check_representation_independence(
    g: MetrizedGraph, divisor: Divisor, matrix: ValueMatrix | None = None
) -> CheckReport:
    """Vertex values must not depend on which incident edge describes them.

    For every vertex pair whose first member has valence at least two, all
    combinations of edge descriptions are compared with the canonical one.
    Each combination is one corner of one entry, so the entries are walked
    once, a mirrored pair of them read once, at its four corners in
    integers; a Fraction is built only for a mismatch, and mismatches are
    reported in vertex-pair order.
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
    """Every corner of every entry against the table, one edge pair {i, j},
    i <= j, at a time.

    Each pair's integers are read once.  A pair whose entries mirror (z_ji
    holds z_ij's denominator and its numerators with x and y swapped,
    ``_SWAP_XY``) gets one ``_corners`` call for both entries: corner (a, b)
    of z_ij is g(p, q), and as corner (b, a) of z_ji it is g(q, p), the
    same integers over the same denominator.  When the table's g(p, q) and
    g(q, p) agree, one comparison against that value stands for both
    entries, and a pair whose four corners all agree is settled.  Ends of
    valence one are compared there too, which can only send a pair back.
    The diagonal entries, a pair that does not mirror, and a mirrored pair with
    any failing comparison go through ``compare``, entry by entry, and that
    alone builds every mismatch.  The count is the entry-by-entry walk's:
    per edge i, two comparisons per compared end of i and per edge j.
    """
    # edge ends per vertex, one pass over the edges; a loop counts twice
    valence = [0] * g.n_vertices
    for e in g.edges:
        valence[e.tail] += 1
        valence[e.head] += 1
    lengths = [(e.length.numerator, e.length.denominator) for e in g.edges]
    ends = [(e.tail, e.head) for e in g.edges]
    # per edge, its ends compared, as the offset 2 a of their corners (a is
    # 0 at the tail, 1 at the head) and their row of the table
    firsts = [
        [(2 * a, p, table[p]) for a, p in enumerate(pair) if valence[p] >= 2] for pair in ends
    ]
    entries = matrix.entries
    m = len(entries)
    comparisons = 2 * m * sum(map(len, firsts))
    mismatches = []

    def compare(i: int, j: int) -> None:
        z = entries[i][j]
        den, values = _corners(z._denominator, z._numerators, *lengths[i], *lengths[j])
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

    # per vertex pair (p, q), the one value a corner g(p, q) of a mirrored
    # pair must equal, when g(p, q) and g(q, p) agree in the table; else a
    # cell no value equals, since num * 0 != 1 * den
    shared = [
        [cell if cell == table[q][p] else (1, 0) for q, cell in enumerate(row)]
        for p, row in enumerate(table)
    ]
    for i, row in enumerate(entries):
        compare(i, i)
        pi, qi = lengths[i]
        ti, hi = ends[i]
        at, ah = shared[ti], shared[hi]
        for j in range(i + 1, m):
            zij, zji = row[j], entries[j][i]
            den, nums = zij._denominator, zij._numerators
            if den == zji._denominator and _SWAP_XY(nums) == zji._numerators:
                den, (v0, v1, v2, v3) = _corners(den, nums, pi, qi, *lengths[j])
                tj, hj = ends[j]
                (w0, o0), (w1, o1), (w2, o2), (w3, o3) = at[tj], at[hj], ah[tj], ah[hj]
                if (
                    v0 * o0 == w0 * den
                    and v1 * o1 == w1 * den
                    and v2 * o2 == w2 * den
                    and v3 * o3 == w3 * den
                ):
                    continue
            compare(i, j)
            compare(j, i)
    # the keys are unique: order by vertex pair, then by the two descriptions
    ordered = tuple(found for _, found in sorted(mismatches))
    return CheckReport("representation independence", comparisons, ordered)

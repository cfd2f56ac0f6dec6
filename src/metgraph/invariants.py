"""Epsilon invariant and whole-graph consistency checks.

Epsilon comes out of two unrelated computations: summing Green values at
the divisor's support against a base point, and a closed form in the tau
constant and pairwise resistances.  Agreement of the two is itself a strong
correctness check, so neither route is ever expressed through the other.
The Green route takes each value g(base, p_k) from g's O(m) pieces, the
divisor's constant C = 4 tau / s - c_mu and r_D at the vertices, and
L+ = N / D, in O(|supp D|) work with no value matrix and no resistance
triangle, and its resistance term is r_D at the base vertex; the
resistance route sums over N on its own and reads neither C nor r_D.  Both
finish in integers, each making one Fraction of its own, the result: the
Green route sums its |supp D| values over one denominator 2 s D d, with
C = c / d, and the resistance route brings tau's integers and its double
sum over tau's denominator times D (deg D + 2).

The two consistency checks test a value matrix and read nothing of how it
was built: only the integers it holds per edge pair, the edge lengths and
``green_row_at_vertices``, which reads L+, tau and c_mu and no per-edge
data or closed form.  Both evaluate the entries themselves, in integers,
and build a Fraction only for a mismatch.  A vertex sits at an edge's end,
so every value either reads is a corner of a stored entry, given by
``_corners`` from its integers; for an off-diagonal entry with no |x - y|
term, the common case, the representation check writes the same sums out
in its loop.  Both compare against the value at the canonical
descriptions of each vertex pair, one table, which the representation
check's walk fills with the first corner it meets for each pair, the
canonical one.  For the network's own value matrix, the matrix
``value_matrix(g, divisor)`` returns, the walk's report and table are kept
on its ``DivisorAnalysis``, so the two checks cost one walk in either
order; any other matrix, even an equal copy, is walked for each check, and
checking it builds no matrix of the network's.  The vertex-formula check
compares one triangle of the table with the direct formula.

A value matrix holds z_ij for i <= j only, z_ji being z_ij with x and y
swapped, and each diagonal entry is symmetric in x and y, so corner (a, b)
of z_ij is also corner (b, a) of z_ji: each stored entry is read once, at
its four corners, and the table's cells (p, q) and (q, p) are one.  A pair
that fails a comparison goes through the per-entry comparison, and that
alone builds every mismatch, so counts, mismatches and their order are
those of the entry-by-entry walk.

One triangle of vertex pairs suffices for the vertex-formula check too:
its direct value (deg D + 2) N_pq - (W_p + N_pp) - (W_q + N_qq) plus a
constant, over one denominator, is symmetric in p and q because L+ = N / D
is stored mirrored, and the table's cells (p, q) and (q, p) are one object.
So the comparison for q >= p settles both cells; a mismatch is reported at
both, and the count stays n^2, as for the walk over every ordered pair.
W = sum_s a_s N[s] is the check's own sum (``potential.vertex_formula``),
not r_D's: both sides are the same linear function of b = sum_s a_s N_ss
and W, so a W shared with the matrix would pass the check with a fault in
it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import analysis
from .errors import MetgraphError
from .graph import (
    Divisor,
    MetrizedGraph,
    Record,
    admissible_degree,
)
from .green import ValueMatrix
from .potential import green_row_at_vertices, tau_constant


def epsilon_via_green(g: MetrizedGraph, divisor: Divisor, base: int | None = None) -> Fraction:
    """Epsilon from Green values: (deg D + 2) sum_k a_k g(p, p_k) plus the
    resistance of the base point against the divisor.

    The result does not depend on the base vertex; by default the tail of
    edge 0 is used.  Each Green value is taken at two vertices from g's
    O(m) pieces alone, with no value matrix and no resistance triangle:
    g(b, k) = C + (r_D(b) + r_D(k)) / (2 s) - r(b, k) / 2 with s = deg D + 2,
    C = c / d the divisor's constant, r_D = R / D at the vertices and
    r(b, k) = (N_bb - 2 N_bk + N_kk) / D, N = D L+.  So g(b, k) is the
    integer 2 s D c + d (R_b + R_k - s (N_bb - 2 N_bk + N_kk)) over
    2 s D d, the values are summed as integers over that one denominator,
    and s sum_k a_k g(b, k) + R_b / D is the one Fraction made here, over
    2 D d.  The resistance sum_k a_k r(b, p_k) is r_D at the base.
    """
    admissible_degree(g, divisor)
    if base is None:
        base = g.edges[0].tail
    g._check_vertex(base)
    div = analysis.network(g).divisor(divisor)
    c, d, s = div.constant
    at = div.r_D_at_vertices
    lplus = div.network.pinv
    den, num = lplus.denominator, lplus.numerators
    row, r_base = num[base], at[base]
    n_base, c_term = row[base], 2 * s * den * c
    total = sum(
        a * (c_term + d * (r_base + at[k] - s * (n_base - 2 * row[k] + num[k][k])))
        for k, a in enumerate(divisor.coefficients)
        if a
    )
    return Fraction(total + 2 * d * r_base, 2 * den * d)


def epsilon_via_resistance(g: MetrizedGraph, divisor: Divisor) -> Fraction:
    """Epsilon from the closed form in tau and pairwise resistances; with
    L+ = N / D, sum_k sum_l a_k a_l r(k, l) is summed in integers, as
    2 (deg D sum_k a_k N_kk - sum_k sum_l a_k a_l N_kl) / D.  So with
    tau = t / d, (4 tau deg D + that sum) / (deg D + 2) is one Fraction
    over d D (deg D + 2)."""
    deg = admissible_degree(g, divisor)
    support = [(k, a) for k, a in enumerate(divisor.coefficients) if a]
    lplus = analysis.network(g).pinv
    num = lplus.numerators
    diagonal = sum(a * num[k][k] for k, a in support)
    cross = sum(a * sum(b * num[k][l] for l, b in support) for k, a in support)
    tau, den = tau_constant(g), lplus.denominator
    top = 4 * tau.numerator * deg * den + 2 * (deg * diagonal - cross) * tau.denominator
    return Fraction(top, tau.denominator * den * (deg + 2))


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


def _walked(
    g: MetrizedGraph, divisor: Divisor, matrix: ValueMatrix | None
) -> tuple[analysis.DivisorAnalysis, CheckReport, list[list[tuple[int, int]]]]:
    """The analysis of ``divisor`` and the representation walk's report and
    table for the value matrix to check.

    The matrix is the analysis's own when ``matrix`` is None; when it is
    that very object, the walk is the analysis's, one for both checks.  Any
    other matrix, equal or not, is walked for each check.  The divisor is
    checked either way, and degree -2, which has no Green function, is
    refused before any matrix is read or L+ is built.
    """
    admissible_degree(g, divisor)
    div = analysis.network(g).divisor(divisor)
    if matrix is None:
        matrix = div.value_matrix
    elif matrix.size != g.n_edges:
        raise MetgraphError(f"value matrix has {matrix.size} edges but the graph has {g.n_edges}")
    elif matrix.divisor != divisor:
        raise MetgraphError("value matrix belongs to another divisor")
    # a matrix the analysis has not handed out yet is not its own: reading
    # ``div.value_matrix`` would make one only to compare identities
    if matrix is div.__dict__.get("value_matrix"):
        return div, *div.representation_walk
    return div, *_representation_report(g, matrix)


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
    return _walked(g, divisor, matrix)[1]


def check_vertex_formula(
    g: MetrizedGraph, divisor: Divisor, matrix: ValueMatrix | None = None
) -> CheckReport:
    """Closed forms must reproduce the direct pseudoinverse formula at vertices.

    The direct value is (sum_s a_s j_s(p, q) + 4 tau - r(p, q)) / (deg + 2)
    minus the normalization constant, computed without any edge functions
    by ``potential.green_row_at_vertices``, for q >= p in vertex row p.
    Both sides are symmetric in p and q, so one comparison settles cells
    (p, q) and (q, p), and a mismatch is reported at both, in vertex-pair
    order.  Values are compared by cross-multiplication.
    """
    div, _, table = _walked(g, divisor, matrix)
    mismatches = []
    for p, row in enumerate(table):
        wants, over = green_row_at_vertices(div, p, slice(p, None))
        for q, ((num, den), want) in enumerate(zip(row[p:], wants), p):
            if num * over != want * den:
                found = Fraction(want, over), Fraction(num, den)
                for a, b in {(p, q), (q, p)}:
                    mismatches.append(((a, b), CheckMismatch(f"g(v{a}, v{b})", *found)))
    return CheckReport("vertex formula", len(table) ** 2, tuple(m for _, m in sorted(mismatches)))


def _check_reports(g: MetrizedGraph, divisor: Divisor) -> tuple[CheckReport, CheckReport]:
    """Both checks of the value matrix of ``g`` and ``divisor``, which read
    one table of canonical vertex-pair values."""
    return check_representation_independence(g, divisor), check_vertex_formula(g, divisor)


def _representation_report(
    g: MetrizedGraph, matrix: ValueMatrix, table: list[list[tuple[int, int] | None]] | None = None
) -> tuple[CheckReport, list[list[tuple[int, int]]]]:
    """Every corner of every entry against the table, one stored edge pair
    {i, j}, i <= j, at a time, and the table.

    An empty (None) cell, all of them by default, takes the first corner
    met for it.  The graph is adequate, so that is its canonical value, in
    the pair {f_p, f_q} of its vertices' lowest edges: every other
    description lies in a later pair, and the symmetric z_ii has equal
    corners (0, L) and (L, 0).

    Each pair is read once, at its four corners, by ``_corners`` or, with
    no |x - y| term, by its sums written out: corner (a, b) of z_ij is g(p, q),
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
    if table is None:
        table = [[None] * g.n_vertices for _ in range(g.n_vertices)]
    lengths = g._lengths
    ends = [(e.tail, e.head) for e in g.edges]
    # per edge, its ends compared, as the offset 2 a of their corners (a is
    # 0 at the tail, 1 at the head) and their row of the table
    firsts = [
        [(2 * a, p, table[p]) for a, p in enumerate(pair) if len(g._ends[p]) >= 2]
        for pair in ends
    ]
    # per edge, the ends it is the first edge of, as (a, p, row p of the table)
    opens = [
        [(a, p, table[p]) for a, p in enumerate(pair) if g._ends[p][0][0] == i]
        for i, pair in enumerate(ends)
    ]
    comparisons = 2 * len(ends) * sum(map(len, firsts))
    mismatches = []

    def fill(i: int, j: int, den: int, values: tuple[int, int, int, int]) -> None:
        """z_ij's corners into the empty cells of ends whose first edges are i and j."""
        for a, p, row in opens[i]:
            for b, q, column in opens[j]:
                if row[q] is None:
                    row[q] = column[p] = (values[2 * a + b], den)

    def compare(i: int, j: int, den: int, values: tuple[int, int, int, int]) -> None:
        """z_ij's four corners ``values`` over ``den`` against the table."""
        for a, p, wants in firsts[i]:
            for b, q in enumerate(ends[j]):
                num, (want, over) = values[a + b], wants[q]
                if num * over != want * den:
                    location = f"g(v{p}, v{q}) via z[{i}][{j}]"
                    found = CheckMismatch(location, Fraction(want, over), Fraction(num, den))
                    mismatches.append(((p, q, i, a // 2, j, b), found))

    for i, row in enumerate(matrix.rows):
        pi, qi = lengths[i]
        den, values = _corners(row[0], pi, qi, pi, qi)
        fill(i, i, den, values)
        compare(i, i, den, values)
        opened = opens[i]
        at, ah = map(table.__getitem__, ends[i])
        qqi = qi * qi
        for j, ((pj, qj), entry) in enumerate(zip(lengths[i + 1 :], row[1:]), i + 1):
            den, c0, cx, cy, cxx, cyy, cxy, cabs = entry
            if cabs:
                den, (v0, v1, v2, v3) = _corners(entry, pi, qi, pj, qj)
            else:  # _corners' sums, which have no |x - y| terms here
                qqj = qj * qj
                v0 = c0 * (qqi * qqj)
                x = (cx * qi + cxx * pi) * (pi * qqj)
                v1 = v0 + (cy * qj + cyy * pj) * (pj * qqi)
                v2 = v0 + x
                v3 = v1 + x + cxy * (pi * pj * qi * qj)
                den *= qqi * qqj
            if opened and opens[j]:
                fill(i, j, den, (v0, v1, v2, v3))
            tj, hj = ends[j]
            (w0, o0), (w1, o1), (w2, o2), (w3, o3) = at[tj], at[hj], ah[tj], ah[hj]
            if (
                v0 * o0 != w0 * den
                or v1 * o1 != w1 * den
                or v2 * o2 != w2 * den
                or v3 * o3 != w3 * den
            ):
                compare(i, j, den, (v0, v1, v2, v3))
                compare(j, i, den, (v0, v2, v1, v3))
    # the keys are unique: order by vertex pair, then by the two descriptions
    ordered = tuple(found for _, found in sorted(mismatches))
    return CheckReport("representation independence", comparisons, ordered), table

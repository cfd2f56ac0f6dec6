"""The admissible Green function as a matrix of closed-form edge-pair entries.

For a divisor D of degree other than -2 the Green function g(x, y) is, on
each ordered pair of edges, a polynomial in the two offsets plus possibly
one |x - y| term (diagonal entries only).  The value matrix collects these
closed forms; evaluating g anywhere afterwards costs a handful of rational
operations and no linear algebra.  The matrix is built once per graph and
divisor, from the per-edge data of ``analysis.Network``, so the loop over
edge pairs does no cache lookups.

Each entry is g(x, y) = 4 tau / (deg D + 2) - c_mu
+ (r_D(x) + r_D(y)) / (2 (deg D + 2)) - r(x, y) / 2, combined in integers
over one denominator T, a multiple of 2 (deg D + 2) D with D the common
denominator of L+: the constant comes from the integers of tau and c_mu,
r_D's terms are the numerators of its ``EdgeFunction`` forms, and r's are
those of ``potential.resistance_numerators``.  An entry holds its seven
coefficients as integers over T p_i^2 p_j^2 (over T p_i^2 on the
diagonal), so the matrix is built without a Fraction; one is made only
when a coefficient or a value is read.
g(x, y) = g(y, x), so z_ji is z_ij with x and y swapped, and the matrix
keeps one triangle: eight integers per unordered edge pair (1830 tuples,
about 0.73 MiB, on the benchmark's seeded 6x6 grid), and an
``EdgePairFunction`` is made only when an entry is read.  The build runs
row by row and makes each product once: what one edge supplies once per
edge, what edge i adds once per row, and the terms that read both edges
once per pair.  It compares no pair; g(x, y) = g(y, x) is checked by the
ordered-pair property test, the vertex-formula check and the oracle.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import TYPE_CHECKING

from .analysis import network
from .errors import MetgraphError
from .graph import Divisor, GraphPoint, MetrizedGraph, Record, is_index, validate_point
from .potential import EdgePairFunction, pair_value, swap_xy

if TYPE_CHECKING:
    from .analysis import DivisorAnalysis, Network

__all__ = [
    "EdgePairFunction",
    "ValueMatrix",
    "evaluate_green",
    "value_matrix",
]


class ValueMatrix(Record):
    """All edge-pair closed forms of one Green function.

    g(x, y) = g(y, x), so z_ji is z_ij with x and y swapped, and the matrix
    keeps one triangle, ``rows``: row i holds z_ij for j = i, ..., m - 1,
    each as its seven numerators over its denominator, one tuple of ints
    (den, c0, cx, cy, cxx, cyy, cxy, cabs) with den > 0.  The constructor
    takes that triangle, and rejects any other shape and a diagonal entry
    not symmetric in x and y (cx != cy or cxx != cyy), so every matrix
    holds one closed form per unordered edge pair; pickling replays it.
    An ``EdgePairFunction`` is made only when ``entry`` or ``entries`` is
    read.  Equality and hash read the stored triangle, and make no entry.
    """

    __slots__ = ("divisor", "rows")
    _fields = ("divisor", "rows")

    divisor: Divisor
    rows: tuple[tuple[tuple[int, ...], ...], ...]

    def __init__(self, divisor: Divisor, rows: tuple[tuple[tuple[int, ...], ...], ...]):
        m = len(rows) if type(rows) is tuple else -1
        if not (
            isinstance(divisor, Divisor)
            and m >= 0
            and all(type(row) is tuple and len(row) == m - i for i, row in enumerate(rows))
            and all(
                type(held) is tuple
                and len(held) == 8
                and all(type(c) is int for c in held)
                and held[0] > 0
                for row in rows
                for held in row
            )
        ):
            raise MetgraphError("a value matrix is not a divisor and a triangle of integer tuples")
        for i, row in enumerate(rows):
            _, _, cx, cy, cxx, cyy, _, _ = row[0]
            if cx != cy or cxx != cyy:
                raise MetgraphError(f"value matrix entry ({i}, {i}) is not symmetric in x and y")
        self._assign(divisor, rows)

    @classmethod
    def _of(cls, divisor: Divisor, rows: tuple[tuple[tuple[int, ...], ...], ...]) -> ValueMatrix:
        """The matrix of the triangle ``rows``, taken unchecked: the build
        makes it in the constructor's shape, diagonal entries symmetric."""
        matrix = cls.__new__(cls)
        matrix._assign(divisor, rows)
        return matrix

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self.divisor != other.divisor or self.size != other.size:
            return False
        for row_a, row_b in zip(self.rows, other.rows):
            for a, b in zip(row_a, row_b):
                den_a, den_b = a[0], b[0]
                if den_a == den_b:
                    if a != b:
                        return False
                elif any(x * den_b != y * den_a for x, y in zip(a[1:], b[1:])):
                    return False
        return True

    def __hash__(self) -> int:
        # equal matrices hold equal values, so their diagonal constants agree
        return hash((self.divisor, tuple(Fraction(row[0][1], row[0][0]) for row in self.rows)))

    @property
    def size(self) -> int:
        return len(self.rows)

    @property
    def entries(self) -> tuple[tuple[EdgePairFunction, ...], ...]:
        """Every entry, row by row, each made when read."""
        edges = range(self.size)
        return tuple(tuple(self._entry(i, j) for j in edges) for i in edges)

    def entry(self, i: int, j: int) -> EdgePairFunction:
        if not (is_index(i, self.size) and is_index(j, self.size)):
            raise MetgraphError(f"entry ({i!r}, {j!r}) outside a {self.size}-edge matrix")
        return self._entry(i, j)

    def _entry(self, i: int, j: int) -> EdgePairFunction:
        if i <= j:
            held = self.rows[i][j - i]
            return EdgePairFunction._over(i, j, held[0], held[1:])
        held = self.rows[j][i - j]
        return EdgePairFunction._over(i, j, held[0], swap_xy(held[1:]))

    def evaluate(self, x: GraphPoint, y: GraphPoint) -> Fraction:
        i, j = x.edge, y.edge
        if i > j:
            # z_ij(x, y) is z_ji(y, x)
            return pair_value(self.rows[j][i - j], y.offset, x.offset)
        return pair_value(self.rows[i][j - i], x.offset, y.offset)


def value_matrix(g: MetrizedGraph, divisor: Divisor) -> ValueMatrix:
    """All edge-pair entries of the Green function, built once per graph and
    divisor."""
    return network(g).divisor(divisor).value_matrix


def build_value_matrix(net: Network, div: DivisorAnalysis) -> ValueMatrix:
    """All edge-pair entries, one per unordered edge pair, of
    g(x, y) = 4 tau / s - c_mu + (r_D(x) + r_D(y)) / (2 s) - r(x, y) / 2
    with s = deg D + 2.  No part depends on whether an edge is a bridge;
    the connectivity matrix is only reported.

    Everything is brought over T, the least multiple of 2 s D over which the
    constant 4 tau / s - c_mu is an integer ``shift``.  With k = T / (2 s D),
    h = T / (2 D) and N = D L+, r_D / (2 s) on an edge has constant and
    linear terms a0 = k r_D(tail) over T and a1 = k n1 over T p^2, with n1
    the linear numerator of r_D's form over D p^2; both x^2 terms of an entry
    are W w_scale over T p^2 with w_scale = 2 k: tau's -deg w / (2 s) less
    half of r's -w.  On two edges r's coefficients are those of
    ``resistance_numerators``, multiplied out so that a product is made
    once per edge, row or pair.  Per edge, with z = a0 - h N[t, t] and
    X = a1 - h (D p - 2 q a[t]) p, the numerators over T p_i^2 p_j^2 are
      c0   (shift + z_i + z_j + 2 h N[t_i, t_j]) p_i^2 p_j^2,
      cx   (X_i - 2 h q_i p_i a_i[t_j]) p_j^2,
      cy   (X_j - 2 h q_j p_j a_j[t_i]) p_i^2,
      cxx  W_i w_scale p_j^2,   cyy  W_j w_scale p_i^2,
      cxy  -2 h q_i p_i q_j p_j (a_i[h_j] - a_i[t_j]).
    Swapping i with j and x with y leaves these unchanged, N being
    symmetric, so only z_ij, i <= j, is kept, as (T p_i^2 p_j^2, c0, cx,
    cy, cxx, cyy, cxy, cabs).
    On one edge r has only the terms -w x^2 - w y^2 + 2 w x y + |x - y|,
    so there g's x y and |x - y| coefficients are -w and -1/2."""
    tau, c = net.tau, div.c_mu  # c_mu rejects degree -2
    scale = div.divisor.degree + 2
    den, lp = net.pinv.denominator, net.pinv.numerators
    # 4 tau / s - c_mu in lowest terms, with a positive denominator
    td, cd = tau.denominator, c.denominator
    shift, shift_den = 4 * tau.numerator * cd - scale * c.numerator * td, scale * td * cd
    common = gcd(shift, shift_den) if shift_den > 0 else -gcd(shift, shift_den)
    shift, shift_den = shift // common, shift_den // common
    t = lcm(shift_den, 2 * scale * den)
    shift *= t // shift_den
    k = t // (2 * scale * den)
    half, twice_half, w_scale = t // (2 * den), t // den, 2 * k
    at = div.r_D_at_vertices
    # r_D / (2 s) per edge: a0 over T and a1 over T p^2
    a0 = [k * at[e.tail] for e in net.edges]
    a1 = [k * form.numerators[1] for form in div.r_D]
    # per edge: tail, head, p^2, p q, z, W w_scale, X, 2 h q p and the a vector
    columns = [
        (e.tail, e.head, e.p * e.p, e.p * e.q, e0 - half * lp[e.tail][e.tail], e.w * w_scale,
         e1 - half * (den * e.p - 2 * e.q * e.a[e.tail]) * e.p, twice_half * e.q * e.p, e.a)
        for e, e0, e1 in zip(net.edges, a0, a1)
    ]
    rows = []
    for i, (ti, _, ppi, _, zi, wi, xi, ki, ai) in enumerate(columns):
        lpt, base = lp[ti], shift + zi
        c0, cx = (shift + 2 * a0[i]) * ppi, a1[i]
        cxy, cabs = -twice_half * net.edges[i].w, -half * den * ppi
        row = [(t * ppi, c0, cx, cx, wi, wi, cxy, cabs)]
        for tj, hj, ppj, pqj, zj, wj, xj, kj, aj in columns[i + 1 :]:
            pp = ppi * ppj
            c0 = (base + zj + twice_half * lpt[tj]) * pp
            cx, cy = (xi - ki * ai[tj]) * ppj, (xj - kj * aj[ti]) * ppi
            cxy = -ki * pqj * (ai[hj] - ai[tj])
            row.append((t * pp, c0, cx, cy, wi * ppj, wj * ppi, cxy, 0))
        rows.append(tuple(row))
    return ValueMatrix._of(div.divisor, tuple(rows))


def evaluate_green(
    g: MetrizedGraph, divisor: Divisor, x: GraphPoint | tuple, y: GraphPoint | tuple
) -> Fraction:
    """Green function value at two points, via the cached value matrix."""
    x = validate_point(g, x)
    y = validate_point(g, y)
    return value_matrix(g, divisor).evaluate(x, y)

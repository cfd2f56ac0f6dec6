"""The admissible Green function: point values from its pieces, and the
value matrix of closed-form edge-pair entries.

For a divisor D of degree other than -2, with s = deg D + 2 (Zhang 1993),
g(x, y) = C + (r_D(x) + r_D(y)) / (2 s) - r(x, y) / 2 with the constant
C = 4 tau / s - c_mu.  The divisor enters only through O(m) data, and the
one quadratic piece, r(x, y), does not depend on it.  So the package keeps
g in two parts:

- per graph, ``analysis.Network.resistance_triangle``: r's closed form on
  every unordered edge pair, made on the first point read
  (``potential.resistance_triangle``);
- per divisor, on its ``analysis.DivisorAnalysis``: r_D at the vertices
  and on every edge, one tuple (den, a2, a1, a0) per edge, c_mu and C,
  all held as integers (``constant_of``).

``evaluate_green``, g's one point reader, combines one triangle entry,
r_D's integers on the two edges and C into one Fraction, so a divisor
switch builds nothing quadratic and a point read builds no table of its
own.

The value matrix collects g's closed forms per edge pair, for the
``value-matrix`` command and the consistency checks.  ``value_matrix(g, D)``
checks the divisor and refuses degree -2 at the call, and reads the O(m)
pieces its rows are made from; the rows are made on first read, by
``build_value_matrix``.  A matrix made before a switch or ``clear_caches``
holds those pieces, so it still reads the same rows afterwards.

``build_value_matrix`` brings C and r_D over one denominator T, a multiple
of 2 s D with D the common denominator of L+, and hands them to
``potential.pair_rows``, the loop that also makes the resistance triangle
and holds r's pair coefficients; it does not read the triangle, so a
caller who reads only the matrix pays for one quadratic table, not two.
An entry holds its seven coefficients as integers over T p_i^2 p_j^2
(over T p_i^2 on the diagonal), so the matrix is built without a
Fraction; one is made only when a coefficient or a value is read.
g(x, y) = g(y, x), so z_ji is z_ij with x and y swapped, and the matrix
keeps one triangle: eight integers per unordered edge pair (1830 tuples,
about 0.73 MiB, on the benchmark's seeded 6x6 grid), and an
``EdgePairFunction``, a view of one stored tuple, is made only when an
entry is read; ``entry(i, j)(x, y)`` is g's value there.  The build
compares no pair; g(x, y) = g(y, x) is checked by the ordered-pair
property test, the vertex-formula check and the oracle.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import gcd, lcm
from typing import Callable

from . import analysis
from .errors import MetgraphError
from .graph import Divisor, GraphPoint, MetrizedGraph, Record, _point_integers, is_index
from .linalg import RationalMatrix
from .potential import (
    EdgeData,
    EdgePairFunction,
    Rows,
    pair_numerator,
    pair_rows,
    swap_xy,
)

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
    The network's own matrix, ``value_matrix(g, divisor)``, makes its rows
    when they are first read, and holds what it makes them from until then.
    An ``EdgePairFunction`` is made only when ``entry`` or ``entries`` is
    read.  Equality and hash read the stored triangle, and make no entry.
    """

    __slots__ = ("divisor", "_rows")
    _fields = ("divisor", "rows")

    divisor: Divisor

    def __init__(self, divisor: Divisor, rows: Rows):
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
        self._set(divisor, rows)

    def _set(self, divisor: Divisor, rows: Rows | Callable[[], Rows]) -> None:
        object.__setattr__(self, "divisor", divisor)
        object.__setattr__(self, "_rows", rows)

    @classmethod
    def _later(cls, divisor: Divisor, build: Callable[[], Rows]) -> ValueMatrix:
        """The matrix whose rows ``build()`` makes, unchecked, when first
        read: the build makes them in the constructor's shape, diagonal
        entries symmetric.  Until then ``_rows`` holds ``build``."""
        matrix = cls.__new__(cls)
        matrix._set(divisor, build)
        return matrix

    @property
    def rows(self) -> Rows:
        rows = self._rows
        if callable(rows):
            rows = rows()
            self._set(self.divisor, rows)
        return rows

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
            return EdgePairFunction._over((i, j), self.rows[i][j - i])
        held = self.rows[j][i - j]
        return EdgePairFunction._over((i, j), (held[0], *swap_xy(held[1:])))


def value_matrix(g: MetrizedGraph, divisor: Divisor) -> ValueMatrix:
    """All edge-pair entries of the Green function, one matrix per graph and
    divisor, its rows made when first read."""
    return analysis.network(g).divisor(divisor).value_matrix


def constant_of(div: analysis.DivisorAnalysis) -> tuple[int, int, int]:
    """C = 4 tau / s - c_mu with s = deg D + 2, as (c, d, s): C = c / d in
    lowest terms, d > 0.  c_mu is read first, so degree -2 raises
    ``BadDegree`` before L+ is built."""
    c, tau = div.c_mu, div.network.tau
    scale = div.divisor.degree + 2
    td, cd = tau.denominator, c.denominator
    top, bottom = 4 * tau.numerator * cd - scale * c.numerator * td, scale * td * cd
    common = gcd(top, bottom) if bottom > 0 else -gcd(top, bottom)
    return top // common, bottom // common, scale


def value_matrix_of(div: analysis.DivisorAnalysis) -> ValueMatrix:
    """The value matrix of ``div``, its rows made by ``build_value_matrix``
    when first read.  The O(m) pieces they are made from are read now, C
    first, so degree -2 is refused here; the matrix holds those pieces and
    not the analysis, so it reads the same rows after the network has moved
    to another divisor or been dropped."""
    constant, net = div.constant, div.network
    build = partial(build_value_matrix, net.pinv, net.edges, constant, div.r_D_at_vertices, div.r_D)
    return ValueMatrix._later(div.divisor, build)


def build_value_matrix(
    lplus: RationalMatrix,
    edges: tuple[EdgeData, ...],
    constant: tuple[int, int, int],
    at: tuple[int, ...],
    forms: tuple[tuple[int, int, int, int], ...],
) -> Rows:
    """All edge-pair entries, one per unordered edge pair, of
    g(x, y) = C + (r_D(x) + r_D(y)) / (2 s) - r(x, y) / 2 with
    s = deg D + 2 and C = 4 tau / s - c_mu, as ``constant_of`` gives them,
    and r_D at the vertices ``at`` and on the edges ``forms``, each
    (den, a2, a1, a0) with den = D p^2, laid out by ``potential.pair_rows``.

    Everything is brought over T, the least multiple of 2 s D over which C
    is an integer shift, with D the common denominator of L+.  With
    k = T / (2 s D), r_D / (2 s) on an edge is k times r_D's numerators:
    a0 = k r_D(tail) over T, and k times the x^2 and x numerators of its
    form over T p^2; -r / 2 is -(h / T) D r with h = T / (2 D).  The x^2
    coefficient comes out as 2 k W over T p^2, the x y one on one edge as
    -w and the |x - y| one as -1/2."""
    den = lplus.denominator
    shift, shift_den, scale = constant
    t = lcm(shift_den, 2 * scale * den)
    k = t // (2 * scale * den)
    a0 = [k * at[e.tail] for e in edges]
    a2, a1 = ([k * held[n] for held in forms] for n in (1, 2))
    return pair_rows(lplus, edges, t, shift * (t // shift_den), t // (2 * den), a0, a1, a2)


def evaluate_green(
    g: MetrizedGraph, divisor: Divisor, x: GraphPoint | tuple, y: GraphPoint | tuple
) -> Fraction:
    """Green function value at two points, from g's pieces: the network's
    resistance triangle and the divisor's r_D and C, read as integers and
    combined into one Fraction.

    With x = X / u on edge i and y = Y / v on edge j, r(x, y) is an integer
    R over E u^2 v^2, E = D p_i^2 p_j^2 (D p_i^2 when i == j), r_D(x) an
    integer R_x over D p_i^2 u^2 and r_D(y) one R_y over D p_j^2 v^2, so
    with C = c / d and s = deg D + 2,
    g = (2 s c E u^2 v^2 + d (R_x p_j^2 v^2 + R_y p_i^2 u^2 - s R))
    over 2 s d E u^2 v^2, the factors p^2 dropped when i == j.  g is
    symmetric, so the two points are swapped when i > j.
    """
    i, _, X, u = _point_integers(g, x)
    j, _, Y, v = _point_integers(g, y)
    net = analysis.network(g)
    div = net.divisor(divisor)
    c, d, s = div.constant  # refuses degree -2 before L+ is built
    if i > j:
        i, X, u, j, Y, v = j, Y, v, i, X, u
    held = net.resistance_triangle[i][j - i]
    r = pair_numerator(held, X, u, Y, v)
    _, a2, a1, a0 = div.r_D[i]
    _, b2, b1, b0 = div.r_D[j]
    uu, vv = u * u, v * v
    rx = (a2 * X + a1 * u) * X + a0 * uu
    ry = (b2 * Y + b1 * v) * Y + b0 * vv
    if i == j:
        sides = rx * vv + ry * uu
    else:
        edges = net.edges
        pi, pj = edges[i].p, edges[j].p
        sides = rx * (pj * pj * vv) + ry * (pi * pi * uu)
    over = held[0] * uu * vv
    return Fraction(2 * s * c * over + d * (sides - s * r), 2 * s * d * over)

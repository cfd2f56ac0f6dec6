"""Dense exact-rational matrices, the discrete Laplacian and its pseudoinverse.

Matrices are held as integers over one denominator and the pseudoinverse is
eliminated in Python ints; there is no floating point anywhere, so
equalities between computed matrices are meaningful.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable

from .analysis import network
from .errors import MetgraphError, SingularShift
from .graph import MetrizedGraph, as_fraction, require_adequate


class RationalMatrix:
    """Immutable dense matrix of rationals: entry (i, j) is
    ``numerators[i][j] / denominator``, a ``Fraction`` built only when read,
    and ``denominator`` is the entries' least common denominator, so equal
    matrices hold equal integers.  Entries are read by ``graph.as_fraction``:
    ints, Fractions, or strings holding an integer or ``p/q``.
    """

    __slots__ = ("_denominator", "_numerators")

    denominator = property(lambda self: self._denominator)
    numerators = property(lambda self: self._numerators)

    def __init__(self, rows: Iterable[Iterable[Fraction | int | str]]):
        data = tuple(tuple(as_fraction(x, "matrix entry") for x in row) for row in rows)
        if not data or not data[0]:
            raise ValueError("matrix needs at least one row and one column")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise ValueError("matrix rows have unequal lengths")
        den = self._denominator = lcm(*(x.denominator for row in data for x in row))
        self._numerators = tuple(
            tuple(x.numerator * (den // x.denominator) for x in row) for row in data
        )

    @classmethod
    def _over(cls, den: int, numerators: Iterable[Iterable[int]]) -> "RationalMatrix":
        """numerators / den, for den > 0, brought to lowest terms by one gcd."""
        rows = tuple(map(tuple, numerators))
        common = gcd(den, *(x for row in rows for x in row))
        matrix = cls.__new__(cls)
        matrix._denominator = den // common
        matrix._numerators = tuple(tuple(x // common for x in row) for row in rows)
        return matrix

    @property
    def n_rows(self) -> int:
        return len(self.numerators)

    @property
    def n_cols(self) -> int:
        return len(self.numerators[0])

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        if not (0 <= i < self.n_rows and 0 <= j < self.n_cols):
            raise IndexError(f"entry ({i}, {j}) outside a {self.n_rows}x{self.n_cols} matrix")
        return Fraction(self.numerators[i][j], self.denominator)

    def row(self, i: int) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.denominator) for x in self.numerators[i])

    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(self.row(i) for i in range(self.n_rows))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return (self.denominator, self.numerators) == (other.denominator, other.numerators)

    def __hash__(self) -> int:
        return hash((self.denominator, self.numerators))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows())
        return f"RationalMatrix({body})"

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.n_cols != other.n_rows:
            raise ValueError("matrix shapes do not compose")
        cols = tuple(zip(*other.numerators))
        return RationalMatrix._over(
            self.denominator * other.denominator,
            ([sum(a * b for a, b in zip(row, col)) for col in cols] for row in self.numerators),
        )

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix._over(self.denominator, zip(*self.numerators))

    def trace(self) -> Fraction:
        if self.n_rows != self.n_cols:
            raise ValueError("trace needs a square matrix")
        return Fraction(sum(row[i] for i, row in enumerate(self.numerators)), self.denominator)

    def is_symmetric(self) -> bool:
        return self.n_rows == self.n_cols and self.numerators == tuple(zip(*self.numerators))

    def row_sums(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(sum(row), self.denominator) for row in self.numerators)


def laplacian(g: MetrizedGraph) -> RationalMatrix:
    """Discrete Laplacian: off-diagonal -1/length per edge, rows sum to zero."""
    return network(g).laplacian


def laplacian_matrix(g: MetrizedGraph) -> RationalMatrix:
    """The Laplacian in integers over s, the lcm of the length numerators:
    an edge of length p / q adds q (s / p) over s."""
    require_adequate(g)
    n = g.n_vertices
    s = lcm(*(e.length.numerator for e in g.edges))
    a = [[0] * n for _ in range(n)]
    for e in g.edges:
        w = e.length.denominator * (s // e.length.numerator)
        a[e.tail][e.head] -= w
        a[e.head][e.tail] -= w
        a[e.tail][e.tail] += w
        a[e.head][e.head] += w
    return RationalMatrix._over(s, a)


def pseudo_inverse(matrix: RationalMatrix) -> RationalMatrix:
    """Moore-Penrose pseudoinverse of a Laplacian of a connected graph.

    L is held as integers over its denominator s, and the Laplacian checks
    run on them.  Grounding vertex 0 leaves A, which is positive definite
    exactly when the graph is connected, and fraction-free Gauss-Jordan
    elimination on [A | I] (Bareiss 1968) gives det A and the adjugate B in
    integers, every division exact.  The grounded inverse s B / det A,
    padded with a zero row and column, is a generalized inverse G of L;
    centring it gives L+[i][j] = G[i][j] - m_i - m_j + mu, with m the
    row means of G and mu their mean.  Over the one denominator n^2 det A
    each entry is s (n^2 B[i][j] - n b_i - n b_j + b) / (n^2 det A), with b_i
    the row sums of B and b their sum; one gcd brings that to lowest terms.

    Any other matrix raises ``MetgraphError``: a Laplacian is symmetric, its
    off-diagonal entries are at most zero and its rows sum to zero.
    """
    scale, ints = matrix.denominator, matrix.numerators
    if (
        ints != tuple(zip(*ints))
        or any(map(sum, ints))
        or any(x > 0 for i, row in enumerate(ints) for j, x in enumerate(row) if i != j)
    ):
        raise MetgraphError(
            "not a Laplacian: expected a symmetric matrix with nonpositive "
            "off-diagonal entries and zero row sums"
        )
    n = len(ints)
    m = n - 1
    work = [[*row[1:]] + [0] * m for row in ints[1:]]
    # Such a Laplacian is diagonally dominant with a nonnegative diagonal, so
    # A is positive semidefinite, and definite exactly when the graph is
    # connected.  Pivot k is the leading principal minor of order k + 1.  A
    # definite A has none zero; a zero one has a null vector x, and x padded
    # with zeros has x^T A x = 0, so A is singular.  No pivot search is needed.
    prev = 1
    for k in range(m):
        pivot_row = work[k]
        pivot = pivot_row[k]
        if not pivot:
            raise SingularShift(
                "reduced Laplacian is singular; the graph behind it is disconnected"
            )
        # Left of column k only diagonal entries remain, never read again,
        # and a right-block column past m + k holds only its diagonal entry,
        # which is the previous pivot when its step comes.  So only columns
        # k..m+k are updated, and row k's right-block entry is set on entry.
        pivot_row[m + k] = prev
        window = pivot_row[k : m + k + 1]
        for i, row in enumerate(work):
            if i != k:
                factor = row[k]
                row[k : m + k + 1] = [
                    (pivot * a - factor * b) // prev
                    for a, b in zip(row[k : m + k + 1], window)
                ]
        prev = pivot
    det = prev
    adjugate = [[0] * n] + [[0] + row[m:] for row in work]
    sums = [sum(row) for row in adjugate]
    total = sum(sums)
    return RationalMatrix._over(
        n * n * det,
        ([scale * (n * n * x - n * (si + sj) + total) for x, sj in zip(row, sums)]
         for row, si in zip(adjugate, sums)),
    )


def pinv(g: MetrizedGraph) -> RationalMatrix:
    """Pseudoinverse of the graph's Laplacian, computed once per graph."""
    return network(g).pinv


def _vertex_numerators(lplus: RationalMatrix, *vertices: int) -> tuple[tuple[int, ...], ...]:
    if not all(0 <= v < lplus.n_rows for v in vertices):
        raise IndexError(f"vertices {vertices} outside a {lplus.n_rows}-vertex matrix")
    return lplus.numerators


def resistance_at_vertices(lplus: RationalMatrix, p: int, q: int) -> Fraction:
    """Effective resistance between two vertices from the pseudoinverse."""
    num = _vertex_numerators(lplus, p, q)
    return Fraction(num[p][p] - 2 * num[p][q] + num[q][q], lplus.denominator)


def voltage_at_vertices(lplus: RationalMatrix, s: int, p: int, q: int) -> Fraction:
    """Voltage j_s(p, q): potential at s when one unit of current enters at
    p and exits at q, grounded so the value vanishes at p and q themselves."""
    num = _vertex_numerators(lplus, s, p, q)
    return Fraction(num[s][s] - num[s][p] - num[s][q] + num[p][q], lplus.denominator)

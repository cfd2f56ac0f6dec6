"""Dense exact-rational matrices, the discrete Laplacian and its pseudoinverse.

Everything here runs over ``fractions.Fraction``; there is no floating
point anywhere, so equalities between computed matrices are meaningful.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .analysis import network
from .errors import MetgraphError, SingularShift
from .graph import MetrizedGraph, require_adequate


class RationalMatrix:
    """Immutable dense matrix with Fraction entries."""

    __slots__ = ("_rows",)

    def __init__(self, rows: Iterable[Iterable[Fraction | int | str]]):
        data = tuple(tuple(Fraction(x) for x in row) for row in rows)
        if not data or not data[0]:
            raise ValueError("matrix needs at least one row and one column")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise ValueError("matrix rows have unequal lengths")
        self._rows = data

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls(
            tuple(
                tuple(Fraction(1) if i == j else Fraction(0) for j in range(n))
                for i in range(n)
            )
        )

    @classmethod
    def constant(cls, n: int, value: Fraction) -> "RationalMatrix":
        value = Fraction(value)
        return cls(tuple((value,) * n for _ in range(n)))

    @property
    def n_rows(self) -> int:
        return len(self._rows)

    @property
    def n_cols(self) -> int:
        return len(self._rows[0])

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        if not (0 <= i < self.n_rows and 0 <= j < self.n_cols):
            raise IndexError(f"entry ({i}, {j}) outside a {self.n_rows}x{self.n_cols} matrix")
        return self._rows[i][j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self._rows[i]

    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return self._rows

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self._rows)
        return f"RationalMatrix({body})"

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        self._check_shape(other)
        return RationalMatrix(
            tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self._rows, other._rows))
        )

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        self._check_shape(other)
        return RationalMatrix(
            tuple(tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(self._rows, other._rows))
        )

    def __mul__(self, scalar: Fraction | int) -> "RationalMatrix":
        scalar = Fraction(scalar)
        return RationalMatrix(tuple(tuple(a * scalar for a in row) for row in self._rows))

    __rmul__ = __mul__

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.n_cols != other.n_rows:
            raise ValueError("matrix shapes do not compose")
        cols = tuple(zip(*other._rows))
        return RationalMatrix(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                for row in self._rows
            )
        )

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(tuple(zip(*self._rows)))

    def trace(self) -> Fraction:
        if self.n_rows != self.n_cols:
            raise ValueError("trace needs a square matrix")
        return sum((self._rows[i][i] for i in range(self.n_rows)), Fraction(0))

    def is_symmetric(self) -> bool:
        return self.n_rows == self.n_cols and self._rows == self.transpose()._rows

    def row_sums(self) -> tuple[Fraction, ...]:
        return tuple(sum(row, Fraction(0)) for row in self._rows)

    def inverse(self) -> "RationalMatrix":
        """Gauss-Jordan inverse, pivoting on the first nonzero entry at or below
        the diagonal: in exact arithmetic a pivot's size does not matter, and
        a positive definite matrix never needs a row swap."""
        n = self.n_rows
        if n != self.n_cols:
            raise ValueError("inverse needs a square matrix")
        work = [list(row) for row in self._rows]
        inv = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
        for col in range(n):
            pivot_row = next((r for r in range(col, n) if work[r][col]), None)
            if pivot_row is None:
                raise ValueError("matrix is singular")
            if pivot_row != col:
                work[col], work[pivot_row] = work[pivot_row], work[col]
                inv[col], inv[pivot_row] = inv[pivot_row], inv[col]
            pivot = work[col][col]
            work[col] = [x / pivot for x in work[col]]
            inv[col] = [x / pivot for x in inv[col]]
            for r in range(n):
                if r == col or work[r][col] == 0:
                    continue
                factor = work[r][col]
                work[r] = [a - factor * b for a, b in zip(work[r], work[col])]
                inv[r] = [a - factor * b for a, b in zip(inv[r], inv[col])]
        return RationalMatrix(inv)

    def _check_shape(self, other: "RationalMatrix") -> None:
        if (self.n_rows, self.n_cols) != (other.n_rows, other.n_cols):
            raise ValueError("matrix shapes differ")


def laplacian(g: MetrizedGraph) -> RationalMatrix:
    """Discrete Laplacian: off-diagonal -1/length per edge, rows sum to zero."""
    return network(g).laplacian


def laplacian_matrix(g: MetrizedGraph) -> RationalMatrix:
    require_adequate(g)
    n = g.n_vertices
    a = [[Fraction(0)] * n for _ in range(n)]
    for e in g.edges:
        w = 1 / e.length
        a[e.tail][e.head] -= w
        a[e.head][e.tail] -= w
        a[e.tail][e.tail] += w
        a[e.head][e.head] += w
    return RationalMatrix(a)


def pseudo_inverse(matrix: RationalMatrix) -> RationalMatrix:
    """Moore-Penrose pseudoinverse of a Laplacian of a connected graph.

    Grounds vertex 0: L without the row and column of vertex 0 is positive
    definite exactly when the graph is connected.  Its inverse, padded with
    a zero row and column, is a generalized inverse G of L, and centring it
    gives L+[i][j] = G[i][j] - m_i - m_j + mu, with m the row means of G and
    mu their mean.  Any other matrix raises ``MetgraphError``: a Laplacian is
    symmetric and its rows sum to zero.
    """
    rows = matrix.rows()
    if rows != tuple(zip(*rows)) or any(sum(row) for row in rows):
        raise MetgraphError(
            "not a Laplacian: expected a symmetric matrix with zero row sums"
        )
    n = matrix.n_rows
    if n == 1:
        return RationalMatrix([[0]])
    reduced = RationalMatrix(row[1:] for row in rows[1:])
    try:
        inv = reduced.inverse().rows()
    except ValueError:
        raise SingularShift(
            "reduced Laplacian is singular; the graph behind it is disconnected"
        ) from None
    zero = Fraction(0)
    grounded = [(zero,) * n] + [(zero,) + row for row in inv]
    means = [sum(row, zero) / n for row in grounded]
    mu = sum(means, zero) / n
    return RationalMatrix(
        [x - mi - mj + mu for x, mj in zip(row, means)] for row, mi in zip(grounded, means)
    )


def pinv(g: MetrizedGraph) -> RationalMatrix:
    """Pseudoinverse of the graph's Laplacian, computed once per graph."""
    return network(g).pinv


def resistance_at_vertices(lplus: RationalMatrix, p: int, q: int) -> Fraction:
    """Effective resistance between two vertices from the pseudoinverse."""
    return lplus[p, p] - 2 * lplus[p, q] + lplus[q, q]


def voltage_at_vertices(lplus: RationalMatrix, s: int, p: int, q: int) -> Fraction:
    """Voltage j_s(p, q): potential at s when one unit of current enters at
    p and exits at q, grounded so the value vanishes at p and q themselves."""
    return lplus[s, s] - lplus[s, p] - lplus[s, q] + lplus[p, q]

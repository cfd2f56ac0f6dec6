"""Dense exact-rational matrices, the discrete Laplacian and its pseudoinverse.

Matrices are held as integers over one denominator, and the pseudoinverse
is computed in Python ints: the vertices are put in reverse Cuthill-McKee
order, the grounded Laplacian, each row scaled by its own least
denominator, is eliminated fraction-free inside its envelope, and one
triangle of its inverse times that elimination's determinant, a symmetric
integer matrix, is back-substituted fraction-free.  There is no floating
point anywhere, so equalities between computed matrices are meaningful.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, compress
from math import gcd, lcm
from operator import attrgetter, itemgetter, mul
from typing import Iterable

from . import analysis
from .errors import MetgraphError, SingularShift
from .graph import MetrizedGraph, is_index, require_adequate


class RationalMatrix:
    """Immutable dense matrix of rationals: entry (i, j) is
    ``numerators[i][j] / denominator``, a ``Fraction`` built only when a
    row is read, and ``denominator`` is the entries' least common
    denominator, so equal matrices hold equal integers.  The package makes
    its matrices in integers, and ``_reduced`` takes those integers as they
    are; it is the only constructor.
    """

    __slots__ = ("_denominator", "_numerators")

    denominator = property(attrgetter("_denominator"))
    numerators = property(attrgetter("_numerators"))

    def __init__(self, *args, **kwargs):
        raise TypeError("RationalMatrix instances are made by RationalMatrix._reduced")

    @classmethod
    def _reduced(cls, den: int, numerators: Iterable[Iterable[int]]) -> "RationalMatrix":
        """numerators / den, taken as they are: den > 0 and in lowest terms."""
        matrix = cls.__new__(cls)
        matrix._denominator = den
        matrix._numerators = tuple(map(tuple, numerators))
        return matrix

    @property
    def n_rows(self) -> int:
        return len(self.numerators)

    def row(self, i: int) -> tuple[Fraction, ...]:
        if not is_index(i, self.n_rows):
            raise IndexError(f"row {i} outside a {self.n_rows}-row matrix")
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


def laplacian(g: MetrizedGraph) -> RationalMatrix:
    """Discrete Laplacian: off-diagonal -1/length per edge, rows sum to zero."""
    return analysis.network(g).laplacian


def laplacian_matrix(g: MetrizedGraph) -> RationalMatrix:
    """The Laplacian in integers over s, the lcm of the length numerators:
    an edge of length p / q adds w = q (s / p) over s.

    This is already in lowest terms.  Take a prime r dividing s.  Some edge
    has v_r(p) = v_r(s), since s is the lcm of the p, so r divides neither
    s / p nor q, which is coprime to p; so r does not divide that edge's w.
    Each off-diagonal entry is one -w (the graph is adequate), so no prime
    factor of s divides every entry."""
    require_adequate(g)
    n = g.n_vertices
    s = lcm(*(e.length.numerator for e in g.edges))
    a = [[0] * n for _ in range(n)]
    for tail, head, length in g.edges:
        w = length.denominator * (s // length.numerator)
        a[tail][head] = a[head][tail] = -w
        a[tail][tail] += w
        a[head][head] += w
    return RationalMatrix._reduced(s, a)


def _reverse_cuthill_mckee(neighbours: list[list[int]]) -> list[int]:
    """Every vertex in reverse Cuthill-McKee order (Cuthill and McKee 1969,
    reversed by George 1971): each component breadth-first, a vertex's
    unvisited neighbours by ascending degree, then the whole order reversed.
    A component starts from a pseudo-peripheral vertex (George and Liu
    1979): the search moves to a least-degree vertex of the last level
    while that lies deeper.
    """
    degree = [len(near) for near in neighbours]

    def breadth_first(root: int) -> tuple[list[int], dict[int, int]]:
        seen, depth = [root], {root: 0}
        for v in seen:  # runs on over the vertices appended meanwhile
            for w in sorted(neighbours[v], key=degree.__getitem__):
                if w not in depth:
                    depth[w] = depth[v] + 1
                    seen.append(w)
        return seen, depth

    order: list[int] = []
    placed: set[int] = set()
    for root in range(len(neighbours)):
        if root in placed:
            continue
        component, depth = breadth_first(root)
        while True:
            last = depth[component[-1]]
            start = min((v for v in component if depth[v] == last), key=degree.__getitem__)
            tried, deeper = breadth_first(start)
            if deeper[tried[-1]] <= last:
                break
            component, depth = tried, deeper
        placed.update(component)
        order += component
    order.reverse()
    return order


def pseudo_inverse(matrix: RationalMatrix) -> RationalMatrix:
    """Moore-Penrose pseudoinverse of a Laplacian of a connected graph.

    L is held as integers over its denominator s, and the Laplacian checks
    run on them.  The vertices are put in reverse Cuthill-McKee order and
    the last one is grounded, leaving A, positive definite exactly when the
    graph is connected.  Row i of A is taken over its own least denominator
    d_i = s / gcd(s, row i of s A): the integer matrix eliminated is
    M = D A, with D = diag(d_i), so no row is wider than in s A, and a row
    sheds every factor of s that its entries share.  (With every d_i = s
    this is s A, whose pivots each carry a power of s.)  M has A's
    sparsity pattern, which is symmetric.  Row i starts at its first
    nonzero column f_i, and by symmetry column k ends at row hi_k, the last
    row j with f_j <= k.  Elimination without pivoting fills in nothing
    outside this envelope, so row i only ever spans the columns f_i to hi_i.

    Forward pass: fraction-free elimination (Bareiss 1968) turns M into U,
    whose row k holds minors of M, with pivot p_k = U[k][k] the leading
    minor of order k + 1 (p_{-1} = 1), d_0 ... d_k times that of A.  Step k
    updates only the rows in (k, hi_k] whose column-k entry is nonzero.
    Bareiss's update of a row with a zero factor only rescales it by
    p_k / p_{k-1}, and these telescope, so the row keeps its values from
    the stage s it was last updated to: its next update divides by p_{s-1}
    instead of p_{k-1}, and as pivot row k it is first multiplied by
    p_{k-1} / p_{s-1}.  Every result is a minor, so every division is
    exact.

    Back-substitution: the same steps on [M | I] would leave [U | R] with
    R M = U, R lower triangular and R[i][i] = p_{i-1}.  Y = det M * A^-1 is
    the adjugate of M times D, an integer matrix, symmetric because A is,
    and it solves U Y = det M * R D.  Only its upper triangle is solved for,
    and there det M * R D is known without building R: det M * p_{i-1} * d_i
    on the diagonal, 0 above it.  So for c >= i,
    Y[i][c] = (det M * p_{i-1} * d_i [i = c] - sum over j in (i, hi_i] of
    U[i][j] Y[j][c]) / p_i (Takahashi, Fagan and Chen 1973), and the
    division is exact because Y is an integer matrix (Nakos, Turner and
    Williams 1997).  Y is solved row by row from the last: each solved row
    is mirrored into the column below its diagonal, so every row below row
    i holds both halves of Y, and Y[j][c] = Y[c][j] puts the sum for
    Y[i][c], c > i, on one slice of row c.  Row i's part right of its
    diagonal comes first; its diagonal reads Y[j][i] = Y[i][j] off it.

    Centring: Y / det M, padded with a zero row and column for the grounded
    vertex and put back in the input's vertex order, is a generalized
    inverse G of L, and L+[i][j] = G[i][j] - m_i - m_j + mu, with m the row
    means of G and mu their mean.  Over the one denominator n^2 det M each
    entry is (n^2 B[i][j] - n b_i - n b_j + b) / (n^2 det M), with B the
    padded Y, b_i its row sums and b their sum; one gcd brings that to
    lowest terms.  L+ is symmetric, so this runs on the upper triangle,
    which is then mirrored.  Neither the order nor the row scales change
    the result: L+ is unique, and so are its integers in lowest terms.

    Any other matrix raises ``MetgraphError``: a Laplacian is symmetric, its
    off-diagonal entries are at most zero and its rows sum to zero.
    """
    scale, ints = matrix.denominator, matrix.numerators
    if (
        ints != tuple(zip(*ints))
        or any(map(sum, ints))
        or any(max(row[:i] + row[i + 1 :], default=0) > 0 for i, row in enumerate(ints))
    ):
        raise MetgraphError(
            "not a Laplacian: expected a symmetric matrix with nonpositive "
            "off-diagonal entries and zero row sums"
        )
    n = len(ints)
    order = _reverse_cuthill_mckee(
        [[v for v in compress(range(n), row) if v != u] for u, row in enumerate(ints)]
    )
    m = n - 1
    # the grounded vertex is gathered too, so a graph of two vertices gets a
    # tuple, then dropped
    gather = itemgetter(*order)
    gathered = [gather(ints[u])[:m] for u in order[:m]]
    scales = [scale // gcd(scale, *row) for row in gathered]  # d_i, row i's least denominator
    rows = [[x * d // scale for x in row] for row, d in zip(gathered, scales)]
    first = [next(j for j, x in enumerate(row) if x or j == i) for i, row in enumerate(rows)]
    # first[i] <= i, so column k ends at least at row k
    last = dict(zip(first, range(m)))  # per column, the last row that starts there
    hi = list(accumulate((last.get(k, k) for k in range(m)), max))
    # Such a Laplacian is diagonally dominant with a nonnegative diagonal, so
    # A, in any vertex order, is positive semidefinite, and definite exactly
    # when the graph is connected.  Pivot k is d_0 ... d_k times A's leading
    # principal minor of order k + 1.  A definite A has none zero; a zero one
    # has a null vector x, and x padded with zeros has x^T A x = 0, so A is
    # singular.  No pivot search is needed.
    pivots = [1]  # pivots[s] = p_{s-1}, the divisor of a row last updated at stage s
    stage = [0] * m
    for k, row in enumerate(rows):
        end = hi[k] + 1
        if stage[k] != k:
            up, down = pivots[k], pivots[stage[k]]
            row[k:end] = [x * up // down for x in row[k:end]]
        pivot = row[k]
        if not pivot:
            raise SingularShift(
                "reduced Laplacian is singular; the graph behind it is disconnected"
            )
        for i in range(k + 1, end):
            target = rows[i]
            factor = target[k]
            if factor:
                stop, down = hi[i] + 1, pivots[stage[i]]
                target[k + 1 : stop] = [
                    (pivot * a - factor * b) // down
                    for a, b in zip(target[k + 1 : stop], row[k + 1 : stop])
                ]
                stage[i] = k + 1
        pivots.append(pivot)
    det = pivots[-1]
    # row i of Y is filled right of its diagonal when solved, left of it as
    # the rows above are; the grounded vertex's row stays zero
    solved = [[0] * n for _ in range(n)]
    for i in reversed(range(m)):
        row, end, target = rows[i], hi[i] + 1, solved[i]
        pivot, factors = row[i], row[i + 1 : end]
        # Y[j][c] = Y[c][j], so row c of Y, c > i, holds column c's slice
        right = [-sum(map(mul, factors, y[i + 1 : end])) // pivot for y in solved[i + 1 : m]]
        target[i] = (det * pivots[i] * scales[i] - sum(map(mul, factors, right))) // pivot
        target[i + 1 : m] = right
        for later, y in zip(solved[i + 1 : m], right):
            later[i] = y
    place = sorted(range(n), key=order.__getitem__)  # place[u]: u's position in order
    sums = [sum(solved[p]) for p in place]
    total, nn = sum(sums), n * n
    upper = [
        [nn * row[q] - n * (si + sj) + total for q, sj in zip(place[u:], sums[u:])]
        for u, (row, si) in enumerate(zip(map(solved.__getitem__, place), sums))
    ]
    den = nn * det
    common = gcd(den, *(x for row in upper for x in row))
    reduced = [[x // common for x in row] for row in upper]
    return RationalMatrix._reduced(
        den // common,
        ([reduced[v][u - v] for v in range(u)] + row for u, row in enumerate(reduced)),
    )


def pinv(g: MetrizedGraph) -> RationalMatrix:
    """Pseudoinverse of the graph's Laplacian, computed once per graph."""
    return analysis.network(g).pinv


def resistance_at_vertices(lplus: RationalMatrix, p: int, q: int) -> Fraction:
    """Effective resistance between two vertices from the pseudoinverse."""
    if not (is_index(p, lplus.n_rows) and is_index(q, lplus.n_rows)):
        raise IndexError(f"vertices {(p, q)} outside a {lplus.n_rows}-vertex matrix")
    num = lplus.numerators
    return Fraction(num[p][p] - 2 * num[p][q] + num[q][q], lplus.denominator)

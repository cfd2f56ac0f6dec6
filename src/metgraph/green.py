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
The build runs row by row and makes each product once: what one edge
supplies once per edge, what edge i adds once per row, and the terms that
read both edges once per unordered edge pair: z_ji is z_ij's integers with
x and y swapped.  The build compares no pair; g(x, y) = g(y, x) is checked
by the ordered-pair property test, the vertex-formula check and the oracle.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import TYPE_CHECKING

from .analysis import network
from .errors import MetgraphError
from .graph import Divisor, GraphPoint, MetrizedGraph, Record, is_index, validate_point
from .potential import EdgePairFunction

if TYPE_CHECKING:
    from .analysis import DivisorAnalysis, Network

__all__ = [
    "EdgePairFunction",
    "ValueMatrix",
    "evaluate_green",
    "value_matrix",
]


class ValueMatrix(Record):
    """All edge-pair closed forms of one Green function."""

    __slots__ = ("divisor", "entries")
    _fields = ("divisor", "entries")

    divisor: Divisor
    entries: tuple[tuple[EdgePairFunction, ...], ...]

    def __init__(self, divisor: Divisor, entries: tuple[tuple[EdgePairFunction, ...], ...]):
        self._assign(divisor, entries)

    @property
    def size(self) -> int:
        return len(self.entries)

    def entry(self, i: int, j: int) -> EdgePairFunction:
        if not (is_index(i, self.size) and is_index(j, self.size)):
            raise MetgraphError(f"entry ({i!r}, {j!r}) outside a {self.size}-edge matrix")
        return self.entries[i][j]

    def evaluate(self, x: GraphPoint, y: GraphPoint) -> Fraction:
        return self.entries[x.edge][y.edge](x.offset, y.offset)


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
    symmetric, so z_ji (j > i) is made from z_ij's integers.
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
    m = len(columns)
    rows = [[None] * m for _ in range(m)]
    for i, (ti, _, ppi, _, zi, wi, xi, ki, ai) in enumerate(columns):
        lpt, base, row = lp[ti], shift + zi, rows[i]
        c0, cx = (shift + 2 * a0[i]) * ppi, a1[i]
        cxy, cabs = -twice_half * net.edges[i].w, -half * den * ppi
        row[i] = EdgePairFunction._over(i, i, t * ppi, (c0, cx, cx, wi, wi, cxy, cabs))
        for j, (tj, hj, ppj, pqj, zj, wj, xj, kj, aj) in enumerate(columns[i + 1 :], i + 1):
            pp = ppi * ppj
            c0 = (base + zj + twice_half * lpt[tj]) * pp
            cx, cy = (xi - ki * ai[tj]) * ppj, (xj - kj * aj[ti]) * ppi
            cxx, cyy = wi * ppj, wj * ppi
            cxy = -ki * pqj * (ai[hj] - ai[tj])
            pair_den = t * pp
            row[j] = EdgePairFunction._over(i, j, pair_den, (c0, cx, cy, cxx, cyy, cxy, 0))
            rows[j][i] = EdgePairFunction._over(j, i, pair_den, (c0, cy, cx, cyy, cxx, cxy, 0))
    return ValueMatrix(div.divisor, tuple(map(tuple, rows)))


def evaluate_green(
    g: MetrizedGraph, divisor: Divisor, x: GraphPoint | tuple, y: GraphPoint | tuple
) -> Fraction:
    """Green function value at two points, via the cached value matrix."""
    x = validate_point(g, x)
    y = validate_point(g, y)
    return value_matrix(g, divisor).evaluate(x, y)

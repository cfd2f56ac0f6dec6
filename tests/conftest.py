"""Shared graph fixtures and the acceptance summary hook.

The five standing test graphs double as golden fixtures: a circle with a
chosen vertex (matrix vertex order p1, p0, p2), two circles joined at a
point, a hypercube over four bits, a three-edge banana refined to an
adequate vertex set, and a path-with-diamond carrying two bridges.
"""

import __future__
import heapq
import inspect
import json
import random
from contextlib import contextmanager
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import settings

import metgraph as mg

# Property tests run 25 examples each; CI also runs them with
# ``--hypothesis-profile=slow``.  Exact arithmetic has no fixed cost per
# example, so neither profile has a deadline.
settings.register_profile("common", max_examples=25, deadline=None)
settings.register_profile("slow", max_examples=500, deadline=None)
settings.load_profile("common")


def build_circle() -> mg.MetrizedGraph:
    return mg.MetrizedGraph(
        ("p1", "p0", "p2"),
        (
            mg.Edge(1, 0, Fraction(1, 2)),
            mg.Edge(1, 2, Fraction(1)),
            mg.Edge(0, 2, Fraction(1, 2)),
        ),
    )


def build_joint_circles(l1=Fraction(3), l2=Fraction(6)) -> mg.MetrizedGraph:
    l1, l2 = Fraction(l1), Fraction(l2)
    return mg.MetrizedGraph(
        ("p0", "p1", "p2", "p3", "p4"),
        (
            mg.Edge(0, 1, l1 / 3),
            mg.Edge(1, 2, l1 / 3),
            mg.Edge(2, 0, l1 / 3),
            mg.Edge(0, 3, l2 / 3),
            mg.Edge(3, 4, l2 / 3),
            mg.Edge(4, 0, l2 / 3),
        ),
    )


def build_banana(a=1, b=2, c=3) -> mg.MetrizedGraph:
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    return mg.MetrizedGraph(
        ("p0", "p1", "p2", "p3"),
        (
            mg.Edge(0, 1, b),
            mg.Edge(0, 2, a / 2),
            mg.Edge(2, 1, a / 2),
            mg.Edge(0, 3, c / 2),
            mg.Edge(3, 1, c / 2),
        ),
    )


def build_tesseract() -> mg.MetrizedGraph:
    edges = []
    for i in range(16):
        for j in range(i + 1, 16):
            if bin(i ^ j).count("1") == 1:
                edges.append(mg.Edge(i, j, Fraction(1)))
    return mg.MetrizedGraph(tuple(f"p{k}" for k in range(16)), tuple(edges))


def build_two_bridges() -> mg.MetrizedGraph:
    return mg.MetrizedGraph(
        tuple(f"p{k}" for k in range(6)),
        (
            mg.Edge(0, 1, Fraction(1)),
            mg.Edge(1, 2, Fraction(1)),
            mg.Edge(1, 3, Fraction(1)),
            mg.Edge(2, 4, Fraction(1)),
            mg.Edge(3, 4, Fraction(1)),
            mg.Edge(4, 5, Fraction(1)),
        ),
    )


def build_circle_with_tail(a=1, b=1, c=2) -> mg.MetrizedGraph:
    """A circle of length a + b with one pendant edge of length c at p2."""
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    return mg.MetrizedGraph(
        ("p0", "p1", "p2", "p3"),
        (
            mg.Edge(0, 1, a / 2),
            mg.Edge(0, 2, a / 2),
            mg.Edge(1, 2, b),
            mg.Edge(2, 3, c),
        ),
    )


def build_segment(length=1) -> mg.MetrizedGraph:
    return mg.MetrizedGraph(("p", "q"), (mg.Edge(0, 1, Fraction(length)),))


STANDING = (
    ("circle", build_circle, (0, 2, 0)),
    ("joint_circles", build_joint_circles, (2, 0, 0, 0, 0)),
    ("banana", build_banana, (1, 1, 0, 0)),
    ("two_bridges", build_two_bridges, (1, 0, 0, 0, 0, 2)),
    ("tesseract", build_tesseract, tuple(range(16))),
)


POINTS_DIR = Path(__file__).parent / "data" / "oracle_points"


def load_pairs(name):
    """The frozen oracle point pairs of a standing graph."""
    pairs = []
    for line in (POINTS_DIR / f"{name}.txt").read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        xs, ys = line.split()
        ex, ox = xs.split(":")
        ey, oy = ys.split(":")
        pairs.append((mg.GraphPoint(int(ex), Fraction(ox)), mg.GraphPoint(int(ey), Fraction(oy))))
    return pairs


def fraction_laplacian(g: mg.MetrizedGraph) -> mg.RationalMatrix:
    """The Laplacian summed entry by entry in Fractions, the reference for
    the integer build."""
    n = g.n_vertices
    a = [[Fraction(0)] * n for _ in range(n)]
    for e in g.edges:
        w = 1 / e.length
        a[e.tail][e.head] -= w
        a[e.head][e.tail] -= w
        a[e.tail][e.tail] += w
        a[e.head][e.head] += w
    return rational_matrix(a)


# Test-side builders.  The package makes matrices, forms, graphs and vertex
# values only from the integers it computes; these make them from numbers
# written in a test (ints, Fractions or ``p/q`` strings, as ``Fraction``
# reads them) or derive them from a graph.


def rational_matrix(rows) -> mg.RationalMatrix:
    """The matrix of these rows, over its entries' least common denominator."""
    rows = [[Fraction(x) for x in row] for row in rows]
    den = lcm(*(x.denominator for row in rows for x in row))
    return rational_over(den, ([int(x * den) for x in row] for row in rows))


def form_over(cls, at: tuple[int, ...], values):
    """An ``EdgeFunction`` or ``EdgePairFunction`` at the edge indices
    ``at``, with these coefficients over their least common denominator."""
    values = [Fraction(x) for x in values]
    den = lcm(*(x.denominator for x in values))
    return cls._over(at, (den, *(int(x * den) for x in values)))


def pair_form(i, j, c0=0, cx=0, cy=0, cxx=0, cyy=0, cxy=0, cabs=0) -> mg.EdgePairFunction:
    return form_over(mg.EdgePairFunction, (i, j), (c0, cx, cy, cxx, cyy, cxy, cabs))


def edge_form(edge, a2, a1, a0) -> mg.EdgeFunction:
    return form_over(mg.EdgeFunction, (edge,), (a2, a1, a0))


def scaled_graph(g: mg.MetrizedGraph, factor) -> mg.MetrizedGraph:
    """The same graph with every edge length multiplied by ``factor``."""
    factor = Fraction(factor)
    return mg.MetrizedGraph(
        g.vertices, tuple(mg.Edge(e.tail, e.head, e.length * factor) for e in g.edges)
    )


def edge_reversed(g: mg.MetrizedGraph, i: int) -> mg.MetrizedGraph:
    """The same graph with edge ``i`` parametrized from the other end."""
    e = g.edges[i]
    flipped = mg.Edge(e.head, e.tail, e.length)
    return mg.MetrizedGraph(g.vertices, g.edges[:i] + (flipped,) + g.edges[i + 1 :])


def representations(g: mg.MetrizedGraph, v: int) -> tuple[mg.GraphPoint, ...]:
    """Every (edge, offset) description of vertex ``v``, read off the
    graph's incidence table: in edge order, each edge's tail description
    before its head one, so the first is ``point_of_vertex``'s."""
    return tuple(
        mg.GraphPoint(i, g.edges[i].length if end else Fraction(0)) for i, end, _ in g._ends[v]
    )


def vertex_resistance(g: mg.MetrizedGraph, p: int, q: int) -> Fraction:
    return mg.resistance_at_vertices(mg.pinv(g), p, q)


def rational_over(den: int, numerators) -> mg.RationalMatrix:
    """numerators / den, for den > 0, brought to lowest terms by one gcd."""
    rows = tuple(map(tuple, numerators))
    common = gcd(den, *(x for row in rows for x in row))
    return mg.RationalMatrix._reduced(den // common, ((x // common for x in row) for row in rows))


def gauss_jordan_pinv(lap: mg.RationalMatrix) -> mg.RationalMatrix:
    """L+ by fraction-free Gauss-Jordan elimination (Bareiss 1968) on
    [A | I], A the Laplacian grounded at vertex 0, dense and in the input's
    vertex order, centred as ``pseudo_inverse`` centres: the reference for
    the banded elimination.  Expects the Laplacian of a connected graph."""
    scale, ints = lap.denominator, lap.numerators
    n = len(ints)
    m = n - 1
    work = [[*row[1:]] + [0] * m for row in ints[1:]]
    prev = 1
    for k in range(m):
        pivot_row = work[k]
        pivot = pivot_row[k]
        if not pivot:
            raise mg.SingularShift("zero pivot")
        # a right-block column past m + k holds only its diagonal entry,
        # which is the previous pivot when its step comes
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
    return rational_over(
        n * n * det,
        ([scale * (n * n * x - n * (si + sj) + total) for x, sj in zip(row, sums)]
         for row, si in zip(adjugate, sums)),
    )


def defines_pseudo_inverse(lap: mg.RationalMatrix, lplus: mg.RationalMatrix) -> bool:
    """Whether lplus is L+ of a connected graph's Laplacian lap by its
    definition, read without any elimination.  With L = Lint / s and
    L+ = N / D: n Lint N = s D (n I - J), N 1 = 0 and N = N^T, which make
    N / D symmetric with L (N / D) the projection I - J / n, and so L+.
    Lint is sparse, so each check costs O(n m) for n vertices and m edges."""
    s, lint = lap.denominator, lap.numerators
    d, nums = lplus.denominator, lplus.numerators
    n = len(lint)
    if nums != tuple(zip(*nums)) or any(map(sum, nums)):
        return False
    for i, row in enumerate(lint):
        product = [0] * n
        for j, a in enumerate(row):
            if a:
                product = [p + a * x for p, x in zip(product, nums[j])]
        if [n * p for p in product] != [s * d * (n * (c == i) - 1) for c in range(n)]:
            return False
    return True


def resistance_numerators(net: mg.Network, i: int, j: int) -> tuple[int, int, int, int]:
    """The point resistance r(x, y), x on edge i and y on another edge j, as
    integers: the numerators of its coefficients c0, cx, cy and cxy over
    D, D p_i, D p_j and D p_i p_j.  Its x^2 and y^2 coefficients are -w_i
    and -w_j.

    r is quadratic in both offsets, with coefficients read off the vertex
    resistances and voltages: with the voltage j_s(p, q) written v(s, p, q),
    c0 = r(t_i, t_j), cx = 1 - 2 v(t_i, h_i, t_j) / L_i,
    cy = 1 - 2 v(t_j, t_i, h_j) / L_j and
    cxy = 2 (v(t_j, t_i, h_j) - v(t_j, h_i, h_j)) / (L_i L_j), where
    v(t_i, h_i, t_j) = a_i[t_i] - a_i[t_j], v(t_j, t_i, h_j) =
    a_j[t_j] - a_j[t_i], and the cross term is a_i[h_j] - a_i[t_j], each
    over D.  Computed per pair, apart from the package's row-by-row
    ``potential.pair_rows``, which makes the resistance triangle and the
    value matrix, and which it is the reference for.
    """
    den, lp = net.pinv.denominator, net.pinv.numerators
    ti, _, pi, qi, _, ai, _ = net.edges[i]
    tj, hj, pj, qj, _, aj, _ = net.edges[j]
    return (
        lp[ti][ti] - 2 * lp[ti][tj] + lp[tj][tj],
        den * pi - 2 * qi * (ai[ti] - ai[tj]),
        den * pj - 2 * qj * (aj[tj] - aj[ti]),
        2 * qi * qj * (ai[hj] - ai[tj]),
    )


def resistance_form(net: mg.Network, i: int, j: int) -> mg.EdgePairFunction:
    """Closed form of the point resistance r(x, y), x on edge i, y on edge j:
    the reference for the network's resistance triangle, which
    ``resistance_point`` evaluates.

    On one edge r is |x - y| minus a parabola in x - y; on two edges it is
    the quadratic of ``resistance_numerators``.  With w = W / (D p^2) the
    coefficients are integers over D p^2 on one edge and over
    D p_i^2 p_j^2 on two.
    """
    ei = net.edges[i]
    den = net.pinv.denominator
    if i == j:
        pp = ei.p * ei.p
        return mg.EdgePairFunction._over((i, j), (den * pp, 0, 0, 0, -ei.w, -ei.w, 2 * ei.w, den * pp))
    ej = net.edges[j]
    pi, pj = ei.p, ej.p
    c0, cx, cy, cxy = resistance_numerators(net, i, j)
    return mg.EdgePairFunction._over(
        (i, j),
        (
            den * pi * pi * pj * pj,
            c0 * pi * pi * pj * pj,
            cx * pi * pj * pj,
            cy * pi * pi * pj,
            -ei.w * pj * pj,
            -ej.w * pi * pi,
            cxy * pi * pj,
            0,
        ),
    )


# Matrix, voltage and distance references; the library computes none of them.


def matmul(a: mg.RationalMatrix, b: mg.RationalMatrix) -> mg.RationalMatrix:
    """The exact product a b."""
    if len(a.numerators[0]) != b.n_rows:
        raise ValueError("matrix shapes do not compose")
    cols = tuple(zip(*b.numerators))
    return rational_over(
        a.denominator * b.denominator,
        ([sum(x * y for x, y in zip(row, col)) for col in cols] for row in a.numerators),
    )


def transpose(m: mg.RationalMatrix) -> mg.RationalMatrix:
    return rational_over(m.denominator, zip(*m.numerators))


def trace(m: mg.RationalMatrix) -> Fraction:
    return Fraction(sum(row[i] for i, row in enumerate(m.numerators)), m.denominator)


def is_symmetric(m: mg.RationalMatrix) -> bool:
    return m.numerators == tuple(zip(*m.numerators))


def row_sums(m: mg.RationalMatrix) -> tuple[Fraction, ...]:
    return tuple(Fraction(sum(row), m.denominator) for row in m.numerators)


def penrose_identities(lap: mg.RationalMatrix, lplus: mg.RationalMatrix) -> bool:
    """L L+ L = L, L+ L L+ = L+, and L L+ and L+ L symmetric."""
    left, right = matmul(lap, lplus), matmul(lplus, lap)
    return (
        matmul(left, lap) == lap
        and matmul(right, lplus) == lplus
        and is_symmetric(left)
        and is_symmetric(right)
    )


def voltage(lplus: mg.RationalMatrix, s: int, p: int, q: int) -> Fraction:
    """Voltage j_s(p, q): the potential at s when one unit of current enters
    at p and exits at q, grounded so the value vanishes at p and q."""
    num = lplus.numerators
    return Fraction(num[s][s] - num[s][p] - num[s][q] + num[p][q], lplus.denominator)


def shortest_distance(g: mg.MetrizedGraph, u: int, v: int) -> Fraction:
    """Length of a shortest path between two vertices (Dijkstra)."""
    dist: list[Fraction | None] = [None] * g.n_vertices
    heap = [(Fraction(0), u)]
    while heap:
        d, w = heapq.heappop(heap)
        if dist[w] is not None:
            continue
        dist[w] = d
        for e in g.edges:
            for a, b in ((e.tail, e.head), (e.head, e.tail)):
                if a == w and dist[b] is None:
                    heapq.heappush(heap, (d + e.length, b))
    return dist[v]


def seeded_grid(k: int, seed: int) -> tuple[mg.MetrizedGraph, mg.Divisor]:
    """A k x k grid whose lengths and divisor placement a seed shuffles."""
    rng = random.Random(seed)
    pairs = []
    for r in range(k):
        for c in range(k):
            v = r * k + c
            if c + 1 < k:
                pairs.append((v, v + 1))
            if r + 1 < k:
                pairs.append((v, v + k))
    palette = ("1", "2", "3", "1/2", "3/2", "2/3")
    lengths = [Fraction(palette[i % len(palette)]) for i in range(len(pairs))]
    rng.shuffle(lengths)
    coeffs = [0] * (k * k)
    for v, a in zip(rng.sample(range(k * k), 3), (1, 2, 3)):
        coeffs[v] = a
    edges = tuple(mg.Edge(a, b, length) for (a, b), length in zip(pairs, lengths))
    g = mg.MetrizedGraph(tuple(f"v{v}" for v in range(k * k)), edges)
    return g, mg.Divisor(tuple(coeffs))


def standing_graphs() -> list[tuple[str, mg.MetrizedGraph, mg.Divisor]]:
    return [(name, builder(), mg.Divisor(coeffs)) for name, builder, coeffs in STANDING]


@pytest.fixture(params=STANDING, ids=lambda item: item[0])
def standing(request):
    name, builder, coeffs = request.param
    return name, builder(), mg.Divisor(coeffs)


@pytest.fixture
def circle():
    return build_circle()


@pytest.fixture
def joint_circles():
    return build_joint_circles()


@pytest.fixture
def banana():
    return build_banana()


@pytest.fixture
def tesseract():
    return build_tesseract()


@pytest.fixture
def two_bridges():
    return build_two_bridges()


@pytest.fixture
def segment():
    return build_segment()


def serialize_graph(g: mg.MetrizedGraph, divisor: mg.Divisor | None = None) -> str:
    """The graph, and the divisor if given, in the CLI's JSON graph format."""

    def length_of(value: Fraction):
        return value.numerator if value.denominator == 1 else str(value)

    doc = {
        "vertices": list(g.vertices),
        "edges": [
            {"from": e.tail, "to": e.head, "length": length_of(e.length)}
            for e in g.edges
        ],
    }
    if divisor is not None:
        doc["divisor"] = list(divisor.coefficients)
    return json.dumps(doc, indent=2) + "\n"


class FormContract:
    """What ``EdgeFunction`` and ``EdgePairFunction`` share, written once.

    A test class for one of them inherits these tests and sets ``cls``,
    ``indices`` (its edge index properties), ``at`` and ``other_at`` (two
    index tuples), ``terms`` (its coefficient names), ``sample_repr`` (the
    repr of ``_over(at, (12, 6, -4, 3, 0, ...))``) and ``call`` (arguments
    and value of that form at one point), and gives a ``form`` fixture with
    one form the library builds.
    """

    def sample(self):
        numerators = (6, -4, 3) + (0,) * (len(self.terms) - 3)
        return self.cls._over(self.at, (12, *numerators))

    def build(self, at, *values):
        """A form at ``at`` with these leading coefficients, the rest zero."""
        return form_over(self.cls, at, values + (0,) * (len(self.terms) - len(values)))

    def test_equal_values_over_different_denominators(self, form):
        at = tuple(getattr(form, name) for name in self.indices)
        rebuilt = self.build(at, *form.coefficients())
        scaled = self.cls._over(at, tuple(3 * c for c in (form.denominator, *form.numerators)))
        assert len({form.denominator, rebuilt.denominator, scaled.denominator}) == 3
        assert form == rebuilt == scaled
        assert hash(form) == hash(rebuilt) == hash(scaled)
        assert {rebuilt: "found"}[scaled] == "found"
        assert scaled.coefficients() == form.coefficients()

    def test_coefficients_read_reduced(self):
        form = self.sample()
        zeros = (len(self.terms) - 3) * [(Fraction, 0, 1)]
        assert [(type(c), c.numerator, c.denominator) for c in form.coefficients()] == [
            (Fraction, 1, 2),
            (Fraction, -1, 3),
            (Fraction, 1, 4),
            *zeros,
        ]
        assert tuple(getattr(form, name) for name in self.terms) == form.coefficients()
        assert tuple(getattr(form, name) for name in self.indices) == self.at
        assert form == self.build(self.at, Fraction(1, 2), "-1/3", Fraction(1, 4))
        args, value = self.call
        assert form(*args) == value
        assert repr(form) == self.sample_repr

    def test_unequal_forms(self):
        form = self.build(self.at, Fraction(-1), 2, 0)
        assert form != self.build(self.other_at, Fraction(-1), 2, 0)
        changed = [0] * (len(self.terms) - 3) + [Fraction(1, 5)]
        assert form != self.build(self.at, Fraction(-1), 2, *changed)
        assert form != (*self.at, Fraction(-1), 2, 0)

    def test_read_only(self, form):
        for name in (*self.indices, "denominator", "numerators", *self.terms, "other"):
            with pytest.raises(AttributeError):
                setattr(form, name, 1)


def sample_offsets(length: Fraction, count: int) -> list[Fraction]:
    """Endpoints plus evenly spread interior offsets."""
    inner = [length * k / (count + 1) for k in range(1, count + 1)]
    return [Fraction(0), *inner, length]


def sample_points(g: mg.MetrizedGraph, count: int) -> list[mg.GraphPoint]:
    """A deterministic spread of points across all edges."""
    out = []
    for k in range(count):
        i = k % g.n_edges
        offset = g.edges[i].length * (k + 1) / (count + 3)
        out.append(mg.GraphPoint(i, offset))
    return out


# ---------------------------------------------------------------------------
# acceptance reporting

_ACCEPTANCE_RESULTS: list[tuple[str, bool]] = []


@pytest.fixture
def criterion():
    """Context manager recording one acceptance line, pass or fail."""

    @contextmanager
    def _criterion(label: str):
        try:
            yield
        except BaseException:
            _ACCEPTANCE_RESULTS.append((label, False))
            raise
        _ACCEPTANCE_RESULTS.append((label, True))

    return _criterion


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for label, ok in _ACCEPTANCE_RESULTS:
        terminalreporter.write_line(f"{'PASS' if ok else 'FAIL'}  {label}")


def mutant(monkeypatch, module, name: str, old: str, new: str, *holders) -> None:
    """Replace the function ``module.name`` by a copy whose source has the
    one occurrence of ``old`` replaced by ``new``, in ``module`` and in each
    of ``holders``, the other modules that import it by name."""
    source = inspect.getsource(getattr(module, name))
    assert source.count(old) == 1, f"{old!r} is not once in {module.__name__}.{name}"
    code = compile(
        source.replace(old, new),
        f"<mutant of {module.__name__}.{name}>",
        "exec",
        __future__.annotations.compiler_flag,
        dont_inherit=True,
    )
    namespace = dict(vars(module))
    exec(code, namespace)
    for holder in (module, *holders):
        monkeypatch.setattr(holder, name, namespace[name])

"""Metrized graphs: parametrized edges, bridges and divisors.

A metrized graph is a finite connected multigraph whose edges carry strictly
positive rational lengths.  Edge ``i`` is identified with the segment
``[0, L_i]``: offset ``0`` sits at the tail vertex, offset ``L_i`` at the
head, so the stored ``(tail, head)`` order fixes the parametrization.  A
point of the graph is an ``(edge, offset)`` pair, checked in integers by
``validate_point``; endpoints of different edges may denote the same metric
point.  A length or an offset given as a string must be an integer or
``p/q``.

A graph lists the edge ends at each vertex once, at construction, and
valences, a vertex's canonical description (``point_of_vertex``),
connectivity and bridges read that table.
A graph is adequate (no loops, no parallel edges) when ``make_adequate``
would cut nothing.

Every refinement is one split of the edges, at the cuts that make the graph
adequate plus any requested points (``adequate_refinement``).

Bridges and the connectivity matrix (its decimal codes) are reported here
for display only: the closed forms in ``potential`` and ``green`` hold on
bridges unchanged and never read them, so both are computed from the graph
on each call and nothing keeps them.  The graph type is immutable and
hashable, and computes its hash once, at construction.

The value classes here and in ``green``, ``invariants`` and ``oracle`` are
``Record``s: slotted, immutable, compared and hashed by value.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import (
    BadDegree,
    GraphDisconnected,
    MetgraphError,
    NonpositiveLength,
    NotAdequate,
    PointOutOfRange,
)


# Integers and p/q only: an exponent such as "1e200000" would let a short
# string ask for a huge number, while Python's digit limit bounds these forms.
# ASCII digits only, without the "_" separators int() and Fraction() take;
# the CLI reads edge indices, divisor coefficients and ``--decimal`` with
# ``_INTEGER``.
_INTEGER = re.compile(r"[+-]?[0-9]+")
_RATIONAL = re.compile(rf"({_INTEGER.pattern})(?:/([0-9]+))?")


def as_fraction(value: Fraction | int | str, what: str) -> Fraction:
    """``value`` as a Fraction; a string must be an integer or ``p/q``.

    Anything but an int, a Fraction or such a string raises: a float or a
    Decimal would bring its binary or decimal expansion in as the number,
    and a bool is an int only by inheritance, never meant as 0 or 1.  A
    Fraction is returned as it is, since it is immutable.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, bool) or not isinstance(value, (int, Fraction, str)):
        raise MetgraphError(f"{what}: expected an integer, a Fraction or 'p/q', got {value!r}")
    if not isinstance(value, str):
        return Fraction(value)
    # the two integers matched make the Fraction: Fraction(value) would parse again
    match = _RATIONAL.fullmatch(value)
    try:
        if not match:
            raise ValueError(value)
        return Fraction(int(match[1]), int(match[2] or 1))
    except (ValueError, ZeroDivisionError):
        raise MetgraphError(f"{what}: malformed rational {value!r}") from None


class Record:
    """Base of the package's immutable value classes.

    A subclass lists its fields in ``_fields``, each a slot its
    ``__init__`` sets once, through ``_assign``; any assignment afterwards
    raises ``AttributeError``.  Equality and hash go by the fields' values,
    the repr reads ``Name(field=value, ...)``, and a copy or an unpickled
    record is rebuilt through the constructor from them.  A record is
    weakly referable, so a caller can see a cached one freed.
    """

    __slots__ = ("__weakref__",)
    _fields: tuple[str, ...] = ()

    def _assign(self, *values) -> None:
        """Set the fields, in the order of ``_fields``."""
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # String hashes are salted per process, so a hash kept from
        # construction is recomputed under the new process's salt.
        return (type(self), self._values())


class Edge(NamedTuple):
    tail: int
    head: int
    length: Fraction


class GraphPoint(NamedTuple):
    """A point on the graph: an edge index plus an offset measured from the tail."""

    edge: int
    offset: Fraction


class MetrizedGraph(Record):
    """Immutable metrized graph over an indexed vertex list.

    Vertices are addressed by position in ``vertices``; the labels are only
    used for display and serialization.  Construction normalizes lengths to
    ``Fraction`` and rejects empty graphs, dangling endpoints, nonpositive
    lengths and disconnected edge sets.  Every cache lookup hashes the
    graph, so the hash is computed once, here.  So is the incidence,
    derived from the edges and rebuilt with them: ``_ends[v]`` lists the
    edge ends at vertex ``v`` as ``(edge, end, other vertex)`` in edge
    order, end 0 at the tail and 1 at the head, so a loop appears twice.
    ``_lengths[i]`` is edge i's length p / q as the pair ``(p, q)``, which
    every point check reads.
    """

    __slots__ = ("vertices", "edges", "_hash", "_ends", "_lengths")
    _fields = ("vertices", "edges")

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]

    def __init__(self, vertices: Iterable[str], edges: Iterable[Edge | tuple]):
        verts = tuple(str(v) for v in vertices)
        if not verts:
            raise MetgraphError("a metrized graph needs at least one vertex")
        if len(set(verts)) != len(verts):
            raise MetgraphError("vertex labels must be distinct")
        n = len(verts)
        norm = []
        ends: list[list[tuple[int, int, int]]] = [[] for _ in verts]
        for k, raw in enumerate(edges):
            tail, head, length = raw
            if any(isinstance(end, bool) or not isinstance(end, int) for end in (tail, head)):
                raise MetgraphError(f"edge {k}: a vertex index is an int, got {tail!r}, {head!r}")
            if not (0 <= tail < n and 0 <= head < n):
                raise MetgraphError(f"edge {k} references a vertex outside 0..{n - 1}")
            length = as_fraction(length, f"edge {k} length")
            if length.numerator <= 0:
                raise NonpositiveLength(f"edge {k} has nonpositive length {length}")
            norm.append(Edge(int(tail), int(head), length))
            ends[tail].append((k, 0, head))
            ends[head].append((k, 1, tail))
        if not norm:
            raise MetgraphError("a metrized graph needs at least one edge")
        self._assign(verts, tuple(norm))
        object.__setattr__(self, "_ends", tuple(map(tuple, ends)))
        object.__setattr__(self, "_lengths", tuple(e.length.as_integer_ratio() for e in norm))
        if len(_reachable(self, 0)) != n:
            raise GraphDisconnected("the edge set does not connect all vertices")
        object.__setattr__(self, "_hash", hash(self._values()))

    def __hash__(self) -> int:
        return self._hash

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def total_length(self) -> Fraction:
        return sum((e.length for e in self.edges), Fraction(0))

    def valence(self, v: int) -> int:
        """Number of edge ends at vertex ``v``, read off the incidence
        table; a loop contributes two."""
        self._check_vertex(v)
        return len(self._ends[v])

    def _check_vertex(self, v: int) -> None:
        if not is_index(v, len(self.vertices)):
            raise MetgraphError(f"vertex index {v!r} outside 0..{len(self.vertices) - 1}")

    def _check_edge(self, i: int) -> None:
        if not is_index(i, len(self.edges)):
            raise MetgraphError(f"edge index {i!r} outside 0..{len(self.edges) - 1}")


def is_index(i: object, n: int) -> bool:
    """True for an int in 0..n - 1; a bool, though an int, is no index."""
    return isinstance(i, int) and not isinstance(i, bool) and 0 <= i < n


class Divisor(Record):
    """An integer coefficient per vertex."""

    __slots__ = ("coefficients",)
    _fields = ("coefficients",)

    coefficients: tuple[int, ...]

    def __init__(self, coefficients: Iterable[int]):
        coeffs = tuple(coefficients)
        for a in coeffs:
            if isinstance(a, bool) or not isinstance(a, int):
                raise MetgraphError(f"divisor coefficients must be integers, got {a!r}")
        self._assign(tuple(int(a) for a in coeffs))

    @classmethod
    def zero(cls, n: int) -> "Divisor":
        return cls((0,) * n)

    @property
    def degree(self) -> int:
        return sum(self.coefficients)

    def __len__(self) -> int:
        return len(self.coefficients)

    def __getitem__(self, k: int) -> int:
        if not is_index(k, len(self.coefficients)):
            raise IndexError(f"vertex index {k!r} outside 0..{len(self.coefficients) - 1}")
        return self.coefficients[k]


def check_divisor(g: MetrizedGraph, d: Divisor) -> Divisor:
    if len(d) != g.n_vertices:
        raise MetgraphError(
            f"divisor has {len(d)} coefficients but the graph has {g.n_vertices} vertices"
        )
    return d


def admissible_degree(g: MetrizedGraph, d: Divisor) -> int:
    """Degree of a divisor on ``g``, rejecting -2, which has no admissible measure."""
    deg = check_divisor(g, d).degree
    if deg == -2:
        raise BadDegree("divisor degree -2 admits no admissible measure")
    return deg


def canonical_divisor(
    g: MetrizedGraph, genus: Sequence[int] | Mapping[int, int] | None = None
) -> tuple[Divisor, bool]:
    """Canonical divisor (v(p) - 2 + 2q(p))_p for a vertex genus assignment.

    Returns the divisor together with a flag telling whether the polarization
    is admissible: all genera nonnegative and the divisor effective.  Each
    genus must be an int (not a bool), and a mapping's keys vertex indices.
    """
    n = g.n_vertices
    if genus is None:
        q = [0] * n
    elif isinstance(genus, Mapping):
        for v in genus:
            if not is_index(v, n):
                raise MetgraphError(f"genus key {v!r} is not a vertex index in 0..{n - 1}")
        q = [genus.get(v, 0) for v in range(n)]
    else:
        q = list(genus)
        if len(q) != n:
            raise MetgraphError(f"genus list has {len(q)} entries for {n} vertices")
    for x in q:
        if isinstance(x, bool) or not isinstance(x, int):
            raise MetgraphError(f"vertex genus must be an integer, got {x!r}")
    coeffs = tuple(g.valence(v) - 2 + 2 * q[v] for v in range(n))
    polarized = all(x >= 0 for x in q) and all(c >= 0 for c in coeffs)
    return Divisor(coeffs), polarized


# ---------------------------------------------------------------------------
# points


def validate_point(g: MetrizedGraph, pt: GraphPoint | tuple) -> GraphPoint:
    """Normalize a point and check 0 <= offset <= edge length.

    Anything but an (edge, offset) pair, or an edge that is not an int
    index of ``g``, raises ``PointOutOfRange``.  With the offset X / u and
    the length p / q in lowest terms, the bound is X >= 0 and X q <= p u,
    compared in integers.  A ``GraphPoint`` whose offset is already a
    Fraction is returned as it is.
    """
    edge, offset, _, _ = _point_integers(g, pt)
    return pt if type(pt) is GraphPoint and pt.offset is offset else GraphPoint(edge, offset)


def _point_integers(g: MetrizedGraph, pt: GraphPoint | tuple) -> tuple[int, Fraction, int, int]:
    """``validate_point``'s checks, returning the point's edge, its offset
    as a Fraction X / u, and X and u, so that a caller reads the offset's
    integers once."""
    try:
        edge, offset = pt
    except (TypeError, ValueError):
        raise PointOutOfRange(f"a point is an (edge, offset) pair, got {pt!r}") from None
    if isinstance(edge, bool) or not isinstance(edge, int) or not 0 <= edge < len(g.edges):
        raise PointOutOfRange(f"edge index {edge!r} outside 0..{len(g.edges) - 1}")
    if type(offset) is not Fraction:
        offset = as_fraction(offset, f"offset on edge {edge}")
    x, u = offset.as_integer_ratio()
    p, q = g._lengths[edge]
    if x < 0 or x * q > p * u:
        length = g.edges[edge].length
        raise PointOutOfRange(f"offset {offset} outside [0, {length}] on edge {edge}")
    return edge, offset, x, u


def vertex_at(g: MetrizedGraph, pt: GraphPoint) -> int | None:
    """The vertex a point sits on, or None for an interior point."""
    edge, _, x, u = _point_integers(g, pt)
    if x == 0:
        return g.edges[edge].tail
    # both ratios are in lowest terms, so they are equal as integer pairs
    if (x, u) == g._lengths[edge]:
        return g.edges[edge].head
    return None


_ZERO = Fraction(0)


def point_of_vertex(g: MetrizedGraph, v: int) -> GraphPoint:
    """The canonical description of vertex ``v``: its first incident end
    in edge order, ``(edge, 0)`` at a tail and ``(edge, length)`` at a
    head, read straight off the incidence table, so it makes one
    ``GraphPoint``.  A connected graph with an edge has one at every
    vertex.  A tail's offset is the shared zero ``_ZERO``; Fractions are
    immutable, so sharing it changes no value."""
    g._check_vertex(v)
    i, end, _ = g._ends[v][0]
    return GraphPoint(i, g.edges[i].length if end else _ZERO)


# ---------------------------------------------------------------------------
# adequacy and edge splitting


def validate_adequate(g: MetrizedGraph) -> bool:
    """True when the graph has no loops and no parallel edges, that is,
    when ``make_adequate`` would cut nothing."""
    return not _adequate_cuts(g, {})


def require_adequate(g: MetrizedGraph) -> None:
    if not validate_adequate(g):
        raise NotAdequate(
            "vertex set admits loops or parallel edges; apply make_adequate first"
        )


class PointRelabeling(Record):
    """Maps points of a graph into a refinement produced by splitting edges.

    Vertices keep their indices; a point of an old edge lands on the segment
    of the refinement that covers its offset.  Offsets exactly on a split
    land on the new vertex (described via the segment ending there).
    ``segments`` lists, in edge order, each edge's segments as
    ``(new edge, start, end)`` by increasing offset.  ``point`` first checks
    its point with ``validate_point`` against ``original``, the graph that
    was cut, as every public entry does.
    """

    __slots__ = ("original", "segments")
    _fields = ("original", "segments")

    original: MetrizedGraph
    segments: tuple[tuple[tuple[int, Fraction, Fraction], ...], ...]

    def __init__(self, original: MetrizedGraph, segments: Iterable[Iterable[tuple]]):
        self._assign(original, tuple(map(tuple, segments)))

    def point(self, pt: GraphPoint | tuple) -> GraphPoint:
        """Where a point of the cut graph lies in the refinement: on the
        first segment whose end is at or past its offset."""
        pt = validate_point(self.original, pt)
        segments = self.segments[pt.edge]
        new_edge, start, _ = segments[bisect_left(segments, pt.offset, key=itemgetter(2))]
        return GraphPoint(new_edge, pt.offset - start)


def _fresh_labels(used: set[str]) -> Iterable[str]:
    k = 0
    while True:
        label = f"s{k}"
        if label not in used:
            yield label
        k += 1


def _split_edges(
    g: MetrizedGraph, cuts: Mapping[int, Iterable[Fraction]]
) -> tuple[MetrizedGraph, PointRelabeling]:
    """Split each edge at the given interior offsets.

    Original vertices keep their indices; one new vertex per cut is appended
    (edges in index order, offsets increasing).  An uncut edge is kept as
    it is, as one segment.
    """
    labels = list(g.vertices)
    namer = _fresh_labels(set(labels))
    new_edges: list[Edge] = []
    segments: list[tuple[tuple[int, Fraction, Fraction], ...]] = []
    for i, e in enumerate(g.edges):
        if i not in cuts:
            segments.append(((len(new_edges), 0, e.length),))
            new_edges.append(e)
            continue
        offsets = sorted({Fraction(c) for c in cuts[i]})
        for off in offsets:
            if not 0 < off < e.length:
                raise PointOutOfRange(f"cut {off} is not interior to edge {i}")
        prev_vertex, prev_off = e.tail, Fraction(0)
        segs = []
        for off in offsets:
            v = len(labels)
            labels.append(next(namer))
            segs.append((len(new_edges), prev_off, off))
            new_edges.append(Edge(prev_vertex, v, off - prev_off))
            prev_vertex, prev_off = v, off
        segs.append((len(new_edges), prev_off, e.length))
        new_edges.append(Edge(prev_vertex, e.head, e.length - prev_off))
        segments.append(tuple(segs))
    return MetrizedGraph(tuple(labels), tuple(new_edges)), PointRelabeling(g, segments)


def make_adequate(g: MetrizedGraph) -> tuple[MetrizedGraph, PointRelabeling]:
    """Refine the vertex set, in one split, so no loops or parallel edges remain.

    Loops are split at one and two thirds of their length; in each parallel
    class the lowest-index edge is kept whole and the others are split at
    their midpoint.  Already-adequate graphs come back unchanged with an
    identity relabeling.
    """
    return adequate_refinement(g, {})


def adequate_refinement(
    g: MetrizedGraph, cuts: Mapping[int, Iterable[Fraction]]
) -> tuple[MetrizedGraph, PointRelabeling]:
    """Split ``g`` once, at the interior ``cuts`` plus the cuts of
    ``make_adequate``, so every cut becomes a vertex of an adequate graph.

    One pass suffices: each piece of a split edge meets a fresh vertex, and
    a loop is cut at least twice.
    """
    refined, relabeling = _split_edges(g, _adequate_cuts(g, cuts))
    if not validate_adequate(refined):
        raise NotAdequate("edge splitting left loops or parallels")
    return refined, relabeling


def _adequate_cuts(
    g: MetrizedGraph, cuts: Mapping[int, Iterable[Fraction]]
) -> dict[int, set[Fraction]]:
    """The interior ``cuts`` merged with those of ``make_adequate``, per
    edge; ``adequate_refinement`` makes one new vertex for each."""
    merged = {i: set(offsets) for i, offsets in cuts.items()}
    classes: dict[frozenset[int], list[int]] = {}
    for i, e in enumerate(g.edges):
        if e.tail == e.head:
            merged.setdefault(i, set()).update((e.length / 3, 2 * e.length / 3))
        else:
            classes.setdefault(frozenset((e.tail, e.head)), []).append(i)
    for members in classes.values():
        for i in members[1:]:
            merged.setdefault(i, set()).add(g.edges[i].length / 2)
    return merged


# ---------------------------------------------------------------------------
# bridges


def _reachable(g: MetrizedGraph, start: int) -> frozenset[int]:
    """Vertices joined to ``start`` by edges."""
    seen = {start}
    stack = [start]
    while stack:
        for _, _, w in g._ends[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return frozenset(seen)


def find_bridge_sides(g: MetrizedGraph) -> dict[int, frozenset[int]]:
    """Per bridge, in edge order, the vertices joined to its tail once it is
    cut.

    One iterative depth-first search with low links (Tarjan 1974) finds
    them all.  It skips only the edge it came in by, not the parent vertex,
    so a parallel edge or a loop is a way back like any other.  A tree edge
    into w is a bridge exactly when nothing below w reaches above it, and
    its side is then the subtree of w: the vertices discovered from w on,
    read when w is finished.  The tail's side is that subtree or the rest.
    """
    n = g.n_vertices
    found = [0] * n  # discovery index, counted from 1; 0 for undiscovered
    low = [0] * n
    order = [0]
    found[0] = low[0] = 1
    stack = [(0, -1, iter(g._ends[0]))]
    sides = {}
    while stack:
        v, via, rest = stack[-1]
        for i, _, w in rest:
            if i == via:
                continue
            if not found[w]:
                order.append(w)
                found[w] = low[w] = len(order)
                stack.append((w, i, iter(g._ends[w])))
                break
            low[v] = min(low[v], found[w])
        else:
            stack.pop()
            if not stack:
                break
            u = stack[-1][0]
            low[u] = min(low[u], low[v])
            if low[v] > found[u]:
                below = frozenset(order[found[v] - 1 :])
                sides[via] = below if g.edges[via].tail == v else frozenset(range(n)) - below
    return dict(sorted(sides.items()))


def bridges(g: MetrizedGraph) -> frozenset[int]:
    """Indices of all edges whose interior disconnects the graph."""
    return frozenset(find_bridge_sides(g))


# ---------------------------------------------------------------------------
# connectivity matrix


class ConnectivityMatrix(Record):
    """Bridge bookkeeping for every edge pair, as the paper's decimal codes.

    With s a side digit (0 for the tail side of a bridge, 1 for its head
    side):

    - the diagonal entry is 1 for a bridge and 0 otherwise;
    - a bridge and a non-bridge, in either order, get the side of the bridge
      on which the other edge lies;
    - two distinct bridges i and j get 110 s_ij + s_ji, where s_ij is the
      side of bridge i on which bridge j lies.  Its digits are that side,
      the endpoint of i facing j (0 tail, 1 head), which repeats it, and
      the endpoint of j facing i, so only 0, 1, 110 and 111 occur;
    - every other entry is 0.
    """

    __slots__ = ("entries",)
    _fields = ("entries",)

    entries: tuple[tuple[int, ...], ...]

    def __init__(self, entries: tuple[tuple[int, ...], ...]):
        self._assign(entries)

    @property
    def size(self) -> int:
        return len(self.entries)

    def entry(self, i: int, j: int) -> int:
        if not (is_index(i, self.size) and is_index(j, self.size)):
            raise MetgraphError(f"entry ({i!r}, {j!r}) outside a {self.size}-edge matrix")
        return self.entries[i][j]


def connectivity_matrix(g: MetrizedGraph) -> ConnectivityMatrix:
    """The decimal-coded bridge bookkeeping of an adequate graph; the codes
    are described on ``ConnectivityMatrix``.  Every entry outside a bridge's
    row and column is 0, so only those are filled."""
    require_adequate(g)
    m = g.n_edges
    # per bridge, the side digit of every edge's tail: 0 on its tail side
    digits = {
        b: [int(e.tail not in side) for e in g.edges] for b, side in find_bridge_sides(g).items()
    }
    rows = [[0] * m for _ in range(m)]
    for i, s_i in digits.items():
        row = rows[i]
        for j, s_ij in enumerate(s_i):
            if j == i:
                row[i] = 1
            elif j in digits:
                row[j] = 110 * s_ij + digits[j][i]
            else:
                row[j] = rows[j][i] = s_ij
    return ConnectivityMatrix(tuple(map(tuple, rows)))

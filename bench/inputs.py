"""Seeded inputs for the benchmark workloads.

Every generator takes a ``random.Random`` built from the workload seed, so
the same seed gives the same inputs.  Each one fixes the *amount* of work
and lets the seed choose only the arrangement (which edge gets which
length, where the divisor sits, which points are queried), so two seeds
cost about the same and the run-to-run spread measures the program, not
the draw.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

STANDING_GRAPHS = ("banana", "circle", "joint_circles", "tesseract", "two_bridges")

GRID_SIZES = (4, 5, 6)
# Every grid uses this multiset of lengths, cycled over its edges and then
# shuffled; fixing the multiset keeps operand growth in L+ similar across seeds.
GRID_LENGTHS = ("1", "2", "3", "1/2", "3/2", "2/3")
GRID_DIVISOR = (1, 2, 3)

QUERY_GRAPHS = ("tesseract", "two_bridges")
# Point queries per replayed stream, by graph.  Three in four go to the
# tesseract so the latency median sits inside one graph's distribution
# instead of between the two.
QUERIES_PER_GRAPH = {"tesseract": 900, "two_bridges": 300}
# One divisor switch per graph per stream, each a fixed multiset of
# coefficients on seeded vertices.
SWITCH_DIVISOR = {"tesseract": (1, 1, 2, 3), "two_bridges": (1, 2)}
OFFSET_DENOMINATORS = range(2, 10)


def grid_document(k: int, rng: random.Random) -> str:
    """JSON graph text of a k x k grid with seeded lengths and divisor."""
    edges = []
    for r in range(k):
        for c in range(k):
            v = r * k + c
            if c + 1 < k:
                edges.append((v, v + 1))
            if r + 1 < k:
                edges.append((v, v + k))
    lengths = [GRID_LENGTHS[i % len(GRID_LENGTHS)] for i in range(len(edges))]
    rng.shuffle(lengths)
    divisor = [0] * (k * k)
    for v, a in zip(rng.sample(range(k * k), len(GRID_DIVISOR)), GRID_DIVISOR):
        divisor[v] = a
    doc = {
        "vertices": [f"v{v}" for v in range(k * k)],
        "edges": [
            {"from": a, "to": b, "length": length}
            for (a, b), length in zip(edges, lengths)
        ],
        "divisor": divisor,
    }
    return json.dumps(doc)


def interior_point(lengths: list[Fraction], rng: random.Random) -> tuple[int, Fraction]:
    """A point strictly inside a random edge, at a small-denominator fraction."""
    edge = rng.randrange(len(lengths))
    q = rng.choice(OFFSET_DENOMINATORS)
    return edge, lengths[edge] * Fraction(rng.randrange(1, q), q)


def switch_divisor(n_vertices: int, coefficients: tuple[int, ...], rng: random.Random) -> tuple[int, ...]:
    divisor = [0] * n_vertices
    for v, a in zip(rng.sample(range(n_vertices), len(coefficients)), coefficients):
        divisor[v] = a
    return tuple(divisor)


def query_stream(edge_lengths: dict[str, list[Fraction]], n_vertices: dict[str, int], rng: random.Random) -> list[tuple]:
    """One replayable stream of point queries with two divisor switches.

    Items are ``("query", graph, x, y)`` with points as (edge, offset) and
    ``("switch", graph, coefficients)``.  Each graph's switch lands in the
    middle three fifths of the stream, so queries run against both the
    set-up divisor and the switched one.
    """
    ops: list[tuple] = []
    for name, count in QUERIES_PER_GRAPH.items():
        lengths = edge_lengths[name]
        for _ in range(count):
            ops.append(("query", name, interior_point(lengths, rng), interior_point(lengths, rng)))
    rng.shuffle(ops)
    n = len(ops)
    for name in QUERY_GRAPHS:
        at = rng.randrange(n // 5, 4 * n // 5)
        ops.insert(at, ("switch", name, switch_divisor(n_vertices[name], SWITCH_DIVISOR[name], rng)))
    return ops


def verification_sample(ops: list[tuple], size: int, rng: random.Random) -> list[int]:
    """Indices of queries to re-check with the subdivision oracle, half per graph."""
    picks = []
    for name in QUERY_GRAPHS:
        idx = [i for i, op in enumerate(ops) if op[0] == "query" and op[1] == name]
        picks.extend(rng.sample(idx, size // len(QUERY_GRAPHS)))
    return sorted(picks)

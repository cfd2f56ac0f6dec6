"""The per-graph analysis cache and the exact results it hands out.

Every derived quantity of a graph that the formulas reuse lives in one
``network(g)`` entry, keyed by the graph's value; bridge data is not kept.
These tests pin the contract of that cache (shared by equal graphs, at most
four graphs held, emptied completely by ``clear_caches``, never holding the
oracle's refinements or bridge data, stable hashes across processes) and
freeze the exact coefficients of the closed forms.
"""

import ast
import gc
import hashlib
import importlib
import math
import os
import random
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

import metgraph as mg
from conftest import load_pairs, rational_matrix, representations, seeded_grid, standing_graphs

F = Fraction

ROOT = Path(__file__).resolve().parent.parent
GRAPHS = ROOT / "graphs"
SRC = Path(mg.__file__).resolve().parent.parent


class TestCacheContract:
    def test_equal_graphs_share_one_analysis(self):
        g1 = mg.cli.parse_graph((GRAPHS / "banana.json").read_text())[0]
        g2 = mg.cli.parse_graph((GRAPHS / "banana.json").read_text())[0]
        assert g1 is not g2 and g1 == g2
        assert mg.pinv(g1) is mg.pinv(g2)
        assert mg.network(g1) is mg.network(g2)

    def test_clear_caches_frees_every_derived_value(self):
        g, d = seeded_grid(3, 1)
        mg.r_D_on_edge(g, d, 0)
        held = [
            weakref.ref(mg.value_matrix(g, d)),
            weakref.ref(mg.network(g).divisor(d)),
        ]
        assert all(ref() is not None for ref in held)
        mg.clear_caches()
        assert all(ref() is None for ref in held)

    def test_bridge_data_is_not_cached(self):
        # bridges and connectivity codes are computed from the graph on each
        # call; no closed form reads them, so no network is built for them
        mg.clear_caches()
        for _, g, _ in standing_graphs():
            mg.bridges(g)
            mg.connectivity_matrix(g)
        assert mg.network.cache_info().currsize == 0

    def test_a_fifth_graph_evicts_the_one_used_longest_ago(self):
        graphs = [seeded_grid(3, seed) for seed in range(7)]
        assert len({g for g, _ in graphs}) == 7
        assert mg.network.cache_info().maxsize == 4
        mg.clear_caches()
        g0, d0 = graphs[0]
        net = mg.network(g0)
        held = [weakref.ref(net), weakref.ref(mg.value_matrix(g0, d0))]
        # L+ takes no weak reference; the network alone holds it
        assert "pinv" in net.__dict__
        del net
        # freed by reference counting alone, with no collector run
        gc.disable()
        try:
            for k, (g, d) in enumerate(graphs[1:], 2):
                mg.value_matrix(g, d)
                assert mg.network.cache_info().currsize == min(k, 4)
                assert all(ref() is not None for ref in held) == (k <= 4), k
        finally:
            gc.enable()

    def test_sixty_graphs_keep_peak_rss_bounded(self):
        pytest.importorskip("resource")
        child = subprocess.run(
            [sys.executable, str(ROOT / "tests" / "graph_memory.py")],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        # the child exits 1 when peak RSS grew by 48 MiB or more
        assert child.returncode == 0, child.stdout + child.stderr

    def test_oracle_command_caches_only_the_input_graph(self, capsys):
        points = ROOT / "tests" / "data" / "oracle_points" / "tesseract.txt"
        mg.clear_caches()
        status = mg.cli.run(["oracle", str(GRAPHS / "tesseract.json"), "--points", str(points)])
        capsys.readouterr()
        assert status == 0
        assert mg.network.cache_info().currsize == 1

    def test_oracle_calls_leave_the_cache_empty(self):
        g, d = seeded_grid(3, 2)
        x, y = (0, F(1, 3)), (5, F(2, 5))
        mg.clear_caches()
        mg.oracle_resistance(g, x, y)
        mg.oracle_green(g, d, x, y)
        assert mg.network.cache_info().currsize == 0

    def test_refinement_analysis_dies_with_its_refinement(self):
        g, d = seeded_grid(3, 2)
        sub = mg.subdivide_at_points(g, [(0, F(1, 3)), (5, F(2, 5))])
        sub.green(d, (0, F(1, 3)), (5, F(2, 5)))
        held = weakref.ref(sub.network)
        del sub
        gc.collect()
        assert held() is None

    def test_pickled_graph_hashes_like_a_fresh_parse(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        text = (GRAPHS / "two_bridges.json").read_text()
        dump = (
            "import pickle, sys, metgraph as mg\n"
            "g = mg.cli.parse_graph(sys.stdin.read())[0]\n"
            "hash(g)\n"
            "sys.stdout.write(pickle.dumps(g).hex())\n"
        )
        pickled = subprocess.run(
            [sys.executable, "-c", dump],
            input=text,
            capture_output=True,
            text=True,
            check=True,
            env=dict(env, PYTHONHASHSEED="1"),
        ).stdout
        load = (
            "import pickle, sys, metgraph as mg\n"
            "blob, text = sys.stdin.read().split('\\n', 1)\n"
            "g = pickle.loads(bytes.fromhex(blob))\n"
            "h = mg.cli.parse_graph(text)[0]\n"
            "print(g == h, hash(g) == hash(h), len({g, h}))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", load],
            input=pickled + "\n" + text,
            capture_output=True,
            text=True,
            check=True,
            env=dict(env, PYTHONHASHSEED="2"),
        ).stdout
        assert out.split() == ["True", "True", "1"]


class TestOneDivisorAnalysis:
    """A network holds the analysis of the divisor last asked for."""

    @staticmethod
    def count_builds(monkeypatch) -> list[int]:
        built = [0]
        init = mg.analysis.DivisorAnalysis.__init__

        def counted(self, *args):
            built[0] += 1
            init(self, *args)

        monkeypatch.setattr(mg.analysis.DivisorAnalysis, "__init__", counted)
        return built

    def test_another_divisor_frees_the_held_analysis(self, monkeypatch):
        g, d1 = seeded_grid(3, 1)
        d2 = mg.Divisor(d1.coefficients[::-1])
        assert d1 != d2
        built = self.count_builds(monkeypatch)
        mg.clear_caches()
        net = mg.network(g)
        # freed by reference counting alone, with no collector run
        gc.disable()
        try:
            held = weakref.ref(net.divisor(d1))
            mg.value_matrix(g, d1)
            assert net.divisor(mg.Divisor(d1.coefficients)) is held()
            net.divisor(d2)
            assert held() is None
        finally:
            gc.enable()
        assert built == [2]
        net.divisor(d1)
        assert built == [3]

    def test_oracle_pairs_share_one_analysis(self, monkeypatch):
        ((name, g, d),) = [item for item in standing_graphs() if item[0] == "tesseract"]
        built = self.count_builds(monkeypatch)
        mg.oracle._pair_values(g, d, load_pairs(name), mg.cli.MAX_VERTICES)
        assert built == [1]

    def test_sixty_divisors_keep_peak_rss_flat(self):
        pytest.importorskip("resource")
        child = subprocess.run(
            [sys.executable, str(ROOT / "tests" / "divisor_memory.py")],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        # the child exits 1 when peak RSS grew by 16 MiB or more
        assert child.returncode == 0, child.stdout + child.stderr


def exact_lines(g: mg.MetrizedGraph, d: mg.Divisor) -> list[str]:
    lines = []
    for row in mg.value_matrix(g, d).entries:
        for z in row:
            lines.append(" ".join(map(str, z.coefficients())))
    for i in range(g.n_edges):
        f = mg.r_D_on_edge(g, d, i)
        lines.append(f"{f.a2} {f.a1} {f.a0}")
    return lines


# sha256 of every value-matrix and r_D coefficient, frozen from the
# implementation that looked each quantity up in its own cache.
FROZEN_DIGEST = "4862345a14cb817680cd25619d5e150d5f2453f8c89192ac906c77e96929d496"


def test_value_matrix_and_r_D_coefficients_are_frozen():
    cases = [("grid 4", *seeded_grid(4, 0))] + standing_graphs()
    digest = hashlib.sha256()
    for name, g, d in cases:
        digest.update(name.encode())
        for line in exact_lines(g, d):
            digest.update(b"\n" + line.encode())
    assert digest.hexdigest() == FROZEN_DIGEST


# sha256 of every pseudoinverse entry and the tau constant, frozen from the
# implementation that inverted the shifted Laplacian L - J/n.
FROZEN_LPLUS_TAU_DIGEST = "19fcd0f7192571a2e0823b114bd961e6fe1242919a06120e29a80c7cbc8a70a2"


def test_pseudoinverse_and_tau_are_frozen():
    cases = [(f"grid {k}", *seeded_grid(k, 0)) for k in (3, 4, 5)] + standing_graphs()
    digest = hashlib.sha256()
    for name, g, _ in cases:
        digest.update(name.encode())
        for row in mg.pinv(g).rows():
            digest.update(b"\n" + " ".join(map(str, row)).encode())
        digest.update(b"\ntau " + str(mg.tau_constant(g)).encode())
    assert digest.hexdigest() == FROZEN_LPLUS_TAU_DIGEST


# sha256 of every pseudoinverse entry of the distinct refinements the oracle
# builds for the tesseract's frozen point pairs, frozen from the
# implementation that ran Fraction Gauss-Jordan elimination.
FROZEN_REFINEMENT_LPLUS_DIGEST = "53b13b2694ea3512be3d22fd373e048d7f1bc2bac89ead5902d5504abbfb3876"


def test_oracle_refinement_pseudoinverses_are_frozen():
    g = mg.cli.parse_graph((GRAPHS / "tesseract.json").read_text())[0]
    points = ROOT / "tests" / "data" / "oracle_points" / "tesseract.txt"
    refinements = {}
    for line in points.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            pair = [(int(e), F(o)) for e, o in (tok.split(":") for tok in line.split())]
            refinements.setdefault(mg.subdivide_at_points(g, pair).graph, None)
    digest = hashlib.sha256()
    for sub in refinements:
        digest.update(f"refinement {sub.n_vertices} {sub.n_edges}".encode())
        for row in mg.pinv(sub).rows():
            digest.update(b"\n" + " ".join(map(str, row)).encode())
    assert len(refinements) == 31
    assert digest.hexdigest() == FROZEN_REFINEMENT_LPLUS_DIGEST


# sha256 of every pseudoinverse entry of the one refinement the oracle builds
# for each standing graph's frozen points file, cut at all of its points,
# frozen from the implementation that eliminated the Laplacian scaled by the
# lcm of all length numerators.
FROZEN_SHARED_REFINEMENT_LPLUS_DIGESTS = {
    "banana": (62, "54cea3751025f51570e82aedb017bd514167f9e0d0dea4448369a89a0adaba13"),
    "circle": (45, "a5bd3618b8e6bc0bd8dfd158277724ef4306f2cea4098ff74d2e933502f1fcd2"),
    "joint_circles": (51, "850a7657b08af21eae37ca88930004c261545e6ac3e5228c9e7944191c101795"),
    "tesseract": (72, "247602633bb5693d33af239e6884d7326089287b3efd6bd21c501866631bdbaa"),
    "two_bridges": (52, "8cf0418e1b10a69ab41d2b7eb54a40ddec2fc15ba6eeb501155c256ecba9c541"),
}


def test_oracle_shared_refinement_pseudoinverses_are_frozen():
    found = {}
    for name in FROZEN_SHARED_REFINEMENT_LPLUS_DIGESTS:
        g = mg.cli.parse_graph((GRAPHS / f"{name}.json").read_text())[0]
        sub = mg.subdivide_at_points(g, [pt for pair in load_pairs(name) for pt in pair]).graph
        digest = hashlib.sha256(f"refinement {sub.n_vertices} {sub.n_edges}".encode())
        for row in mg.pinv(sub).rows():
            digest.update(b"\n" + " ".join(map(str, row)).encode())
        found[name] = (sub.n_vertices, digest.hexdigest())
    assert found == FROZEN_SHARED_REFINEMENT_LPLUS_DIGESTS


def point_query_cases(monkeypatch):
    """(graph, divisor, x, y) for every query of the benchmark's seed-0
    query stream, under the divisor current there, then on each standing
    graph every pair of points on one edge and every pair of edge ends."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    inputs = importlib.import_module("inputs")
    graphs = {n: mg.cli.parse_graph((GRAPHS / f"{n}.json").read_text()) for n in inputs.QUERY_GRAPHS}
    current = {n: d for n, (_, d) in graphs.items()}
    stream = inputs.query_stream(
        {n: [e.length for e in g.edges] for n, (g, _) in graphs.items()},
        {n: g.n_vertices for n, (g, _) in graphs.items()},
        random.Random(0),
    )
    for op in stream:
        if op[0] == "switch":
            current[op[1]] = mg.Divisor(op[2])
        else:
            yield graphs[op[1]][0], current[op[1]], mg.GraphPoint(*op[2]), mg.GraphPoint(*op[3])
    for _, g, d in standing_graphs():
        for i, e in enumerate(g.edges):
            on_edge = [(i, x) for x in (F(0), e.length / 3, e.length * 3 / 4, e.length)]
            for x in on_edge:
                for y in on_edge:
                    yield g, d, x, y
        ends = [(i, x) for i, e in enumerate(g.edges) for x in (F(0), e.length)]
        for x in ends:
            for y in ends:
                yield g, d, x, y


# sha256 of every answer of the three point queries, frozen from the
# implementation that built a new GraphPoint per validation and an
# EdgePairFunction per point resistance.
FROZEN_POINT_QUERY_DIGEST = "2546d44ca86a4a4bae819826eaeb5749a87c77553373aa9de8bc1112ac18df26"


def test_point_query_answers_are_frozen(monkeypatch):
    digest = hashlib.sha256()
    count = 0
    for g, d, x, y in point_query_cases(monkeypatch):
        answers = (
            mg.evaluate_green(g, d, x, y),
            mg.resistance_point(g, x, y),
            mg.resistance_to_divisor(g, d, x),
        )
        digest.update(" ".join(map(str, answers)).encode() + b"\n")
        count += 1
    assert count == 1200 + 5352
    assert digest.hexdigest() == FROZEN_POINT_QUERY_DIGEST


def counting(monkeypatch, counts, key, owner, name, wrap=lambda call: call):
    """Replace ``owner.name`` by a call that counts itself in ``counts[key]``."""
    call = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[key] += 1
        return call(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrap(counted))


def count_points(monkeypatch):
    """Fractions and GraphPoints made from here on."""
    counts = dict.fromkeys(("Fraction", "GraphPoint"), 0)
    counting(monkeypatch, counts, "Fraction", F, "__new__", staticmethod)
    counting(monkeypatch, counts, "GraphPoint", mg.GraphPoint, "__new__", staticmethod)
    return counts


def test_a_point_query_reads_each_offset_once(monkeypatch):
    # a query of the three calls on GraphPoints checks each point once per
    # call, reads its integers there and passes them on: it makes three
    # Fractions, its answers, and no GraphPoint
    g, d = mg.cli.parse_graph((GRAPHS / "tesseract.json").read_text())
    queries = [
        (mg.GraphPoint(0, F(1, 3)), mg.GraphPoint(7, F(2, 3))),
        (mg.GraphPoint(4, F(1, 4)), mg.GraphPoint(4, F(2, 3))),
        (mg.GraphPoint(9, F(0)), mg.GraphPoint(2, F(1))),
    ]

    def query(x, y):
        return (
            mg.evaluate_green(g, d, x, y),
            mg.resistance_point(g, x, y),
            mg.resistance_to_divisor(g, d, x),
        )

    expected = [query(x, y) for x, y in queries]
    counts = count_points(monkeypatch)
    counts["as_integer_ratio"] = 0
    counting(monkeypatch, counts, "as_integer_ratio", F, "as_integer_ratio")
    for (x, y), answers in zip(queries, expected):
        assert query(x, y) == answers
    assert counts == {"Fraction": 3 * 3, "GraphPoint": 0, "as_integer_ratio": 5 * 3}


# a divisor of the tesseract other than the file's, on 4 vertices
SWITCHED = mg.Divisor((0, 1, 0, 0, 2, 0, 0, 0, 0, 3, 0, 0, 1, 0, 0, 0))


def test_a_divisor_switch_makes_one_fraction_per_result(monkeypatch):
    # with L+, tau and the edge data built, a new divisor's value matrix
    # and both epsilon routes finish in integers: they make c_mu and one
    # result per route; the matrix makes no row, and the green route takes
    # its |supp D| = 4 values at vertices from integers, with no point
    g, _ = mg.cli.parse_graph((GRAPHS / "tesseract.json").read_text())
    mg.clear_caches()
    net = mg.network(g)
    net.pinv, net.tau, net.edges
    counts = count_points(monkeypatch)
    mg.value_matrix(g, SWITCHED)
    assert mg.epsilon_via_green(g, SWITCHED) == mg.epsilon_via_resistance(g, SWITCHED)
    assert counts == {"Fraction": 3, "GraphPoint": 0}


def count_quadratic_builds(monkeypatch):
    """Calls of the value matrix's row build and of the resistance triangle's."""
    counts = {"build_value_matrix": 0, "resistance_triangle": 0}
    counting(monkeypatch, counts, "build_value_matrix", mg.green, "build_value_matrix")
    counting(monkeypatch, counts, "resistance_triangle", mg.potential, "resistance_triangle")
    return counts


def test_a_divisor_switch_builds_nothing_quadratic(monkeypatch):
    # a switch, the value matrix and both epsilons, reads O(m) pieces only;
    # point queries build the resistance triangle once for the graph,
    # however many divisors follow, and no value matrix rows
    g, d = mg.cli.parse_graph((GRAPHS / "tesseract.json").read_text())
    x, y = mg.GraphPoint(0, F(1, 3)), mg.GraphPoint(7, F(2, 3))
    mg.clear_caches()
    counts = count_quadratic_builds(monkeypatch)
    mg.value_matrix(g, SWITCHED)
    assert mg.epsilon_via_green(g, SWITCHED) == mg.epsilon_via_resistance(g, SWITCHED)
    assert counts == {"build_value_matrix": 0, "resistance_triangle": 0}
    for divisor in (SWITCHED, d, SWITCHED, d):
        mg.value_matrix(g, divisor)
        assert mg.epsilon_via_green(g, divisor) == mg.epsilon_via_resistance(g, divisor)
        mg.evaluate_green(g, divisor, x, y)
        mg.resistance_point(g, x, y)
        mg.resistance_to_divisor(g, divisor, x)
    assert counts == {"build_value_matrix": 0, "resistance_triangle": 1}


def test_a_matrix_makes_its_rows_when_read_even_after_a_switch_and_a_clear(monkeypatch):
    # the matrix holds the O(m) pieces its rows are made from, not the
    # analysis, so it makes the same integers once the network has moved to
    # another divisor and been dropped
    g, d = mg.cli.parse_graph((GRAPHS / "tesseract.json").read_text())
    mg.clear_caches()
    expected = mg.value_matrix(g, d).rows
    mg.clear_caches()
    counts = count_quadratic_builds(monkeypatch)
    matrix = mg.value_matrix(g, d)
    mg.value_matrix(g, SWITCHED)
    mg.clear_caches()
    assert counts["build_value_matrix"] == 0
    assert matrix.rows == expected
    assert matrix.rows is matrix.rows
    assert counts == {"build_value_matrix": 1, "resistance_triangle": 0}


def test_only_r_D_on_edge_makes_an_edge_function(monkeypatch):
    # r_D is held per edge as integers: a switch, the matrix's rows and the
    # point reads make no EdgeFunction, and each r_D_on_edge call makes one,
    # a view of the held integers
    g, d = mg.cli.parse_graph((GRAPHS / "tesseract.json").read_text())
    x, y = mg.GraphPoint(0, F(1, 3)), mg.GraphPoint(7, F(2, 3))
    mg.clear_caches()
    made, over = [], mg.EdgeFunction._over
    counted = classmethod(lambda cls, *args: made.append(args) or over(*args))
    monkeypatch.setattr(mg.EdgeFunction, "_over", counted)
    for divisor in (SWITCHED, d):
        matrix = mg.value_matrix(g, divisor)
        assert mg.epsilon_via_green(g, divisor) == mg.epsilon_via_resistance(g, divisor)
        matrix.rows
        mg.evaluate_green(g, divisor, x, y)
        mg.evaluate_green(g, divisor, y, x)
        mg.resistance_to_divisor(g, divisor, x)
    assert made == []
    forms = [mg.r_D_on_edge(g, d, i) for i in range(g.n_edges)]
    assert len(made) == g.n_edges
    held = mg.network(g).divisor(d).r_D
    assert all(type(c) is int for form in held for c in form)
    assert [(f.edge, f.denominator, *f.numerators) for f in forms] == [
        (i, *form) for i, form in enumerate(held)
    ]


def test_a_vertex_point_is_read_off_the_incidence_table(monkeypatch):
    # one GraphPoint per call and no Fraction (a tail's offset is one
    # shared zero): the first of the vertex's descriptions in edge order
    for _, g, _ in standing_graphs():
        expected = [representations(g, v)[0] for v in range(g.n_vertices)]
        with monkeypatch.context() as patch:
            counts = count_points(patch)
            points = [mg.point_of_vertex(g, v) for v in range(g.n_vertices)]
        assert points == expected
        assert all(type(pt.offset) is F for pt in points)
        assert counts == {"Fraction": 0, "GraphPoint": g.n_vertices}


def test_a_switch_and_a_query_on_the_cached_graph_compare_no_graphs(monkeypatch):
    # the cache finds a graph it holds by identity; only an equal copy is
    # compared, once per lookup
    g, d = mg.cli.parse_graph((GRAPHS / "tesseract.json").read_text())
    mg.clear_caches()
    mg.value_matrix(g, d)
    counts = {"__eq__": 0}
    counting(monkeypatch, counts, "__eq__", mg.MetrizedGraph, "__eq__")
    x, y = mg.GraphPoint(0, F(1, 3)), mg.GraphPoint(7, F(2, 3))
    mg.value_matrix(g, SWITCHED)
    assert mg.epsilon_via_green(g, SWITCHED) == mg.epsilon_via_resistance(g, SWITCHED)
    mg.evaluate_green(g, SWITCHED, x, y)
    mg.resistance_point(g, x, y)
    mg.resistance_to_divisor(g, SWITCHED, x)
    assert counts == {"__eq__": 0}
    copy = mg.MetrizedGraph(g.vertices, g.edges)
    assert copy is not g
    mg.evaluate_green(copy, SWITCHED, x, y)
    assert counts == {"__eq__": 1}


def test_pseudoinverse_is_held_in_lowest_terms():
    # L+ is one integer matrix over the least common denominator of its
    # entries, the one form every formula reads
    cases = [(f"grid {k}", *seeded_grid(k, 0)) for k in (3, 4, 5, 6)] + standing_graphs()
    for name, g, _ in cases:
        lp = mg.pinv(g)
        assert math.gcd(lp.denominator, *(x for row in lp.numerators for x in row)) == 1, name
        assert lp.denominator == math.lcm(*(x.denominator for row in lp.rows() for x in row)), name
        rebuilt = rational_matrix(lp.rows())
        assert rebuilt == lp and hash(rebuilt) == hash(lp), name


def test_no_formula_reads_a_fraction_entry_of_lplus(monkeypatch):
    # every result on L+ reads its integers; with the Fraction accessors
    # raising, a fresh analysis must give the same answers
    g, d = mg.cli.parse_graph((GRAPHS / "tesseract.json").read_text())
    x, y = mg.GraphPoint(0, F(1, 3)), mg.GraphPoint(1, F(7, 9))

    def results():
        mg.clear_caches()
        matrix = mg.value_matrix(g, d)
        return (
            mg.tau_constant(g),
            [mg.r_D_on_edge(g, d, i) for i in range(g.n_edges)],
            matrix,
            mg.check_representation_independence(g, d, matrix),
            mg.check_vertex_formula(g, d, matrix),
            mg.epsilon_via_green(g, d),
            mg.epsilon_via_resistance(g, d),
            mg.oracle_resistance(g, x, y),
            mg.oracle_green(g, d, x, y),
        )

    expected = results()

    def fraction_entry(*args, **kwargs):
        raise AssertionError("a Fraction entry of a matrix was read")

    for name in ("row", "rows"):
        monkeypatch.setattr(mg.RationalMatrix, name, fraction_entry)
    assert results() == expected
    assert expected[3].passed and expected[4].passed


def test_value_matrix_and_checks_build_no_fraction_per_entry():
    # entries hold integers over one denominator: with the divisor analysis
    # warmed, building the matrix makes no Fraction, and the checks make a
    # few per vertex (the zero offsets of its descriptions), none per entry
    g, d = mg.cli.parse_graph((GRAPHS / "tesseract.json").read_text())
    mg.clear_caches()
    net = mg.network(g)
    net.edges, net.divisor(d).c_mu, net.divisor(d).r_D
    made = []
    saved = Fraction.__dict__["__new__"]

    def counted(cls, *args, **kwargs):
        made.append(args)
        return saved.__func__(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counted)
    try:
        matrix = mg.value_matrix(g, d)
        built = len(made)
        reports = (
            *mg.invariants._check_reports(g, d),
            mg.check_representation_independence(g, d, matrix),
            mg.check_vertex_formula(g, d, matrix),
        )
    finally:
        Fraction.__new__ = saved
    assert built == 0
    assert all(report.passed for report in reports)
    assert len(made) < g.n_vertices**2 < g.n_edges**2


def test_traced_layer_functions_exist(monkeypatch):
    # the benchmark tracer skips a missing name silently, which would
    # quietly zero its per-layer metric
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    tracing = importlib.import_module("tracing")
    for layer, names in tracing.LAYERS.items():
        module = importlib.import_module(f"metgraph.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"metgraph.{layer}.{name}"


def test_package_has_no_assert_statements():
    # invariants are typed errors, so they hold under ``python -O`` too
    package = Path(mg.__file__).resolve().parent
    found = [
        f"{path.relative_to(package)}:{node.lineno}"
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_graph_imports_nothing_from_analysis():
    # graph is the bottom module: the analysis cache reads graphs, never the reverse
    tree = ast.parse((Path(mg.__file__).resolve().parent / "graph.py").read_text())
    found = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in [getattr(node, "module", None) or "", *(alias.name for alias in node.names)]
        if name.split(".")[-1] == "analysis"
    ]
    assert found == []


def test_package_imports_its_modules_at_module_top():
    # the analysis cache and the formula modules import each other once, at
    # the top, so every dependency is visible; a late stdlib import, such as
    # cli's unicodedata, needed for rare labels only, is allowed
    package = Path(mg.__file__).resolve().parent

    def names_metgraph(node):
        if isinstance(node, ast.ImportFrom):
            return node.level > 0 or (node.module or "").split(".")[0] == "metgraph"
        return any(alias.name.split(".")[0] == "metgraph" for alias in node.names)

    found = []
    for path in sorted(package.rglob("*.py")):
        where = path.relative_to(package)
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [
                    f"{where}:{n.lineno}: import in {node.name}"
                    for n in ast.walk(node)
                    if isinstance(n, (ast.Import, ast.ImportFrom)) and names_metgraph(n)
                ]
            elif isinstance(node, ast.Name) and node.id == "TYPE_CHECKING":
                found.append(f"{where}:{node.lineno}: TYPE_CHECKING")
            elif isinstance(node, ast.alias) and node.name == "TYPE_CHECKING":
                found.append(f"{where}: imports TYPE_CHECKING")
    assert found == []


@pytest.mark.parametrize(
    "module,formula,cached",
    [
        ("linalg", "laplacian_matrix", "laplacian"),
        ("linalg", "pseudo_inverse", "pinv"),
        ("potential", "tau_of", "tau"),
        ("potential", "edge_data", "edges"),
        ("potential", "r_D_at_vertices", "r_D_at_vertices"),
        ("potential", "r_D_on_edges", "r_D"),
        ("potential", "c_mu_of", "c_mu"),
        ("potential", "vertex_formula", "vertex_formula"),
        ("potential", "resistance_triangle", "resistance_triangle"),
        ("green", "constant_of", "constant"),
        ("green", "value_matrix_of", "value_matrix"),
        ("invariants", "_representation_report", "representation_walk"),
    ],
)
def test_analysis_calls_each_formula_through_its_module(monkeypatch, module, formula, cached):
    # the cache looks the formula up when it computes, so patching the
    # formula's own module reaches it; a name bound at import would not
    sentinel = object()
    monkeypatch.setattr(getattr(mg, module), formula, lambda *args: sentinel)
    g, divisor = mg.cli.parse_graph((GRAPHS / "circle.json").read_text())
    net = mg.Network(g)
    holder = net.divisor(divisor) if cached in vars(mg.analysis.DivisorAnalysis) else net
    assert getattr(holder, cached) is sentinel


def test_value_matrix_and_checks_leave_no_entry_object():
    # the matrix holds integers per edge pair, and the checks read them:
    # neither keeps an EdgePairFunction alive
    def alive():
        gc.collect()
        return [o for o in gc.get_objects() if type(o) is mg.EdgePairFunction]

    g, d = mg.cli.parse_graph((GRAPHS / "tesseract.json").read_text())
    mg.clear_caches()
    before = alive()
    matrix = mg.value_matrix(g, d)
    reports = [mg.check_representation_independence(g, d), mg.check_vertex_formula(g, d)]
    assert all(report.passed for report in reports) and matrix.size == g.n_edges
    held = {id(o) for o in before}
    assert [o for o in alive() if id(o) not in held] == []

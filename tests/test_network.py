"""The per-graph analysis cache and the exact results it hands out.

Every derived quantity of a graph lives in one ``network(g)`` entry, keyed by
the graph's value.  These tests pin the contract of that cache (shared by
equal graphs, emptied completely by ``clear_caches``, never holding the
oracle's refinements, stable hashes across processes) and freeze the exact
coefficients of the closed forms.
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

import metgraph as mg
from conftest import seeded_grid, standing_graphs

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
        held = [
            weakref.ref(mg.value_matrix(g, d)),
            weakref.ref(mg.r_D_on_edge(g, d, 0)),
            weakref.ref(mg.connectivity_matrix(g)),
        ]
        assert all(ref() is not None for ref in held)
        mg.clear_caches()
        assert all(ref() is None for ref in held)

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


def test_pseudoinverse_is_held_in_lowest_terms():
    # L+ is one integer matrix over the least common denominator of its
    # entries, the one form every formula reads
    cases = [(f"grid {k}", *seeded_grid(k, 0)) for k in (3, 4, 5, 6)] + standing_graphs()
    for name, g, _ in cases:
        lp = mg.pinv(g)
        assert math.gcd(lp.denominator, *(x for row in lp.numerators for x in row)) == 1, name
        assert lp.denominator == math.lcm(*(x.denominator for row in lp.rows() for x in row)), name
        rebuilt = mg.RationalMatrix(lp.rows())
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

    for name in ("__getitem__", "row", "rows"):
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

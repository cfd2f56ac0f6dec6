"""Value faults and the runtime judges that catch each.

Each fault moves one quantity by a constant or a factor, or flips one sign,
and is patched into its module with caches cleared.  The judges are the
routes that exist to cross-check the closed forms, run as the commands a
user runs: the two epsilon routes (``epsilon``), the representation and
vertex-formula checks (``check``) and the subdivision oracle on the frozen
point pairs (``oracle``).  Each fault runs on the tesseract and two_bridges,
under the file's divisor and under D = 0, mu_can, the case of Cinkir's
formula.

A fault that keeps subdivision invariance, such as tau or c_mu off by a
constant, passes every judge: each such case is listed in ``HOLES`` with
the ROADMAP item that closes it.  The judges that fail must be exactly the
ones listed, and a case with none must be a listed hole, so the table
changes with the change that closes a hole or adds a judge.
"""

import json
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import pytest

import metgraph as mg
from conftest import mutant

EPSILON = "epsilon"
REPRESENTATION = "representation independence"
VERTEX = "vertex formula"
ORACLE = "oracle"

ROOT = Path(__file__).resolve().parent.parent

# graph file -> its vertex count, for the D = 0 divisor
GRAPHS = {"tesseract": 16, "two_bridges": 6}


class Fault(NamedTuple):
    """The one occurrence of ``old`` in ``module.name`` replaced by ``new``
    (``holders`` import the function by name), and the judges that fail
    under the file's divisor and under D = 0."""

    module: object
    name: str
    old: str
    new: str
    file: frozenset
    zero: frozenset
    holders: tuple = ()


TAU = "return Fraction(total, 12 * common * den * den) + Fraction(trace, len(num) * den)"
C_MU = "return Fraction(top, 2 * tau.denominator * den * (deg + 2) ** 2)"
NONE = frozenset()

FAULTS = {
    "tau + 1": Fault(mg.potential, "tau_of", TAU, f"{TAU} + 1", NONE, NONE),
    "2 tau": Fault(mg.potential, "tau_of", TAU, TAU.replace("return ", "return 2 * (") + ")", NONE, NONE),
    # N / D + 1 in every entry, in the graph's L+ and in every refinement's
    "L+ + J": Fault(
        mg.linalg, "pseudo_inverse", "+ total for", "+ total + nn * det for", NONE, NONE
    ),
    "c_mu + 1": Fault(mg.potential, "c_mu_of", C_MU, f"{C_MU} + 1", frozenset({EPSILON}), NONE),
    "C + 1": Fault(
        mg.green,
        "constant_of",
        "return top // common",
        "return (top + bottom) // common",
        frozenset({EPSILON, VERTEX, ORACLE}),
        frozenset({VERTEX, ORACLE}),
    ),
    # r_D / D's numerators at the vertices, which r_D on each edge reads too
    "r_D + 1": Fault(
        mg.potential,
        "r_D_at_vertices",
        "base + deg",
        "base + div.network.pinv.denominator + deg",
        frozenset({EPSILON, VERTEX, ORACLE}),
        frozenset({EPSILON, VERTEX, ORACLE}),
    ),
    "r_D den * 2": Fault(
        mg.potential, "r_D_on_edges", "forms.append((den * pp", "forms.append((2 * den * pp", NONE, NONE
    ),
    "cross term sign": Fault(
        mg.potential,
        "pair_rows",
        "(ai[hj] - ai[tj])",
        "(ai[tj] - ai[hj])",
        frozenset({REPRESENTATION, VERTEX, ORACLE}),
        frozenset({REPRESENTATION, VERTEX, ORACLE}),
        (mg.green,),
    ),
}

# (fault, divisor) with no judge failing -> what closes it
DIVISORS = ("file", "D = 0")
HOLES = {
    **{
        (fault, divisor): "items 13 (tau by the energy integral) and 8 (the certificate)"
        for fault in ("tau + 1", "2 tau", "L+ + J")
        for divisor in DIVISORS
    },
    ("c_mu + 1", "D = 0"): "item 8 (the normalization certificate)",
    # only the library's resistance_to_divisor and r_D_on_edge read the held
    # den; Tier-1 pins it (test_potential.py)
    **{("r_D den * 2", divisor): "no item yet: no runtime route reads r_D's den" for divisor in DIVISORS},
}


def failing_judges(capsys, graph: str, divisor: str | None) -> frozenset:
    """The judges that fail on ``graphs/<graph>.json`` under ``divisor``
    (the file's when None), each run as its command."""
    path = str(ROOT / "graphs" / f"{graph}.json")
    chosen = [] if divisor is None else [f"--divisor={divisor}"]

    def machine(*args: str) -> dict:
        mg.cli.run([args[0], path, "--machine", *chosen, *args[1:]])
        return json.loads(capsys.readouterr().out)

    failed = {report["name"] for report in machine("check")["reports"] if not report["passed"]}
    if not machine("epsilon")["match"]:
        failed.add(EPSILON)
    points = ROOT / "tests" / "data" / "oracle_points" / f"{graph}.txt"
    if not machine("oracle", "--points", str(points))["match"]:
        failed.add(ORACLE)
    return frozenset(failed)


def judged(capsys) -> dict:
    """(graph, divisor) -> the judges that fail, on both graphs under the
    file's divisor and under D = 0, caches cleared first."""
    mg.clear_caches()
    return {
        (graph, label): failing_judges(capsys, graph, divisor)
        for graph, n in GRAPHS.items()
        for label, divisor in zip(DIVISORS, (None, ",".join(["0"] * n)))
    }


def library_values(graph: str) -> tuple:
    """What the library gives on ``graph`` under its file's divisor, read
    through its public functions, caches cleared first."""
    mg.clear_caches()
    g, divisor = mg.cli.parse_graph((ROOT / "graphs" / f"{graph}.json").read_text())
    lplus, x, y = mg.pinv(g), (0, Fraction(1, 3)), (g.n_edges - 1, Fraction(1, 2))
    return (
        mg.tau_constant(g),
        lplus.denominator,
        lplus.numerators,
        mg.c_mu(g, divisor),
        mg.value_matrix(g, divisor).rows,
        tuple(mg.r_D_on_edge(g, divisor, i).coefficients() for i in range(g.n_edges)),
        mg.resistance_point(g, x, y),
        mg.evaluate_green(g, divisor, x, y),
    )


@pytest.fixture
def cold_caches():
    """Empty caches after, so no analysis built under a patch outlives it."""
    yield
    mg.clear_caches()


def test_every_judge_passes_with_no_fault(capsys, cold_caches):
    assert set(judged(capsys).values()) == {NONE}


@pytest.mark.parametrize("fault", FAULTS)
def test_each_fault_fails_exactly_its_listed_judges(fault, monkeypatch, capsys, cold_caches):
    spec = FAULTS[fault]
    clean = {graph: library_values(graph) for graph in GRAPHS}
    mutant(monkeypatch, spec.module, spec.name, spec.old, spec.new, *spec.holders)
    # the fault is live: a hole is a changed output that no judge sees
    assert all(library_values(graph) != values for graph, values in clean.items())
    expected = dict(zip(DIVISORS, (spec.file, spec.zero)))
    for (graph, divisor), failed in judged(capsys).items():
        assert failed == expected[divisor], (fault, graph, divisor)
        # a case no judge catches is a listed hole, and a listed hole is caught by none
        assert (not failed) == ((fault, divisor) in HOLES), (fault, graph, divisor)


def test_every_hole_is_a_listed_fault():
    assert {fault for fault, _ in HOLES} <= set(FAULTS)

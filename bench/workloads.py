"""The three benchmark workloads.

Each workload is a fixed list of operations built from the seed during
set-up.  A round runs the whole list once, timing every operation; rounds
replay the same list from a cold library state (fresh CLI processes, or
every metgraph cache cleared), so each operation is measured once per round
and every round must produce the same exact outputs.  Each operation
records the start and wall time of its timed calls; the core-speed meter
(``speed.py``) turns them into calm times afterwards.

    standing-cli   20 CLI commands as cold subprocesses, the way a shell
                   user pays: interpreter start, import, parse, compute.
    grid-scaling   the full in-process pipeline on seeded k x k grids,
                   where exact linear algebra and the value matrix grow.
    query-mix      a closed-loop stream of point queries against cached
                   value matrices, with a divisor switch per graph.
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import subprocess
import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction
from hashlib import sha256
from pathlib import Path
from time import perf_counter_ns

import inputs
import metgraph as mg
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GRAPH_DIR = ROOT / "graphs"
POINTS_DIR = ROOT / "tests" / "data" / "oracle_points"
OUT_DIR = ROOT / ".bench_out"

CLI_TIMEOUT_S = 120


@dataclass
class Op:
    """One operation of a round, with the (start, ns) of each timed call:
    one for most operations, one per stage for a grid pipeline."""

    id: str
    kind: str
    ok: bool
    output: str
    pieces: list[tuple[int, int]]


def _digest(text: str) -> str:
    return sha256(text.encode()).hexdigest()[:16]


def _failed(op_id: str, kind: str, pieces: list[tuple[int, int]]) -> Op:
    traceback.print_exc(file=sys.stderr)
    return Op(op_id, kind, False, "error: " + repr(sys.exc_info()[1]), pieces)


class Workload:
    name = ""
    latency_kind = ""
    heavy_id = ""
    in_process = True

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        """Everything done before the first timed operation."""

    def prepare_round(self, r: int) -> None:
        """Untimed reset before round ``r`` so it starts from the same state."""

    def run_round(self, r: int, tracer: tracing.Tracer | None) -> list[Op]:
        raise NotImplementedError

    def verify(self, ops: list[Op]) -> list[str]:
        """Untimed oracle checks after the timed loop; returns the ids of
        wrong operations.  The traced run measures the memory they leave."""
        return []

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# standing-cli

# Golden epsilons of the standing graphs with their file divisors.  The
# tesseract and banana values are the ones the acceptance criteria assert.
EPSILON = {
    "banana": "12/11",
    "circle": "0",
    "joint_circles": "3/2",
    "tesseract": "7875/122",
    "two_bridges": "22/5",
}
CHECK_LINE = re.compile(r"^(.+): (PASS|FAIL) \((\d+) comparisons\)$")
ORACLE_LINE = re.compile(r"^([rg])\[(\S+) (\S+)\] closed=(\S+) oracle=(\S+) diff=(\S+)$")
VERIFY_PAIRS_PER_GRAPH = 4


def _read_pairs(path: Path) -> list[tuple[str, str]]:
    pairs = []
    for line in path.read_text().splitlines():
        body = line.strip()
        if body and not body.startswith("#"):
            x, y = body.split()
            pairs.append((x, y))
    return pairs


def _point(token: str) -> mg.GraphPoint:
    edge, offset = token.split(":")
    return mg.GraphPoint(int(edge), Fraction(offset))


class StandingCli(Workload):
    name = "standing-cli"
    latency_kind = "cli"
    heavy_id = "tesseract oracle"
    in_process = False

    def setup(self) -> None:
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(SRC) + (
            ":" + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else ""
        )
        self.graphs = {}
        self.pairs = {}
        self.commands = []
        for g in inputs.STANDING_GRAPHS:
            graph_file = (GRAPH_DIR / f"{g}.json").relative_to(ROOT)
            points_file = (POINTS_DIR / f"{g}.txt").relative_to(ROOT)
            self.graphs[g] = mg.cli.parse_graph((ROOT / graph_file).read_text())
            self.pairs[g] = _read_pairs(ROOT / points_file)
            self.commands += [
                (f"{g} epsilon", g, "epsilon", ["epsilon", str(graph_file)]),
                (f"{g} check", g, "check", ["check", str(graph_file)]),
                (f"{g} value-matrix", g, "value-matrix", ["value-matrix", str(graph_file), "--machine"]),
                (f"{g} oracle", g, "oracle", ["oracle", str(graph_file), "--points", str(points_file)]),
            ]
        self.spans_dir = OUT_DIR / f"spans-{os.getpid()}"

    def run_round(self, r: int, tracer: tracing.Tracer | None) -> list[Op]:
        # Shuffle per round so that each command meets different moments of
        # any background load on the host.
        order = list(self.commands)
        random.Random(f"{self.seed}:{r}").shuffle(order)
        import_ns = []
        ops = []
        for k, (op_id, g, cmd, args) in enumerate(order):
            if tracer is None:
                argv = [sys.executable, "-c", "from metgraph.cli import main; main()", *args]
            else:
                self.spans_dir.mkdir(parents=True, exist_ok=True)
                spans = self.spans_dir / f"{r}-{k}.json"
                request = r * 1000 + k
                argv = [sys.executable, str(BENCH / "cli_child.py"), str(spans), str(request), *args]
            start = perf_counter_ns()
            try:
                proc = subprocess.run(
                    argv, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S
                )
            except subprocess.TimeoutExpired:
                ops.append(_failed(op_id, "cli", [(start, perf_counter_ns() - start)]))
                continue
            ns = perf_counter_ns() - start
            ok, output = self._check(g, cmd, proc)
            ops.append(Op(op_id, "cli", ok, output, [(start, ns)]))
            if tracer is not None and spans.exists():
                doc = json.loads(spans.read_text())
                spans.unlink()
                tracer.absorb(doc)
                import_ns.append(doc["counts"].pop("cli.import_ns"))
                _merge_counts(tracer.counts, doc["counts"])
        if import_ns:
            import_ns.sort()
            tracer.counts["cli.import_ms"] = import_ns[len(import_ns) // 2] / 1e6
        return ops

    def _check(self, g: str, cmd: str, proc) -> tuple[bool, str]:
        if proc.returncode != 0:
            return False, f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
        lines = proc.stdout.splitlines()
        if cmd == "epsilon":
            want = EPSILON[g]
            return lines == [f"green      {want}", f"resistance {want}", "MATCH"], proc.stdout
        if cmd == "check":
            found = [CHECK_LINE.match(line) for line in lines]
            ok = len(lines) == 2 and all(m and m.group(2) == "PASS" for m in found)
            # comparison counts are work counts, not results: keep them out
            return ok, "\n".join(m.group(1) + ": " + m.group(2) if m else line for m, line in zip(found, lines))
        if cmd == "value-matrix":
            try:
                entries = json.loads(proc.stdout)["entries"]
            except (json.JSONDecodeError, KeyError, TypeError):
                return False, proc.stdout[:300]
            m = self.graphs[g][0].n_edges
            ok = len(entries) == m and all(len(row) == m for row in entries)
            return ok, json.dumps(entries, sort_keys=True, separators=(",", ":"))
        found = [ORACLE_LINE.match(line) for line in lines]
        ok = len(lines) == 2 * len(self.pairs[g]) and all(
            m and m.group(6) == "0" and m.group(4) == m.group(5) for m in found
        )
        return ok, proc.stdout

    def verify(self, ops: list[Op]) -> list[str]:
        """Re-derive the first oracle pairs of each graph in process and
        compare with the closed forms the CLI printed."""
        by_id = {op.id: op for op in ops}
        wrong = []
        for g, (graph, divisor) in self.graphs.items():
            op = by_id[f"{g} oracle"]
            closed = {}
            for line in op.output.splitlines():
                m = ORACLE_LINE.match(line)
                if m:
                    closed[m.group(1), m.group(2), m.group(3)] = m.group(4)
            for x, y in self.pairs[g][:VERIFY_PAIRS_PER_GRAPH]:
                px, py = _point(x), _point(y)
                got = {
                    "r": mg.oracle_resistance(graph, px, py),
                    "g": mg.oracle_green(graph, divisor, px, py),
                }
                key = lambda q: (q, f"{px.edge}:{px.offset}", f"{py.edge}:{py.offset}")
                if any(closed.get(key(q)) != str(v) for q, v in got.items()):
                    wrong.append(op.id)
                    break
        return wrong

    def close(self) -> None:
        shutil.rmtree(self.spans_dir, ignore_errors=True)


def _merge_counts(into: dict, counts: dict) -> None:
    for key, value in counts.items():
        if key.endswith("_bits") or key == "graph.bridge_count":
            into[key] = max(into[key], value)
        else:
            into[key] += value


# ---------------------------------------------------------------------------
# grid-scaling

class GridScaling(Workload):
    name = "grid-scaling"
    latency_kind = "pipeline"
    heavy_id = f"grid {max(inputs.GRID_SIZES)}"

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.documents = {k: inputs.grid_document(k, rng) for k in inputs.GRID_SIZES}

    def prepare_round(self, r: int) -> None:
        tracing.clear_caches()

    def run_round(self, r: int, tracer: tracing.Tracer | None) -> list[Op]:
        ops = []
        for k, text in self.documents.items():
            if tracer is not None:
                tracer.request_id = r * 1000 + k
            ops.append(self._pipeline(f"grid {k}", text))
        return ops

    def _pipeline(self, op_id: str, text: str) -> Op:
        pieces: list[tuple[int, int]] = []

        def timed(fn, *args):
            start = perf_counter_ns()
            result = fn(*args)
            ns = perf_counter_ns() - start
            pieces.append((start, ns))
            return result

        try:
            g, d = timed(mg.cli.parse_graph, text)
            timed(mg.laplacian, g)
            lplus = timed(mg.pinv, g)
            timed(mg.connectivity_matrix, g)
            tau = timed(mg.tau_constant, g)
            timed(lambda: [mg.r_D_on_edge(g, d, i) for i in range(g.n_edges)])
            vm = timed(mg.value_matrix, g, d)
            e_green = timed(mg.epsilon_via_green, g, d)
            e_resistance = timed(mg.epsilon_via_resistance, g, d)
            rep = timed(mg.check_representation_independence, g, d, vm)
            vf = timed(mg.check_vertex_formula, g, d, vm)
        except Exception:
            return _failed(op_id, "pipeline", pieces)
        ok = e_green == e_resistance and rep.passed and vf.passed
        lplus_text = ";".join(",".join(map(str, row)) for row in lplus.rows())
        vm_text = ";".join(
            ",".join(map(str, entry.coefficients())) for row in vm.entries for entry in row
        )
        output = (
            f"tau={tau} epsilon={e_green},{e_resistance} checks={rep.passed},{vf.passed} "
            f"lplus={_digest(lplus_text)} value_matrix={_digest(vm_text)}"
        )
        return Op(op_id, "pipeline", ok, output, pieces)


# ---------------------------------------------------------------------------
# query-mix

VERIFY_QUERIES = 6


class QueryMix(Workload):
    name = "query-mix"
    latency_kind = "query"

    def setup(self) -> None:
        self.graphs = {}
        for name in inputs.QUERY_GRAPHS:
            self.graphs[name] = mg.cli.parse_graph((GRAPH_DIR / f"{name}.json").read_text())
        rng = random.Random(self.seed)
        lengths = {n: [e.length for e in g.edges] for n, (g, _) in self.graphs.items()}
        sizes = {n: g.n_vertices for n, (g, _) in self.graphs.items()}
        raw = inputs.query_stream(lengths, sizes, rng)
        self.sample = inputs.verification_sample(raw, VERIFY_QUERIES, rng)
        self.ops = []
        for k, op in enumerate(raw):
            if op[0] == "query":
                self.ops.append(("query", op[1], mg.GraphPoint(*op[2]), mg.GraphPoint(*op[3])))
            else:
                self.ops.append(("switch", op[1], mg.Divisor(op[2])))
                if op[1] == "tesseract":
                    self.heavy_id = str(k)
        self._build_first_value_matrices()

    def _build_first_value_matrices(self) -> None:
        for g, d in self.graphs.values():
            mg.value_matrix(g, d)

    def prepare_round(self, r: int) -> None:
        if r:
            tracing.clear_caches()
            self._build_first_value_matrices()

    def run_round(self, r: int, tracer: tracing.Tracer | None) -> list[Op]:
        current = {name: d for name, (_, d) in self.graphs.items()}
        self.divisor_at = {}
        out = []
        for k, op in enumerate(self.ops):
            if tracer is not None:
                tracer.request_id = r * 100000 + k
            kind, name = op[0], op[1]
            g = self.graphs[name][0]
            start = perf_counter_ns()
            try:
                if kind == "query":
                    x, y = op[2], op[3]
                    d = current[name]
                    value = mg.evaluate_green(g, d, x, y)
                    r_xy = mg.resistance_point(g, x, y)
                    r_d = mg.resistance_to_divisor(g, d, x)
                    ns = perf_counter_ns() - start
                    self.divisor_at[k] = d
                    out.append(Op(str(k), kind, True, f"{value} {r_xy} {r_d}", [(start, ns)]))
                else:
                    d = op[2]
                    mg.value_matrix(g, d)
                    e_green = mg.epsilon_via_green(g, d)
                    e_resistance = mg.epsilon_via_resistance(g, d)
                    ns = perf_counter_ns() - start
                    current[name] = d
                    out.append(Op(str(k), kind, e_green == e_resistance, f"{e_green} {e_resistance}", [(start, ns)]))
            except Exception:
                ns = perf_counter_ns() - start
                out.append(_failed(str(k), kind, [(start, ns)]))
        return out

    def verify(self, ops: list[Op]) -> list[str]:
        """Re-derive a seeded sample of query results with the subdivision oracle."""
        by_id = {op.id: op for op in ops}
        wrong = []
        for k in self.sample:
            _, name, x, y = self.ops[k]
            g = self.graphs[name][0]
            d = self.divisor_at.get(k)
            if d is None:  # the query raised, and already counts as failed
                continue
            r_d = sum(
                (a * mg.oracle_resistance(g, mg.point_of_vertex(g, v), x) for v, a in enumerate(d.coefficients) if a),
                Fraction(0),
            )
            expected = f"{mg.oracle_green(g, d, x, y)} {mg.oracle_resistance(g, x, y)} {r_d}"
            if by_id[str(k)].output != expected:
                wrong.append(str(k))
        return wrong


WORKLOADS = {w.name: w for w in (StandingCli, GridScaling, QueryMix)}

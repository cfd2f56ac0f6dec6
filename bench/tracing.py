"""Spans around calls into metgraph's public layer functions.

The tracer replaces each function listed in ``LAYERS`` by a wrapper in
every ``metgraph`` module namespace that holds it, so calls between
modules (``value_matrix`` looking up ``pinv``, say) are recorded as well as
calls from the benchmark.  Each span has a name, a start and an end in
``perf_counter_ns`` (one monotonic clock shared by all processes on the
host), the index of the span that was open when it started, and the id of
the request it belongs to.  Spans stay in flat arrays in memory and are
written out once, at the end of the run.

A span's self time is its duration minus the durations of its direct
children; calls are strictly nested because the benchmark is single
threaded.  Calls that hit a ``functools.cache`` are spans too, so the cost
of hashing the arguments for a lookup lands on the function looked up.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import statistics
import sys
from array import array
from collections import defaultdict
from time import perf_counter_ns

LAYERS = {
    "cli": ("parse_graph", "run"),
    "graph": ("bridges", "connectivity_matrix"),
    "linalg": ("laplacian", "pinv"),
    "potential": ("tau_constant", "r_D_on_edge", "resistance_point", "resistance_to_divisor"),
    "green": ("value_matrix", "evaluate_green"),
    "invariants": (
        "epsilon_via_green",
        "epsilon_via_resistance",
        "check_representation_independence",
        "check_vertex_formula",
    ),
    "oracle": ("subdivide_at_points", "oracle_resistance", "oracle_green"),
}

# Per-layer metric -> (unit, how it is derived from one round's spans).
#   ("self", names): summed self time of those spans, in ms
#   ("call", name, scale): median inclusive duration of one call, ns / scale
#   ("count", key): a count recorded by a result hook or by the workload
LAYER_METRICS = {
    "cli.import_ms": ("ms", ("count", "cli.import_ms")),
    "cli.parse_ms": ("ms", ("call", "cli.parse_graph", 1e6)),
    "graph.bridges_ms": ("ms", ("self", ("graph.bridges",))),
    "graph.connectivity_ms": ("ms", ("self", ("graph.connectivity_matrix",))),
    "graph.bridge_count": ("count", ("count", "graph.bridge_count")),
    "linalg.laplacian_ms": ("ms", ("self", ("linalg.laplacian",))),
    "linalg.pinv_ms": ("ms", ("self", ("linalg.pinv",))),
    "linalg.lplus_max_bits": ("bits", ("count", "linalg.lplus_max_bits")),
    "potential.tau_ms": ("ms", ("self", ("potential.tau_constant",))),
    "potential.r_D_ms": ("ms", ("self", ("potential.r_D_on_edge",))),
    "potential.resistance_point_us": ("us", ("call", "potential.resistance_point", 1e3)),
    "potential.resistance_to_divisor_us": ("us", ("call", "potential.resistance_to_divisor", 1e3)),
    "green.evaluate_us": ("us", ("call", "green.evaluate_green", 1e3)),
    "green.value_matrix_ms": ("ms", ("self", ("green.value_matrix",))),
    "green.value_matrix_max_bits": ("bits", ("count", "green.value_matrix_max_bits")),
    "invariants.epsilon_green_ms": ("ms", ("self", ("invariants.epsilon_via_green",))),
    "invariants.epsilon_resistance_ms": ("ms", ("self", ("invariants.epsilon_via_resistance",))),
    "invariants.check_ms": (
        "ms",
        ("self", ("invariants.check_representation_independence", "invariants.check_vertex_formula")),
    ),
    "invariants.check_comparisons": ("count", ("count", "invariants.check_comparisons")),
    "oracle.subdivide_ms": ("ms", ("call", "oracle.subdivide_at_points", 1e6)),
    "oracle.resistance_ms": ("ms", ("call", "oracle.oracle_resistance", 1e6)),
    "oracle.green_ms": ("ms", ("call", "oracle.oracle_green", 1e6)),
    "oracle.refined_vertices": ("count", ("count", "oracle.refined_vertices")),
    "oracle.retained_kib": ("KiB", ("count", "oracle.retained_kib")),
    "cache.hits": ("count", ("count", "cache.hits")),
    "cache.misses": ("count", ("count", "cache.misses")),
    "trace.spans": ("count", ("count", "trace.spans")),
    "trace.overhead_s": ("s", ("count", "trace.overhead_s")),
}

# Counts that must repeat exactly from one replay of the same work to the next.
EXACT_COUNTS = (
    "graph.bridge_count",
    "linalg.lplus_max_bits",
    "green.value_matrix_max_bits",
    "invariants.check_comparisons",
    "oracle.refined_vertices",
    "cache.hits",
    "cache.misses",
    "trace.spans",
)


# Functions whose results feed the exact counts in ``Tracer._hook``.
HOOKED = frozenset(
    {
        "linalg.pinv",
        "green.value_matrix",
        "graph.bridges",
        "invariants.check_representation_independence",
        "invariants.check_vertex_formula",
        "oracle.subdivide_at_points",
    }
)


def max_bits(values) -> int:
    return max(
        (max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values),
        default=0,
    )


def _lplus_bits(matrix) -> int:
    return max_bits(x for row in matrix.rows() for x in row)


def _value_matrix_bits(matrix) -> int:
    return max_bits(c for row in matrix.entries for entry in row for c in entry.coefficients())


def metgraph_modules():
    return [m for name, m in list(sys.modules.items()) if name == "metgraph" or name.startswith("metgraph.")]


def _cached_functions():
    """Every functools cache defined in a metgraph module, once each."""
    found = {}
    for module in metgraph_modules():
        for value in vars(module).values():
            if hasattr(value, "cache_info") and getattr(value, "__module__", None) == module.__name__:
                found[id(value)] = value
    return found.values()


def cache_totals() -> tuple[int, int]:
    """Hits and misses summed over every functools cache in metgraph."""
    infos = [fn.cache_info() for fn in _cached_functions()]
    return sum(i.hits for i in infos), sum(i.misses for i in infos)


def clear_caches() -> None:
    """Empty every metgraph cache, found by inspection rather than from a
    hand-kept list, so a replayed round starts as cold as the first."""
    for fn in _cached_functions():
        fn.cache_clear()


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.request = array("q")
        self.request_id = 0
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._seen: set[int] = set()
        self._patches: list[tuple[object, str, object, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _hook(self, name: str, result) -> None:
        counts = self.counts
        if name == "linalg.pinv":
            if id(result) not in self._seen:
                self._seen.add(id(result))
                counts["linalg.lplus_max_bits"] = max(counts["linalg.lplus_max_bits"], _lplus_bits(result))
        elif name == "green.value_matrix":
            if id(result) not in self._seen:
                self._seen.add(id(result))
                counts["green.value_matrix_max_bits"] = max(
                    counts["green.value_matrix_max_bits"], _value_matrix_bits(result)
                )
        elif name == "graph.bridges":
            counts["graph.bridge_count"] = max(counts["graph.bridge_count"], len(result))
        elif name.startswith("invariants.check_"):
            counts["invariants.check_comparisons"] += result.comparisons
        elif name == "oracle.subdivide_at_points":
            counts["oracle.refined_vertices"] += result.graph.n_vertices

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        stack = self._stack
        hooked = name in HOOKED

        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.request.append(self.request_id)
            self.end.append(0)
            stack.append(idx)
            self.start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter_ns()
                stack.pop()
            if hooked:
                self._hook(name, result)
            return result

        functools.update_wrapper(wrapper, fn)
        for attr in ("cache_clear", "cache_info"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def install(self) -> None:
        """Wrap every listed function that exists in this version of metgraph."""
        if self._patches:
            return
        modules = metgraph_modules()
        for layer, functions in LAYERS.items():
            module = importlib.import_module(f"metgraph.{layer}")
            for fn_name in functions:
                original = getattr(module, fn_name, None)
                if original is None:
                    continue
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._patches.append((m, attr, original, wrapper))

    def uninstall(self) -> None:
        for module, attr, original, _ in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def begin_round(self) -> int:
        self.counts = defaultdict(int)
        self._seen.clear()
        return len(self.start)

    # -- merging spans from child processes ---------------------------------

    def dump(self) -> dict:
        return {
            "names": self.names,
            "spans": [
                [self.name[i], self.start[i], self.end[i], self.parent[i], self.request[i]]
                for i in range(len(self.start))
            ],
            "counts": dict(self.counts),
        }

    def absorb(self, doc: dict) -> None:
        """Append a child process's spans, re-indexing names and parents."""
        remap = [self._name_id(n) for n in doc["names"]]
        base = len(self.start)
        for nid, start, end, parent, request in doc["spans"]:
            self.name.append(remap[nid])
            self.start.append(start)
            self.end.append(end)
            self.parent.append(parent + base if parent >= 0 else -1)
            self.request.append(request)

    # -- derived numbers ----------------------------------------------------

    def summarize(self, lo: int, counts: dict, duration=lambda start, ns: ns) -> dict:
        """Per-layer metrics of the spans recorded since index ``lo``;
        ``duration(start, ns)`` turns a span's wall time into the time
        reported (the benchmark passes the speed meter's calm time)."""
        hi = len(self.start)
        dur = [duration(self.start[i], self.end[i] - self.start[i]) for i in range(lo, hi)]
        self_ns = list(dur)
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                self_ns[p - lo] -= dur[i - lo]
        totals: dict[str, float] = defaultdict(float)
        calls: dict[str, list[float]] = defaultdict(list)
        for k, i in enumerate(range(lo, hi)):
            name = self.names[self.name[i]]
            totals[name] += self_ns[k]
            calls[name].append(dur[k])
        counts = dict(counts, **{"trace.spans": hi - lo})
        out = {}
        for metric, (_, (kind, *how)) in LAYER_METRICS.items():
            if kind == "self":
                out[metric] = sum(totals[n] for n in how[0]) / 1e6
            elif kind == "call":
                name, scale = how
                out[metric] = statistics.median(calls[name]) / scale if calls[name] else 0
            else:
                out[metric] = counts.get(how[0], 0)
        return out

    def write(self, path) -> None:
        """All spans as gzipped JSON, one row per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = self.dump()
        doc["fields"] = ["name", "start_ns", "end_ns", "parent", "request"]
        with gzip.open(path, "wt", compresslevel=3) as fh:
            json.dump(doc, fh, separators=(",", ":"))

"""metgraph benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is standing-cli, grid-scaling, query-mix, or all (each workload in
its own interpreter, one after the other).  The run replays the workload's
seeded operation list in rounds for S seconds of work, checks every
exact output, and prints one metric per line followed by a JSON summary
as the last line.  With ``--trace 0`` the summary holds the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics from spans,
with traced and untraced rounds alternating so the tracing overhead can be
reported.  Spans of a traced run are written to
``.bench_out/trace-NAME-seedN.json.gz``.

Timing rule: each operation's time is its calm time (``speed.py``), the
measured time divided by how much slower a fixed probe kernel ran around
it than on a quiet reference core, and an operation replayed in several
rounds takes the median of its calm times.  The run keeps itself and its
children on one core, so the probes see the core the operations ran on.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from array import array
from hashlib import sha256
from pathlib import Path

import tracing
from speed import REFERENCE_PROBE_NS, Meter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REQUIRED = (
    SRC / "metgraph" / "__init__.py",
    ROOT / "graphs",
    ROOT / "tests" / "data" / "oracle_points",
)
WORKLOAD_NAMES = ("standing-cli", "grid-scaling", "query-mix")
SETUP_PROBES = 5
# Replays of every operation, at least; traced runs alternate traced and
# untraced rounds, so they get two traced and one untraced.
MIN_ROUNDS = 3
PROBE_TIMEOUT_S = 120
GOLDEN = BENCH / "golden.json"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "ops_per_s": "1/s",
    "heavy_op_ms": "ms",
    "peak_rss_mib": "MiB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def nearest_rank(values, q: float):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def record(replays: dict, ops, meter: Meter) -> None:
    """Add each operation's calm time of this round, in ns, to its replays."""
    for op in ops:
        calm = sum(meter.calm(start, ns) for start, ns in op.pieces)
        replays.setdefault(op.id, (op.kind, array("d")))[1].append(calm)


def round_digest(ops) -> str:
    text = "\n".join(f"{op.id}\t{op.output}" for op in sorted(ops, key=lambda o: o.id))
    return sha256(text.encode()).hexdigest()


def setup_probe(args) -> tuple[int, int]:
    """Start and ns from launching a fresh interpreter until the workload is
    set up, which is what each run pays before its first timed operation."""
    argv = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-only",
    ]
    start = time.perf_counter_ns()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    ns = time.perf_counter_ns() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return start, ns


def retained_kib(fn):
    """Memory still allocated after ``fn`` returns and a full collection."""
    gc.collect()
    tracemalloc.start()
    before = tracemalloc.take_snapshot()
    result = fn()
    gc.collect()
    after = tracemalloc.take_snapshot()
    tracemalloc.stop()
    return sum(s.size_diff for s in after.compare_to(before, "filename")) / 1024, result


def peak_rss_mib(in_process: bool) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024


def run_workload(args) -> int:
    # One core for the run and every process it starts, so the speed probes
    # and the operations around them see the same core.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    start = time.perf_counter_ns()
    import metgraph

    import_ms = (time.perf_counter_ns() - start) / 1e6
    if Path(metgraph.__file__).resolve().parent != (SRC / "metgraph").resolve():
        print(f"error: imported metgraph from {metgraph.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.setup()
    if args.setup_only:
        return 0
    meter = Meter()
    meter.start()
    try:
        return measure(args, wl, import_ms, meter)
    finally:
        meter.stop()
        wl.close()


def measure(args, wl, import_ms: float, meter: Meter) -> int:
    tracer = tracing.Tracer() if args.trace else None
    probes = [setup_probe(args)]
    # Per operation only one float per replay is kept, besides the digests
    # and the failures, so the run's memory barely grows with its rounds.
    replays = {True: {}, False: {}}
    digests = set()
    layer_rounds = []
    problems = []
    attempted = failed = 0
    probe_every = None
    work = 0.0
    r = 0
    # --seconds is the time spent in rounds, speed probes included.
    while r < MIN_ROUNDS or work < args.seconds:
        begin = time.perf_counter()
        wl.prepare_round(r)
        traced = bool(args.trace) and r % 2 == 0
        if traced:
            lo = tracer.begin_round()
            hits0, misses0 = tracing.cache_totals()
            tracer.install()
            ops = wl.run_round(r, tracer)
            tracer.uninstall()
            if wl.in_process:
                hits1, misses1 = tracing.cache_totals()
                tracer.counts["cache.hits"] += hits1 - hits0
                tracer.counts["cache.misses"] += misses1 - misses0
                tracer.counts["cli.import_ms"] = import_ms
            layer_rounds.append(tracer.summarize(lo, tracer.counts, meter.calm))
        else:
            ops = wl.run_round(r, None)
        work += time.perf_counter() - begin
        r += 1
        record(replays[traced], ops, meter)
        digests.add(round_digest(ops))
        attempted += len(ops)
        for op in ops:
            if not op.ok:
                failed += 1
                problems.append(f"{op.id}: {op.output[:300]}")
        if probe_every is None:
            probe_every = max(1, int(args.seconds / work / SETUP_PROBES))
        if len(probes) < SETUP_PROBES and r % probe_every == 0:
            probes.append(setup_probe(args))
    while len(probes) < SETUP_PROBES:
        probes.append(setup_probe(args))
    meter.stop()
    rss = peak_rss_mib(wl.in_process)

    if args.trace:
        kib, wrong = retained_kib(lambda: wl.verify(ops))
    else:
        wrong = wl.verify(ops)

    # ---- correctness ------------------------------------------------------
    failed += len(wrong) * r
    problems += [f"{op_id}: differs from the subdivision oracle" for op_id in wrong]
    digest = sorted(digests)[0]
    if len(digests) > 1:
        problems.append(f"exact outputs differ between replays: {sorted(digests)}")
    golden = json.loads(GOLDEN.read_text())
    expected = golden["digests"].get(args.workload)
    if expected is not None and (args.workload == "standing-cli" or args.seed == golden["seed"]):
        if digest != expected:
            problems.append(f"output digest {digest} differs from the golden {expected}")
    for key in tracing.EXACT_COUNTS:
        seen = {layer[key] for layer in layer_rounds}
        if len(seen) > 1:
            problems.append(f"count {key} differs between replays: {sorted(seen)}")

    # ---- metrics ----------------------------------------------------------
    times_ns = {
        traced: {op_id: (kind, statistics.median(calm)) for op_id, (kind, calm) in by_id.items()}
        for traced, by_id in replays.items()
    }

    def wall_ns(traced: bool) -> float:
        return sum(ns for _, ns in times_ns[traced].values())

    slowdowns = sorted(ns / REFERENCE_PROBE_NS for ns in meter.ns)
    notes = [
        f"workload {args.workload}, seed {args.seed}: {r} rounds "
        f"({r - len(layer_rounds)} untraced) of {len(ops)} operations, median calm time per operation",
        f"failed_ops {failed}/{attempted} = {failed / attempted:.6g}",
        f"output digest {digest}",
        f"{len(slowdowns)} speed probes; slowdown against the reference core: "
        f"best {slowdowns[0]:.2f}, median {statistics.median(slowdowns):.2f}, "
        f"p90 {nearest_rank(slowdowns, 0.9):.2f}",
    ]
    if args.trace:
        metrics = {}
        for name, (unit, _) in tracing.LAYER_METRICS.items():
            metrics[name] = {"value": min(layer[name] for layer in layer_rounds), "unit": unit}
        metrics["oracle.retained_kib"]["value"] = kib
        metrics["trace.overhead_s"]["value"] = (wall_ns(True) - wall_ns(False)) / 1e9
        path = ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.json.gz"
        tracer.write(path)
        notes.append(f"{len(tracer.start)} spans written to {path.relative_to(ROOT)}")
    else:
        untraced = times_ns[False]
        total = wall_ns(False)
        latencies = [ns for kind, ns in untraced.values() if kind == wl.latency_kind]
        values = {
            "setup_s": statistics.median(meter.calm(start, ns) for start, ns in probes) / 1e9,
            "wall_s": total / 1e9,
            "op_p50_ms": statistics.median(latencies) / 1e6,
            "op_p99_ms": nearest_rank(latencies, 0.99) / 1e6,
            "ops_per_s": len(untraced) / (total / 1e9),
            "heavy_op_ms": untraced[wl.heavy_id][1] / 1e6,
            "peak_rss_mib": rss,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        notes.append(
            f"latency over {len(latencies)} '{wl.latency_kind}' operations; "
            f"heavy operation '{wl.heavy_id}'; set-up probes {len(probes)}"
        )
    for line in notes:
        print("# " + line)
    for problem in problems:
        print("# FAIL " + problem)
    for name, m in metrics.items():
        print(f"{name:<36} {m['value']:.6g} {m['unit']}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": min(failed, attempted),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh interpreter; metrics prefixed by workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.exists()]
    if missing:
        print(f"error: {ROOT} is not a metgraph checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

"""Run one metgraph CLI command with layer spans recorded.

Usage: python3 bench/cli_child.py SPANS_FILE REQUEST_ID CLI_ARG...

Stdout, stderr and the exit code are the CLI's own.  The spans, the time
taken to import ``metgraph.cli`` and the cache totals are written to
SPANS_FILE as JSON when the command returns.
"""

import json
import sys
from time import perf_counter_ns

import tracing

start = perf_counter_ns()
import metgraph.cli  # noqa: E402

import_ns = perf_counter_ns() - start

tracer = tracing.Tracer()
tracer.request_id = int(sys.argv[2])
tracer.install()
try:
    status = metgraph.cli.run(sys.argv[3:])
finally:
    sys.stdout.flush()
    doc = tracer.dump()
    hits, misses = tracing.cache_totals()
    doc["counts"].update({"cli.import_ns": import_ns, "cache.hits": hits, "cache.misses": misses})
    with open(sys.argv[1], "w") as fh:
        json.dump(doc, fh)
sys.exit(status)

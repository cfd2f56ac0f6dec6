"""Peak RSS over sixty graphs, run as a process of its own.

    PYTHONPATH=src python tests/graph_memory.py

It evaluates the Green function once on each of sixty distinct seeded 8x8
grids, prints how far peak RSS (as ``divisor_memory.peak_mib`` reads it)
grew between the first graph and the last, and exits 1 if that is 48 MiB or
more.  The ``network`` cache keeps the analyses of the four graphs last
used, so the growth stays near that of a few graphs (about 12 MiB); one
analysis per graph kept costs about 4 MiB each here, 243 MiB in all.  It
imports neither pytest nor hypothesis, so what grows is the package alone.
"""

import random
import sys
from fractions import Fraction

import metgraph as mg
from divisor_memory import peak_mib, seeded_grid

SIDE = 8
GRAPHS = 60
BOUND_MIB = 48


def main() -> int:
    first = None
    for seed in range(GRAPHS):
        rng = random.Random(seed)
        g = seeded_grid(SIDE, rng)
        coeffs = [0] * g.n_vertices
        for v, a in zip(rng.sample(range(g.n_vertices), 3), (1, 2, 3)):
            coeffs[v] = a
        x, y = (0, Fraction(1, 3)), (g.n_edges - 1, Fraction(1, 2))
        mg.evaluate_green(g, mg.Divisor(coeffs), x, y)
        if first is None:
            first = peak_mib()
    growth = peak_mib() - first
    print(f"peak RSS grew {growth:.1f} MiB over {GRAPHS} graphs (bound {BOUND_MIB} MiB)")
    return 0 if growth < BOUND_MIB else 1


if __name__ == "__main__":
    sys.exit(main())

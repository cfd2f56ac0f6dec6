"""Peak RSS over sixty divisors on one graph, run as a process of its own.

    PYTHONPATH=src python tests/divisor_memory.py

It evaluates the Green function once under each of sixty seeded divisors on
a seeded 8x8 grid, prints how far peak RSS (``VmHWM``, or ``ru_maxrss``
where there is no ``/proc``) grew between the first divisor and the last,
and exits 1 if that is 16 MiB or more.  A network holds only the analysis
of the divisor last asked for, so the growth stays near zero; one analysis
per divisor kept costs about 3.5 MiB each here.  It imports neither pytest
nor hypothesis, so what grows is the package alone.
"""

import random
import resource
import sys
from fractions import Fraction

import metgraph as mg

SIDE = 8
DIVISORS = 60
BOUND_MIB = 16


def seeded_grid(k: int, rng: random.Random) -> mg.MetrizedGraph:
    lengths = [Fraction(s) for s in ("1", "2", "3", "1/2", "3/2", "2/3")]
    edges = []
    for v in range(k * k):
        if (v + 1) % k:
            edges.append(mg.Edge(v, v + 1, rng.choice(lengths)))
        if v + k < k * k:
            edges.append(mg.Edge(v, v + k, rng.choice(lengths)))
    return mg.MetrizedGraph([f"v{v}" for v in range(k * k)], edges)


def peak_mib() -> float:
    """This process's peak RSS in MiB.  On Linux ``ru_maxrss`` starts from
    the peak of the process that started this one, so under a test run
    larger than this child it would show no growth; ``VmHWM`` counts this
    program's own pages alone."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    # ru_maxrss is in KiB on Linux and in bytes on macOS
    scale = 1 << 20 if sys.platform == "darwin" else 1 << 10
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / scale


def main() -> int:
    rng = random.Random(0)
    g = seeded_grid(SIDE, rng)
    x, y = (0, Fraction(1, 3)), (g.n_edges - 1, Fraction(1, 2))
    first = None
    for _ in range(DIVISORS):
        coeffs = [0] * g.n_vertices
        for v, a in zip(rng.sample(range(g.n_vertices), 3), (1, 2, 3)):
            coeffs[v] = a
        mg.evaluate_green(g, mg.Divisor(coeffs), x, y)
        if first is None:
            first = peak_mib()
    growth = peak_mib() - first
    print(f"peak RSS grew {growth:.1f} MiB over {DIVISORS} divisors (bound {BOUND_MIB} MiB)")
    return 0 if growth < BOUND_MIB else 1


if __name__ == "__main__":
    sys.exit(main())

"""Core-speed meter: express measured times at a reference core's speed.

On a shared host the core this process runs on slows down by 1.5x to 2x
for stretches of milliseconds to minutes, in CPU time as well as wall time,
because of load outside the program.  Operations of a second or more
always span both states, so neither waiting for a quiet core nor taking
the best replay removes that from their times.

While the meter runs, a timer interrupts the benchmark every ``PERIOD_S``
and runs a 2 ms probe kernel of rational arithmetic, the same kind of work
metgraph does, timing it in CPU time of this thread.  Each probe so samples
the speed of the core at that moment, also in the middle of a long
operation; a CLI child pinned to the same core just waits while it runs.
For an operation:

- its *work time* is its measured time less the CPU time of the probes
  that ran inside it;
- its *slowdown* is the mean probe time inside it and within
  ``PAD_NS`` on either side, divided by ``REFERENCE_PROBE_NS``;
- its *calm time* is work time divided by slowdown.

``REFERENCE_PROBE_NS`` is the probe's fastest time on the host the bounds
in BENCHMARK.json were set on (an Intel Xeon at 2.0 GHz running CPython
3.11), so calm times are in milliseconds of that host's core when quiet.
The run's own fastest probe is not used instead: under sustained load a
run may never see a quiet core.  A change to metgraph moves calm times as
it moves measured ones, since the probe kernel is fixed benchmark code.
"""

from __future__ import annotations

import signal
from array import array
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter_ns, thread_time_ns

PERIOD_S = 0.02
PAD_NS = 100_000_000
REFERENCE_PROBE_NS = 2_100_000


def _kernel() -> Fraction:
    acc = Fraction(0)
    for i in range(1, 400):
        acc += Fraction(1, i) * Fraction(i + 1, 2 * i + 1)
    return acc


class Meter:
    def __init__(self) -> None:
        self.at = array("q")
        self.ns = array("q")
        self.probing = False
        self.probe()  # so that no window is ever empty

    def probe(self, *_) -> None:
        # A tick that arrives while a probe runs (a probe sharing the core
        # with a CLI child can take longer than PERIOD_S) is dropped, so
        # no probe's time holds another's.
        if self.probing:
            return
        self.probing = True
        at = perf_counter_ns()
        cpu = thread_time_ns()
        _kernel()
        self.ns.append(thread_time_ns() - cpu)
        self.at.append(at)
        self.probing = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def slowdown(self, start: int, ns: int) -> float:
        lo = bisect_left(self.at, start - PAD_NS)
        hi = bisect_right(self.at, start + ns + PAD_NS)
        if lo == hi:  # no probe close by: take the nearest on either side
            lo, hi = max(0, lo - 1), min(len(self.ns), hi + 1)
        window = self.ns[lo:hi]
        return sum(window) / len(window) / REFERENCE_PROBE_NS

    def calm(self, start: int, ns: int) -> float:
        """Calm time in ns of an operation that began at ``start`` and took
        ``ns`` of wall time, probes included."""
        inside = self.ns[bisect_left(self.at, start) : bisect_left(self.at, start + ns)]
        return (ns - sum(inside)) / self.slowdown(start, ns)

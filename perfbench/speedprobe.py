"""How fast this CPU runs Python right now, sampled while the items run.

On a shared host, other tenants' load slows this process's CPU time too, by
up to 2x for seconds at a time: one `vtl verify` item took 4.6 s to 9.1 s of
CPU time within two minutes, with identical output.  The slowdown hits all
pure-Python work alike, so a fixed piece of Python timed right beside the
program measures it.  Divided by that, the same item stayed within a few
percent.

While a `SpeedProbe` is entered, a SIGPROF timer interrupts the program every
`INTERVAL_S` of CPU time and the handler times `probe_work`.  `normalise`
turns an interval of the program into CPU seconds at the reference speed (the
speed at which `probe_work` takes `REFERENCE_S`), leaving out the probe's own
time.  All stamps are `clock()`, the CPU time of the calling thread:
`time.process_time` only advances at the kernel's tick while a CPU timer is
armed.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from fractions import Fraction

INTERVAL_S = 0.05
# Probe samples this far (CPU seconds) before and after an interval also
# count for it, so an item shorter than INTERVAL_S still has some.
WINDOW_S = 0.25
# probe_work's CPU time on a quiet 2-vCPU host with Python 3.11.
REFERENCE_S = 0.00075

clock = time.thread_time
_ZERO = Fraction(0)


def probe_work() -> dict:
    """A fixed piece of pure Python: Fraction sums in a dict keyed by tuples.

    It keeps few objects alive at once, so it never needs fresh memory
    from the allocator, which the program would fill and which would raise
    its peak memory.
    """
    acc: dict = {}
    for i in range(300):
        key = (i % 3, i % 5)
        acc[key] = acc.get(key, _ZERO) + Fraction(i % 7 + 1, i % 11 + 1)
    return acc


def slowdown_now() -> float:
    """The host's current slowdown against the reference speed: median of 5 probes."""
    costs = []
    for _ in range(5):
        start = clock()
        probe_work()
        costs.append(clock() - start)
    return sorted(costs)[2] / REFERENCE_S


class SpeedProbe:
    def __init__(self):
        self.stamps: list[float] = []
        self.costs: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        # The probe's objects are all freed by the time it returns; with the
        # collector off meanwhile, the program's collections (and so its
        # peak memory) happen where they would without the probe.
        enabled = gc.isenabled()
        gc.disable()
        start = clock()
        probe_work()
        self.costs.append(clock() - start)
        self.stamps.append(start)
        if enabled:
            gc.enable()

    def __enter__(self) -> SpeedProbe:
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def normalise(self, start: float, end: float) -> float:
        """CPU seconds from `start` to `end` at the reference speed, probe time left out."""
        lo = bisect.bisect_left(self.stamps, start - WINDOW_S)
        hi = bisect.bisect_right(self.stamps, end + WINDOW_S)
        if lo == hi:
            raise RuntimeError("no speed probe sample near the interval; was the probe entered?")
        first = bisect.bisect_left(self.stamps, start)
        last = bisect.bisect_left(self.stamps, end)
        work = end - start - sum(self.costs[first:last])
        speed = sum(self.costs[lo:hi]) / (hi - lo) / REFERENCE_S
        return work / speed

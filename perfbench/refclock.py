"""A clock that runs at the speed of a fixed reference CPU.

On a shared virtual CPU the same Python code can run twice as fast in one
second as in the next, for seconds or minutes at a time, because of what
other tenants run on the same core.  Neither wall time nor process CPU
time hides this.  So the benchmark times the program on this clock
instead.

While the clock runs, a timer signal interrupts the measured code every
INTERVAL_S seconds of wall time and times probe(), a fixed piece of
pure-Python work, in the same thread.  The wall time between two probes
is credited at the speed the recent probes saw, REF_PROBE_S over the
median of the last RATE_PROBES probe times, and the probes' own time is
not credited.  A reading is thus in seconds of a CPU on which one probe
takes REF_PROBE_S; on this code's reference host, a 2-vCPU virtual
machine, that is about the wall time of its faster regime.  A change to
the program moves the reading in full, since the probe runs none of the
program's code.

Not all code slows down alike: a tight arithmetic loop slows down more
than code that allocates, formats numbers or waits on memory.  The probe
mixes the three in about equal time, which on the reference host tracked
the slow-down of every workload's run to within 3%.

Python runs a signal handler between bytecodes of the main thread, so a
probe that falls inside a long C call (a numpy kernel, a file read, a
garbage collection) runs when that call returns.
"""

from __future__ import annotations

import gc
import math
import signal
import statistics
from time import perf_counter

# Wall time between probes.  A probe takes 0.3-0.6 ms, about 2-3% of it.
INTERVAL_S = 0.02
# One probe's time on the reference CPU.
REF_PROBE_S = 3.2e-4
# The rate is taken from the median of this many recent probes.
RATE_PROBES = 5

# Scratch the probe reads and writes; a dict of ints to floats.
_BUCKETS = dict.fromkeys(range(64), 0.0)


def _step(x: int) -> float:
    return x * 0.5


def probe() -> float:
    """Fixed interpreter work: arithmetic, number formatting, allocation.

    The containers it allocates are freed before it returns, and the
    garbage collector is off while it runs, so it never starts a
    collection, whose cost depends on the program's heap.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        buckets = _BUCKETS
        acc = 0.0
        for i in range(400):
            x = (i * 2654435761) & 0xFFFF
            buckets[x & 63] += _step(x)
            acc += math.sqrt(x + 1.0)
        for i in range(250):
            acc += float(f"{i * 0.3719:.9g}")
        for i in range(650):
            cell = {"key": (i, i + 1, [i])}
            acc += len(cell)
        return acc
    finally:
        if enabled:
            gc.enable()


class RefClock:
    """Context manager; while entered, now() reads reference seconds."""

    def __init__(self) -> None:
        # (reference seconds credited, wall time the last probe ended,
        # reference seconds per wall second since then), replaced as a whole
        # so that now() never reads a half-updated state.
        self._state = (0.0, 0.0, 1.0)
        self.probe_s: list[float] = []
        self._saved_handler = None

    def _probe(self, *_) -> None:
        start = perf_counter()
        probe()
        end = perf_counter()
        credited, last_end, rate = self._state
        if self.probe_s:
            credited += (start - last_end) * rate
        self.probe_s.append(end - start)
        recent = statistics.median(self.probe_s[-RATE_PROBES:])
        self._state = (credited, end, REF_PROBE_S / recent)

    def __enter__(self) -> "RefClock":
        probe()  # the first call pays for compiling and caching
        self._probe()
        self._saved_handler = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._saved_handler)

    def now(self) -> float:
        credited, last_end, rate = self._state
        return credited + (perf_counter() - last_end) * rate

    def median_probe_s(self) -> float:
        return statistics.median(self.probe_s)

"""Machine-speed probe that corrects wall times for a host whose speed drifts.

On a shared virtual machine the same work can take 20% to 60% longer for
seconds or minutes at a time, and both virtual CPUs slow down together.
Repeating the work within a run does not remove that, because a slow spell can
last as long as the run.  So the probe measures the machine's speed while the
workload runs.  Every ``INTERVAL`` seconds of wall time, a SIGALRM handler in
the benchmark's own thread times a fixed pure-Python loop.  Python runs the
handler between bytecodes, so samples keep coming inside long sievemal calls.
The loop costs about 1% of the run.

A sample taking ``d`` seconds means the loop ran at ``NOMINAL / d`` of the
reference speed around that moment.  sievemal's work slows down more than the
loop: over slow and fast spells on the reference VM its time went with about
the 1.5th power of the loop's (``EXPONENT``; 1.0 left 2 to 3 times the spread
of passes, 2.0 over-corrected).  The corrected time of an interval is its wall
time multiplied by the mean of ``NOMINAL / d`` over the samples inside it,
raised to ``EXPONENT``: an estimate of how long the interval takes at the
reference speed.  ``NOMINAL`` is fixed, so corrected times compare between
runs and commits on one machine, but not between machines.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL = 0.02             # seconds of wall time between samples
LOOPS = 2000                # iterations of the timed loop
NOMINAL = 1.25e-4           # seconds the loop takes at full speed on the 2-core reference VM
EXPONENT = 1.5              # workload slowdown = loop slowdown ** EXPONENT
POINT_WINDOW = 0.1          # seconds either side of a point correction

_clock = time.perf_counter


class SpeedProbe:
    def __init__(self):
        self.times = []
        self.durations = []
        self._previous = None

    def _sample(self, signum, frame):
        start = _clock()
        x = 0
        for i in range(LOOPS):
            x += i * i
        self.times.append(start)
        self.durations.append(_clock() - start)

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def _factor(self, start, end) -> float:
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_left(self.times, end)
        if hi <= lo:
            return 1.0
        return statistics.fmean(NOMINAL / d for d in self.durations[lo:hi]) ** EXPONENT

    def corrected(self, start: float, end: float) -> float:
        """Wall time of [start, end) at the reference speed."""
        return (end - start) * self._factor(start, end)

    def corrected_point(self, at: float, seconds: float) -> float:
        """A short duration ending at `at`, scaled by the speed around it."""
        return seconds * self._factor(at - POINT_WINDOW, at + POINT_WINDOW)

    def summary(self) -> dict:
        return {"samples": len(self.durations), "nominal_ms": NOMINAL * 1e3,
                "median_ms": statistics.median(self.durations) * 1e3 if self.durations else 0.0}

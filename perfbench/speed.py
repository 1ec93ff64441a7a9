"""Rescaling of measured times by the machine's current speed.

On a shared machine the speed of one core drifts by tens of percent over
seconds (other tenants, frequency changes) while CPU time stays equal to
wall time, so raw timings of identical runs spread more than any useful
regression bound.  The tracker runs a fixed piece of pure-Python reference
work between queries, at most every ``INTERVAL`` seconds, and rescales each
query's time by REFERENCE_S / (median duration of the reference runs around
it).  During untraced passes a timer signal also runs it inside long
queries, and that time is taken out of the query's.  The result is in
reference seconds: seconds on a machine that runs the reference work in
exactly REFERENCE_S.  The raw times are kept alongside.
"""

from __future__ import annotations

import itertools
import signal
import statistics
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from time import perf_counter

REFERENCE_S = 0.003
INTERVAL = 0.5
WINDOW = 1.0

_ROWS = tuple(tuple(min(abs(i - j), 3) for j in range(5)) for i in range(5))


def reference_work():
    """Integer triangle-check loops and lex-min over list-built permuted copies.

    The same two kinds of interpreter work as the census order check and the
    n! conjugacy scans, on a fixed 5 x 5 matrix.
    """
    rows = _ROWS
    n = len(rows)
    best = None
    for _ in range(3):
        violations = 0
        for _ in range(60):
            for i in range(n):
                ri = rows[i]
                for j in range(n):
                    rj = rows[j]
                    mij = ri[j]
                    for k in range(n):
                        if ri[k] > mij + rj[k]:
                            violations += 1
        for sigma in itertools.permutations(range(n)):
            base = rows[sigma.index(0)]
            out = [[0] * n for _ in range(n)]
            for i in range(n):
                target = out[sigma[i]]
                bi = base[i]
                ri = rows[i]
                for j in range(n):
                    target[sigma[j]] = ri[j] + bi - base[j]
            candidate = tuple(tuple(row) for row in out)
            if best is None or candidate < best:
                best = candidate
    return violations, best


class SpeedTracker:
    def __init__(self):
        self.starts = []
        self.durations = []
        self.busy = 0.0  # seconds spent in reference work, to take out of query times
        self._calibrating = False

    def calibrate(self):
        """Median of three timed runs of the reference work, which filters out interrupts."""
        self._calibrating = True  # keeps the timer signal from nesting a second calibration
        try:
            start = perf_counter()
            runs = []
            for _ in range(3):
                begin = perf_counter()
                reference_work()
                runs.append(perf_counter() - begin)
            self.starts.append(start)
            self.durations.append(sorted(runs)[1])
            self.busy += perf_counter() - start
        finally:
            self._calibrating = False

    def maybe_calibrate(self):
        if self._calibrating:
            return
        if not self.starts or perf_counter() - self.starts[-1] >= INTERVAL:
            self.calibrate()

    @contextmanager
    def sampling(self):
        """Also calibrate inside long queries, from a SIGALRM handler.

        Between-query calibration alone leaves a query of several seconds
        with no sample of the speed it actually ran at.
        """
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.maybe_calibrate())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL / 5, INTERVAL / 5)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, start, end):
        """Factor turning raw seconds spent in [start, end] into reference seconds.

        Uses the median reference duration over the calibrations within
        WINDOW seconds of the interval, which smooths their own noise; the
        nearest one on each side is always included.
        """
        first = max(min(bisect_left(self.starts, start - WINDOW), bisect_right(self.starts, start) - 1), 0)
        last = min(max(bisect_right(self.starts, end + WINDOW), bisect_left(self.starts, end) + 1),
                   len(self.starts))
        return REFERENCE_S / statistics.median(self.durations[first:last])

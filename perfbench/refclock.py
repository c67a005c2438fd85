"""Reference clock: samples how fast the machine runs while jobs are timed.

On a shared host the same job can take 1.5x as long for tens of seconds
while other tenants load the machine; process CPU time stretches with it,
so neither wall nor CPU time of a job repeats from one run to the next.
``RefClock`` runs a fixed reference kernel (small numpy and LAPACK calls
driven from a Python loop, the same mix as affinekit's per-step work) every
``PERIOD_S`` from a SIGALRM handler, between the bytecodes of whatever job
is running, and records how long each call took.  A job's time divided by
the median reference time around it is its time in *refs*: the slowdown
the host imposes stretches both, so the ratio stays put while seconds do
not.

``paused_s`` gives the handler time inside an interval, so that the caller
can take it out of the job it interrupted.  Only the main thread can use
the clock.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.25     # one reference sample this often, about 1% of the time
WINDOW_S = 1.0      # a job is compared with the samples this close to it

_rng = np.random.default_rng(12345)
_SMALL = [np.eye(2) + 0.1 * _rng.standard_normal((2, 2)) for _ in range(12)]
_MEDIUM = [np.eye(3) + 0.1 * _rng.standard_normal((3, 3)) for _ in range(12)]


def reference_kernel() -> float:
    """Fixed work of about 2.5 ms on a 2 GHz core; never depends on affinekit."""
    acc = 0.0
    for _ in range(8):
        for a, b in zip(_SMALL, _MEDIUM):
            acc += float(np.linalg.det(a)) + float(np.trace(b @ b.T))
            acc += float(np.linalg.svd(b, compute_uv=False)[0])
            acc += float(np.linalg.solve(b, b[:, 0]).sum())
            acc += sum(x * x for x in a.ravel().tolist())
    return acc


class RefClock:
    def __init__(self):
        self.times: list = []       # start of each sample, perf_counter seconds
        self.durations: list = []   # seconds each reference call took
        self._previous = None

    def _sample(self, *_):
        start = time.perf_counter()
        reference_kernel()
        end = time.perf_counter()
        self.times.append(start)
        self.durations.append(end - start)

    def __enter__(self) -> "RefClock":
        for _ in range(4):          # samples before the first job starts
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(4):          # samples after the last job ended
            self._sample()

    def paused_s(self, start: float, end: float) -> float:
        """Handler time inside [start, end]: a sample that starts there ends there too."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_left(self.times, end)
        return sum(self.durations[lo:hi])

    def ref_s(self, start: float, end: float) -> float:
        """Median reference time of the samples within WINDOW_S of [start, end]."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        if lo == hi:    # a native call held the handler off: take the nearest sample
            lo, hi = max(0, lo - 1), min(len(self.times), lo + 1)
        return statistics.median(self.durations[lo:hi])

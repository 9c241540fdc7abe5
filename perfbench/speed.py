"""Benchmark clock: thread CPU time, scaled to a reference host speed.

On a shared virtual machine the speed of the one CPU a worker runs on
changes by up to half for seconds to tens of seconds at a time, as other
tenants load the physical core.  A fixed Python loop shows it: its time
jumps between two levels, with no steal time recorded.  No run length
averages that out, so every time the benchmark reports is scaled to a
fixed reference speed.

Times are read from ``clock``, the CPU time of the worker's one thread,
so that time the worker spends preempted by other processes does not
count.  (The process CPU clock is not used: read inside the signal
handler below, it advanced by a third of the thread clock's step.)

A profiling timer interrupts the worker every ``INTERVAL_S`` of CPU time
and runs ``probe``, a fixed piece of interpreter work that calls nothing
in rlcc, and records when it ran and how long it took.  An interval's
scaled time is its own time less the probes run inside it, divided by
the mean slowdown (probe time over ``NOMINAL_S``) of the probes run in
and around it.  Raw times are kept beside the scaled ones.
"""

from __future__ import annotations

import signal
from array import array
from time import thread_time as clock

import numpy as np

INTERVAL_S = 0.02
# about the median probe time on the host the benchmark was written on
# (Xeon at 2.1 GHz): the reference speed of every scaled time
NOMINAL_S = 1.0e-4
# probes this far before and after an interval also count towards its
# slowdown, so that a short interval still has some
WINDOW_S = 0.25
# a rolling median over this many probes first removes single probes
# slowed by an interrupt
SMOOTH = 5


class _Cell:
    def __init__(self):
        self.a = 1
        self.b = 2

    @property
    def c(self):
        return self.a + self.b


_CELL = _Cell()


def probe() -> int:
    """Fixed interpreter work: integer arithmetic, attribute and property
    reads, dict stores.  Its time tracks that of the workloads' own
    Python-level code across host speed changes."""
    cell, table, s = _CELL, {}, 0
    for i in range(300):
        s = (s * 31 + i + cell.c) % 4913
        table[i & 15] = s
    return s


class SpeedSampler:
    def __init__(self):
        # (start, duration) pairs; one extend() per probe, so that a probe
        # nested in another by a second signal cannot split a pair
        self._samples = array("d")

    def _handler(self, signum, frame):
        t0 = clock()
        probe()
        self._samples.extend((t0, clock() - t0))

    def start(self):
        signal.signal(signal.SIGPROF, self._handler)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        pairs = np.frombuffer(self._samples, dtype=np.float64).reshape(-1, 2)
        pairs = pairs[np.argsort(pairs[:, 0], kind="stable")]
        at, took = pairs[:, 0], pairs[:, 1]
        slow = took / NOMINAL_S
        if len(slow) >= SMOOTH:
            windows = np.lib.stride_tricks.sliding_window_view(slow, SMOOTH)
            mid = np.median(windows, axis=1)
            pad = SMOOTH // 2
            slow = np.concatenate([mid[:1].repeat(pad), mid, mid[-1:].repeat(pad)])
        self._at, self._took = at, took
        self._slow_sum = np.concatenate([[0.0], np.cumsum(slow)])
        self._took_sum = np.concatenate([[0.0], np.cumsum(took)])

    def scale(self, start, end):
        """(own seconds, seconds at reference speed) of intervals.

        ``start`` and ``end`` are sequences of ``clock`` readings; call
        after ``stop``.
        """
        start = np.asarray(start, dtype=np.float64)
        end = np.asarray(end, dtype=np.float64)
        at = self._at
        lo = np.searchsorted(at, start)
        hi = np.searchsorted(at, end)
        own = (end - start) - (self._took_sum[hi] - self._took_sum[lo])
        wlo = np.searchsorted(at, start - WINDOW_S)
        whi = np.searchsorted(at, end + WINDOW_S)
        n = whi - wlo
        slow = np.where(
            n > 0, (self._slow_sum[whi] - self._slow_sum[wlo]) / np.maximum(n, 1), 1.0
        )
        return own, own / slow

    def summary(self) -> dict:
        took = self._took
        if not len(took):
            return {"probes": 0}
        q = np.quantile(took, [0.1, 0.5, 0.9])
        return {
            "probes": int(len(took)),
            "probe_s": float(took.sum()),
            "slowdown_p10_p50_p90": [float(x / NOMINAL_S) for x in q],
        }

"""Host-speed probe: rescales measured times to a fixed reference speed.

The benchmark runs on shared hosts whose cores slow down by up to about
1.7x for stretches of a second to more than a minute (see README.md,
Steadiness).  A fixed pure-Python loop, which calls nothing of the
package, is timed every PERIOD_S from a thread of the worker.  It fills
and reads a small int-keyed dict, the kind of work the solvers do most;
that tracks their slow-downs more closely than plain arithmetic does.  A
task's time at reference speed is its measured time times REFERENCE_S
over the loop's time while the task ran.  A change to the package moves
the task's time but not the loop's, so the rescaled time still shows it.

The two vCPUs of such a host slow down independently, so pin_to_one_cpu()
keeps the worker's threads, and so the loop and the tasks, on one core.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from bisect import bisect_right

LOOPS = 300
REPEATS = 3  # a sample is the fastest of REPEATS back-to-back loops
PERIOD_S = 0.02
MIN_SAMPLES = 5
# The loop's time on a quiet core of the 2-core VM the benchmark was written
# on (Python 3.11), so that rescaled times there read close to quiet wall time.
REFERENCE_S = 5.5e-5


def pin_to_one_cpu() -> None:
    """Pin this process to the lowest CPU it may run on, where the OS
    supports affinity."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def probe_once() -> float:
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        table: dict[int, int] = {}
        for i in range(LOOPS):
            table[i * 7919 & 4095] = i
        hits = 0
        for i in range(LOOPS):
            hits += table.get(i * 31 & 4095, 0)
        best = min(best, time.perf_counter() - t0)
    return best


def at_reference(seconds: float, probe_s: float) -> float:
    return seconds * REFERENCE_S / probe_s


class SpeedProbe:
    """Times the loop every PERIOD_S in a thread between start() and stop()."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (end time, loop seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self) -> None:
        secs = probe_once()
        self.samples.append((time.perf_counter(), secs))

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            self._sample()

    def start(self) -> None:
        for _ in range(MIN_SAMPLES):
            self._sample()
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def during(self, start: float, end: float) -> float:
        """The loop's time over [start, end], as the harmonic mean of the
        samples, so that a span that is half slow and half quiet gets the
        mean speed.  A span too short to hold MIN_SAMPLES samples gets the
        last MIN_SAMPLES taken before `end`."""
        hi = bisect_right(self.samples, end, key=lambda s: s[0])
        lo = bisect_right(self.samples, start, key=lambda s: s[0])
        lo = min(lo, max(0, hi - MIN_SAMPLES))
        return statistics.harmonic_mean(secs for _t, secs in self.samples[lo:hi])

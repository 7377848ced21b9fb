"""The machine's speed over a run, and timings scaled by it.

The benchmark was built on a shared two-core VM whose speed drops by 30-80%
for seconds to minutes at a time, with wall time equal to CPU time: the
slowdown is charged to the process itself, so no clock can leave it out.
Between its timed operations a run therefore times a fixed pure-Python
loop, the probe, about once per PROBE_GAP seconds.  A timing is scaled by
PROBE_REF_S over the mean probe time in the SPEED_WINDOW seconds around it
(or, for a longer timing, as many seconds as it lasted):
the result is the time the operation would have taken on a machine that
runs the probe in PROBE_REF_S, as that VM does when it is quiet.  The probe
touches no rockland code and allocates no tracked objects, so a change to
the program moves the scaled times and leaves the probe as it was.
"""

from __future__ import annotations

import bisect
import itertools
import statistics
from time import perf_counter
from typing import List, Tuple

PROBE_LOOP = 20000      # iterations of the probe loop, about 1.2 ms
PROBE_REF_S = 1.2e-3    # the probe's time on the reference machine
PROBE_GAP = 0.05        # seconds of work between two probes
SPEED_WINDOW = 1.0      # probes this close to a timing scale it, or
                        # probes as close as the timing is long
MOST_DUE = 20           # probes run at once after a long operation
BURST = 40              # probes around a set-up step


def probe() -> float:
    """Seconds for the fixed pure-Python loop."""
    t0 = perf_counter()
    total = 0
    for i in range(PROBE_LOOP):
        total += i * i % 7
    return perf_counter() - t0


class SpeedLog:
    """Probe times over a run, and timings scaled by them.

    A timing is a (start, seconds) pair taken with perf_counter.
    """

    def __init__(self) -> None:
        self.times: List[float] = []      # each probe's midpoint
        self.probes: List[float] = []     # each probe's seconds
        self._last = perf_counter()
        self._sums: List[float] = []

    def _probe(self) -> None:
        t0 = perf_counter()
        dt = probe()
        self.times.append(t0 + dt / 2)
        self.probes.append(dt)

    def tick(self) -> None:
        """Run the probes due: one per PROBE_GAP since the last ones, so
        the probes sample the run evenly whatever its operations cost."""
        due = int((perf_counter() - self._last) / PROBE_GAP)
        if due:
            for _ in range(min(due, MOST_DUE)):
                self._probe()
            self._last = perf_counter()

    def burst(self, count: int = BURST) -> None:
        for _ in range(count):
            self._probe()
        self._last = perf_counter()

    def factor(self, start: float, seconds: float) -> float:
        """PROBE_REF_S over the mean probe near the interval."""
        if not self.probes:
            raise ValueError("no probe was run")
        if len(self._sums) != len(self.probes) + 1:
            self._sums = [0.0] + list(itertools.accumulate(self.probes))
        # a long timing has few probes next to it, so it looks further
        window = max(SPEED_WINDOW, seconds)
        lo = bisect.bisect_left(self.times, start - window)
        hi = bisect.bisect_right(self.times, start + seconds + window)
        if hi == lo:    # no probe near: the run's mean speed
            return self.speed()
        return PROBE_REF_S * (hi - lo) / (self._sums[hi] - self._sums[lo])

    def scaled(self, timing: Tuple[float, float]) -> float:
        start, seconds = timing
        return seconds * self.factor(start, seconds)

    def speed(self) -> float:
        """The run's mean speed relative to the reference machine."""
        return PROBE_REF_S / statistics.fmean(self.probes)

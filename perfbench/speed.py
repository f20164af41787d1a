"""Machine-speed probe: timing corrected for a host whose speed drifts.

On a shared host the speed of a vCPU drifts with its neighbours' load.  On
the 2-vCPU x86_64 VM this benchmark was built on, the same pure-Python loop
ran at 0.76x to 1.33x of its median speed in different 5-second windows of
one 100-second span, and 20-second benchmark runs differed by up to 30% in
raw throughput for that reason alone.

So run.py times a fixed reference loop every PROBE_INTERVAL_S between
units (outside the unit timings) and reports every timing in *reference
seconds*: the measured time scaled by REFERENCE_LOOP_S over the loop's
duration near that moment.  A unit that takes 2 ms while the loop takes
twice its reference duration is reported as 1 ms.  The loop allocates small
objects and does float arithmetic, like the package's interval code, so
both slow down together.  An import timed in a fresh interpreter is scaled
the same way, by timings of the loop taken in that interpreter just before
and after it.  Raw timings are reported next to the corrected ones in the
run record.
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import List

# median duration of reference_loop() on the build machine (2-vCPU x86_64
# VM, Python 3.11.7) when no neighbour load was visible; it fixes the scale
# of reference seconds so that they read close to wall seconds there
REFERENCE_LOOP_S = 0.36e-3
PROBE_INTERVAL_S = 0.05
# probes on each side of a moment whose median gives the speed there
PROBE_WINDOW = 4


class _Pair:
    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float) -> None:
        self.lo = lo
        self.hi = hi


def reference_loop() -> _Pair:
    acc = _Pair(0.0, 1.0)
    for i in range(400):
        b = _Pair(i * 0.5, i * 0.5 + 1.0)
        p = (acc.lo * b.lo, acc.lo * b.hi, acc.hi * b.lo, acc.hi * b.hi)
        acc = _Pair(min(p) * 1e-3, max(p) * 1e-3)
    return acc


def loop_seconds(repeats: int = 100) -> float:
    """Mean duration of reference_loop() over ``repeats`` back-to-back runs."""
    t0 = time.perf_counter()
    for _ in range(repeats):
        reference_loop()
    return (time.perf_counter() - t0) / repeats


class SpeedProbe:
    def __init__(self) -> None:
        self.times: List[float] = []
        self.durations: List[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        reference_loop()
        self.times.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def maybe_sample(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= PROBE_INTERVAL_S:
            self.sample()

    def factor(self, t: float) -> float:
        """Reference seconds per wall second at perf_counter time ``t``."""
        i = bisect.bisect_left(self.times, t)
        near = self.durations[max(0, i - PROBE_WINDOW):i + PROBE_WINDOW]
        return REFERENCE_LOOP_S / statistics.median(near)

    def speed(self) -> float:
        """Median machine speed over all probes, as a multiple of the reference."""
        return REFERENCE_LOOP_S / statistics.median(self.durations)

"""Timing in reference seconds.

The benchmark host is shared: for seconds to minutes at a time, a neighbour
slows this process's CPU down by about 1.8x, with no steal time, page faults
or system time to show for it (see README.md).  The
fastest repeat of an operation cannot undo that when a whole run falls in
a slow phase, so every timing is scaled by the speed of the CPU measured
around it: a fixed pure-Python reference loop, independent of bihomalg, is
timed at least every INTERVAL_S, and an operation's wall time t becomes

    t * REFERENCE_S / (mean time of the reference loop just before and just after it)

that is, the time the operation would have taken on a core that runs the
reference loop in REFERENCE_S (about this host's uncontended speed).  A
change to bihomalg does not touch the reference loop, so it moves these
times exactly as it moves wall time.
"""

from __future__ import annotations

import bisect
import time
from fractions import Fraction

REFERENCE_S = 0.002
INTERVAL_S = 0.02


def reference_loop():
    """Fixed work in the library's style: Fraction arithmetic, tuple keys and
    dict updates."""
    acc = Fraction(0)
    table = {}
    for i in range(1, 370):
        acc = acc * Fraction(1, 2) + Fraction(i % 13 + 1, i % 7 + 2)
        key = (i % 17, i % 5)
        table[key] = table.get(key, 0) + i
    return acc, table


class RefClock:
    def __init__(self):
        self.starts = []   # perf_counter at the start of each reference-loop run
        self.seconds = []  # its duration

    def calibrate(self):
        t0 = time.perf_counter()
        reference_loop()
        self.starts.append(t0)
        self.seconds.append(time.perf_counter() - t0)

    def tick(self):
        """Calibrate if the last calibration is older than INTERVAL_S."""
        if not self.starts or time.perf_counter() - self.starts[-1] >= INTERVAL_S:
            self.calibrate()

    def scale(self, start, seconds):
        """Reference seconds for wall `seconds` that began at `start`, from
        the calibrations just before and just after that interval."""
        i = bisect.bisect_right(self.starts, start) - 1
        j = bisect.bisect_left(self.starts, start + seconds)
        around = [self.seconds[k] for k in (i, j) if 0 <= k < len(self.starts)]
        return seconds * REFERENCE_S * len(around) / sum(around)

    def time(self, fn):
        """Run fn between two calibrations; return its reference seconds."""
        self.calibrate()
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        self.calibrate()
        return self.scale(t0, dt)

    def speed(self):
        """Median measured reference-loop time over REFERENCE_S: 1 on an
        uncontended core, about 1.8 in a slow phase."""
        s = sorted(self.seconds)
        return s[len(s) // 2] / REFERENCE_S

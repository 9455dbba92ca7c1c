"""Scaling of the benchmark's timings to a reference machine speed.

The shared hosts this benchmark runs on change speed from second to
second: the same fixed work took from 0.22 s to 0.38 s within one minute
on a 2-vCPU Xeon guest, in process CPU time as much as in wall time. So a
timed loop also times, every EVERY_S seconds, a fixed calibration loop of
pure-Python complex arithmetic that does not use wittenzeta (a truncated
Hurwitz sum, the kind of work the library's kernels do). Each item's time
is then scaled by REF_S over the median of the calibration samples taken
nearest to it:

    scaled = measured * REF_S / median(nearest NEAREST samples)

REF_S is the calibration loop's time on that guest when it ran fast, so
scaled times read as milliseconds on a quiet host. The calibration loop
takes about 1.5% of a timed loop. The unscaled figures are printed too.
"""

from __future__ import annotations

import bisect
import cmath
import statistics
import time

REF_S = 0.0025
EVERY_S = 0.2
NEAREST = 8
# exact-cli samples in the parent, once per command (about 0.3 s): a
# sample taken while a child starts or exits is noisier, so more are used
NEAREST_CLI = 16


def _hurwitz(s, a, n=40):
    acc = 0j
    for k in range(n):
        acc += (a + k) ** -s
    x = a + n
    return acc + x ** (1 - s) / (s - 1) + 0.5 * x ** -s \
        + s * x ** (-s - 1) / 12.0


def _loop():
    out = 0j
    for j in range(240):
        k = j % 6
        out += _hurwitz(complex(0.5 + k, 2.0), 0.3 + 0.1 * k)
        out += cmath.log(complex(3.0 + k, 1.0)) * cmath.exp(complex(0, j))
    return out


def sample():
    """Seconds of one calibration loop."""
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0


class Samples:
    """Calibration samples of one timed loop, as (time, seconds)."""

    def __init__(self):
        self.rows = []
        self._next = 0.0

    def due(self):
        """Take a sample if EVERY_S has passed since the last one."""
        now = time.perf_counter()
        if now >= self._next:
            self.rows.append((now, sample()))
            self._next = time.perf_counter() + EVERY_S

    def seconds(self):
        """Time spent in calibration."""
        return sum(s for _, s in self.rows)


def scale(rows, times, nearest=NEAREST):
    """REF_S / (median of the `nearest` samples around t) for each t; rows
    are (time, seconds) in time order."""
    ts = [t for t, _ in rows]
    out = []
    for t in times:
        i = bisect.bisect(ts, t)
        lo = max(0, min(i - nearest // 2, len(rows) - nearest))
        out.append(REF_S / statistics.median(s for _, s in rows[lo:lo + nearest]))
    return out


def setup_scale(n=5):
    """REF_S over the median of n samples, for a one-off timing made just
    before in the same process."""
    sample()  # the first loop pays for cold caches
    return REF_S / statistics.median(sample() for _ in range(n))

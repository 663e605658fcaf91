"""Host-speed calibration.

The shared machines this benchmark runs on change speed by up to ~2x over
minutes, and the change shows in CPU time as well as wall time.  A fixed
reference kernel that does not touch nilcoh (Python integer loop, Fraction
arithmetic, batched numpy determinants and ufuncs: the mix the library
spends its time on) is timed between operations.  Each operation's seconds
are rescaled by NOMINAL_S / (kernel seconds around it), i.e. reported as
seconds on a host where the kernel takes NOMINAL_S.  Changes to nilcoh move
the operations and not the kernel, so they show one for one.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

import numpy as np

NOMINAL_S = 0.025  # kernel seconds on the reference host (2-core Xeon VM)
INTERVAL_S = 0.25  # least time between samples during a timed loop

_MATRICES = np.random.default_rng(0).uniform(-1.0, 1.0, size=(8192, 3, 3))


def kernel() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(200000):
        acc += i * i
    frac = Fraction(0)
    for i in range(1, 1500):
        frac += Fraction(1, i)
    for _ in range(2):
        np.linalg.det(_MATRICES)
        np.sin(_MATRICES).sum()
    return time.perf_counter() - t0


class HostSpeed:
    """Kernel samples over time; turns raw seconds into reference seconds."""

    def __init__(self):
        kernel()  # first call pays one-off costs (LAPACK loading)
        self.times: list[float] = []
        self.durations: list[float] = []

    def sample(self) -> None:
        duration = kernel()
        self.times.append(time.perf_counter())
        self.durations.append(duration)

    def maybe_sample(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= INTERVAL_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """NOMINAL_S over the mean of the last sample before ``start`` and
        the first after ``end``."""
        before = bisect.bisect_right(self.times, start) - 1
        after = bisect.bisect_left(self.times, end)
        picked = [self.durations[i] for i in (before, after) if 0 <= i < len(self.times)]
        return NOMINAL_S / statistics.fmean(picked)

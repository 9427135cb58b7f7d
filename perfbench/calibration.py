"""Rescale wall times by the host's momentary speed.

The reference machine is a shared VM. Other tenants slow whole stretches of
a run by 1.5x to 3.5x, and process CPU time rises with wall time, so the
slowdown is not waiting inside the process and no statistic over passes
removes it.
A fixed calibration computation therefore runs before and after every timed
piece of work. Its mean time over the reference time below is the slowdown
factor of the host around that piece, and the piece's wall time divided by
this factor is its time at reference speed. The calibration code lives here,
not in the package, so a change to the program never changes it.

The correction is not exact: the calibration slows somewhat more under
contention than the workloads and process start-up do, so times at
reference speed still drift down by up to about a fifth on a heavily loaded
host. Without it they drift up by the whole slowdown.
"""

from __future__ import annotations

import time

import numpy as np

#: calibration time on the reference machine when uncontended (the minimum
#: of 150 runs on a 2-vCPU Intel Xeon VM at 2.0 GHz, Python 3.11, numpy 2.4)
REFERENCE_S = 0.0171

_REPS = 300


def calibrate():
    """Seconds for a fixed theta-like series over 16 complex points, repeated.

    It has the program's mix of interpreter work and small numpy calls.
    """
    v = np.linspace(0.05, 0.45, 16) * (1.0 + 0.4j)
    q = 0.2 + 0.3j
    start = time.perf_counter()
    for _ in range(_REPS):
        s = np.zeros_like(v)
        for n in range(16):
            s = s + (-1) ** n * q ** ((n + 0.5) ** 2) * np.sin((2 * n + 1) * v)
        np.abs(s).max()
    return time.perf_counter() - start


class Rescaler:
    """Calibrates between timed pieces of work and rescales their times."""

    def __init__(self):
        self._last = calibrate()
        self.factors = []

    def rescale(self, seconds):
        """Reference-speed seconds of work that took ``seconds`` just now."""
        cal = calibrate()
        factor = 0.5 * (self._last + cal) / REFERENCE_S
        self._last = cal
        self.factors.append(factor)
        return seconds / factor

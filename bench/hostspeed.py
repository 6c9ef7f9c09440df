"""Host-speed calibration: express wall-clock timings at a fixed reference
speed of the machine.

On a shared host the CPU this process gets flips, every fraction of a
second, between a fast and a slow state about 1.6 times slower, and the
share of time spent in each state drifts from minute to minute.  Wall-clock
timings then move by a third between runs of the same code.  The probe
runs a small fixed pure-Python kernel (classic RK4 on a scalar ODE: float
arithmetic, calls into `math`, list appends, the same mix as bsym's
stepper) between operations, outside their timed region.  Each timing is
divided by the kernel's time measured just before and just after it and
multiplied by `REF_KERNEL_S`, the kernel's typical time on the machine the
benchmark was written on.  Measured there, an operation and the kernel
slowed by the same factor between the two states (1.62 and 1.60).

The kernel is part of the benchmark, not of bsym, so a change to bsym
moves the calibrated timings exactly as it moves the wall-clock ones.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left, bisect_right

REF_KERNEL_S = 0.00075  # the kernel's typical time on the reference machine
PROBE_EVERY_S = 0.02  # between probes, so they cost a few per cent of a run


def _rhs(t: float, y: float) -> float:
    return math.sin(t) * y - y * y * y / 3.0 + math.exp(-t)


def kernel() -> float:
    t, y, h = 0.0, 0.5, 0.01
    ys = []
    for _ in range(400):
        k1 = _rhs(t, y)
        k2 = _rhs(t + h / 2, y + h / 2 * k1)
        k3 = _rhs(t + h / 2, y + h / 2 * k2)
        k4 = _rhs(t + h, y + h * k3)
        y += h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
        ys.append(y)
    return ys[-1]


class SpeedProbe:
    """Kernel timings taken between operations, and the calibration of an
    interval [start, end] from the probes on either side of it."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.times: list[float] = []
        kernel()  # first call pays for bytecode specialisation

    def sample(self) -> None:
        """Time the kernel twice back to back and keep the faster run, so a
        single preemption does not pass for a slow host."""
        clock = time.perf_counter
        best, start = math.inf, clock()
        for _ in range(2):
            a = clock()
            kernel()
            best = min(best, clock() - a)
        self.starts.append(start)
        self.ends.append(clock())
        self.times.append(best)

    def due(self, now: float) -> bool:
        return not self.ends or now - self.ends[-1] >= PROBE_EVERY_S

    def scale(self, start: float, end: float) -> float:
        """REF_KERNEL_S over the mean kernel time of the last probe that
        ended by `start` and the first that began at or after `end`."""
        before = bisect_right(self.ends, start) - 1
        after = bisect_left(self.starts, end)
        near = [self.times[i] for i in (before, after) if 0 <= i < len(self.times)]
        return REF_KERNEL_S * len(near) / sum(near)

    def mean_s(self) -> float:
        return sum(self.times) / len(self.times)

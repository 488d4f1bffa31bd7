"""Host-speed calibration and the paired timing every metric goes through.

On the reference host, a shared 2-vCPU VM, speed drifts by about +-20%
between back-to-back processes and within a process (see README.md).
Every timed sample is therefore paired with runs of a fixed kernel, taken
just before and just after it, that does the same kinds of work as the
solvers: tiny NumPy ufunc calls on a 64-element array (the per-row
floor), small real FFT round trips (the linear advances) and plain
interpreter arithmetic (the recursion's bookkeeping).  A metric is then
reported on a fixed scale,

    calibrated = raw * CALIB_REF_MS / calib_ms,

so a uniformly slower host leaves it unchanged while a slower program does
not.  ``CALIB_REF_MS`` is a constant (the kernel's typical time on the
reference host), which keeps the unit in milliseconds.  The kernel lives
here, not in the program, so no change to the program can move it.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

#: The calibration kernel's typical wall time on the reference host (ms).
#: A constant, never re-measured: calibrated figures from any host are on
#: this scale, and the raw kernel time is printed as ``host.calib_ms``.
CALIB_REF_MS = 6.5

_BLOCKS = 7
_A = np.linspace(-1.0, 1.0, 64)
_B = _A[::-1].copy()
_OUT = np.empty(64)
_X = np.sin(np.arange(1 << 13, dtype=np.float64))


def _block() -> float:
    t0 = time.perf_counter()
    for _ in range(1000):
        np.maximum(_A, _B, out=_OUT)
    for _ in range(4):
        np.fft.irfft(np.fft.rfft(_X), _X.size)
    acc = 0
    for i in range(10000):
        acc += i & 7
    return time.perf_counter() - t0


def calib_ms() -> float:
    """One calibration reading (ms): the median of seven kernel blocks,
    times three.  A single block swings by +-30% from one millisecond to
    the next on a shared host; the median of seven does not."""
    return statistics.median(_block() for _ in range(_BLOCKS)) * 3e3


class Sample:
    """One timed region: raw wall seconds plus the mean of the calibration
    readings taken just before and just after it."""

    __slots__ = ("raw_s", "calib_ms")

    def __init__(self, raw_s: float, calib: float):
        self.raw_s = raw_s
        self.calib_ms = calib

    @property
    def scale(self) -> float:
        """Factor turning this sample's raw times into calibrated ones."""
        return CALIB_REF_MS / self.calib_ms

    @property
    def cal_s(self) -> float:
        return self.raw_s * self.scale


def timed(fn):
    """Run ``fn()`` between two calibration readings, after a full garbage
    collection; returns ``(result, Sample)``."""
    gc.collect()
    c0 = calib_ms()
    t0 = time.perf_counter()
    result = fn()
    raw = time.perf_counter() - t0
    c1 = calib_ms()
    return result, Sample(raw, 0.5 * (c0 + c1))

"""Timings scaled to a reference machine speed.

The speed of a shared machine drifts by tens of percent over tens of
seconds, and every kind of work slows together.  A fixed calibration
kernel that does not call nugs (complex SVDs, spherical Bessel functions,
a complex exponential table and a Python loop, the same mix nugs spends
its time in) runs between operations; an operation's time is scaled by
``REFERENCE_S / kernel time``, the kernel time being the median of the
kernel runs around it.  A scaled time reads as wall time on a machine
where the kernel takes ``REFERENCE_S``.  Raw wall times are kept too.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.special import spherical_jn

REFERENCE_S = 0.010
INTERVAL_S = 0.2


class Clock:
    def __init__(self):
        rng = np.random.default_rng(12345)
        self._a = rng.normal(size=(160, 48)) + 1j * rng.normal(size=(160, 48))
        self._z = np.linspace(0.0, 200.0, 6000)
        self._phase = -2j * np.pi * np.outer(np.linspace(-50.0, 50.0, 400),
                                             np.linspace(0.0, 1.0, 64))
        self.samples: list[tuple[float, float]] = []   # (start, kernel seconds)

    def _kernel(self) -> None:
        for _ in range(4):
            np.linalg.svd(self._a, compute_uv=False)
        for n in range(8):
            spherical_jn(n, self._z)
        for _ in range(2):
            np.exp(self._phase).sum()
        s = 0
        for i in range(40000):
            s += i * i

    def sample(self) -> int:
        """Run the kernel once; returns the index of the sample."""
        start = time.perf_counter()
        self._kernel()
        self.samples.append((start, time.perf_counter() - start))
        return len(self.samples) - 1

    def due(self) -> bool:
        return time.perf_counter() - self.samples[-1][0] >= INTERVAL_S

    def scale(self, seconds: float, before: int, after: int) -> float:
        """``seconds`` measured between samples ``before`` and ``after``,
        at the reference speed.  The kernel time is the median of the
        samples from two before to two after, which follows the drift of
        the machine's speed but not the jitter of single samples."""
        window = [d for _, d in self.samples[max(before - 2, 0):after + 3]]
        return seconds * REFERENCE_S / float(np.median(window))

    def median_kernel_s(self) -> float:
        return float(np.median([d for _, d in self.samples]))

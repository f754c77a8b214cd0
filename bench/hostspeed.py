"""How fast the host runs right now, from a fixed reference kernel.

The benchmark shares a few cores of a host whose speed drifts: for minutes
at a time every report runs about 1.5 times slower, and a slow stretch can
cover a whole run.  No statistic inside one run removes that, so the runner
times this kernel just before every report and scales each report by
``REFERENCE_S / median(kernel times of its pass)``.  The kernel is numpy
FFTs and array passes and LAPACK eigensolves, the work most reports spend
their time in, on fixed inputs; it never touches waverep, so a change to
the program cannot move it.  A scaled time reads as the time the report
would take on a host where the kernel takes ``REFERENCE_S``; the unscaled
wall times are recorded beside it.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# Kernel time on the reference host (2-vCPU x86_64 VM, Intel Xeon, python
# 3.11, numpy 2.4 on one OpenBLAS thread), where run medians ranged from 9
# to 12 ms; a fixed unit, so that scaled times compare across runs.
REFERENCE_S = 0.010


class HostSpeed:
    """Times the reference kernel; one instance per run."""

    def __init__(self):
        rng = np.random.default_rng(20261017)
        a = rng.standard_normal((80, 80))
        self._sym = a + a.T
        b = rng.standard_normal((320, 320))
        self._sym_big = b + b.T
        self._wave = np.exp(2j * np.pi * rng.random(1 << 14))
        self.samples = []

    def _kernel(self) -> float:
        y = self._wave
        for _ in range(3):
            y = np.fft.fft(y * np.conj(y[::-1]))
            y = y / np.abs(y).max()
        for _ in range(5):
            np.linalg.eigvalsh(self._sym)
        np.linalg.eigvalsh(self._sym_big)
        return float(y.real[0])

    def sample(self) -> float:
        """Run the kernel once, record and return its wall time."""
        t0 = perf_counter()
        self._kernel()
        dt = perf_counter() - t0
        self.samples.append(dt)
        return dt

    @staticmethod
    def scale(samples) -> float:
        """Factor that turns wall seconds taken beside `samples` into reference seconds."""
        return REFERENCE_S / statistics.median(samples)

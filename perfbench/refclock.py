"""Scaling measured times to a reference machine speed.

On a shared machine the speed of the same work drifts by up to 2x over
tens of seconds, as neighbours come and go, so raw wall times of two
runs of one commit can differ more than any change worth measuring.  A
fixed calibration kernel, which never touches bandspec, runs in a short
burst after every WINDOW_S of operation time.  A burst's speed factor is
REFERENCE_S over the kernel's median time in it; one burst is noisy, so
each operation is scaled by the median factor of the SMOOTH bursts on
either side of the one that closes its window, which still follows
changes of speed that last seconds.  A change to bandspec cannot move
the kernel, so its effect on the scaled times is kept whole.  Raw times
are reported alongside.

The kernel runs in the benchmark's own process and does not follow the
speed of starting a subprocess: on a shared machine the two drift apart.
CLI calls are therefore scaled by ``StartSpeed``, which times a bare
interpreter subprocess that runs no bandspec code.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

# median kernel time on an unloaded 2-core x86_64 machine (Python 3.11,
# numpy 2.4, OpenBLAS, one thread); it only fixes the unit
REFERENCE_S = 6.0e-4
WINDOW_S = 0.1     # operation time between calibration bursts
BURST = 5          # kernel calls per burst
SMOOTH = 8         # bursts on each side in the rolling median

_SYM = np.random.default_rng(0).standard_normal((24, 24))
_SYM = _SYM + _SYM.T
_ROWS = [tuple(float((i * j) % 7) for j in range(12)) for i in range(16)]


def kernel():
    """Interpreter-bound list arithmetic plus small LAPACK calls, the
    same mix of work as the library's."""
    acc = [0.0] * 12
    for _ in range(25):
        for row in _ROWS:
            acc = [x + 0.5 * v for x, v in zip(acc, row)]
        acc = [v * 0.25 for v in acc]
    for _ in range(5):
        np.linalg.eigvalsh(_SYM)
    return acc


def speed_factor():
    """REFERENCE_S over the median of one burst of kernel calls."""
    times = []
    for _ in range(BURST):
        t = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t)
    return REFERENCE_S / statistics.median(times)


class StartSpeed:
    """Speed factor of starting a Python subprocess: REFERENCE_START_S
    over the time of a bare ``python -c pass`` with the environment and
    directory of the CLI calls.  It is cheap next to a CLI call, so a
    burst is one call, made after every operation, and the rolling
    median spans ``smooth`` bursts on each side."""

    window_s = 0.0
    smooth = 4

    # only fixes the unit, like REFERENCE_S
    REFERENCE_START_S = 0.04

    def __init__(self, env, cwd):
        self.env, self.cwd = env, cwd

    def __call__(self):
        t = time.perf_counter()
        # capture_output although nothing is printed: without pipes,
        # subprocess.run(timeout=...) waits by polling with sleeps of up
        # to 50 ms, which rounds the time measured here up to that step
        subprocess.run([sys.executable, "-c", "pass"], env=self.env, cwd=self.cwd,
                       capture_output=True, check=True, timeout=60)
        return self.REFERENCE_START_S / (time.perf_counter() - t)


class RefClock:
    """Collects raw durations, calibrates between them with ``speed``
    (the in-process kernel unless told otherwise), and scales them once
    the loop is over (``finish``)."""

    def __init__(self, speed=None):
        self.speed = speed or speed_factor
        self.window_s = getattr(speed, "window_s", WINDOW_S)
        self.smooth = getattr(speed, "smooth", SMOOTH)
        self.raw = []
        self.scaled = []
        self.factors = []
        self._burst_of = []   # per operation: the burst closing its window
        self._pending = 0.0

    def add(self, dt):
        self.raw.append(dt)
        self._burst_of.append(len(self.factors))
        self._pending += dt
        if self._pending >= self.window_s:
            self.factors.append(self.speed())
            self._pending = 0.0

    def finish(self):
        if self._burst_of and self._burst_of[-1] == len(self.factors):
            self.factors.append(self.speed())
        f, k = self.factors, self.smooth
        smooth = [statistics.median(f[max(0, j - k):j + k + 1]) for j in range(len(f))]
        self.scaled = [dt * smooth[j] for dt, j in zip(self.raw, self._burst_of)]

"""A fixed reference kernel that times the host rather than the program.

The benchmark's host is a share of a busy machine: for stretches of seconds
to minutes the same code runs up to about 1.5x slower, and whole runs can
fall into a slow stretch.  ``kernel()`` is a frozen im2col convolution, ReLU
and 2x2 max pooling in float64 numpy, the same mix of strided copies, GEMM
and elementwise passes that radarmon's nn spends its time in, but code of
the benchmark that no change to radarmon can move.

``HostClock`` times the kernel before and after each measured piece of work
and rescales the work's time to a host on which one kernel pass takes
``NOMINAL_S``: the time the work would have taken at that host speed.
"""

from __future__ import annotations

import time

import numpy as np

# One kernel pass on an idle vCPU of the 2-vCPU VM the bounds were set on
# (numpy 2.4, OpenBLAS 0.3.31, 1 BLAS thread).
NOMINAL_S = 0.020

_N, _H, _W, _C, _K, _OUT = 8, 64, 64, 16, 3, 32

_rng = np.random.default_rng(12345)
_x = _rng.standard_normal((_N, _H + _K - 1, _W + _K - 1, _C))
_w = _rng.standard_normal((_K * _K * _C, _OUT))
_cols = np.empty((_N * _H * _W, _K * _K * _C))
_out = np.empty((_N * _H * _W, _OUT))


def kernel() -> float:
    """One pass of the reference kernel; returns a checksum so it is not idle work."""
    s0, s1, s2, s3 = _x.strides
    view = np.lib.stride_tricks.as_strided(
        _x, (_N, _H, _W, _K, _K, _C), (s0, s1, s2, s1, s2, s3), writeable=False
    )
    np.copyto(_cols.reshape(_N, _H, _W, _K, _K, _C), view)
    np.matmul(_cols, _w, out=_out)
    y = np.maximum(_out, 0.0).reshape(_N, _H // 2, 2, _W // 2, 2, _OUT)
    return float(y.max(axis=(2, 4)).sum())


def seconds(passes: int = 3) -> float:
    """Median time of one kernel pass over `passes` back-to-back passes."""
    times = []
    for _ in range(passes):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return sorted(times)[len(times) // 2]


class HostClock:
    """Host speed sampled between pieces of work, and work times rescaled by it.

    ``tick()`` samples the kernel; ``scaled(t, before)`` rescales a time t
    measured between the sample ``before`` and a fresh one to NOMINAL_S.
    Every sample is kept in ``samples``.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (perf_counter at the end, seconds)
        self.last = self.tick()

    def tick(self) -> float:
        self.last = seconds()
        self.samples.append((time.perf_counter(), self.last))
        return self.last

    def scaled(self, t: float, before: float) -> float:
        return t * NOMINAL_S / ((before + self.tick()) / 2)

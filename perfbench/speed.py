"""Machine-speed probe: reports times at a fixed reference speed.

On a shared machine other tenants slow whole stretches of a run, by up to 2x
on the 2-core Xeon the baseline was measured on, for seconds to minutes at a
time. While a run measures, an interval timer interrupts the main thread every
PERIOD_S and times a fixed calibration kernel once. A timed interval is cut at
the samples inside it, and each piece's wall time, less the sample's, is
multiplied by REFERENCE_S over the median kernel time around the piece. That
is right only for a kernel whose time follows the workloads' times one for
one; `calibrate.py` measures how well it does (see README.md).
"""

from __future__ import annotations

import signal
from array import array
from bisect import bisect_left, bisect_right
from statistics import median
from time import perf_counter

import numpy as np

PERIOD_S = 0.05      # one kernel sample per 50 ms of wall time (<1% overhead)
WINDOW_S = 0.5       # samples up to this long before an interval also count
REFERENCE_S = 3.4e-4  # about the kernel's median time on the baseline machine

_RNG = np.random.default_rng(0)
_A = 0.5 * _RNG.standard_normal((200, 4, 4))
_X = _RNG.standard_normal((200, 4))
_I = np.eye(4)


def kernel():
    """Batched 4x4 products, a batched solve and an elementwise map over 200
    steps, like the library's expansions and sweeps. Of three candidates (this
    one, 60 matrix-vector products in a Python loop, and the same loop on
    Python lists), this one's time followed the workloads' round times best."""
    y = np.einsum("tij,tj->ti", _A, _X)
    w = np.linalg.solve(_A @ _A.transpose(0, 2, 1) + _I, y[..., None])
    return float(w.sum()) + float(np.tanh(y).sum())


class SpeedProbe:
    """Samples the kernel's wall time while active (a context manager)."""

    def __init__(self):
        self.at = array("d")     # end time of each sample
        self.took = array("d")   # kernel wall time of each sample
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._sample()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, *_):
        start = perf_counter()
        kernel()
        end = perf_counter()
        self.at.append(end)
        self.took.append(end - start)

    def factor(self, start, end):
        """REFERENCE_S over the median kernel time in [start - WINDOW_S, end];
        the latest sample before `end` stands in when that window has none."""
        lo = bisect_left(self.at, start - WINDOW_S)
        hi = bisect_right(self.at, end)
        window = self.took[lo:hi] if hi > lo else self.took[max(hi - 1, 0):hi]
        return REFERENCE_S / median(window)

    def scaled(self, start, end):
        """The wall time from start to end, less the samples taken in it, at
        the reference speed: each piece between two samples at the speed
        around it, so that a long interval follows the changes of speed."""
        lo, hi = bisect_right(self.at, start), bisect_right(self.at, end)
        cuts = [start, *self.at[lo:hi], end]
        took = [*self.took[lo:hi], 0.0]  # the sample that ends each piece
        return sum((b - a - t) * self.factor(a, b) for a, b, t in zip(cuts, cuts[1:], took))

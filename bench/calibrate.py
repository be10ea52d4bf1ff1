"""Machine-speed calibration for the end-to-end timings.

On a shared host the same op can take twice as long in one second as in
the next, because other tenants load the host's cores; ten runs of wall
time then spread by up to a third, more than a regression bound can
tolerate.  So a fixed kernel is timed every ``EVERY`` seconds between the
units of a run, and each unit's time is multiplied by ``REF_S / (median of
the kernel times within WINDOW seconds of the unit)``.  The scaled times
are in reference seconds: what the ops would have taken with the kernel
running at ``REF_S``.  The kernel is the benchmark's own code, never the
package's, so no change to the package moves it.

A local factor, not one per run: the host's speed changes within a run, on
a scale of seconds.  In a five-seed trial of all three workloads, one
factor per run left spreads (quartile distance over median) of up to 0.26
on solve_emit, whose units are long and few; factors from the kernel runs
within a second either side left at most 0.11 on any workload.  Taking
the median of those kernel runs keeps the factor's own noise out of the
tail percentile.
"""

from time import perf_counter

import numpy as np

EVERY = 0.1
WINDOW = 1.0
# a fixed reference: about the kernel's median time on the 2-vCPU Xeon the
# baseline was measured on
REF_S = 1.2e-3


class _Law:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def __call__(self, x):
        return self.a * x + self.b


_ROWS = [np.linspace(0.0, 1.0, 7) + i for i in range(8)]


def kernel() -> float:
    """A fixed mix like the package's per-front code: small objects made and
    called from Python, each feeding a ufunc and a reduction on a 7-element
    array.  Of the kernels tried (this one, a vectorised ufunc grid, pure
    Python arithmetic, dictionary walks), this one's speed tracked the ops
    of all three workloads most closely over stretches of 1 to 10 seconds."""
    acc = 0.0
    laws = [_Law(0.1 * i, 1.0) for i in range(64)]
    for _ in range(2):
        for law, row in zip(laws, _ROWS * 8):
            y = np.sqrt(row * law.a + 1.0)
            acc += law(float(y[3])) + float(np.max(y))
    return acc


def time_kernel() -> float:
    """Duration of one kernel run, after an untimed one, so that what the
    units before it left in the caches does not count."""
    kernel()
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


def factors(starts, kernel_at, kernel_s) -> np.ndarray:
    """Scale factor of each unit: REF_S over the median of the kernel times
    taken within WINDOW seconds of the unit's start (the nearest one if
    none is)."""
    at = np.asarray(kernel_at)
    ks = np.asarray(kernel_s)
    t = np.asarray(starts)
    lo = np.searchsorted(at, t - WINDOW)
    hi = np.searchsorted(at, t + WINDOW, side="right")
    near = np.clip(np.searchsorted(at, t), 0, len(at) - 1)
    lo, hi = np.minimum(lo, near), np.maximum(hi, near + 1)
    return np.array([REF_S / np.median(ks[a:b]) for a, b in zip(lo, hi)])

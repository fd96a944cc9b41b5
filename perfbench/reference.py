"""Host-speed sampling for normalizing the benchmark's times.

The benchmark's host is a shared virtual machine whose speed drifts by up to
2x within seconds to minutes.  While a run measures, ``SpeedSampler`` times a
fixed reference kernel from a SIGALRM handler every ``INTERVAL_S`` of wall
time, so the host speed is sampled evenly over the program's own calls, long
or short.  Each call's time is scaled by ``NOMINAL_S`` over the median kernel
time around that call: a time is reported in seconds at the nominal host
speed.  That cancels the drift, while a change in the program's own work
still shows in full.  The handler's own time is subtracted from the program's.

The kernel mixes what the program spends its time on: small dense numpy
operations (QR, products, contractions, row updates) issued from Python loops,
plus plain float arithmetic.  It is fixed benchmark code and must not change
between the commits it compares.
"""

import signal
import statistics
import time

import numpy as np

NOMINAL_S = 0.002
INTERVAL_S = 0.1
_REPS = 40
_BASE = np.add.outer(np.arange(6.0), np.arange(6.0)) / 11.0 + np.eye(6)


def reference_seconds() -> float:
    """Wall time of one pass of the fixed kernel."""
    a = _BASE.copy()
    acc = 0.0
    start = time.perf_counter()
    for i in range(_REPS):
        q, _ = np.linalg.qr(a)
        g = q.T @ a @ q
        acc += float(np.einsum("ij,ij->", g, a))
        k = i % 6
        row = a[k, :].copy()
        a[k, :] = 0.999 * row + 0.001 * a[(k + 1) % 6, :]
        a[:, k] = a[k, :]
        for j in range(6):
            acc += float(a[j, j]) * 1e-3 + j * 0.5
    return time.perf_counter() - start


class SpeedSampler:
    """Context manager timing the reference kernel every INTERVAL_S."""

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []  # handler start, end, kernel s

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame):
        start = time.perf_counter()
        kernel = reference_seconds()
        self.samples.append((start, time.perf_counter(), kernel))

    def busy(self, start: float, end: float) -> float:
        """Handler time inside [start, end]."""
        return sum(max(0.0, min(e, end) - max(s, start)) for s, e, _ in self.samples)

    def scale(self, start: float | None = None, end: float | None = None) -> float:
        """NOMINAL_S over the median kernel time of the samples taken in
        [start, end], or of all samples when no interval is given."""
        kernels = [k for s, _, k in self.samples if start is None or start <= s <= end]
        return NOMINAL_S / statistics.median(kernels or [k for _, _, k in self.samples])

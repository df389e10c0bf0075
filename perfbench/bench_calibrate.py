"""Machine-speed calibration interleaved with the timed jobs.

The host this benchmark was tuned on shares its cores with other tenants,
and its speed drifts by up to 1.7x over tens of seconds; every job, the
generated C included, slows together.  A fixed piece of work that does not
touch formc is timed between every two timed jobs, and each job's time is
scaled by REFERENCE_S over the mean of the calibrations before and after
it; a set-up round is scaled by the calibrations before and after it.
Reported times therefore read as seconds on the host at its reference
speed, and a change to formc moves them as it moves the raw times.
"""

import time

import numpy as np
import scipy.sparse

# Calibration time on the reference host when no other tenant is busy
# (Intel Xeon at 2.1 GHz, 2 vCPUs, numpy 2.4, scipy 1.17, Python 3.11).
REFERENCE_S = 0.008


class Calibration:
    """Interpreter loop, small dense products and a sparse matrix-vector
    sweep, in the proportions of the benchmark's own jobs."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        n, nnz = 50_000, 400_000
        self._matrix = scipy.sparse.csr_matrix(
            (rng.normal(size=nnz), (rng.integers(0, n, nnz), rng.integers(0, n, nnz))),
            shape=(n, n))
        self._vector = np.ones(n)
        self._dense = rng.normal(size=(64, 64)) / 8.0

    def _work(self):
        s = 0
        for i in range(20_000):
            s += i * i
        a = self._dense
        for _ in range(10):
            a = a @ self._dense
        for _ in range(10):
            self._matrix @ self._vector
        return s

    def measure(self):
        """Seconds for one pass of the work, after an untimed pass that
        brings its data back into cache."""
        self._work()
        t0 = time.perf_counter()
        self._work()
        return time.perf_counter() - t0

"""Machine-speed calibration interleaved with the benchmark's operations.

The reference machine (2 vCPUs shared with other tenants) drifts in speed
by +-30 % over minutes.  A fixed kernel with gsrecon's mix of work (a Python
loop over small numpy calls, like the per-node searches in geometry, plus
a sparse LU factorization and solve) is timed between operations.  An
operation's time is then scaled by REFERENCE_S over the kernel time around
it, which gives seconds on a machine where the kernel takes REFERENCE_S.
The kernel is part of the benchmark, not of gsrecon, so no change to the
program can move it.
"""

from time import perf_counter

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

# kernel time on the reference machine when it is not slowed down
REFERENCE_S = 0.02
_REPEATS = 3

_rng = np.random.default_rng(0)
_POINTS = _rng.random((64, 2))
_VALUES = _rng.random(64)
_N = 60
_MATRIX = (sp.diags(np.full(_N * _N, 4.0))
           - sp.eye(_N * _N, k=1) - sp.eye(_N * _N, k=-1)
           - sp.eye(_N * _N, k=_N) - sp.eye(_N * _N, k=-_N)).tocsc()
_RHS = _rng.random((_N * _N, 16))


def _kernel():
    acc = 0.0
    for k in range(300):
        d = _POINTS[k % 50:k % 50 + 8] - _POINTS[k % 64]
        order = np.argsort(np.arctan2(d[:, 1], d[:, 0]))
        fit = np.column_stack([np.ones(8), d[:, 0], d[:, 1], d[:, 0] ** 2,
                               d[:, 0] * d[:, 1], d[:, 1] ** 2])
        coef = np.linalg.lstsq(fit, _VALUES[:8], rcond=None)[0]
        sums = {}
        for a in range(8):
            key = int(order[a])
            sums[key] = sums.get(key, 0.0) + coef[a % 6]
        acc += sum(sums.values())
    return acc + splu(_MATRIX).solve(_RHS)[0, 0]


def calibrate():
    """Median wall seconds of the kernel over a few repeats."""
    times = []
    for _ in range(_REPEATS):
        t0 = perf_counter()
        _kernel()
        times.append(perf_counter() - t0)
    return float(np.median(times))

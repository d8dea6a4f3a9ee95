"""Weight and cutoff profiles used by the resolvent and space-time estimates.

* ``rho_k``       linear wall ramp: L(1+y) near y=-1, 1 in the core, L(1-y) near y=+1
* ``cutoff_chi``  regularized 1/(y-lambda), polynomial inside the critical layer
"""

import numpy as np


def rho_k(y, L):
    """Wall-layer ramp weight: 0 at the walls, 1 on [-1 + 1/L, 1 - 1/L]."""
    y = np.asarray(y, dtype=float)
    return np.minimum(1.0, L * np.minimum(1.0 + y, 1.0 - y))


def cutoff_chi(y, lam, delta):
    """Regularized reciprocal: 1/(y-lam) outside the critical layer,
    2(y-lam)/delta^2 - (y-lam)^3/delta^4 inside."""
    y = np.asarray(y, dtype=float)
    t = y - lam
    out = np.empty_like(y)
    mid = np.abs(t) < delta
    out[~mid] = 1.0 / t[~mid]
    out[mid] = 2.0 * t[mid] / delta**2 - t[mid] ** 3 / delta**4
    return out

"""Tiny scaled-complex algebra: value = mantissa * exp(log_scale).

The homogeneous Orr-Sommerfeld solutions span exp(+-O(L^{3/2})) dynamic
range at small viscosity, far outside float64.  Coefficient formulas are
therefore evaluated on (mantissa, log) pairs and only final, order-one
quantities are collapsed to plain complex numbers.
"""

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Scaled:
    m: complex
    s: float = 0.0

    @staticmethod
    def from_complex(z):
        z = complex(z)
        if z == 0:
            return Scaled(0j, 0.0)
        a = abs(z)
        return Scaled(z / a, math.log(a))

    def __mul__(self, other):
        other = _coerce(other)
        return Scaled(self.m * other.m, self.s + other.s)

    def __truediv__(self, other):
        other = _coerce(other)
        return Scaled(self.m / other.m, self.s - other.s)

    def __add__(self, other):
        other = _coerce(other)
        if self.m == 0:
            return other
        if other.m == 0:
            return self
        s = max(self.s, other.s)
        return Scaled(self.m * math.exp(self.s - s) + other.m * math.exp(other.s - s), s)

    def __sub__(self, other):
        other = _coerce(other)
        return self + Scaled(-other.m, other.s)

    def __neg__(self):
        return Scaled(-self.m, self.s)

    def abs_log(self):
        """log |value|; -inf for zero."""
        return -math.inf if self.m == 0 else self.s + math.log(abs(self.m))


def _coerce(x):
    return x if isinstance(x, Scaled) else Scaled.from_complex(x)


def scaled_quadrature(weights, mantissa, logs):
    """Quadrature sum of mantissa*exp(logs) as a Scaled value."""
    t = np.max(logs)
    return Scaled(complex(np.sum(weights * mantissa * np.exp(logs - t))), float(t))

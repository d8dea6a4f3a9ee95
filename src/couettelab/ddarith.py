"""Vectorized double-double (compensated) arithmetic.

A double-double number is an unevaluated sum hi + lo of two float64 values
with |lo| <= ulp(hi)/2, giving ~31 significant digits.  Only the handful of
operations needed by the ascending Airy series are implemented; everything
works elementwise on numpy arrays.

Complex double-doubles are 4-tuples (re_hi, re_lo, im_hi, im_lo).
"""

import numpy as np

_SPLIT = 134217729.0  # 2**27 + 1, Dekker splitter


def two_sum(a, b):
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    return s, err


def fast_two_sum(a, b):
    # requires |a| >= |b|
    s = a + b
    err = b - (s - a)
    return s, err


def two_prod(a, b):
    p = a * b
    ca = _SPLIT * a
    ah = ca - (ca - a)
    al = a - ah
    cb = _SPLIT * b
    bh = cb - (cb - b)
    bl = b - bh
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, err


def dd_add(xh, xl, yh, yl):
    s, e = two_sum(xh, yh)
    e = e + (xl + yl)
    return fast_two_sum(s, e)


def dd_sub(xh, xl, yh, yl):
    return dd_add(xh, xl, -yh, -yl)


def dd_mul(xh, xl, yh, yl):
    p, e = two_prod(xh, yh)
    e = e + (xh * yl + xl * yh)
    return fast_two_sum(p, e)


def dd_div_d(xh, xl, d):
    # d must be exactly representable (integer products here)
    q1 = xh / d
    p, e = two_prod(q1, d)
    r = ((xh - p) - e + xl) / d
    return fast_two_sum(q1, r)


# -- complex double-double -------------------------------------------------

def cdd_from_complex(z):
    z = np.asarray(z, dtype=complex)
    zero = np.zeros(z.shape)
    return (z.real.copy(), zero.copy(), z.imag.copy(), zero.copy())


def cdd_to_complex(x):
    return (x[0] + x[1]) + 1j * (x[2] + x[3])


def cdd_add(x, y):
    rh, rl = dd_add(x[0], x[1], y[0], y[1])
    ih, il = dd_add(x[2], x[3], y[2], y[3])
    return (rh, rl, ih, il)


def cdd_mul(x, y):
    ac_h, ac_l = dd_mul(x[0], x[1], y[0], y[1])
    bd_h, bd_l = dd_mul(x[2], x[3], y[2], y[3])
    ad_h, ad_l = dd_mul(x[0], x[1], y[2], y[3])
    bc_h, bc_l = dd_mul(x[2], x[3], y[0], y[1])
    rh, rl = dd_sub(ac_h, ac_l, bd_h, bd_l)
    ih, il = dd_add(ad_h, ad_l, bc_h, bc_l)
    return (rh, rl, ih, il)


def cdd_div_d(x, d):
    rh, rl = dd_div_d(x[0], x[1], d)
    ih, il = dd_div_d(x[2], x[3], d)
    return (rh, rl, ih, il)


def cdd_scale_dd(x, ch, cl):
    """Multiply a complex double-double by a real double-double constant."""
    rh, rl = dd_mul(x[0], x[1], np.asarray(ch), np.asarray(cl))
    ih, il = dd_mul(x[2], x[3], np.asarray(ch), np.asarray(cl))
    return (rh, rl, ih, il)


def cdd_abs_est(x):
    """Cheap magnitude estimate (for convergence checks only)."""
    return np.abs(x[0]) + np.abs(x[2])

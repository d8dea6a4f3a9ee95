"""Vectorized double-double (compensated) arithmetic.

A double-double number is an unevaluated sum hi + lo of two float64 values
with |lo| <= ulp(hi)/2, giving ~31 significant digits.  Only the handful of
operations needed by the ascending Airy series are implemented; everything
works elementwise (with broadcasting) on numpy arrays.

A factor that multiplies many numbers can be split once (``split``) and
passed to ``two_prod`` / ``dd_mul`` / ``dd_div_d`` pre-split; the result is
bit-identical to splitting it on every call.
"""

_SPLIT = 134217729.0  # 2**27 + 1, Dekker splitter


def split(a):
    """Dekker split a = hi + lo, each half with at most 26 significant bits."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


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


def two_prod(a, b, b_split=None):
    """Exact product a * b = p + err; ``b_split`` is split(b), if known."""
    p = a * b
    ah, al = split(a)
    bh, bl = split(b) if b_split is None else b_split
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, err


def dd_add(xh, xl, yh, yl):
    s, e = two_sum(xh, yh)
    e = e + (xl + yl)
    return fast_two_sum(s, e)


def dd_mul(xh, xl, yh, yl, y_split=None):
    """Double-double product; ``y_split`` is split(yh), if known."""
    p, e = two_prod(xh, yh, y_split)
    e = e + (xh * yl + xl * yh)
    return fast_two_sum(p, e)


def dd_div_d(xh, xl, d, d_split=None):
    """Double-double divided by d, which must be exactly representable
    (integer products here); ``d_split`` is split(d), if known."""
    q1 = xh / d
    p, e = two_prod(q1, d, d_split)
    r = ((xh - p) - e + xl) / d
    return fast_two_sum(q1, r)

"""Complex Airy function, its slanted primitive, and the damping factor.

Evaluation strategy
-------------------
* |z| <= 8      ascending (Maclaurin) series, summed in double-double
                arithmetic: the two entire solutions cancel to ~exp(2 Re zeta)
                of the result size (zeta = (2/3) z^{3/2}), which plain float64
                cannot survive on the dominant rays.
* |z| > 8       12-term asymptotic series in 1/zeta for |arg z| <= 2 pi / 3;
                beyond that sector the argument is rotated with the standard
                three-ray connection identity so each expansion stays inside
                its validated sector.

All large-|z| values are carried as (mantissa, log-scale) pairs so the
exponentially growing/decaying regimes never overflow.

The slanted primitive (named a0 here) is the integral of Ai along the ray
rotated by exp(i pi/6); it is evaluated by panel quadrature of Ai for
|z| <= 8 and by an integrated asymptotic series beyond.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import ddarith as dd

# validated evaluation bands
R_SWITCH = 8.35          # auto method switch radius
MACLAURIN_MAX = 9.0      # ascending series validated out to here
ASYM_MIN = 7.2           # asymptotic series validated from here inward
DELTA0 = 0.2             # zero-free band for the slanted primitive (Im z <= DELTA0)
# Band where the log-derivative sup stays below -1/3, so |omega| <= exp(-x/3).
# Empirically a(0.15) = -0.358 < -1/3 while a(0.2) = -0.310 > -1/3.
DELTA1 = 0.15

_SERIES_TERMS = 52
_ROT = np.exp(2j * np.pi / 3)
_E16 = np.exp(1j * np.pi / 6)
_INV_2SQRTPI = 1.0 / (2.0 * math.sqrt(math.pi))

# Ai(0) and -Ai'(0) as double-double constants
_AI0 = (0.3550280538878172, 2.05233632436212e-17)
_C2 = (0.2588194037928068, -2.522243111610832e-17)

# asymptotic coefficients: Ai ~ e^{-zeta}/(2 sqrt(pi) z^{1/4}) sum (-1)^k u_k zeta^{-k}
_U = [1.0, 0.06944444444444445, 0.037133487654320986, 0.03799305912780064,
      0.05764919041266972, 0.11609906402551541, 0.2915913992307505,
      0.8776669695100169, 3.079453030173167, 12.341573332345238,
      55.62278536591708, 278.46508077760257]
_V = [1.0, -0.09722222222222222, -0.04388503086419753, -0.04246283078989483,
      -0.06266216349203231, -0.12410589602727509, -0.3082537649010791,
      -0.9204799924129445, -3.210493584648621, -12.807293080735626,
      -57.50830351391427, -287.0332371092211]
# primitive: int_w^inf Ai ~ e^{-zeta}/(2 sqrt(pi) w^{3/4}) sum s_k zeta^{-k}
_S = [1.0, -0.5694444444444444, 0.8913001543209876, -2.2662434449302697,
      7.989501247668614, -36.06885467853428, 198.67029213116928,
      -1292.2345658221104, 9694.838696696, -82418.47049524834,
      783031.0924902252, -8222104.936228143, 94555739.93605566,
      -1181955956.4072955]


@dataclass(frozen=True)
class AiryBundle:
    """Ai and Ai' at z; true values are ai * 10**exp10 etc."""

    z: complex
    ai: complex
    ai_prime: complex
    method: str
    exp10: int = 0


@dataclass(frozen=True)
class A0Value:
    z: complex
    a0: complex
    a0_prime: complex
    exp10: int = 0


@dataclass(frozen=True)
class DampingFactor:
    z: complex
    x: float
    omega: complex


# -- ascending series (double-double) ---------------------------------------
#
# Ai = Ai(0) f - (-Ai'(0)) g and Ai' = Ai(0) f' - (-Ai'(0)) g' with
# f = sum w^k / prod (3j-1)(3j),  g = z sum w^k / prod 3j(3j+1),  w = z^3.
# The four series are summed together: a complex double-double is stored as
# hi and lo arrays of shape (2, ...), real and imaginary part on the first
# axis, and the terms as (2, series, point) arrays.

# per-term divisors of the f, g, f', g' series (exact integers) and their splits
_DIVISORS = np.array([[(3 * k + 2) * (3 * k + 3), (3 * k + 3) * (3 * k + 4),
                       3 * (k + 1) * (3 * k + 5), 3 * (k + 1) * (3 * k + 1)]
                      for k in range(_SERIES_TERMS)], dtype=float)
_DIVISORS_SPLIT = dd.split(_DIVISORS)
# Ai(0) and Ai'(0) weights of the f, g, f', g' sums
_WEIGHTS = (np.array([_AI0[0], -_C2[0], _AI0[0], -_C2[0]]),
            np.array([_AI0[1], -_C2[1], _AI0[1], -_C2[1]]))


def _cmul_matrix(yh, yl):
    """Multiplication by the complex double-double y as a 2x2 real matrix
    W = [[Re y, -Im y], [Im y, Re y]] of double-doubles, stacked with the
    split of its hi part: (hi, lo, split hi, split lo) on the first axis.
    The sign sits in W[0, 1]: dd_mul(a, -b) == -dd_mul(a, b)."""
    wh = np.array([[yh[0], -yh[1]], [yh[1], yh[0]]])
    wl = np.array([[yl[0], -yl[1]], [yl[1], yl[0]]])
    return np.array([wh, wl, *dd.split(wh)])


def _cmul(xh, xl, w):
    """Complex double-double product x * y, y given as _cmul_matrix(y)
    (broadcast against x's trailing axes)."""
    ph, pl = dd.dd_mul(xh[None], xl[None], w[0], w[1], y_split=w[2:])
    return dd.dd_add(ph[:, 0], pl[:, 0], ph[:, 1], pl[:, 1])


def _maclaurin_dd(z, need_prime):
    """Ai, Ai' at the points of the 1-D array z by the ascending series in
    double-double arithmetic."""
    z = np.asarray(z, dtype=complex)
    zeros = np.zeros(z.shape)
    ones = np.ones(z.shape)
    zh = np.array([z.real, z.imag])
    zl = np.zeros_like(zh)
    wz = _cmul_matrix(zh, zl)
    z2h, z2l = _cmul(zh, zl, wz)
    w3 = _cmul_matrix(*_cmul(z2h, z2l, wz))[:, :, :, None]   # over the series

    # first terms of f, g and, with the prime, f' (z^2/2) and g' (1)
    th = [[ones, zeros], zh]
    tl = [[zeros, zeros], zl]
    if need_prime:
        fph, fpl = dd.dd_div_d(z2h, z2l, 2.0)
        th += [fph, [ones, zeros]]
        tl += [fpl, [zeros, zeros]]
    th = np.stack(th, axis=1)
    tl = np.stack(tl, axis=1)
    n_series = th.shape[1]
    sh, sl = th, tl
    for k in range(_SERIES_TERMS):
        th, tl = _cmul(th, tl, w3)
        d = _DIVISORS[k, :n_series, None]
        d_split = tuple(a[k, :n_series, None] for a in _DIVISORS_SPLIT)
        th, tl = dd.dd_div_d(th, tl, d, d_split)
        sh, sl = dd.dd_add(sh, sl, th, tl)
        if k % 8 == 7:
            f_est = np.abs(th[0, 0]) + np.abs(th[1, 0])
            g_est = np.abs(th[0, 1]) + np.abs(th[1, 1])
            f_sum_est = np.abs(sh[0, 0]) + np.abs(sh[1, 0])
            if np.max(f_est + g_est) < 1e-40 * max(1.0, np.max(f_sum_est)):
                break

    ch, cl = (c[:n_series, None] for c in _WEIGHTS)
    sh, sl = dd.dd_mul(sh, sl, ch, cl)
    # (re/im, series, point) -> (re/im, function, f or g, point)
    sh = sh.reshape(2, n_series // 2, 2, -1)
    sl = sl.reshape(2, n_series // 2, 2, -1)
    vh, vl = dd.dd_add(sh[:, :, 0], sl[:, :, 0], sh[:, :, 1], sl[:, :, 1])
    vals = (vh[0] + vl[0]) + 1j * (vh[1] + vl[1])
    if not need_prime:
        return vals[0], None
    return vals[0], vals[1]


# -- asymptotic series -------------------------------------------------------

def _asym_sector(z, need_prime):
    """Scaled Ai, Ai' for |arg z| <= 2 pi/3 (caller guarantees the sector)."""
    zeta = (2.0 / 3.0) * z * np.sqrt(z)
    r = 1.0 / zeta
    s_ai = np.zeros_like(z)
    s_aip = np.zeros_like(z)
    for k in range(len(_U) - 1, -1, -1):
        sign = -1.0 if k % 2 else 1.0
        s_ai = s_ai * r + sign * _U[k]
        if need_prime:
            s_aip = s_aip * r + sign * _V[k]
    phase = np.exp(-1j * zeta.imag)
    ai_m = _INV_2SQRTPI * z ** (-0.25) * s_ai * phase
    aip_m = -_INV_2SQRTPI * z ** 0.25 * s_aip * phase if need_prime else None
    return ai_m, aip_m, -zeta.real


def _asym_scaled(z, need_prime):
    """Scaled Ai, Ai' for |z| >= ASYM_MIN, any argument (connection formula)."""
    z = np.asarray(z, dtype=complex)
    main = np.abs(np.angle(z)) <= 2.0 * np.pi / 3.0
    ai_m = np.zeros_like(z)
    aip_m = np.zeros_like(z) if need_prime else None
    s = np.zeros(z.shape)
    if main.any():
        am, apm, sm = _asym_sector(z[main], need_prime)
        ai_m[main] = am
        s[main] = sm
        if need_prime:
            aip_m[main] = apm
    rot = ~main
    if rot.any():
        u1 = z[rot] * np.conj(_ROT)   # arg shifted by +/- into the sector
        u2 = z[rot] * _ROT
        a1, p1, s1 = _asym_sector(u1, need_prime)
        a2, p2, s2 = _asym_sector(u2, need_prime)
        smax = np.maximum(s1, s2)
        ai_m[rot] = -(np.conj(_ROT) * a1 * np.exp(s1 - smax)
                      + _ROT * a2 * np.exp(s2 - smax))
        if need_prime:
            aip_m[rot] = -(np.conj(_ROT) ** 2 * p1 * np.exp(s1 - smax)
                           + _ROT ** 2 * p2 * np.exp(s2 - smax))
        s[rot] = smax
    return ai_m, aip_m, s


def airy_scaled(z, need_prime=True, method="auto"):
    """Scaled evaluation: returns (ai_m, aip_m, s) with Ai = ai_m * exp(s).

    ``aip_m`` is None when need_prime is False.  ``method`` may force
    'maclaurin' or 'asymptotic' inside its validated band (used by the
    overlap cross-check); 'auto' switches at |z| = 8.
    """
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    r = np.abs(z)
    if method == "maclaurin":
        if np.any(r > MACLAURIN_MAX):
            raise ValueError(f"ascending series validated only for |z| <= {MACLAURIN_MAX}")
        mac = np.ones(z.shape, dtype=bool)
    elif method == "asymptotic":
        if np.any(r < ASYM_MIN):
            raise ValueError(f"asymptotic series validated only for |z| >= {ASYM_MIN}")
        mac = np.zeros(z.shape, dtype=bool)
    elif method == "auto":
        mac = r <= R_SWITCH
    else:
        raise ValueError(f"unknown method {method!r}")

    ai_m = np.zeros_like(z)
    aip_m = np.zeros_like(z) if need_prime else None
    s = np.zeros(z.shape)
    if mac.any():
        a, ap = _maclaurin_dd(z[mac], need_prime)
        ai_m[mac] = a
        if need_prime:
            aip_m[mac] = ap
    rest = ~mac
    if rest.any():
        a, ap, ss = _asym_scaled(z[rest], need_prime)
        ai_m[rest] = a
        s[rest] = ss
        if need_prime:
            aip_m[rest] = ap
    if scalar:
        return ai_m[0], (aip_m[0] if need_prime else None), s[0]
    return ai_m, aip_m, s


_LN10 = math.log(10.0)


def _descale(m, s):
    """Fold exp(s) into the mantissa when safe, else return a decade exponent."""
    if abs(s) < 600.0:
        return m * math.exp(s), 0
    e10 = int(math.floor(s / _LN10))
    return m * 10.0 ** (s / _LN10 - e10), e10


def airy(z, method="auto"):
    """Ai(z) and Ai'(z) as an AiryBundle (relative error <= 1e-11 for |z| <= 40).

    For arguments far enough out that exp(-zeta) leaves the float64 range the
    value is returned scaled by 10**exp10.
    """
    ai_m, aip_m, s = airy_scaled(complex(z), need_prime=True, method=method)
    used = method
    if method == "auto":
        used = "maclaurin" if abs(z) <= R_SWITCH else "asymptotic"
    ai, e10 = _descale(ai_m, s)
    # ai and ai_prime share s, so the decades agree
    aip, _ = _descale(aip_m, s)
    return AiryBundle(z=complex(z), ai=ai, ai_prime=aip, method=used, exp10=e10)


# -- slanted primitive -------------------------------------------------------

_GL16 = np.polynomial.legendre.leggauss(16)
_QUAD_T = 18.0
_QUAD_PANELS = 12


def _primitive_asym(w):
    """Scaled int_w^inf Ai(t) dt for |arg w| <= 2 pi/3, |w| >= ASYM_MIN."""
    zeta = (2.0 / 3.0) * w * np.sqrt(w)
    r = 1.0 / zeta
    acc = np.zeros_like(w)
    for k in range(len(_S) - 1, -1, -1):
        acc = acc * r + _S[k]
    m = _INV_2SQRTPI * w ** (-0.75) * acc * np.exp(-1j * zeta.imag)
    return m, -zeta.real


def _primitive_scaled(w):
    """Scaled int_w^inf Ai(t) dt for |w| >= ASYM_MIN, any argument."""
    w = np.asarray(w, dtype=complex)
    m = np.zeros_like(w)
    s = np.zeros(w.shape)
    main = np.abs(np.angle(w)) <= 2.0 * np.pi / 3.0
    if main.any():
        m[main], s[main] = _primitive_asym(w[main])
    rot = ~main
    if rot.any():
        # I(w) = 1 - I(w e^{-2pi i/3}) - I(w e^{2pi i/3})
        m1, s1 = _primitive_asym(w[rot] * np.conj(_ROT))
        m2, s2 = _primitive_asym(w[rot] * _ROT)
        smax = np.maximum(0.0, np.maximum(s1, s2))
        m[rot] = (np.exp(-smax) - m1 * np.exp(s1 - smax) - m2 * np.exp(s2 - smax))
        s[rot] = smax
    return m, s


def _a0_quad(z):
    """Plain-valued slanted primitive by panel quadrature (|z| <= R_SWITCH)."""
    z = np.asarray(z, dtype=complex)
    w = _E16 * z
    xg, wg = _GL16
    edges = np.linspace(0.0, _QUAD_T, _QUAD_PANELS + 1)
    mids = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    # nodes: (n_z, panels, 16)
    tau = mids[:, None] + half[:, None] * xg[None, :]
    pts = w[:, None, None] + tau[None, :, :]
    am, _, s = airy_scaled(pts.ravel(), need_prime=False)
    vals = (am * np.exp(s)).reshape(pts.shape)
    core = np.einsum("zpg,pg->z", vals, half[:, None] * wg[None, :])
    tm, ts = _primitive_scaled(w + _QUAD_T)
    return core + tm * np.exp(ts)


def a0_scaled(z):
    """Scaled slanted primitive: returns (m, s) with value m * exp(s)."""
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    m = np.zeros_like(z)
    s = np.zeros(z.shape)
    near = np.abs(z) <= R_SWITCH
    if near.any():
        m[near] = _a0_quad(z[near])
    far = ~near
    if far.any():
        m[far], s[far] = _primitive_scaled(_E16 * z[far])
    if scalar:
        return m[0], s[0]
    return m, s


def a0(z):
    """Slanted primitive and its derivative at z as an A0Value."""
    m, s = a0_scaled(complex(z))
    am, _, sa = airy_scaled(_E16 * complex(z), need_prime=False)
    val, e10 = _descale(m, s)
    prime = -_E16 * am * math.exp(sa - e10 * _LN10)
    return A0Value(z=complex(z), a0=val, a0_prime=prime, exp10=e10)


def log_derivative(z):
    """d/dz log of the slanted primitive, vectorized."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    m, s = a0_scaled(z)
    am, _, sa = airy_scaled(_E16 * z, need_prime=False)
    out = -_E16 * (am / m) * np.exp(sa - s)
    return out if out.size > 1 else out[0]


def a0_on_line(delta, xs):
    """Slanted-primitive values at xs + i delta, xs ascending.

    Anchored at the right end and accumulated leftward panel by panel, so a
    whole line costs one vectorized Airy batch instead of one ray quadrature
    per point.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1 or len(xs) < 2 or np.any(np.diff(xs) <= 0):
        raise ValueError("xs must be ascending with at least two points")
    zs = xs + 1j * delta
    m_anchor, s_anchor = a0_scaled(zs[-1])
    anchor = m_anchor * math.exp(s_anchor)
    xg, wg = np.polynomial.legendre.leggauss(6)
    mid = 0.5 * (xs[1:] + xs[:-1])
    half = 0.5 * (xs[1:] - xs[:-1])
    t = mid[:, None] + half[:, None] * xg[None, :]
    am, _, s = airy_scaled((_E16 * (t + 1j * delta)).ravel(), need_prime=False)
    vals = (am * np.exp(s)).reshape(t.shape)
    pieces = _E16 * np.einsum("pg,pg->p", vals, half[:, None] * wg[None, :])
    out = np.empty(len(xs), dtype=complex)
    out[-1] = anchor
    out[:-1] = anchor + np.cumsum(pieces[::-1])[::-1]
    return out


def log_derivative_sup(delta, tol=1e-4, max_rounds=12):
    """sup over the half-plane Im z <= delta of Re(a0'/a0).

    The ratio is analytic in the zero-free band, so the sup lives on the
    boundary line; both tails go to -infinity by the square-root asymptotics.
    Dense line sampling plus bracket refinement until two rounds agree to tol.
    """
    if not 0.0 <= delta <= DELTA0:
        raise ValueError(f"delta must lie in [0, {DELTA0}]")

    def line_max(xs):
        a0v = a0_on_line(delta, xs)
        am, _, sa = airy_scaled(_E16 * (xs + 1j * delta), need_prime=False)
        h = -_E16 * (am * np.exp(sa)) / a0v
        g = h.real
        j = int(np.argmax(g))
        return g[j], xs[j]

    step = 0.1
    best, x_at = line_max(np.arange(-16.0, 8.0 + 1e-12, step))
    # asymptotic tails: Re ~ -c sqrt(|x|), strictly below any interior value
    for xt in (-40.0, 30.0):
        ht = log_derivative(xt + 1j * delta)
        if ht.real >= best:
            raise RuntimeError("line maximum not interior; widen the scan")
    prev = math.inf
    for _ in range(max_rounds):
        step *= 0.25
        xs = x_at + np.linspace(-8 * step, 8 * step, 41)
        best, x_at = line_max(xs)
        if abs(best - prev) <= tol:
            return float(best)
        prev = best
    raise RuntimeError(f"sup search did not converge to {tol} in {max_rounds} rounds")


def damping(z, x):
    """Damping factor: ratio of the slanted primitive at z+x and z (x >= 0)."""
    if x < 0:
        raise ValueError("x must be nonnegative")
    if complex(z).imag > DELTA1:
        raise ValueError(f"requires Im z <= {DELTA1}")
    m1, s1 = a0_scaled(complex(z) + x)
    m0, s0 = a0_scaled(complex(z))
    return DampingFactor(z=complex(z), x=float(x), omega=(m1 / m0) * math.exp(s1 - s0))

"""Complex Airy function, its slanted primitive, and the damping factor.

Ai and Ai' come from the exponentially scaled AMOS evaluator
(``scipy.special.airye``; Amos, ACM TOMS 12, 1986), which returns
Ai * exp(zeta) with zeta = (2/3) z^{3/2}.  The scale is split off again as a
(mantissa, log-scale) pair so the exponentially growing/decaying regimes
never overflow.

The slanted primitive (named a0 here) is the integral of Ai along the ray
rotated by exp(i pi/6); it is evaluated by panel quadrature of Ai for
|z| <= R_SWITCH and by an integrated asymptotic series beyond.
"""

import math
from dataclasses import dataclass

import numpy as np

R_SWITCH = 8.35          # primitive: panel quadrature inside, asymptotic series outside
DELTA0 = 0.2             # zero-free band for the slanted primitive (Im z <= DELTA0)
# Band where the log-derivative sup stays below -1/3, so |omega| <= exp(-x/3).
# Empirically a(0.15) = -0.358 < -1/3 while a(0.2) = -0.310 > -1/3.
DELTA1 = 0.15

_ROT = np.exp(2j * np.pi / 3)
_E16 = np.exp(1j * np.pi / 6)
_INV_2SQRTPI = 1.0 / (2.0 * math.sqrt(math.pi))

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


def airy_scaled(z, need_prime=True):
    """Scaled evaluation: returns (ai_m, aip_m, s) with Ai = ai_m * exp(s).

    ``aip_m`` is None when need_prime is False.
    """
    # imported here: no workload evaluates Airy, and scipy.special costs
    # every import of the package a noticeable start-up time
    from scipy.special import airye

    # + 0.0 turns a -0.0 imaginary part into +0.0: AMOS reads -0.0 as +0.0,
    # numpy's sqrt (hence zeta) would take the other side of the cut
    z = np.asarray(z, dtype=complex) + 0.0
    eai, eaip, _, _ = airye(z)
    zeta = (2.0 / 3.0) * z * np.sqrt(z)
    phase = np.exp(-1j * zeta.imag)
    return eai * phase, (eaip * phase if need_prime else None), -zeta.real


_LN10 = math.log(10.0)


def _descale(m, s):
    """Fold exp(s) into the mantissa when safe, else return a decade exponent."""
    if abs(s) < 600.0:
        return m * math.exp(s), 0
    e10 = int(math.floor(s / _LN10))
    return m * 10.0 ** (s / _LN10 - e10), e10


def airy(z):
    """Ai(z) and Ai'(z) as an AiryBundle (relative error <= 1e-11 for |z| <= 300).

    For arguments far enough out that exp(-zeta) leaves the float64 range the
    value is returned scaled by 10**exp10.
    """
    ai_m, aip_m, s = airy_scaled(complex(z), need_prime=True)
    ai, e10 = _descale(ai_m, s)
    # ai and ai_prime share s, so the decades agree
    aip, _ = _descale(aip_m, s)
    return AiryBundle(z=complex(z), ai=ai, ai_prime=aip, exp10=e10)


# -- slanted primitive -------------------------------------------------------

_GL16 = np.polynomial.legendre.leggauss(16)
_QUAD_T = 18.0
_QUAD_PANELS = 12


def _primitive_asym(w):
    """Scaled int_w^inf Ai(t) dt for |arg w| <= 2 pi/3, |w| >= R_SWITCH."""
    zeta = (2.0 / 3.0) * w * np.sqrt(w)
    r = 1.0 / zeta
    acc = np.zeros_like(w)
    for k in range(len(_S) - 1, -1, -1):
        acc = acc * r + _S[k]
    m = _INV_2SQRTPI * w ** (-0.75) * acc * np.exp(-1j * zeta.imag)
    return m, -zeta.real


def _primitive_scaled(w):
    """Scaled int_w^inf Ai(t) dt for |w| >= R_SWITCH, any argument."""
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

import cmath
import math
import os
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from couettelab import airy as A

from oracles import a0_quadrature, airy_maclaurin

E16 = cmath.exp(1j * math.pi / 6)


def test_frozen_values_at_zero():
    b = A.airy(0)
    assert abs(b.ai - 0.35502805388781724) < 1e-16
    assert abs(b.ai_prime - (-0.25881940379280680)) < 1e-16


@pytest.mark.parametrize("seed", range(4))
def test_oracle_accuracy_scattered(seed):
    rng = np.random.default_rng(seed)
    rs = rng.uniform(0.05, 40.0, 25)
    ths = rng.uniform(-np.pi, np.pi, 25)
    for z in rs * np.exp(1j * ths):
        b = A.airy(complex(z))
        sc = 10.0 ** b.exp10
        ex = airy_maclaurin(z)
        exp = airy_maclaurin(z, derivative=True)
        assert abs(b.ai * sc - ex) <= 1e-11 * abs(ex)
        assert abs(b.ai_prime * sc - exp) <= 1e-11 * abs(exp)


def test_real_axis_positive_decreasing():
    xs = np.linspace(0.0, 12.0, 60)
    vals = [A.airy(float(x)) for x in xs]
    ai = np.array([b.ai * 10.0 ** b.exp10 for b in vals])
    assert np.max(np.abs(ai.imag)) < 1e-13 * np.max(np.abs(ai.real))
    assert np.all(ai.real > 0)
    assert np.all(np.diff(ai.real) < 0)


@settings(max_examples=40, deadline=None)
@given(st.floats(-20, 20), st.floats(-20, 20))
@example(x=-2.0, y=0.0)   # conjugate is -2 - 0j: the signed zero on the cut
def test_conjugation_symmetry(x, y):
    z = complex(x, y)
    b1 = A.airy(z)
    b2 = A.airy(z.conjugate())
    assert b1.exp10 == b2.exp10
    assert abs(b2.ai - b1.ai.conjugate()) <= 1e-12 * max(abs(b1.ai), 1e-300)


def _bi(z):
    """Second solution from the rotated pair, for the Wronskian check."""
    w = cmath.exp(2j * math.pi / 3)
    b1 = A.airy(z * w)
    b2 = A.airy(z / w)
    assert b1.exp10 == 0 and b2.exp10 == 0
    bi = cmath.exp(1j * math.pi / 6) * b1.ai + cmath.exp(-1j * math.pi / 6) * b2.ai
    bip = (cmath.exp(5j * math.pi / 6) * b1.ai_prime
           + cmath.exp(-5j * math.pi / 6) * b2.ai_prime)
    return bi, bip


@pytest.mark.parametrize("z", [0.0, 1 + 1j, -3.0])
def test_wronskian_named_points(z):
    b = A.airy(complex(z))
    bi, bip = _bi(complex(z))
    w = b.ai * bip - b.ai_prime * bi
    assert abs(w - 1.0 / math.pi) < 1e-11


def test_wronskian_scattered():
    # The identity cancels to exp(-2 Re zeta) of the products, so it is only
    # numerically testable where that factor is O(1): rejection-sample the
    # disk on Re zeta >= -2 (everywhere Ai is not the dominant solution).
    rng = np.random.default_rng(11)
    pts = []
    while len(pts) < 20:
        z = complex(rng.uniform(0.2, 15.0) * np.exp(1j * rng.uniform(-np.pi, np.pi)))
        if ((2.0 / 3.0) * z * cmath.sqrt(z)).real >= -2.0:
            pts.append(z)
    for z in pts:
        b = A.airy(z)
        bi, bip = _bi(z)
        w = (b.ai * bip - b.ai_prime * bi) * 10.0 ** b.exp10
        assert abs(w - 1.0 / math.pi) <= 1e-9 / math.pi


def test_ode_residual_via_recurrence():
    # Taylor step by the ODE recurrence: with c0 = Ai(z), c1 = Ai'(z) and
    # c_{n+2} = (z c_n + c_{n-1}) / ((n+1)(n+2)) from w'' = z w, the local
    # series must land on the directly evaluated Ai(z + h).  No finite
    # differences are involved; any branch or sign defect breaks this.
    rng = np.random.default_rng(5)
    pts = rng.uniform(0.1, 20.0, 100) * np.exp(1j * rng.uniform(-np.pi, np.pi, 100))
    h = 0.05
    for z in pts:
        z = complex(z)
        b0 = A.airy(z)
        b1 = A.airy(z + h)
        if not (b0.exp10 == b1.exp10 == 0):
            continue
        c = [b0.ai, b0.ai_prime, z * b0.ai / 2.0]
        for n in range(1, 18):
            c.append((z * c[n] + c[n - 1]) / ((n + 1) * (n + 2)))
        taylor = sum(cn * h**j for j, cn in enumerate(c))
        scale = 1e-9 * (1 + abs(b0.ai) * abs(z))
        assert abs(taylor - b1.ai) <= scale + 1e-9 * abs(b1.ai)


def test_rotated_solution_solves_shear_ode():
    # f(y) = Ai(e^{i pi/6} y) satisfies f'' - i y f = 0
    rng = np.random.default_rng(6)
    ys = rng.uniform(-6, 6, 50)
    h = 1e-3
    for y in ys:
        f = lambda t: A.airy(E16 * t).ai
        second = (f(y + h) - 2 * f(y) + f(y - h)) / h**2
        resid = second - 1j * y * f(y)
        assert abs(resid) <= 1e-5 * (1 + abs(f(y)) * abs(y)) + 1e-6


def test_overflow_guard_scaled_representation():
    b = A.airy(-160.0 + 80.0j)  # |zeta| ~ 1900: far outside float range
    assert b.exp10 != 0
    assert np.isfinite(b.ai.real) and np.isfinite(b.ai.imag)
    mag = b.exp10 + math.log10(abs(b.ai))
    with mp.workdps(40):
        exmag = float(mp.log10(abs(mp.airyai(mp.mpc(-160.0, 80.0)))))
    assert abs(mag - exmag) < 1e-8


def _mp_rel_error(b, z):
    """Largest relative error of Ai and Ai' in b (exp10 applied) against
    mpmath at 40 digits."""
    with mp.workdps(40):
        zz = mp.mpc(z.real, z.imag)
        scale = mp.mpf(10) ** b.exp10
        errs = []
        for got, d in ((b.ai, 0), (b.ai_prime, 1)):
            ex = mp.airyai(zz, derivative=d)
            errs.append(float(abs(mp.mpc(got) * scale - ex) / abs(ex)))
    return max(errs)


@pytest.mark.parametrize("x", [0.5, 2.0, 7.0, 15.0, 35.0, 120.0])
def test_negative_axis_both_sides_of_cut(x):
    # Ai is entire: on the cut and just off it, from either side, the scaled
    # value must unscale to the same Ai and Ai'
    for z in (complex(-x, 0.0), complex(-x, -0.0), complex(-x, 1e-8), complex(-x, -1e-8)):
        assert _mp_rel_error(A.airy(z), z) <= 1e-11, z


def test_oracle_accuracy_large_argument():
    # 40 < |z| <= 300, one point per 12-degree sector, so every ray class
    # (dominant, recessive, oscillatory) is visited; values leave float range
    rng = np.random.default_rng(2024)
    n = 30
    rs = rng.uniform(40.0, 300.0, n)
    ths = -np.pi + 2.0 * np.pi * (np.arange(n) + rng.uniform(0.0, 1.0, n)) / n
    exp10s = set()
    for z in rs * np.exp(1j * ths):
        b = A.airy(complex(z))
        exp10s.add(b.exp10)
        assert _mp_rel_error(b, complex(z)) <= 1e-11, z
    assert min(exp10s) < 0 < max(exp10s)


def test_import_leaves_scipy_special_unloaded():
    # airy_scaled imports scipy.special locally; at module level it would add
    # its import time to every entry point, none of which needs it up front
    src = os.path.dirname(os.path.dirname(os.path.abspath(A.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, couettelab; sys.exit('scipy.special' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


# -- slanted primitive -------------------------------------------------------

def test_a0_at_zero_is_one_third():
    v = A.a0(0)
    assert v.exp10 == 0
    assert abs(v.a0 - 1.0 / 3.0) <= 1e-9 / 3.0


@pytest.mark.parametrize("z", [1.5, -2.0, 4 + 0.1j, -6 - 3j, 11.0, -14 + 0.2j,
                               -30.0, 20 * cmath.exp(-2.2j)])
def test_a0_against_quadrature_oracle(z):
    v = A.a0(complex(z))
    ex = a0_quadrature(z)
    got = v.a0 * 10.0 ** v.exp10
    assert abs(got - ex) <= 1e-9 * abs(ex)


def test_a0_prime_consistency():
    for z in [0.3, -1.2 + 0.1j, 5.0]:
        v = A.a0(complex(z))
        b = A.airy(E16 * complex(z))
        expect = -E16 * b.ai * 10.0 ** (b.exp10 - v.exp10)
        assert abs(v.a0_prime - expect) <= 1e-12 * abs(expect)


def test_a0_tail_monotone_decay():
    xs = np.linspace(5.0, 12.0, 15)
    mags = []
    for x in xs:
        m, s = A.a0_scaled(float(x))
        mags.append(math.log(abs(m)) + s)
    assert np.all(np.diff(mags) < 0)


def test_a0_zero_free_band():
    # decay-normalized magnitude bounded below on Im z <= delta0, |z| <= 40
    rng = np.random.default_rng(12)
    z = rng.uniform(-40, 40, 1500) + 1j * rng.uniform(-40, A.DELTA0, 1500)
    z = z[np.abs(z) <= 40]
    m, s = A.a0_scaled(z)
    w = E16 * z
    zeta = (2.0 / 3.0) * w * np.sqrt(w)
    norm = np.abs(m) * np.exp(s + zeta.real) * np.maximum(1.0, np.abs(w)) ** 0.75
    assert float(norm.min()) > 0.05


def test_omega_consistency_with_log_derivative_quadrature():
    # a0(z+x)/a0(z) equals exp(int_0^x a0'/a0) at (z, x) = (-2, 3)
    z, x = -2.0, 3.0
    direct = A.damping(z, x).omega
    xg, wg = np.polynomial.legendre.leggauss(60)
    ts = z + 0.5 * x * (xg + 1.0)
    vals = A.log_derivative(ts + 0j)
    integral = 0.5 * x * np.sum(wg * vals)
    assert abs(direct - np.exp(integral)) <= 1e-8 * abs(direct)


# -- log-derivative sup and damping ------------------------------------------

def test_log_derivative_sup_paper_constant():
    a0 = A.log_derivative_sup(0.0)
    assert abs(a0 - (-0.4843)) <= 5e-4
    assert a0 < -1.0 / 3.0


def test_log_derivative_sup_band_and_guard():
    assert A.log_derivative_sup(A.DELTA1) < -1.0 / 3.0
    with pytest.raises(ValueError):
        A.log_derivative_sup(A.DELTA0 + 0.1)


def test_log_derivative_large_argument():
    # square-root asymptotics: -e^{i pi/6} (x e^{i pi/6})^{1/2} at x = 100
    got = A.log_derivative(100.0 + 0j)
    expect = -E16 * cmath.sqrt(100.0 * E16)
    assert abs(got - expect) <= 0.05 * abs(expect)


def test_damping_trivial_and_bounds():
    assert A.damping(0.0, 0.0).omega == 1.0
    d = A.damping(-1.0, 6.0)
    assert abs(d.omega) <= math.exp(-2.0)
    with pytest.raises(ValueError):
        A.damping(1j, 1.0)  # Im z above the validated band
    with pytest.raises(ValueError):
        A.damping(0.0, -1.0)


def test_damping_exponential_bounds_sampled():
    # |omega| <= e^{-x/3} on Im z <= delta1, and e^{-c x^{3/2}} with c > 0
    rng = np.random.default_rng(4)
    zs = rng.uniform(-8, 8, 40) + 1j * rng.uniform(-5, A.DELTA1, 40)
    xs = rng.uniform(0.0, 12.0, 40)
    c_emp = math.inf
    for z, x in zip(zs, xs):
        om = abs(A.damping(complex(z), float(x)).omega)
        assert om <= math.exp(-x / 3.0) * (1 + 1e-10)
        if x > 0.5:
            c_emp = min(c_emp, -math.log(om) / x**1.5)
    assert c_emp > 0.0


def test_damping_multiplicativity():
    z = -2.0 + 0.1j
    x1, x2 = 1.3, 2.2
    lhs = A.damping(z, x1).omega * A.damping(z + x1, x2).omega
    rhs = A.damping(z, x1 + x2).omega
    assert abs(lhs - rhs) <= 1e-10 * abs(rhs)


def test_damping_cross_check_direct_ratio():
    d = A.damping(0.0, 4.0)
    ex = a0_quadrature(4.0) / a0_quadrature(0.0)
    assert abs(d.omega - ex) <= 1e-9 * abs(ex)


def test_log_derivative_bound_shape_constants():
    # |a0'/a0| <= C(1+|z|^{1/2}) and Re <= -c(1+|z|^{1/2}) on the half plane
    rng = np.random.default_rng(8)
    z = rng.uniform(-40, 40, 400) + 1j * rng.uniform(-40, A.DELTA0, 400)
    z = z[np.abs(z) <= 40]
    h = A.log_derivative(z)
    shape = 1.0 + np.sqrt(np.abs(z))
    c_upper = float(np.max(np.abs(h) / shape))
    c_lower = float(np.max(h.real / shape))
    assert c_upper < 2.0          # recorded: O(1) constant
    assert c_lower < -0.2         # real part strictly negative with margin

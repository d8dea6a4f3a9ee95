"""Correctness checks of the workloads' outputs, and the oracles they use.

Each check compares a program output with a computation made apart from the
code under test, or with a property the method must have; none compares with
a saved copy of earlier output.  A check is a pure function of the values it
is given, so selftest.py can feed it a perturbed value and see it fail.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str
    ops: tuple = ()        # operations of a round that fail with this check


def _check(name, ok, detail, ops=()):
    return Check(name=name, ok=bool(ok), detail=detail, ops=tuple(ops))


# -- checks ------------------------------------------------------------------

def loglog_slope(xs, ys):
    """Least-squares slope of log y against log x, and its r^2."""
    lx, ly = np.log(np.asarray(xs, float)), np.log(np.asarray(ys, float))
    a = np.vstack([lx, np.ones_like(lx)]).T
    (slope, icpt), *_ = np.linalg.lstsq(a, ly, rcond=None)
    resid = ly - (slope * lx + icpt)
    ss = np.sum((ly - ly.mean()) ** 2)
    return float(slope), float(1.0 - np.sum(resid**2) / ss) if ss > 0 else 0.0


def check_exponent(name, xs, ys, target, tol, r2_min=None, ops=()):
    """Fitted power of ys in xs within tol of target (and r^2 >= r2_min)."""
    if not all(np.isfinite(ys)) or min(ys) <= 0:
        return _check(name, False, f"non-positive or non-finite values {ys}", ops)
    slope, r2 = loglog_slope(xs, ys)
    ok = abs(slope - target) <= tol and (r2_min is None or r2 >= r2_min)
    return _check(name, ok, f"exponent {slope:.4f} target {target:.4f} +- {tol}, "
                  f"r2 {r2:.5f}" + (f" >= {r2_min}" if r2_min else ""), ops)


def check_rel_close(name, value, reference, rtol, ops=()):
    """|value - reference| <= rtol |reference| (arrays: in the 2-norm)."""
    value, reference = np.asarray(value), np.asarray(reference)
    ref = float(np.linalg.norm(reference))
    err = float(np.linalg.norm(value - reference)) / ref if ref > 0 else math.inf
    return _check(name, err <= rtol, f"relative difference {err:.3e} <= {rtol:.0e}",
                  ops)


def check_below(name, value, limit, ops=()):
    ok = math.isfinite(value) and value < limit
    return _check(name, ok, f"{value:.6g} < {limit:g}", ops)


def wall_moments(w, k, nodes, quad_weights):
    """max over the signs of |int e^{+-ky} w| / (e^{|k|} ||w||_L1)."""
    l1 = float(np.sum(quad_weights * np.abs(w)))
    if l1 == 0.0:
        return 0.0
    return max(abs(np.sum(quad_weights * np.exp(s * k * nodes) * w))
               for s in (1, -1)) / (math.exp(abs(k)) * l1)


def check_moments(name, w, k, nodes, quad_weights, limit=1e-8, ops=()):
    """Velocity-Dirichlet walls: the exp(+-ky) moments of w vanish."""
    m = wall_moments(w, k, nodes, quad_weights)
    return _check(name, m <= limit, f"wall moment {m:.3e} <= {limit:.0e}", ops)


def check_order(name, err_coarse, err_fine, order, tol, ops=()):
    """Observed order log2(err_coarse / err_fine) of a halved step."""
    p = math.log2(err_coarse / err_fine) if err_fine > 0 else math.inf
    return _check(name, abs(p - order) <= tol,
                  f"observed order {p:.3f} (errors {err_coarse:.3e} -> "
                  f"{err_fine:.3e}), expected {order} +- {tol}", ops)


def check_equal(name, value, expected, ops=()):
    return _check(name, value == expected, f"{value!r} == {expected!r}", ops)


# -- oracles -----------------------------------------------------------------

def dense_sigma_max(case, grid, ops, data, coupled_system):
    """Top singular value of the weighted worst-case solution operator.

    The operator (forcing -> vorticity, quadrature-weighted L2 on both sides)
    is built column by column from monolithic solves of the coupled (w, phi)
    system and put through a dense SVD: no Airy function, no power iteration.
    `data` is "l2" (interior forcing F) or "pair" (F = -d f2/dy, sized by
    ||f2||_2), as in the harness's worst-case sweeper.
    """
    n = grid.n_points
    m = coupled_system(case, grid, ops)
    rhs = np.zeros((2 * n, n - 2), dtype=complex)
    rhs[1:n - 1, :] = np.eye(n - 2)
    r = sla.solve(m, rhs)[:n]                  # interior forcing -> w
    sqw = np.sqrt(grid.quad_weights)
    if data == "l2":
        t = sqw[:, None] * r / sqw[1:-1][None, :]
    else:
        t = sqw[:, None] * (r @ -ops.d1[1:-1, :]) / sqw[None, :]
    return float(sla.svdvals(t)[0])


def interior_generator(nu, k, bc, nodes, quad_weights, d2):
    """Interior matrix A of d w/dt = -A w for nu(k^2 - d2) + iky.

    Vorticity Dirichlet: the interior block.  Velocity Dirichlet: the two
    wall values are eliminated so that the exp(+-ky) moments stay zero.
    """
    n = len(nodes)
    full = nu * (k**2 * np.eye(n) - d2) + 1j * k * np.diag(nodes)
    inner, walls = np.arange(1, n - 1), np.array([0, n - 1])
    a = full[np.ix_(inner, inner)]
    if bc == "navier_slip":
        return a
    mom = np.vstack([quad_weights * np.exp(k * nodes),
                     quad_weights * np.exp(-k * nodes)])
    # moments of w stay zero: mom[:, walls] w_walls = -mom[:, inner] w_inner
    slave = -np.linalg.solve(mom[:, walls], mom[:, inner])
    return a + full[np.ix_(inner, walls)] @ slave


def propagate(a, w_inner, t):
    """expm(-t A) w on the interior nodes."""
    return sla.expm(-t * a) @ w_inner

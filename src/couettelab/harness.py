"""Parameter sweeps, scaling-exponent fits, spectra, and inequality checks.

Each proved bound is checked one of two ways: a log-log fit of a sweep
against the predicted power (ScalingFit), or a recorded constant that must
be stable under grid refinement.  The resolvent nu-sweeps are the entries of
SWEEP_CHECKS: each names its walls, which norm column of which data kind is
fitted against which power, and which constants it records.  verify_sweep
runs one entry and returns its fits, its constants and its rows, each row
tagged with its data kind.

Fit sweeps use the worst-case forcing: a fixed smooth right-hand side does
not saturate the resolvent bounds (its response grows far slower than the
proved powers), so the sharp exponent only appears for the forcing that
maximizes the response.  That maximizer is the singular vector of the
discrete solution operator at the smallest singular value, computed by
power iteration in the quadrature-weighted norm.  A sweep reduces the
operator once to real Hessenberg form (resolvent.HessenbergResolvent), so
each lambda costs one O(N^2) banded factor instead of a dense LU;
verify_c_bounds uses the same reduction.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg as sla

from .grid import (frame_blocks, frame_weights, from_real_frame, grid_for,
                   l1_norm, l2_norm, quadrature, real_apply, real_form,
                   to_real_frame, wall_moment_rows)
from .norms import norms
from .resolvent import (EPSILON_MAX, FRAME_RESIDUE_MAX, EllipticSolver,
                        HessenbergResolvent, ResolventCase, ResolventSolution,
                        airy_kernels, coefficient_rows, direct_forcing,
                        homogeneous_airy, pair_forcing, recover_velocity,
                        solve_nonslip, vorticity_matrix)
from .weights import cutoff_chi, rho_k


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares slope of log(value) against log(parameter)."""

    name: str
    exponent: float
    intercept: float
    r2: float
    target_exponent: float
    tolerance: float = 0.05

    @property
    def passed(self):
        return (abs(self.exponent - self.target_exponent) <= self.tolerance
                and self.r2 >= 0.98)

    def as_dict(self):
        d = dict(self.__dict__)
        d["passed"] = self.passed
        # |exponent - target| in units of the tolerance; <= 1 passes that test
        d["margin"] = abs(self.exponent - self.target_exponent) / self.tolerance
        return d


def fit_loglog(name, xs, values, target, tolerance=0.05):
    lx = np.log(np.asarray(xs, dtype=float))
    lv = np.log(np.asarray(values, dtype=float))
    slope, intercept = np.polyfit(lx, lv, 1)
    resid = lv - (slope * lx + intercept)
    ss_tot = np.sum((lv - lv.mean()) ** 2)
    r2 = 1.0 - np.sum(resid**2) / ss_tot if ss_tot > 0 else 0.0
    return ScalingFit(name=name, exponent=float(slope), intercept=float(intercept),
                      r2=float(r2), target_exponent=float(target),
                      tolerance=tolerance)


FORCINGS = {
    "one": lambda y: np.ones_like(y) + 0j,
    "exp_ipiy": lambda y: np.exp(1j * np.pi * y),
    "exp_iy": lambda y: np.exp(1j * y),
    "cos_half": lambda y: np.cos(np.pi * y / 2) + 0j,
}


def enforce_resolution_rule(nu, k, n):
    """Fit cases must resolve the wall layer: N >= 8 L (hard error)."""
    L = (abs(k) / nu) ** (1.0 / 3.0)
    if n < 8.0 * L - 1e-9:
        raise ValueError(f"resolution rule violated: N = {n} < 8 L = {8*L:.1f}")


# -- worst-case solution operators ------------------------------------------

def _start_vector(dim):
    """The power iteration's seeded complex start vector."""
    rng = np.random.default_rng(7)
    return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)


def _power_sigma_max(apply_t, apply_th, dim, x0=None, iters=80, tol=1e-11):
    """Largest singular value and right singular vector of T by power
    iteration on T^H T (apply_t / apply_th are matrix-free).

    Returns (sigma, x, iterations, converged).  converged is False when the
    relative change of ||T^H T x|| was still above tol after `iters` steps;
    sigma and x are then the last iterate's.  The error contracts like
    (sigma_2 / sigma_1)^2 per step.
    """
    x = x0 if x0 is not None else _start_vector(dim)
    x = x / np.linalg.norm(x)
    mu = 0.0
    for it in range(1, iters + 1):
        y = apply_th(apply_t(x))
        mu_new = np.linalg.norm(y)
        x = y / mu_new
        if abs(mu_new - mu) <= tol * mu_new:
            return math.sqrt(mu_new), x, it, True
        mu = mu_new
    return math.sqrt(mu), x, iters, False


class _WorstCaseSweeper:
    """Per-(nu, k, bc, data) worst-case response over a lambda search grid.

    For each lambda the solution operator (forcing -> vorticity, in the
    quadrature-weighted L2 geometry) is power-iterated for its top singular
    pair; the maximizing forcing is then solved normally and every norm of
    its solution is recorded.  Suprema are taken over all lambdas visited.
    The lambdas whose power iteration stopped at its cap unconverged are
    kept in ``unconverged``, in visit order.  Both walls are one code path:
    bc only picks the rows bordered_vorticity_matrix puts at y = +-1.

    The operator is reduced once per sweep (resolvent.HessenbergResolvent:
    S B S^-1 = V (H - ik lam) V^H on the interior, the wall values from an
    influence matrix), so each lambda costs one banded factor.  The power
    iteration runs in unitary images of the node-space forcing: L2 data in
    Hessenberg coordinates V^H (S F), pair data in the reflection frame
    Q^H f2 (weighted), where F = -d f2/dy becomes V^H S F = i G (Q^H f2)
    with one real matrix G (interior rows by all nodes), since d/dy is
    anti-centrosymmetric: Q_h^T times d1's frame blocks (`grid.frame_blocks`)
    without their wall row, scaled by the frame sqrt weights.  Each step is
    then two band solves, O(N) wall terms and, for pair data, one real
    product each way, as many as the node-space iteration had with d/dy.
    The start vectors are the node-space ones carried over, so the iterates
    are those of a node-space iteration up to rounding.
    """

    def __init__(self, nu, k, bc, data, n_override=None):
        self.nu, self.k, self.bc, self.data = nu, k, bc, data
        self.grid, self.ops = grid_for(nu, k, n_override)
        enforce_resolution_rule(nu, k, self.grid.order)
        self.elliptic = EllipticSolver(self.grid, self.ops, k)
        n = self.grid.n_points
        self.sqw = np.sqrt(self.grid.quad_weights)
        self.inner = slice(1, n - 1)
        self.walls = [0, n - 1]
        self._warm = None
        self.unconverged = []
        red = self.reduced = HessenbergResolvent(
            ResolventCase(nu=nu, k=k, bc=bc), self.grid, self.ops)
        if data == "l2":
            self._frame = (red.to_hessenberg, red.from_hessenberg, None)
            return
        # divergence-pair data, f1 = 0: F = -d f2/dy, sized by ||f2||_2.
        # Q^H d1 Q = [[0, i eo], [-i oe, 0]], so in the frame -S d1_in S^-1
        # is i [[0, -eo'], [oe', 0]] (' drops the wall row and weights)
        eo, oe = frame_blocks(self.ops, "d1")
        sq_in, sq = frame_weights(red.sq), frame_weights(self.sqw)
        me, ne = (n - 1) // 2, (n + 1) // 2
        g = np.empty((n - 2, n))
        np.matmul(red.q_h.T[:, :me], -sq_in[:me, None] * eo[1:] / sq[ne:],
                  out=g[:, ne:])
        np.matmul(red.q_h.T[:, me:], sq_in[me:, None] * oe[1:] / sq[:ne],
                  out=g[:, :ne])
        self._frame = (to_real_frame, from_real_frame, g)

    def _apply_r(self, lam, f_int):
        """forcing (interior nodal values) -> vorticity (all nodes)."""
        red = self.reduced
        w_b, u = red.solve(lam, red.to_hessenberg(red.sq * f_int))
        w = np.empty(self.grid.n_points, dtype=complex)
        w[self.inner] = red.from_hessenberg(u) / red.sq
        w[self.walls] = w_b
        return w

    def response_at(self, lam):
        """Top singular pair of the solution operator at lam: (sigma, x,
        (case,)), x the maximizing forcing's weighted node values."""
        case = ResolventCase(nu=self.nu, k=self.k, lam=lam, bc=self.bc)
        red = self.reduced
        to_frame, from_frame, g = self._frame
        sq_b = self.sqw[self.walls]

        def t(x):
            w_b, u = red.solve(lam, x if g is None else 1j * real_apply(g, x))
            return np.concatenate([sq_b * w_b, u])

        def th(v):
            z = red.solve_adjoint(lam, sq_b * v[:2], v[2:])
            return z if g is None else -1j * real_apply(g.T, z)

        x0 = self._warm
        if x0 is None:
            n = self.grid.n_points
            x0 = to_frame(_start_vector(n - 2 if g is None else n))
        sigma, x, _, converged = _power_sigma_max(t, th, len(x0), x0=x0)
        self._warm = x
        if not converged:
            self.unconverged.append(lam)
        return sigma, from_frame(x), (case,)

    def solution_for(self, x, ctx):
        """Assemble the maximizer's solution and its forcing norm."""
        case = ctx[0]
        if self.data == "l2":
            f_int = x / self.sqw[self.inner]
            fnorm = math.sqrt(abs(np.sum(
                self.grid.quad_weights[self.inner] * np.abs(f_int) ** 2)))
        else:
            f2 = x / self.sqw
            fnorm = l2_norm(self.grid, f2)
            f_int = -real_apply(self.ops.d1, f2)[self.inner]
        w = self._apply_r(case.lam, f_int)
        phi = self.elliptic.solve(w)
        sol = ResolventSolution(case=case, w=w, phi=phi,
                                u=recover_velocity(phi, case.k, self.ops))
        return sol, fnorm

    def sweep(self, lambdas=None, refine=14):
        if lambdas is None:
            lambdas = np.linspace(-1.5, 1.5, 41)
        sup = {}
        evals = []

        def visit(lam):
            sigma, x, ctx = self.response_at(float(lam))
            sol, fnorm = self.solution_for(x, ctx)
            nb = norms(sol, ctx[0], self.grid, self.ops)
            for key, val in nb.as_dict().items():
                sup[key] = max(sup.get(key, 0.0), val / fnorm)
            evals.append((float(lam), sigma))
            return sigma

        vals = np.array([visit(lam) for lam in lambdas])
        # the peaks at lam and -lam tie to rounding: of the grid values
        # within 1e-12 of the maximum take the largest lam, so the side
        # refined does not hang on the last bits
        near = np.flatnonzero(vals >= (1.0 - 1e-12) * vals.max())
        j = int(near[np.argmax(np.asarray(lambdas)[near])])
        lo = lambdas[max(j - 1, 0)]
        hi = lambdas[min(j + 1, len(lambdas) - 1)]
        # golden refinement of the primary (weighted L2) response
        gr = (math.sqrt(5.0) - 1.0) / 2.0
        a, b = float(lo), float(hi)
        c, d = b - gr * (b - a), a + gr * (b - a)
        fc, fd = visit(c), visit(d)
        for _ in range(refine):
            if fc > fd:
                b, d, fd = d, c, fc
                c = b - gr * (b - a)
                fc = visit(c)
            else:
                a, c, fc = c, d, fd
                d = a + gr * (b - a)
                fd = visit(d)
        return sup, evals


def worst_case_norms(nu, k, bc, data, n_override=None, lambdas=None):
    """Per-norm suprema of the worst-case response over the lambda search."""
    sweeper = _WorstCaseSweeper(nu, k, bc, data, n_override=n_override)
    sup, _ = sweeper.sweep(lambdas=lambdas)
    return sup, sweeper.grid.order


def _sweep_row(nu, k, bc, data):
    """One row of a verification sweep: nu, k, N, the data kind, the
    per-norm suprema and power_unconverged, the number of lambdas whose
    power iteration stopped at its cap."""
    if nu * k**2 > 1.0:
        raise ValueError(f"sweep requires nu k^2 <= 1, got nu = {nu}, k = {k}")
    sweeper = _WorstCaseSweeper(nu, k, bc, data)
    sup, _ = sweeper.sweep()
    return dict(nu=nu, k=k, n=sweeper.grid.order, data=data, **sup,
                power_unconverged=len(sweeper.unconverged))


# -- named verification sweeps ------------------------------------------------

#: The resolvent nu-sweep checks.  Each gives its walls, its fits as
#: (name, data kind, norm column, target nu power) and its recorded constants
#: as (name, data kind, norm column, nu power a, |k| power b, factor): factor
#: times the largest nu^a |k|^b column over the rows of that data kind.  The
#: data kinds are the sweeper's: "l2" forcing, and "pair" data (f1 = 0,
#: F = -d f2/dy, sized by ||f2||_2).
SWEEP_CHECKS = {
    "navier_l2": {
        "bc": "navier_slip",
        "fits": (
            ("navier_l2_w_l2", "l2", "l2", -1.0 / 3.0),
            ("navier_l2_u_l2", "l2", "u_l2", -1.0 / 6.0),
            ("navier_l2_w_prime", "l2", "w_prime_l2", -2.0 / 3.0),
            ("navier_l2_w_l1", "l2", "l1", -1.0 / 6.0),
        ),
        "constants": (
            ("const_w_l2", "l2", "l2", 1 / 3, 2 / 3, 1.0),
            ("const_u_l2", "l2", "u_l2", 1 / 6, 4 / 3, 1.0),
            ("const_critical", "l2", "critical", 0, 1, 1.0),
            ("const_w_l1", "l2", "l1", 1 / 6, 5 / 6, 1.0),
            # contour-shift smallness for the recorded constant: C * eps <= 1/2
            ("epsilon_times_C", "l2", "l2", 1 / 3, 2 / 3, EPSILON_MAX),
        ),
    },
    "navier_hm1": {
        "bc": "navier_slip",
        "fits": (
            ("navier_hm1_u_l2", "pair", "u_l2", -0.5),
            ("navier_hm1_w_l2", "pair", "l2", -2.0 / 3.0),
        ),
        "constants": (
            ("const_u_l2", "pair", "u_l2", 0.5, 1, 1.0),
            ("const_w_l2", "pair", "l2", 2 / 3, 1 / 3, 1.0),
            ("const_w_prime", "pair", "w_prime_l2", 1, 0, 1.0),
        ),
    },
    "nonslip": {
        "bc": "non_slip",
        "fits": (
            ("nonslip_l2_w_l2", "l2", "l2", -5.0 / 12.0),
            ("nonslip_l2_w_l1", "l2", "l1", -1.0 / 6.0),
            ("nonslip_hm1_w_l2", "pair", "l2", -3.0 / 4.0),
            ("nonslip_hm1_rho_w", "pair", "rho_half", -2.0 / 3.0),
            ("nonslip_hm1_u_l2", "pair", "u_l2", -1.0 / 2.0),
        ),
        "constants": (
            ("const_l2_w", "l2", "l2", 5 / 12, 5 / 6, 1.0),
            ("const_hm1_w", "pair", "l2", 0.75, 0.5, 1.0),
            ("const_hm1_u", "pair", "u_l2", 0.5, 1, 1.0),
        ),
    },
}


def verify_sweep(check, nu_values, k=1):
    """Run the SWEEP_CHECKS entry `check` at wavenumber k over nu_values.

    Returns (fits, constants, rows).  Every row carries its data kind under
    "data"; the rows of each kind the check reads come in nu order, the
    kinds in their order of first use in the check.
    """
    spec = SWEEP_CHECKS[check]
    if not nu_values or math.log10(max(nu_values) / min(nu_values)) < 2.0 - 1e-9:
        raise ValueError("exponent fit requires >= 2 decades")
    kinds = dict.fromkeys(entry[1] for entry in spec["fits"] + spec["constants"])
    rows = [_sweep_row(nu, k, spec["bc"], data) for data in kinds for nu in nu_values]
    of_kind = {data: [r for r in rows if r["data"] == data] for data in kinds}
    fits = [fit_loglog(name, [r["nu"] for r in of_kind[data]],
                       [r[col] for r in of_kind[data]], target)
            for name, data, col, target in spec["fits"]]
    constants = {name: max(factor * (r["nu"] ** a * abs(k) ** b * r[col])
                           for r in of_kind[data])
                 for name, data, col, a, b, factor in spec["constants"]}
    return fits, constants, rows


def verify_navier_k(k_values, nu=1e-4):
    """k-sweep companion: ||w||_2 response ~ |k|^{-2/3} at fixed nu."""
    rows = [_sweep_row(nu, k, "navier_slip", "l2") for k in k_values]
    ks = [abs(r["k"]) for r in rows]
    fits = [fit_loglog("navier_l2_w_l2_in_k", ks, [r["l2"] for r in rows],
                       -2.0 / 3.0, tolerance=0.05)]
    return fits, rows


def verify_nonslip_large(nu, k, n_override=None):
    """nu k^2 >= 1 regime: record nu k^2 ||w||_2 / ||F||_2 (monolithic path)."""
    if nu * k**2 < 1.0:
        raise ValueError("requires nu k^2 >= 1")
    g, ops = grid_for(nu, k, n_override)
    fvals = FORCINGS["exp_ipiy"](g.nodes)
    forcing = direct_forcing(fvals)
    best = 0.0
    for lam in np.linspace(-1.5, 1.5, 21):
        case = ResolventCase(nu=nu, k=k, lam=float(lam), bc="non_slip")
        sol = solve_nonslip(case, forcing, g, ops, path="monolithic")
        best = max(best, l2_norm(g, sol.w) / l2_norm(g, fvals))
    return nu * k**2 * best


def verify_c_bounds(nu, k, lambdas=None, forcing_key="exp_ipiy", n_override=None):
    """Boundary-coefficient bounds: weighted suprema over a lambda grid.

    L2 data: (1+|k(lam-1)|)|c1| and (1+|k(lam+1)|)|c2| against
    nu^{-1/6}|k|^{-5/6} ||F||_2.  Pair data: 3/4-power weights against
    nu^{-1/2}|k|^{-1/2} ||f2||_2.
    """
    if lambdas is None:
        lambdas = np.concatenate([
            np.linspace(-2.0, 2.0, 41),
            1.0 + np.linspace(-1.0, 1.0, 9) / abs(k),
            -1.0 + np.linspace(-1.0, 1.0, 9) / abs(k),
        ])
    g, ops = grid_for(nu, k, n_override)
    fvals = FORCINGS[forcing_key](g.nodes)
    fnorm = l2_norm(g, fvals)
    out = {"c1_l2": 0.0, "c2_l2": 0.0, "c1_hm1": 0.0, "c2_hm1": 0.0}
    # c1 and c2 are sinh moments of the vorticity-Dirichlet solution alone
    # (resolvent.coefficients), so no homogeneous pair is built.  One
    # reduction of that operator serves every lambda: both forcings and the
    # sinh rows (on the interior; the walls carry w = 0) are taken to
    # Hessenberg coordinates once, then each lambda is one banded factor,
    # one two-column solve and one product giving [[c1, p1], [c2, p2]]
    case = ResolventCase(nu=nu, k=k, bc="navier_slip")
    rhs = np.column_stack([f.nodal_rhs(case, g, ops) for f in
                           (direct_forcing(fvals), pair_forcing(f2=fvals))])
    reduced = HessenbergResolvent(case, g, ops)
    inner = slice(1, g.n_points - 1)
    rhs_h = reduced.to_hessenberg(reduced.sq[:, None] * rhs[inner])
    rows = coefficient_rows(g, k)[:, inner] / reduced.sq
    rows_h = np.conj(reduced.to_hessenberg(np.conj(rows.T))).T
    scale_l2 = nu ** (-1 / 6) * abs(k) ** (-5 / 6) * fnorm
    scale_hm1 = nu ** (-0.5) * abs(k) ** (-0.5) * fnorm
    for lam in lambdas:
        (c1, p1), (c2, p2) = rows_h @ reduced.solve(float(lam), rhs_h)[1]
        w1, w2 = 1 + abs(k * (lam - 1)), 1 + abs(k * (lam + 1))
        out["c1_l2"] = max(out["c1_l2"], w1 * abs(c1) / scale_l2)
        out["c2_l2"] = max(out["c2_l2"], w2 * abs(c2) / scale_l2)
        out["c1_hm1"] = max(out["c1_hm1"], w1 ** 0.75 * abs(p1) / scale_hm1)
        out["c2_hm1"] = max(out["c2_hm1"], w2 ** 0.75 * abs(p2) / scale_hm1)
    return out, g.order


def verify_w12_bounds(nu_values, k_values, lambdas, n_override=None):
    """Homogeneous-solution bounds as normalized recorded constants."""
    out = {"w1_linf": 0.0, "w2_linf": 0.0, "w12_l1": 0.0,
           "w1_rho_half": 0.0, "w1_rho_neg_quarter": 0.0}
    for nu in nu_values:
        for k in k_values:
            g, ops = grid_for(nu, k, n_override)
            ell = EllipticSolver(g, ops, k)
            rho = rho_k(g.nodes, (abs(k) / nu) ** (1 / 3))
            cases = [ResolventCase(nu=nu, k=k, lam=float(lam), bc="non_slip")
                     for lam in lambdas]
            for lam, case, kern in zip(lambdas, cases, airy_kernels(cases, g)):
                pair = homogeneous_airy(case, g, ops, elliptic=ell, kernels=kern)
                L = case.L
                s1 = nu ** 0.5 / (1 + abs(k * (lam - 1))) ** 0.5
                s2 = nu ** 0.5 / (1 + abs(k * (lam + 1))) ** 0.5
                out["w1_linf"] = max(out["w1_linf"], np.abs(pair.w1).max() * s1)
                out["w2_linf"] = max(out["w2_linf"], np.abs(pair.w2).max() * s2)
                out["w12_l1"] = max(out["w12_l1"],
                                    l1_norm(g, pair.w1) + l1_norm(g, pair.w2))
                rw = math.sqrt(abs(quadrature(g, rho * np.abs(pair.w1) ** 2)))
                out["w1_rho_half"] = max(out["w1_rho_half"], rw / L**0.5)
                mask = rho > 0
                rq = math.sqrt(abs(np.sum(
                    np.abs(pair.w1[mask]) ** 2 * rho[mask] ** -0.5
                    * g.quad_weights[mask])))
                s = nu ** (7 / 24) * abs(k) ** (1 / 12) \
                    / (1 + abs(k * (lam - 1))) ** (3 / 8)
                out["w1_rho_neg_quarter"] = max(out["w1_rho_neg_quarter"], rq * s)
    return out


# -- spectra -----------------------------------------------------------------

@dataclass(frozen=True)
class SpectralGapReport:
    """Spectrum of the restricted generator.

    generator is `restricted_generator`'s real matrix in the frame of the
    node reflection, unitarily equivalent to the weighted restriction, so
    its eigenvalues and the singular values of generator - i lam are those
    of the physical generator.  psi is the gap functional when it was asked
    for, NaN otherwise.
    pseudo_abscissa is the same functional, computed on first read (54 SVDs
    of the generator) unless psi already holds it.
    """

    eigenvalues: np.ndarray
    gap: float
    psi: float
    generator: np.ndarray = field(repr=False, compare=False)
    scan_scale: float = 1.0

    @cached_property
    def pseudo_abscissa(self):
        if not math.isnan(self.psi):
            return self.psi
        return psi_functional(self.generator, self.scan_scale)[0]


def evolution_generator(nu, k, bc, grid, ops):
    """Interior matrix of the evolution operator nu(k^2 - d2) + iky.

    Vorticity Dirichlet: plain interior restriction.  Velocity Dirichlet:
    the two wall values are slaved so the exp(+-ky) moments are conserved,
    which eliminates them from the interior dynamics.
    """
    a, _ = _generator_and_moments(nu, k, bc, grid, ops)
    return a


def _generator_and_moments(nu, k, bc, grid, ops):
    n = grid.n_points
    lmat = vorticity_matrix(ResolventCase(nu=nu, k=k, bc=bc), grid, ops)
    if bc == "navier_slip":
        return lmat[1:-1, 1:-1], None
    mom = wall_moment_rows(grid, k)
    rows = real_apply(mom, lmat)
    bnd = [0, n - 1]
    inner = np.arange(1, n - 1)
    slave = -np.linalg.solve(rows[:, bnd], rows[:, inner])  # w_bnd = slave @ w_int
    a = lmat[np.ix_(inner, inner)] + lmat[np.ix_(inner, bnd)] @ slave
    mom_int = mom[:, inner] + mom[:, bnd] @ slave
    return a, mom_int


def restricted_generator(nu, k, bc, grid, ops):
    """Generator in sqrt-weight coordinates, on its physical subspace, as a
    real matrix in the frame of the node reflection.

    The sqrt-weighted interior generator S a S^-1 is centrohermitian, so its
    real form Q^H S a S^-1 Q (`grid.real_form`) is real up to rounding,
    which is checked against FRAME_RESIDUE_MAX.  The slaved velocity-
    Dirichlet generator conserves the two wall moments, so it carries a
    two-dimensional neutral complement; the physics lives on the invariant
    moment-zero subspace.  That subspace is closed under w -> J conj(w), so
    in the frame it has a real orthonormal basis B: the null space of the
    real and imaginary parts of the frame moment rows, stacked (rank 2, not
    4).  The returned B^T (Q^H S a S^-1 Q) B is unitarily equivalent to the
    restriction, and singular values of (A - i lam) in it realize the
    weighted-L2 geometry.
    """
    a, mom = _generator_and_moments(nu, k, bc, grid, ops)
    sqw = np.sqrt(grid.quad_weights[1:-1])
    ax = real_form(a * (sqw[:, None] / sqw[None, :]))
    n = grid.n_points
    residue = np.linalg.norm(ax.imag) / np.linalg.norm(ax.real)
    if not residue <= FRAME_RESIDUE_MAX:
        raise RuntimeError(
            f"generator is not reflection symmetric at k = {k}, nu = {nu:g}, "
            f"N = {n}: relative imaginary residue of its real form "
            f"{residue:.3g} > {FRAME_RESIDUE_MAX:g}")
    ax = np.ascontiguousarray(ax.real)
    if mom is None:
        return ax
    rows = np.conj(to_real_frame(np.conj(mom / sqw[None, :])))
    rows = np.vstack([rows.real, rows.imag])
    basis = sla.null_space(rows, rcond=FRAME_RESIDUE_MAX)
    if basis.shape[1] != n - 4:
        s = sla.svdvals(rows)
        raise RuntimeError(
            f"moment-zero subspace is not reflection symmetric at k = {k}, "
            f"nu = {nu:g}, N = {n}: its frame moment rows have rank "
            f"{n - 2 - basis.shape[1]}, not 2 (second and third singular values "
            f"relative to the first {s[1] / s[0]:.3g}, {s[2] / s[0]:.3g}; "
            f"bound {FRAME_RESIDUE_MAX:g})")
    return basis.T @ ax @ basis


def psi_functional(ax, scan_scale, scan=None, refine=3):
    """min over real shifts of the smallest singular value of ax - i lam."""
    if scan is None:
        scan = np.linspace(-1.3 * scan_scale, 1.3 * scan_scale, 27)
    eye = np.eye(ax.shape[0])
    smin = lambda lam: sla.svdvals(ax - 1j * lam * eye)[-1]
    vals = [smin(lam) for lam in scan]
    j = int(np.argmin(vals))
    lo, hi = scan[max(j - 1, 0)], scan[min(j + 1, len(scan) - 1)]
    for _ in range(refine):
        scan = np.linspace(lo, hi, 9)
        vals = [smin(lam) for lam in scan]
        j = int(np.argmin(vals))
        lo, hi = scan[max(j - 1, 0)], scan[min(j + 1, len(scan) - 1)]
    return float(min(vals)), float(scan[j])


def spectrum(case, grid, ops, want_psi=None):
    """Eigenvalues (growth convention), spectral gap, and pseudospectral scans."""
    ax = restricted_generator(case.nu, case.k, case.bc, grid, ops)
    mu = -np.linalg.eigvals(ax)
    gap = float(-np.max(mu.real))
    if want_psi is None:
        want_psi = case.bc == "navier_slip"
    scale = float(abs(case.k))
    psi = psi_functional(ax, scale)[0] if want_psi else float("nan")
    return SpectralGapReport(eigenvalues=mu, gap=gap, psi=psi, generator=ax,
                             scan_scale=scale)


# -- weak-type pairing -------------------------------------------------------

def weak_resolvent_pairing(case, f, j, solution, grid, f2_norm, n_dense=20001):
    """Pairing <w, f> and its weak-type majorant for pair-forced solves.

    f is a callable on [-1, 1] with f(-j) = 0, j in {+1, -1}.  The majorant
    is |k|^{-1} ||F||_{H^-1} ( delta^{-3/2} sup_E |f| + |f(j)|(|j-lam|+delta)^{-3/4}
    delta^{-3/4} + ||f chi||_{H^1} + delta^{-1} ||f chi||_{L^2} ) with the
    regularized-reciprocal cutoff chi; the H^-1 size is taken as ||f2||_2.
    """
    delta = case.delta
    lam = case.lam
    pairing = quadrature(grid, solution.w * np.conj(f(grid.nodes)))
    ys = np.linspace(-1.0, 1.0, n_dense)
    fv = f(ys)
    chi = cutoff_chi(ys, lam, delta)
    g = fv * chi
    gp = np.gradient(g, ys)
    h1 = math.sqrt(np.trapezoid(np.abs(g) ** 2 + np.abs(gp) ** 2, ys))
    ltwo = math.sqrt(np.trapezoid(np.abs(g) ** 2, ys))
    band = np.abs(ys - lam) < delta
    sup_e = float(np.max(np.abs(fv[band]))) if band.any() else 0.0
    fj = abs(f(np.array([float(j)]))[0])
    major = (delta ** -1.5 * sup_e
             + fj * (abs(j - lam) + delta) ** -0.75 * delta ** -0.75
             + h1 + ltwo / delta) * f2_norm / abs(case.k)
    return complex(pairing), float(major)

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
discrete solution operator at the smallest singular value, computed by LU
power iteration in the quadrature-weighted norm.
"""

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
import scipy.linalg as sla
from scipy.linalg.blas import ztrsv

from .grid import (grid_for, l1_norm, l2_norm, quadrature, real_apply,
                   wall_moment_rows)
from .norms import norms
from .resolvent import (EPSILON_MAX, EllipticSolver, ResolventCase,
                        ResolventSolution, airy_admissible, airy_kernels,
                        bordered_vorticity_matrix, coefficient_rows,
                        direct_forcing, homogeneous_airy, homogeneous_bvp,
                        pair_forcing, recover_velocity, solve_nonslip,
                        vorticity_matrix, write_shear)
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

def _pivot_rows(piv):
    """Where each row of b lands in P b, for the getrf pivots piv (P A = L U).

    LAPACK swaps row i with row piv[i] for i = 0, 1, ...; the composed
    permutation is inverted so that (P b)[rows[j]] = b[j].
    """
    perm = list(range(len(piv)))
    for i, p in enumerate(piv.tolist()):
        perm[i], perm[p] = perm[p], perm[i]
    rows = np.empty(len(perm), dtype=np.intp)
    rows[perm] = np.arange(len(perm))
    return rows


def _power_sigma_max(apply_t, apply_th, dim, x0=None, iters=80, tol=1e-11):
    """Largest singular value and right singular vector of T by power
    iteration on T^H T (apply_t / apply_th are matrix-free).

    Returns (sigma, x, iterations, converged).  converged is False when the
    relative change of ||T^H T x|| was still above tol after `iters` steps;
    sigma and x are then the last iterate's.  The error contracts like
    (sigma_2 / sigma_1)^2 per step.
    """
    rng = np.random.default_rng(7)
    x = x0 if x0 is not None else rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
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
    kept in ``unconverged``, in visit order.
    """

    def __init__(self, nu, k, bc, data, n_override=None):
        self.nu, self.k, self.bc, self.data = nu, k, bc, data
        self.grid, self.ops = grid_for(nu, k, n_override)
        enforce_resolution_rule(nu, k, self.grid.order)
        self.elliptic = EllipticSolver(self.grid, self.ops, k)
        n = self.grid.n_points
        self.sqw = np.sqrt(self.grid.quad_weights)
        self.inner = slice(1, n - 1)
        self._warm = None
        self.unconverged = []
        # the bordered vorticity operator; each lambda rewrites only its
        # interior imaginary diagonal k(y - lam)
        self._operator = bordered_vorticity_matrix(
            ResolventCase(nu=nu, k=k, bc=bc), self.grid, self.ops)
        if bc == "non_slip":
            # (c1, c2) = sinh_rows @ w; complex, so the products with w are
            # single BLAS calls
            self.sinh_rows = coefficient_rows(self.grid, k)

    def _factor(self, lam, kernels=None):
        """(case, lu, walls) at lam.  lu is sla.lu_factor's (lu, piv) pair
        plus the rows of P b that the interior nodes land in; walls holds
        the homogeneous pair's w1, w2 as (2, N) rows, None for vorticity-
        Dirichlet walls."""
        case = ResolventCase(nu=self.nu, k=self.k, lam=lam, bc=self.bc)
        a = write_shear(self._operator.copy(order="F"), case, self.grid)
        lu, piv = sla.lu_factor(a, overwrite_a=True)
        walls = None
        if self.bc == "non_slip":
            if airy_admissible(case):
                pair = homogeneous_airy(case, self.grid, self.ops,
                                        elliptic=self.elliptic, kernels=kernels)
            else:
                pair = homogeneous_bvp(case, self.grid, self.ops)
            walls = np.array([pair.w1, pair.w2])
        return case, (lu, piv, _pivot_rows(piv)[self.inner]), walls

    def _apply_r(self, lu, walls, f_int):
        """forcing (interior nodal values) -> vorticity (all nodes).

        With P A = L U the forcing is scattered straight into the rows of
        P b, then one unit-lower and one upper triangular solve (ztrsv: one
        right-hand side through getrs/ztrsm costs 2-3 times as much).
        """
        a, _, rows = lu
        w = np.zeros(self.grid.n_points, dtype=complex)
        w[rows] = f_int
        ztrsv(a, w, lower=1, diag=1, overwrite_x=1)
        ztrsv(a, w, overwrite_x=1)
        if walls is not None:
            w += (self.sinh_rows @ w) @ walls
        return w

    def _apply_rh(self, lu, walls, y_full):
        """Adjoint of _apply_r: A^H = U^H L^H P, restricted to the interior."""
        a, _, rows = lu
        if walls is not None:
            y_full = y_full + (walls.conj() @ y_full) @ self.sinh_rows
        z = ztrsv(a, y_full, trans=2)
        ztrsv(a, z, lower=1, diag=1, trans=2, overwrite_x=1)
        return z[rows]

    def kernels_for(self, lambdas):
        """Airy wall kernels of every lambda from one batch; None for each
        lambda when the sweep's homogeneous pair is not the Airy one."""
        case = ResolventCase(nu=self.nu, k=self.k, bc=self.bc)
        if self.bc != "non_slip" or not airy_admissible(case):
            return [None] * len(lambdas)
        return airy_kernels([replace(case, lam=float(lam)) for lam in lambdas],
                            self.grid)

    def response_at(self, lam, kernels=None):
        """Top singular pair of the solution operator at lam; ``kernels`` is
        lam's slice of an airy_kernels batch, evaluated here when absent."""
        case, lu, walls = self._factor(lam, kernels)
        sq_in = self.sqw[self.inner]
        n = self.grid.n_points

        if self.data == "l2":
            def t(x):
                return self.sqw * self._apply_r(lu, walls, x / sq_in)

            def th(y):
                return self._apply_rh(lu, walls, self.sqw * y) / sq_in

            dim = n - 2
        else:  # divergence-pair data, f1 = 0: F = -d f2/dy, size ||f2||_2
            d1_in = self.ops.d1[self.inner]

            def t(x):
                f_int = -real_apply(d1_in, x / self.sqw)
                return self.sqw * self._apply_r(lu, walls, f_int)

            def th(y):
                z = self._apply_rh(lu, walls, self.sqw * y)
                return -real_apply(d1_in.T, z) / self.sqw

            dim = n

        sigma, x, _, converged = _power_sigma_max(t, th, dim, x0=self._warm)
        self._warm = x
        if not converged:
            self.unconverged.append(lam)
        return sigma, x, (case, lu, walls)

    def solution_for(self, x, ctx):
        """Assemble the maximizer's solution and its forcing norm."""
        case, lu, walls = ctx
        if self.data == "l2":
            f_int = x / self.sqw[self.inner]
            fnorm = math.sqrt(abs(np.sum(
                self.grid.quad_weights[self.inner] * np.abs(f_int) ** 2)))
        else:
            f2 = x / self.sqw
            fnorm = l2_norm(self.grid, f2)
            f_int = -real_apply(self.ops.d1, f2)[self.inner]
        w = self._apply_r(lu, walls, f_int)
        phi = self.elliptic.solve(w)
        sol = ResolventSolution(case=case, w=w, phi=phi,
                                u=recover_velocity(phi, case.k, self.ops))
        return sol, fnorm

    def sweep(self, lambdas=None, refine=14):
        if lambdas is None:
            lambdas = np.linspace(-1.5, 1.5, 41)
        sup = {}
        evals = []

        def visit(lam, kernels=None):
            sigma, x, ctx = self.response_at(float(lam), kernels)
            sol, fnorm = self.solution_for(x, ctx)
            nb = norms(sol, ctx[0], self.grid, self.ops)
            for key, val in nb.as_dict().items():
                sup[key] = max(sup.get(key, 0.0), val / fnorm)
            evals.append((float(lam), sigma))
            return sigma

        # the grid shares one Airy batch; the refinement visits evaluate
        # their own kernels, since each depends on the previous response
        vals = [visit(l, kern) for l, kern in zip(lambdas, self.kernels_for(lambdas))]
        j = int(np.argmax(vals))
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
    # (resolvent.coefficients), so no homogeneous pair is built; both
    # forcings share one factorization of the bordered operator per lambda,
    # and one product with the sinh rows gives [[c1, p1], [c2, p2]]
    case = ResolventCase(nu=nu, k=k, bc="non_slip")
    rhs = np.column_stack([f.nodal_rhs(case, g, ops) for f in
                           (direct_forcing(fvals), pair_forcing(f2=fvals))])
    rhs[[0, -1]] = 0.0
    operator = bordered_vorticity_matrix(case, g, ops)
    rows = coefficient_rows(g, k)
    scale_l2 = nu ** (-1 / 6) * abs(k) ** (-5 / 6) * fnorm
    scale_hm1 = nu ** (-0.5) * abs(k) ** (-0.5) * fnorm
    for lam in lambdas:
        a = write_shear(operator.copy(order="F"), replace(case, lam=float(lam)), g)
        w = sla.lu_solve(sla.lu_factor(a, overwrite_a=True), rhs)
        (c1, p1), (c2, p2) = rows @ w
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

    psi is the gap functional when it was asked for, NaN otherwise.
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
    """Generator in sqrt-weight coordinates, on its physical subspace.

    The slaved velocity-Dirichlet generator conserves the two wall moments,
    so it carries a two-dimensional neutral complement; the physics lives on
    the invariant moment-zero subspace, onto which the matrix is deflated
    here.  The returned matrix is similar to the restriction, and singular
    values of (A - i lam) in it realize the weighted-L2 geometry.
    """
    a, mom = _generator_and_moments(nu, k, bc, grid, ops)
    sqw = np.sqrt(grid.quad_weights[1:-1])
    ax = a * (sqw[:, None] / sqw[None, :])
    if mom is None:
        return ax
    qbasis = sla.null_space(mom / sqw[None, :])
    return qbasis.conj().T @ ax @ qbasis


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

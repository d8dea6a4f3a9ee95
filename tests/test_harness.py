import math

import numpy as np
import pytest
import scipy.linalg as sla

from couettelab.grid import build_diff_ops, build_grid, default_order, l2_norm
from couettelab import harness as H
from couettelab.norms import NormBundle, norms
from couettelab.resolvent import (ResolventCase, ResolventSolution,
                                  direct_forcing, pair_forcing,
                                  recover_velocity, solve_navier, solve_nonslip,
                                  vorticity_matrix, EllipticSolver)


def mkgrid(nu, k):
    g = build_grid(default_order(nu, k))
    return g, build_diff_ops(g)


def test_norm_bundle_examples():
    g, ops = mkgrid(1e-2, 1)
    case = ResolventCase(nu=1e-2, k=1, lam=0.0)
    zero = ResolventSolution(case=case, w=np.zeros(g.n_points, complex),
                             phi=np.zeros(g.n_points, complex),
                             u=(np.zeros(g.n_points, complex),) * 2)
    nb = norms(zero, case, g, ops)
    assert all(v == 0.0 for v in nb.as_dict().values())
    ell = EllipticSolver(g, ops, 1)
    w = np.ones(g.n_points, complex)
    phi = ell.solve(w)
    sol = ResolventSolution(case=case, w=w, phi=phi,
                            u=recover_velocity(phi, 1, ops))
    nb = norms(sol, case, g, ops)
    assert abs(nb.critical - math.sqrt(2.0 / 3.0)) < 1e-12
    # the boundary weight has a kink at y = 0: quadrature bias is O(N^-2)
    assert abs(nb.boundary_weight - 1.0) < 1e-3
    assert nb.l2 <= math.sqrt(2.0) * nb.linf + 1e-12
    assert abs(nb.h1_phi - nb.u_l2**2) < 1e-10


def test_fit_loglog_exact_power():
    xs = np.logspace(-6, -2, 7)
    fit = H.fit_loglog("t", xs, 3.0 * xs ** -0.5, target=-0.5)
    assert abs(fit.exponent + 0.5) < 1e-12
    assert fit.r2 > 1 - 1e-12 and fit.passed
    bad = H.fit_loglog("t", xs, 3.0 * xs ** -0.3, target=-0.5)
    assert not bad.passed
    # margin = |exponent - target| / tolerance
    assert fit.as_dict()["margin"] < 1e-9
    assert abs(bad.as_dict()["margin"] - 4.0) < 1e-9


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        H.verify_sweep("navier_l2", ())
    with pytest.raises(ValueError, match="2 decades"):
        H.verify_sweep("navier_l2", (1e-3, 5e-4))
    with pytest.raises(ValueError, match=r"nu k\^2 <= 1, got nu = 2.0"):
        H.verify_sweep("navier_l2", (2.0, 2e-2))


def test_sweep_checks_table():
    # names, data kinds and columns only; no sweep is run
    columns = set(NormBundle.__dataclass_fields__)
    for check, spec in H.SWEEP_CHECKS.items():
        assert spec["bc"] in ("navier_slip", "non_slip"), check
        for entries in (spec["fits"], spec["constants"]):
            names = [entry[0] for entry in entries]
            assert len(set(names)) == len(names), check
            for name, data, col, *_ in entries:
                assert data in ("l2", "pair"), name
                assert col in columns, name
    names = {check: ([f[0] for f in spec["fits"]], [c[0] for c in spec["constants"]])
             for check, spec in H.SWEEP_CHECKS.items()}
    assert names == {
        "navier_l2": (["navier_l2_w_l2", "navier_l2_u_l2", "navier_l2_w_prime",
                       "navier_l2_w_l1"],
                      ["const_w_l2", "const_u_l2", "const_critical", "const_w_l1",
                       "epsilon_times_C"]),
        "navier_hm1": (["navier_hm1_u_l2", "navier_hm1_w_l2"],
                       ["const_u_l2", "const_w_l2", "const_w_prime"]),
        "nonslip": (["nonslip_l2_w_l2", "nonslip_l2_w_l1", "nonslip_hm1_w_l2",
                     "nonslip_hm1_rho_w", "nonslip_hm1_u_l2"],
                    ["const_l2_w", "const_hm1_w", "const_hm1_u"]),
    }


def test_resolution_rule_enforced():
    with pytest.raises(ValueError, match="resolution rule"):
        H.enforce_resolution_rule(1e-6, 1, 128)
    H.enforce_resolution_rule(1e-3, 1, 80)


def test_worst_case_exceeds_fixed_forcing():
    # the adversarial forcing responds at least as strongly as a smooth one
    nu, k = 1e-3, 1
    g, ops = mkgrid(nu, k)
    sup, _ = H.worst_case_norms(nu, k, "navier_slip", "l2",
                                lambdas=np.linspace(-1, 1, 11))
    case = ResolventCase(nu=nu, k=k, lam=0.0)
    F = np.exp(1j * np.pi * g.nodes)
    sol = solve_navier(case, direct_forcing(F), g, ops)
    assert sup["l2"] >= l2_norm(g, sol.w) / l2_norm(g, F)


@pytest.mark.parametrize("data", ["l2", "pair"])
def test_worst_case_batched_kernels_match_per_lambda(data, monkeypatch):
    # the grid pass shares one Airy batch; evaluating each lambda alone
    # must give the same sup dict, bit for bit
    batched, _ = H.worst_case_norms(1e-3, 1, "non_slip", data)
    monkeypatch.setattr(H._WorstCaseSweeper, "kernels_for",
                        lambda self, lambdas: [None] * len(lambdas))
    alone, _ = H.worst_case_norms(1e-3, 1, "non_slip", data)
    assert batched == alone


@pytest.mark.parametrize("bc", ["navier_slip", "non_slip"])
def test_sweeper_operator_matches_bordered_vorticity_matrix(bc, monkeypatch):
    # the sweeper builds its bordered operator once and rewrites the shear
    # diagonal per lambda; every matrix it factors must equal the from-
    # scratch vorticity_matrix with Dirichlet rows, bit for bit
    factored = []
    lu_factor = H.sla.lu_factor

    def spy(a, *args, **kwargs):
        factored.append(np.ascontiguousarray(a))
        return lu_factor(a, *args, **kwargs)

    nu, k = 1e-3, 1
    sweeper = H._WorstCaseSweeper(nu, k, bc, "l2")
    monkeypatch.setattr(H.sla, "lu_factor", spy)
    grid_lams = np.linspace(-1.5, 1.5, 41)
    lams = [grid_lams[3], 0.123456, grid_lams[20], -1.37, grid_lams[40], 0.9]
    for lam in lams:
        sweeper._factor(float(lam))
    assert len(factored) == len(lams)
    n = sweeper.grid.n_points
    for lam, a in zip(lams, factored):
        case = ResolventCase(nu=nu, k=k, lam=float(lam), bc=bc)
        ref = vorticity_matrix(case, sweeper.grid, sweeper.ops)
        for i in (0, n - 1):
            ref[i, :] = 0.0
            ref[i, i] = 1.0
        assert np.array_equal(a.view(np.uint64), ref.view(np.uint64))


def test_power_iteration_reports_convergence():
    rng = np.random.default_rng(3)
    q1, _ = np.linalg.qr(rng.standard_normal((12, 12)))
    q2, _ = np.linalg.qr(rng.standard_normal((12, 12)))

    def run(svals, iters):
        t = q1 @ np.diag(svals) @ q2.T
        return H._power_sigma_max(lambda x: t @ x, lambda y: t.T @ y, 12,
                                  iters=iters)

    close = np.linspace(1.0, 0.5, 12)
    close[1] = 0.999                 # sigma_2 / sigma_1 ~ 1
    _, _, its, converged = run(close, 5)
    assert not converged and its == 5
    sigma, _, its, converged = run(np.logspace(0, -3, 12), 80)
    assert converged and its < 80
    assert abs(sigma - 1.0) <= 1e-10


@pytest.mark.parametrize("order", [80, 81])
def test_triangular_solves_match_lu_solve(order):
    # the sweeper applies its LU factors by two ztrsv calls after a row
    # scatter; forward and adjoint solves must agree with getrs
    sweeper = H._WorstCaseSweeper(1e-3, 1, "navier_slip", "l2", n_override=order)
    n = sweeper.grid.n_points
    case, (lu, piv, rows), walls = sweeper._factor(0.37)
    assert walls is None
    # ztrsv's f2py wrapper would silently copy a C-ordered factor per call
    assert lu.flags.f_contiguous
    assert not np.array_equal(piv, np.arange(n))   # pivoting did swap rows
    rng = np.random.default_rng(order)
    for _ in range(3):
        f_int = rng.standard_normal(n - 2) + 1j * rng.standard_normal(n - 2)
        rhs = np.zeros(n, dtype=complex)
        rhs[1:-1] = f_int
        ref = sla.lu_solve((lu, piv), rhs)
        got = sweeper._apply_r((lu, piv, rows), None, f_int)
        assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        ref = sla.lu_solve((lu, piv), y, trans=2)[1:-1]
        got = sweeper._apply_rh((lu, piv, rows), None, y)
        assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


def _lu_solve_apply_r(self, lu, walls, f_int):
    """The sweeper's forward solve through scipy's lu_solve (reference)."""
    rhs = np.zeros(self.grid.n_points, dtype=complex)
    rhs[1:-1] = f_int
    w = sla.lu_solve(lu[:2], rhs)
    if walls is not None:
        s1, s2 = self.sinh_rows.real
        w = w + (s1 @ w) * walls[0] + (s2 @ w) * walls[1]
    return w


def _lu_solve_apply_rh(self, lu, walls, y_full):
    """The sweeper's adjoint solve through scipy's lu_solve (reference)."""
    if walls is not None:
        s1, s2 = self.sinh_rows.real
        y_full = y_full + s1 * np.vdot(walls[0], y_full) \
            + s2 * np.vdot(walls[1], y_full)
    return sla.lu_solve(lu[:2], y_full, trans=2)[1:-1]


@pytest.mark.parametrize("bc", ["navier_slip", "non_slip"])
@pytest.mark.parametrize("data", ["l2", "pair"])
def test_sweep_matches_lu_solve_reference(bc, data, monkeypatch):
    def run():
        sweeper = H._WorstCaseSweeper(1e-3, 1, bc, data)
        sup, evals = sweeper.sweep()
        return sup, evals, sweeper.unconverged

    sup, evals, unconverged = run()
    monkeypatch.setattr(H._WorstCaseSweeper, "_apply_r", _lu_solve_apply_r)
    monkeypatch.setattr(H._WorstCaseSweeper, "_apply_rh", _lu_solve_apply_rh)
    ref_sup, ref_evals, ref_unconverged = run()
    assert sup.keys() == ref_sup.keys()
    for key, val in ref_sup.items():
        assert abs(sup[key] - val) <= 1e-12 * abs(val), key
    assert [lam for lam, _ in evals] == [lam for lam, _ in ref_evals]
    for (_, sigma), (_, ref) in zip(evals, ref_evals):
        assert abs(sigma - ref) <= 1e-12 * ref
    assert unconverged == ref_unconverged


def test_sweep_rows_report_power_unconverged(monkeypatch):
    # every lambda of the sweep (41 grid points, 2 + 14 golden visits)
    # stops at a 3-iteration cap
    power = H._power_sigma_max
    monkeypatch.setattr(H, "_power_sigma_max",
                        lambda *args, **kw: power(*args, **dict(kw, iters=3)))
    _, rows = H.verify_navier_k((1, 2), nu=1e-3)
    assert [r["power_unconverged"] for r in rows] == [57, 57]
    monkeypatch.setattr(H, "_power_sigma_max", power)
    _, rows = H.verify_navier_k((1, 2), nu=1e-3)
    assert [r["power_unconverged"] for r in rows] == [0, 0]


def test_spectrum_navier_psi_bound():
    nu, k = 1e-3, 1
    g, ops = mkgrid(nu, k)
    rep = H.spectrum(ResolventCase(nu=nu, k=k, bc="navier_slip"), g, ops)
    assert rep.psi <= rep.gap + 1e-8
    c = (rep.psi - nu) / (nu * k**2) ** (1 / 3)
    assert c > 0.0
    assert rep.gap > 0.0


def test_spectrum_nonslip_gap_positive():
    nu, k = 1e-3, 1
    g, ops = mkgrid(nu, k)
    rep = H.spectrum(ResolventCase(nu=nu, k=k, bc="non_slip"), g, ops,
                     want_psi=False)
    assert rep.gap > 0.0
    assert rep.pseudo_abscissa > 0.0
    assert rep.pseudo_abscissa <= rep.gap + 1e-8
    assert math.isnan(rep.psi)


def test_spectrum_k_zero_rejected():
    with pytest.raises(ValueError):
        ResolventCase(nu=1e-3, k=0, bc="navier_slip")


def test_verify_navier_k_small():
    fits, rows = H.verify_navier_k((1, 2, 4, 8, 16), nu=1e-4)
    assert fits[0].passed, fits[0]


def test_verify_nonslip_large_regime():
    val = H.verify_nonslip_large(nu=0.25, k=4)
    val2 = H.verify_nonslip_large(nu=0.25, k=4, n_override=96)
    assert val > 0
    assert abs(val - val2) <= 0.01 * val  # refinement-stable constant
    with pytest.raises(ValueError):
        H.verify_nonslip_large(nu=1e-4, k=1)


def test_weak_resolvent_pairing():
    nu, k, lam = 1e-3, 1, 0.3
    g, ops = mkgrid(nu, k)
    case = ResolventCase(nu=nu, k=k, lam=lam, bc="navier_slip")
    f2 = np.cos(np.pi * g.nodes / 2).astype(complex)
    sol = solve_navier(case, pair_forcing(f2=f2), g, ops)
    zero = lambda y: np.zeros_like(np.asarray(y, dtype=float))
    p, _ = H.weak_resolvent_pairing(case, zero, 1, sol, g, l2_norm(g, f2))
    assert p == 0j
    s2k = math.sinh(2 * k)
    f = lambda y: np.sinh(k * (1 + np.asarray(y, dtype=float))) / s2k
    pairing, major = H.weak_resolvent_pairing(case, f, 1, sol, g, l2_norm(g, f2))
    ratio = abs(pairing) / major
    assert ratio <= 1.5  # recorded constant of order one
    # majorant stable under a denser evaluation grid
    _, major2 = H.weak_resolvent_pairing(case, f, 1, sol, g, l2_norm(g, f2),
                                         n_dense=40001)
    assert abs(major - major2) <= 1e-3 * major2


def test_weak_pairing_ratio_over_lambda_grid():
    nu, k = 1e-3, 1
    g, ops = mkgrid(nu, k)
    f2 = np.cos(np.pi * g.nodes / 2).astype(complex)
    s2k = math.sinh(2 * k)
    f = lambda y: np.sinh(k * (1 + np.asarray(y, dtype=float))) / s2k
    worst = 0.0
    for lam in np.linspace(-1.2, 1.2, 9):
        case = ResolventCase(nu=nu, k=k, lam=float(lam), bc="navier_slip")
        sol = solve_navier(case, pair_forcing(f2=f2), g, ops)
        pairing, major = H.weak_resolvent_pairing(case, f, 1, sol, g,
                                                  l2_norm(g, f2))
        worst = max(worst, abs(pairing) / major)
    assert worst <= 1.5


def test_c_bounds_recorded_constants():
    out, n = H.verify_c_bounds(1e-3, 1, lambdas=np.linspace(-2, 2, 9))
    assert all(v > 0 for v in out.values())
    assert all(v < 50 for v in out.values())


def test_w12_bounds_recorded_constants():
    out = H.verify_w12_bounds([1e-3, 1e-4], [1], [0.0, 0.9])
    assert 0 < out["w12_l1"] < 20
    assert 0 < out["w1_linf"] < 20
    assert 0 < out["w1_rho_half"] < 20
    assert 0 < out["w1_rho_neg_quarter"] < 20


def test_elliptic_bound_constants():
    # recovered stream functions obey the L1- and L2-driven sup bounds
    import couettelab.resolvent as R
    nu, k = 1e-3, 2
    g, ops = mkgrid(nu, k)
    case = ResolventCase(nu=nu, k=k, lam=0.3, bc="non_slip")
    c_l1 = c_l2 = 0.0
    for lam in (-0.5, 0.0, 0.8):
        sol = solve_nonslip(ResolventCase(nu=nu, k=k, lam=lam, bc="non_slip"),
                            direct_forcing(np.exp(1j * np.pi * g.nodes)), g, ops)
        nb = norms(sol, case, g, ops)
        phip = ops.d1 @ sol.phi
        sup = float(np.max(np.abs(phip)) + abs(k) * np.max(np.abs(sol.phi)))
        c_l1 = max(c_l1, sup / nb.l1)                      # sup <= C |w|_L1
        c_l2 = max(c_l2, sup * abs(k) ** 0.5 / nb.l2)      # sup <= C |k|^{-1/2} |w|_L2
    assert 0 < c_l1 < 10.0
    assert 0 < c_l2 < 10.0


def test_wall_coefficient_magnitude_bound():
    # |C11| |A0(Ld + i eps)| / (L e^{-2k}) stays order one across cases
    import couettelab.resolvent as R
    from couettelab.airy import a0_scaled
    worst = -math.inf
    for nu, k, lam in [(1e-3, 1, 0.0), (1e-4, 1, 0.5), (1e-4, 2, -0.8)]:
        g, ops = mkgrid(nu, k)
        case = ResolventCase(nu=nu, k=k, lam=lam, bc="non_slip")
        pair = R.homogeneous_airy(case, g, ops)
        L = case.L
        d = -1 - lam - 1j * k * nu
        m, s = a0_scaled(L * d + 1j * case.epsilon)
        log_bound = pair.C11.abs_log() + (s + math.log(abs(m))) \
            - (math.log(L) - 2 * k)
        worst = max(worst, log_bound)
    assert worst < math.log(10.0), worst


def test_single_case_refinement_sanity():
    # constant ratio ||w||/||F|| at (1e-4, 1, 0) stable under N doubling
    nu, k = 1e-4, 1
    vals = []
    for n in (default_order(nu, k), 2 * default_order(nu, k)):
        g, ops = mkgrid(nu, k) if n == default_order(nu, k) else \
            (build_grid(n), build_diff_ops(build_grid(n)))
        g = build_grid(n)
        ops = build_diff_ops(g)
        F = np.exp(1j * np.pi * g.nodes)
        sol = solve_navier(ResolventCase(nu=nu, k=k, lam=0.0),
                           direct_forcing(F), g, ops)
        vals.append(l2_norm(g, sol.w) / l2_norm(g, F))
    assert abs(vals[0] - vals[1]) <= 1e-6 * vals[1]


def test_c1_far_field_decay():
    # |c1| decays at least like |k(lam-1)|^{-1} between two far-field lambdas
    nu, k = 1e-4, 1
    g, ops = mkgrid(nu, k)
    F = direct_forcing(np.exp(1j * np.pi * g.nodes))
    vals = {}
    for lam in (-3.0, -6.0):
        sol = solve_nonslip(ResolventCase(nu=nu, k=k, lam=lam, bc="non_slip"),
                            F, g, ops)
        vals[lam] = abs(sol.c1)
    expected = abs(k * (-6.0 - 1)) / abs(k * (-3.0 - 1))  # = 7/4
    assert vals[-3.0] / vals[-6.0] >= expected * 0.9

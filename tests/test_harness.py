import math

import numpy as np
import pytest
import scipy.linalg as sla

from couettelab.grid import (build_diff_ops, build_grid, default_order, l2_norm,
                             real_form, reflection_blocks)
from couettelab import harness as H
from couettelab import resolvent as R
from couettelab.norms import NormBundle, norms
from couettelab.resolvent import (HessenbergResolvent, ResolventCase,
                                  ResolventSolution, bordered_vorticity_matrix,
                                  direct_forcing, pair_forcing,
                                  recover_velocity, solve_navier, solve_nonslip,
                                  EllipticSolver)


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


@pytest.mark.parametrize("bc", ["navier_slip", "non_slip"])
def test_sweeper_operator_matches_bordered_vorticity_matrix(bc):
    # the sweeper's forward and adjoint solves (one Hessenberg reduction,
    # a banded factor per lambda) against dense solves of the from-scratch
    # bordered vorticity matrix with zero wall rows, and of its conjugate
    # transpose; orders 80 and 81 give an odd and an even interior
    nu = 2e-3
    rng = np.random.default_rng(5)
    for order in (80, 81):
        for k in (1, 2, -2):
            sweeper = H._WorstCaseSweeper(nu, k, bc, "l2", n_override=order)
            n = sweeper.grid.n_points
            for lam in (-1.37, 0.0, 0.37, 0.9):
                a = bordered_vorticity_matrix(
                    ResolventCase(nu=nu, k=k, lam=lam, bc=bc),
                    sweeper.grid, sweeper.ops)
                f_int = rng.standard_normal(n - 2) + 1j * rng.standard_normal(n - 2)
                rhs = np.zeros(n, dtype=complex)
                rhs[1:-1] = f_int
                ref = np.linalg.solve(a, rhs)
                got = sweeper._apply_r(lam, f_int)
                assert np.linalg.norm(got - ref) <= 1e-11 * np.linalg.norm(ref), \
                    (order, k, lam)
                y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                ref = np.linalg.solve(a.conj().T, y)[1:-1]
                red = sweeper.reduced
                got = red.sq * red.from_hessenberg(red.solve_adjoint(
                    lam, y[[0, -1]], red.to_hessenberg(y[1:-1] / red.sq)))
                assert np.linalg.norm(got - ref) <= 1e-11 * np.linalg.norm(ref), \
                    (order, k, lam)


def _band_to_dense(band):
    """Dense upper Hessenberg H from LAPACK band storage with kl = 1."""
    m = band.shape[1]
    h = np.zeros((m, m))
    for j in range(m):
        rows = min(j + 2, m)
        h[:rows, j] = band[m - j:m - j + rows, j]
    return h


@pytest.mark.parametrize("order, epsilon", [(80, 0.0), (81, 0.0), (80, R.EPSILON_MAX)],
                         ids=["80", "81", "80-epsilon_max"])
def test_hessenberg_reduction_reproduces_real_form(order, epsilon):
    # Q_h H Q_h^T against the real form Q^H S A_ii S^-1 Q of the interior
    # block, built densely by grid.real_form; both walls share it
    nu, k = 1e-3, 2 if order == 80 else -1
    g = build_grid(order)
    ops = build_diff_ops(g)
    reds = [HessenbergResolvent(ResolventCase(nu=nu, k=k, epsilon=epsilon, bc=bc),
                                g, ops)
            for bc in ("navier_slip", "non_slip")]
    assert np.array_equal(reds[0]._band, reds[1]._band)
    assert np.array_equal(reds[0].q_h, reds[1].q_h)
    red = reds[0]
    a = bordered_vorticity_matrix(ResolventCase(nu=nu, k=k, epsilon=epsilon), g, ops)
    sq = np.sqrt(g.quad_weights[1:-1])
    m_r = real_form(a[1:-1, 1:-1] * (sq[:, None] / sq[None, :]))
    assert np.linalg.norm(m_r.imag) <= 1e-13 * np.linalg.norm(m_r.real)
    _, kept, dropped = reflection_blocks(ops.d2)
    assert dropped / kept <= 1e-13
    h = _band_to_dense(red._band)
    assert np.array_equal(h, np.triu(h, -1))
    q_h = red.q_h
    assert np.abs(q_h.T @ q_h - np.eye(g.n_points - 2)).max() <= 1e-13
    assert np.linalg.norm(q_h @ h @ q_h.T - m_r.real) <= 1e-13 * np.linalg.norm(m_r.real)


@pytest.mark.parametrize("nu", [1e-3, 1e-4])
@pytest.mark.parametrize("data", ["l2", "pair"])
def test_sweeper_maximizer_matches_decomposed_solve(nu, data):
    # the sweeper's moment-bordered operator against the decomposition
    # w_na + c1 w1 + c2 w2 with the slanted-Airy pair, on the maximizer
    sweeper = H._WorstCaseSweeper(nu, 1, "non_slip", data)
    _, x, ctx = sweeper.response_at(0.3)
    sol, _ = sweeper.solution_for(x, ctx)
    g = sweeper.grid
    if data == "l2":
        F = np.zeros(g.n_points, dtype=complex)
        F[1:-1] = x / sweeper.sqw[1:-1]
        forcing = direct_forcing(F)
    else:
        forcing = pair_forcing(f2=x / sweeper.sqw)
    ref = solve_nonslip(ctx[0], forcing, g, sweeper.ops, path="decomposed")
    assert ref.path == "decomposed/airy"
    assert np.linalg.norm(sol.w - ref.w) <= 1e-10 * np.linalg.norm(ref.w)


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


class _DenseLUSweeper(H._WorstCaseSweeper):
    """The sweep with one dense LU of bordered_vorticity_matrix per lambda
    and the power iteration on node values (reference)."""

    def _factor(self, lam):
        if getattr(self, "_held", (None,))[0] != lam:
            a = bordered_vorticity_matrix(
                ResolventCase(nu=self.nu, k=self.k, lam=lam, bc=self.bc),
                self.grid, self.ops)
            self._held = (lam, sla.lu_factor(a))
        return self._held[1]

    def _apply_r(self, lam, f_int):
        rhs = np.zeros(self.grid.n_points, dtype=complex)
        rhs[1:-1] = f_int
        return sla.lu_solve(self._factor(lam), rhs)

    def _apply_rh(self, lam, y_full):
        return sla.lu_solve(self._factor(lam), y_full, trans=2)[1:-1]

    def response_at(self, lam):
        sqw, sq_in = self.sqw, self.sqw[1:-1]
        if self.data == "l2":
            def t(x):
                return sqw * self._apply_r(lam, x / sq_in)

            def th(y):
                return self._apply_rh(lam, sqw * y) / sq_in
        else:
            d1_in = self.ops.d1[1:-1]

            def t(x):
                return sqw * self._apply_r(lam, -d1_in @ (x / sqw))

            def th(y):
                return -d1_in.T @ self._apply_rh(lam, sqw * y) / sqw
        dim = self.grid.n_points - 2 * (self.data == "l2")
        sigma, x, _, converged = H._power_sigma_max(t, th, dim, x0=self._warm)
        self._warm = x
        if not converged:
            self.unconverged.append(lam)
        return sigma, x, (ResolventCase(nu=self.nu, k=self.k, lam=lam, bc=self.bc),)


@pytest.mark.parametrize("bc", ["navier_slip", "non_slip"])
@pytest.mark.parametrize("data", ["l2", "pair"])
def test_sweep_matches_lu_solve_reference(bc, data):
    def run(cls):
        sweeper = cls(1e-3, 1, bc, data)
        sup, evals = sweeper.sweep()
        return sup, evals, sweeper.unconverged

    sup, evals, unconverged = run(H._WorstCaseSweeper)
    ref_sup, ref_evals, ref_unconverged = run(_DenseLUSweeper)
    assert sup.keys() == ref_sup.keys()
    for key, val in ref_sup.items():
        assert abs(sup[key] - val) <= 1e-12 * abs(val), key
    assert [lam for lam, _ in evals] == [lam for lam, _ in ref_evals]
    for (_, sigma), (_, ref) in zip(evals, ref_evals):
        assert abs(sigma - ref) <= 1e-12 * ref
    assert unconverged == ref_unconverged


def test_sweep_negative_k_matches_positive_k():
    # the operator at -k is the conjugate of the one at k, so the sweep
    # visits the same lambdas and finds the same suprema; the two
    # Hessenberg reductions differ in rounding only, which may move a power
    # iteration's stop by one step: sigma^2 is converged to 1e-11
    out = {}
    for k in (2, -2):
        sweeper = H._WorstCaseSweeper(1e-3, k, "non_slip", "pair")
        out[k] = sweeper.sweep() + (sweeper.unconverged,)
    (sup, evals, unconverged), (ref_sup, ref_evals, ref_unconverged) = out[-2], out[2]
    assert sup.keys() == ref_sup.keys()
    for key, val in ref_sup.items():
        assert abs(sup[key] - val) <= 1e-12 * abs(val), key
    assert [lam for lam, _ in evals] == [lam for lam, _ in ref_evals]
    for (_, sigma), (_, ref) in zip(evals, ref_evals):
        assert abs(sigma - ref) <= 1e-11 * ref
    assert unconverged == ref_unconverged


def test_sweep_refines_positive_side_on_mirror_tie(monkeypatch):
    # sigma(lam) = sigma(-lam): the symmetric grid has two peaks equal to
    # rounding; a 1e-14 boost of the lam < 0 one must not move the
    # refinement off the lam > 0 side
    response_at = H._WorstCaseSweeper.response_at

    def boosted(self, lam):
        sigma, x, ctx = response_at(self, lam)
        return sigma * (1 + 1e-14) if lam < 0 else sigma, x, ctx

    lambdas = np.linspace(-1.5, 1.5, 41)
    for patch in (False, True):
        if patch:
            monkeypatch.setattr(H._WorstCaseSweeper, "response_at", boosted)
        sweeper = H._WorstCaseSweeper(1e-3, 1, "navier_slip", "l2")
        _, evals = sweeper.sweep(lambdas=lambdas)
        grid_sigma = np.array([sigma for _, sigma in evals[:41]])
        peak = int(np.argmax(grid_sigma))
        assert abs(lambdas[peak] + lambdas[40 - peak]) < 1e-15
        assert grid_sigma[40 - peak] >= (1 - 1e-13) * grid_sigma[peak]
        if patch:
            assert lambdas[peak] < 0          # np.argmax alone would go left
        assert all(lam > 0 for lam, _ in evals[41:])


def test_sweep_and_c_bounds_factor_no_dense_lu_per_lambda(monkeypatch):
    # one Hessenberg reduction per sweeper or c-bounds call and one banded
    # factor per lambda; no dense factorization or solve once the reduction
    # is built
    calls = {"lu_factor": [], "dense_solve": [], "hessenberg": [], "zgbtrf": []}

    def spy(name, fn):
        def wrapped(a, *args, **kwargs):
            calls[name].append(np.shape(a)[0])
            return fn(a, *args, **kwargs)
        return wrapped

    def counts():
        out = {name: sizes[:] for name, sizes in calls.items()}
        for sizes in calls.values():
            sizes.clear()
        return out

    monkeypatch.setattr(H.sla, "lu_factor", spy("lu_factor", H.sla.lu_factor))
    monkeypatch.setattr(np.linalg, "solve", spy("dense_solve", np.linalg.solve))
    monkeypatch.setattr(R.sla, "hessenberg", spy("hessenberg", R.sla.hessenberg))
    monkeypatch.setattr(R, "zgbtrf", spy("zgbtrf", R.zgbtrf))
    for bc in ("navier_slip", "non_slip"):
        sweeper = H._WorstCaseSweeper(1e-3, 1, bc, "pair")
        n = sweeper.grid.n_points
        # EllipticSolver's LUs of its two frame blocks and the reduction
        assert counts() == {"lu_factor": [n - n // 2, n // 2], "dense_solve": [],
                            "hessenberg": [n - 2], "zgbtrf": []}
        _, evals = sweeper.sweep()
        got = counts()
        assert got["lu_factor"] == got["dense_solve"] == got["hessenberg"] == []
        assert len(got["zgbtrf"]) == len(evals) == 57
    lambdas = np.linspace(-2, 2, 9)
    _, order = H.verify_c_bounds(1e-3, 1, lambdas=lambdas)
    assert counts() == {"lu_factor": [], "dense_solve": [], "hessenberg": [order - 1],
                        "zgbtrf": [order + 1] * len(lambdas)}


def test_reduction_guards_name_their_quantity(monkeypatch):
    # its reflection guard is grid.frame_blocks' one
    # (test_one_reflection_guard_refuses_every_consumer)
    g = build_grid(80)
    ops = build_diff_ops(g)
    case = ResolventCase(nu=1e-3, k=2, bc="non_slip")
    red = HessenbergResolvent(case, g, ops)
    monkeypatch.setattr(R, "zgbtrf", lambda ab, kl, ku, overwrite_ab: (ab, None, 7))
    with pytest.raises(RuntimeError, match=r"singular \(zgbtrf info = 7\) at "
                                           r"lam = 0.25, nu = 0.001, k = 2"):
        red.solve(0.25, np.ones(g.n_points - 2, dtype=complex))
    monkeypatch.undo()
    monkeypatch.setattr(R, "INFLUENCE_COND_MAX", 1.0)
    with pytest.raises(RuntimeError, match=r"influence matrix at lam = 0.25, "
                                           r"nu = 0.001, k = 2: cond = "):
        red.solve(0.25, np.ones(g.n_points - 2, dtype=complex))


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


def complex_deflated_generator(nu, k, bc, g, ops):
    """Reference generator: the sqrt-weighted interior generator in node
    space, deflated (velocity Dirichlet) by a complex orthonormal basis of
    the moment-zero subspace."""
    a, mom = H._generator_and_moments(nu, k, bc, g, ops)
    sqw = np.sqrt(g.quad_weights[1:-1])
    ax = a * (sqw[:, None] / sqw[None, :])
    if mom is None:
        return ax
    basis = sla.null_space(mom / sqw[None, :])
    return basis.conj().T @ ax @ basis


@pytest.mark.parametrize("order", [80, 81])          # odd and even n_points
@pytest.mark.parametrize("bc", ["navier_slip", "non_slip"])
def test_real_frame_generator_matches_complex_deflation(bc, order):
    nu, k = 1e-3, 1
    g = build_grid(order)
    ops = build_diff_ops(g)
    ax = H.restricted_generator(nu, k, bc, g, ops)
    ref = complex_deflated_generator(nu, k, bc, g, ops)
    assert ax.dtype == np.float64 and ax.shape == ref.shape
    assert ax.shape[0] == g.n_points - (4 if bc == "non_slip" else 2)
    rep = H.spectrum(ResolventCase(nu=nu, k=k, bc=bc), g, ops, want_psi=True)
    assert rep.generator is not None and rep.generator.dtype == np.float64
    gap_ref = float(np.min(np.linalg.eigvals(ref).real))
    assert abs(rep.gap - gap_ref) <= 1e-11 * gap_ref
    psi_ref = H.psi_functional(ref, float(k))[0]
    assert abs(rep.psi - psi_ref) <= 1e-12 * psi_ref
    eye = np.eye(ax.shape[0])
    for lam in (-0.6, 0.05, 0.9):
        s = sla.svdvals(ax - 1j * lam * eye)
        s_ref = sla.svdvals(ref - 1j * lam * eye)
        assert np.abs(s - s_ref).max() <= 1e-12 * s_ref[0], lam


def test_generator_guards_name_their_quantity(monkeypatch):
    nu, k = 1e-3, 1
    g, ops = mkgrid(nu, k)
    build = H._generator_and_moments

    def lopsided(nu, k, bc, grid, ops):
        a, mom = build(nu, k, bc, grid, ops)
        a[1, 2] *= 1 + 1e-6            # breaks the node reflection
        return a, mom

    monkeypatch.setattr(H, "_generator_and_moments", lopsided)
    for bc in ("navier_slip", "non_slip"):
        with pytest.raises(RuntimeError, match=r"generator is not reflection symmetric "
                           rf"at k = 1, nu = 0.001, N = {g.n_points}: relative "
                           r"imaginary residue"):
            H.restricted_generator(nu, k, bc, g, ops)

    def tilted_moments(nu, k, bc, grid, ops):
        a, mom = build(nu, k, bc, grid, ops)
        return a, mom * (1 + 1e-3 * grid.nodes[1:-1])   # not closed under J conj

    monkeypatch.setattr(H, "_generator_and_moments", tilted_moments)
    with pytest.raises(RuntimeError, match=r"moment-zero subspace is not reflection "
                       rf"symmetric at k = 1, nu = 0.001, N = {g.n_points}: its "
                       r"frame moment rows have rank [34], not 2"):
        H.restricted_generator(nu, k, "non_slip", g, ops)


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

import math

import numpy as np
import pytest

from couettelab.grid import (build_diff_ops, build_grid, default_order, l2_norm,
                             reflection_blocks, wall_moment_residuals)
from couettelab import evolution as E
from couettelab.harness import spectrum
from couettelab.resolvent import FRAME_RESIDUE_MAX, ResolventCase
from couettelab.weights import rho_k


def mkgrid(nu, k):
    g = build_grid(default_order(nu, k))
    return g, build_diff_ops(g)


def moment_free_data(g, ops, k, phase=0.5j * np.pi):
    phi0 = (1 - g.nodes**2) ** 2 * np.exp(phase * g.nodes)
    return (ops.d2 - k**2 * np.eye(g.n_points)) @ phi0


def test_case_validation():
    g, ops = mkgrid(1e-3, 1)
    w0 = moment_free_data(g, ops, 1)
    with pytest.raises(ValueError):
        E.EvolutionCase(nu=1e-3, k=1, omega0=w0, dt=-0.1, t_end=1.0)
    with pytest.raises(ValueError, match="accuracy rule"):
        E.EvolutionCase(nu=1e-3, k=1, omega0=w0, dt=1.0, t_end=1.0)
    # a wall setting outside resolvent.BCS is refused, not run as w(+-1) = 0
    message = r"bc must be one of \('navier_slip', 'non_slip'\), got 'slip'"
    with pytest.raises(ValueError, match=message):
        E.EvolutionCase(nu=1e-3, k=1, omega0=w0, dt=0.05, t_end=1.0, bc="slip")
    with pytest.raises(ValueError, match=message):
        E.CrankNicolson(1e-3, 1, "slip", 0.05, g, ops)


def test_moment_guard():
    g, ops = mkgrid(1e-3, 1)
    bad = np.exp(g.nodes).astype(complex)
    case = E.EvolutionCase(nu=1e-3, k=1, omega0=bad, dt=0.05, t_end=1.0,
                           bc="non_slip")
    with pytest.raises(ValueError, match="moment"):
        E.run(case, g, ops)


def test_zero_stays_zero():
    g, ops = mkgrid(1e-3, 1)
    for bc in ("navier_slip", "non_slip"):
        stepper = E.CrankNicolson(1e-3, 1, bc, 0.05, g, ops)
        w = np.zeros(g.n_points, complex)
        for _ in range(5):
            w = stepper.step(w)
        assert np.max(np.abs(w)) == 0.0


def dense_cn_step(nu, k, bc, dt, g, ops, w, r, targets):
    """Reference CN step: one dense solve of M+ w' = M- w + dt r with the two
    wall rows replaced by w = 0 (navier_slip) or by the wall moments set to
    their targets (non_slip)."""
    n = g.n_points
    y = g.nodes
    lmat = nu * (k**2 * np.eye(n) - ops.d2) + 1j * k * np.diag(y)
    m_plus = np.eye(n) + 0.5 * dt * lmat
    rhs = (np.eye(n) - 0.5 * dt * lmat) @ w + dt * r
    if bc == "navier_slip":
        m_plus[[0, -1]] = np.eye(n)[[0, -1]]
        rhs[[0, -1]] = 0.0
    else:
        q = g.quad_weights
        m_plus[[0, -1]] = np.vstack([q * np.exp(k * y), q * np.exp(-k * y)])
        rhs[[0, -1]] = targets
    return np.linalg.solve(m_plus, rhs)


@pytest.mark.parametrize("bc, targets", [
    ("navier_slip", (0.0, 0.0)),
    ("non_slip", (0.0, 0.0)),
    ("non_slip", (0.3 - 0.2j, -0.1 + 0.4j)),
])
def test_cn_step_matches_dense_bordered_solve(bc, targets):
    nu, k = 1e-3, 2
    g, ops = mkgrid(nu, k)
    dt = E.dt_accuracy_bound(nu, k)
    rng = np.random.default_rng(3)
    c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    w = moment_free_data(g, ops, k) * np.polyval(c, g.nodes)
    r = np.cos(np.pi * g.nodes / 2) * np.polyval(c[::-1], g.nodes)
    stepper = E.CrankNicolson(nu, k, bc, dt, g, ops)
    for _ in range(3):
        ref = dense_cn_step(nu, k, bc, dt, g, ops, w, r, targets)
        out = stepper.step(w, rhs_mid=r, moment_targets=targets)
        assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(ref)
        w = ref


def test_influence_matrix_guard(monkeypatch):
    g, ops = mkgrid(1e-3, 1)

    def degenerate_rows(grid, k):
        row = grid.quad_weights * np.exp(k * grid.nodes)
        return np.vstack([row, 0.0 * row])

    monkeypatch.setattr(E, "wall_moment_rows", degenerate_rows)
    with pytest.raises(RuntimeError, match="influence matrix at k = 1, "
                       "nu = 0.001, dt = 0.05: cond = "):
        E.CrankNicolson(1e-3, 1, "non_slip", 0.05, g, ops)
    # vorticity-Dirichlet walls use no influence matrix
    E.CrankNicolson(1e-3, 1, "navier_slip", 0.05, g, ops)


def dense_cn_matrices(nu, k, bc, dt, g, ops):
    """Reference complex CN matrices in node space: the propagator S (wall
    columns dropped, influence correction folded in), the moment gain G
    (None under navier_slip) and the step matrix P = S M-, by dense inverses."""
    n = g.n_points
    eye = np.eye(n)
    lmat = nu * (k**2 * eye - ops.d2) + 1j * k * np.diag(g.nodes)
    m_plus = eye + 0.5 * dt * lmat
    m_plus[[0, -1]] = eye[[0, -1]]
    inv = np.linalg.inv(m_plus)
    s = inv.copy()
    s[:, [0, -1]] = 0.0
    gain = None
    if bc == "non_slip":
        mom = np.vstack([g.quad_weights * np.exp(s_ * k * g.nodes) for s_ in (1, -1)])
        gain = inv[:, [0, -1]] @ np.linalg.inv(mom @ inv[:, [0, -1]])
        s = s - gain @ (mom @ s)
    return s, gain, s @ (eye - 0.5 * dt * lmat)


def frame_matrix(n):
    """Dense Q, with Q z = from_real_frame(z)."""
    return E.from_real_frame(np.eye(n)).T


@pytest.mark.parametrize("order", [160, 161])          # odd and even n_points
@pytest.mark.parametrize("bc", ["navier_slip", "non_slip"])
def test_real_form_matches_dense_complex_construction(bc, order):
    nu, k = 1e-3, 2
    g = build_grid(order)
    ops = build_diff_ops(g)
    n = g.n_points
    dt = E.dt_accuracy_bound(nu, k)
    stepper = E.CrankNicolson(nu, k, bc, dt, g, ops)
    assert stepper.dense_propagator().dtype == np.float64
    assert stepper.step_matrix.dtype == np.float64
    _, kept, dropped = reflection_blocks(ops.d2)
    assert dropped / kept <= 1e-13
    q = frame_matrix(n)
    assert np.abs(q.conj().T @ q - np.eye(n)).max() <= 1e-15
    z = np.array([1, 1j]) @ np.random.default_rng(4).standard_normal((2, n))
    assert np.abs(E.from_real_frame(E.to_real_frame(z)) - z).max() <= 1e-15
    assert np.abs(E.to_real_frame(z) - q.conj().T @ z).max() <= 1e-15

    s_ref, gain_ref, p_ref = dense_cn_matrices(nu, k, bc, dt, g, ops)

    def rel(a, ref):
        return np.linalg.norm(a - ref) / np.linalg.norm(ref)

    assert rel(q @ stepper.dense_propagator() @ q.conj().T, s_ref) <= 1e-12
    assert rel(q @ stepper.step_matrix @ q.conj().T, p_ref) <= 1e-12
    z = E.to_real_frame(moment_free_data(g, ops, k))
    stepper.apply_steps(z, 5, 5, out=np.empty_like(z))
    assert rel(q @ stepper._stride_power[1] @ q.conj().T,
               np.linalg.matrix_power(p_ref, 5)) <= 1e-12
    if bc == "non_slip":
        assert rel(stepper.gain, gain_ref) <= 1e-12
    # a forced step with nonzero moment targets against the dense matrices
    rng = np.random.default_rng(7)
    c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    w = moment_free_data(g, ops, k) * np.polyval(c, g.nodes)
    r = np.cos(np.pi * g.nodes / 2) * np.polyval(c[::-1], g.nodes)
    targets = (0.3 - 0.2j, -0.1 + 0.4j)
    ref = s_ref @ (stepper.apply_m_minus(w) + dt * r)
    if bc == "non_slip":
        ref += gain_ref @ np.array(targets)
    out = stepper.step(w, rhs_mid=r, moment_targets=targets)
    assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("order", [160, 161])          # odd and even n_points
@pytest.mark.parametrize("bc", ["navier_slip", "non_slip"])
def test_stacked_schur_solve_matches_dense_bordered_solve(bc, order):
    # S = (1 - left right) S0 with S0 = schur_solve on the stacked frame
    # blocks of k = 1..3, against np.linalg.solve of each mode's dense complex
    # M+ bordered by w = 0 or by the moment rows, at zero wall data (measured
    # within 1.2e-14)
    nu, ks = 1e-3, (1, 2, 3)
    g = build_grid(order)
    ops = build_diff_ops(g)
    n, y, q = g.n_points, g.nodes, g.quad_weights
    dt = E.dt_accuracy_bound(nu, max(ks))
    steppers = [E.CrankNicolson(nu, k, bc, dt, g, ops) for k in ks]
    blocks = tuple(np.stack(parts) for parts in zip(*(s.blocks for s in steppers)))
    left, right = (np.stack(parts) for parts in zip(*(s.wall_term for s in steppers)))
    assert [b.shape for b in blocks] == [(3, n // 2, n // 2), (3, n - n // 2, n - n // 2),
                                         (3, n // 2)]
    rng = np.random.default_rng(8)
    r = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
    v = E.schur_solve(blocks, E.pair_view(E.to_real_frame(r)))
    v -= np.matmul(left, np.matmul(right, v))
    got = E.from_real_frame(np.ascontiguousarray(v).view(complex)[..., 0])
    for j, k in enumerate(ks):
        m_plus = np.eye(n) + 0.5 * dt * (nu * (k**2 * np.eye(n) - ops.d2)
                                         + 1j * k * np.diag(y))
        if bc == "navier_slip":
            m_plus[[0, -1]] = np.eye(n)[[0, -1]]
        else:
            m_plus[[0, -1]] = np.vstack([q * np.exp(k * y), q * np.exp(-k * y)])
        rhs = r[j].copy()
        rhs[[0, -1]] = 0.0
        ref = np.linalg.solve(m_plus, rhs)
        assert np.linalg.norm(got[j] - ref) <= 1e-12 * np.linalg.norm(ref), k


@pytest.mark.parametrize("bc", ["navier_slip", "non_slip"])
def test_advance_matches_steps(bc):
    nu, k = 1e-3, 2
    g, ops = mkgrid(nu, k)
    stepper = E.CrankNicolson(nu, k, bc, E.dt_accuracy_bound(nu, k), g, ops)
    w = moment_free_data(g, ops, k)
    ref = [w]
    for _ in range(5):
        ref.append(stepper.step(ref[-1]))
    z0 = E.to_real_frame(w)
    # full strides by a kept power (switching strides), partial ones step by step
    for j, stride in ((3, 3), (2, 2), (3, 3), (2, 3), (5, 1), (1, 1)):
        out = E.from_real_frame(stepper.apply_steps(z0, j, stride, np.empty_like(z0)))
        assert np.linalg.norm(out - ref[j]) <= 1e-12 * np.linalg.norm(ref[j]), (j, stride)
    # the frame loop of an unforced run: samples chained in the frame
    z = z0
    for j, stride in ((2, 2), (2, 2), (1, 2)):
        z = stepper.apply_steps(z, j, stride, np.empty_like(z))
    out = E.from_real_frame(z)
    assert np.linalg.norm(out - ref[5]) <= 1e-12 * np.linalg.norm(ref[5])


@pytest.mark.parametrize("bc", ["navier_slip", "non_slip"])
def test_frame_forms_build_at_order_373(bc):
    # d1 and d2 = d1 d1 round asymmetrically at order 373: their frame
    # blocks drop a residue above 1e-12, still far below FRAME_RESIDUE_MAX
    nu, k = 1e-5, 1
    g = build_grid(373)
    ops = build_diff_ops(g)
    for a, parity in ((ops.d1, -1), (ops.d2, 1)):
        _, kept, dropped = reflection_blocks(a, parity)
        assert 1e-12 < dropped / kept <= FRAME_RESIDUE_MAX
    stepper = E.CrankNicolson(nu, k, bc, E.dt_accuracy_bound(nu, k), g, ops)
    assert [b.shape for b in stepper.d1_blocks] == [(187, 187)] * 2
    rep = spectrum(ResolventCase(nu=nu, k=k, bc=bc), g, ops, want_psi=False)
    assert rep.generator.shape[0] == g.n_points - (4 if bc == "non_slip" else 2)
    assert rep.gap > 0.0


def test_navier_energy_dissipation_per_step():
    nu, k = 1e-3, 1
    g, ops = mkgrid(nu, k)
    w0 = moment_free_data(g, ops, k)
    stepper = E.CrankNicolson(nu, k, "navier_slip", 0.05, g, ops)
    w = w0 * (1.0 / l2_norm(g, w0))
    prev = l2_norm(g, w)
    for _ in range(100):
        w = stepper.step(w)
        cur = l2_norm(g, w)
        assert cur <= prev * (1 + 1e-12)
        prev = cur


def test_nonslip_moment_preservation():
    nu, k = 1e-3, 2
    g, ops = mkgrid(nu, k)
    w0 = moment_free_data(g, ops, k)
    case = E.EvolutionCase(nu=nu, k=k, omega0=w0, dt=E.dt_accuracy_bound(nu, k),
                           t_end=5.0, bc="non_slip")
    stepper = E.CrankNicolson(nu, k, "non_slip", case.dt, g, ops)
    w = w0.copy()
    for _ in range(int(case.t_end / case.dt)):
        w = stepper.step(w)
        assert wall_moment_residuals(g, w, k).max() <= 1e-7


def test_step_halving_second_order():
    nu, k = 1e-3, 1
    g, ops = mkgrid(nu, k)
    w0 = moment_free_data(g, ops, k)
    t_end = 1.0
    sols = []
    # below the stiff-ringing regime CN error is cleanly ~ C dt^2
    for dt in (0.005, 0.0025, 0.00125):
        stepper = E.CrankNicolson(nu, k, "non_slip", dt, g, ops)
        w = w0.copy()
        for _ in range(int(round(t_end / dt))):
            w = stepper.step(w)
        sols.append(w)
    e1 = l2_norm(g, sols[0] - sols[2])
    e2 = l2_norm(g, sols[1] - sols[2])
    # against the dt/4 reference, order p gives e1/e2 = (4^p-1)/(2^p-1) = 2^p+1
    p_est = math.log2(e1 / e2 - 1.0)
    assert abs(p_est - 2.0) <= 0.2, (e1 / e2, p_est)


def test_navier_semigroup_decay_and_gp_consistency():
    nu, k = 1e-3, 1
    g, ops = mkgrid(nu, k)
    w0 = np.sin(np.pi * (g.nodes + 1) / 2).astype(complex)
    case = E.EvolutionCase(nu=nu, k=k, omega0=w0, dt=E.dt_accuracy_bound(nu, k),
                           t_end=40.0, bc="navier_slip", check_moments=False)
    led, _ = E.run(case, g, ops)
    rate, r2 = E.decay_rate(led.decay_samples, nu, k)
    c = (rate - nu) / (nu * k**2) ** (1 / 3)
    assert c > 0.0
    rep = spectrum(ResolventCase(nu=nu, k=k, bc="navier_slip"), g, ops)
    assert rate >= rep.psi * 0.9
    # Gearhart-Pruess bound on the exact propagator at sampled times
    ts = [1.0, 5.0, 10.0]
    norms_t = E.semigroup_norm(nu, k, "navier_slip", ts, g, ops)
    for t, nt in zip(ts, norms_t):
        assert nt <= math.exp(-t * rep.psi + math.pi / 2) * (1 + 1e-8)


def test_navier_l2l2_semigroup_constant():
    nu, k = 1e-3, 1
    g, ops = mkgrid(nu, k)
    w0 = moment_free_data(g, ops, k)
    case = E.EvolutionCase(nu=nu, k=k, omega0=w0, dt=E.dt_accuracy_bound(nu, k),
                           t_end=40.0, bc="navier_slip", check_moments=False)
    led, _ = E.run(case, g, ops)
    c = (nu * k**2) ** (1 / 3) * led.w_l2l2**2 / led.data_l2**2
    assert 0.0 < c < 10.0


def test_space_time_ratio_unforced_bounded_across_nu():
    # inviscid damping: k^2 ||u||^2_{L2L2} bounded by the data, uniformly in nu
    g, ops = mkgrid(1e-5, 1)
    w0 = moment_free_data(g, ops, 1)
    vals = []
    for nu in (1e-3, 1e-4, 1e-5):
        case = E.EvolutionCase(nu=nu, k=1, omega0=w0,
                               dt=E.dt_accuracy_bound(nu, 1),
                               t_end=2.0 * nu ** (-1 / 3), bc="non_slip")
        led, _ = E.run(case, g, ops, store_every=2, auto_extend=False)
        vals.append(led.u_l2l2**2 / (led.data_l2**2 + led.data_dy_l2**2))
    assert max(vals) / min(vals) < 3.0
    assert max(vals) < 10.0


def test_forced_run_ledger():
    nu, k = 1e-3, 1
    g, ops = mkgrid(nu, k)
    f2_profile = np.cos(np.pi * g.nodes / 2).astype(complex)
    forcing = lambda t: (None, math.exp(-t) * f2_profile)
    case = E.EvolutionCase(nu=nu, k=k, omega0=np.zeros(g.n_points, complex),
                           dt=E.dt_accuracy_bound(nu, k), t_end=20.0,
                           bc="non_slip", forcing=forcing)
    led, _ = E.run(case, g, ops)
    assert led.forcing_f2_l2l2 > 0
    # (nu k^2)^{1/2} ||w||^2_{L2L2} <= C nu^{-1} ||f2||^2_{L2L2}
    c = math.sqrt(nu * k**2) * led.w_l2l2**2 / (led.forcing_f2_l2l2**2 / nu)
    assert c < 5.0


def test_splitting_trivial_and_additive():
    nu, k = 1e-3, 2
    g, ops = mkgrid(nu, k)
    w0 = moment_free_data(g, ops, k)
    case = E.EvolutionCase(nu=nu, k=k, omega0=w0,
                           dt=E.dt_accuracy_bound(nu, k), t_end=6.0,
                           bc="non_slip")
    parts, err = E.homogeneous_splitting(case, g, ops)
    assert err <= 1e-6
    # part 1 decays exactly at the uniform rate
    mu = (nu * k**2) ** (1 / 3)
    t1, v1 = parts["part1"].decay_samples[-1]
    assert abs(v1 - math.exp(-mu * t1) * l2_norm(g, w0)) <= 1e-12 * v1
    # parts 2 and 3 start from zero
    assert parts["part2"].decay_samples[0][1] == 0.0
    assert parts["part3"].decay_samples[0][1] == 0.0


def test_enhanced_dissipation_rate_scales():
    rates = {}
    for nu, k in [(1e-3, 1), (1e-4, 1), (1e-4, 4)]:
        g, ops = mkgrid(nu, k)
        w0 = moment_free_data(g, ops, k)
        case = E.EvolutionCase(nu=nu, k=k, omega0=w0,
                               dt=E.dt_accuracy_bound(nu, k),
                               t_end=6.0 * (nu * k**2) ** (-1 / 3),
                               bc="non_slip")
        led, _ = E.run(case, g, ops, store_every=2, auto_extend=False)
        rates[(nu, k)] = E.decay_rate(led.decay_samples, nu, k)[0]
    r = rates[(1e-3, 1)] / rates[(1e-4, 1)]
    assert abs(math.log(r) / math.log(10.0) - 1 / 3) < 0.07
    rk = rates[(1e-4, 4)] / rates[(1e-4, 1)]
    assert abs(math.log(rk) / math.log(4.0) - 2 / 3) < 0.1


def test_storage_thinning_calibration():
    # thinned (every 4th step) and full ledgers agree to 0.5 percent
    nu, k = 1e-3, 1
    g, ops = mkgrid(nu, k)
    w0 = moment_free_data(g, ops, k)
    mk = lambda: E.EvolutionCase(nu=nu, k=k, omega0=w0,
                                 dt=E.dt_accuracy_bound(nu, k),
                                 t_end=3.0 * (nu * k**2) ** (-1 / 3),
                                 bc="non_slip")
    full, _ = E.run(mk(), g, ops, store_every=1, auto_extend=False)
    thin, _ = E.run(mk(), g, ops, store_every=4, auto_extend=False)
    for attr in ("u_linf_linf", "u_l2l2", "w_l2l2", "w_linf_l2",
                 "boundary_w_linf_l2", "rho_half_l2l2"):
        a, b = getattr(full, attr), getattr(thin, attr)
        assert abs(a - b) <= 5e-3 * a, (attr, a, b)


def test_moment_violation_reported_not_asserted(capsys):
    # behavior under ~1e-3 moment violations is reported, never asserted
    nu, k = 1e-3, 1
    g, ops = mkgrid(nu, k)
    w0 = moment_free_data(g, ops, k)
    bad = w0 + 1e-3 * l2_norm(g, w0) * np.exp(g.nodes)
    case = E.EvolutionCase(nu=nu, k=k, omega0=bad,
                           dt=E.dt_accuracy_bound(nu, k),
                           t_end=2.0 * (nu * k**2) ** (-1 / 3),
                           bc="non_slip", check_moments=False)
    led, _ = E.run(case, g, ops, store_every=2, auto_extend=False)
    print(f"space-time ratio under 1e-3 moment violation: "
          f"{E.space_time_ratio(led, nu, k):.3f} (reported, not asserted)")


def step_recurrence_run(case, g, ops, store_every, auto_extend):
    """Reference for an unforced run: one CrankNicolson.step per dt and a
    ledger evaluated sample by sample."""
    nu, k = case.nu, case.k
    stepper = E.CrankNicolson(nu, k, case.bc, case.dt, g, ops)
    q = g.quad_weights
    rho = rho_k(g.nodes, (abs(k) / nu) ** (1 / 3))
    n = g.n_points
    elliptic = ops.d2 - k**2 * np.eye(n)
    elliptic[[0, -1]] = np.eye(n)[[0, -1]]
    interior = np.ones(n)
    interior[[0, -1]] = 0.0
    w = np.asarray(case.omega0, dtype=complex)
    w0_l2 = l2_norm(g, w)
    samples = []

    def sample(t, w):
        phi = np.linalg.solve(elliptic, w * interior)
        umod2 = np.abs(ops.d1 @ phi) ** 2 + np.abs(k * phi) ** 2
        w2 = np.abs(w) ** 2
        samples.append((t, q @ umod2, q @ w2, q @ (rho * w2),
                        q @ ((1 - np.abs(g.nodes)) * w2), umod2.max()))

    sample(0.0, w)
    t, steps = 0.0, 0
    while True:
        w = stepper.step(w)
        t += case.dt
        steps += 1
        if steps % store_every == 0 or t >= case.t_end:
            sample(t, w)
        if t >= case.t_end and (not auto_extend or l2_norm(g, w) <= 1e-4 * w0_l2):
            break
    ts, u2, w2, rho_w2, bw2, umax = map(np.array, zip(*samples))

    def l2_in_time(v):
        return math.sqrt(np.sum(0.5 * np.diff(ts) * (v[1:] + v[:-1])))
    fields = dict(u_linf_linf=math.sqrt(umax.max()), u_l2l2=l2_in_time(u2),
                  w_l2l2=l2_in_time(w2), w_linf_l2=math.sqrt(w2.max()),
                  boundary_w_linf_l2=math.sqrt(bw2.max()),
                  rho_half_l2l2=l2_in_time(rho_w2), t_final=ts[-1],
                  data_l2=w0_l2,
                  data_dy_l2=l2_norm(g, ops.d1 @ np.asarray(case.omega0)))
    return fields, list(ts), np.sqrt(w2), w


@pytest.mark.parametrize("auto_extend", [False, True])
@pytest.mark.parametrize("store_every", [1, 2, 3, 10**9])
@pytest.mark.parametrize("bc", ["non_slip", "navier_slip"])
def test_unforced_run_matches_step_recurrence(bc, store_every, auto_extend):
    # 200 steps: 201, 101 and 68 samples at store_every = 1, 2, 3 (the last
    # after a 2-step tail), so the 64-sample ledger blocks end mid-block;
    # auto_extend adds hundreds more, one per step
    nu, k = 1e-3, 1
    g, ops = mkgrid(nu, k)
    dt = E.dt_accuracy_bound(nu, k)
    case = E.EvolutionCase(nu=nu, k=k, omega0=moment_free_data(g, ops, k), dt=dt,
                           t_end=200 * dt, bc=bc, check_moments=(bc == "non_slip"))
    fields, ts, decay, w_ref = step_recurrence_run(case, g, ops, store_every,
                                                   auto_extend)
    led, w = E.run(case, g, ops, store_every=store_every, auto_extend=auto_extend)
    assert [s[0] for s in led.decay_samples] == ts
    assert len(ts) > 64 or store_every == 10**9
    got = np.array([s[1] for s in led.decay_samples])
    assert np.all(np.abs(got - decay) <= 1e-12 * decay)
    for name, ref in fields.items():
        assert abs(getattr(led, name) - ref) <= 1e-12 * ref, name
    assert led.forcing_f1_l2l2 == led.forcing_f2_l2l2 == 0.0
    assert np.linalg.norm(w - w_ref) <= 1e-10 * np.linalg.norm(w_ref)


@pytest.mark.parametrize("bc, check_moments, match", [
    ("non_slip", True, "wall moments: nan"),
    ("non_slip", False, "non-finite vorticity .* at k = 1"),
    ("navier_slip", False, "non-finite vorticity .* at k = 1"),
])
def test_nan_initial_vorticity_raises(bc, check_moments, match):
    g, ops = mkgrid(1e-3, 1)
    w0 = moment_free_data(g, ops, 1)
    w0[g.n_points // 2] = np.nan
    case = E.EvolutionCase(nu=1e-3, k=1, omega0=w0, dt=0.05, t_end=1.0, bc=bc,
                           check_moments=check_moments)
    with pytest.raises(ValueError, match=match):
        E.run(case, g, ops, store_every=2)


@pytest.mark.parametrize("store_every", [1, 3])
def test_nan_mid_run_raises_at_the_block_flush(monkeypatch, store_every):
    # a NaN row of P turns the samples non-finite from the first product on;
    # the auto-extend stop test never passes on them, so only the flush of
    # the ledger's block can stop the run
    g, ops = mkgrid(1e-3, 1)
    build = E.CrankNicolson.step_matrix.func

    def poisoned(self):
        p = build(self)
        p[g.n_points // 3] = np.nan
        return p

    monkeypatch.setattr(E.CrankNicolson, "step_matrix", property(poisoned))
    monkeypatch.setattr(E, "MAX_STEPS", 20_000)
    takes = []
    take = E._Accumulator.take
    monkeypatch.setattr(E._Accumulator, "take",
                        lambda self, t, *a: takes.append(t) or take(self, t, *a))
    case = E.EvolutionCase(nu=1e-3, k=1, omega0=moment_free_data(g, ops, 1),
                           dt=0.05, t_end=1.0, bc="non_slip")
    with pytest.raises(ValueError, match="non-finite vorticity in the CN advance "
                                         "at k = 1"):
        E.run(case, g, ops, store_every=store_every)
    assert len(takes) == E._Accumulator.BLOCK


def test_unforced_auto_extend_run_stops_at_max_steps(monkeypatch):
    g, ops = mkgrid(1e-3, 1)
    case = E.EvolutionCase(nu=1e-3, k=1, omega0=moment_free_data(g, ops, 1),
                           dt=0.05, t_end=1.0, bc="non_slip")
    monkeypatch.setattr(E, "MAX_STEPS", 50)
    with pytest.raises(RuntimeError, match="MAX_STEPS"):
        E.run(case, g, ops, store_every=3)

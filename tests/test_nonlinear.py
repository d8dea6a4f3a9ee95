import math

import numpy as np
import pytest

from couettelab.grid import (build_diff_ops, build_grid, default_order,
                             from_real_frame, l2_norm, quadrature,
                             wall_moment_residuals)
from couettelab import evolution as E
from couettelab import nonlinear as NL


@pytest.fixture(scope="module")
def setup():
    nu, K = 1e-3, 8
    g = build_grid(default_order(nu, K))
    return nu, K, g, build_diff_ops(g)


def multi_mode_state(g, ops, k_max, amp=0.3):
    st = NL.initial_state(amp, g, ops, k_max)
    y = g.nodes
    for k in range(2, k_max + 1):
        phik = (1 - y**2) ** 2 * np.exp(0.3j * k * y) / k**2
        st.modes[k] = (ops.d2 - k**2 * np.eye(g.n_points)) @ phik
        st.modes[-k] = np.conj(st.modes[k])
    st.mean_shear = 0.1 * (1 - y**2) * np.sin(np.pi * y)
    return st


def test_initial_state_norm_and_compatibility(setup):
    nu, K, g, ops = setup
    amp = 0.37
    st = NL.initial_state(amp, g, ops, K)
    assert NL.pad_modes(K) >= 3 * K + 1
    # H2 normalization: the seed stream profile, rescaled like the state,
    # carries exactly the requested velocity H2 norm
    psi = (1.0 - g.nodes**2) ** 2 / 2j
    scale = amp / NL._h2_norm_of_mode(psi, 1, g, ops)
    assert abs(NL._h2_norm_of_mode(scale * psi, 1, g, ops) - amp) < 1e-10 * amp
    # moment compatibility of the seed
    assert wall_moment_residuals(g, st.modes[1], 1).max() < 1e-12
    assert np.allclose(st.modes[-1], np.conj(st.modes[1]))


def test_zero_state_stays_zero(setup):
    nu, K, g, ops = setup
    st = NL.initial_state(0.0, g, ops, K)
    lab = NL.SpectralLab(nu, K, g, ops, NL.dt_accuracy_bound(nu, K))
    st, rhs = lab.advance(st)
    st, _ = lab.advance(st, rhs)
    assert max(np.abs(st.modes[k]).max() for k in st.modes) == 0.0
    assert np.abs(st.mean_shear).max() == 0.0


def test_quadratic_interaction_support(setup):
    nu, K, g, ops = setup
    st = NL.initial_state(0.5, g, ops, K)
    lab = NL.SpectralLab(nu, K, g, ops, NL.dt_accuracy_bound(nu, K))
    f1, f2 = lab.nonlinear_rhs(st)
    active = {k for k in range(0, K + 1)
              if np.abs(f1[k]).max() + np.abs(f2[k]).max() > 1e-16}
    assert active <= {0, 2}
    assert 2 in active


def test_rhs_reality(setup):
    nu, K, g, ops = setup
    st = multi_mode_state(g, ops, 4)
    lab = NL.SpectralLab(nu, 4, g, ops, NL.dt_accuracy_bound(nu, 4))
    m = lab.m_pad
    # rebuild the padded coefficient array directly and check conj symmetry
    f1, f2 = lab.nonlinear_rhs(st)
    # reality <=> the physical-space product fields are real for a real field;
    # verified through the k=0 component being real
    assert np.abs(f1[0].imag).max() < 1e-14 * max(np.abs(f1[0]).max(), 1e-30)
    assert np.abs(f2[0].imag).max() < 1e-14 * max(np.abs(f2[0]).max(), 1e-30)


def test_truncated_convolution_matches_direct_sum(setup):
    nu, K, g, ops = setup
    kmax = 3
    st = multi_mode_state(g, ops, kmax)
    lab = NL.SpectralLab(nu, kmax, g, ops, NL.dt_accuracy_bound(nu, kmax))
    f1, f2 = lab.nonlinear_rhs(st)
    vel = lab.velocities(st)
    u1 = {0: vel[0][0], **{k: vel[k][0] for k in range(1, kmax + 1)}}
    u2 = {0: vel[0][1], **{k: vel[k][1] for k in range(1, kmax + 1)}}
    wbar = ops.d1 @ st.mean_shear
    for k in (0, 1, 2, 3):
        direct = np.zeros(g.n_points, dtype=complex)
        for l in range(-kmax, kmax + 1):
            if abs(k - l) > kmax:
                continue
            ul = u1[l] if l >= 0 else np.conj(u1[-l])
            wl = wbar if k == l else st.modes[k - l]
            direct += ul * wl
        assert np.abs(direct - f1[k]).max() <= 1e-12 * max(1.0, np.abs(direct).max())


def test_linear_consistency_with_evolution(setup):
    nu, K, g, ops = setup
    dt = NL.dt_accuracy_bound(nu, K)
    st = NL.initial_state(1e-5, g, ops, K)
    lab = NL.SpectralLab(nu, K, g, ops, dt)
    stepper = E.CrankNicolson(nu, 1, "non_slip", dt, g, ops)
    w_lin = st.modes[1].copy()
    rp = None
    for i in range(60):
        st, rp = lab.advance(st, rp)
        w_lin = stepper.step(w_lin)
    rel = l2_norm(g, st.modes[1] - w_lin) / l2_norm(g, w_lin)
    assert rel <= 1e-6
    # reality and wall-moment invariants hold to tolerance after the run
    for k in range(1, K + 1):
        assert np.allclose(st.modes[-k], np.conj(st.modes[k]), atol=0)
        assert wall_moment_residuals(g, st.modes[k], k).max() <= 1e-7


def reference_advance(nu, kmax, g, ops, dt, st, rhs_prev):
    """One CN + AB2 step by the per-mode formulas: dense bordered elliptic
    and CN solves, complex d/dy products and the direct convolution sums."""
    n = g.n_points
    y, q = g.nodes, g.quad_weights
    eye = np.eye(n)
    d1 = ops.d1.astype(complex)
    u1 = {0: st.mean_shear.astype(complex)}
    u2 = {0: np.zeros(n, dtype=complex)}
    w = {0: ops.d1 @ st.mean_shear}
    for k in range(1, kmax + 1):
        lap = (ops.d2 - k**2 * eye).astype(complex)
        lap[[0, -1]] = eye[[0, -1]]
        rhs = st.modes[k].copy()
        rhs[[0, -1]] = 0.0
        phi = np.linalg.solve(lap, rhs)
        u1[k], u2[k], w[k] = d1 @ phi, -1j * k * phi, st.modes[k]
    for k in range(1, kmax + 1):
        u1[-k], u2[-k], w[-k] = np.conj(u1[k]), np.conj(u2[k]), np.conj(w[k])
    f1, f2 = {}, {}
    for k in range(0, kmax + 1):
        ls = [l for l in range(-kmax, kmax + 1) if abs(k - l) <= kmax]
        f1[k] = sum(u1[l] * w[k - l] for l in ls)
        f2[k] = sum(u2[l] * w[k - l] for l in ls)
    rhs = {k: -1j * k * f1[k] - d1 @ f2[k] for k in range(1, kmax + 1)}
    mean_rhs = -f2[0]
    modes = {}
    for k in range(1, kmax + 1):
        explicit = rhs[k] if rhs_prev is None else 1.5 * rhs[k] - 0.5 * rhs_prev[0][k]
        lmat = nu * (k**2 * eye - ops.d2) + 1j * k * np.diag(y)
        b = (eye - 0.5 * dt * lmat) @ st.modes[k] + dt * explicit
        m_plus = eye + 0.5 * dt * lmat
        m_plus[[0, -1]] = np.vstack([q * np.exp(k * y), q * np.exp(-k * y)])
        b[[0, -1]] = 0.0
        modes[k] = np.linalg.solve(m_plus, b)
    explicit = mean_rhs if rhs_prev is None else 1.5 * mean_rhs - 0.5 * rhs_prev[1]
    b = (eye + 0.5 * dt * nu * ops.d2) @ st.mean_shear + dt * explicit.real
    b[[0, -1]] = 0.0
    heat = eye - 0.5 * dt * nu * ops.d2
    heat[[0, -1]] = eye[[0, -1]]
    return modes, np.linalg.solve(heat, b), (rhs, mean_rhs)


def check_advance_against_reference(nu, kmax, g, ops):
    dt = NL.dt_accuracy_bound(nu, kmax)
    lab = NL.SpectralLab(nu, kmax, g, ops, dt)
    # At 3% of multi_mode_state, dt times the quadratic term is ~2e-4 of the
    # largest mode.  At full size, rounding in the elliptic solves (the
    # bordered d2 - k^2 has condition ~N^4: ~1e-12 relative error by any LU)
    # alone moves a step by a few 1e-12 of the largest mode.
    st = multi_mode_state(g, ops, kmax)
    rng = np.random.default_rng(5)
    st.mean_shear = 0.03 * st.mean_shear
    for k in range(1, kmax + 1):
        st.modes[k] = 0.03 * complex(*rng.uniform(0.5, 1.5, 2)) * st.modes[k]
        st.modes[-k] = np.conj(st.modes[k])
    rhs_lab = rhs_ref = None
    for _ in range(3):
        modes, mean, rhs_ref = reference_advance(nu, kmax, g, ops, dt, st, rhs_ref)
        st, rhs_lab = lab.advance(st, rhs_lab)
        scale = max(np.abs(modes[k]).max() for k in modes)
        for k in range(1, kmax + 1):
            assert np.abs(st.modes[k] - modes[k]).max() <= 1e-12 * scale, k
            assert np.array_equal(st.modes[-k], np.conj(st.modes[k]))
        assert np.abs(st.mean_shear - mean).max() <= 1e-12 * np.abs(mean).max()


def test_advance_matches_per_mode_reference(setup):
    nu, K, g, ops = setup
    check_advance_against_reference(nu, 4, g, ops)


@pytest.mark.parametrize("order", [160, 161])          # odd and even n_points
def test_block_advance_matches_reference_at_kmax_8(order):
    g = build_grid(order)
    check_advance_against_reference(1e-3, 8, g, build_diff_ops(g))


def test_mean_heat_step_with_wall_values(setup):
    # the lab's heat step S(2u + dt f) - u + (wall columns)(wall values of u)
    # equals S(M- u + dt f) also for a mean that is not zero at the walls,
    # which run_perturbation never produces
    nu, K, g, ops = setup
    kmax = 3
    dt = NL.dt_accuracy_bound(nu, kmax)
    st = multi_mode_state(g, ops, kmax, amp=0.01)
    st.mean_shear = 1e-3 * (1.0 + g.nodes + g.nodes**2) * np.cos(g.nodes)
    _, mean, _ = reference_advance(nu, kmax, g, ops, dt, st, None)
    new, _ = NL.SpectralLab(nu, kmax, g, ops, dt).advance(st)
    assert np.abs(new.mean_shear - mean).max() <= 1e-12 * np.abs(mean).max()


class PerModeEnergy(NL.EnergyAccumulator):
    """EnergyAccumulator.take as a per-mode loop of quadratures."""

    def take(self, lab, state):
        g = self.grid
        cur_u2, cur_w2 = {}, {}
        vel = lab.velocities(state)
        for k in range(1, self.k_max + 1):
            wk = state.modes[k]
            u1, u2 = vel[k]
            umod2 = np.abs(u1) ** 2 + np.abs(u2) ** 2
            self.sup_bw[k] = max(self.sup_bw[k], math.sqrt(abs(
                quadrature(g, self.bw * np.abs(wk) ** 2))))
            self.sup_uinf[k] = max(self.sup_uinf[k], math.sqrt(float(np.max(umod2))))
            cur_u2[k] = abs(quadrature(g, umod2))
            cur_w2[k] = abs(quadrature(g, np.abs(wk) ** 2))
        self.sup_mean = max(self.sup_mean, l2_norm(g, self.ops.d1 @ state.mean_shear))
        if self._prev is not None:
            t0, pu, pw = self._prev
            h = 0.5 * (state.time - t0)
            for k in cur_u2:
                self.int_u2[k] += h * (pu[k] + cur_u2[k])
                self.int_w2[k] += h * (pw[k] + cur_w2[k])
        self._prev = (state.time, cur_u2, cur_w2)


def test_energy_block_quadratures_match_per_mode_loop(setup):
    nu, K, g, ops = setup
    lab = NL.SpectralLab(nu, K, g, ops, NL.dt_accuracy_bound(nu, K))
    st = multi_mode_state(g, ops, K)
    for k in range(1, K + 1):        # distinct mode sizes, so a mixed-up mode shows
        st.modes[k] = st.modes[k] / k
        st.modes[-k] = np.conj(st.modes[k])
    block, loop = (cls(nu, K, g, ops) for cls in (NL.EnergyAccumulator, PerModeEnergy))
    rhs = None
    for _ in range(4):
        for acc in (block, loop):
            acc.take(lab, st)
        st, rhs = lab.advance(st, rhs)
    for name in ("sup_bw", "sup_uinf", "int_u2", "int_w2"):
        ref = np.array([getattr(loop, name)[k] for k in range(1, K + 1)])
        got = np.asarray(getattr(block, name))[1:]
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max(), name
        assert np.all(ref > 0), name
    e_block, e_loop = block.energy(), loop.energy()
    assert abs(e_block.total - e_loop.total) <= 1e-13 * e_loop.total
    for k in range(1, K + 1):
        assert abs(e_block.ek[k] - e_loop.ek[k]) <= 1e-13 * e_loop.ek[k], k


def test_velocities_reused_for_the_same_state(setup):
    # a sampled step's energy and the next step's right-hand side share one
    # velocity evaluation; it must equal a fresh one bit for bit
    nu, K, g, ops = setup
    kmax = 4
    lab = NL.SpectralLab(nu, kmax, g, ops, NL.dt_accuracy_bound(nu, kmax))
    st = multi_mode_state(g, ops, kmax)
    vel = lab.velocities(st)
    assert lab.velocities(st) is vel
    new, _ = lab.advance(st)
    kept = lab.velocities(new)
    assert lab.velocities(new) is kept and kept is not vel
    twin = NL.PerturbationState(modes=dict(new.modes), mean_shear=new.mean_shear,
                                time=new.time)
    fresh = lab.velocities(twin)
    assert fresh is not kept
    for k in range(kmax + 1):
        for a, b in zip(kept[k], fresh[k]):
            assert np.array_equal(np.ascontiguousarray(a).view(np.uint64),
                                  np.ascontiguousarray(b).view(np.uint64)), k


def test_momentum_flux_consistency(setup):
    # the mean vorticity equation integrates to boundary fluxes only
    nu, K, g, ops = setup
    st = multi_mode_state(g, ops, 4)
    lab = NL.SpectralLab(nu, 4, g, ops, NL.dt_accuracy_bound(nu, 4))
    rhs, mean_rhs = lab.rhs_vectors(st)
    mean_rhs = from_real_frame(mean_rhs)        # rows come in the real frame
    wbar = ops.d1 @ st.mean_shear
    # d/dt int wbar = nu [wbar'] - [f2_0]; and int wbar = 0 by Dirichlet walls
    f20 = -mean_rhs
    lhs = nu * ((ops.d1 @ wbar)[0] - (ops.d1 @ wbar)[-1]) - (f20[0] - f20[-1])
    d_int = quadrature(g, ops.d1 @ (nu * (ops.d1 @ wbar) - f20))
    assert abs(d_int - lhs) <= 1e-8 * (abs(lhs) + 1.0)
    # wall flux of f2_0 vanishes: u2 vanishes at the walls
    assert abs(f20[0]) < 1e-12 and abs(f20[-1]) < 1e-12


def test_nonlinear_energy_flux_cancellation(setup):
    nu, K, g, ops = setup
    st = multi_mode_state(g, ops, 4)
    lab = NL.SpectralLab(nu, 4, g, ops, NL.dt_accuracy_bound(nu, 4))
    rhs, mean_rhs = lab.rhs_vectors(st)
    rhs, mean_rhs = from_real_frame(rhs), from_real_frame(mean_rhs)   # rows in the frame
    wbar = ops.d1 @ st.mean_shear
    q = g.quad_weights
    tot = sum(2 * np.real(np.sum(q * rhs[k] * np.conj(st.modes[k])))
              for k in range(1, 5))
    tot += np.real(np.sum(q * (ops.d1 @ mean_rhs) * np.conj(wbar)))
    scale = sum(l2_norm(g, st.modes[k]) ** 2 for k in range(1, 5)) \
        + l2_norm(g, wbar) ** 2
    assert abs(tot) / scale <= 1e-6


def test_energy_functional_trivial_histories(setup):
    nu, K, g, ops = setup
    acc = NL.EnergyAccumulator(nu, K, g, ops)
    lab = NL.SpectralLab(nu, K, g, ops, NL.dt_accuracy_bound(nu, K))
    st = NL.initial_state(0.0, g, ops, K)
    acc.take(lab, st)
    en = acc.energy()
    assert en.total == 0.0 and en.e0 == 0.0
    # single snapshot: every L2-in-time piece is zero, sup pieces equal norms
    st = NL.initial_state(0.2, g, ops, K)
    acc = NL.EnergyAccumulator(nu, K, g, ops)
    acc.take(lab, st)
    en = acc.energy()
    assert en.ek[1] > 0
    assert acc.int_u2[1] == 0.0 and acc.int_w2[1] == 0.0


def test_blowup_guard(setup):
    nu, K, g, ops = setup
    st = NL.initial_state(0.2, g, ops, K)
    st.modes[1] = st.modes[1] * (2e8 / max(np.abs(st.modes[1]).max(), 1e-300))
    st.modes[-1] = np.conj(st.modes[1])
    lab = NL.SpectralLab(nu, K, g, ops, NL.dt_accuracy_bound(nu, K))
    with pytest.raises(NL.BlowupError):
        lab.advance(st)


def test_probe_threshold_monotone_and_bracket():
    nu, K = 1e-3, 8
    g = build_grid(default_order(nu, K))
    ops = build_diff_ops(g)
    probe = NL.ThresholdProbe(nu_values=(nu,), amplitude_lo=0.005,
                              amplitude_hi=0.08)

    def builder(_nu):
        return g, ops

    out = NL.probe_threshold(probe, builder, k_max=K, rel_bracket=0.5,
                             max_runs=3)
    assert out.monotone
    assert nu in out.brackets
    lo, hi = out.brackets[nu]
    assert lo < hi
    verdicts = {v[2] for v in out.verdicts}
    assert "stable" in verdicts


def test_tail_monitor_downgrades_verdict(setup):
    nu, K, g, ops = setup
    old = NL.TAIL_LIMIT
    NL.TAIL_LIMIT = 1e-30  # force the monitor to trip on any quadratic cascade
    try:
        verdict, _, trace = NL.run_perturbation(nu, 1e-3, g, ops, k_max=K,
                                                t_end=1.0)
        assert verdict == "inconclusive"
        assert trace["tail_ratio"] > 1e-30
    finally:
        NL.TAIL_LIMIT = old


def test_probe_requires_kmax():
    probe = NL.ThresholdProbe(nu_values=(1e-3,), amplitude_lo=0.01,
                              amplitude_hi=0.02)
    with pytest.raises(ValueError, match="k_max"):
        NL.probe_threshold(probe, lambda nu: (None, None), k_max=4)


def test_huge_amplitude_recorded_not_asserted(setup):
    # far above the threshold the run ends growing or inconclusive; no claim
    # about instability is made, the verdict is only recorded
    nu, K, g, ops = setup
    amp = 1e6 * math.sqrt(nu)
    verdict, _, _ = NL.run_perturbation(nu, amp, g, ops, k_max=K, t_end=5.0)
    print(f"verdict at amplitude 1e6 nu^(1/2): {verdict}")
    assert verdict in ("growing", "inconclusive")

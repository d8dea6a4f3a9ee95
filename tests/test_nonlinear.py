import dataclasses
import math

import numpy as np
import pytest

from couettelab.grid import (build_diff_ops, build_grid, default_order,
                             from_real_frame, l2_norm, quadrature,
                             to_real_frame, wall_moment_residuals)
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
                                time=new.time, frame=new.frame)
    fresh = lab.velocities(twin)
    assert fresh is not kept
    for k in range(kmax + 1):
        for a, b in zip(kept[k], fresh[k]):
            assert same_bits(a, b), k


def same_bits(a, b):
    return np.array_equal(np.ascontiguousarray(a).view(np.uint64),
                          np.ascontiguousarray(b).view(np.uint64))


def node_block(state, kmax):
    """[mean; w_1 .. w_kmax] at the nodes, as the frame block's rows."""
    return np.vstack([state.mean_shear] + [state.modes[k] for k in range(1, kmax + 1)])


def test_advance_carries_its_frame_block(setup):
    # the frame block advance attaches is Q^H of the new state's nodes to
    # rounding, with row 0 exactly the frame image of a real vector
    nu, K, g, ops = setup
    kmax = 4
    lab = NL.SpectralLab(nu, kmax, g, ops, NL.dt_accuracy_bound(nu, kmax))
    st = multi_mode_state(g, ops, kmax)
    assert st.frame is None and NL.initial_state(0.1, g, ops, kmax).frame is None
    rhs = None
    for _ in range(3):
        st, rhs = lab.advance(st, rhs)
        ref = to_real_frame(node_block(st, kmax))
        assert st.frame.shape == ref.shape
        assert np.abs(st.frame - ref).max() <= 1e-15 * np.abs(ref).max()
        even = g.n_points - g.n_points // 2
        assert not st.frame[0, :even].imag.any() and not st.frame[0, even:].real.any()
        assert np.array_equal(st.mean_shear, from_real_frame(st.frame[0]).real)


def test_hand_built_state_takes_the_node_path(setup):
    # without a frame block the lab enters the frame by Q^H of the nodes;
    # with one it starts from the block and reads the nodes only for the
    # pointwise products
    nu, K, g, ops = setup
    kmax = 4
    lab = NL.SpectralLab(nu, kmax, g, ops, NL.dt_accuracy_bound(nu, kmax))
    new, _ = lab.advance(multi_mode_state(g, ops, kmax))
    hand = NL.PerturbationState(modes=dict(new.modes), mean_shear=new.mean_shear,
                                time=new.time)
    framed = dataclasses.replace(hand, frame=to_real_frame(node_block(hand, kmax)))
    by_nodes, by_frame, carried = (lab.velocities(s) for s in (hand, framed, new))
    for j in (0, 1):                   # u1, u2
        scale = max(np.abs(by_nodes[k][j]).max() for k in range(kmax + 1))
        for k in range(kmax + 1):
            assert same_bits(by_nodes[k][j], by_frame[k][j]), k
            assert np.abs(by_nodes[k][j] - carried[k][j]).max() <= 1e-13 * scale, k
    zeroed = dataclasses.replace(new, frame=np.zeros_like(new.frame))
    assert not any(lab.velocities(zeroed)[k][0].any() for k in range(1, kmax + 1))


class RecordingLab(NL.SpectralLab):
    """SpectralLab that counts its set-ups and keeps the latest state."""

    builds = 0
    last_state = None

    def __init__(self, *args):
        super().__init__(*args)
        type(self).builds += 1

    def advance(self, state, rhs_prev=None):
        new, rhs = super().advance(state, rhs_prev)
        type(self).last_state = new
        return new, rhs


def test_reused_lab_runs_bit_identical_to_fresh_lab(setup, monkeypatch):
    nu, K, g, ops = setup
    monkeypatch.setattr(NL, "SpectralLab", RecordingLab)
    monkeypatch.setattr(NL, "_last_lab", None)
    dt = NL.dt_accuracy_bound(nu, K)
    amp = 0.01 * math.sqrt(nu)

    def run(a):
        verdict, energy, trace = NL.run_perturbation(nu, a, g, ops, k_max=K,
                                                     t_end=40 * dt)
        return verdict, energy, trace, RecordingLab.last_state

    run(2 * amp)                       # the lab's history: a run at another amplitude
    lab = NL._last_lab
    reused = run(amp)
    assert NL._last_lab is lab
    monkeypatch.setattr(NL, "_last_lab", None)
    fresh = run(amp)
    assert NL._last_lab is not lab
    assert reused[0] == fresh[0] == "stable"
    assert reused[1] == fresh[1] and reused[2] == fresh[2]
    assert len(reused[2]["samples"]) == 10
    a, b = reused[3], fresh[3]
    assert a.time == b.time and same_bits(a.mean_shear, b.mean_shear)
    assert same_bits(a.frame, b.frame)
    assert all(same_bits(a.modes[k], b.modes[k]) for k in range(-K, K + 1))


def test_lab_memo_keys(setup, monkeypatch):
    # one slot: the last lab comes back only for equal nu, k_max and dt, the
    # same grid and ops objects and the class SpectralLab names now
    nu, K, g, ops = setup
    monkeypatch.setattr(NL, "_last_lab", None)
    dt = NL.dt_accuracy_bound(nu, 2)
    key = (nu, 2, g, ops, dt)
    lab = NL._lab_for(*key)
    assert NL._lab_for(*key) is lab
    for other in [(2 * nu, 2, g, ops, dt), (nu, 2, g, ops, dt / 2),
                  (nu, 3, g, ops, dt), (nu, 2, g, dataclasses.replace(ops), dt)]:
        built = NL._lab_for(*other)
        assert built is not lab and NL._lab_for(*other) is built
        b_nu, b_k_max, b_grid, b_ops, b_dt = other
        assert (built.nu, built.k_max, built.dt) == (b_nu, b_k_max, b_dt)
        assert built.grid is b_grid and built.ops is b_ops
        lab = NL._lab_for(*key)            # the slot holds one lab
        assert lab is not built
    monkeypatch.setattr(NL, "SpectralLab", RecordingLab)
    sub = NL._lab_for(*key)
    assert type(sub) is RecordingLab and sub is not lab
    assert NL._lab_for(*key) is sub


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
    # both ends are stable: no bracket, no bisection and no fit
    assert [v[2] for v in out.verdicts] == ["stable", "stable"]
    assert out.brackets == {}
    assert out.unbracketed == {nu: ("stable", "stable")}
    assert out.fitted_beta is None


def stub_classify(thresholds):
    """_classify without runs: stable below amplitude thresholds[nu]."""
    def classify(probe, nu, amplitude, grid, ops, k_max, t_end=None):
        verdict = "stable" if amplitude < thresholds[nu] else "growing"
        probe.verdicts.append((nu, amplitude, verdict))
        return verdict
    return classify


@pytest.mark.parametrize("c, ends", [(0.03, None), (1.0, ("stable", "stable")),
                                     (0.001, ("growing", "growing"))],
                         ids=["bisection", "both-stable", "both-growing"])
def test_probe_brackets_only_a_sign_change(monkeypatch, c, ends):
    nu = 1e-3
    monkeypatch.setattr(NL, "_classify", stub_classify({nu: c * nu**0.5}))
    probe = NL.ThresholdProbe(nu_values=(nu,), amplitude_lo=0.005, amplitude_hi=0.08)
    out = NL.probe_threshold(probe, lambda _nu: (None, None), rel_bracket=0.1)
    assert out.monotone and out.fitted_beta is None
    if ends is None:
        assert out.unbracketed == {}
        lo, hi = out.brackets[nu]
        assert lo < c <= hi and hi / lo <= 1.1
        assert len(out.verdicts) > 2
    else:
        assert out.brackets == {}
        assert out.unbracketed == {nu: ends}
        assert len(out.verdicts) == 2


def test_fitted_beta_uses_bracketed_nu_only(monkeypatch):
    # thresholds a = 0.01 nu^0.4 at the outer nu, none at the middle one:
    # the fit sees the two brackets and returns -0.4, not the -0.5 that the
    # probe's own ends (c nu^{1/2}) would give
    nus = (1e-2, 1e-3, 1e-5)
    thresholds = {nu: 0.01 * nu**0.4 for nu in nus}
    thresholds[1e-3] = 0.0
    monkeypatch.setattr(NL, "_classify", stub_classify(thresholds))
    probe = NL.ThresholdProbe(nu_values=nus, amplitude_lo=0.005, amplitude_hi=0.08)
    out = NL.probe_threshold(probe, lambda _nu: (None, None), rel_bracket=1e-3,
                             max_runs=40)
    assert sorted(out.brackets) == [1e-5, 1e-2]
    assert out.unbracketed == {1e-3: ("growing", "growing")}
    assert abs(out.fitted_beta + 0.4) < 1e-3


def test_probe_builds_one_lab_per_nu(monkeypatch):
    # real runs, cut short: a run grows (the lab raises the blow-up error)
    # when it starts from a larger mode 1 than the seed at c = 0.03
    K = 8
    grids = {nu: (g, build_diff_ops(g)) for nu in (1e-2, 1e-3)
             for g in [build_grid(default_order(nu, K))]}

    class Counting(RecordingLab):
        builds = 0

        def advance(self, state, rhs_prev=None):
            g, ops = grids[self.nu]
            seed = NL.initial_state(0.03 * self.nu**0.5, g, ops, K).modes[1]
            if state.time == 0.0 and np.abs(state.modes[1]).max() > np.abs(seed).max():
                raise NL.BlowupError("above the stub threshold")
            return super().advance(state, rhs_prev)

    monkeypatch.setattr(NL, "SpectralLab", Counting)
    monkeypatch.setattr(NL, "_last_lab", None)
    probe = NL.ThresholdProbe(nu_values=(1e-2, 1e-3), amplitude_lo=0.005,
                              amplitude_hi=0.08)
    out = NL.probe_threshold(probe, grids.__getitem__, k_max=K, rel_bracket=0.5,
                             max_runs=4, t_end=0.05)
    assert Counting.builds == 2
    assert len(out.verdicts) > 4 and sorted(out.brackets) == [1e-3, 1e-2]
    for nu, (lo, hi) in out.brackets.items():
        assert lo < 0.03 <= hi, nu


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

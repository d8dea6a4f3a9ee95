"""Desk-scale pseudo-spectral solver for the perturbation system.

Mode k vorticity (velocity-Dirichlet walls, enforced as wall moments):

    (d/dt - nu(d2 - k^2) + iky) w_k = -ik f1_k - d f2_k/dy,
    f1_k = sum_l u1_l w_{k-l},   f2_k = sum_l u2_l w_{k-l},

with the streamwise mean obeying (d/dt - nu d2) ubar = -f2_0, ubar(+-1) = 0.
Linear parts step by Crank-Nicolson with the influence-matrix wall treatment
(the same propagator the linear evolution module uses); the quadratic terms
are explicit second-order Adams-Bashforth, dealiased by zero padding in x.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .evolution import CrankNicolson, dt_accuracy_bound
from .grid import l2_norm, quadrature, real_apply
from .resolvent import recover_velocity

BLOWUP_GUARD = 1e8


class BlowupError(RuntimeError):
    pass


@dataclass
class PerturbationState:
    """Mode map k -> w_k for |k| <= k_max (w_{-k} = conj w_k), plus the mean."""

    modes: dict
    mean_shear: np.ndarray
    time: float = 0.0

    @property
    def k_max(self):
        return max(self.modes)


@dataclass
class EnergyFunctional:
    e0: float
    ek: dict
    total: float


@dataclass
class ThresholdProbe:
    nu_values: tuple
    amplitude_lo: float
    amplitude_hi: float
    verdicts: list = field(default_factory=list)
    brackets: dict = field(default_factory=dict)
    fitted_beta: float = None
    monotone: bool = True


def pad_modes(k_max):
    """3/2-rule padded transform length for quadratic products."""
    m = 3 * k_max + 1
    size = 4
    while size < m:
        size *= 2
    return size


def initial_state(amplitude, grid, ops, k_max):
    """Divergence-free, wall-compatible seed: amplitude * rot of
    (1-y^2)^2 sin x, rescaled so the velocity H^2 norm equals `amplitude`."""
    y = grid.nodes
    psi = (1.0 - y**2) ** 2 / 2j       # coefficient of e^{ix}
    lap1 = ops.d2 - np.eye(grid.n_points)
    w1 = lap1 @ psi
    h2 = _h2_norm_of_mode(psi, 1, grid, ops)
    scale = amplitude / h2
    modes = {k: np.zeros(grid.n_points, dtype=complex) for k in
             range(-k_max, k_max + 1)}
    modes[1] = scale * w1
    modes[-1] = np.conj(modes[1])
    mean = np.zeros(grid.n_points)
    return PerturbationState(modes=modes, mean_shear=mean, time=0.0)


def _h2_norm_of_mode(phi_k, k, grid, ops):
    """H^2(Omega) norm of the velocity field of a single +-k mode pair."""
    u1 = ops.d1 @ phi_k
    u2 = -1j * k * phi_k
    total = 0.0
    for comp in (u1, u2):
        for b in range(3):
            dyb = comp if b == 0 else (ops.d1 @ comp if b == 1 else ops.d2 @ comp)
            for a in range(3 - b):
                total += abs(k) ** (2 * a) * abs(quadrature(grid, np.abs(dyb) ** 2))
    return math.sqrt(4.0 * math.pi * total)


class SpectralLab:
    """Workspace holding per-mode propagators and the dealiased product rule."""

    def __init__(self, nu, k_max, grid, ops, dt):
        self.nu, self.k_max, self.dt = nu, k_max, dt
        self.grid, self.ops = grid, ops
        self.steppers = {k: CrankNicolson(nu, k, "non_slip", dt, grid, ops)
                         for k in range(1, k_max + 1)}
        self.elliptic = {k: self.steppers[k].elliptic for k in range(1, k_max + 1)}
        n = grid.n_points
        heat = np.eye(n) - 0.5 * dt * nu * ops.d2
        heat[0, :] = 0.0
        heat[0, 0] = 1.0
        heat[-1, :] = 0.0
        heat[-1, -1] = 1.0
        self._heat_lu = sla.lu_factor(heat)
        self._heat_minus = np.eye(n) + 0.5 * dt * nu * ops.d2
        self.m_pad = pad_modes(k_max)
        self._velocities_of = (None, None)   # (state, its velocities)

    def velocities(self, state):
        """Per-mode velocity arrays for k = 0..k_max (k = 0 is the mean).

        The stream functions of all modes go through one d/dy product.  The
        result for the last state object asked about is kept, so a sampled
        step's energy and the next step's right-hand side share one
        evaluation; states are not modified once built."""
        if self._velocities_of[0] is state:
            return self._velocities_of[1]
        ks = np.arange(1, self.k_max + 1)
        phi = np.column_stack([self.elliptic[k].solve(state.modes[k]) for k in ks])
        u1, u2 = recover_velocity(phi, ks, self.ops)
        out = {0: (state.mean_shear.astype(complex), np.zeros_like(state.mean_shear, dtype=complex))}
        out.update({k: (u1[:, k - 1], u2[:, k - 1]) for k in ks})
        self._velocities_of = (state, out)
        return out

    def nonlinear_rhs(self, state):
        """Convolution forcings (f1_k, f2_k) for k = 0..k_max, dealiased.

        Zero-padded FFT in x realizes the truncated convolution exactly.
        """
        m = self.m_pad
        n = self.grid.n_points
        km = self.k_max
        vel = self.velocities(state)

        def to_phys(coef):
            return np.fft.ifft(coef, axis=0) * m

        cu1 = np.zeros((m, n), dtype=complex)
        cu2 = np.zeros((m, n), dtype=complex)
        cw = np.zeros((m, n), dtype=complex)
        cw[0] = self.ops.d1 @ state.mean_shear
        cu1[0] = vel[0][0]
        for k in range(1, km + 1):
            u1, u2 = vel[k]
            cu1[k], cu2[k], cw[k] = u1, u2, state.modes[k]
            cu1[m - k], cu2[m - k], cw[m - k] = np.conj(u1), np.conj(u2), np.conj(state.modes[k])
        pu1, pu2, pw = to_phys(cu1), to_phys(cu2), to_phys(cw)
        f1 = np.fft.fft(pu1 * pw, axis=0) / m
        f2 = np.fft.fft(pu2 * pw, axis=0) / m
        return ({k: f1[k] for k in range(0, km + 1)},
                {k: f2[k] for k in range(0, km + 1)})

    def rhs_vectors(self, state):
        """Nodal right-hand sides: per-mode -ik f1_k - d f2_k/dy and the
        mean forcing -f2_0."""
        f1, f2 = self.nonlinear_rhs(state)
        ks = range(1, self.k_max + 1)
        df2 = real_apply(self.ops.d1, np.column_stack([f2[k] for k in ks]))
        rhs = {k: -1j * k * f1[k] - df2[:, k - 1] for k in ks}
        return rhs, -f2[0]

    def advance(self, state, rhs_prev=None):
        """One CN + AB2 step; returns (new state, rhs for the next AB2 leg)."""
        rhs, mean_rhs = self.rhs_vectors(state)
        modes = {}
        for k in range(1, self.k_max + 1):
            if rhs_prev is None:
                explicit = rhs[k]
            else:
                explicit = 1.5 * rhs[k] - 0.5 * rhs_prev[0][k]
            wk = self.steppers[k].step(state.modes[k], rhs_mid=explicit)
            peak = np.max(np.abs(wk))
            if not np.isfinite(peak) or peak > BLOWUP_GUARD:
                raise BlowupError(f"mode {k} exceeded the blow-up guard")
            modes[k] = wk
            modes[-k] = np.conj(wk)
        if rhs_prev is None:
            explicit_mean = mean_rhs
        else:
            explicit_mean = 1.5 * mean_rhs - 0.5 * rhs_prev[1]
        rhs_mean = self._heat_minus @ state.mean_shear + self.dt * explicit_mean.real
        rhs_mean[0] = rhs_mean[-1] = 0.0
        mean = sla.lu_solve(self._heat_lu, rhs_mean)
        modes[0] = np.zeros_like(mean, dtype=complex)
        new = PerturbationState(modes=modes, mean_shear=mean,
                                time=state.time + self.dt)
        return new, (rhs, mean_rhs)


class EnergyAccumulator:
    """Running space-time pieces of the per-mode energy functional."""

    def __init__(self, nu, k_max, grid, ops):
        self.nu, self.k_max = nu, k_max
        self.grid, self.ops = grid, ops
        self.bw = 1.0 - np.abs(grid.nodes)
        self.sup_bw = {k: 0.0 for k in range(1, k_max + 1)}
        self.sup_uinf = {k: 0.0 for k in range(1, k_max + 1)}
        self.int_u2 = {k: 0.0 for k in range(1, k_max + 1)}
        self.int_w2 = {k: 0.0 for k in range(1, k_max + 1)}
        self.sup_mean = 0.0
        self._prev = None

    def take(self, lab, state):
        g = self.grid
        t = state.time
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
            h = 0.5 * (t - t0)
            for k in cur_u2:
                self.int_u2[k] += h * (pu[k] + cur_u2[k])
                self.int_w2[k] += h * (pw[k] + cur_w2[k])
        self._prev = (t, cur_u2, cur_w2)

    def energy(self):
        ek = {}
        for k in range(1, self.k_max + 1):
            ek[k] = (self.sup_bw[k]
                     + abs(k) * math.sqrt(self.int_u2[k])
                     + abs(k) ** 0.5 * self.sup_uinf[k]
                     + (self.nu * k**2) ** 0.25 * math.sqrt(self.int_w2[k]))
        total = self.sup_mean + 2.0 * sum(ek.values())
        return EnergyFunctional(e0=self.sup_mean, ek=ek, total=total)


TAIL_LIMIT = 1e-4


def run_perturbation(nu, amplitude, grid, ops, k_max=8, t_end=None, dt=None,
                     sample_every=4, growth_factor=4.0):
    """Integrate from the standard seed; classify stable/growing/inconclusive.

    Returns (verdict, EnergyFunctional, trace) where trace carries the
    sampled (t, running total energy) history and the worst truncation-tail
    ratio ||w_kmax|| / ||w_1||; a tail above TAIL_LIMIT means k_max was
    insufficient and downgrades the verdict to inconclusive.
    """
    if dt is None:
        dt = dt_accuracy_bound(nu, k_max)
    if t_end is None:
        t_end = 20.0 * (nu) ** (-1 / 3)
    state = initial_state(amplitude, grid, ops, k_max)
    lab = SpectralLab(nu, k_max, grid, ops, dt)
    acc = EnergyAccumulator(nu, k_max, grid, ops)
    acc.take(lab, state)
    t_ref = t_end / 10.0
    ref = None
    trace = {"samples": [], "tail_ratio": 0.0}
    rhs_prev = None
    verdict = "stable"
    step = 0
    try:
        while state.time < t_end - 1e-12:
            state, rhs_prev = lab.advance(state, rhs_prev)
            step += 1
            if step % sample_every == 0:
                acc.take(lab, state)
                total = acc.energy().total
                trace["samples"].append((state.time, total))
                n1 = l2_norm(grid, state.modes[1])
                if n1 > 1e-12 * max(amplitude, 1e-300):
                    trace["tail_ratio"] = max(
                        trace["tail_ratio"],
                        l2_norm(grid, state.modes[k_max]) / n1)
                if ref is None and state.time >= t_ref:
                    ref = total
                if ref is not None and total > growth_factor * ref:
                    verdict = "growing"
                    break
    except BlowupError:
        verdict = "growing"
    if verdict == "stable" and ref is None:
        verdict = "inconclusive"
    if verdict == "stable" and trace["tail_ratio"] > TAIL_LIMIT:
        verdict = "inconclusive"  # k_max insufficient for this run
    return verdict, acc.energy(), trace


def probe_threshold(probe, grid_builder, k_max=8, rel_bracket=0.1, max_runs=12,
                    t_end=None):
    """Bisect the stable/growing amplitude boundary for each nu.

    grid_builder(nu) -> (grid, ops).  Verdicts are recorded for every run;
    the bracket shrinks geometrically until hi/lo <= 1 + rel_bracket.
    """
    if k_max < 8:
        raise ValueError("threshold probes require k_max >= 8")
    for nu in probe.nu_values:
        grid, ops = grid_builder(nu)
        lo, hi = probe.amplitude_lo * nu**0.5, probe.amplitude_hi * nu**0.5
        v_lo = _classify(probe, nu, lo, grid, ops, k_max, t_end)
        v_hi = _classify(probe, nu, hi, grid, ops, k_max, t_end)
        if v_lo != "stable" or v_hi == "stable":
            probe.brackets[nu] = (lo / nu**0.5, hi / nu**0.5)
            continue
        runs = 0
        while hi / lo > 1.0 + rel_bracket and runs < max_runs:
            mid = math.sqrt(lo * hi)
            v = _classify(probe, nu, mid, grid, ops, k_max, t_end)
            if v == "stable":
                lo = mid
            else:
                hi = mid
            runs += 1
        probe.brackets[nu] = (lo / nu**0.5, hi / nu**0.5)
    _check_monotone(probe)
    if len(probe.brackets) >= 2:
        nus = sorted(probe.brackets)
        if math.log10(max(nus) / min(nus)) >= 3.0:
            amps = [math.sqrt(probe.brackets[nu][0] * probe.brackets[nu][1])
                    * nu**0.5 for nu in nus]
            probe.fitted_beta = -float(np.polyfit(np.log(nus), np.log(amps), 1)[0])
    return probe


def _classify(probe, nu, amplitude, grid, ops, k_max, t_end=None):
    verdict, _, _ = run_perturbation(nu, amplitude, grid, ops, k_max=k_max,
                                     t_end=t_end)
    probe.verdicts.append((nu, amplitude, verdict))
    return verdict


def _check_monotone(probe):
    for nu in set(v[0] for v in probe.verdicts):
        rows = sorted(v for v in probe.verdicts if v[0] == nu)
        seen_growing = False
        for _, _, verdict in rows:
            if verdict == "growing":
                seen_growing = True
            elif verdict == "stable" and seen_growing:
                probe.monotone = False
    return probe.monotone

"""Desk-scale pseudo-spectral solver for the perturbation system.

Mode k vorticity (velocity-Dirichlet walls, enforced as wall moments):

    (d/dt - nu(d2 - k^2) + iky) w_k = -ik f1_k - d f2_k/dy,
    f1_k = sum_l u1_l w_{k-l},   f2_k = sum_l u2_l w_{k-l},

with the streamwise mean obeying (d/dt - nu d2) ubar = -f2_0, ubar(+-1) = 0.
Linear parts step by Crank-Nicolson with the influence-matrix wall treatment
(the real frame blocks of the linear evolution module and its update rule
`cn_update`, applied to the mean and all modes as one block, the mean's
heat matrix being M+ at k = 0); the quadratic terms are explicit
second-order Adams-Bashforth, dealiased by the 3/2 rule: the x-transforms
to and from the padded physical grid are two small real matrices.  Each
step is a handful of batched real products of half the order on float64
views.

`run_perturbation` takes its lab from a one-slot memo (`_lab_for`): the
last lab built is reused when nu, k_max and dt are equal, the grid and the
diff ops are the same objects and the lab class is the one `SpectralLab`
names at call time; otherwise a new lab replaces it.  A lab's results do
not depend on its history, so a run on a reused lab is bit-identical to
one on a fresh lab, and a probe's runs at one nu share one set-up.  Each
step's CN output stays in the frame: `advance` attaches it to the new
state (`PerturbationState.frame`), and the next evaluation starts from it.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .evolution import CrankNicolson, cn_update, dt_accuracy_bound, m_plus_blocks
from .grid import from_real_frame, l2_norm, pair_view, quadrature, to_real_frame
from .resolvent import frame_d1, frame_solve

BLOWUP_GUARD = 1e8


class BlowupError(RuntimeError):
    pass


@dataclass
class PerturbationState:
    """Mode map k -> w_k for |k| <= k_max (w_{-k} = conj w_k), plus the mean.

    `frame`, when set, is Q^H (`grid.to_real_frame`) of the (k_max + 1, N)
    block [mean velocity; w_1 .. w_k_max]: `SpectralLab.advance` attaches
    its CN output, with row 0 the frame image of the real mean, and
    `SpectralLab.velocities` enters the frame from it.  States built by
    hand or by `initial_state` keep `frame = None` and go to the frame from
    their nodes.  States are not modified once built: the lab keys its
    kept evaluation by state identity and trusts `frame` to match the
    nodes.
    """

    modes: dict
    mean_shear: np.ndarray
    time: float = 0.0
    frame: np.ndarray = None

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
    brackets: dict = field(default_factory=dict)      # nu -> (lo, hi) / nu^{1/2}
    unbracketed: dict = field(default_factory=dict)   # nu -> (verdict lo, verdict hi)
    fitted_beta: float = None
    monotone: bool = True


def pad_modes(k_max):
    """3/2-rule padded transform length for quadratic products."""
    m = 3 * k_max + 1
    size = 4
    while size < m:
        size *= 2
    return size


def x_transforms(k_max, m):
    """Real matrices of the x-transforms between modes 0..k_max and m
    padded physical points: synthesis (m, 2(k_max + 1)) and analysis
    (2(k_max + 1), m), both acting on [Re c_0..c_k_max, Im c_0..c_k_max].

    Their columns and rows are `irfft`/`rfft` of unit coefficients, so a
    product rounds like the FFT it replaces; cos/sin tables raise the
    rounding floor of the top modes about 100-fold.
    """
    unit = np.eye(k_max + 1)
    synthesis = np.fft.irfft(np.vstack([unit, 1j * unit]), n=m, axis=1).T * m
    spectra = np.fft.rfft(np.eye(m), axis=1)[:, :k_max + 1] / m
    return synthesis, np.vstack([spectra.real.T, spectra.imag.T])


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
    """Workspace for the mean flow and the k = 1..k_max modes as one
    (k_max + 1, N) block in the real frame (row 0 the mean velocity, row k
    mode k).

    It keeps, stacked over k = 0..k_max, the real frame blocks of the CN
    matrices (`evolution.m_plus_blocks`: the odd block's inverse, the Schur
    complement's inverse and the shear coupling) with their wall terms;
    layer 0 is the mean's heat step, M+ at k = 0.  It keeps the even and
    odd frame blocks of the elliptic inverses of the modes, the frame
    blocks of d/dy shared by all rows (`CrankNicolson.d1_blocks`), and
    the two x-transform matrices of the dealiased product rule
    (`x_transforms`).  Every stack is of half the order.  A step is one
    batched real product per elliptic block, the two d/dy blocks for u1
    and the mean's vorticity, two small transform products, the two d/dy
    blocks for d f2/dy, and three batched half-order products for CN
    (`cn_update`).

    Nothing in a lab changes after set-up but the kept evaluation of the
    last state asked about, keyed by state identity, so a lab gives the
    same bits whatever it ran before; `run_perturbation` reuses one per
    (nu, k_max, dt, grid, ops) through `_lab_for`.
    """

    def __init__(self, nu, k_max, grid, ops, dt):
        self.nu, self.k_max, self.dt = nu, k_max, dt
        self.grid, self.ops = grid, ops
        n = grid.n_points
        h = n // 2
        self._ks = np.arange(1, k_max + 1)
        # CN stacks over k = 0..k_max: layer 0 is the mean flow's heat step,
        # M+ at k = 0 (the bordered 1 - dt nu d2 / 2), whose two-column wall
        # term is padded with zeros to the modes' four
        self._cn_blocks = (np.empty((k_max + 1, h, h)),
                           np.empty((k_max + 1, n - h, n - h)), np.empty((k_max + 1, h)))
        self._wall_terms = (np.zeros((k_max + 1, n, 4)), np.zeros((k_max + 1, 4, n)))
        heat_blocks, heat_wall_term = m_plus_blocks(nu, 0, dt, grid, ops)
        for stack, part in zip(self._cn_blocks, heat_blocks):
            stack[0] = part
        self._wall_terms[0][0, :, :2], self._wall_terms[1][0, :2] = heat_wall_term
        self._elliptic = (np.empty((k_max, n - h, n - h)), np.empty((k_max, h, h)))
        for k in self._ks:
            cn = CrankNicolson(nu, k, "non_slip", dt, grid, ops)
            for stack, part in zip(self._cn_blocks + self._wall_terms,
                                   cn.blocks + cn.wall_term):
                stack[k] = part
            for stack, part in zip(self._elliptic, cn.elliptic.frame_inverses):
                stack[k - 1] = part
        self._d1 = cn.d1_blocks                         # d/dy, shared by every row
        self.m_pad = pad_modes(k_max)
        self._synthesis, self._analysis = x_transforms(k_max, self.m_pad)
        # (state, its velocities, blocks, frame of the mean and the modes)
        self._evaluated = (None, None, None, None)

    def _d1_rows(self, z):
        """Q^H d1 Q applied to each row of the complex (m, N) frame block z."""
        cols = np.ascontiguousarray(z.T)
        return frame_d1(self._d1, cols.view(np.float64)).view(complex).T

    def velocities(self, state):
        """Per-mode velocity arrays for k = 0..k_max (k = 0 is the mean).

        The mean and the modes enter the frame as one block: the state's
        `frame` when `advance` made it, else Q^H of its nodes.  The
        elliptic solves of all modes are one batched real product per
        frame block; d/dy of the mean velocity and of phi is one product
        per d/dy frame block, and phi and u1 go back to nodes together.
        The result for the last state object asked about is kept, with its
        blocks (`blocks`), so a sampled step's energy and the next step's
        right-hand side share one evaluation; states are not modified once
        built."""
        if self._evaluated[0] is not state:
            km = self.k_max
            w = np.array([state.modes[k] for k in self._ks], dtype=complex)
            if state.frame is not None:
                z = state.frame           # advance's blow-up guard saw w finite
            elif np.isfinite(w[:, 1:-1]).all():
                z = to_real_frame(np.vstack([state.mean_shear, w]))
            else:
                raise ValueError("non-finite vorticity in the elliptic solves")
            # rows: the mean velocity, then phi of each mode
            phi = z.copy()
            phi[1:] = frame_solve(self._elliptic, pair_view(z[1:])).view(complex)[..., 0]
            # rows: phi of each mode, the mean's vorticity, u1 of each mode
            nodes = from_real_frame(np.vstack([phi[1:], self._d1_rows(phi)]))
            u1, u2 = nodes[km + 1:], -1j * self._ks[:, None] * nodes[:km]
            out = {0: (state.mean_shear.astype(complex),
                       np.zeros_like(state.mean_shear, dtype=complex))}
            out.update({k: (u1[k - 1], u2[k - 1]) for k in self._ks})
            self._evaluated = (state, out, (w, u1, u2, nodes[km].real), z)
        return self._evaluated[1]

    def blocks(self, state):
        """(w, u1, u2, mean vorticity) of modes 1..k_max: (k_max, N) blocks
        (row k - 1 is mode k) and the mean's d ubar/dy, from the evaluation
        `velocities` keeps."""
        self.velocities(state)
        return self._evaluated[2]

    def _frame(self, state):
        """Q^H of the mean velocity (row 0) and of the mode block, from the
        kept evaluation."""
        self.velocities(state)
        return self._evaluated[3]

    def nonlinear_rhs(self, state):
        """Convolution forcings (f1, f2), each a (k_max + 1, N) array whose
        row k is mode k = 0..k_max, dealiased.

        The fields are real, so the x-transforms to the m_pad padded points
        realize the truncated convolution exactly: one synthesis product of
        the three coefficient sets and one analysis product of the two
        pointwise products.
        """
        km, n = self.k_max, self.grid.n_points
        w, u1, u2, wbar = self.blocks(state)
        coef = np.zeros((2, km + 1, 3, n))          # (Re/Im, mode, field, node)
        coef[0, 0, 0] = state.mean_shear
        coef[0, 0, 2] = wbar
        for j, field in enumerate((u1, u2, w)):
            coef[0, 1:, j], coef[1, 1:, j] = field.real, field.imag
        pu1, pu2, pw = (self._synthesis @ coef.reshape(2 * (km + 1), 3 * n)
                        ).reshape(self.m_pad, 3, n).transpose(1, 0, 2)
        prod = np.stack([pu1 * pw, pu2 * pw], axis=1).reshape(self.m_pad, 2 * n)
        f = (self._analysis @ prod).reshape(2, km + 1, 2, n)
        f = f[0] + 1j * f[1]
        return f[:, 0], f[:, 1]

    def rhs_vectors(self, state):
        """Right-hand sides in the real frame, Q^H of each row, as a
        (k_max + 1, N) array: row k >= 1 is -ik f1_k - d f2_k/dy (d/dy by
        its frame blocks), row 0 the mean forcing -f2_0; returned with that
        row."""
        f1, f2 = (to_real_frame(f) for f in self.nonlinear_rhs(state))
        rhs = np.empty_like(f1)
        rhs[0] = -f2[0]
        rhs[1:] = -1j * self._ks[:, None] * f1[1:] - self._d1_rows(f2[1:])
        return rhs, rhs[0]

    def advance(self, state, rhs_prev=None):
        """One CN + AB2 step; returns (new state, rhs for the next AB2 leg)."""
        rhs, mean_rhs = self.rhs_vectors(state)
        explicit = rhs if rhs_prev is None else 1.5 * rhs - 0.5 * rhs_prev[0]
        z = pair_view(self._frame(state))
        x = pair_view(self.dt * explicit)
        if not (np.isfinite(z).all() and np.isfinite(x).all()):
            raise ValueError("non-finite CN right-hand side in the mode block")
        frame = cn_update(self._cn_blocks, self._wall_terms, z, x).view(complex)[..., 0]
        # the mean is real: its frame image is real on the even rows and
        # imaginary on the odd ones; drop the rounding-level rest, as .real
        # drops it at the nodes
        even = frame.shape[1] - frame.shape[1] // 2
        frame[0, :even].imag = 0.0
        frame[0, even:].real = 0.0
        out = from_real_frame(frame)
        w_new = out[1:]
        over = ~(np.abs(w_new).max(axis=1) <= BLOWUP_GUARD)
        if over.any():
            raise BlowupError(f"mode {int(np.argmax(over)) + 1} exceeded the blow-up guard")
        conj = np.conj(w_new)
        modes = {0: np.zeros(self.grid.n_points, dtype=complex)}
        for k in self._ks:
            modes[k], modes[-k] = w_new[k - 1], conj[k - 1]
        mean = out[0].real.copy()
        new = PerturbationState(modes=modes, mean_shear=mean, time=state.time + self.dt,
                                frame=frame)
        return new, (rhs, mean_rhs)


class EnergyAccumulator:
    """Running space-time pieces of the per-mode energy functional.

    The per-mode pieces are arrays indexed by k (entry 0 unused); `take`
    evaluates each quadrature once over the (k_max, N) mode block.
    """

    def __init__(self, nu, k_max, grid, ops):
        self.nu, self.k_max = nu, k_max
        self.grid, self.ops = grid, ops
        self.bw = 1.0 - np.abs(grid.nodes)
        self.sup_bw = np.zeros(k_max + 1)
        self.sup_uinf = np.zeros(k_max + 1)
        self.int_u2 = np.zeros(k_max + 1)
        self.int_w2 = np.zeros(k_max + 1)
        self.sup_mean = 0.0
        self._prev = None

    def take(self, lab, state):
        g = self.grid
        t = state.time
        w, u1, u2, wbar = lab.blocks(state)
        umod2 = np.abs(u1) ** 2 + np.abs(u2) ** 2
        w2 = np.abs(w) ** 2
        self.sup_bw[1:] = np.maximum(self.sup_bw[1:],
                                     np.sqrt(np.abs((self.bw * w2) @ g.quad_weights)))
        self.sup_uinf[1:] = np.maximum(self.sup_uinf[1:], np.sqrt(umod2.max(axis=1)))
        cur_u2 = np.abs(umod2 @ g.quad_weights)
        cur_w2 = np.abs(w2 @ g.quad_weights)
        self.sup_mean = max(self.sup_mean, l2_norm(g, wbar))
        if self._prev is not None:
            t0, pu, pw = self._prev
            h = 0.5 * (t - t0)
            self.int_u2[1:] += h * (pu + cur_u2)
            self.int_w2[1:] += h * (pw + cur_w2)
        self._prev = (t, cur_u2, cur_w2)

    def energy(self):
        ek = {}
        for k in range(1, self.k_max + 1):
            ek[k] = float(self.sup_bw[k]
                          + abs(k) * math.sqrt(self.int_u2[k])
                          + abs(k) ** 0.5 * self.sup_uinf[k]
                          + (self.nu * k**2) ** 0.25 * math.sqrt(self.int_w2[k]))
        total = self.sup_mean + 2.0 * sum(ek.values())
        return EnergyFunctional(e0=self.sup_mean, ek=ek, total=total)


TAIL_LIMIT = 1e-4

_last_lab = None        # the one slot of `_lab_for`


def _lab_for(nu, k_max, grid, ops, dt):
    """The last lab built here when nu, k_max and dt are equal, grid and ops
    are the same objects and its class is the one `SpectralLab` names now
    (a subclass swapped in gets labs of its own); else a new lab, which
    takes the slot.  One slot: a second lab would keep another set of
    stacks, about 4N^2(2 k_max + 1) bytes, alive."""
    global _last_lab
    lab = _last_lab
    if not (type(lab) is SpectralLab and lab.grid is grid and lab.ops is ops
            and (lab.nu, lab.k_max, lab.dt) == (nu, k_max, dt)):
        _last_lab = None                # the old stacks go before the new are built
        lab = _last_lab = SpectralLab(nu, k_max, grid, ops, dt)
    return lab


def run_perturbation(nu, amplitude, grid, ops, k_max=8, t_end=None, dt=None,
                     sample_every=4, growth_factor=4.0):
    """Integrate from the standard seed; classify stable/growing/inconclusive.

    Returns (verdict, EnergyFunctional, trace) where trace carries the
    sampled (t, running total energy) history and the worst truncation-tail
    ratio ||w_kmax|| / ||w_1||; a tail above TAIL_LIMIT means k_max was
    insufficient and downgrades the verdict to inconclusive.

    The lab comes from `_lab_for`: runs at one (nu, k_max, dt) on the same
    grid and ops objects share one set-up, with results bit-identical to a
    fresh lab's.
    """
    if dt is None:
        dt = dt_accuracy_bound(nu, k_max)
    if t_end is None:
        t_end = 20.0 * (nu) ** (-1 / 3)
    state = initial_state(amplitude, grid, ops, k_max)
    lab = _lab_for(nu, k_max, grid, ops, dt)
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

    grid_builder(nu) -> (grid, ops).  Verdicts are recorded for every run.
    A nu whose lower end is stable and whose upper end is not is bisected,
    geometrically until hi/lo <= 1 + rel_bracket, and its bracket recorded
    in `brackets`; any other nu goes to `unbracketed` with its two end
    verdicts.  `fitted_beta` is fitted over bracketed nu only.
    """
    if k_max < 8:
        raise ValueError("threshold probes require k_max >= 8")
    for nu in probe.nu_values:
        grid, ops = grid_builder(nu)
        lo, hi = probe.amplitude_lo * nu**0.5, probe.amplitude_hi * nu**0.5
        v_lo = _classify(probe, nu, lo, grid, ops, k_max, t_end)
        v_hi = _classify(probe, nu, hi, grid, ops, k_max, t_end)
        if v_lo != "stable" or v_hi == "stable":
            probe.unbracketed[nu] = (v_lo, v_hi)
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

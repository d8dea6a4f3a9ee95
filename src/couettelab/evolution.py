"""Time integration of the forced sheared advection-diffusion equation.

    d omega/dt + [nu(k^2 - d2) + iky] omega = -ik f1 - d f2/dy

Crank-Nicolson on the full dense operator, set up once per run.  Under
vorticity Dirichlet the wall rows are bordered to w(+-1) = 0; under velocity
Dirichlet the two wall values are chosen each step by the influence-matrix
method so the exp(+-ky) moments of omega hit their targets (zero for the
plain problem), which is the moment form of phi'(+-1) = 0.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg as sla

from .grid import (bordered_frame_blocks, frame_blocks, frame_weights,
                   from_real_frame, l2_norm, pair_view, quadrature, real_apply,
                   to_real_frame, wall_moment_residuals, wall_moment_rows)
from .resolvent import (INFLUENCE_COND_MAX, EllipticSolver, check_bc, frame_d1,
                        frame_solve)
from .weights import rho_k

MAX_STEPS = 400_000


def dt_accuracy_bound(nu, k):
    """0.1 min(1/|k|, enhanced-dissipation time)."""
    return 0.1 * min(1.0 / abs(k), nu ** (-1 / 3) * abs(k) ** (-2 / 3))


@dataclass
class EvolutionCase:
    nu: float
    k: int
    omega0: np.ndarray
    dt: float
    t_end: float
    bc: str = "non_slip"
    forcing: object = None          # callable t -> (f1, f2) nodal arrays or None
    check_moments: bool = True

    def __post_init__(self):
        check_bc(self.bc)
        if self.dt <= 0 or self.t_end <= 0:
            raise ValueError("dt and t_end must be positive")
        bound = dt_accuracy_bound(self.nu, self.k)
        if self.dt > bound * (1 + 1e-12):
            raise ValueError(f"dt = {self.dt} exceeds the accuracy rule {bound:.4g}")


def m_plus_blocks(nu, k, dt, grid, ops):
    """Real frame blocks of the wall-bordered M+ = 1 + dt L/2,
    L = nu(k^2 - d2) + iky, at any integer k (k = 0 is the heat matrix).

    In the frame of `to_real_frame`, M+ = [[A_e, -Y], [Y, A_o]]: A_e and
    A_o are the frame blocks of the bordered 1 + (dt nu/2)(k^2 - d2), from
    those of d2 (`grid.bordered_frame_blocks`); Y = diag(y_i) on the node
    pairs i < N//2, y_i = (dt k/2)(y_i - y_{N-1-i})/2, couples them and is
    zero on the wall pair.  Set-up inverts A_o and the Schur complement
    Sigma = A_e + Y A_o^-1 Y, two real inverses of half the order (N^3/2
    flops against 2 N^3 for M+).

    Returns ((A_o^-1, Sigma^-1, y), (wall columns, wall rows)): y holds the
    N//2 diagonal entries of Y; the wall columns (N, 2) are M+^-1 in the
    frame at the two frame wall coordinates, from two block solves, and the
    wall rows (2, N) select those coordinates.
    """
    n = grid.n_points
    h = n // 2
    even, odd = bordered_frame_blocks(ops, -0.5 * dt * nu, 1.0 + 0.5 * dt * nu * k**2)
    y = 0.25 * dt * k * (grid.nodes[:h] - grid.nodes[::-1][:h])
    y[0] = 0.0
    odd_inv = sla.inv(odd)
    even[:h, :h] += y[:, None] * odd_inv * y
    blocks = (odd_inv, sla.inv(even), y)
    rows = np.eye(n)[[0, n - h]]
    return blocks, (schur_solve(blocks, rows.T), rows)


def schur_solve(blocks, r):
    """M+^-1 r in the frame, from the blocks (A_o^-1, Sigma^-1, y) of
    `m_plus_blocks`: with r = (r_e, r_o),

        t = A_o^-1 r_o,  x_e = Sigma^-1 (r_e + Y t),  x_o = t - A_o^-1 Y x_e,

    three real products of half the order.  r is real, (N, c), or (m, N, c)
    with (m, ...) stacks of the blocks; returns a new array.
    """
    odd_inv, schur_inv, y = blocks
    h, ne = odd_inv.shape[-1], schur_inv.shape[-1]
    y = y[..., None]
    t = np.matmul(odd_inv, r[..., ne:, :])
    b = r[..., :ne, :].copy()
    b[..., :h, :] += y * t
    out = np.empty(schur_inv.shape[:-2] + r.shape[-2:])
    np.matmul(schur_inv, b, out=out[..., :ne, :])
    t -= np.matmul(odd_inv, y * out[..., :h, :])
    out[..., ne:, :] = t
    return out


def cn_update(blocks, wall_term, z, x):
    """S (M- z + x) = S (2 z + x) - z + left (right z), one CN update.

    S = (1 - left right) M+^-1, with M+^-1 the wall-bordered M+ inverted
    by its frame blocks (`schur_solve`) and left right a real rank-2 wall
    term (`wall_term`, as `CrankNicolson.wall_term`) that annihilates the
    wall columns of M+^-1: S drops the wall entries of its argument, the
    bordering's data, and under velocity Dirichlet walls applies the
    influence correction.  So S M+ = 1 - left right, M- = 2 - M+ needs no
    product with d2, and the update is applied as
    (1 - left right)(M+^-1 (2 z + x) - z).  Blocks and wall terms are
    single or (m, ...) stacks; z and x are real, (n, c) or (m, n, c):
    frame vectors on their float64 views (`grid.pair_view`).  Returns a
    new array.
    """
    left, right = wall_term
    out = schur_solve(blocks, 2.0 * z + x)
    out -= z
    out -= np.matmul(left, np.matmul(right, out))
    return out


class CrankNicolson:
    """One-step CN propagator with either wall treatment.

    With L = nu(k^2 - d2) + iky, set-up builds the wall-bordered
    M+ = 1 + dt L/2 as real frame blocks (`m_plus_blocks`: the odd block's
    inverse and the inverse of its Schur complement, both of half the
    order) and, under velocity Dirichlet walls, the influence-matrix
    correction: a complex node-space (N, 2) gain G for the wall-moment
    targets and the real wall term of S M+ = 1 - left right
    (`wall_term`), so that

        w' = Q S Q^H (M- w + dt r) + G targets,  S = (1 - left right) M+^-1

    with left right the frame form of G R (R the moment rows), or of the
    wall columns of M+^-1 against the wall rows under vorticity Dirichlet
    walls.  A step is
    `cn_update`: frame transforms, three half-order real products on the
    float64 view and O(N) wall terms; no d2 product, no LU and no N x N
    matrix is kept.  An unforced step with zero targets is z' = P z on the
    frame vector z = Q^H w, with the real P = S M- (`step_matrix`) built
    on first use from the dense S (`dense_propagator`, assembled from the
    blocks); `apply_steps` applies P^j without leaving the frame.
    `apply_m_minus` forms M- w in nodes, with the complex diagonal
    `m_minus_diag` and the real `m_minus_d2` times d2, for residuals and
    references.  The elliptic solver of the ledger and the frame blocks of
    d/dy are built on first use.
    """

    def __init__(self, nu, k, bc, dt, grid, ops):
        check_bc(bc)
        self.nu, self.k, self.bc, self.dt = nu, k, bc, dt
        self.grid, self.ops = grid, ops
        self.m_minus_diag = 1.0 - 0.5 * dt * (nu * k**2 + 1j * k * grid.nodes)
        self.m_minus_d2 = 0.5 * dt * nu
        self.blocks, self.wall_term = m_plus_blocks(nu, k, dt, grid, ops)
        self.gain = None
        if bc == "non_slip":
            # Q^H [e_0, e_{n-1}] is [[1, 1], [-i, i]] / sqrt 2 on the frame walls
            infl_cols = from_real_frame((self.wall_term[0] @ (
                math.sqrt(0.5) * np.array([[1, 1], [-1j, 1j]]))).T).T
            mom = wall_moment_rows(grid, k)
            infl_mat = real_apply(mom, infl_cols)
            cond = np.linalg.cond(infl_mat)
            if not cond <= INFLUENCE_COND_MAX:
                raise RuntimeError(
                    f"ill-conditioned influence matrix at k = {k}, nu = {nu:g}, "
                    f"dt = {dt:g}: cond = {cond:.3g} > {INFLUENCE_COND_MAX:g}")
            self.gain = np.linalg.solve(infl_mat.T, infl_cols.T).T
            # Q^H G R Q is real: its real part as one (N, 4) x (4, N) product
            gain_q = to_real_frame(self.gain.T).T
            mom_q = np.conj(to_real_frame(mom))
            self.wall_term = (np.hstack([gain_q.real, -gain_q.imag]),
                              np.vstack([mom_q.real, mom_q.imag]))
        self._stride_power = None                       # (s, P^s) once s > 1 is used

    @cached_property
    def elliptic(self):
        """The `EllipticSolver` at k, for the ledger's velocities."""
        return EllipticSolver(self.grid, self.ops, self.k)

    @cached_property
    def d1_blocks(self):
        """The frame blocks of d/dy (`grid.frame_blocks`), for the ledger's
        u1 and the lab's d/dy products."""
        return frame_blocks(self.ops, "d1")

    def dense_propagator(self):
        """The dense real S = (1 - left right) M+^-1 in the frame, assembled
        from the blocks (`schur_solve` on the identity), O(N^3) on each call;
        only `step_matrix` needs it, once."""
        s = schur_solve(self.blocks, np.eye(self.grid.n_points))
        left, right = self.wall_term
        s -= left @ (right @ s)
        return s

    @cached_property
    def step_matrix(self):
        """P = S M- in the real frame, one unforced step with zero targets.

        M- = 2 - M+, and S M+ is the identity but for a rank-2 wall term:
        1 - G R (R the wall-moment rows) under velocity Dirichlet, and
        1 - (wall columns of the bordered M+^-1) under vorticity Dirichlet.
        So P = 2S - 1 + that term: O(N^2) work, with no product S d2.
        """
        p = 2.0 * self.dense_propagator()
        p[np.diag_indices_from(p)] -= 1.0
        left, right = self.wall_term
        p += left @ right
        return p

    def apply_steps(self, z, j, stride, out):
        """out <- P^j z: j unforced steps with zero moment targets, on frame
        vectors (z = Q^H w) multiplied on their float64 views; returns out.

        A full stride (j == stride > 1) is one product with P^stride,
        computed by `matrix_power` on first use and kept; any other j
        applies P j times.  z and out must not overlap.
        """
        x, y = pair_view(z), pair_view(out)
        if j == stride and stride > 1:
            if self._stride_power is None or self._stride_power[0] != stride:
                self._stride_power = (
                    stride, np.linalg.matrix_power(self.step_matrix, stride))
            np.matmul(self._stride_power[1], x, out=y)
            return out
        p = self.step_matrix
        for _ in range(j - 1):
            x = p @ x
        np.matmul(p, x, out=y)
        return out

    def apply_m_minus(self, w):
        """M- w: the diagonal part plus the shared real d2 product."""
        return self.m_minus_diag * w + self.m_minus_d2 * real_apply(self.ops.d2, w)

    def step(self, w, rhs_mid=None, moment_targets=(0.0, 0.0)):
        """Advance one dt.  rhs_mid is the time-centered forcing (nodal);
        moment_targets apply under velocity Dirichlet only."""
        z = pair_view(to_real_frame(w))
        x = 0.0 if rhs_mid is None else pair_view(to_real_frame(self.dt * rhs_mid))
        if not (np.isfinite(z).all() and np.isfinite(x).all()):
            raise ValueError(f"non-finite CN right-hand side at k = {self.k}")
        out = cn_update(self.blocks, self.wall_term, z, x)
        w_new = from_real_frame(out.view(complex)[..., 0])
        if self.gain is not None:
            w_new += self.gain @ np.asarray(moment_targets, dtype=complex)
        return w_new


@dataclass
class SpaceTimeLedger:
    """Accumulated space-time norms of one run (L2-in-time by trapezoid,
    L-inf-in-time by running max over stored samples)."""

    u_linf_linf: float = 0.0
    u_l2l2: float = 0.0
    w_l2l2: float = 0.0
    w_linf_l2: float = 0.0
    boundary_w_linf_l2: float = 0.0
    rho_half_l2l2: float = 0.0
    decay_samples: list = field(default_factory=list)
    t_final: float = 0.0
    data_l2: float = 0.0
    data_dy_l2: float = 0.0
    forcing_f1_l2l2: float = 0.0
    forcing_f2_l2l2: float = 0.0


def space_time_ratio(ledger, nu, k):
    """Space-time estimate ratio: (|k| ||u||^2_{LinfLinf} + k^2 ||u||^2_{L2L2}
    + (nu k^2)^{1/2} ||w||^2_{L2L2} + ||(1-|y|)^{1/2} w||^2_{LinfL2}) over the
    data functional (plus the forcing functional when forced)."""
    lhs = (abs(k) * ledger.u_linf_linf**2
           + k**2 * ledger.u_l2l2**2
           + math.sqrt(nu * k**2) * ledger.w_l2l2**2
           + ledger.boundary_w_linf_l2**2)
    rhs = (ledger.data_l2**2 + ledger.data_dy_l2**2 / k**2
           + nu ** -0.5 * abs(k) * ledger.forcing_f1_l2l2**2
           + ledger.forcing_f2_l2l2**2 / nu)
    return lhs / rhs


class _Accumulator:
    """Space-time ledger of one run, from samples taken in time order.

    Samples are kept in the real frame of `grid.to_real_frame`, as rows
    z = Q^H w of a (BLOCK, N) buffer: `take` copies z into the next row, or,
    given none, records the row `slot()` into which the caller already
    wrote the sample (an unforced run multiplies straight into it).  A full
    buffer, or a read of `led`, flushes it, in the frame: a finiteness
    check, one elliptic solve (`frame_solve`) and one d/dy (`frame_d1`) on
    the block's columns, the weighted quadratures of |w|^2 and |u|^2 as
    small products with the weights mirrored onto the odd half
    (`grid.frame_weights`; the weights are symmetric in y), one
    `from_real_frame` of phi and u1 for max |u|^2 over the nodes, then the
    running maxima and trapezoid sums extended by the block's samples.  A
    flush leaves the rows as they are, so the last sample's row stays valid
    until BLOCK samples later.
    """

    BLOCK = 64

    def __init__(self, case, grid, ops, stepper):
        self.case, self.grid, self.ops = case, grid, ops
        self.stepper = stepper
        q = grid.quad_weights
        rho = rho_k(grid.nodes, (abs(case.k) / case.nu) ** (1 / 3))
        # frame quadrature rows applied to |w|^2: plain, rho-weighted,
        # wall-distance; the first also to |u|^2
        self._w_rows = frame_weights(
            np.vstack([q, rho * q, (1.0 - np.abs(grid.nodes)) * q]))
        self._led = SpaceTimeLedger()
        self._led.data_l2 = l2_norm(grid, case.omega0)
        self._led.data_dy_l2 = l2_norm(grid, real_apply(ops.d1, case.omega0))
        self._buf = np.empty((self.BLOCK, grid.n_points), dtype=complex)
        self._meta = []             # (t, f1norm2, f2norm2) of the buffered samples
        self._prev = None           # (t, per-sample integrands) of the last flushed sample
        self._sq = np.zeros(5)      # squared L2-in-time norms: u, w, rho w, f1, f2

    @property
    def led(self):
        self._flush()
        return self._led

    def slot(self):
        """The buffer row the next sample goes to."""
        return self._buf[len(self._meta)]

    def take(self, t, z=None, f1norm2=0.0, f2norm2=0.0):
        """Record the sample at time t: z = Q^H w, or, when z is None, the
        sample already written into `slot()`."""
        if z is not None:
            self._buf[len(self._meta)] = z
        self._meta.append((t, f1norm2, f2norm2))
        if len(self._meta) == self.BLOCK:
            self._flush()

    def _flush(self):
        m = len(self._meta)
        if m == 0:
            return
        led, k2 = self._led, self.case.k ** 2
        z = np.ascontiguousarray(self._buf[:m].T)               # (N, m) columns
        if not np.isfinite(z).all():
            raise ValueError(
                f"non-finite vorticity in the CN advance at k = {self.case.k}")
        phi = frame_solve(self.stepper.elliptic.frame_inverses, z.view(np.float64))
        u1 = frame_d1(self.stepper.d1_blocks, phi)
        phi, u1 = phi.view(complex), u1.view(complex)
        w_sums = np.abs(self._w_rows @ (np.abs(z) ** 2))        # (3, m)
        u_sums = np.abs(self._w_rows[0] @ (np.abs(u1) ** 2 + k2 * np.abs(phi) ** 2))
        phi_n, u1_n = from_real_frame(np.stack([phi.T, u1.T]))
        umax2 = float(np.max(np.abs(u1_n) ** 2 + k2 * np.abs(phi_n) ** 2))
        ts = [s[0] for s in self._meta]
        # integrands of the trapezoid sums, one column per sample
        vals = np.vstack([u_sums, w_sums[0], w_sums[1],
                          [s[1] for s in self._meta], [s[2] for s in self._meta]])
        led.u_linf_linf = max(led.u_linf_linf, math.sqrt(umax2))
        led.w_linf_l2 = max(led.w_linf_l2, math.sqrt(float(np.max(w_sums[0]))))
        led.boundary_w_linf_l2 = max(led.boundary_w_linf_l2,
                                     math.sqrt(float(np.max(w_sums[2]))))
        if self._prev is not None:
            ts = [self._prev[0]] + ts
            vals = np.column_stack([self._prev[1], vals])
        self._sq += (0.5 * np.diff(ts) * (vals[:, :-1] + vals[:, 1:])).sum(axis=1)
        (led.u_l2l2, led.w_l2l2, led.rho_half_l2l2,
         led.forcing_f1_l2l2, led.forcing_f2_l2l2) = (math.sqrt(x) for x in self._sq)
        led.decay_samples.extend(
            (t, math.sqrt(x)) for t, x in zip(ts[-m:], w_sums[0]))
        led.t_final = ts[-1]
        self._prev = (ts[-1], vals[:, -1].copy())
        self._meta = []


def _rhs_of(case, grid, ops, t):
    if case.forcing is None:
        return None, 0.0, 0.0
    f1, f2 = case.forcing(t)
    rhs = np.zeros(grid.n_points, dtype=complex)
    n1 = n2 = 0.0
    if f1 is not None:
        rhs = rhs - 1j * case.k * f1
        n1 = abs(quadrature(grid, np.abs(f1) ** 2))
    if f2 is not None:
        rhs = rhs - real_apply(ops.d1, f2)
        n2 = abs(quadrature(grid, np.abs(f2) ** 2))
    return rhs, n1, n2


def run(case, grid, ops, store_every=1, auto_extend=True):
    """Integrate to t_end (extended for unforced runs until the vorticity has
    decayed by 1e4) and return the space-time ledger and the final state.

    Samples are taken every store_every steps and at every step from t_end
    on.  A forced run steps one dt at a time in node space.  An unforced run
    stays in the real frame from the first sample to the last: each sample
    is `CrankNicolson.apply_steps` on the previous one, written straight
    into the ledger's buffer, and its norm for the stop test is taken there
    with the quadrature weights mirrored onto the odd half.
    """
    if case.bc == "non_slip" and case.check_moments:
        viol = wall_moment_residuals(grid, case.omega0, case.k).max()
        if not viol <= 1e-8:
            raise ValueError(f"initial data violates the wall moments: {viol:.2e}")
    w = np.asarray(case.omega0, dtype=complex).copy()
    if not np.isfinite(w).all():
        raise ValueError(f"non-finite vorticity in the CN advance at k = {case.k}")
    stepper = CrankNicolson(case.nu, case.k, case.bc, case.dt, grid, ops)
    acc = _Accumulator(case, grid, ops, stepper)
    w0_l2 = l2_norm(grid, w)
    forced = case.forcing is not None
    rhs_prev, n1, n2 = _rhs_of(case, grid, ops, 0.0)
    z = acc.slot()                  # the row the first sample goes to
    acc.take(0.0, to_real_frame(w), n1, n2)
    q_frame = frame_weights(grid.quad_weights)
    t = 0.0
    steps = 0
    while True:
        j = 0                       # steps to the next sample, or to the step cap
        while True:
            if forced:
                rhs_next, n1, n2 = _rhs_of(case, grid, ops, t + case.dt)
                w = stepper.step(w, rhs_mid=0.5 * (rhs_prev + rhs_next))
                rhs_prev = rhs_next
            t += case.dt
            steps += 1
            j += 1
            sample = steps % store_every == 0 or t >= case.t_end
            if sample or steps >= MAX_STEPS:
                break
        if sample and forced:
            acc.take(t, to_real_frame(w), n1, n2)
        elif sample:
            z = stepper.apply_steps(z, j, store_every, out=acc.slot())
            acc.take(t)
        if t >= case.t_end:
            done = True
            if auto_extend and not forced:
                done = math.sqrt(abs(np.abs(z) ** 2 @ q_frame)) <= 1e-4 * w0_l2
            if done:
                break
        if steps >= MAX_STEPS:
            raise RuntimeError("run exceeded MAX_STEPS before reaching t_end")
    return acc.led, (w if forced else from_real_frame(z))


def decay_rate(samples, nu, k, efolds=2.0):
    """Fitted decay rate of ||omega(t)||_2 after the non-normal transient.

    Window: drop t < 0.4 (nu k^2)^{-1/3}, fit over the next `efolds`
    e-foldings; returns (rate, r2)."""
    ts = np.array([s[0] for s in samples])
    vs = np.array([s[1] for s in samples])
    t0 = 0.4 * (nu * k**2) ** (-1 / 3)
    i0 = int(np.searchsorted(ts, t0))
    if i0 >= len(ts) - 4:
        raise ValueError("run too short for the fit window")
    v0 = vs[i0]
    mask = (ts >= t0) & (vs >= v0 * math.exp(-efolds)) & (vs > 0)
    if mask.sum() < 5:
        raise ValueError("too few samples in the fit window")
    lt, lv = ts[mask], np.log(vs[mask])
    slope, intercept = np.polyfit(lt, lv, 1)
    resid = lv - (slope * lt + intercept)
    ss = np.sum((lv - lv.mean()) ** 2)
    r2 = 1.0 - np.sum(resid**2) / ss if ss > 0 else 0.0
    return -float(slope), float(r2)


def homogeneous_splitting(case, grid, ops, store_every=1):
    """Three-part splitting of the unforced velocity-Dirichlet run.

    part 1: exp(-(nu k^2)^{1/3} t - i t k y) omega0, in closed form.
    part 2: forced moment-zero run; its discrete forcing is the CN residual
            of the sampled part 1, i.e. the trapezoidal discretization of
            -(nu k^2 - (nu k^2)^{1/3}) w1 + nu d2 w1 (difference O(dt^2)),
            which makes the three-part sum satisfy the direct CN recurrence
            identically.
    part 3: unforced run, zero initial data, moment targets opposite to
            part 1's moments.

    Returns (ledgers dict, additivity error in relative L-inf L2).
    """
    if case.bc != "non_slip" or case.forcing is not None:
        raise ValueError("splitting is defined for unforced non_slip runs")
    nu, k, dt = case.nu, case.k, case.dt
    mu = (nu * k**2) ** (1 / 3)
    y = grid.nodes
    w0 = np.asarray(case.omega0, dtype=complex)

    def part1(t):
        return np.exp(-mu * t - 1j * t * k * y) * w0

    stepper = CrankNicolson(nu, k, "non_slip", dt, grid, ops)
    acc1 = _Accumulator(case, grid, ops, stepper)
    acc2 = _Accumulator(case, grid, ops, stepper)
    acc3 = _Accumulator(case, grid, ops, stepper)
    accd = _Accumulator(case, grid, ops, stepper)
    mom = wall_moment_rows(grid, k)

    w_d = w0.copy()
    w2 = np.zeros_like(w0)
    w3 = np.zeros_like(w0)
    w1 = part1(0.0)
    for a, wv in ((acc1, w1), (acc2, w2), (acc3, w3), (accd, w_d)):
        a.take(0.0, to_real_frame(wv))
    t = 0.0
    nsteps = int(round(case.t_end / dt))
    add_err = 0.0
    ref = l2_norm(grid, w_d)
    for j in range(nsteps):
        t_next = t + dt
        w1_next = part1(t_next)
        # CN residual of the closed-form part: (M+ w1_next - M- w1)/dt,
        # with M+ = 2 - M-
        m_plus_w1n = 2.0 * w1_next - stepper.apply_m_minus(w1_next)
        rhs2 = -(m_plus_w1n - stepper.apply_m_minus(w1)) / dt
        w2 = stepper.step(w2, rhs_mid=rhs2, moment_targets=(0.0, 0.0))
        tgt = -real_apply(mom, w1_next)
        w3 = stepper.step(w3, rhs_mid=None, moment_targets=tuple(tgt))
        w_d = stepper.step(w_d)
        w1 = w1_next
        t = t_next
        if (j + 1) % store_every == 0 or j == nsteps - 1:
            for a, wv in ((acc1, w1), (acc2, w2), (acc3, w3), (accd, w_d)):
                a.take(t, to_real_frame(wv))
            ref = max(ref, l2_norm(grid, w_d))
            add_err = max(add_err, l2_norm(grid, w1 + w2 + w3 - w_d))
    return (dict(part1=acc1.led, part2=acc2.led, part3=acc3.led, direct=accd.led),
            add_err / ref)


def semigroup_norm(nu, k, bc, ts, grid, ops):
    """Weighted operator norm of the CN-free exact propagator at the given
    times, by dense matrix exponentials of the interior generator."""
    from .harness import evolution_generator

    a = evolution_generator(nu, k, bc, grid, ops)
    sq = np.sqrt(grid.quad_weights[1:-1])
    out = []
    for t in ts:
        e = sla.expm(-t * a)
        out.append(float(np.linalg.norm(e * (sq[:, None] / sq[None, :]), 2)))
    return out

"""Resolvent problems for the sheared advection-diffusion operator.

Vorticity-form equation on (-1, 1):

    -nu (w'' - k^2 w) + i k (y - lam) w - eps nu^{1/3} |k|^{2/3} w = F

Two boundary settings: vorticity Dirichlet w(+-1) = 0 ("navier_slip") and
velocity Dirichlet phi(+-1) = phi'(+-1) = 0 ("non_slip"), phi the stream
function with (d^2/dy^2 - k^2) phi = w.  Given phi(+-1) = 0, phi'(+-1) = 0
is the same as zero wall moments <w, e^{+-ky}> (Quartapelle and Valz-Gris),
so one N x N bordered matrix serves both walls.  HessenbergResolvent
reduces it once for solves at many lam.

The non-slip problem is solved two ways: that monolithic solve and the
decomposition w = w_na + c1 w1 + c2 w2 whose homogeneous pieces come
either from slanted Airy functions or from moment-bordered solves.
coupled_system, which imposes phi'(+-1) by derivative rows, is kept as an
independent reference.

k < 0 needs no case of its own: every dense operator at -k is the complex
conjugate of the one at k, so the dense solves return conjugated results
for conjugated data.  Only homogeneous_airy mirrors, because the
slanted-Airy representation is set up for k > 0.
"""

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as sla
from scipy.linalg.lapack import zgbtrf, zgbtrs

from .airy import airy_scaled
from .grid import (FRAME_RESIDUE_MAX, border_dirichlet, bordered_frame_blocks,
                   frame_blocks, frame_weights, from_real_frame, real_apply,
                   to_real_frame, wall_moment_rows)
from .scaled import Scaled, scaled_quadrature

#: Largest admissible contour shift; the harness verifies C * EPSILON_MAX <= 1/2
#: against the recorded vorticity-Dirichlet resolvent constant.
EPSILON_MAX = 0.02

#: Largest admissible condition number of a 2 x 2 wall influence matrix
#: (HessenbergResolvent, and the Crank-Nicolson stepper under velocity
#: Dirichlet walls).
INFLUENCE_COND_MAX = 1e8

#: Wavenumber above which the slanted-Airy representation is trusted even when
#: the wall layer is not much thinner than 1/(6k) (working hypothesis).
K0_LARGE = 10

BCS = ("navier_slip", "non_slip")


def check_bc(bc):
    """Refuse a wall setting outside BCS, naming it."""
    if bc not in BCS:
        raise ValueError(f"bc must be one of {BCS}, got {bc!r}")


@dataclass(frozen=True)
class ResolventCase:
    """One (nu, k, lam, eps, bc) instance of the resolvent problem."""

    nu: float
    k: int
    lam: float = 0.0
    epsilon: float = 0.0
    bc: str = "navier_slip"

    def __post_init__(self):
        if not self.nu > 0:
            raise ValueError("nu must be positive")
        if int(self.k) != self.k or abs(self.k) < 1:
            raise ValueError("k must be a nonzero integer")
        check_bc(self.bc)
        if not 0 <= self.epsilon <= EPSILON_MAX:
            raise ValueError(f"epsilon must lie in [0, {EPSILON_MAX}]")

    @property
    def L(self):
        return (abs(self.k) / self.nu) ** (1.0 / 3.0)

    @property
    def delta(self):
        return (self.nu / abs(self.k)) ** (1.0 / 3.0)

    @property
    def shift(self):
        """eps nu^{1/3} |k|^{2/3}, the spectral-contour displacement."""
        return self.epsilon * self.nu ** (1.0 / 3.0) * abs(self.k) ** (2.0 / 3.0)


@dataclass(frozen=True)
class ForcingSpec:
    """Right-hand side: direct F, or a divergence pair F = -ik f1 - d/dy f2."""

    form: str
    F: np.ndarray = None
    f1: np.ndarray = None
    f2: np.ndarray = None

    def nodal_rhs(self, case, grid, ops):
        if self.form == "direct_F":
            F = np.asarray(self.F, dtype=complex)
        elif self.form == "divergence_pair":
            f1 = np.zeros(grid.n_points, dtype=complex) if self.f1 is None \
                else np.asarray(self.f1, dtype=complex)
            f2 = np.zeros(grid.n_points, dtype=complex) if self.f2 is None \
                else np.asarray(self.f2, dtype=complex)
            F = -1j * case.k * f1 - real_apply(ops.d1, f2)
        else:
            raise ValueError(f"unknown forcing form {self.form!r}")
        if F.shape != (grid.n_points,):
            raise ValueError("forcing length does not match the grid")
        return F


def direct_forcing(F):
    return ForcingSpec(form="direct_F", F=np.asarray(F, dtype=complex))


def pair_forcing(f1=None, f2=None):
    return ForcingSpec(form="divergence_pair", f1=f1, f2=f2)


@dataclass
class ResolventSolution:
    case: ResolventCase
    w: np.ndarray
    phi: np.ndarray
    u: tuple
    w_na: np.ndarray = None
    c1: complex = 0j
    c2: complex = 0j
    path: str = "monolithic"


@dataclass(frozen=True)
class HomogeneousPair:
    """Homogeneous solutions normalized by the wall derivative of phi.

    C11..C22 and A1..B2 are Scaled values (mantissa * exp(log)); they span
    exp(+-O(L^{3/2})) and are combined in log space.
    """

    w1: np.ndarray
    w2: np.ndarray
    phi1: np.ndarray
    phi2: np.ndarray
    C11: Scaled
    C12: Scaled
    C21: Scaled
    C22: Scaled
    A1: Scaled
    A2: Scaled
    B1: Scaled
    B2: Scaled
    method: str = "airy"


class EllipticSolver:
    """Prefactored (d2 - k^2) phi = w with phi(+-1) = 0, in the real frame.

    The bordered operator A is real and centrosymmetric, J A J = A with J
    the node reversal, so in the frame of `grid.to_real_frame` it is block
    diagonal: an even block of the reflection sums and the middle node
    (size N - N//2) and an odd block of the differences (size N//2).
    Set-up takes them from d2's (`grid.bordered_frame_blocks`) and inverts
    each by LU (`lu_factor`, then `lu_solve` on the identity; an explicit
    `inv` loses 2-4 digits in u = d1 phi), zeroing its wall column, since
    the bordering replaces the wall values of w.  `frame_inverses` holds
    (even, odd); a solve is a frame transform, one real product per block
    on the float64 view (`frame_solve`) and the transform back.

    Measured against a longdouble-refined solve of A (nu = 1e-3 and 1e-5
    at k = 1, and 1e-4 at k = 4; N = 81 to 374): u = d1 phi is within
    1.6e-14 to 9.0e-13 relative, phi within 3.5e-13 on smooth and random
    data but only 1.1e-10 on a profile sheared to t = 6 (nu k^2)^(-1/3),
    whose phi is small against w: the operator's condition number is
    ~N^4 (`test_elliptic_solver_matches_refined_solve`).
    """

    def __init__(self, grid, ops, k):
        self.frame_inverses = tuple(
            _lu_inverse(b) for b in bordered_frame_blocks(ops, 1.0, -k**2))

    def solve(self, w):
        """phi for w, an (N,) vector or an (N, m) block of columns."""
        w = np.asarray(w)
        if not np.isfinite(w[1:-1]).all():
            raise ValueError("non-finite right-hand side in the elliptic solve")
        z = np.ascontiguousarray(to_real_frame(w.T).T)
        phi = frame_solve(self.frame_inverses,
                          z.view(np.float64).reshape(z.shape[0], -1))
        return from_real_frame(phi.view(complex).reshape(w.shape).T).T


def _lu_inverse(b):
    """Inverse of a real block by LU, its first (wall) column zeroed."""
    inv = sla.lu_solve(sla.lu_factor(b), np.eye(len(b)))
    inv[:, 0] = 0.0
    return inv


def frame_solve(frame_inverses, z):
    """The (even, odd) frame inverses applied to z, a real array whose
    second-to-last axis holds the frame coordinates: (N, c) with single
    blocks, or (m, N, c) with (m, ., .) stacks of them, one real (batched)
    product per block."""
    even, odd = frame_inverses
    ne = even.shape[-1]
    out = np.empty(even.shape[:-2] + z.shape[-2:])
    np.matmul(even, z[..., :ne, :], out=out[..., :ne, :])
    np.matmul(odd, z[..., ne:, :], out=out[..., ne:, :])
    return out


def frame_d1(d1_blocks, z):
    """Q^H d1 Q z for z the float64 view (N, 2m) of an (N, m) complex block
    of frame columns, d1_blocks = `grid.frame_blocks(ops, "d1")`: one real
    product per block, and the factors i and -i on the complex views.
    Returns the same layout."""
    eo, oe = d1_blocks
    ne = eo.shape[0]
    out = np.empty_like(z)
    np.matmul(eo, z[ne:], out=out[:ne])
    np.matmul(oe, z[:ne], out=out[ne:])
    out[:ne].view(complex)[...] *= 1j
    out[ne:].view(complex)[...] *= -1j
    return out


def recover_velocity(phi, k, ops):
    """u = (d phi/dy, -ik phi).

    phi may also be an (N, m) block of modes, with k an (m,) array of their
    wavenumbers.
    """
    return real_apply(ops.d1, phi), -1j * k * np.asarray(phi)


def vorticity_matrix(case, grid, ops):
    """Unbordered operator -nu(d2 - k^2) + ik(y - lam) - shift.

    Real and imaginary parts are written in place: no N x N temporary;
    the imaginary part is the diagonal k(y - lam).
    """
    n = grid.n_points
    a = np.zeros((n, n), dtype=complex)
    a.real = ops.d2
    diag = np.diag_indices(n)
    a.real[diag] -= case.k**2
    a.real *= -case.nu
    a.real[diag] -= case.shift
    a.imag[diag] = case.k * (grid.nodes - case.lam)
    return a


def bordered_vorticity_matrix(case, grid, ops):
    """vorticity_matrix with its rows at y = +-1 replaced by w = 0
    (navier_slip) or by the wall moments <w, e^{+-|k|y}> (non_slip), whose
    values a right-hand side sets; real and at |k|, so the matrix at -k is
    the conjugate of the one at k.

    Only its interior imaginary diagonal k(y - lam) depends on lam;
    HessenbergResolvent solves with it at any lam from one reduction.
    """
    a = vorticity_matrix(case, grid, ops)
    if case.bc == "navier_slip":
        return border_dirichlet(a)
    a[[0, -1]] = wall_moment_rows(grid, abs(case.k))
    return a


class HessenbergResolvent:
    """Solves with bordered_vorticity_matrix(case) at zero wall data, at any
    lam, from one real Hessenberg reduction.

    Split w into its interior values w_i and its wall values w_b.  The
    interior rows read B(lam) w_i + A_ib w_b = f_i with B(lam) = A_ii - ik lam,
    A_ii the interior block at lam = 0, of size m = N - 2.  In the sqrt-
    weight coordinates u = S w_i (S the interior sqrt quadrature weights)
    S A_ii S^-1 is centrohermitian, so M_r = Q^H S A_ii S^-1 Q is real (Q of
    `grid.to_real_frame`).  The interior frame is the full one without the
    wall pair, so M_r's diagonal blocks are -nu times d2's frame blocks
    (`grid.frame_blocks`) without row and column 0, plus nu k^2 - shift on
    the diagonal, scaled by the frame sqrt weights (`grid.frame_weights`);
    the shear k y puts -+ its odd part on the cross diagonals.  One real
    `sla.hessenberg` gives M_r = Q_h H Q_h^T, so with V = Q Q_h unitary

        S B(lam) S^-1 = V (H - ik lam) V^H,

    and lam enters only on the diagonal of H.  Per lam, H - ik lam is
    factored by zgbtrf with one subdiagonal, O(m^2), into one reused
    complex band buffer; a solve is one zgbtrs.

    The wall rows R w = 0 are w_b = 0 under navier_slip.  Under non_slip
    they are the moment rows, taken with A_ib = -nu d2_ib from node space,
    and the influence-matrix method gives
    w_b = -C^-1 R_i B^-1 f_i, w_i = B^-1 f_i + Z w_b, with Z = -B^-1 A_ib
    the interior response to unit wall values and C = R_b + R_i Z; per lam
    that adds one two-column solve and the 2 x 2 matrix C.  Slaving w_b to
    w_i instead and reducing A_ii + A_ib s0 puts a rank-2 term ~500 times
    the size of A_ii into the reduction (at N = 373), and its solves lose
    two digits against a dense LU of the bordered matrix; these agree with
    it within 6e-13 up to N = 801.

    Kept: the real band of H, the real Q_h, the band buffer, and O(m)
    wall terms.  Those terms use einsum and closed 2 x 2 forms: numpy's
    complex BLAS and SVD kernels would each add their code pages to the
    resident set, for no speed at two rows.
    """

    def __init__(self, case, grid, ops):
        n = grid.n_points
        m, h = n - 2, (n - 2) // 2
        inner, walls = slice(1, n - 1), [0, n - 1]
        self.nu, self.k = case.nu, case.k
        self.sq = np.sqrt(grid.quad_weights[inner])
        sq_frame = frame_weights(self.sq)
        mr = np.zeros((m, m), order="F")      # reduced in place, no copy
        for block, part in zip(frame_blocks(ops, "d2"),
                               (slice(0, m - h), slice(m - h, m))):
            x = mr[part, part]
            np.multiply(block[1:, 1:], -case.nu, out=x)
            x[np.diag_indices_from(x)] += case.nu * case.k**2 - case.shift
            x *= sq_frame[part, None]
            x /= sq_frame[None, part]
        shear = case.k * grid.nodes[inner]
        y = 0.5 * (shear[:h] - shear[::-1][:h])
        cross = np.arange(h)
        mr[cross, cross + m - h] = -y
        mr[cross + m - h, cross] = y
        del block, x                    # x views mr, which `del mr` frees below
        # LAPACK band storage with kl = 1, ku = m - 1: H[i, j] in row
        # m + i - j of column j; row 0 is zgbtrf's fill-in row
        self._band = np.zeros((m + 2, m), order="F")
        hess, self.q_h = sla.hessenberg(mr, calc_q=True, overwrite_a=True)
        del mr
        for j in range(m):
            rows = min(j + 2, m)
            self._band[m - j:m - j + rows, j] = hess[:rows, j]
        del hess
        self._lu = None                 # allocated by the first factor
        self._piv = None
        self._lam = None
        # moment walls: V^H S A_ib, R_i S^-1 V and R_b; per lam `_factor`
        # keeps Z (in Hessenberg coordinates) and the gain -C^-1 R_i S^-1 V
        self._moments = None
        if case.bc == "non_slip":
            border = wall_moment_rows(grid, abs(case.k))
            self._moments = (
                self.to_hessenberg(self.sq[:, None] * (-case.nu * ops.d2[inner, walls])),
                np.conj(self.to_hessenberg(border[:, inner].T / self.sq[:, None])).T,
                border[:, walls])
        self._influence = None

    def _factor(self, lam):
        m = self._band.shape[1]
        if self._lu is None:
            self._lu = np.empty((m + 2, m), dtype=complex, order="F")
        np.copyto(self._lu, self._band)
        self._lu.imag[m] = -self.k * lam          # the diagonal's row
        self._lam = None
        _, self._piv, info = zgbtrf(self._lu, 1, m - 1, overwrite_ab=1)
        if info != 0:
            raise RuntimeError(
                f"banded factor of H - ik lam is singular (zgbtrf info = "
                f"{info}) at lam = {lam!r}, nu = {self.nu:g}, k = {self.k}")
        self._lam = lam
        if self._moments is not None:
            a_h, r_h, r_b = self._moments
            z = -self._shifted(a_h)
            c = r_b + np.einsum("ij,jk->ik", r_h, z)
            # 2 x 2 in closed form: s1^2 + s2^2 = ||c||_F^2, s1 s2 = |det c|
            det = c[0, 0] * c[1, 1] - c[0, 1] * c[1, 0]
            fro2 = float(np.sum(np.abs(c) ** 2))
            s1_sq = 0.5 * (fro2 + math.sqrt(max(fro2**2 - 4 * abs(det) ** 2, 0.0)))
            cond = s1_sq / abs(det) if det != 0 else math.inf
            if not cond <= INFLUENCE_COND_MAX:
                self._lam = None
                raise RuntimeError(
                    f"ill-conditioned wall influence matrix at lam = {lam!r}, "
                    f"nu = {self.nu:g}, k = {self.k}: cond = {cond:.3g} > "
                    f"{INFLUENCE_COND_MAX:g}")
            adj = np.array([[c[1, 1], -c[0, 1]], [-c[1, 0], c[0, 0]]])
            self._influence = (z, np.einsum("ij,jk->ik", -adj / det, r_h))

    def _shifted(self, b, trans=0):
        m = self._lu.shape[1]
        return zgbtrs(self._lu, 1, m - 1, b, self._piv, trans=trans)[0]

    def solve(self, lam, b):
        """(w_b, u): the wall values and the interior Hessenberg coordinates
        u = V^H S w_i of the solution for the interior forcing f_i with
        b = V^H S f_i; b is (m,) or (m, r)."""
        if lam != self._lam:
            self._factor(lam)
        y = self._shifted(b)
        if self._moments is None:
            return np.zeros((2,) + y.shape[1:], dtype=complex), y
        z, gain = self._influence
        w_b = np.einsum("ij,j...->i...", gain, y)
        return w_b, y + np.einsum("ij,j...->i...", z, w_b)

    def solve_adjoint(self, lam, a, v):
        """Adjoint of `solve`: wall values a (2,) and interior coordinates
        v (m,) to forcing coordinates."""
        if lam != self._lam:
            self._factor(lam)
        if self._moments is not None:
            z, gain = self._influence
            a = a + np.einsum("ji,j->i", z.conj(), v)
            v = v + np.einsum("ji,j->i", gain.conj(), a)
        return self._shifted(v, trans=2)

    def to_hessenberg(self, u):
        """V^H u for interior sqrt-weight values u, (m,) or (m, r)."""
        return real_apply(self.q_h.T, to_real_frame(u.T).T)

    def from_hessenberg(self, y):
        """V y, the inverse of `to_hessenberg`."""
        return from_real_frame(real_apply(self.q_h, y).T).T


def _bordered_solve(case, forcing, grid, ops, elliptic):
    """(w, phi): w from one solve of the case's bordered_vorticity_matrix with
    zero wall rows on the right, phi recovered elliptically."""
    rhs = forcing.nodal_rhs(case, grid, ops).copy()
    rhs[0] = rhs[-1] = 0.0
    try:
        w = np.linalg.solve(bordered_vorticity_matrix(case, grid, ops), rhs)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(
            f"resolvent solve failed for {case}: {exc} "
            "(lam real cannot be in the spectrum; check resolution)"
        ) from exc
    if elliptic is None:
        elliptic = EllipticSolver(grid, ops, case.k)
    return w, elliptic.solve(w)


def solve_navier(case, forcing, grid, ops, elliptic=None):
    """Vorticity-Dirichlet resolvent solve; phi recovered elliptically."""
    if case.bc != "navier_slip":
        raise ValueError("solve_navier requires bc = navier_slip")
    w, phi = _bordered_solve(case, forcing, grid, ops, elliptic)
    return ResolventSolution(case=case, w=w, phi=phi,
                             u=recover_velocity(phi, case.k, ops),
                             w_na=w, path="vorticity_dirichlet")


def coefficient_rows(grid, k):
    """(2, n) complex rows with (c1, c2) = rows @ w_na: the quadrature of
    -sinh(k(1+y))/sinh(2k) and +sinh(k(1-y))/sinh(2k); both even in k."""
    q, y = grid.quad_weights, grid.nodes
    s2k = math.sinh(2 * k)
    return np.array([-q * np.sinh(k * (1 + y)) / s2k,
                     q * np.sinh(k * (1 - y)) / s2k], dtype=complex)


def coefficients(w_na, k, grid):
    """Boundary coefficients (c1, c2) = coefficient_rows @ w_na."""
    c1, c2 = coefficient_rows(grid, k) @ w_na
    return complex(c1), complex(c2)


def airy_admissible(case):
    """Hypothesis-range check for the slanted-Airy representation."""
    k = abs(case.k)
    return case.L >= 6 * k or (case.L >= k >= K0_LARGE)


def airy_kernels(cases, grid):
    """Slanted-Airy wall kernels of several cases from one airy_scaled batch.

    Returns one (m1, s1, m2, s2) tuple per case: Ai on the critical-layer
    coordinate rotated by e^{i pi/6} and by e^{5i pi/6}, as mantissa m and
    log scale s.  A case with k < 0 gets the kernels of its k > 0 mirror,
    which is the case homogeneous_airy evaluates for it.  The ascending
    series has a fixed cost per call (a few thousand numpy operations on
    small arrays) whatever the number of points in its band, so one batch
    over a lambda grid costs a fraction of one call per lambda.
    """
    if not cases:
        return []
    y = grid.nodes
    rot1 = cmath.exp(1j * math.pi / 6)
    rot2 = cmath.exp(5j * math.pi / 6)
    args = []
    for case in cases:
        base = (case.L * (y - case.lam - 1j * abs(case.k) * case.nu)
                + 1j * case.epsilon)
        args += [rot1 * base, rot2 * base]
    m_all, _, s_all = airy_scaled(np.concatenate(args), need_prime=False)
    shape = (len(cases), 2, grid.n_points)
    return [(m[0], s[0], m[1], s[1])
            for m, s in zip(m_all.reshape(shape), s_all.reshape(shape))]


def homogeneous_airy(case, grid, ops, elliptic=None, kernels=None):
    """Homogeneous pair from slanted Airy functions.

    W1, W2 are Airy evaluations on the rotated critical-layer coordinate;
    the wall-moment system fixes the four coefficients.  All exponentially
    large factors stay in (mantissa, log) form.  ``kernels`` is the case's
    slice of an airy_kernels batch; without it the case is evaluated alone.
    """
    if not airy_admissible(case):
        raise ValueError(
            f"slanted-Airy representation requires L >= 6|k| or L >= |k| >= "
            f"{K0_LARGE}; case has L = {case.L:.2f}, k = {case.k}")
    if case.k < 0:
        return _conjugate_pair(homogeneous_airy(replace(case, k=-case.k), grid,
                                                ops, elliptic, kernels))

    k = case.k
    y = grid.nodes
    if kernels is None:
        kernels = airy_kernels([case], grid)[0]
    m1, s1, m2, s2 = kernels

    q = grid.quad_weights
    A1 = scaled_quadrature(q, m1, s1 + k * y)
    B1 = scaled_quadrature(q, m1, s1 - k * y)
    A2 = scaled_quadrature(q, m2, s2 - k * y)
    B2 = scaled_quadrature(q, m2, s2 + k * y)

    det = A1 * A2 - B1 * B2
    if det.abs_log() < (B1 * B2).abs_log() + math.log(1e-12):
        raise RuntimeError(f"degenerate homogeneous system for {case}")
    ek = Scaled(1.0 + 0j, float(k))
    emk = Scaled(1.0 + 0j, float(-k))
    C11 = (A2 * ek - B2 * emk) / det
    C12 = (A1 * emk - B1 * ek) / det
    C21 = (B2 * ek - A2 * emk) / det
    C22 = (B1 * emk - A1 * ek) / det

    w1 = _combine(C11, m1, s1, C12, m2, s2)
    w2 = _combine(C21, m1, s1, C22, m2, s2)
    if elliptic is None:
        elliptic = EllipticSolver(grid, ops, k)
    phi1 = elliptic.solve(w1)
    phi2 = elliptic.solve(w2)
    return HomogeneousPair(w1=w1, w2=w2, phi1=phi1, phi2=phi2,
                           C11=C11, C12=C12, C21=C21, C22=C22,
                           A1=A1, A2=A2, B1=B1, B2=B2, method="airy")


def _combine(ca, ma, sa, cb, mb, sb):
    ta = ca.s + sa
    tb = cb.s + sb
    if max(ta.max(), tb.max()) > 690.0:
        raise OverflowError("homogeneous combination leaves float range")
    return ca.m * ma * np.exp(ta) + cb.m * mb * np.exp(tb)


def _conjugate_pair(p):
    cs = lambda x: Scaled(np.conj(x.m), x.s)
    return HomogeneousPair(
        w1=np.conj(p.w1), w2=np.conj(p.w2),
        phi1=np.conj(p.phi1), phi2=np.conj(p.phi2),
        C11=cs(p.C11), C12=cs(p.C12), C21=cs(p.C21), C22=cs(p.C22),
        A1=cs(p.A1), A2=cs(p.A2), B1=cs(p.B1), B2=cs(p.B2), method=p.method)


def coupled_system(case, grid, ops):
    """Reference 2N x 2N coupled (w, phi) system, for checks only: the package
    solves the no-slip walls on bordered_vorticity_matrix instead.

    Unknowns x = [w; phi].  Rows: interior vorticity equation, interior
    elliptic link (d2 - k^2) phi = w, phi(+-1) = 0, and the wall derivatives
    phi'(+-1) (rows 0 and n - 1, values set by the caller's rhs).
    """
    n = grid.n_points
    k = case.k
    aw = vorticity_matrix(case, grid, ops)
    lap = (ops.d2 - k**2 * np.eye(n)).astype(complex)
    m = np.zeros((2 * n, 2 * n), dtype=complex)
    # interior vorticity rows at 1..n-2
    m[1:n - 1, :n] = aw[1:n - 1, :]
    # interior elliptic rows
    m[n + 1:2 * n - 1, :n] = -np.eye(n, dtype=complex)[1:n - 1, :]
    m[n + 1:2 * n - 1, n:] = lap[1:n - 1, :]
    # phi(+-1) = 0
    m[n, n] = 1.0
    m[2 * n - 1, 2 * n - 1] = 1.0
    # wall-derivative rows
    m[0, n:] = ops.d1[0, :]
    m[n - 1, n:] = ops.d1[-1, :]
    return m


def homogeneous_bvp(case, grid, ops, elliptic=None):
    """Homogeneous pair by one solve of the moment-bordered vorticity matrix.

    With phi(+-1) = 0 the wall moments are
    <w, e^{+-ky}> = phi'(1) e^{+-k} - phi'(-1) e^{-+k}, so phi1'(1) = 1 and
    phi2'(-1) = 1 (the other wall derivative zero) are moment right-hand
    sides; phi comes from the elliptic solve, the caller's when given.
    """
    ek, emk = math.exp(abs(case.k)), math.exp(-abs(case.k))
    rhs = np.zeros((grid.n_points, 2), dtype=complex)
    rhs[[0, -1], 0] = ek, emk        # w1: <w, e^{|k|y}>, <w, e^{-|k|y}>
    rhs[[0, -1], 1] = -emk, -ek      # w2
    w = np.linalg.solve(
        bordered_vorticity_matrix(replace(case, bc="non_slip"), grid, ops), rhs)
    if elliptic is None:
        elliptic = EllipticSolver(grid, ops, case.k)
    phi = elliptic.solve(w)
    zero = Scaled(0j, 0.0)
    return HomogeneousPair(w1=w[:, 0], w2=w[:, 1], phi1=phi[:, 0], phi2=phi[:, 1],
                           C11=zero, C12=zero, C21=zero, C22=zero,
                           A1=zero, A2=zero, B1=zero, B2=zero, method="bvp")


def solve_nonslip(case, forcing, grid, ops, path="auto", elliptic=None,
                  pair=None):
    """Velocity-Dirichlet resolvent solve.

    path 'monolithic': one solve of the moment-bordered vorticity matrix.
    path 'decomposed': vorticity-Dirichlet solve + homogeneous pair with
    coefficients from the sinh-moment formulas.  'auto' prefers the
    decomposed slanted-Airy route when its hypothesis holds.  ``pair`` is
    the case's homogeneous pair when the caller already has it (several
    forcings at one case); the decomposed path then builds none.
    """
    if case.bc != "non_slip":
        raise ValueError("solve_nonslip requires bc = non_slip")
    if path == "auto":
        path = "decomposed" if airy_admissible(case) else "monolithic"

    if path == "monolithic":
        w, phi = _bordered_solve(case, forcing, grid, ops, elliptic)
        return ResolventSolution(case=case, w=w, phi=phi,
                                 u=recover_velocity(phi, case.k, ops),
                                 w_na=None, c1=None, c2=None, path="monolithic")

    if path not in ("decomposed", "decomposed_bvp"):
        raise ValueError(f"unknown path {path!r}")
    if elliptic is None:
        elliptic = EllipticSolver(grid, ops, case.k)
    na = solve_navier(replace(case, bc="navier_slip"), forcing, grid, ops,
                      elliptic=elliptic)
    if pair is None:
        if path == "decomposed" and airy_admissible(case):
            pair = homogeneous_airy(case, grid, ops, elliptic=elliptic)
        else:
            pair = homogeneous_bvp(case, grid, ops, elliptic=elliptic)
    c1, c2 = coefficients(na.w, case.k, grid)
    w = na.w + c1 * pair.w1 + c2 * pair.w2
    phi = na.phi + c1 * pair.phi1 + c2 * pair.phi2
    return ResolventSolution(case=case, w=w, phi=phi,
                             u=recover_velocity(phi, case.k, ops),
                             w_na=na.w, c1=c1, c2=c2,
                             path=f"decomposed/{pair.method}")


def solve(case, forcing, grid, ops, **kw):
    if case.bc == "navier_slip":
        return solve_navier(case, forcing, grid, ops, **kw)
    return solve_nonslip(case, forcing, grid, ops, **kw)


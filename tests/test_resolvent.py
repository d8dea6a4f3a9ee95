import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla

from couettelab.grid import (build_diff_ops, build_grid, default_order,
                             frame_blocks, from_real_frame, l2_norm,
                             quadrature, to_real_frame, wall_moment_residuals)
from couettelab import resolvent as R

from oracles import c1_sinh_closed_form


@pytest.fixture(scope="module")
def setup64():
    g = build_grid(64)
    return g, build_diff_ops(g)


def mkgrid(nu, k):
    g = build_grid(default_order(nu, k))
    return g, build_diff_ops(g)


def test_case_validation():
    with pytest.raises(ValueError):
        R.ResolventCase(nu=-1.0, k=1)
    with pytest.raises(ValueError):
        R.ResolventCase(nu=1e-3, k=0)
    with pytest.raises(ValueError):
        R.ResolventCase(nu=1e-3, k=1, epsilon=0.5)
    with pytest.raises(ValueError):
        R.ResolventCase(nu=1e-3, k=1, bc="free")
    case = R.ResolventCase(nu=1e-3, k=2)
    assert abs(case.L - (2e3) ** (1 / 3)) < 1e-12
    assert abs(case.delta * case.L - 1.0) < 1e-12


def test_build_operator_constant_residual(setup64):
    # applied to a constant, the vorticity operator leaves nu k^2 + ik(y-lam)
    g, ops = setup64
    case = R.ResolventCase(nu=1e-2, k=3, lam=0.0)
    w = np.ones(g.n_points, dtype=complex)
    res = R.vorticity_matrix(case, g, ops) @ w
    expect = case.nu * case.k**2 + 1j * case.k * g.nodes
    assert np.max(np.abs(res - expect)) < 1e-8


def test_build_operator_symbol_check(setup64):
    # smooth eigenfunction-like input reproduces the analytic application
    g, ops = setup64
    case = R.ResolventCase(nu=1e-2, k=2, lam=0.3)
    f = np.sin(np.pi * (g.nodes + 1) / 2)
    got = R.vorticity_matrix(case, g, ops) @ f
    expect = (case.nu * (np.pi**2 / 4 + case.k**2)
              + 1j * case.k * (g.nodes - case.lam)) * f
    assert np.max(np.abs(got - expect)) < 1e-9 * np.max(np.abs(expect))


def test_accretivity_identity(setup64):
    # Re< L_k f, f > = nu ||f'||^2 + nu k^2 ||f||^2 for f vanishing at walls
    g, ops = setup64
    nu, k = 3e-3, 2
    f = (1 - g.nodes**2) * np.exp(1j * g.nodes)
    lf = nu * (k**2 * f - ops.d2 @ f) + 1j * k * g.nodes * f
    lhs = quadrature(g, lf * np.conj(f)).real
    rhs = nu * l2_norm(g, ops.d1 @ f) ** 2 + nu * k**2 * l2_norm(g, f) ** 2
    assert abs(lhs - rhs) <= 1e-10 * abs(rhs)


def test_navier_zero_forcing_zero_solution(setup64):
    g, ops = setup64
    case = R.ResolventCase(nu=1e-3, k=1, lam=0.4)
    sol = R.solve_navier(case, R.direct_forcing(np.zeros(g.n_points)), g, ops)
    assert np.max(np.abs(sol.w)) == 0.0
    assert np.max(np.abs(sol.phi)) == 0.0


def test_navier_solution_invariants():
    nu, k = 1e-4, 1
    g, ops = mkgrid(nu, k)
    case = R.ResolventCase(nu=nu, k=k, lam=0.0)
    sol = R.solve_navier(case, R.direct_forcing(np.ones(g.n_points)), g, ops)
    assert abs(sol.w[0]) <= 1e-10 * np.abs(sol.w).max()
    assert abs(sol.w[-1]) <= 1e-10 * np.abs(sol.w).max()
    assert abs(sol.phi[0]) < 1e-12 and abs(sol.phi[-1]) < 1e-12
    # refinement stability of ||w||_2
    g2, ops2 = build_grid(2 * g.order), None
    ops2 = build_diff_ops(g2)
    sol2 = R.solve_navier(case, R.direct_forcing(np.ones(g2.n_points)), g2, ops2)
    assert abs(l2_norm(g, sol.w) - l2_norm(g2, sol2.w)) \
        <= 1e-8 * l2_norm(g2, sol2.w)
    # energy identity
    lhs = quadrature(g, np.ones(g.n_points) * np.conj(sol.w)).real
    rhs = nu * l2_norm(g, ops.d1 @ sol.w) ** 2 + nu * k**2 * l2_norm(g, sol.w) ** 2
    assert abs(lhs - rhs) <= 1e-8 * abs(rhs)


def test_navier_shift_consistency():
    nu, k = 1e-4, 1
    g, ops = mkgrid(nu, k)
    F = np.exp(1j * np.pi * g.nodes)
    shifted = R.solve_navier(R.ResolventCase(nu=nu, k=k, epsilon=0.02),
                             R.direct_forcing(F), g, ops)
    ftilde = F + R.ResolventCase(nu=nu, k=k, epsilon=0.02).shift * shifted.w
    plain = R.solve_navier(R.ResolventCase(nu=nu, k=k),
                           R.direct_forcing(ftilde), g, ops)
    assert l2_norm(g, shifted.w - plain.w) <= 1e-10 * l2_norm(g, shifted.w)


def test_uniqueness_smallest_singular_value():
    # real lam is never in the spectrum: weighted interior sigma_min stays
    # well above zero on sampled cases
    for nu, k, lam in [(1e-3, 1, 0.0), (1e-4, 2, 0.7), (3e-4, 1, -1.0)]:
        g, ops = mkgrid(nu, k)
        case = R.ResolventCase(nu=nu, k=k, lam=lam)
        a = R.vorticity_matrix(case, g, ops)[1:-1, 1:-1]
        sq = np.sqrt(g.quad_weights[1:-1])
        smin = sla.svdvals(a * (sq[:, None] / sq[None, :]))[-1]
        assert smin > 1e-10


def test_coefficients_trivial_and_closed_form():
    g = build_grid(96)
    assert R.coefficients(np.zeros(97), 1, g) == (0j, 0j)
    k = 1
    w_na = np.sinh(k * (g.nodes + 1)).astype(complex)
    c1, c2 = R.coefficients(w_na, k, g)
    assert abs(c1 - c1_sinh_closed_form(k)) < 1e-12
    # system consistency: e^k c1 - e^{-k} c2 = -int e^{ky} w_na
    mom = quadrature(g, np.exp(k * g.nodes) * w_na)
    assert abs(math.e**k * c1 - math.e**-k * c2 + mom) < 1e-10
    # even in k
    c1m, c2m = R.coefficients(w_na, -k, g)
    assert abs(c1 - c1m) < 1e-14 and abs(c2 - c2m) < 1e-14


def test_coefficients_reflection_antisymmetry():
    g = build_grid(96)
    k = 2
    rng = np.random.default_rng(0)
    w = np.polynomial.Polynomial(rng.standard_normal(6))(g.nodes).astype(complex)
    c1, c2 = R.coefficients(w, k, g)
    wr = w[::-1]  # y -> -y on the symmetric grid
    c1r, c2r = R.coefficients(wr, k, g)
    assert abs(c1r + c2) < 1e-12 and abs(c2r + c1) < 1e-12


def test_recover_velocity_examples(setup64):
    g, ops = setup64
    k = 3
    u1, u2 = R.recover_velocity(np.zeros(g.n_points), k, ops)
    assert np.max(np.abs(u1)) == 0 and np.max(np.abs(u2)) == 0
    phi = 1 - g.nodes**2
    u1, u2 = R.recover_velocity(phi, k, ops)
    assert np.max(np.abs(u1 - (-2 * g.nodes))) < 1e-9
    assert np.max(np.abs(u2 - (-1j * k * phi))) < 1e-12
    # || u ||^2 = < -w, phi > for phi vanishing at the walls
    w = (ops.d2 - k**2 * np.eye(g.n_points)) @ phi
    lhs = quadrature(g, np.abs(u1) ** 2 + np.abs(u2) ** 2)
    rhs = quadrature(g, -w * np.conj(phi))
    assert abs(lhs - rhs) <= 1e-8 * abs(rhs)


@pytest.mark.parametrize("order", [64, 65])          # odd and even n_points
def test_elliptic_solver_matches_dense_solve(order):
    g = build_grid(order)
    ops = build_diff_ops(g)
    n = g.n_points
    rng = np.random.default_rng(4)
    w = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    for k in (1, 3):
        a = (ops.d2 - k**2 * np.eye(n)).astype(complex)
        a[[0, -1]] = np.eye(n)[[0, -1]]
        rhs = w.copy()
        rhs[[0, -1]] = 0.0
        ref = np.linalg.solve(a, rhs)
        ell = R.EllipticSolver(g, ops, k)
        assert [b.shape for b in ell.frame_inverses] == [(n - n // 2,) * 2, (n // 2,) * 2]
        phi = ell.solve(w[:, 0])
        assert np.linalg.norm(phi - ref[:, 0]) <= 1e-12 * np.linalg.norm(ref[:, 0]), k
        # an (N, m) block is solved column by column
        block = ell.solve(w)
        assert block.shape == w.shape
        for j in range(w.shape[1]):
            assert np.array_equal(block[:, j], ell.solve(w[:, j])), (k, j)
    with pytest.raises(ValueError, match="non-finite"):
        R.EllipticSolver(g, ops, 1).solve(np.full(n, np.nan))


@pytest.mark.parametrize("order", [64, 65])          # odd and even n_points
def test_d1_frame_blocks_match_dense_d1(order):
    # Q^H d1 Q by its two off-diagonal frame blocks, on an (m, N) block of rows
    g = build_grid(order)
    ops = build_diff_ops(g)
    n = g.n_points
    blocks = frame_blocks(ops, "d1")
    assert [b.shape for b in blocks] == [(n - n // 2, n // 2), (n // 2, n - n // 2)]
    rng = np.random.default_rng(6)
    w = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
    w[0] = np.exp(1j * g.nodes) * (1 - g.nodes**2) ** 2
    cols = np.ascontiguousarray(to_real_frame(w).T)
    got = from_real_frame(R.frame_d1(blocks, cols.view(np.float64)).view(complex).T)
    ref = ops.d1 @ w.T
    # measured up to 5.5e-14 (random rows at order 65): rounding of the sums
    for j in range(3):
        assert np.abs(got[j] - ref[:, j]).max() <= 5e-13 * np.abs(ref[:, j]).max(), j


def _refined_elliptic_solve(g, ops, k, w, sweeps=6):
    """phi and d1 phi for the bordered (d2 - k^2) phi = w by iterative
    refinement of a float64 LU solve, residuals in np.longdouble."""
    n = g.n_points
    a = ops.d2 - k**2 * np.eye(n)
    a[[0, -1]] = np.eye(n)[[0, -1]]
    lu = sla.lu_factor(a)
    b = w.astype(np.clongdouble)
    b[[0, -1]] = 0.0
    phi = np.zeros(n, dtype=np.clongdouble)
    for _ in range(sweeps):
        r = (b - a.astype(np.longdouble) @ phi).astype(complex)
        phi = phi + sla.lu_solve(lu, r)
    return phi, ops.d1.astype(np.longdouble) @ phi


# Relative errors measured against the refined solve (three data sets, the
# three cases below): u = d1 phi 1.6e-14 to 9.0e-13; phi 2.3e-14 to 3.5e-13
# on the profile and random data, up to 1.1e-10 on the sheared profile,
# whose phi is small against w.  The bounds are 9-14 times those maxima.
ELLIPTIC_TOL = {"profile": (5e-12, 1e-11), "random": (5e-12, 1e-11),
                "sheared": (1e-9, 1e-11)}


@pytest.mark.parametrize("nu, k, order", [
    (1e-3, 1, None),
    (1e-5, 1, 373),         # d2 rounds reflection-asymmetrically at order 373
    (1e-4, 4, None),
])
def test_elliptic_solver_matches_refined_solve(nu, k, order):
    g = build_grid(order or default_order(nu, k))
    ops = build_diff_ops(g)
    y = g.nodes
    profile = (ops.d2 - k**2 * np.eye(g.n_points)) @ (
        (1 - y**2) ** 2 * np.exp(0.5j * np.pi * y))          # criterion 7's
    rng = np.random.default_rng(11)
    tau = (nu * k**2) ** (-1 / 3)
    data = {"profile": profile,
            "random": rng.standard_normal(g.n_points) + 1j * rng.standard_normal(g.n_points),
            "sheared": profile * np.exp(-6j * tau * k * y)}
    ell = R.EllipticSolver(g, ops, k)
    for name, w in data.items():
        phi_ref, u_ref = _refined_elliptic_solve(g, ops, k, w)
        phi = ell.solve(w)
        u, _ = R.recover_velocity(phi, k, ops)
        tol_phi, tol_u = ELLIPTIC_TOL[name]
        assert np.linalg.norm(phi - phi_ref) <= tol_phi * np.linalg.norm(phi_ref), name
        assert np.linalg.norm(u - u_ref) <= tol_u * np.linalg.norm(u_ref), name


def test_recover_velocity_block_matches_columns(setup64):
    g, ops = setup64
    ks = np.array([1, 2, 5])
    phi = np.column_stack([(1 - g.nodes**2) * np.exp(1j * k * g.nodes) for k in ks])
    u1, u2 = R.recover_velocity(phi, ks, ops)
    for j, k in enumerate(ks):
        c1, c2 = R.recover_velocity(phi[:, j], k, ops)
        assert np.array_equal(u2[:, j], c2)
        assert np.linalg.norm(u1[:, j] - c1) <= 1e-14 * np.linalg.norm(c1)


# -- homogeneous pair ----------------------------------------------------------

def test_homogeneous_pair_contract():
    nu, k, lam = 1e-3, 2, 0.3
    g, ops = mkgrid(nu, k)
    case = R.ResolventCase(nu=nu, k=k, lam=lam, bc="non_slip")
    for method, pair in [("airy", R.homogeneous_airy(case, g, ops)),
                         ("bvp", R.homogeneous_bvp(case, g, ops))]:
        d1 = ops.d1
        assert abs((d1 @ pair.phi1)[0] - 1) < 1e-8, method
        assert abs((d1 @ pair.phi1)[-1]) < 1e-8, method
        assert abs((d1 @ pair.phi2)[-1] - 1) < 1e-8, method
        assert abs((d1 @ pair.phi2)[0]) < 1e-8, method
        assert abs(pair.phi1[0]) < 1e-10 and abs(pair.phi1[-1]) < 1e-10
        # moment identities
        m = quadrature(g, np.exp(k * g.nodes) * pair.w1)
        assert abs(m - math.e**k) <= 1e-7 * math.e**k, method
        m = quadrature(g, np.exp(-k * g.nodes) * pair.w1)
        assert abs(m - math.e**-k) <= 1e-7, method
        m = quadrature(g, np.exp(k * g.nodes) * pair.w2)
        assert abs(m + math.e**-k) <= 1e-7, method


def test_homogeneous_airy_nondegenerate_and_coefficient_bound():
    nu, k, lam = 1e-4, 1, 0.0
    g, ops = mkgrid(nu, k)
    case = R.ResolventCase(nu=nu, k=k, lam=lam, bc="non_slip")
    pair = R.homogeneous_airy(case, g, ops)
    det_log = (pair.A1 * pair.A2 - pair.B1 * pair.B2).abs_log()
    assert det_log > (pair.B1 * pair.B2).abs_log() + math.log(1e-12)
    # wall-layer coefficient ratio bound
    ratio = math.exp(pair.A1.abs_log() - pair.B1.abs_log())
    assert ratio <= math.sqrt(2) / 2 + 1e-9


def test_homogeneous_airy_matches_bvp():
    nu, k, lam = 1e-3, 2, 0.3
    g, ops = mkgrid(nu, k)
    case = R.ResolventCase(nu=nu, k=k, lam=lam, bc="non_slip")
    pa = R.homogeneous_airy(case, g, ops)
    pb = R.homogeneous_bvp(case, g, ops)
    assert l2_norm(g, pa.w1 - pb.w1) <= 1e-6 * l2_norm(g, pb.w1)
    assert l2_norm(g, pa.w2 - pb.w2) <= 1e-6 * l2_norm(g, pb.w2)


def test_homogeneous_airy_precondition_guard():
    case = R.ResolventCase(nu=0.25, k=4, bc="non_slip")  # L = 2.5 < 6k
    g, ops = mkgrid(0.25, 4)
    with pytest.raises(ValueError):
        R.homogeneous_airy(case, g, ops)


def test_homogeneous_mirror_symmetry():
    # w2 at lam is the conjugate reflection of w1 at -lam
    nu, k, lam = 1e-3, 1, 0.4
    g, ops = mkgrid(nu, k)
    pair_p = R.homogeneous_airy(R.ResolventCase(nu=nu, k=k, lam=lam,
                                                bc="non_slip"), g, ops)
    pair_m = R.homogeneous_airy(R.ResolventCase(nu=nu, k=k, lam=-lam,
                                                bc="non_slip"), g, ops)
    mirrored = -np.conj(pair_m.w1[::-1])
    assert l2_norm(g, pair_p.w2 - mirrored) <= 1e-8 * l2_norm(g, pair_p.w2)


def _same_pair(p, q):
    scaled = ("C11", "C12", "C21", "C22", "A1", "A2", "B1", "B2")
    return (all(np.array_equal(getattr(p, f), getattr(q, f))
                for f in ("w1", "w2", "phi1", "phi2"))
            and all(getattr(p, f).m == getattr(q, f).m
                    and getattr(p, f).s == getattr(q, f).s for f in scaled))


# mixed cases on one grid: lam = 1.5 at nu = 1e-4 has only large arguments
# (|z| >= L/2 > 8.35), the others have some small ones
BATCH_CASES = [
    R.ResolventCase(nu=1e-4, k=1, lam=0.0, bc="non_slip"),
    R.ResolventCase(nu=1e-4, k=1, lam=1.5, bc="non_slip"),
    R.ResolventCase(nu=1e-4, k=-1, lam=0.3, bc="non_slip"),
    R.ResolventCase(nu=1e-4, k=2, lam=-0.7, epsilon=0.01, bc="non_slip"),
    R.ResolventCase(nu=3e-4, k=-2, lam=0.95, bc="non_slip"),
]


def test_airy_kernels_batch_matches_single_cases():
    g, ops = mkgrid(1e-4, 1)
    far = BATCH_CASES[1]
    assert np.min(np.abs(far.L * (g.nodes - far.lam))) > 8.35
    batch = R.airy_kernels(BATCH_CASES, g)
    assert len(batch) == len(BATCH_CASES)
    for case, kern in zip(BATCH_CASES, batch):
        alone = R.airy_kernels([case], g)[0]
        assert all(np.array_equal(a, b) for a, b in zip(kern, alone)), case
        if case.k < 0:
            mirror = R.airy_kernels([replace(case, k=-case.k)], g)[0]
            assert all(np.array_equal(a, b) for a, b in zip(kern, mirror)), case
    assert R.airy_kernels([], g) == []


def test_homogeneous_airy_with_and_without_kernels():
    g, ops = mkgrid(1e-4, 1)
    F = R.direct_forcing(np.exp(1j * g.nodes))
    for case, kern in zip(BATCH_CASES, R.airy_kernels(BATCH_CASES, g)):
        passed = R.homogeneous_airy(case, g, ops, kernels=kern)
        assert _same_pair(passed, R.homogeneous_airy(case, g, ops)), case
        # a pair handed to solve_nonslip replaces the one it would build
        given = R.solve_nonslip(case, F, g, ops, pair=passed)
        built = R.solve_nonslip(case, F, g, ops)
        assert np.array_equal(given.w, built.w), case
        assert (given.c1, given.c2) == (built.c1, built.c2), case


def _fields(kind, case, g, ops, data):
    """The nodal fields one solver returns at case, for data F (or f1 = f2)."""
    if kind == "navier_direct":
        sol = R.solve_navier(replace(case, bc="navier_slip"),
                             R.direct_forcing(data), g, ops)
    elif kind == "navier_pair":
        sol = R.solve_navier(replace(case, bc="navier_slip"),
                             R.pair_forcing(f1=data, f2=data), g, ops)
    elif kind in ("monolithic", "decomposed", "decomposed_bvp"):
        sol = R.solve_nonslip(case, R.direct_forcing(data), g, ops, path=kind)
    else:
        pair = (R.homogeneous_bvp if kind == "bvp" else R.homogeneous_airy)(
            case, g, ops)
        return [pair.w1, pair.w2, pair.phi1, pair.phi2]
    return [sol.w, sol.phi, *sol.u]


@pytest.mark.parametrize("kind", ["navier_direct", "navier_pair", "monolithic",
                                  "decomposed", "decomposed_bvp", "bvp", "airy"])
def test_negative_k_by_conjugation(kind):
    # k < 0 is the complex conjugate of k > 0 with conjugated data; only the
    # Airy pair mirrors explicitly, the dense solves get it for free
    nu, lam = 1e-3, 0.2
    g, ops = mkgrid(nu, 2)
    data = np.exp(1j * g.nodes)
    case = R.ResolventCase(nu=nu, k=2, lam=lam, bc="non_slip")
    got = _fields(kind, replace(case, k=-2), g, ops, data)
    ref = _fields(kind, case, g, ops, np.conj(data))
    for a, b in zip(got, ref):
        assert np.linalg.norm(a - np.conj(b)) <= 1e-13 * np.linalg.norm(b), kind
    if kind in ("monolithic", "decomposed", "decomposed_bvp"):
        assert wall_moment_residuals(g, got[0], -2).max() < 1e-8


# -- non-slip solves -----------------------------------------------------------

def test_nonslip_zero_forcing(setup64):
    g, ops = setup64
    case = R.ResolventCase(nu=1e-2, k=1, lam=0.1, bc="non_slip")
    sol = R.solve_nonslip(case, R.direct_forcing(np.zeros(g.n_points)), g, ops,
                          path="decomposed")
    assert np.max(np.abs(sol.w)) < 1e-12
    assert sol.c1 == 0j and sol.c2 == 0j


def test_nonslip_paths_agree():
    nu, k, lam = 1e-3, 2, 0.5
    g, ops = mkgrid(nu, k)
    case = R.ResolventCase(nu=nu, k=k, lam=lam, bc="non_slip")
    F = R.direct_forcing(np.exp(1j * g.nodes))
    sa = R.solve_nonslip(case, F, g, ops, path="monolithic")
    sb = R.solve_nonslip(case, F, g, ops, path="decomposed")
    assert l2_norm(g, sa.w - sb.w) <= 1e-7 * l2_norm(g, sb.w)
    sc = R.solve_nonslip(case, F, g, ops, path="decomposed_bvp")
    assert l2_norm(g, sa.w - sc.w) <= 1e-7 * l2_norm(g, sc.w)


@pytest.mark.parametrize("k", [2, -2])
def test_moment_bordered_solves_match_coupled_system(k):
    # the N x N moment-bordered solves against the 2N x 2N coupled (w, phi)
    # system, which imposes phi'(+-1) by derivative rows
    nu, lam = 1e-3, 0.3
    g, ops = mkgrid(nu, k)
    n = g.n_points
    case = R.ResolventCase(nu=nu, k=k, lam=lam, bc="non_slip")
    F = np.exp(1j * g.nodes)
    rhs = np.zeros((2 * n, 3), dtype=complex)
    rhs[1:n - 1, 0] = F[1:n - 1]
    rhs[0, 1] = 1.0        # phi1'(1) = 1
    rhs[n - 1, 2] = 1.0    # phi2'(-1) = 1
    x = np.linalg.solve(R.coupled_system(case, g, ops), rhs)
    sol = R.solve_nonslip(case, R.direct_forcing(F), g, ops, path="monolithic")
    pair = R.homogeneous_bvp(case, g, ops)
    for j, fields in enumerate([(sol.w, sol.phi), (pair.w1, pair.phi1),
                                (pair.w2, pair.phi2)]):
        for got, ref in zip(fields, (x[:n, j], x[n:, j])):
            assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref), j


def test_decomposed_bvp_builds_one_elliptic_solver(monkeypatch):
    # homogeneous_bvp takes the caller's elliptic solver: one d2 - k^2
    # inverse per solve, and the same numbers as a pair with its own
    nu, k = 1e-3, 2
    g, ops = mkgrid(nu, k)
    case = R.ResolventCase(nu=nu, k=k, lam=0.3, bc="non_slip")
    forcing = R.direct_forcing(np.exp(1j * g.nodes))
    ref = R.solve_nonslip(case, forcing, g, ops, path="decomposed_bvp",
                          pair=R.homogeneous_bvp(case, g, ops))
    built = []
    init = R.EllipticSolver.__init__

    def spy(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(R.EllipticSolver, "__init__", spy)
    sol = R.solve_nonslip(case, forcing, g, ops, path="decomposed_bvp")
    assert len(built) == 1
    assert sol.path == "decomposed/bvp"
    for got, want in ((sol.w, ref.w), (sol.phi, ref.phi)):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_nonslip_solution_invariants():
    nu, k, lam = 1e-4, 1, 0.3
    g, ops = mkgrid(nu, k)
    case = R.ResolventCase(nu=nu, k=k, lam=lam, bc="non_slip")
    sol = R.solve_nonslip(case, R.direct_forcing(np.ones(g.n_points)), g, ops)
    d1 = ops.d1
    phip = d1 @ sol.phi
    assert abs(sol.phi[0]) < 1e-12 and abs(sol.phi[-1]) < 1e-12
    assert abs(phip[0]) <= 1e-8 * np.abs(phip).max()
    assert abs(phip[-1]) <= 1e-8 * np.abs(phip).max()
    assert wall_moment_residuals(g, sol.w, k).max() <= 1e-8
    res = (ops.d2 - k**2 * np.eye(g.n_points)) @ sol.phi - sol.w
    assert l2_norm(g, res) <= 1e-8 * l2_norm(g, sol.w)


def test_nonslip_pair_forcing():
    nu, k = 1e-3, 1
    g, ops = mkgrid(nu, k)
    case = R.ResolventCase(nu=nu, k=k, lam=0.0, bc="non_slip")
    sol = R.solve_nonslip(case, R.pair_forcing(f2=np.zeros(g.n_points)), g, ops)
    assert np.max(np.abs(sol.w)) < 1e-12
    f2 = np.cos(np.pi * g.nodes / 2).astype(complex)
    sol = R.solve_nonslip(case, R.pair_forcing(f2=f2), g, ops)
    assert wall_moment_residuals(g, sol.w, k).max() <= 1e-8

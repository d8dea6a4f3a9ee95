import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from couettelab import evolution as E
from couettelab import harness as H
from couettelab import nonlinear as NL
from couettelab import resolvent as R
from couettelab.grid import (FRAME_RESIDUE_MAX, N_MAX, build_diff_ops,
                             build_grid, cheb_nodes, default_order,
                             frame_blocks, l2_norm, quadrature, real_apply,
                             real_form, reflection_blocks,
                             wall_moment_residuals, weighted_l2_norm)

from oracles import exp_quadrature_exact


def test_nodes_closed_forms():
    assert np.allclose(cheb_nodes(2), [1.0, 0.0, -1.0], atol=1e-15)
    g = build_grid(4)
    assert g.nodes[0] == 1.0
    assert g.nodes[-1] == -1.0
    assert abs(g.nodes[1] - np.sqrt(2) / 2) < 1e-15
    assert np.all(np.diff(g.nodes) < 0)


def test_build_grid_rejects_small_and_huge():
    with pytest.raises(ValueError):
        build_grid(2)
    with pytest.raises(ValueError):
        build_grid(N_MAX + 1)


@pytest.mark.parametrize("n", [4, 16, 33, 64, 257])
def test_quadrature_weights(n):
    g = build_grid(n)
    assert np.all(g.quad_weights > 0)
    assert abs(g.quad_weights.sum() - 2.0) < 1e-13


def test_quadrature_examples():
    g = build_grid(32)
    assert abs(quadrature(g, np.ones(33)) - 2.0) < 1e-14
    assert abs(quadrature(g, g.nodes)) < 1e-15
    assert abs(quadrature(g, np.exp(2 * g.nodes)) - exp_quadrature_exact()) < 1e-12


def test_quadrature_length_mismatch():
    g = build_grid(8)
    with pytest.raises(ValueError):
        quadrature(g, np.ones(8))


def test_diff_ops_closed_forms():
    g = build_grid(24)
    ops = build_diff_ops(g)
    y = g.nodes
    assert np.max(np.abs(ops.d1 @ y - 1.0)) < 1e-11
    assert np.max(np.abs(ops.d2 @ y**2 - 2.0)) < 1e-9
    # constants differentiate to zero at round-off (negative-sum trick)
    n2 = g.order**2
    assert np.max(np.abs(ops.d1 @ np.ones_like(y))) < 1e-10 * n2
    # d2 consistent with d1 . d1
    d11 = ops.d1 @ ops.d1
    assert (np.linalg.norm(ops.d2 - d11) / np.linalg.norm(d11)) < 1e-8


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=8))
def test_diff_exact_on_polynomials(degree, seed):
    g = build_grid(16)
    ops = build_diff_ops(g)
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(degree + 1)
    p = np.polynomial.Polynomial(coeffs)
    vals = p(g.nodes)
    assert np.max(np.abs(ops.d1 @ vals - p.deriv(1)(g.nodes))) < 1e-8
    assert np.max(np.abs(ops.d2 @ vals - p.deriv(2)(g.nodes))) < 1e-6


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6))
def test_quadrature_exact_on_polynomials(da, db):
    # combined degree <= N: quadrature and the duality identity are exact
    g = build_grid(20)
    ops = build_diff_ops(g)
    rng = np.random.default_rng(da * 7 + db)
    f = np.polynomial.Polynomial(rng.standard_normal(da + 1))
    h = np.polynomial.Polynomial(rng.standard_normal(db + 1))
    exact = (f * h).integ()(1.0) - (f * h).integ()(-1.0)
    assert abs(quadrature(g, f(g.nodes) * h(g.nodes)) - exact) < 1e-12
    lhs = quadrature(g, (ops.d1 @ f(g.nodes)) * h(g.nodes)) \
        + quadrature(g, f(g.nodes) * (ops.d1 @ h(g.nodes)))
    boundary = f(1.0) * h(1.0) - f(-1.0) * h(-1.0)
    assert abs(lhs - boundary) < 1e-10


def test_default_order_rule():
    assert default_order(1e-3, 1) == 80
    assert default_order(1.0, 1) == 64
    with pytest.raises(ValueError):
        default_order(1e-7, 8)  # needs N > 1024


def test_weighted_norm_monotone_in_weight():
    g = build_grid(48)
    rng = np.random.default_rng(3)
    f = rng.standard_normal(49) + 1j * rng.standard_normal(49)
    w = rng.uniform(0, 1, 49)
    assert weighted_l2_norm(g, f, w) <= l2_norm(g, f) + 1e-12


def test_real_apply_matches_complex_product():
    rng = np.random.default_rng(11)
    n, m = 97, 5
    a = rng.standard_normal((n, n))
    vec = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    block = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    # C-ordered, transposed and non-square matrices; vector, block, strided column
    for mat in (a, a.T, a[:3]):
        for x in (vec, block, block[:, 1]):
            ref = mat.astype(complex) @ x
            out = real_apply(mat, x)
            assert out.shape == ref.shape and out.dtype == np.complex128
            assert np.linalg.norm(out - ref) <= 1e-14 * np.linalg.norm(ref)


@pytest.mark.parametrize("k", [1, -3])
def test_wall_moment_residuals_match_quadrature_formula(k):
    g = build_grid(96)
    y = g.nodes
    rng = np.random.default_rng(5)
    w = rng.standard_normal(97) + 1j * rng.standard_normal(97)
    l1 = quadrature(g, np.abs(w))
    ref = [abs(quadrature(g, np.exp(s * k * y) * w)) / (np.exp(abs(k)) * l1)
           for s in (1, -1)]
    got = wall_moment_residuals(g, w, k)
    assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref))
    assert np.array_equal(wall_moment_residuals(g, np.zeros(97), k), [0.0, 0.0])


@pytest.mark.parametrize("n", [9, 10])                # odd and even n
def test_reflection_blocks_match_real_form(n):
    # the splitter against the dense complex Q^H M Q of grid.real_form, for
    # a centrosymmetric and an anti-centrosymmetric part, each with a small
    # reflection-breaking residue
    rng = np.random.default_rng(n)
    b = rng.standard_normal((n, n))
    sym, anti = b + b[::-1, ::-1], b - b[::-1, ::-1]
    ne, h = n - n // 2, n // 2
    for parity, a in ((1, sym), (-1, anti)):
        noise = 1e-9 * rng.standard_normal((n, n))
        blocks, kept, dropped = reflection_blocks(a + noise, parity)
        rf = real_form(a + noise)
        keep, drop = (rf.real, rf.imag) if parity > 0 else (rf.imag, rf.real)
        assert abs(kept / np.linalg.norm(keep) - 1) <= 1e-13
        assert abs(dropped / np.linalg.norm(drop) - 1) <= 1e-6
        if parity > 0:
            even, odd = blocks
            assert np.abs(keep[:ne, :ne] - even).max() <= 1e-14 * np.abs(even).max()
            assert np.abs(keep[ne:, ne:] - odd).max() <= 1e-14 * np.abs(odd).max()
        else:
            eo, oe = blocks
            assert np.abs(keep[:ne, ne:] - eo).max() <= 1e-14 * np.abs(eo).max()
            assert np.abs(keep[ne:, :ne] + oe).max() <= 1e-14 * np.abs(oe).max()


def _perturbed(ops, name):
    a = getattr(ops, name).copy()
    a[1, 2] += 1e-6 * np.abs(a).max()        # breaks the node reflection
    return dataclasses.replace(ops, **{name: a})


def _build_consumer(consumer, g, ops, monkeypatch):
    nu, k = 1e-3, 1
    dt = E.dt_accuracy_bound(nu, k)
    kind, _, bc = consumer.partition(":")
    if kind == "elliptic":
        R.EllipticSolver(g, ops, 2)
    elif kind == "cn":                          # M+ at set-up, d/dy on first use
        E.CrankNicolson(nu, k, bc, dt, g, ops).d1_blocks
    elif kind == "lab":                         # layer 0 is M+ at k = 0
        NL.SpectralLab(nu, 1, g, ops, dt)
    elif kind == "hessenberg":
        R.HessenbergResolvent(R.ResolventCase(nu=nu, k=k, bc=bc), g, ops)
    else:                                       # the pair-data sweeper's G
        monkeypatch.setattr(H, "grid_for", lambda nu, k, n=None: (g, ops))
        H._WorstCaseSweeper(nu, k, "non_slip", "pair")


#: Every consumer of the frame blocks, with the matrices whose blocks it takes.
FRAME_CONSUMERS = {
    "elliptic": ("d2",),
    "cn:navier_slip": ("d2", "d1"),
    "cn:non_slip": ("d2", "d1"),
    "lab": ("d2", "d1"),
    "hessenberg:navier_slip": ("d2",),
    "hessenberg:non_slip": ("d2",),
    "sweeper_pair": ("d2", "d1"),
}


@pytest.mark.parametrize("consumer, name", [
    (consumer, name) for consumer, names in FRAME_CONSUMERS.items() for name in names])
def test_one_reflection_guard_refuses_every_consumer(consumer, name, monkeypatch):
    # grid.frame_blocks holds the only reflection guard: a d1 or d2 that
    # breaks the node reflection is refused, with one message, by each
    # consumer that takes its frame blocks
    g = build_grid(80)                          # the sweeper's order at nu = 1e-3
    ops = build_diff_ops(g)
    _, kept, dropped = reflection_blocks(getattr(ops, name), -1 if name == "d1" else 1)
    assert dropped / kept <= 1e-14
    anti = "anti" if name == "d1" else ""
    with pytest.raises(RuntimeError, match=rf"^{name} is not reflection {anti}symmetric "
                       rf"at N = 81: relative residue of its dropped frame blocks "
                       rf"\S+ > {FRAME_RESIDUE_MAX:g}$"):
        _build_consumer(consumer, g, _perturbed(ops, name), monkeypatch)
    blocks = frame_blocks(ops, name)
    assert [b.shape for b in blocks] == (
        [(41, 40), (40, 41)] if name == "d1" else [(41, 41), (40, 40)])

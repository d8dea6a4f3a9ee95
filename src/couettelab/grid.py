"""Chebyshev collocation infrastructure on [-1, 1].

Gauss-Lobatto nodes y_j = cos(j pi / N) (descending, y_0 = 1, y_N = -1),
Clenshaw-Curtis quadrature weights, dense differentiation matrices for
the first and second derivative, and their blocks in the real frame of
the node reflection (`to_real_frame`, `frame_blocks`).
"""

import math
from dataclasses import dataclass, field

import numpy as np

#: Hard resolution cap.  Dense factorizations above this order are refused.
N_MAX = 1024

#: Largest admissible relative residue (Frobenius) of d1 and d2 in the frame
#: of `to_real_frame`: the part `frame_blocks` drops (d1's diagonal frame
#: blocks, d2's off-diagonal ones) against the part it keeps, i.e. the
#: reflection asymmetry d1 and d2 = d1 d1 pick up from rounding.  Over the
#: orders 64..419 and every 7th to 1024: median 5e-15 (d1) and 1e-15 (d2),
#: worst 2.1e-12 and 4.1e-12 at order 420.  restricted_generator holds its
#: complex generator to the same bound.
FRAME_RESIDUE_MAX = 1e-10

_SQRT_HALF = math.sqrt(0.5)


def cheb_nodes(n):
    """Chebyshev-Lobatto nodes cos(j pi / n), j = 0..n, descending."""
    return np.cos(np.pi * np.arange(n + 1) / n)


def clenshaw_curtis_weights(n):
    """Clenshaw-Curtis quadrature weights on the n+1 Lobatto nodes.

    Direct O(n^2) cosine-sum formula; exact for polynomials of degree <= n.
    """
    theta = np.pi * np.arange(1, n) / n
    w = np.zeros(n + 1)
    v = np.ones(n - 1)
    if n % 2 == 0:
        w[0] = w[n] = 1.0 / (n**2 - 1)
        for m in range(1, n // 2):
            v -= 2.0 * np.cos(2 * m * theta) / (4 * m**2 - 1)
        v -= np.cos(n * theta) / (n**2 - 1)
    else:
        w[0] = w[n] = 1.0 / n**2
        for m in range(1, (n - 1) // 2 + 1):
            v -= 2.0 * np.cos(2 * m * theta) / (4 * m**2 - 1)
    w[1:n] = 2.0 * v / n
    return w


@dataclass(frozen=True)
class ChebGrid:
    """Collocation grid: order, nodes and quadrature weights.

    Immutable after construction; safe to share across workers.
    """

    order: int
    nodes: np.ndarray = field(repr=False)
    quad_weights: np.ndarray = field(repr=False)

    @property
    def n_points(self):
        return self.order + 1


def build_grid(n):
    """Build a ChebGrid of order n (n + 1 nodes).  Rejects n < 4."""
    if n < 4:
        raise ValueError(f"grid order must be >= 4, got {n}")
    if n > N_MAX:
        raise ValueError(f"grid order {n} exceeds the dense cap {N_MAX}")
    nodes = cheb_nodes(n)
    w = clenshaw_curtis_weights(n)
    g = ChebGrid(order=n, nodes=nodes, quad_weights=w)
    g.nodes.setflags(write=False)
    g.quad_weights.setflags(write=False)
    return g


def default_order(nu, k):
    """Default grid order for a solve at viscosity nu, wavenumber k.

    Resolves the wall-layer scale 1/L = (nu/|k|)^(1/3) with eight points:
    N = max(64, ceil(8 L)), refused above the dense cap.
    """
    bl = boundary_layer_scale(nu, k)
    n = max(64, math.ceil(8.0 * bl))
    if n > N_MAX:
        raise ValueError(
            f"required order {n} for nu={nu}, k={k} exceeds the cap {N_MAX}"
        )
    return n


def boundary_layer_scale(nu, k):
    """L = (|k|/nu)^(1/3); 1/L is the wall-layer width."""
    return (abs(k) / nu) ** (1.0 / 3.0)


def _cheb_d1(nodes):
    """First-derivative matrix on Lobatto nodes (Trefethen form)."""
    n = len(nodes) - 1
    c = np.ones(n + 1)
    c[0] = c[n] = 2.0
    c *= (-1.0) ** np.arange(n + 1)
    x = nodes.reshape(-1, 1)
    dx = x - x.T + np.eye(n + 1)
    d = np.outer(c, 1.0 / c) / dx
    # negative-sum trick: enforce zero row sums exactly
    np.fill_diagonal(d, 0.0)
    np.fill_diagonal(d, -d.sum(axis=1))
    return d


def _negative_sum(d):
    out = d.copy()
    np.fill_diagonal(out, 0.0)
    np.fill_diagonal(out, -out.sum(axis=1))
    return out


@dataclass(frozen=True)
class DiffOps:
    """Dense differentiation matrices d1, d2 on a ChebGrid."""

    d1: np.ndarray = field(repr=False)
    d2: np.ndarray = field(repr=False)


def build_diff_ops(grid):
    """Differentiation matrices d1 and d2 = d1 d1.

    The diagonal of d2 is re-derived from the negative-sum trick so that
    constants differentiate to zero at round-off level.
    """
    d1 = _cheb_d1(grid.nodes)
    d2 = _negative_sum(d1 @ d1)
    for m in (d1, d2):
        m.setflags(write=False)
    return DiffOps(d1=d1, d2=d2)


def grid_for(nu, k, n=None):
    """(ChebGrid, DiffOps) of order n, or of default_order(nu, k) when n is
    None or 0."""
    g = build_grid(n or default_order(nu, k))
    return g, build_diff_ops(g)


def real_apply(a, x):
    """a @ x for a real matrix a and a complex vector or (n, m) block x.

    The product runs on the float64 view of x (real and imaginary parts as
    interleaved columns), one real BLAS call; numpy's own a @ x would first
    copy a to complex and do four times the arithmetic.
    """
    x = np.ascontiguousarray(x, dtype=complex)
    out = a @ x.view(np.float64).reshape(x.shape[0], -1)
    return out.view(complex).reshape(a.shape[:1] + x.shape[1:])


def pair_view(z):
    """The float64 view of a contiguous complex array, (..., n) -> (..., n, 2):
    real and imaginary parts as two columns, for real (batched) products."""
    return z.view(np.float64).reshape(z.shape + (2,))


def border_dirichlet(a):
    """Replace the rows of a at y = +-1 by the identity rows of w(+-1) = 0,
    in place; returns a."""
    a[[0, -1]] = 0.0
    a[0, 0] = a[-1, -1] = 1.0
    return a


def wall_moment_rows(grid, k):
    """(2, n) quadrature rows of the wall moments <w, e^{+ky}>, <w, e^{-ky}>."""
    q, y = grid.quad_weights, grid.nodes
    return np.vstack([q * np.exp(k * y), q * np.exp(-k * y)])


def wall_moment_residuals(grid, w, k):
    """(2,) wall moments |<w, e^{+-ky}>| normalized as in the boundary-
    condition derivation, by e^{|k|} ||w||_L1; zeros for w = 0."""
    l1 = l1_norm(grid, w)
    if l1 == 0:
        return np.zeros(2)
    return np.abs(real_apply(wall_moment_rows(grid, k), w)) / (math.exp(abs(k)) * l1)


def quadrature(grid, values):
    """Clenshaw-Curtis approximation of the integral of values over (-1, 1)."""
    values = np.asarray(values)
    if values.shape[-1] != grid.n_points:
        raise ValueError(
            f"expected {grid.n_points} nodal values, got {values.shape[-1]}"
        )
    return values @ grid.quad_weights


def l2_norm(grid, values):
    """L2 norm by quadrature of |values|^2."""
    return math.sqrt(abs(quadrature(grid, np.abs(np.asarray(values)) ** 2)))


def weighted_l2_norm(grid, values, weight):
    """L2 norm with a nonnegative nodal weight.

    Nodes where the weight is non-finite (singular weights at the walls)
    are dropped; the omitted sliver is integrable and below quadrature error
    for the weights used here.
    """
    weight = np.asarray(weight)
    mask = np.isfinite(weight)
    v = np.abs(np.asarray(values)[mask]) ** 2 * weight[mask]
    return math.sqrt(abs(np.sum(v * grid.quad_weights[mask])))


def l1_norm(grid, values):
    """L1 norm by quadrature of |values|."""
    return float(quadrature(grid, np.abs(np.asarray(values))))


def to_real_frame(w):
    """Q^H w along the last axis.

    L = nu(k^2 - d2) + iky on the symmetric Lobatto nodes is centrohermitian,
    J conj(L) J = L with J the node reversal, and so are the bordered CN
    matrices and the resolvent's interior operator built from it.  The
    sparse unitary Q takes such a matrix to a real one, Q^H M Q (A. Lee,
    Linear Algebra Appl. 29, 1980).  With a and b the top and bottom halves
    of w,

        Q^H w = [(a + J b)/sqrt 2, middle node (n odd), -i (a - J b)/sqrt 2].
    """
    w = np.asarray(w)
    n = w.shape[-1]
    h = n // 2
    a, jb = w[..., :h], w[..., ::-1][..., :h]
    z = np.empty(w.shape, dtype=complex)
    z[..., :h] = _SQRT_HALF * (a + jb)
    z[..., h:n - h] = w[..., h:n - h]
    z[..., n - h:] = -1j * _SQRT_HALF * (a - jb)
    return z


def from_real_frame(z):
    """Q z along the last axis, the inverse of `to_real_frame`."""
    n = z.shape[-1]
    h = n // 2
    p, q = z[..., :h], z[..., n - h:]
    w = np.empty(z.shape, dtype=complex)
    w[..., :h] = _SQRT_HALF * (p + 1j * q)
    w[..., h:n - h] = z[..., h:n - h]
    w[..., n - h:] = (_SQRT_HALF * (p - 1j * q))[..., ::-1]
    return w


def frame_weights(q):
    """Nodal weights symmetric in y, moved to the frame along the last axis:
    sum q |w|^2 = sum frame_weights(q) |Q^H w|^2, since the pair
    (i, n-1-i) maps to the frame rows i and n - n//2 + i and Q is unitary
    on it."""
    h = q.shape[-1] // 2
    return np.concatenate([q[..., :q.shape[-1] - h], q[..., :h]], axis=-1)


def real_form(m):
    """Q^H m Q by O(n^2) slicing (complex; real when m is centrohermitian)."""
    return np.conj(to_real_frame(np.conj(to_real_frame(m.T).T)))


def reflection_blocks(a, parity=1):
    """Frame blocks of the real (n, n) matrix a, by O(n^2) real slicing.

    The frame of `to_real_frame` keeps x = (a + parity J a J)/2, J the node
    reversal.  For parity 1, x is centrosymmetric and Q^H x Q = diag(even,
    odd): even (size n - n//2) on the reflection sums and the middle node,
    odd (size n//2) on the differences.  For parity -1, x is anti-
    centrosymmetric (d/dy) and Q^H x Q = [[0, i eo], [-i oe, 0]], with eo
    of shape (n - n//2, n//2) and oe its transposed shape.  With h = n//2
    and P, M = x11 +- x12 J, the blocks are [[P, c], [r, x_hh]] and M in the
    first case, [[M], [r]] and [P, c] in the second, where c and r are
    sqrt 2 times the middle column and row (odd n only).  Row and column 0
    of each block belong to the wall pair (y = +-1).

    Returns (blocks, kept, dropped): the blocks, and the Frobenius norms of
    the part Q^H . Q keeps and of the part it leaves out.  Only (h, n)
    temporaries are made.
    """
    n = a.shape[0]
    h = n // 2
    top, jtop = a[:h], a[::-1, ::-1][:h]
    x, d = (top + jtop, top - jtop) if parity > 0 else (top - jtop, top + jtop)
    x *= 0.5                                        # rows 0..h-1 of x
    kept, dropped = 2.0 * np.vdot(x, x), 0.5 * np.vdot(d, d)
    del d
    plus = np.empty((n - h, n - h))
    plus[:h, :h] = x[:, :h] + x[:, ::-1][:, :h]
    minus = x[:, :h] - x[:, ::-1][:, :h]
    if n % 2:
        mid = 0.5 * (a[h] + parity * a[h, ::-1])
        kept += np.sum(mid * mid)
        dropped += 0.25 * np.sum((a[h] - parity * a[h, ::-1]) ** 2)
        plus[:h, h] = math.sqrt(2.0) * x[:, h]
        plus[h, :h] = math.sqrt(2.0) * mid[:h]
        plus[h, h] = mid[h]
    blocks = (plus, minus) if parity > 0 else (np.vstack([minus, plus[h:, :h]]), plus[:h])
    return blocks, math.sqrt(kept), math.sqrt(dropped)


def frame_blocks(ops, name):
    """New arrays of the `reflection_blocks` of ops.d1 (name "d1", parity
    -1) or ops.d2 ("d2", parity 1).  Every frame operator is built from
    these, so this is the one reflection guard: a dropped part above
    FRAME_RESIDUE_MAX times the kept one is refused, naming the matrix, N
    and the residue."""
    parity = -1 if name == "d1" else 1
    blocks, kept, dropped = reflection_blocks(getattr(ops, name), parity)
    if not dropped <= FRAME_RESIDUE_MAX * kept:
        raise RuntimeError(
            f"{name} is not reflection {'anti' if parity < 0 else ''}symmetric "
            f"at N = {len(ops.d1)}: relative residue of its dropped frame "
            f"blocks {dropped / kept:.3g} > {FRAME_RESIDUE_MAX:g}")
    return blocks


def bordered_frame_blocks(ops, scale, shift):
    """Frame blocks (even, odd) of scale d2 + shift, bordered by
    w(+-1) = 0 as by `border_dirichlet`: row 0 of each, the wall pair's, is
    the identity row."""
    blocks = frame_blocks(ops, "d2")
    for b in blocks:
        b *= scale
        b[np.diag_indices_from(b)] += shift
        b[0] = 0.0
        b[0, 0] = 1.0
    return blocks

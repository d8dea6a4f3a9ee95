"""Homogeneous stream-function pair: slanted Airy against direct solves.

The two wall-normalized homogeneous solutions are built twice: from scaled
Airy evaluations on the rotated critical-layer coordinate with coefficients
from the wall-moment system, and from one solve of the moment-bordered
vorticity matrix.  They agree to spectral accuracy, and the wall derivatives
land on (1, 0) and (0, 1).
"""

import numpy as np

from couettelab.grid import build_diff_ops, build_grid, default_order, l2_norm, quadrature
from couettelab.resolvent import ResolventCase, homogeneous_airy, homogeneous_bvp

nu, k, lam = 1e-4, 2, 0.35
case = ResolventCase(nu=nu, k=k, lam=lam, bc="non_slip")
g = build_grid(default_order(nu, k))
ops = build_diff_ops(g)
print(f"case: nu={nu}, k={k}, lambda={lam}; wall layer 1/L = {1/case.L:.4f}, "
      f"grid order {g.order}")

pa = homogeneous_airy(case, g, ops)
pb = homogeneous_bvp(case, g, ops)
print(f"route agreement |w1_airy - w1_bvp| / |w1| = "
      f"{l2_norm(g, pa.w1 - pb.w1) / l2_norm(g, pb.w1):.2e}")

d1 = ops.d1
print("wall derivatives (phi1', phi2') at y = +1, -1:")
print(f"  phi1: {abs((d1 @ pa.phi1)[0]):.12f}, {abs((d1 @ pa.phi1)[-1]):.2e}")
print(f"  phi2: {abs((d1 @ pa.phi2)[0]):.2e}, {abs((d1 @ pa.phi2)[-1]):.12f}")

m = quadrature(g, np.exp(k * g.nodes) * pa.w1)
print(f"moment identity: int e^(ky) w1 = {m:.12f} (target e^k = {np.exp(k):.12f})")
print(f"L1 sizes: |w1|_1 = {quadrature(g, np.abs(pa.w1)):.4f}, "
      f"|w2|_1 = {quadrature(g, np.abs(pa.w2)):.4f} (order one uniformly)")
print(f"wall-layer coefficient ratio |A1/B1| = "
      f"{np.exp(pa.A1.abs_log() - pa.B1.abs_log()):.4f} (<= sqrt(2)/2 = 0.7071)")

"""Space-time estimates: the four-term ledger and the three-part splitting.

A homogeneous no-slip run accumulates the velocity sup norm, the
time-integrated velocity (inviscid damping), the weighted vorticity pieces,
and the boundary-weighted sup; the ratio against the initial-data functional
stays order one across viscosities.  The splitting check reconstructs the
run from the sheared phase factor, a forced moment-zero part, and a
wall-correction part.
"""

import numpy as np

from couettelab.evolution import (EvolutionCase, dt_accuracy_bound,
                                  homogeneous_splitting, space_time_ratio, run)
from couettelab.grid import (build_diff_ops, build_grid, default_order, l2_norm,
                             wall_moment_residuals)

for nu in (1e-3, 1e-4):
    k = 1
    g = build_grid(default_order(nu, k))
    ops = build_diff_ops(g)
    phi0 = (1 - g.nodes**2) ** 2 * np.exp(0.5j * np.pi * g.nodes)
    w0 = (ops.d2 - np.eye(g.n_points)) @ phi0
    case = EvolutionCase(nu=nu, k=k, omega0=w0, dt=dt_accuracy_bound(nu, k),
                         t_end=4.0 * (nu * k**2) ** (-1 / 3), bc="non_slip")
    led, _ = run(case, g, ops, store_every=2)
    print(f"nu={nu:7.0e}: space-time ratio {space_time_ratio(led, nu, k):.4f}  "
          f"(|u| sup {led.u_linf_linf:.3f}, k^2 |u|^2_L2L2 {led.u_l2l2**2:.3f})")

print("\nthree-part splitting at (nu, k) = (1e-3, 2):")
nu, k = 1e-3, 2
g = build_grid(default_order(nu, k))
ops = build_diff_ops(g)
phi0 = (1 - g.nodes**2) ** 2 * np.exp(0.5j * np.pi * g.nodes)
w0 = (ops.d2 - k**2 * np.eye(g.n_points)) @ phi0
case = EvolutionCase(nu=nu, k=k, omega0=w0, dt=dt_accuracy_bound(nu, k),
                     t_end=3.0 * (nu * k**2) ** (-1 / 3), bc="non_slip")
parts, err = homogeneous_splitting(case, g, ops)
print(f"  additivity error (relative, sup in time): {err:.2e}")
for name in ("part1", "part2", "part3"):
    t, v = parts[name].decay_samples[-1]
    print(f"  {name}: final |w|_2 = {v:.4e}")

print("\nbehavior under a 1e-3 wall-moment violation (reported, not asserted):")
bad = w0 + 1e-3 * l2_norm(g, w0) * np.exp(g.nodes)
print(f"  violation size: {wall_moment_residuals(g, bad, k).max():.2e}")
case = EvolutionCase(nu=nu, k=k, omega0=bad, dt=dt_accuracy_bound(nu, k),
                     t_end=3.0 * (nu * k**2) ** (-1 / 3), bc="non_slip",
                     check_moments=False)
led, _ = run(case, g, ops, store_every=2, auto_extend=False)
print(f"  space-time ratio degrades to {space_time_ratio(led, nu, k):.4f}")

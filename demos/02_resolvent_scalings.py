"""Resolvent scaling laws at desk scale.

Sweeps the worst-case response of the sheared advection-diffusion resolvent
over two decades of viscosity and fits the decay powers; the proved values
are -1/3 (vorticity, wall-slip), -5/12 (vorticity, no-slip, L2 data) and
-1/2 (velocity, no-slip, divergence data).  A three-decade sweep (as in the
acceptance suite) sharpens the fits; two decades keep this demo at about a
minute.
"""

from couettelab.harness import SweepSpec, verify_navier_l2, verify_nonslip
from couettelab.reports import svg_loglog

NUS = (1e-2, 3.16e-3, 1e-3, 3.16e-4, 1e-4)

print("Wall-slip (vorticity Dirichlet), L2 forcing:")
fits, constants, rows = verify_navier_l2(SweepSpec(nu_values=NUS, k_values=(1,)))
for f in fits:
    print(f"  {f.name:24s} slope {f.exponent:+.4f}  target {f.target_exponent:+.4f}"
          f"  r2 {f.r2:.4f}")
svg_loglog("navier_w_scaling.svg", [r["nu"] for r in rows],
           [r["l2"] for r in rows],
           fit={"exponent": fits[0].exponent, "intercept": fits[0].intercept},
           targets=(fits[0].target_exponent,), title="worst-case |w| response")
print("  wrote navier_w_scaling.svg")

print("No-slip (velocity Dirichlet), both data classes:")
fits, constants, _ = verify_nonslip(SweepSpec(nu_values=NUS, k_values=(1,)))
for f in fits:
    print(f"  {f.name:24s} slope {f.exponent:+.4f}  target {f.target_exponent:+.4f}"
          f"  r2 {f.r2:.4f}")
print("recorded constants:", {k: round(v, 3) for k, v in constants.items()})

"""Resolvent scaling laws at desk scale.

Sweeps the worst-case response of the sheared advection-diffusion resolvent
over two decades of viscosity and fits the decay powers; the proved values
are -1/3 (vorticity, wall-slip), -5/12 (vorticity, no-slip, L2 data) and
-1/2 (velocity, no-slip, divergence data).  Each check is an entry of
harness.SWEEP_CHECKS, which names the norm column and data kind of every
fit; verify_sweep runs it and tags each row with its data kind.  A
three-decade sweep (as in the acceptance suite) sharpens the fits; two
decades keep this demo at about a minute.
"""

from couettelab.harness import SWEEP_CHECKS, verify_sweep
from couettelab.reports import svg_loglog

NUS = (1e-2, 3.16e-3, 1e-3, 3.16e-4, 1e-4)

print("Wall-slip (vorticity Dirichlet), L2 forcing:")
fits, constants, rows = verify_sweep("navier_l2", NUS, k=1)
for f in fits:
    print(f"  {f.name:24s} slope {f.exponent:+.4f}  target {f.target_exponent:+.4f}"
          f"  r2 {f.r2:.4f}")
_, data, column, _ = SWEEP_CHECKS["navier_l2"]["fits"][0]
fitted = [r for r in rows if r["data"] == data]
svg_loglog("navier_w_scaling.svg", [r["nu"] for r in fitted],
           [r[column] for r in fitted],
           fit={"exponent": fits[0].exponent, "intercept": fits[0].intercept},
           targets=(fits[0].target_exponent,), title="worst-case |w| response")
print("  wrote navier_w_scaling.svg")

print("No-slip (velocity Dirichlet), both data classes:")
fits, constants, _ = verify_sweep("nonslip", NUS, k=1)
for f, (_, data, column, _) in zip(fits, SWEEP_CHECKS["nonslip"]["fits"]):
    print(f"  {f.name:24s} slope {f.exponent:+.4f}  target {f.target_exponent:+.4f}"
          f"  r2 {f.r2:.4f}  ({column} of {data} data)")
print("recorded constants:", {k: round(v, 3) for k, v in constants.items()})

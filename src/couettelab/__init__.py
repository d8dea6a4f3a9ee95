"""couettelab: desk-scale verification of linearized Couette-flow estimates.

Submodules:

* grid        Chebyshev nodes, Clenshaw-Curtis weights, differentiation matrices
* weights     wall-ramp weight and critical-layer cutoff
* airy        complex Airy function, slanted primitive, damping factor
* resolvent   vorticity-form resolvent solves and homogeneous pairs
* norms       the norm bundle every estimate is stated in
* harness     sweeps, scaling fits, spectra, weak-type pairing
* evolution   Crank-Nicolson integration and space-time ledgers
* nonlinear   pseudo-spectral perturbation system and energy functional
* reports     deterministic CSV/JSON/SVG emission
* cli         batch subcommands
"""

__version__ = "0.1.0"

from .grid import ChebGrid, DiffOps, build_diff_ops, build_grid, quadrature
from .airy import AiryBundle, A0Value, DampingFactor, log_derivative_sup
from .resolvent import (ResolventCase, ForcingSpec, ResolventSolution,
                        HomogeneousPair, coefficients,
                        homogeneous_airy, homogeneous_bvp, recover_velocity,
                        solve, solve_navier, solve_nonslip)
from .norms import NormBundle
from .harness import ScalingFit, SpectralGapReport, fit_loglog, spectrum
from .evolution import EvolutionCase, SpaceTimeLedger, homogeneous_splitting
from .nonlinear import (EnergyFunctional, PerturbationState, ThresholdProbe,
                        probe_threshold)

# keep submodule names bound to the modules (several carry same-named
# callables: couettelab.airy.airy, couettelab.norms.norms, ...)
from . import airy, evolution, norms  # noqa: E402,F811

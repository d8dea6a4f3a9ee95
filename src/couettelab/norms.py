"""Norm bundle: every scalar diagnostic the estimates are stated in."""

import math
from dataclasses import dataclass

import numpy as np

from .grid import l1_norm, l2_norm, quadrature, real_apply, weighted_l2_norm
from .weights import rho_k


@dataclass(frozen=True)
class NormBundle:
    l2: float
    l1: float
    linf: float
    h1_phi: float
    u_l2: float
    critical: float
    w_prime_l2: float
    rho_half: float
    rho_neg_quarter: float
    rho_threehalf: float
    boundary_weight: float

    def as_dict(self):
        return dict(self.__dict__)


def norms(solution, case, grid, ops):
    """All norms of a resolvent solution by quadrature (L-inf is the grid max)."""
    w = solution.w
    phi = solution.phi
    u1, u2 = solution.u
    y = grid.nodes
    rho = rho_k(y, case.L)
    # reciprocal wall weight: infinite at the walls, masked by the norm helper
    with np.errstate(divide="ignore"):
        rho_neg = rho ** -0.5
    phip = real_apply(ops.d1, phi)
    h1 = quadrature(grid, np.abs(phip) ** 2).real \
        + case.k**2 * quadrature(grid, np.abs(phi) ** 2).real
    return NormBundle(
        l2=l2_norm(grid, w),
        l1=l1_norm(grid, w),
        linf=float(np.max(np.abs(w))),
        h1_phi=float(h1),
        u_l2=math.sqrt(abs(quadrature(grid, np.abs(u1) ** 2 + np.abs(u2) ** 2))),
        critical=l2_norm(grid, (y - case.lam) * w),
        w_prime_l2=l2_norm(grid, real_apply(ops.d1, w)),
        rho_half=weighted_l2_norm(grid, w, rho),
        rho_neg_quarter=weighted_l2_norm(grid, w, rho_neg),
        rho_threehalf=weighted_l2_norm(grid, w, rho ** 3),
        boundary_weight=weighted_l2_norm(grid, w, 1.0 - np.abs(y)),
    )

import math

import numpy as np
import pytest

from couettelab.grid import build_grid, quadrature
from couettelab.weights import cutoff_chi, rho_k


@pytest.fixture(scope="module")
def grid():
    return build_grid(128)


def test_rho_k_profile(grid):
    values = rho_k(grid.nodes, 2.0)
    y = grid.nodes
    assert np.all((values >= 0) & (values <= 1))
    core = np.abs(y) <= 0.5
    assert np.allclose(values[core], 1.0)
    assert values[0] == 0.0 and values[-1] == 0.0
    assert rho_k(np.array([0.0]), 2.0)[0] == 1.0


def test_cutoff_chi(grid):
    lam, delta = 0.0, 0.1
    values = cutoff_chi(grid.nodes, lam, delta)
    y = grid.nodes
    j = np.argmin(np.abs(y - 0.5))
    assert abs(values[j] - 1.0 / (y[j] - lam)) < 1e-14
    # sup bound ~ 1.089/delta at the interior extremum
    dense = cutoff_chi(np.linspace(-1, 1, 100001), lam, delta)
    assert np.max(np.abs(dense)) <= 1.1 / delta


@pytest.mark.parametrize("k", [1, 2, 4, 8, 16])
def test_hyperbolic_weight_bounds(grid, k):
    # quadrature of |sinh k(1+y)/sinh 2k|^2 <= 2/|k|, cosh version <= 8/|k|
    y = grid.nodes
    s = quadrature(grid, (np.sinh(k * (1 + y)) / math.sinh(2 * k)) ** 2)
    c = quadrature(grid, (np.cosh(k * (1 + y)) / math.sinh(2 * k)) ** 2)
    assert s <= 2.0 / k
    assert c <= 8.0 / k

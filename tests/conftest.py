import numpy as np
import pytest

from volterra_games.grid_ops import (
    ConstantLower,
    ExponentialDecay,
    TimeGrid,
    build_grid,
    discretize_kernel,
)


@pytest.fixture
def grid16() -> TimeGrid:
    return build_grid(1.0, 16)


@pytest.fixture
def grid64() -> TimeGrid:
    return build_grid(1.0, 64)


def admissible_kernels(grid, rng):
    """A random admissible (nonnegative definite Volterra) kernel triple."""
    from volterra_games.grid_ops import DelayIndicator, PowerLaw

    choices = [
        lambda: ExponentialDecay(c=rng.uniform(0.1, 1.0), rho=rng.uniform(0.2, 3.0)),
        lambda: ConstantLower(c=rng.uniform(0.1, 1.0)),
        lambda: PowerLaw(c=rng.uniform(0.1, 0.6), alpha=rng.uniform(0.05, 0.45)),
        lambda: DelayIndicator(tau=grid.horizon * rng.uniform(1.0, 1.5)),
    ]
    def draw():
        return discretize_kernel(choices[rng.integers(len(choices))](), grid)
    return draw


def rand_lower(grid, rng, scale=1.0):
    vals = np.tril(rng.standard_normal((grid.n, grid.n)), k=-1) * scale
    from volterra_games.grid_ops import GridKernel
    return GridKernel(grid, vals)

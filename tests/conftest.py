import numpy as np
import pytest

from volterra_games.errors import ShapeError
from volterra_games.grid_ops import (
    ConstantLower,
    ExponentialDecay,
    TRI_BLOCK,
    GridKernel,
    TimeGrid,
    build_grid,
    discretize_kernel,
)
from volterra_games.nplayer import conditional_surfaces


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
    return GridKernel(grid, vals)


def mask_from(K: GridKernel, t_index: int) -> GridKernel:
    """Zero columns j < t_index, realizing G_t(s, r) = G(s, r) 1_{r >= t}."""
    if not (0 <= t_index < K.grid.n):
        raise ShapeError(f"mask index {t_index} outside [0, {K.grid.n})")
    vals = K.values.copy()
    vals[:, :t_index] = 0.0
    diag = None
    if K.diag_half is not None:
        diag = K.diag_half.copy()
        diag[:t_index] = 0.0
    return GridKernel(K.grid, vals, diag_half=diag)


def condition_number(solver, k: int) -> float:
    """2-norm condition number of D_k, the trailing block of a FredholmSolver's core, by SVD."""
    sv = np.linalg.svd(solver.core[k:, k:], compute_uv=False)
    return float(sv[0] / sv[-1])


def dense_factors(solver) -> tuple[np.ndarray, np.ndarray]:
    """(Ui, Li): a FredholmSolver's inverse factors as dense matrices, rebuilt from its bands."""
    n = solver.grid.n
    Ui, Li = np.zeros((n, n)), np.zeros((n, n))
    for r, upper, lower in zip(range(0, n, TRI_BLOCK), solver._ui_bands, solver._li_bands):
        Ui[r:r + len(upper), r:] = upper
        Li[r:r + len(lower), :r + len(lower)] = lower
    return Ui, Li


def cond1(solver) -> float:
    """Exact 1-norm condition number of a FredholmSolver's D_0, from the whole inverse Li @ Ui."""
    Ui, Li = dense_factors(solver)
    return float(np.linalg.norm(solver.core, 1) * np.linalg.norm(Li @ Ui, 1))


def mu_surface(solution) -> np.ndarray:
    """(common, n, n) conditional surfaces of an MFGSolution's mean field mu."""
    return conditional_surfaces(solution.mean_field, solution.block_increments,
                                len(solution.mu))

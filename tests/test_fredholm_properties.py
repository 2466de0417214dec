"""Property tests of FredholmSolver.solve over random admissible problems.

Each example draws a kernel family and its parameters, lam_eff, a grid with
2 to 256 points and drivers mixing deterministic, martingale and OU terms on
one or two noise tags.  Derandomized, so every run checks the same examples.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from volterra_games.errors import SingularOperator
from volterra_games.fredholm import FredholmSolver
from volterra_games.grid_ops import (
    ConstantLower,
    DelayIndicator,
    ExponentialDecay,
    PowerLaw,
    build_grid,
    discretize_kernel,
)
from volterra_games.signals import deterministic, draw_noise, martingale, ou

TAGS = ("common", "idio")
PROPERTIES = settings(derandomize=True, deadline=None, max_examples=50)


def unit(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def kernels(grid):
    return st.one_of(
        st.builds(ExponentialDecay, c=unit(0.1, 1.0), rho=unit(0.2, 3.0)),
        st.builds(ConstantLower, c=unit(0.1, 1.0)),
        st.builds(PowerLaw, c=unit(0.1, 0.6), alpha=unit(0.05, 0.45)),
        st.builds(DelayIndicator, tau=unit(1.0, 1.5)),
    ).map(lambda family: discretize_kernel(family, grid))


@st.composite
def solvers(draw, max_n=256):
    """A solver of lam_eff id + dt (K + K^T) for a drawn kernel K.

    lam_eff starts at 0.5, which can make D singular (ConstantLower(c=1) on
    two points), so draws whose core D is not positive definite are rejected.
    A positive definite D bounds every Schur pivot of every D_k below by its
    smallest eigenvalue; the margin is the pivot threshold build_Dt applies.
    """
    grid = build_grid(1.0, draw(st.integers(2, max_n)))
    K = draw(kernels(grid))
    lam_eff = draw(unit(0.5, 4.0))
    core = lam_eff * np.eye(grid.n) + grid.dt * (K.values + K.values.T)
    margin = 1e-10 * max(1.0, float(np.max(np.abs(core))))
    assume(np.linalg.eigvalsh(core)[0] > margin)
    return FredholmSolver(K, lam_eff)


@st.composite
def drivers(draw, grid):
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("deterministic", "martingale", "ou")))
        if kind == "deterministic":
            rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
            term = deterministic(grid, rng.standard_normal(grid.n))
        elif kind == "martingale":
            term = martingale(grid, sigma=draw(unit(0.1, 1.5)),
                              noise=draw(st.sampled_from(TAGS)))
        else:
            term = ou(grid, kappa=draw(unit(0.2, 3.0)), sigma=draw(unit(0.1, 1.0)),
                      x0=draw(unit(-1.0, 1.0)), noise=draw(st.sampled_from(TAGS)))
        terms.append((draw(unit(-2.0, 2.0)), term))
    return sum(c * term for c, term in terms)


def coefficient_gap(a, b):
    """Largest difference between two signals' means and strictly lower weights."""
    zero = np.zeros((a.grid.n, a.grid.n))
    gap = float(np.max(np.abs(a.mean - b.mean)))
    for tag in dict.fromkeys([*a.weights, *b.weights]):
        diff = np.tril(a.weights.get(tag, zero) - b.weights.get(tag, zero), -1)
        gap = max(gap, float(np.max(np.abs(diff))))
    return gap


def test_lowest_drawable_lam_eff_makes_two_point_constant_kernel_singular():
    # the draw the generator rejects: D = [[0.5, 0.5], [0.5, 0.5]]
    grid = build_grid(1.0, 2)
    K = discretize_kernel(ConstantLower(c=1.0), grid)
    with pytest.raises(SingularOperator, match="D_0 is"):
        FredholmSolver(K, 0.5)


@PROPERTIES
@given(st.data())
def test_residual_tiny_and_solution_adapted(data):
    solver = data.draw(solvers())
    f = data.draw(drivers(solver.grid))
    v = solver.solve(f)
    for w in v.weights.values():
        assert not np.any(np.triu(w))
    res = solver.residual(f, v)
    assert coefficient_gap(res, deterministic(solver.grid, 0.0)) <= 1e-9
    bundle = draw_noise(solver.grid, TAGS, 4, seed=data.draw(st.integers(0, 2 ** 16)))
    assert np.max(np.abs(res.path_values(bundle.increments, 4))) <= 1e-9


@PROPERTIES
@given(st.data())
def test_solve_is_linear_in_the_driver(data):
    solver = data.draw(solvers())
    f1 = data.draw(drivers(solver.grid))
    f2 = data.draw(drivers(solver.grid))
    c1, c2 = data.draw(unit(-2.0, 2.0)), data.draw(unit(-2.0, 2.0))
    mixed = solver.solve(c1 * f1 + c2 * f2)
    parts = c1 * solver.solve(f1) + c2 * solver.solve(f2)
    assert coefficient_gap(mixed, parts) <= 1e-10


@PROPERTIES
@given(st.data())
def test_solution_satisfies_the_per_k_closed_form(data):
    """v = a + dt B v with the paper's w_k = D_k^{-T} ell_k, a and B, one solve per k."""
    solver = data.draw(solvers(max_n=96))
    f = data.draw(drivers(solver.grid))
    grid, K = solver.grid, solver.K.values
    n, dt, lam = grid.n, grid.dt, solver.lam_eff
    core = lam * np.eye(n) + dt * (K + K.T)
    w = np.zeros((n, n))
    B = np.zeros((n, n))
    for k in range(n):
        w[k, k:] = np.linalg.solve(core[k:, k:].T, K[k:, k])
        B[k, :k] = (dt * (w[k, k:] @ K[k:, :k]) - K[k, :k]) / lam
    v = solver.solve(f)
    bundle = draw_noise(grid, TAGS, 2, seed=data.draw(st.integers(0, 2 ** 16)))
    for p in range(2):
        dW = bundle.path(p)
        f_vals, f_surf = f.values_and_surface(dW)
        a = (f_vals - dt * np.einsum("kj,kj->k", w, f_surf)) / lam
        v_vals = v.values_and_surface(dW)[0]
        assert np.max(np.abs(v_vals - (a + dt * B @ v_vals))) <= 1e-10

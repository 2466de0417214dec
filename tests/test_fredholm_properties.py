"""Property tests of FredholmSolver.solve over random admissible problems.

Each example draws a kernel family and its parameters, lam_eff, a grid with
2 to 256 points and drivers mixing deterministic, martingale and OU terms on
one or two noise tags.  The check against the paper's per-k closed form also
draws a backward kernel L of its own, so K + L^T need not be symmetric.
Derandomized, so every run checks the same examples.
"""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from volterra_games.errors import SingularOperator
from volterra_games.fredholm import FredholmProblem, FredholmSolver
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
def solvers(draw, max_n=256, own_backward=False):
    """A solver with L = K, or with L drawn on its own when own_backward is set.

    Every kernel drawn here has dt (K + K^T) >= -0.75 (the worst case is a
    power law on two points), so with its own L, lam_eff starts at 1.  With
    L = K it starts at 0.5, which can make D singular (ConstantLower(c=1) on
    two points), so draws whose core D has a symmetric part that is not
    positive definite are rejected.  A positive definite symmetric part bounds
    every Schur pivot of every D_k below by its smallest eigenvalue; the margin
    is the pivot threshold build_Dt applies.
    """
    grid = build_grid(1.0, draw(st.integers(2, max_n)))
    K = draw(kernels(grid))
    L = draw(kernels(grid)) if own_backward else K
    lam_eff = draw(unit(1.0 if own_backward else 0.5, 4.0))
    core = lam_eff * np.eye(grid.n) + grid.dt * (K.values + L.values.T)
    margin = 1e-10 * max(1.0, float(np.max(np.abs(core))))
    assume(np.linalg.eigvalsh(0.5 * (core + core.T))[0] > margin)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        problem = FredholmProblem(K=K, L=L, lam_eff=lam_eff,
                                  strict_selfadjoint=not own_backward)
    return FredholmSolver(problem)


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
        FredholmSolver(FredholmProblem(K=K, L=K, lam_eff=0.5))


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
    solver = data.draw(solvers(max_n=96, own_backward=True))
    f = data.draw(drivers(solver.grid))
    grid, problem = solver.grid, solver.problem
    n, dt, lam = grid.n, grid.dt, problem.lam_eff
    K, L = problem.K.values, problem.L.values
    core = lam * np.eye(n) + dt * (K + L.T)
    w = np.zeros((n, n))
    B = np.zeros((n, n))
    for k in range(n):
        w[k, k:] = np.linalg.solve(core[k:, k:].T, L[k:, k])
        B[k, :k] = (dt * (w[k, k:] @ K[k:, :k]) - K[k, :k]) / lam
    v = solver.solve(f)
    bundle = draw_noise(grid, TAGS, 2, seed=data.draw(st.integers(0, 2 ** 16)))
    for p in range(2):
        dW = bundle.path(p)
        f_vals, f_surf = f.values_and_surface(dW)
        a = (f_vals - dt * np.einsum("kj,kj->k", w, f_surf)) / lam
        v_vals = v.values_and_surface(dW)[0]
        assert np.max(np.abs(v_vals - (a + dt * B @ v_vals))) <= 1e-10

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from volterra_games.errors import InadmissibleKernel, SingularOperator
from volterra_games.fredholm import (
    LU_LEAF,
    FredholmProblem,
    FredholmSolver,
    _lu_inplace,
    build_Dt,
    stability_gap,
)
from volterra_games.grid_ops import (
    TRI_BLOCK,
    ConstantLower,
    ExponentialDecay,
    GridKernel,
    PowerLaw,
    build_grid,
    discretize_kernel,
    zero_kernel,
)
from volterra_games.cli import build_game_from_config
from volterra_games.nplayer import build_operators, conditional_surfaces
from volterra_games.signals import CompiledSignal, draw_noise, martingale, ou

from conftest import cond1, condition_number, mask_from


def det_signal(grid, values):
    return CompiledSignal(grid, np.asarray(values, dtype=float), {})


def solve(problem, f):
    return FredholmSolver(problem).solve(f)


def residual_sup(problem, f, bundle=None):
    """Sup of the Fredholm residual at the solution over the bundle's paths."""
    solver = FredholmSolver(problem)
    res = solver.residual(f, solver.solve(f))
    if bundle is None:
        return float(np.max(np.abs(res.path_values({}, 1))))
    return float(np.max(np.abs(res.path_values(bundle.increments, bundle.n_paths))))


def loose_problem(K, L, lam):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return FredholmProblem(K=K, L=L, lam_eff=lam, strict_selfadjoint=False)


def factor(K, lam):
    """The factored D_k family of lam id + dt (K + K^T)."""
    return FredholmSolver(FredholmProblem(K=K, L=K, lam_eff=lam))


def block_cores(n):
    """An SPD core, a symmetric indefinite core and a non-symmetric core on n points:
    name -> (FredholmSolver, K, L, lam)."""
    rng = np.random.default_rng(4)
    g = build_grid(1.0, n)
    K = discretize_kernel(ExponentialDecay(c=0.8, rho=1.1), g)
    V = np.tril(rng.standard_normal((n, n)), -1)
    V[n - 1, 0] = 5.0 * n                  # only D_0 sees index 0: it turns indefinite
    Ks = GridKernel(g, V)
    Lp = discretize_kernel(PowerLaw(c=0.5, alpha=0.3), g)
    return {
        "spd": (factor(K, 2.0), K, K, 2.0),
        "indefinite": (factor(Ks, 1.0), Ks, Ks, 1.0),
        "nonsymmetric": (FredholmSolver(loose_problem(K, Lp, 2.0)), K, Lp, 2.0),
    }


def check_block_definition(n):
    """Li_k @ Ui_k inverts the trailing block of lam id + dt(mask_from(K,k) +
    mask_from(L,k)^T) for every k, on an SPD core, a symmetric
    indefinite core and a non-symmetric core; pivots, min_pivot and cond1 agree.
    """
    rng = np.random.default_rng(4)
    rng.standard_normal((n, n))            # the draw block_cores takes
    g = build_grid(1.0, n)
    for name, (solver, Kc, Lc, lam) in block_cores(n).items():
        core = lam * np.eye(n) + g.dt * (Kc.values + Lc.values.T)
        if name != "nonsymmetric":
            assert (np.linalg.eigvalsh(core).min() < 0) == (name == "indefinite")
        for k in range(n):
            D = lam * np.eye(n) + g.dt * (mask_from(Kc, k).values
                                          + mask_from(Lc, k).values.T)
            y = rng.standard_normal(n)
            inv_k = solver._Li[k:, k:] @ solver._Ui[k:, k:]
            exact = np.linalg.inv(core[k:, k:])
            assert np.max(np.abs(inv_k - exact)) < 1e-12
            x = inv_k @ y[k:]
            assert np.max(np.abs(D[k:, k:] @ x - y[k:])) < 1e-12
            assert np.max(np.abs(x - np.linalg.solve(core[k:, k:], y[k:]))) < 1e-12
            # Schur pivot of D_k is det(D_k) / det(D_{k+1})
            assert abs(solver.pivots[k] * exact[0, 0] - 1.0) < 1e-12
        assert solver.min_pivot() == np.min(np.abs(solver.pivots))
        assert abs(cond1(solver) / np.linalg.cond(core, 1) - 1.0) < 1e-12


class TestProblemValidation:
    def test_self_adjointness_enforced(self):
        g = build_grid(1.0, 8)
        K = discretize_kernel(ConstantLower(c=1.0), g)
        with pytest.raises(InadmissibleKernel):
            FredholmProblem(K=K, L=zero_kernel(g), lam_eff=1.0)

    def test_downgrade_to_warning(self):
        g = build_grid(1.0, 8)
        K = discretize_kernel(ConstantLower(c=1.0), g)
        with pytest.warns(UserWarning):
            FredholmProblem(K=K, L=zero_kernel(g), lam_eff=1.0, strict_selfadjoint=False)

    def test_distinct_kernels_are_still_scanned(self):
        # only K is L skips the scan: an equal copy passes it, an asymmetric pair fails it
        g = build_grid(1.0, 8)
        K = discretize_kernel(ExponentialDecay(c=0.8, rho=1.1), g)
        FredholmProblem(K=K, L=GridKernel(g, K.values.copy()), lam_eff=1.0)
        L = discretize_kernel(PowerLaw(c=0.5, alpha=0.3), g)
        with pytest.raises(InadmissibleKernel):
            FredholmProblem(K=K, L=L, lam_eff=1.0)
        with pytest.warns(UserWarning):
            FredholmProblem(K=K, L=L, lam_eff=1.0, strict_selfadjoint=False)

    def test_nonpositive_scale(self):
        g = build_grid(1.0, 8)
        Z = zero_kernel(g)
        with pytest.raises(InadmissibleKernel):
            FredholmProblem(K=Z, L=Z, lam_eff=0.0)


class TestDtFamily:
    def test_zero_kernels_divide_by_scale(self):
        g = build_grid(1.0, 8)
        Z = zero_kernel(g)
        solver = factor(Z, 2.0)
        for k in (0, 3, 7):
            assert np.allclose(solver._Li[k:, k:] @ solver._Ui[k:, k:], np.eye(8 - k) / 2.0)

    def test_last_index_masks_to_single_cell(self):
        g = build_grid(1.0, 8)
        K = discretize_kernel(ExponentialDecay(), g)
        solver = factor(K, 1.0)
        out = solver._Li[7:, 7:] @ (solver._Ui[7:, 7:] @ np.array([3.0]))
        # surviving block is the single masked cell: (1 + dt*(K+K^T)[7,7]) x = y
        assert abs(out[0] - 3.0) < 1e-14

    def test_masked_condition_numbers_stay_bounded(self):
        # masking removes nonnegative contributions: cond(D_k) ~ cond(D_0) + O(1)
        rng = np.random.default_rng(0)
        g = build_grid(1.0, 32)
        for _ in range(5):
            K = discretize_kernel(ExponentialDecay(c=rng.uniform(0.2, 2.0),
                                                   rho=rng.uniform(0.2, 3.0)), g)
            solver = factor(K, 2.0)
            conds = [condition_number(solver, k) for k in range(32)]
            assert max(conds) <= condition_number(solver, 0) + 1.0

    def test_block_matches_masked_operator_definition(self):
        check_block_definition(12)

    @pytest.mark.parametrize("n", [100, 300])
    def test_block_definition_past_the_leaf(self, n):
        # large enough that the factorization recurses past its unblocked leaf
        assert n > 2 * LU_LEAF
        check_block_definition(n)

    def test_batched_surfaces_match_per_path(self):
        # surfaces read off the solution's weights for every path at once equal
        # the closed rows D_k x = E_{t_k} f - dt K v(past), solved path by path
        rng = np.random.default_rng(5)
        g = build_grid(1.0, 64)
        n, dt = g.n, g.dt
        K = discretize_kernel(ExponentialDecay(c=0.8, rho=1.1), g)
        solver = FredholmSolver(FredholmProblem(K=K, L=K, lam_eff=2.0))
        f = CompiledSignal(g, rng.standard_normal(n), {"a": rng.standard_normal((n, n)),
                                                       "b": rng.standard_normal((n, n))})
        bundle = draw_noise(g, {"a", "b"}, 20, 5)
        sol = solver.solve(f)
        batch = conditional_surfaces(sol, bundle.increments, 20)
        core = solver.core
        values = sol.path_values(bundle.increments, 20)
        for p, v in enumerate(values):
            _, f_surf = f.values_and_surface(bundle.path(p))
            S = np.empty((n, n))
            for k in range(n):
                S[k, k:] = np.linalg.solve(core[k:, k:],
                                           f_surf[k, k:] - dt * (K.values[k:, :k] @ v[:k]))
                S[k, :k] = v[:k]
            assert np.max(np.abs(batch[p] - S)) < 1e-13


class TestNaiveOracle:
    """Independent dense full-space reimplementation of the closed form."""

    @staticmethod
    def naive_solution(K, L, lam, f_vals, f_surf):
        g = K.grid
        n, dt = g.n, g.dt
        v = np.zeros(n)
        for k in range(n):
            D = lam * np.eye(n) + dt * (mask_from(K, k).values + mask_from(L, k).values.T)
            rhs = np.zeros(n)
            rhs[k:] = f_surf[k, k:] - dt * (K.values[k:, :k] @ v[:k])
            x = np.linalg.solve(D, rhs)
            v[k] = x[k]
        return v

    def test_matches_naive_on_constant_kernels(self):
        g = build_grid(1.0, 8)
        K = discretize_kernel(ConstantLower(c=0.8), g)
        prob = FredholmProblem(K=K, L=K, lam_eff=1.0)
        vals = 1.0 + g.times
        sol = solve(prob, det_signal(g, vals))
        naive = self.naive_solution(K, K, 1.0, vals, np.tile(vals, (g.n, 1)))
        assert np.max(np.abs(sol.mean - naive)) <= 1e-12

    def test_matches_naive_on_random_driver(self):
        g = build_grid(1.0, 8)
        K = discretize_kernel(ExponentialDecay(c=1.1, rho=0.5), g)
        bundle = draw_noise(g, {"common"}, 1, 2)
        f = ou(g, kappa=1.0, sigma=0.7, x0=0.2)
        values, surface = f.values_and_surface(bundle.path(0))
        sol = solve(FredholmProblem(K=K, L=K, lam_eff=2.0), f)
        naive = self.naive_solution(K, K, 2.0, values, surface)
        assert np.max(np.abs(sol.path_values(bundle.increments, 1)[0] - naive)) <= 1e-12

    def test_coefficients_and_surface_match_per_k_solves(self):
        residual, _ = self.check_per_k_solves(48)
        assert residual <= 1e-14

    @pytest.mark.parametrize("n", [65, 130, 300])
    def test_blocked_solve_matches_per_k_solves(self, n):
        # past one column block of grid_ops.lower_product; the driver's values
        # grow like sqrt(n) (unit increments), so the residual is held relative
        # to them
        assert n > TRI_BLOCK
        residual, scale = self.check_per_k_solves(n)
        assert residual <= 1e-14 * scale

    def check_per_k_solves(self, n):
        """(sup residual, sup |driver value|): v and the surface against one
        np.linalg.solve per D_k, and v against the paper's recursion
        v = a + dt B v with w, B and a built per k, on a symmetric and a
        non-symmetric problem; the driver's weights are anticipative, so only
        their adapted projections may enter."""
        rng = np.random.default_rng(6)
        g = build_grid(1.0, n)
        n, dt, lam = g.n, g.dt, 2.0
        K = discretize_kernel(ExponentialDecay(c=0.8, rho=1.1), g)
        Lp = discretize_kernel(PowerLaw(c=0.5, alpha=0.3), g)
        f = CompiledSignal(g, rng.standard_normal(n), {"common": rng.standard_normal((n, n))})
        dW = {"common": rng.standard_normal(n)}
        f_vals, f_surf = f.values_and_surface(dW)
        worst = 0.0
        for L in (K, Lp):
            solver = FredholmSolver(loose_problem(K, L, lam))
            core = lam * np.eye(n) + dt * (K.values + L.values.T)
            w = np.zeros((n, n))
            B = np.zeros((n, n))
            a = np.empty(n)
            for k in range(n):
                w[k, k:] = np.linalg.solve(core[k:, k:].T, L.values[k:, k])
                B[k, :k] = (dt * (w[k, k:] @ K.values[k:, :k]) - K.values[k, :k]) / lam
                a[k] = (f_vals[k] - dt * (w[k, k:] @ f_surf[k, k:])) / lam
            v = self.naive_solution(K, L, lam, f_vals, f_surf)
            S = np.empty((n, n))
            for k in range(n):
                rhs = f_surf[k, k:] - dt * (K.values[k:, :k] @ v[:k])
                S[k, k:] = np.linalg.solve(core[k:, k:], rhs)
                S[k, :k + 1] = v[:k + 1]
            sol = solver.solve(f)
            sol_vals, sol_surf = sol.values_and_surface(dW)
            residual = solver.residual(f, sol).path_values(
                {"common": dW["common"][None, :]}, 1)
            assert np.max(np.abs(sol_vals - (a + dt * B @ sol_vals))) <= 1e-13
            assert np.max(np.abs(sol_vals - v)) <= 1e-13
            assert np.max(np.abs(sol_surf - S)) <= 1e-13
            worst = max(worst, float(np.max(np.abs(residual))))
        return worst, max(1.0, float(np.max(np.abs(f_vals))))

    def test_assemble_B_matches_naive(self):
        # the paper's a and B, one full-space masked solve per entry: the
        # solution satisfies its forward recursion v = a + dt B v
        g = build_grid(1.0, 8)
        K = discretize_kernel(ConstantLower(c=0.8), g)
        f = 1.0 + np.sin(3.0 * g.times)
        v = solve(FredholmProblem(K=K, L=K, lam_eff=1.0), det_signal(g, f)).mean
        n, dt = g.n, g.dt
        a = np.empty(n)
        B = np.zeros((n, n))
        for k in range(n):
            D = np.eye(n) + dt * (mask_from(K, k).values + mask_from(K, k).values.T)
            ell = np.zeros(n)
            ell[k:] = K.values[k:, k]
            fcol = np.zeros(n)
            fcol[k:] = f[k:]
            a[k] = f[k] - dt * (ell @ np.linalg.solve(D, fcol))
            for j in range(k):
                kcol = np.zeros(n)
                kcol[k:] = K.values[k:, j]
                B[k, j] = dt * (ell @ np.linalg.solve(D, kcol)) - K.values[k, j]
        assert np.max(np.abs(v - (a + dt * B @ v))) <= 1e-12


class TestClosedForms:
    def test_zero_kernels(self):
        g = build_grid(1.0, 16)
        Z = zero_kernel(g)
        f = det_signal(g, np.sin(g.times))
        sol = solve(FredholmProblem(K=Z, L=Z, lam_eff=2.0), f)
        assert np.max(np.abs(sol.mean - f.mean / 2.0)) < 1e-15
        assert residual_sup(FredholmProblem(K=Z, L=Z, lam_eff=2.0), f) == 0.0
        # above the diagonal the surface is the conditional driver / lam_eff
        iu = np.triu_indices(16, k=1)
        f_surf = f.values_and_surface({})[1]
        assert np.max(np.abs(sol.values_and_surface({})[1][iu] - f_surf[iu] / 2.0)) < 1e-15

    def test_forward_only_exponential_limit(self):
        errs = {}
        for n in (128, 256):
            g = build_grid(1.0, n)
            K = discretize_kernel(ConstantLower(c=1.0), g)
            prob = loose_problem(K, zero_kernel(g), 1.0)
            sol = solve(prob, det_signal(g, np.ones(n)))
            errs[n] = np.max(np.abs(sol.mean - np.exp(-g.times)))
        assert errs[256] <= 5e-2
        assert 1.5 <= errs[128] / errs[256] <= 2.5

    def test_forward_only_gives_a_equals_f(self):
        g = build_grid(1.0, 16)
        K = discretize_kernel(ConstantLower(c=1.0), g)
        prob = loose_problem(K, zero_kernel(g), 2.0)
        # L = 0 zeroes w, so a = f / lam_eff and v solves the bare recursion
        # (lam_eff id + dt K) v = f
        f = np.cos(g.times)
        direct = np.linalg.solve(2.0 * np.eye(16) + g.dt * K.values, f)
        assert np.max(np.abs(solve(prob, det_signal(g, f)).mean - direct)) < 1e-15

    def test_symmetric_constant_fixed_point(self):
        errs = {}
        for n in (128, 256):
            g = build_grid(1.0, n)
            K = discretize_kernel(ConstantLower(c=1.0), g)
            sol = solve(FredholmProblem(K=K, L=K, lam_eff=1.0), det_signal(g, np.ones(n)))
            errs[n] = np.max(np.abs(sol.mean - 0.5))
        assert errs[256] <= 5e-2
        assert 1.5 <= errs[128] / errs[256] <= 2.5

    def test_zero_driver(self):
        g = build_grid(1.0, 16)
        K = discretize_kernel(ExponentialDecay(), g)
        sol = solve(FredholmProblem(K=K, L=K, lam_eff=1.0), det_signal(g, np.zeros(16)))
        assert np.all(sol.mean == 0.0)


class TestExactness:
    def test_small_rational_case(self):
        g = build_grid(1.0, 4)
        K = discretize_kernel(ConstantLower(c=1.0), g)
        assert residual_sup(FredholmProblem(K=K, L=K, lam_eff=1.0),
                            det_signal(g, np.array([1.0, 2.0, 3.0, 4.0]))) <= 1e-12

    def test_randomized_residuals(self):
        rng = np.random.default_rng(8)
        g = build_grid(1.0, 64)
        bundle = draw_noise(g, {"common", "idio"}, 4, 3)
        for trial in range(10):
            K = discretize_kernel(ExponentialDecay(c=rng.uniform(0.2, 1.5),
                                                   rho=rng.uniform(0.2, 3.0)), g)
            f = (martingale(g, sigma=0.7, noise="common")
                 + ou(g, kappa=1.0, sigma=0.5, x0=0.4, noise="idio"))
            assert residual_sup(FredholmProblem(K=K, L=K, lam_eff=2.0), f, bundle) <= 1e-9

    def test_conditional_solution_diag_and_adapted_rows(self):
        g = build_grid(1.0, 16)
        K = discretize_kernel(ExponentialDecay(c=0.9, rho=1.2), g)
        bundle = draw_noise(g, {"common"}, 1, 1)
        sol = solve(FredholmProblem(K=K, L=K, lam_eff=2.0), martingale(g, sigma=1.0))
        vals, surface = sol.values_and_surface(bundle.path(0))
        assert np.max(np.abs(vals - sol.path_values(bundle.increments, 1)[0])) < 1e-14
        assert np.array_equal(np.diagonal(surface), vals)
        for k in range(16):
            assert np.array_equal(surface[k, :k], vals[:k])

    def test_deterministic_driver_surface_rows_equal_solution(self):
        g = build_grid(1.0, 16)
        K = discretize_kernel(ExponentialDecay(c=0.9, rho=1.2), g)
        sol = solve(FredholmProblem(K=K, L=K, lam_eff=2.0), det_signal(g, 1.0 + g.times))
        assert np.max(np.abs(sol.values_and_surface({})[1] - sol.mean[None, :])) < 1e-12

    def test_linearity_in_driver(self):
        g = build_grid(1.0, 32)
        K = discretize_kernel(ExponentialDecay(c=0.7, rho=2.0), g)
        solver = FredholmSolver(FredholmProblem(K=K, L=K, lam_eff=2.0))
        bundle = draw_noise(g, {"common"}, 1, 4)
        f1 = martingale(g, sigma=1.0)
        f2 = ou(g, kappa=2.0, sigma=0.5, x0=1.0)

        def values(f):
            return solver.solve(f).path_values(bundle.increments, 1)[0]

        vm = values(0.7 * f1 + -0.4 * f2)
        assert np.max(np.abs(vm - 0.7 * values(f1) + 0.4 * values(f2))) <= 1e-10

    def test_bitwise_reproducible(self):
        g = build_grid(1.0, 32)
        K = discretize_kernel(ExponentialDecay(c=0.7, rho=2.0), g)
        f = det_signal(g, np.sin(3 * g.times))
        a = solve(FredholmProblem(K=K, L=K, lam_eff=2.0), f)
        b = solve(FredholmProblem(K=K, L=K, lam_eff=2.0), f)
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.values_and_surface({})[1], b.values_and_surface({})[1])


class TestStability:
    def test_identical_problems_zero_gap(self):
        g = build_grid(1.0, 32)
        K = discretize_kernel(ExponentialDecay(), g)
        prob = FredholmProblem(K=K, L=K, lam_eff=2.0)
        bundle = draw_noise(g, {"common"}, 8, 0)
        assert stability_gap(prob, prob, bundle, martingale(g, sigma=1.0)) <= 1e-20

    def test_kernel_perturbation_slope(self):
        g = build_grid(1.0, 32)
        K = discretize_kernel(ExponentialDecay(c=1.0, rho=1.0), g)
        bundle = draw_noise(g, {"common"}, 16, 5)
        prob = FredholmProblem(K=K, L=K, lam_eff=2.0)
        ns = [4, 8, 16, 32, 64]
        gaps = []
        for N in ns:
            pert = discretize_kernel(ConstantLower(c=1.0, scale=1.0 / N), g)
            KN = discretize_kernel(ExponentialDecay(c=1.0, rho=1.0), g)
            from volterra_games.grid_ops import add_kernels
            KN = add_kernels((1.0, KN), (1.0, pert))
            gaps.append(stability_gap(FredholmProblem(K=KN, L=KN, lam_eff=2.0), prob, bundle,
                                      martingale(g, sigma=1.0)))
        slope = np.polyfit(np.log(ns), np.log(gaps), 1)[0]
        assert -2.4 <= slope <= -1.6

    def test_driver_perturbation_slope(self):
        g = build_grid(1.0, 32)
        K = discretize_kernel(ExponentialDecay(c=1.0, rho=1.0), g)
        prob = FredholmProblem(K=K, L=K, lam_eff=2.0)
        M = 256
        bundle = draw_noise(g, {"common", "pert"}, M, 6)
        base = martingale(g, sigma=1.0, noise="common")
        ns = [4, 8, 16, 32, 64]
        gaps = []
        for N in ns:
            pert = base + (1.0 / np.sqrt(N)) * martingale(g, sigma=1.0, noise="pert")
            gaps.append(stability_gap(prob, prob, bundle, pert, base))
        slope = np.polyfit(np.log(ns), np.log(gaps), 1)[0]
        assert -1.4 <= slope <= -0.6


class TestSingularDt:
    def test_singular_conditional_operator_detected(self):
        # lam id + dt (K + K^T) is exactly singular for this inadmissible kernel
        g = build_grid(1.0, 2)
        V = np.zeros((2, 2))
        V[1, 0] = 2.0
        K = GridKernel(g, V)
        with pytest.raises(SingularOperator):
            build_Dt(K, K, 1.0)

    def test_error_names_the_singular_block(self):
        # det D_0 = -0.25 but D_1 = [[1, 1], [1, 1]] is exactly singular
        g = build_grid(1.0, 3)
        V = np.zeros((3, 3))
        V[2, 1] = 3.0
        V[2, 0] = 1.5
        K = GridKernel(g, V)
        with pytest.raises(SingularOperator, match="D_1 is"):
            build_Dt(K, K, 1.0)

    def test_error_names_the_singular_block_past_the_leaf(self):
        # scale column 37 of K so that the Schur pivot of D_37,
        # lam - s^2 b^T D_38^{-1} b with b = dt K[38:, 37], vanishes
        n, j, lam = 100, 37, 1.0
        g = build_grid(1.0, n)
        K0 = discretize_kernel(ExponentialDecay(c=0.8, rho=1.1), g)
        assert n - 1 - j >= LU_LEAF          # the pivot is reached through a Schur update
        assert factor(K0, lam).min_pivot() > 0.5
        V = K0.values.copy()
        D_next = lam * np.eye(n - j - 1) + g.dt * (V + V.T)[j + 1:, j + 1:]
        b = g.dt * V[j + 1:, j]
        V[:, j] *= np.sqrt(lam / (b @ np.linalg.solve(D_next, b)))
        K = GridKernel(g, V)
        with pytest.raises(SingularOperator, match=f"D_{j} is"):
            build_Dt(K, K, lam)


def two_sided(core):
    """(pivots, Ui, Li) of core by the general recursion, which also inverts U^T,
    assembled as build_Dt assembles them."""
    n = core.shape[0]
    A = np.array(core[::-1, ::-1])
    L_inv, Rt_inv = np.zeros((n, n)), np.zeros((n, n))
    _lu_inplace(A, L_inv, Rt_inv, 1e-10 * max(1.0, np.max(np.abs(core))), n)
    return np.diagonal(A)[::-1], L_inv[::-1, ::-1], Rt_inv.T[::-1, ::-1]


class TestSymmetricFactorization:
    """A symmetric D is factored from one side: Lw = diag(pivots) U^T, Li = Ui^T / pivots."""

    @pytest.mark.parametrize("n", [2, LU_LEAF, LU_LEAF + 1, 100, 300])
    def test_one_sided_matches_two_sided(self, n):
        for name, (solver, K, L, lam) in block_cores(n).items():
            if name == "nonsymmetric":
                continue
            core, pivots, Ui, Li = build_Dt(K, L, lam)
            for got, want in zip((pivots, Ui, Li), two_sided(core)):
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_equal_kernels_take_the_one_sided_path(self):
        # L a distinct kernel with K's values: the formed core is exactly symmetric
        g = build_grid(1.0, 100)
        K = discretize_kernel(ExponentialDecay(c=0.8, rho=1.1), g)
        twin = GridKernel(g, K.values.copy())
        for a, b in zip(build_Dt(K, K, 2.0), build_Dt(K, twin, 2.0)):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("one_sided", [True, False])
    def test_singular_block_past_the_leaf_is_named_on_both_paths(self, one_sided):
        # the construction of test_error_names_the_singular_block_past_the_leaf
        n, j, lam = 100, 37, 1.0
        g = build_grid(1.0, n)
        V = discretize_kernel(ExponentialDecay(c=0.8, rho=1.1), g).values.copy()
        D_next = lam * np.eye(n - j - 1) + g.dt * (V + V.T)[j + 1:, j + 1:]
        b = g.dt * V[j + 1:, j]
        V[:, j] *= np.sqrt(lam / (b @ np.linalg.solve(D_next, b)))
        core = lam * np.eye(n) + g.dt * (V + V.T)
        A = np.array(core[::-1, ::-1])
        with pytest.raises(SingularOperator, match=f"D_{j} is"):
            _lu_inplace(A, np.zeros((n, n)), None if one_sided else np.zeros((n, n)),
                        1e-10 * max(1.0, np.max(np.abs(core))), n)


class TestGridRefinementOfSolution:
    def test_first_order_convergence_on_shared_points(self):
        # smooth kernel and driver: restricting the fine-grid solution to the
        # coarse points shows O(dt) decay under halving
        errs = {}
        fine = build_grid(1.0, 256)
        Kf = discretize_kernel(ExponentialDecay(c=0.8, rho=1.3), fine)
        f_fine = np.cos(2 * fine.times)
        ref = solve(FredholmProblem(K=Kf, L=Kf, lam_eff=2.0),
                    det_signal(fine, f_fine)).mean
        for n in (32, 64):
            g = build_grid(1.0, n)
            K = discretize_kernel(ExponentialDecay(c=0.8, rho=1.3), g)
            v = solve(FredholmProblem(K=K, L=K, lam_eff=2.0),
                      det_signal(g, np.cos(2 * g.times))).mean
            errs[n] = np.max(np.abs(v - ref[::256 // n]))
        assert 1.5 <= errs[32] / errs[64] <= 2.5


class TestCoefficientDegenerateForms:
    def test_zero_kernels_give_zero_B(self):
        # B = 0 and w = 0: the solution is a = f / lam_eff, exactly
        g = build_grid(1.0, 8)
        Z = zero_kernel(g)
        rng = np.random.default_rng(8)
        f = CompiledSignal(g, rng.standard_normal(8), {"common": rng.standard_normal((8, 8))})
        sol = FredholmSolver(FredholmProblem(K=Z, L=Z, lam_eff=2.0)).solve(f)
        assert np.all(sol.mean == f.mean / 2.0)
        assert np.all(sol.weights["common"] == np.tril(f.weights["common"], -1) / 2.0)

    def test_backward_free_B_is_minus_forward_kernel(self):
        # L = 0 kills the inner product: B[k][j] = -K[k][j] / lam_eff, so the
        # recursion v = f / lam_eff + dt B v is (lam_eff id + dt K) v = f
        g = build_grid(1.0, 8)
        K = discretize_kernel(ExponentialDecay(c=0.9, rho=1.4), g)
        f = 1.0 + g.times
        direct = np.linalg.solve(2.0 * np.eye(8) + g.dt * K.values, f)
        sol = solve(loose_problem(K, zero_kernel(g), 2.0), det_signal(g, f))
        assert np.max(np.abs(sol.mean - direct)) <= 1e-15

    def test_zero_driver_gives_zero_a(self):
        g = build_grid(1.0, 8)
        K = discretize_kernel(ExponentialDecay(c=0.9, rho=1.4), g)
        solver = FredholmSolver(FredholmProblem(K=K, L=K, lam_eff=2.0))
        assert np.all(solver.solve(det_signal(g, np.zeros(8))).mean == 0.0)


class TestEdgeGrids:
    def test_minimal_two_point_grid_end_to_end(self):
        g = build_grid(1.0, 2)
        K = discretize_kernel(ConstantLower(c=0.5), g)
        # by hand: v0 solves v0 = 1 - dt*K10*m00... with n=2 the system is tiny
        assert residual_sup(FredholmProblem(K=K, L=K, lam_eff=1.0),
                            det_signal(g, np.ones(2))) <= 1e-14

    def test_power_law_near_admissibility_boundary(self):
        g = build_grid(1.0, 64)
        K = discretize_kernel(PowerLaw(c=0.5, alpha=0.49), g)
        bundle = draw_noise(g, {"common"}, 1, 0)
        assert residual_sup(FredholmProblem(K=K, L=K, lam_eff=2.0), martingale(g, sigma=1.0),
                            bundle) <= 1e-9


class TestTriangularSolve:
    """The solve forms only the strictly lower half of its two triangular products."""

    @staticmethod
    def problems(n):
        rng = np.random.default_rng(n)
        g = build_grid(1.0, n)
        K = discretize_kernel(ExponentialDecay(c=0.8, rho=1.1), g)
        Lp = discretize_kernel(PowerLaw(c=0.5, alpha=0.3), g)
        f = CompiledSignal(g, rng.standard_normal(n), {"a": rng.standard_normal((n, n)),
                                                        "b": rng.standard_normal((n, n))})
        return f, (FredholmSolver(FredholmProblem(K=K, L=K, lam_eff=2.0)),
                   FredholmSolver(loose_problem(K, Lp, 2.0)))

    @pytest.mark.parametrize("n", [48, 130])
    def test_weights_are_exactly_zero_on_and_above_the_diagonal(self, n):
        f, solvers = self.problems(n)
        for solver in solvers:
            v = solver.solve(f)
            for w in (*v.weights.values(), *solver.residual(f, v).weights.values()):
                assert not np.any(np.triu(w))

    @pytest.mark.parametrize("n", [TRI_BLOCK, 200])
    def test_matches_the_two_full_products(self, n):
        # the expression the solve replaced, Li @ tril(Ui @ w, -1): the same GEMMs
        # up to one column block, rounding apart past it
        f, solvers = self.problems(n)
        for solver in solvers:
            Ui, Li = solver._Ui, solver._Li
            v = solver.solve(f)
            for tag, w in f.weights.items():
                ref = Li @ np.tril(Ui @ w, -1)
                if n <= TRI_BLOCK:
                    assert np.array_equal(v.weights[tag], ref)
                else:
                    err = np.max(np.abs(v.weights[tag] - ref))
                    assert err <= 1e-13 * np.max(np.abs(ref))


class TestCond1Estimate:
    @pytest.mark.parametrize("n", [12, 100, 300])
    def test_estimate_is_a_close_lower_bound(self, n):
        for solver, *_ in block_cores(n).values():
            exact = cond1(solver)
            assert 0.9 * exact <= solver.cond1_est() <= exact * (1.0 + 1e-12)

    def test_block_estimate_on_the_systemic_player_operator(self):
        # Hager's single-vector iteration stopped at 0.81 x exact on this operator
        cfg = json.loads((Path(__file__).parent.parent / "run_configs" / "systemic_n16.json")
                         .read_text())
        spec = build_game_from_config(cfg, build_grid(cfg["grid"]["T"], 64))
        solver = build_operators(spec).player_solver
        exact = cond1(solver)
        est = solver.cond1_est()
        assert 0.95 * exact <= est <= exact * (1.0 + 1e-12)
        assert solver.cond1_est() == est

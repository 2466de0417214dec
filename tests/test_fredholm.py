import json
from pathlib import Path

import numpy as np
import pytest

from volterra_games import fredholm
from volterra_games.errors import InadmissibleKernel, SingularOperator
from volterra_games.fredholm import (
    LU_LEAF,
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
    lower_product,
    triangle_bands,
    triangular_inverse,
    zero_kernel,
)
from volterra_games.cli import build_game_from_config
from volterra_games.nplayer import build_operators, conditional_surfaces
from volterra_games.signals import CompiledSignal, draw_noise, martingale, ou

from conftest import cond1, condition_number, dense_factors, mask_from


def det_signal(grid, values):
    return CompiledSignal(grid, np.asarray(values, dtype=float), {})


def solve(K, lam, f):
    return FredholmSolver(K, lam).solve(f)


def residual_sup(K, lam, f, bundle=None):
    """Sup of the Fredholm residual at the solution over the bundle's paths."""
    solver = FredholmSolver(K, lam)
    res = solver.residual(f, solver.solve(f))
    if bundle is None:
        return float(np.max(np.abs(res.path_values({}, 1))))
    return float(np.max(np.abs(res.path_values(bundle.increments, bundle.n_paths))))


def block_cores(n):
    """An SPD core and an indefinite core on n points: name -> (FredholmSolver, K, lam)."""
    rng = np.random.default_rng(4)
    g = build_grid(1.0, n)
    K = discretize_kernel(ExponentialDecay(c=0.8, rho=1.1), g)
    V = np.tril(rng.standard_normal((n, n)), -1)
    V[n - 1, 0] = 5.0 * n                  # only D_0 sees index 0: it turns indefinite
    Ks = GridKernel(g, V)
    return {
        "spd": (FredholmSolver(K, 2.0), K, 2.0),
        "indefinite": (FredholmSolver(Ks, 1.0), Ks, 1.0),
    }


def check_block_definition(n):
    """Li_k @ Ui_k inverts the trailing block of lam id + dt(mask_from(K,k) +
    mask_from(K,k)^T) for every k, on an SPD and an indefinite core; pivots,
    min_pivot and cond1 agree.
    """
    rng = np.random.default_rng(4)
    rng.standard_normal((n, n))            # the draw block_cores takes
    g = build_grid(1.0, n)
    for name, (solver, Kc, lam) in block_cores(n).items():
        Ui, Li = dense_factors(solver)
        core = lam * np.eye(n) + g.dt * (Kc.values + Kc.values.T)
        assert (np.linalg.eigvalsh(core).min() < 0) == (name == "indefinite")
        for k in range(n):
            D = lam * np.eye(n) + g.dt * (mask_from(Kc, k).values
                                          + mask_from(Kc, k).values.T)
            y = rng.standard_normal(n)
            inv_k = Li[k:, k:] @ Ui[k:, k:]
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
    def test_nonpositive_scale(self):
        g = build_grid(1.0, 8)
        Z = zero_kernel(g)
        for lam in (0.0, -1.0, float("nan")):
            with pytest.raises(InadmissibleKernel):
                FredholmSolver(Z, lam)


class TestDtFamily:
    def test_zero_kernels_divide_by_scale(self):
        g = build_grid(1.0, 8)
        Z = zero_kernel(g)
        Ui, Li = dense_factors(FredholmSolver(Z, 2.0))
        for k in (0, 3, 7):
            assert np.allclose(Li[k:, k:] @ Ui[k:, k:], np.eye(8 - k) / 2.0)

    def test_last_index_masks_to_single_cell(self):
        g = build_grid(1.0, 8)
        K = discretize_kernel(ExponentialDecay(), g)
        Ui, Li = dense_factors(FredholmSolver(K, 1.0))
        out = Li[7:, 7:] @ (Ui[7:, 7:] @ np.array([3.0]))
        # surviving block is the single masked cell: (1 + dt*(K+K^T)[7,7]) x = y
        assert abs(out[0] - 3.0) < 1e-14

    def test_masked_condition_numbers_stay_bounded(self):
        # masking removes nonnegative contributions: cond(D_k) ~ cond(D_0) + O(1)
        rng = np.random.default_rng(0)
        g = build_grid(1.0, 32)
        for _ in range(5):
            K = discretize_kernel(ExponentialDecay(c=rng.uniform(0.2, 2.0),
                                                   rho=rng.uniform(0.2, 3.0)), g)
            solver = FredholmSolver(K, 2.0)
            conds = [condition_number(solver, k) for k in range(32)]
            assert max(conds) <= condition_number(solver, 0) + 1.0

    def test_block_matches_masked_operator_definition(self):
        check_block_definition(12)

    @pytest.mark.parametrize("n", [2, LU_LEAF, LU_LEAF + 1])
    def test_block_definition_at_the_leaf(self, n):
        # the unblocked leaf alone, and one split into a leaf and a single pivot
        check_block_definition(n)

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
        solver = FredholmSolver(K, 2.0)
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
    def naive_solution(K, lam, f_vals, f_surf):
        g = K.grid
        n, dt = g.n, g.dt
        v = np.zeros(n)
        for k in range(n):
            D = lam * np.eye(n) + dt * (mask_from(K, k).values + mask_from(K, k).values.T)
            rhs = np.zeros(n)
            rhs[k:] = f_surf[k, k:] - dt * (K.values[k:, :k] @ v[:k])
            x = np.linalg.solve(D, rhs)
            v[k] = x[k]
        return v

    def test_matches_naive_on_constant_kernels(self):
        g = build_grid(1.0, 8)
        K = discretize_kernel(ConstantLower(c=0.8), g)
        vals = 1.0 + g.times
        sol = solve(K, 1.0, det_signal(g, vals))
        naive = self.naive_solution(K, 1.0, vals, np.tile(vals, (g.n, 1)))
        assert np.max(np.abs(sol.mean - naive)) <= 1e-12

    def test_matches_naive_on_random_driver(self):
        g = build_grid(1.0, 8)
        K = discretize_kernel(ExponentialDecay(c=1.1, rho=0.5), g)
        bundle = draw_noise(g, {"common"}, 1, 2)
        f = ou(g, kappa=1.0, sigma=0.7, x0=0.2)
        values, surface = f.values_and_surface(bundle.path(0))
        sol = solve(K, 2.0, f)
        naive = self.naive_solution(K, 2.0, values, surface)
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
        v = a + dt B v with w, B and a built per k; the driver's weights are
        anticipative, so only their adapted projections may enter."""
        rng = np.random.default_rng(6)
        g = build_grid(1.0, n)
        n, dt, lam = g.n, g.dt, 2.0
        K = discretize_kernel(ExponentialDecay(c=0.8, rho=1.1), g)
        f = CompiledSignal(g, rng.standard_normal(n), {"common": rng.standard_normal((n, n))})
        dW = {"common": rng.standard_normal(n)}
        f_vals, f_surf = f.values_and_surface(dW)
        solver = FredholmSolver(K, lam)
        core = lam * np.eye(n) + dt * (K.values + K.values.T)
        w = np.zeros((n, n))
        B = np.zeros((n, n))
        a = np.empty(n)
        for k in range(n):
            w[k, k:] = np.linalg.solve(core[k:, k:].T, K.values[k:, k])
            B[k, :k] = (dt * (w[k, k:] @ K.values[k:, :k]) - K.values[k, :k]) / lam
            a[k] = (f_vals[k] - dt * (w[k, k:] @ f_surf[k, k:])) / lam
        v = self.naive_solution(K, lam, f_vals, f_surf)
        S = np.empty((n, n))
        for k in range(n):
            rhs = f_surf[k, k:] - dt * (K.values[k:, :k] @ v[:k])
            S[k, k:] = np.linalg.solve(core[k:, k:], rhs)
            S[k, :k + 1] = v[:k + 1]
        sol = solver.solve(f)
        sol_vals, sol_surf = sol.values_and_surface(dW)
        residual = solver.residual(f, sol).path_values({"common": dW["common"][None, :]}, 1)
        assert np.max(np.abs(sol_vals - (a + dt * B @ sol_vals))) <= 1e-13
        assert np.max(np.abs(sol_vals - v)) <= 1e-13
        assert np.max(np.abs(sol_surf - S)) <= 1e-13
        return float(np.max(np.abs(residual))), max(1.0, float(np.max(np.abs(f_vals))))

    def test_assemble_B_matches_naive(self):
        # the paper's a and B, one full-space masked solve per entry: the
        # solution satisfies its forward recursion v = a + dt B v
        g = build_grid(1.0, 8)
        K = discretize_kernel(ConstantLower(c=0.8), g)
        f = 1.0 + np.sin(3.0 * g.times)
        v = solve(K, 1.0, det_signal(g, f)).mean
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
        sol = solve(Z, 2.0, f)
        assert np.max(np.abs(sol.mean - f.mean / 2.0)) < 1e-15
        assert residual_sup(Z, 2.0, f) == 0.0
        # above the diagonal the surface is the conditional driver / lam_eff
        iu = np.triu_indices(16, k=1)
        f_surf = f.values_and_surface({})[1]
        assert np.max(np.abs(sol.values_and_surface({})[1][iu] - f_surf[iu] / 2.0)) < 1e-15

    def test_symmetric_constant_fixed_point(self):
        errs = {}
        for n in (128, 256):
            g = build_grid(1.0, n)
            K = discretize_kernel(ConstantLower(c=1.0), g)
            sol = solve(K, 1.0, det_signal(g, np.ones(n)))
            errs[n] = np.max(np.abs(sol.mean - 0.5))
        assert errs[256] <= 5e-2
        assert 1.5 <= errs[128] / errs[256] <= 2.5

    def test_zero_driver(self):
        g = build_grid(1.0, 16)
        K = discretize_kernel(ExponentialDecay(), g)
        sol = solve(K, 1.0, det_signal(g, np.zeros(16)))
        assert np.all(sol.mean == 0.0)


class TestExactness:
    def test_small_rational_case(self):
        g = build_grid(1.0, 4)
        K = discretize_kernel(ConstantLower(c=1.0), g)
        assert residual_sup(K, 1.0,
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
            assert residual_sup(K, 2.0, f, bundle) <= 1e-9

    def test_conditional_solution_diag_and_adapted_rows(self):
        g = build_grid(1.0, 16)
        K = discretize_kernel(ExponentialDecay(c=0.9, rho=1.2), g)
        bundle = draw_noise(g, {"common"}, 1, 1)
        sol = solve(K, 2.0, martingale(g, sigma=1.0))
        vals, surface = sol.values_and_surface(bundle.path(0))
        assert np.max(np.abs(vals - sol.path_values(bundle.increments, 1)[0])) < 1e-14
        assert np.array_equal(np.diagonal(surface), vals)
        for k in range(16):
            assert np.array_equal(surface[k, :k], vals[:k])

    def test_deterministic_driver_surface_rows_equal_solution(self):
        g = build_grid(1.0, 16)
        K = discretize_kernel(ExponentialDecay(c=0.9, rho=1.2), g)
        sol = solve(K, 2.0, det_signal(g, 1.0 + g.times))
        assert np.max(np.abs(sol.values_and_surface({})[1] - sol.mean[None, :])) < 1e-12

    def test_linearity_in_driver(self):
        g = build_grid(1.0, 32)
        K = discretize_kernel(ExponentialDecay(c=0.7, rho=2.0), g)
        solver = FredholmSolver(K, 2.0)
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
        a = solve(K, 2.0, f)
        b = solve(K, 2.0, f)
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.values_and_surface({})[1], b.values_and_surface({})[1])


    def test_each_distinct_weight_array_is_solved_once(self, monkeypatch):
        # five tags over two arrays: two products per distinct array, and the
        # tags that held one array share one solution, equal to the unshared solve
        g = build_grid(1.0, 80)        # past one row band: the blocked products
        K = discretize_kernel(ExponentialDecay(c=0.7, rho=2.0), g)
        solver = FredholmSolver(K, 2.0)
        rng = np.random.default_rng(6)
        X, Y = rng.standard_normal((2, 80, 80))
        f = CompiledSignal(g, rng.standard_normal(80), {"a": X, "b": X, "c": Y, "d": X, "e": Y})
        products = []

        def counted(A, W, triangle=None):
            products.append(triangle)
            return lower_product(A, W, triangle)

        monkeypatch.setattr(fredholm, "lower_product", counted)
        sol = solver.solve(f)
        assert sorted(products) == ["lower", "lower", "upper", "upper"]
        assert sol.weights["a"] is sol.weights["b"] is sol.weights["d"]
        assert sol.weights["c"] is sol.weights["e"]
        monkeypatch.undo()
        ref = solver.solve(CompiledSignal(g, f.mean, {t: w.copy() for t, w in f.weights.items()}))
        for tag in f.weights:
            assert np.array_equal(sol.weights[tag], ref.weights[tag])
        # the residual's difference arrays are new: the cut in place leaves f and sol intact
        kept = [w.copy() for w in (X, Y, sol.weights["a"], sol.weights["c"])]
        res = solver.residual(f, sol)
        assert res.weights["a"] is res.weights["b"]
        for w, k in zip((X, Y, sol.weights["a"], sol.weights["c"]), kept):
            assert np.array_equal(w, k)


class TestStability:
    def test_identical_problems_zero_gap(self):
        g = build_grid(1.0, 32)
        K = discretize_kernel(ExponentialDecay(), g)
        solver = FredholmSolver(K, 2.0)
        bundle = draw_noise(g, {"common"}, 8, 0)
        assert stability_gap(solver, solver, bundle, martingale(g, sigma=1.0)) <= 1e-20

    def test_kernel_perturbation_slope(self):
        g = build_grid(1.0, 32)
        K = discretize_kernel(ExponentialDecay(c=1.0, rho=1.0), g)
        bundle = draw_noise(g, {"common"}, 16, 5)
        solver = FredholmSolver(K, 2.0)
        ns = [4, 8, 16, 32, 64]
        gaps = []
        for N in ns:
            pert = discretize_kernel(ConstantLower(c=1.0, scale=1.0 / N), g)
            KN = discretize_kernel(ExponentialDecay(c=1.0, rho=1.0), g)
            from volterra_games.grid_ops import add_kernels
            KN = add_kernels((1.0, KN), (1.0, pert))
            gaps.append(stability_gap(FredholmSolver(KN, 2.0), solver, bundle,
                                      martingale(g, sigma=1.0)))
        slope = np.polyfit(np.log(ns), np.log(gaps), 1)[0]
        assert -2.4 <= slope <= -1.6

    def test_driver_perturbation_slope(self):
        g = build_grid(1.0, 32)
        K = discretize_kernel(ExponentialDecay(c=1.0, rho=1.0), g)
        solver = FredholmSolver(K, 2.0)
        M = 256
        bundle = draw_noise(g, {"common", "pert"}, M, 6)
        base = martingale(g, sigma=1.0, noise="common")
        ns = [4, 8, 16, 32, 64]
        gaps = []
        for N in ns:
            pert = base + (1.0 / np.sqrt(N)) * martingale(g, sigma=1.0, noise="pert")
            gaps.append(stability_gap(solver, solver, bundle, pert, base))
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
            build_Dt(K, 1.0)

    def test_error_names_the_singular_block(self):
        # det D_0 = -0.25 but D_1 = [[1, 1], [1, 1]] is exactly singular
        g = build_grid(1.0, 3)
        V = np.zeros((3, 3))
        V[2, 1] = 3.0
        V[2, 0] = 1.5
        K = GridKernel(g, V)
        with pytest.raises(SingularOperator, match="D_1 is"):
            build_Dt(K, 1.0)

    def test_error_names_the_singular_block_past_the_leaf(self):
        # scale column 37 of K so that the Schur pivot of D_37,
        # lam - s^2 b^T D_38^{-1} b with b = dt K[38:, 37], vanishes
        n, j, lam = 100, 37, 1.0
        g = build_grid(1.0, n)
        K0 = discretize_kernel(ExponentialDecay(c=0.8, rho=1.1), g)
        assert n - 1 - j >= LU_LEAF          # the pivot is reached through a Schur update
        assert FredholmSolver(K0, lam).min_pivot() > 0.5
        V = K0.values.copy()
        D_next = lam * np.eye(n - j - 1) + g.dt * (V + V.T)[j + 1:, j + 1:]
        b = g.dt * V[j + 1:, j]
        V[:, j] *= np.sqrt(lam / (b @ np.linalg.solve(D_next, b)))
        K = GridKernel(g, V)
        with pytest.raises(SingularOperator, match=f"D_{j} is"):
            build_Dt(K, lam)


def general_lu(A, L_inv, Ut_inv, tol, end):
    """Non-pivoted LU of any A in place, the recursion of _lu_inplace without
    its symmetric shortcut: it fills L_inv = L^{-1} and Ut_inv = (U^T)^{-1},
    inverting U as well, and derives no block of L from U."""
    n = A.shape[0]
    if n <= LU_LEAF:
        for j in range(n):
            if not abs(A[j, j]) > tol:
                raise SingularOperator(f"conditional operator D_{end - 1 - j} is numerically singular")
            A[j + 1:, j] /= A[j, j]
            A[j + 1:, j + 1:] -= A[j + 1:, j, None] * A[j, None, j + 1:]
        L_inv[...] = triangular_inverse(A, unit=True)
        Ut_inv[...] = triangular_inverse(A.T)
        return
    h = n // 2
    head, tail = Ut_inv[:h, :h], Ut_inv[h:, h:]
    general_lu(A[:h, :h], L_inv[:h, :h], head, tol, end)
    A[:h, h:] = L_inv[:h, :h] @ A[:h, h:]
    A[h:, :h] = A[h:, :h] @ head.T
    A[h:, h:] -= A[h:, :h] @ A[:h, h:]
    general_lu(A[h:, h:], L_inv[h:, h:], tail, tol, end - h)
    L_inv[h:, :h] = -L_inv[h:, h:] @ (A[h:, :h] @ L_inv[:h, :h])
    Ut_inv[h:, :h] = -tail @ (A[:h, h:].T @ head)


def two_sided(core):
    """(pivots, Ui, Li) of core by the general recursion, which also inverts U^T,
    assembled as build_Dt assembles them."""
    n = core.shape[0]
    A = np.array(core[::-1, ::-1])
    L_inv, Rt_inv = np.zeros((n, n)), np.zeros((n, n))
    general_lu(A, L_inv, Rt_inv, 1e-10 * max(1.0, np.max(np.abs(core))), n)
    return np.diagonal(A)[::-1], L_inv[::-1, ::-1], Rt_inv.T[::-1, ::-1]


class TestSymmetricFactorization:
    """A symmetric D is factored from one side: Lw = diag(pivots) U^T, Li = Ui^T / pivots."""

    @pytest.mark.parametrize("n", [2, LU_LEAF, LU_LEAF + 1, 100, 300])
    def test_one_sided_matches_two_sided(self, n):
        for _, K, lam in block_cores(n).values():
            core, pivots, Ui, Li = build_Dt(K, lam)
            for got, want in zip((pivots, Ui, Li), two_sided(core)):
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

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
        tol = 1e-10 * max(1.0, np.max(np.abs(core)))
        with pytest.raises(SingularOperator, match=f"D_{j} is"):
            if one_sided:
                _lu_inplace(A, np.zeros((n, n)), tol, n)
            else:
                general_lu(A, np.zeros((n, n)), np.zeros((n, n)), tol, n)


class TestGridRefinementOfSolution:
    def test_first_order_convergence_on_shared_points(self):
        # smooth kernel and driver: restricting the fine-grid solution to the
        # coarse points shows O(dt) decay under halving
        errs = {}
        fine = build_grid(1.0, 256)
        Kf = discretize_kernel(ExponentialDecay(c=0.8, rho=1.3), fine)
        f_fine = np.cos(2 * fine.times)
        ref = solve(Kf, 2.0,
                    det_signal(fine, f_fine)).mean
        for n in (32, 64):
            g = build_grid(1.0, n)
            K = discretize_kernel(ExponentialDecay(c=0.8, rho=1.3), g)
            v = solve(K, 2.0,
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
        sol = FredholmSolver(Z, 2.0).solve(f)
        assert np.all(sol.mean == f.mean / 2.0)
        assert np.all(sol.weights["common"] == np.tril(f.weights["common"], -1) / 2.0)

    def test_zero_driver_gives_zero_a(self):
        g = build_grid(1.0, 8)
        K = discretize_kernel(ExponentialDecay(c=0.9, rho=1.4), g)
        solver = FredholmSolver(K, 2.0)
        assert np.all(solver.solve(det_signal(g, np.zeros(8))).mean == 0.0)


class TestEdgeGrids:
    def test_minimal_two_point_grid_end_to_end(self):
        g = build_grid(1.0, 2)
        K = discretize_kernel(ConstantLower(c=0.5), g)
        # by hand: v0 solves v0 = 1 - dt*K10*m00... with n=2 the system is tiny
        assert residual_sup(K, 1.0,
                            det_signal(g, np.ones(2))) <= 1e-14

    def test_power_law_near_admissibility_boundary(self):
        g = build_grid(1.0, 64)
        K = discretize_kernel(PowerLaw(c=0.5, alpha=0.49), g)
        bundle = draw_noise(g, {"common"}, 1, 0)
        assert residual_sup(K, 2.0, martingale(g, sigma=1.0),
                            bundle) <= 1e-9


class TestTriangularSolve:
    """The solve forms only the strictly lower half of its two triangular products."""

    @staticmethod
    def problems(n):
        rng = np.random.default_rng(n)
        g = build_grid(1.0, n)
        K = discretize_kernel(ExponentialDecay(c=0.8, rho=1.1), g)
        f = CompiledSignal(g, rng.standard_normal(n), {"a": rng.standard_normal((n, n)),
                                                        "b": rng.standard_normal((n, n))})
        return f, FredholmSolver(K, 2.0)

    @pytest.mark.parametrize("n", [48, 130])
    def test_weights_are_exactly_zero_on_and_above_the_diagonal(self, n):
        f, solver = self.problems(n)
        v = solver.solve(f)
        for w in (*v.weights.values(), *solver.residual(f, v).weights.values()):
            assert not np.any(np.triu(w))

    @pytest.mark.parametrize("n", [TRI_BLOCK, 200])
    def test_matches_the_two_full_products(self, n):
        # the expression the solve replaced, Li @ tril(Ui @ w, -1): the same GEMMs
        # up to one column block, rounding apart past it
        f, solver = self.problems(n)
        Ui, Li = dense_factors(solver)
        v = solver.solve(f)
        for tag, w in f.weights.items():
            ref = Li @ np.tril(Ui @ w, -1)
            if n <= TRI_BLOCK:
                assert np.array_equal(v.weights[tag], ref)
            else:
                err = np.max(np.abs(v.weights[tag] - ref))
                assert err <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [2, 33, 64, 65, 130, 300, 513])
    def test_stored_bands_give_the_dense_factor_products(self, n):
        # the bands the solver builds once, against bands cut from build_Dt's dense
        # factors for this product: the same GEMMs, bit for bit, on the SPD core and
        # on the indefinite one (negative pivots)
        rng = np.random.default_rng(n)
        for solver, K, lam in block_cores(n).values():
            _, _, Ui, Li = build_Dt(K, lam)
            f = CompiledSignal(solver.grid, rng.standard_normal(n),
                               {"a": rng.standard_normal((n, n))})
            v = solver.solve(f)
            ref = lower_product(triangle_bands(Li, "lower"),
                                lower_product(triangle_bands(Ui, "upper"), f.weights["a"],
                                              "upper"), "lower")
            assert v.weights["a"].tobytes() == ref.tobytes()
            # the mean's products run band by band: rounding apart from the dense ones
            scale = np.abs(Li) @ (np.abs(Ui) @ np.abs(f.mean))
            assert np.max(np.abs(v.mean - Li @ (Ui @ f.mean)) / scale) <= 1e-13


class TestFactorMemory:
    @pytest.mark.parametrize("n", [2, 65, 300, 513])
    def test_factors_take_n_squared_doubles(self, n):
        # the inverse factors as row bands: n^2 + TRI_BLOCK n doubles, pivots
        # included, at most (n^2 + 2 TRI_BLOCK n) besides core; nothing holds K
        solver = FredholmSolver(discretize_kernel(ExponentialDecay(), build_grid(1.0, n)), 2.0)
        owners = {}
        for name, value in vars(solver).items():
            for a in value if isinstance(value, list) else [value]:
                if isinstance(a, np.ndarray) and name != "core":
                    owner = a if a.base is None else a.base
                    owners[id(owner)] = owner.nbytes
        assert sum(owners.values()) <= (n * n + 2 * TRI_BLOCK * n) * 8
        assert solver.core.nbytes == n * n * 8
        assert not hasattr(solver, "K")


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

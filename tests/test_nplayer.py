import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from volterra_games import nplayer
from volterra_games.cli import build_game_from_config
from volterra_games.errors import ConsistencyViolation, InadmissibleKernel, ShapeError
from volterra_games.grid_ops import (
    TRI_BLOCK,
    ConstantLower,
    ExponentialDecay,
    GridKernel,
    add_kernels,
    build_grid,
    discretize_kernel,
    symmetrized_form,
    zero_kernel,
)
from volterra_games.nplayer import (
    GameSpec,
    build_GH,
    build_operators,
    concavity_check,
    conditional_surfaces,
    foc_residual,
    mean_driver,
    objective,
    objective_per_path,
    player_base,
    scale_game,
    shifted_drive,
    solve_nash,
)
from volterra_games.signals import (CompiledSignal, brownian_weighted, deterministic,
                                   draw_noise, martingale)
from volterra_games.validation import validation_report

from conftest import cond1


def make_spec(grid, N=3, lam=1.0, zero=False, symmetric=False, seediness=0):
    Z = zero_kernel(grid)
    if zero:
        a1 = a2 = a3 = Z
    else:
        a1 = discretize_kernel(ExponentialDecay(c=0.4, rho=1.0), grid)
        a2 = discretize_kernel(ExponentialDecay(c=0.8, rho=2.0), grid)
        a3 = discretize_kernel(ConstantLower(c=0.3), grid)
    if symmetric:
        b = tuple(deterministic(grid, 1.0) + martingale(grid, sigma=0.5, noise="common")
                  for _ in range(N))
    else:
        b = tuple(deterministic(grid, 1.0 + 0.2 * i)
                  + martingale(grid, sigma=0.5, noise=f"idio{i}")
                  + martingale(grid, sigma=0.3, noise="common") for i in range(N))
    b0 = deterministic(grid, 0.5)
    return GameSpec(n_players=N, lam=lam, a1=a1, a2hat=a2, a3=a3,
                    b_signals=b, b0_signal=b0, grid=grid)


def bundle_for(spec, n_paths, seed):
    tags = set()
    for cs in (*spec.b_signals, spec.b0_signal):
        tags |= cs.noise_tags()
    return draw_noise(spec.grid, tags or {"common"}, n_paths, seed)


class TestSpecValidation:
    def test_lambda_positive(self, grid16):
        Z = zero_kernel(grid16)
        with pytest.raises(InadmissibleKernel):
            GameSpec(n_players=1, lam=0.0, a1=Z, a2hat=Z, a3=Z,
                     b_signals=(deterministic(grid16, 1.0),),
                     b0_signal=deterministic(grid16, 0.0), grid=grid16)

    def test_strict_mode_rejects_indefinite_kernel(self, grid16):
        Z = zero_kernel(grid16)
        bad = GridKernel(grid16, -discretize_kernel(ConstantLower(c=1.0), grid16).values)
        with pytest.raises(InadmissibleKernel):
            GameSpec(n_players=1, lam=1.0, a1=Z, a2hat=bad, a3=Z,
                     b_signals=(deterministic(grid16, 1.0),),
                     b0_signal=deterministic(grid16, 0.0), grid=grid16)

    def test_concave_mode_accepts_signed_a3(self, grid16):
        Z = zero_kernel(grid16)
        neg = GridKernel(grid16, -0.1 * discretize_kernel(ConstantLower(c=1.0), grid16).values)
        spec = GameSpec(n_players=2, lam=1.0, a1=Z, a2hat=Z, a3=neg,
                        b_signals=(deterministic(grid16, 1.0),) * 2,
                        b0_signal=deterministic(grid16, 0.0), grid=grid16,
                        kernel_check="concave")
        assert spec.n_players == 2

    def test_player_count_matches_signals(self, grid16):
        Z = zero_kernel(grid16)
        with pytest.raises(ShapeError):
            GameSpec(n_players=2, lam=1.0, a1=Z, a2hat=Z, a3=Z,
                     b_signals=(deterministic(grid16, 1.0),),
                     b0_signal=deterministic(grid16, 0.0), grid=grid16)


class TestOperators:
    def test_build_GH_zero_cases(self, grid16):
        spec = make_spec(grid16, N=2)
        Z = zero_kernel(grid16)
        spec0 = GameSpec(n_players=2, lam=1.0, a1=Z, a2hat=spec.a2hat, a3=Z,
                         b_signals=spec.b_signals, b0_signal=spec.b0_signal, grid=grid16)
        G, H = build_GH(spec0)
        assert np.array_equal(G.values, spec.a2hat.values)
        assert np.all(H.values == 0.0)

    def test_build_GH_single_player(self, grid16):
        spec = make_spec(grid16, N=1)
        G, H = build_GH(spec)
        expect_G = spec.a1.values + 2 * spec.a3.values + spec.a2hat.values
        expect_H = spec.a1.values + spec.a3.values
        assert np.max(np.abs(G.values - expect_G)) < 1e-15
        assert np.max(np.abs(H.values - expect_H)) < 1e-15

    def test_GH_identity(self, grid16):
        # G - H/N = A2hat + A3/N entrywise
        for N in (1, 2, 5):
            spec = make_spec(grid16, N=N)
            G, H = build_GH(spec)
            lhs = G.values - H.values / N
            rhs = spec.a2hat.values + spec.a3.values / N
            assert np.max(np.abs(lhs - rhs)) <= 1e-14

    @pytest.mark.parametrize("N", [3, 7, 63])
    def test_mean_kernel_weighs_H_by_N_minus_1_over_N(self, grid16, N):
        # at these N, 1 - 1/N rounds differently from (N - 1)/N
        assert 1.0 - 1.0 / N != (N - 1.0) / N
        spec = make_spec(grid16, N=N)
        G, H = build_GH(spec)
        want = add_kernels(((N - 1.0) / N, H), (1.0, G)).values
        assert build_operators(spec).mean_solver.K.values.tobytes() == want.tobytes()


class TestSolve:
    def test_zero_kernels_closed_form(self, grid16):
        spec = make_spec(grid16, N=3, zero=True)
        bundle = bundle_for(spec, 4, 3)
        sol = solve_nash(spec, bundle)
        assert np.max(np.abs(sol.u - sol.base_values / 2.0)) < 1e-14
        mean_driver = sol.base_values.mean(axis=0)
        assert np.max(np.abs(sol.ubar - mean_driver / 2.0)) < 1e-14

    def test_single_player_mean_equals_player(self, grid16):
        spec = make_spec(grid16, N=1)
        sol = solve_nash(spec, bundle_for(spec, 3, 1))
        assert np.max(np.abs(sol.u[0] - sol.ubar)) <= 1e-10

    def test_symmetric_players_collapse(self, grid16):
        spec = make_spec(grid16, N=3, symmetric=True)
        sol = solve_nash(spec, bundle_for(spec, 4, 2))
        assert np.max(np.abs(sol.u - sol.ubar[None])) <= 1e-8

    def test_mean_consistency_every_path(self, grid16):
        spec = make_spec(grid16, N=4)
        sol = solve_nash(spec, bundle_for(spec, 6, 5))
        assert np.max(np.abs(sol.u.mean(axis=0) - sol.ubar)) <= 1e-8

    def test_consistency_violation_raised(self, grid16):
        spec = make_spec(grid16, N=2)
        with pytest.raises(ConsistencyViolation):
            solve_nash(spec, bundle_for(spec, 1, 0), mean_gap_tol=0.0)

    def test_scale_invariance(self, grid16):
        spec = make_spec(grid16, N=3)
        bundle = bundle_for(spec, 3, 7)
        sol = solve_nash(spec, bundle)
        sol_g = solve_nash(scale_game(spec, 4.2), bundle)
        assert np.max(np.abs(sol_g.u - sol.u)) <= 1e-10
        assert np.max(np.abs(sol_g.ubar - sol.ubar)) <= 1e-10

    @pytest.mark.parametrize("model", ["systemic", "liquidation"])
    def test_scaled_reduced_game_scales_every_objective(self, model):
        # a reduced game carries kernel_check="concave", diag_half, b0_extras
        # and c_constants; scale_game must keep or scale each of them
        cfg = json.loads((Path(__file__).parent.parent / "run_configs" / f"{model}.json")
                         .read_text())
        grid = build_grid(cfg["grid"]["T"], 16)
        spec = build_game_from_config(cfg, grid)
        bundle = draw_noise(grid, spec.noise_tags(), 4, cfg["noise"]["seed"])
        gamma = 2.0
        scaled = scale_game(spec, gamma)
        sol = solve_nash(spec, bundle)
        sol_g = solve_nash(scaled, bundle)
        assert np.max(np.abs(sol_g.u - sol.u)) <= 1e-10
        assert np.max(np.abs(sol_g.ubar - sol.ubar)) <= 1e-10
        for i in range(spec.n_players):
            J = objective(spec, i, sol.u, bundle)
            assert abs(objective(scaled, i, sol.u, bundle) - gamma * J) <= 1e-12

    def test_player_permutation_symmetry(self, grid16):
        spec = make_spec(grid16, N=3)
        bundle = bundle_for(spec, 2, 9)
        sol = solve_nash(spec, bundle)
        perm = (2, 0, 1)
        spec_p = GameSpec(n_players=3, lam=spec.lam, a1=spec.a1, a2hat=spec.a2hat,
                          a3=spec.a3, b_signals=tuple(spec.b_signals[p] for p in perm),
                          b0_signal=spec.b0_signal, grid=spec.grid)
        sol_p = solve_nash(spec_p, bundle)
        for slot, p in enumerate(perm):
            assert np.array_equal(sol_p.u[slot], sol.u[p])

    def test_fredholm_residuals_tiny(self, grid16):
        spec = make_spec(grid16, N=3)
        sol = solve_nash(spec, bundle_for(spec, 3, 11))
        assert sol.diagnostics["fredholm_residual_max"] <= 1e-12


class TestDrive:
    def test_zero_mean_kernel_is_identity(self, grid16):
        spec = make_spec(grid16, N=2, zero=True)
        bundle = bundle_for(spec, 1, 0)
        b = spec.b_signals[0]
        _, H = build_GH(spec)
        zero = CompiledSignal(grid16, np.zeros(16), {"common": np.zeros((16, 16))})
        d = shifted_drive(b, H, zero)
        assert np.array_equal(d.mean, b.mean)
        for tag in b.weights:
            assert np.array_equal(d.weights[tag], b.weights[tag])
        db, bb = d.values_and_surface(bundle.path(0)), b.values_and_surface(bundle.path(0))
        assert np.array_equal(db[0], bb[0])
        assert np.array_equal(db[1], bb[1])

    def test_deterministic_inputs_flat_surface(self, grid16):
        spec = make_spec(grid16, N=2)
        base = CompiledSignal(grid16, 1.0 + grid16.times, {})
        w = CompiledSignal(grid16, np.sin(grid16.times), {})
        _, H = build_GH(spec)
        values, surface = shifted_drive(base, H, w).values_and_surface({})
        assert np.max(np.abs(surface - values[None, :])) < 1e-14

    def test_tower_property_on_enumerated_filtration(self):
        # drive surfaces must satisfy E_i[E_k'[d_j]] = E_i[d_j] exactly; check by
        # group-averaging over an enumerated binomial filtration
        g = build_grid(1.0, 5)
        spec = make_spec(g, N=2, symmetric=True)
        from test_signals import binomial_bundle
        bundle = binomial_bundle(g, tag="common")
        ops = build_operators(spec)
        L = bundle.n_paths
        bp, b0p = spec.b_signals[0], spec.b0_signal
        base = 1.0 * bp + 0.5 * b0p
        ms = ops.mean_solver.solve(0.5 * bp + 0.5 * bp + 0.5 * b0p)  # symmetric players share bp
        drives = conditional_surfaces(shifted_drive(base, ops.H, ms), bundle.increments, L)
        rng = np.random.default_rng(1)
        for _ in range(25):
            i = rng.integers(0, 4)
            kp = rng.integers(i, 5)
            j = rng.integers(kp, 5)
            span = 2 ** (5 - i)
            for group in range(0, L, span):
                rows = drives[group:group + span]
                assert abs(rows[:, kp, j].mean() - rows[0, i, j]) <= 1e-12


class TestFOC:
    def test_residual_at_equilibrium(self, grid16):
        spec = make_spec(grid16, N=3)
        bundle = bundle_for(spec, 3, 13)
        sol = solve_nash(spec, bundle)
        for i in range(3):
            assert foc_residual(spec, sol, i) <= 1e-8

    def test_perturbation_sensitivity(self, grid16):
        spec = make_spec(grid16, N=2)
        bundle = bundle_for(spec, 1, 17)
        sol = solve_nash(spec, bundle)
        sol.strategies[0].mean[0] += 0.1
        # the diagonal term alone moves the residual by 2*lam*0.1
        assert foc_residual(spec, sol, 0) >= 0.1 * 2.0 * spec.lam * 0.9

    def test_zero_operators_residual_identity(self, grid16):
        spec = make_spec(grid16, N=2, zero=True)
        bundle = bundle_for(spec, 2, 19)
        sol = solve_nash(spec, bundle)
        assert sol.diagnostics["foc_residual_max"] == 0.0

    def test_wrong_GH_shows_in_foc_only(self, monkeypatch):
        # G with A3 weighted 1/N instead of 2/N: both Fredholm solves stay exact
        # for the wrong kernels, so only the gradient of J^i, formed from A1,
        # A2hat and A3 directly, can see the fault
        def wrong_GH(spec):
            N = spec.n_players
            G = add_kernels((1.0 / N ** 2, spec.a1), (1.0 / N, spec.a3), (1.0, spec.a2hat))
            return G, add_kernels((1.0 / N, spec.a1), (1.0, spec.a3))

        cfg = json.loads((Path(__file__).parent.parent / "run_configs" / "raw_game.json")
                         .read_text())
        grid = build_grid(cfg["grid"]["T"], 32)
        spec = build_game_from_config(cfg, grid)
        bundle = draw_noise(grid, spec.noise_tags(), 8, cfg["noise"]["seed"])
        monkeypatch.setattr(nplayer, "build_GH", wrong_GH)
        sol = solve_nash(spec, bundle)
        assert sol.diagnostics["fredholm_residual_max"] < 1e-12
        assert sol.diagnostics["foc_residual_max"] > 1e-6


class TestObjective:
    def test_all_zero_strategies_give_constant(self, grid16):
        spec = make_spec(grid16, N=2, zero=True)
        spec = replace(spec, c_constants=(2.5, -1.0))
        bundle = bundle_for(spec, 4, 23)
        u = np.zeros((2, 4, 16))
        assert objective(spec, 0, u, bundle) == 2.5
        assert objective(spec, 1, u, bundle) == -1.0

    def test_quadratic_closed_form(self, grid16):
        # zero kernels, N = 1, b0 = 0, u = b/(2 lam): J = <b, b>/(4 lam) + c
        bvals = 1.0 + grid16.times
        spec = GameSpec(n_players=1, lam=1.0,
                        a1=zero_kernel(grid16), a2hat=zero_kernel(grid16),
                        a3=zero_kernel(grid16),
                        b_signals=(deterministic(grid16, bvals),),
                        b0_signal=deterministic(grid16, 0.0), grid=grid16,
                        c_constants=(2.0,))
        bundle = draw_noise(grid16, {"common"}, 1, 0)
        u = (bvals / 2.0)[None, None, :]
        expect = float(bvals @ bvals) * grid16.dt / 4.0 + 2.0
        assert abs(objective(spec, 0, u, bundle) - expect) < 1e-14

    def test_equilibrium_beats_perturbations(self, grid16):
        spec = make_spec(grid16, N=2)
        bundle = bundle_for(spec, 200, 29)
        sol = solve_nash(spec, bundle)
        rng = np.random.default_rng(31)
        base = objective(spec, 0, sol.u, bundle)
        for _ in range(20):
            h = rng.standard_normal(16) * rng.uniform(0.05, 0.5)
            dev = sol.u.copy()
            dev[0] = dev[0] + h[None, :]
            gain = objective(spec, 0, dev, bundle) - base
            # MC std error of the gain: linear term has zero mean at equilibrium
            per = (objective_per_path(spec, 0, dev, bundle)
                   - objective_per_path(spec, 0, sol.u, bundle))
            se = per.std(ddof=1) / np.sqrt(len(per))
            assert gain <= 3.0 * se


class TestConcavity:
    def test_exact_second_difference_zero_kernels(self, grid16):
        spec = make_spec(grid16, N=1, zero=True)
        bundle = bundle_for(spec, 1, 0)
        u = np.zeros((1, 1, 16))
        h = np.sin(np.linspace(0, 3, 16))
        j0 = objective(spec, 0, u, bundle)
        up = u.copy(); up[0] += h
        um = u.copy(); um[0] -= h
        second = objective(spec, 0, up, bundle) + objective(spec, 0, um, bundle) - 2 * j0
        assert abs(second - (-2.0 * spec.lam * float(h @ h) * grid16.dt)) < 1e-12

    def test_zero_direction_rejected(self, grid16):
        spec = make_spec(grid16, N=1, zero=True)
        bundle = bundle_for(spec, 1, 0)
        with pytest.raises(ValueError):
            concavity_check(spec, 0, np.zeros((1, 1, 16)), np.zeros(16), bundle)

    def test_random_directions_pass(self, grid16):
        spec = make_spec(grid16, N=2)
        bundle = bundle_for(spec, 2, 37)
        sol = solve_nash(spec, bundle)
        rng = np.random.default_rng(41)
        for _ in range(50):
            h = rng.standard_normal(16)
            assert concavity_check(spec, 0, sol.u, h, bundle)


class TestFunctionalForms:
    def test_solve_mean_and_solve_player_compose_to_solve_nash(self, grid16):
        # the mean solve, then player 0's solve on the shifted drive, by hand
        spec = make_spec(grid16, N=2)
        bundle = bundle_for(spec, 2, 43)
        ops = build_operators(spec)
        driver = sum(0.5 * b for b in (*spec.b_signals, spec.b0_signal))
        ubar = ops.mean_solver.solve(driver)
        full = solve_nash(spec, bundle)
        assert np.max(np.abs(ubar.path_values(bundle.increments, 2) - full.ubar)) <= 1e-12
        u0 = ops.player_solver.solve(shifted_drive(player_base(spec, 0), ops.H, ubar))
        assert np.max(np.abs(u0.path_values(bundle.increments, 2) - full.u[0])) <= 1e-12


class TestLiteralTranscription:
    """Literal dense transcription of the closed-form equilibrium coefficients.

    Independently rebuilds, with full-space dense solves and explicit masks,
    the mean-level operator family 2*lam*id + ((N-1)/N)(H_t + H_t*) + G_t + G_t*
    and its recursion coefficients, then the player-level family with
    Khat = G - H/N, and checks that the production solutions match both
    and satisfy their recursions v = a + dt B v.
    """

    def test_mean_and_player_coefficients(self, grid16):
        spec = make_spec(grid16, N=3)
        ops = build_operators(spec)
        n, dt = grid16.n, grid16.dt
        lam = spec.lam
        N = spec.n_players
        G, H = ops.G.values, ops.H.values
        kbar = (N - 1) / N * H + G
        bundle = bundle_for(spec, 1, 51)
        dW = bundle.path(0)
        bbar = sum((1.0 / N) * b for b in (*spec.b_signals, spec.b0_signal))

        def dense_family(kmat):
            mats = []
            for k in range(n):
                masked = kmat.copy()
                masked[:, :k] = 0.0
                mats.append(2.0 * lam * np.eye(n) + dt * (masked + masked.T))
            return mats

        def literal_solution(kmat, signal):
            values, surface = signal.values_and_surface(dW)
            Dt = dense_family(kmat)
            a = np.empty(n)
            B = np.zeros((n, n))
            for k in range(n):
                ell = np.zeros(n)
                ell[k:] = kmat[k:, k]
                rhs = np.zeros(n)
                rhs[k:] = surface[k, k:]
                a[k] = (values[k] - dt * ell @ np.linalg.solve(Dt[k], rhs)) / (2 * lam)
                for j in range(k):
                    kcol = np.zeros(n)
                    kcol[k:] = kmat[k:, j]
                    B[k, j] = (dt * ell @ np.linalg.solve(Dt[k], kcol)
                               - kmat[k, j]) / (2 * lam)
            v = np.zeros(n)
            for k in range(n):
                v[k] = a[k] + dt * B[k, :k] @ v[:k]
            return v, a, B

        ubar_lit, abar_lit, Bbar_lit = literal_solution(kbar, bbar)
        mean_sol = ops.mean_solver.solve(bbar)
        ubar = mean_sol.values_and_surface(dW)[0]
        assert np.max(np.abs(ubar - ubar_lit)) <= 1e-12
        # the solver's ubar satisfies the literal recursion ubar = a + dt B ubar
        abar = ubar - dt * Bbar_lit @ ubar
        assert np.max(np.abs(abar - abar_lit)) <= 1e-12

        khat = G - H / N
        drive = shifted_drive(player_base(spec, 0), ops.H, mean_sol)
        u_lit, ahat_lit, Bhat_lit = literal_solution(khat, drive)
        u = ops.player_solver.solve(drive).values_and_surface(dW)[0]
        assert np.max(np.abs(u - u_lit)) <= 1e-12
        assert np.max(np.abs(u - dt * Bhat_lit @ u - ahat_lit)) <= 1e-12


def shipped_game(model, n):
    """(config, spec) of a shipped run config on an n-point grid."""
    cfg = json.loads((Path(__file__).parent.parent / "run_configs" / f"{model}.json")
                     .read_text())
    return cfg, build_game_from_config(cfg, build_grid(cfg["grid"]["T"], n))


class TestBlockedProducts:
    """Past one column block (grid_ops.TRI_BLOCK) the solver's products run blocked."""

    def test_raw_game_residuals_stay_at_precision(self):
        cfg, spec = shipped_game("raw_game", 130)
        assert spec.grid.n > 2 * TRI_BLOCK
        sol = solve_nash(spec, draw_noise(spec.grid, spec.noise_tags(), 4, cfg["noise"]["seed"]))
        assert sol.diagnostics["fredholm_residual_max"] <= 1e-12
        assert sol.diagnostics["foc_residual_max"] <= 1e-12

    def test_raw_game_cond1_estimates_at_n512(self):
        _, spec = shipped_game("raw_game", 512)
        ops = build_operators(spec)
        for solver in (ops.mean_solver, ops.player_solver):
            exact = cond1(solver)
            assert 0.9 * exact <= solver.cond1_est() <= exact * (1.0 + 1e-12)

    @pytest.mark.parametrize("n", [TRI_BLOCK, 130])
    def test_adapted_product_reads_like_the_full_product(self, n):
        # M @ v keeps the full product; on a solver output v every adapted value and
        # every surface entry reads only the strictly lower weights, which agree
        cfg, spec = shipped_game("raw_game", n)
        v = build_operators(spec).mean_solver.solve(mean_driver(spec))
        M = np.random.default_rng(n).standard_normal((n, n))
        full, adapted = M @ v, v.adapted_matmul(M)
        bundle = draw_noise(spec.grid, spec.noise_tags(), 3, cfg["noise"]["seed"])
        pairs = [(full.path_values(bundle.increments, 3), adapted.path_values(bundle.increments, 3)),
                 *zip(full.values_and_surface(bundle.path(0)),
                      adapted.values_and_surface(bundle.path(0)))]
        for want, got in pairs:
            if n <= TRI_BLOCK:
                assert np.array_equal(got, want)
            else:
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


class TestMargins:
    def test_strict_check_reports_each_kernels_lowest_eigenvalue(self, grid16):
        spec = make_spec(grid16)
        diag = solve_nash(spec, bundle_for(spec, 2, 3)).diagnostics
        for name, K in (("A1", spec.a1), ("A2hat", spec.a2hat), ("A3", spec.a3)):
            assert diag[f"min_eig_{name}"] == np.linalg.eigvalsh(symmetrized_form(K))[0]
        assert "min_eig_player_form" not in diag

    def test_concave_check_reports_the_player_forms_lowest_eigenvalue(self):
        cfg, spec = shipped_game("systemic", 16)
        assert spec.kernel_check == "concave"
        diag = solve_nash(spec, draw_noise(spec.grid, spec.noise_tags(), 2, 1)).diagnostics
        G, _ = build_GH(spec)
        assert diag["min_eig_player_form"] == np.linalg.eigvalsh(symmetrized_form(G))[0]
        # the reduction checks the instantaneous cost against -p and records its margin
        assert diag["min_eig_A2hat"] == np.linalg.eigvalsh(symmetrized_form(spec.a2hat))[0]
        assert not any(f"min_eig_{name}" in diag for name in ("A1", "A3"))

    @pytest.mark.parametrize("model", ["strict", "systemic"])
    def test_validation_report_reads_the_same_eigenvalues(self, grid16, model):
        spec = make_spec(grid16) if model == "strict" else shipped_game(model, 16)[1]
        checks = {c["name"]: c["value"] for c in validation_report(spec, paths=2)["checks"]}
        if model == "strict":
            for name, K in (("A1", spec.a1), ("A2hat", spec.a2hat), ("A3", spec.a3)):
                want = np.linalg.eigvalsh(symmetrized_form(K))[0]
                assert checks[f"nonneg_definite_{name.lower()}"] == want
        else:
            G, _ = build_GH(spec)
            assert checks["player_concavity_form"] == np.linalg.eigvalsh(symmetrized_form(G))[0]


def test_signal_adaptedness_sees_values_that_read_ahead(grid16, monkeypatch):
    # an anticipative driver: its surface reads only the past, and so must path_values
    rng = np.random.default_rng(9)
    w = rng.standard_normal((grid16.n, grid16.n))
    spec = make_spec(grid16)
    b = (brownian_weighted(grid16, np.ones(grid16.n), w, noise="common"),
         *spec.b_signals[1:])
    spec = replace(spec, b_signals=b)

    def adaptedness():
        checks = validation_report(spec, paths=2)["checks"]
        return next(c for c in checks if c["name"] == "signal_adaptedness")

    assert adaptedness()["passed"]
    # path values that keep the weights on and above the diagonal
    monkeypatch.setattr(CompiledSignal, "tag_values",
                        lambda self, tag, increments: increments @ self.weights[tag].T)
    check = adaptedness()
    assert not check["passed"] and check["value"] > 1e-3

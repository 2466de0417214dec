import collections
import itertools
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from volterra_games import meanfield, nplayer, signals
from volterra_games.errors import ShapeError
from volterra_games.fredholm import FredholmSolver, build_Dt
from volterra_games.grid_ops import (
    ConstantLower,
    ExponentialDecay,
    add_kernels,
    build_grid,
    discretize_kernel,
    zero_kernel,
)
from volterra_games.meanfield import (
    BalancedDeterministicFamily,
    IIDBrownianFamily,
    MFGSpec,
    best_response_gap,
    convergence_study,
    draw_crossed_noise,
    eps_nash_gap,
    fit_loglog_slope,
    induced_game,
    mfg_foc_residual,
    solve_generic,
    solve_infinite,
)
from volterra_games.nplayer import (
    build_operators,
    conditional_surfaces,
    mean_field_coupling,
    player_base,
    shifted_drive,
    solve_nash,
    sup_on_paths,
)
from volterra_games.signals import (
    CompiledSignal,
    deterministic,
    draw_noise,
    martingale,
    row_blocks,
)

from conftest import mu_surface
from references import sums_first_values


def solve_on(solver, f, bundle):
    """Values on every path of the bundle of the solution driven by f."""
    return solver.solve(f).path_values(bundle.increments, bundle.n_paths)


def make_mfg(grid, zero=False, a3_zero=False, beta_sigma=0.8, common_sigma=0.4):
    Z = zero_kernel(grid)
    a1 = Z if zero else discretize_kernel(ConstantLower(c=0.2), grid)
    a2 = Z if zero else discretize_kernel(ExponentialDecay(c=0.6, rho=1.5), grid)
    a3 = Z if (zero or a3_zero) else discretize_kernel(ExponentialDecay(c=0.4, rho=1.0), grid)
    beta = martingale(grid, sigma=beta_sigma, noise="idio") if beta_sigma else \
        deterministic(grid, 0.0)
    beta0 = deterministic(grid, 1.0)
    if common_sigma:
        beta0 = beta0 + martingale(grid, sigma=common_sigma, noise="common")
    return MFGSpec(lam=1.0, a1=a1, a2hat=a2, a3=a3, beta=beta, beta0=beta0,
                   b0_signal=deterministic(grid, 0.3), grid=grid)


class TestMaps:
    def test_zero_kernel_maps_divide(self, grid16):
        spec = make_mfg(grid16, zero=True)
        ops = build_operators(spec)
        bundle = draw_noise(grid16, {"common"}, 1, 0)
        f = martingale(grid16, sigma=1.0, noise="common")
        x, _ = f.values_and_surface(bundle.path(0))
        assert np.max(np.abs(solve_on(ops.player_solver, f, bundle)[0] - x / 2.0)) < 1e-14
        assert np.max(np.abs(solve_on(ops.mean_solver, f, bundle)[0] - x / 2.0)) < 1e-14

    def test_a3_zero_collapses_G_to_F(self, grid16):
        spec = make_mfg(grid16, a3_zero=True)
        ops = build_operators(spec)
        bundle = draw_noise(grid16, {"common"}, 2, 1)
        f = martingale(grid16, sigma=1.0, noise="common")
        assert np.max(np.abs(solve_on(ops.player_solver, f, bundle)
                             - solve_on(ops.mean_solver, f, bundle))) <= 1e-12

    def test_linearity(self, grid16):
        spec = make_mfg(grid16)
        ops = build_operators(spec)
        bundle = draw_noise(grid16, {"common"}, 1, 2)
        x = martingale(grid16, sigma=1.0, noise="common")
        x2 = 3.0 * x
        assert np.max(np.abs(solve_on(ops.player_solver, x2, bundle)
                             - 3.0 * solve_on(ops.player_solver, x, bundle))) <= 1e-10

    def test_deterministic_matches_fredholm_constant_case(self):
        # A2hat = ConstantLower(c), x = 1: F solves the constant-kernel problem
        g = build_grid(1.0, 256)
        Z = zero_kernel(g)
        spec = MFGSpec(lam=0.5, a1=Z, a2hat=discretize_kernel(ConstantLower(c=1.0), g),
                       a3=Z, beta=deterministic(g, 0.0),
                       beta0=deterministic(g, 1.0),
                       b0_signal=deterministic(g, 0.0), grid=g)
        x = deterministic(g, 1.0)
        v = build_operators(spec).player_solver.solve(x).mean
        assert np.max(np.abs(v - 1.0 / (1.0 + 1.0))) <= 5e-2


class TestLimitOperators:
    """The mean-field game's operators and first-order condition are nplayer's at N = inf."""

    @pytest.mark.parametrize("n", [16, 100])
    def test_kernels_are_a2hat_plus_a3_and_a2hat(self, n):
        spec = make_mfg(build_grid(1.0, n))
        ops = build_operators(spec)
        # the kernels the limit game was built with before it shared nplayer's operators
        mean = add_kernels((1.0, spec.a2hat), (1.0, spec.a3))
        for solver, K in ((ops.mean_solver, mean), (ops.player_solver, spec.a2hat)):
            assert solver.core.tobytes() == build_Dt(K, solver.lam_eff)[0].tobytes()
            assert solver.lam_eff == 2.0 * spec.lam
        # the coupling is the A3 shift dt (A3 + A3^T), the A1 term gone
        dt, A3 = spec.grid.dt, spec.a3.values
        mu = ops.mean_solver.solve(spec.mean_field_driver())
        got, want = mean_field_coupling(spec, mu), mu.adapted_matmul(dt * (A3 + A3.T))
        assert got.mean.tobytes() == want.mean.tobytes()
        assert got.weights.keys() == want.weights.keys()
        for tag, w in want.weights.items():
            assert got.weights[tag].tobytes() == w.tobytes()

    @pytest.mark.parametrize("n", [16, 100])
    def test_foc_residual_is_the_limit_formula(self, n):
        grid = build_grid(1.0, n)
        spec = make_mfg(grid)
        noise = draw_crossed_noise(grid, {"common"}, {"idio"}, 3, 5, seed=2)
        sol = solve_generic(spec, noise)
        # the formula mfg_foc_residual kept before it used nplayer's first-order terms
        dt, A2, A3 = grid.dt, spec.a2hat.values, spec.a3.values
        own = 2.0 * spec.lam * np.eye(n) + dt * (A2 + A2.T)
        res = (sol.strategies[0].adapted_matmul(own)
               + sol.mean_field.adapted_matmul(dt * (A3 + A3.T)) - spec.b_family())
        want = sup_on_paths(res, noise.bundle.increments, noise.bundle.n_paths)
        assert 0.0 < want <= 1e-8
        assert mfg_foc_residual(spec, sol, noise) == want


class TestGenericPlayer:
    def test_zero_kernels_closed_form(self, grid16):
        spec = MFGSpec(lam=1.0, a1=zero_kernel(grid16), a2hat=zero_kernel(grid16),
                       a3=zero_kernel(grid16),
                       beta=martingale(grid16, sigma=0.8, noise="idio"),
                       beta0=deterministic(grid16, 2.0),
                       b0_signal=deterministic(grid16, 0.0), grid=grid16)
        noise = draw_crossed_noise(grid16, set(), {"idio"}, 1, 32, seed=2)
        sol = solve_generic(spec, noise)
        assert np.max(np.abs(sol.mu - 1.0)) < 1e-14      # (E beta + beta0)/(2 lam)
        cb = spec.b_family()
        for e in range(4):
            vals, _ = cb.values_and_surface(noise.bundle.path(e))
            assert np.max(np.abs(sol.v[0, e] - vals / 2.0)) < 1e-14

    def test_consistency_condition_within_mc_error(self, grid16):
        spec = make_mfg(grid16)
        noise = draw_crossed_noise(grid16, {"common"}, {"idio"}, 3, 500, seed=11)
        sol = solve_generic(spec, noise)
        assert sol.diagnostics["gap_over_stderr_max"] <= 3.0

    def test_mu_is_common_measurable(self, grid16):
        spec = make_mfg(grid16)
        n1 = draw_crossed_noise(grid16, {"common"}, {"idio"}, 2, 3, seed=5)
        n2 = draw_crossed_noise(grid16, {"common"}, {"idio"}, 2, 7, seed=5)
        # same seed => same common draws even though idio counts differ
        assert np.array_equal(n1.bundle.increments["common"][0],
                              n2.bundle.increments["common"][0])
        s1, s2 = solve_generic(spec, n1), solve_generic(spec, n2)
        assert np.array_equal(s1.mu, s2.mu)

    def test_foc_residual_of_generic_solution(self, grid16):
        spec = make_mfg(grid16)
        noise = draw_crossed_noise(grid16, {"common"}, {"idio"}, 2, 4, seed=3)
        sol = solve_generic(spec, noise)
        assert mfg_foc_residual(spec, sol, noise) <= 1e-8
        # the same condition path by path, through the on-demand surfaces
        ops = build_operators(spec)
        cb = spec.b_family()
        v = ops.player_solver.solve(shifted_drive(spec, cb, sol.mean_field))
        v_surface = conditional_surfaces(v, noise.bundle.increments, 8)
        mu_surf = mu_surface(sol)
        dt, A3, A2 = grid16.dt, spec.a3.values, spec.a2hat.values
        for c in range(2):
            for e in range(2):
                p = c * 4 + e
                bv, _ = cb.values_and_surface(noise.bundle.path(p))
                vp = v_surface[p].diagonal()
                assert np.max(np.abs(vp - sol.v[c, e])) <= 1e-12
                res = (2.0 * spec.lam * vp - bv
                       + dt * (A3 @ sol.mu[c]) + dt * np.einsum("rk,kr->k", A3, mu_surf[c])
                       + dt * (A2 @ vp) + dt * np.einsum("rk,kr->k", A2, v_surface[p]))
                assert np.max(np.abs(res)) <= 1e-8

    def test_consistency_exact_on_coefficients(self, grid16, grid64):
        # E[v | common] = mu on the coefficients, for every path at once
        for grid in (grid16, grid64):
            spec = make_mfg(grid)
            noise = draw_crossed_noise(grid, {"common"}, {"idio"}, 2, 3, seed=42)
            assert solve_generic(spec, noise).diagnostics["consistency_exact"] <= 1e-12

    def test_disjoint_noise_required(self, grid16):
        with pytest.raises(ShapeError):
            MFGSpec(lam=1.0, a1=zero_kernel(grid16), a2hat=zero_kernel(grid16),
                    a3=zero_kernel(grid16),
                    beta=martingale(grid16, sigma=1.0, noise="common"),
                    beta0=martingale(grid16, sigma=1.0, noise="common"),
                    b0_signal=deterministic(grid16, 0.0), grid=grid16)


class TestInfinitePlayers:
    def make_spec(self, grid, sigma=0.5):
        base = deterministic(grid, 1.0)
        fam = IIDBrownianFamily(base=base, sigma=sigma)
        return MFGSpec(lam=1.0, a1=discretize_kernel(ConstantLower(c=0.2), grid),
                       a2hat=discretize_kernel(ExponentialDecay(c=0.6, rho=1.5), grid),
                       a3=discretize_kernel(ExponentialDecay(c=0.4, rho=1.0), grid),
                       beta=martingale(grid, sigma=sigma, noise="idio0"),
                       beta0=deterministic(grid, 0.0),
                       b0_signal=deterministic(grid, 0.4), grid=grid,
                       b_infty=base, player_family=fam)

    def test_zero_kernel_identities(self, grid16):
        base = deterministic(grid16, 2.0)
        Z = zero_kernel(grid16)
        spec = MFGSpec(lam=1.0, a1=Z, a2hat=Z, a3=Z, beta=base,
                       beta0=deterministic(grid16, 0.0),
                       b0_signal=deterministic(grid16, 0.0), grid=grid16,
                       b_infty=base,
                       player_family=BalancedDeterministicFamily(
                           base=base, amplitude=0.0, shape=deterministic(grid16, 0.0)))
        noise = draw_crossed_noise(grid16, set(), set(), 1, 1, seed=0)
        sol = solve_infinite(spec, 4, noise)
        assert np.max(np.abs(sol.mu - 1.0)) < 1e-14
        assert np.max(np.abs(sol.v - 1.0)) < 1e-14

    def test_empirical_consistency_rate(self, grid16):
        # sup_t E[((1/N) sum v^i - nu)^2] decays like h(N) = sigma^2/N
        spec = self.make_spec(grid16, sigma=0.6)
        mses = []
        ns = [8, 16, 32, 64]
        for N in ns:
            fam = spec.player_family
            noise = draw_crossed_noise(grid16, set(), fam.idio_tags(N), 1, 300, seed=7)
            sol = solve_infinite(spec, N, noise)
            avg = sol.v.mean(axis=0)
            nu_full = np.repeat(sol.mu, noise.n_idio, axis=0)
            mses.append(float(np.max(np.mean((avg - nu_full) ** 2, axis=0))))
        slope = fit_loglog_slope(ns, mses)
        assert -1.4 <= slope <= -0.6


class TestConvergence:
    def base_spec(self, grid, kind):
        base = deterministic(grid, 1.0)
        a1 = discretize_kernel(ConstantLower(c=0.2), grid)
        a2 = discretize_kernel(ExponentialDecay(c=0.6, rho=1.5), grid)
        a3 = discretize_kernel(ExponentialDecay(c=0.4, rho=1.0), grid)
        if kind == "balanced":
            fam = BalancedDeterministicFamily(
                base=base, amplitude=0.5, shape=deterministic(grid, np.sin(np.pi * grid.times)))
            beta = base
        else:
            fam = IIDBrownianFamily(base=base, sigma=0.6)
            beta = martingale(grid, sigma=0.6, noise="idio0")
        return MFGSpec(lam=1.0, a1=a1, a2hat=a2, a3=a3, beta=beta,
                       beta0=deterministic(grid, 0.0),
                       b0_signal=deterministic(grid, 0.4), grid=grid,
                       b_infty=base, player_family=fam)

    def test_deterministic_balanced_rate_and_monotonicity(self, grid16):
        spec = self.base_spec(grid16, "balanced")
        noise = draw_crossed_noise(grid16, set(), set(), 1, 1, seed=0)
        out = convergence_study(spec, [4, 8, 16, 32, 64], noise)
        mses = [r["mse_mean"] for r in out["rows"]]
        assert -2.5 <= out["slope_mean"] <= -1.5
        assert all(a > b for a, b in zip(mses, mses[1:]))

    def test_identical_players_zero_kernels_exact(self, grid16):
        base = deterministic(grid16, 1.0)
        Z = zero_kernel(grid16)
        fam = BalancedDeterministicFamily(base=base, amplitude=0.0,
                                          shape=deterministic(grid16, 0.0))
        spec = MFGSpec(lam=1.0, a1=Z, a2hat=Z, a3=Z, beta=base,
                       beta0=deterministic(grid16, 0.0),
                       b0_signal=deterministic(grid16, 0.0), grid=grid16,
                       b_infty=base, player_family=fam)
        noise = draw_crossed_noise(grid16, set(), set(), 1, 1, seed=0)
        out = convergence_study(spec, [2, 4], noise)
        assert all(r["mse_mean"] <= 1e-28 for r in out["rows"])

    def test_iid_rate(self, grid16):
        spec = self.base_spec(grid16, "iid")
        fam = spec.player_family
        noise = draw_crossed_noise(grid16, set(), fam.idio_tags(64), 1, 1000, seed=1)
        out = convergence_study(spec, [4, 8, 16, 32, 64], noise, player_paths=100)
        assert -1.4 <= out["slope_mean"] <= -0.6


class TestEpsNash:
    def spec(self, grid):
        base = deterministic(grid, 1.0)
        fam = IIDBrownianFamily(base=base, sigma=0.5)
        return MFGSpec(lam=1.0, a1=discretize_kernel(ConstantLower(c=0.2), grid),
                       a2hat=discretize_kernel(ExponentialDecay(c=0.6, rho=1.5), grid),
                       a3=discretize_kernel(ExponentialDecay(c=0.4, rho=1.0), grid),
                       beta=martingale(grid, sigma=0.5, noise="idio0"),
                       beta0=deterministic(grid, 0.0),
                       b0_signal=deterministic(grid, 0.4), grid=grid,
                       b_infty=base, player_family=fam)

    def test_equilibrium_deviation_is_zero(self, grid16):
        # deterministic game: v^i is flat across paths, so u = v^0 is admissible
        base = deterministic(grid16, 1.0)
        Z = zero_kernel(grid16)
        fam = BalancedDeterministicFamily(base=base, amplitude=0.0,
                                          shape=deterministic(grid16, 0.0))
        spec = MFGSpec(lam=1.0, a1=Z, a2hat=Z, a3=Z, beta=base,
                       beta0=deterministic(grid16, 0.0),
                       b0_signal=deterministic(grid16, 0.0), grid=grid16,
                       b_infty=base, player_family=fam)
        noise = draw_crossed_noise(grid16, set(), set(), 1, 1, seed=0)
        sol = solve_infinite(spec, 4, noise)
        out = eps_nash_gap(spec, 4, sol.v[0, 0], noise)
        assert out["gap"] == 0.0

    def test_zero_kernels_no_gain(self, grid16):
        # decoupled game: the mean-field strategy is exactly optimal at any N
        base = deterministic(grid16, 1.0)
        Z = zero_kernel(grid16)
        fam = IIDBrownianFamily(base=base, sigma=0.5)
        spec = MFGSpec(lam=1.0, a1=Z, a2hat=Z, a3=Z,
                       beta=martingale(grid16, sigma=0.5, noise="idio0"),
                       beta0=deterministic(grid16, 0.0),
                       b0_signal=deterministic(grid16, 0.0), grid=grid16,
                       b_infty=base, player_family=fam)
        noise = draw_crossed_noise(grid16, set(), fam.idio_tags(4), 1, 40, seed=3)
        dev = 0.3 + 0.1 * grid16.times
        out = eps_nash_gap(spec, 4, dev, noise)
        assert out["gap"] <= 3.0 * out["stderr"] + 1e-12

    def test_best_response_gap_positive_and_decaying(self, grid16):
        spec = self.spec(grid16)
        gaps = []
        for N in (4, 16, 64):
            fam = spec.player_family
            noise = draw_crossed_noise(grid16, set(), fam.idio_tags(N), 1, 40, seed=9)
            out = best_response_gap(spec, N, noise)
            assert out["gap"] >= -1e-12
            gaps.append(out["gap"])
        assert gaps[0] > gaps[1] > gaps[2]

    def test_induced_game_shape(self, grid16):
        spec = self.spec(grid16)
        game = induced_game(spec, 5)
        assert game.n_players == 5
        assert len(game.b_signals) == 5


class TestBatchedPipelineCrossValidation:
    def test_batched_driver_matches_per_path_assembly(self, grid16):
        # the coefficient solve against a = (f - dt <w_k, E_{t_k} f>) / lam per path
        from volterra_games.fredholm import FredholmSolver
        from volterra_games.grid_ops import ExponentialDecay, discretize_kernel

        K = discretize_kernel(ExponentialDecay(c=0.6, rho=1.5), grid16)
        solver = FredholmSolver(K, 2.0)
        cs = (deterministic(grid16, 1.0 + grid16.times)
              + martingale(grid16, sigma=0.5, noise="a")
              + 0.7 * martingale(grid16, sigma=0.8, noise="b"))
        bundle = draw_noise(grid16, {"a", "b"}, 6, seed=31)
        vals_b = cs.path_values(bundle.increments, 6)
        v_b = solver.solve(cs).path_values(bundle.increments, 6)
        # the paper's w_k = D_k^{-T} ell_k and recursion kernel B, one solve per k
        n, dt = grid16.n, grid16.dt
        core = 2.0 * np.eye(n) + dt * (K.values + K.values.T)
        W = np.zeros((n, n))
        B = np.zeros((n, n))
        for k in range(n):
            W[k, k:] = np.linalg.solve(core[k:, k:].T, K.values[k:, k])
            B[k, :k] = (dt * (W[k, k:] @ K.values[k:, :k]) - K.values[k, :k]) / 2.0
        forward = np.linalg.inv(np.eye(n) - dt * B)
        for p in range(6):
            values, surface = cs.values_and_surface(bundle.path(p))
            assert np.max(np.abs(vals_b[p] - values)) <= 1e-13
            a = (values - dt * np.einsum("kj,kj->k", W, surface)) / 2.0
            assert np.max(np.abs(v_b[p] - forward @ a)) <= 1e-13

    def test_convergence_study_player_route_matches_solve_nash(self, grid16):
        # the finite-game mean and player solves inside convergence_study must
        # reproduce solve_nash, and the limit solve_infinite
        spec = TestConvergence().base_spec(grid16, "iid")
        fam = spec.player_family
        N = 4
        noise = draw_crossed_noise(grid16, set(), fam.idio_tags(N), 1, 5, seed=21)
        ref = solve_nash(induced_game(spec, N), noise.bundle)
        limit = solve_infinite(spec, N, noise)
        row = convergence_study(spec, [N], noise, player_paths=5)["rows"][0]
        mse_mean = np.max(np.mean((ref.ubar - limit.mu[0]) ** 2, axis=0))
        mse_player = np.max(np.mean((ref.u[0] - limit.v[0]) ** 2, axis=0))
        assert abs(row["mse_mean"] - mse_mean) <= 1e-11
        assert abs(row["mse_player"] - mse_player) <= 1e-11

    @pytest.mark.parametrize("ns", [[4], [4, 8, 16]])
    def test_limit_coupling_formed_once(self, grid16, monkeypatch, ns):
        # every N's mean-field player shares the limit's one coupling of nu
        specs = []

        def counted(spec, w):
            specs.append(spec)
            return coupling(spec, w)

        coupling = nplayer.mean_field_coupling
        monkeypatch.setattr(nplayer, "mean_field_coupling", counted)
        monkeypatch.setattr(meanfield, "mean_field_coupling", counted)
        spec, _, noise = study_case("iid", grid16)
        convergence_study(spec, ns, noise)
        assert sum(s is spec for s in specs) == 1
        assert len(specs) == 1 + len(ns)        # and one per finite game, for its player

    @pytest.mark.parametrize("kind", ["iid", "deterministic"])
    def test_mean_field_player_solved_once(self, grid16, monkeypatch, kind):
        # neither family's player 1 depends on N: one mean-field solve serves every N
        built, solves = {}, collections.Counter()
        build, solve = meanfield.build_operators, FredholmSolver.solve

        def captured(spec):
            built[id(spec)] = spec, build(spec)
            return built[id(spec)][1]

        def counted(self, f):
            solves[id(self)] += 1
            return solve(self, f)

        monkeypatch.setattr(meanfield, "build_operators", captured)
        monkeypatch.setattr(FredholmSolver, "solve", counted)
        spec, ns, noise = study_case(kind, grid16)
        convergence_study(spec, ns, noise)
        assert len(ns) > 1
        assert solves[id(built[id(spec)][1].player_solver)] == 1


def per_tag_values(f, increments, n_paths):
    """path_values on the first n_paths paths: one product per tag."""
    return f.path_values({tag: arr[:n_paths] for tag, arr in increments.items()}, n_paths)


def materialized_study(spec, ns, noise, player_paths=None, sample=sums_first_values):
    """convergence_study's rows from the whole bundle, each signal sampled by sample.

    The form the study had before it streamed the noise, kept as the reference;
    sums_first_values samples as the stream pass does, per_tag_values as
    path_values does.
    """
    ops = build_operators(spec)
    grid = spec.grid
    C, I = noise.n_common, noise.n_idio
    P = C * I
    increments = noise.bundle.increments
    nu_cs = ops.mean_solver.solve(spec.limit_family())
    nu_full = np.repeat(nu_cs.path_values(noise.block_increments(), C), I, axis=0)
    pp = P if player_paths is None else min(player_paths, P)
    rows = []
    for N in ns:
        game = induced_game(spec, N)
        gops = build_operators(game)
        c_mean = sum((1.0 / N) * f for f in (*game.b_signals, game.b0_signal))
        ubar_cs = gops.mean_solver.solve(c_mean)
        ubar = sample(ubar_cs, increments, P)
        mse_mean = float(np.max(np.mean((ubar - nu_full) ** 2, axis=0)))
        mse_player = np.nan
        if pp > 0:
            u1 = gops.player_solver.solve(shifted_drive(game, player_base(game, 0), ubar_cs))
            v1 = ops.player_solver.solve(shifted_drive(spec, spec.player_family.signal(0),
                                                       nu_cs))
            gap = sample(u1, increments, pp) - sample(v1, increments, pp)
            mse_player = float(np.max(np.mean(gap ** 2, axis=0)))
        rows.append({"N": int(N), "mse_mean": mse_mean, "mse_player": mse_player})
    return rows


def crossed_spec(grid):
    """IID players on top of common noise: tag a0 sorts before the idio tags, zc after."""
    det = deterministic(grid, 1.0)
    base = det + martingale(grid, sigma=0.3, noise="zc")
    b0 = 0.4 * det + martingale(grid, sigma=0.2, noise="a0")
    return MFGSpec(lam=1.0, a1=discretize_kernel(ConstantLower(c=0.2), grid),
                   a2hat=discretize_kernel(ExponentialDecay(c=0.6, rho=1.5), grid),
                   a3=discretize_kernel(ExponentialDecay(c=0.4, rho=1.0), grid),
                   beta=martingale(grid, sigma=0.6, noise="idio0"), beta0=base, b0_signal=b0,
                   grid=grid, player_family=IIDBrownianFamily(base=base, sigma=0.6))


def study_case(kind, grid):
    """(spec, ns, noise) for the IID, crossed and deterministic one-path studies."""
    if kind == "iid":
        spec = TestConvergence().base_spec(grid, "iid")
        ns = [4, 8, 16, 32, 64]
        return spec, ns, draw_crossed_noise(grid, set(), spec.player_family.idio_tags(64),
                                            1, 300, seed=1)
    if kind == "crossed":
        spec = crossed_spec(grid)
        ns = [2, 4, 8]
        return spec, ns, draw_crossed_noise(grid, spec.common_tags(),
                                            spec.player_family.idio_tags(8), 3, 40, seed=4)
    spec = TestConvergence().base_spec(grid, "balanced")
    return spec, [4, 8, 16, 32, 64], draw_crossed_noise(grid, set(), set(), 1, 1, seed=0)


class TestStreamedNoise:
    @pytest.mark.parametrize("n_common, n_idio, block", [
        pytest.param(3, 4, None, id="3-4"), pytest.param(2, 1, None, id="2-1"),
        pytest.param(3, 4, 5, id="3-4-blocks-of-5"),
    ])
    def test_stream_order_and_arrays(self, grid16, monkeypatch, n_common, n_idio, block):
        if block:       # row blocks of 5 rows, across the common blocks of 4
            monkeypatch.setattr(signals, "ROW_BLOCK_BYTES", block * 8 * grid16.n)
        noise = draw_crossed_noise(grid16, {"zc", "a0"}, {"idio1", "idio0"},
                                   n_common, n_idio, seed=7)
        P = n_common * n_idio
        blocks = row_blocks(P, grid16.n)
        assert len(blocks) == (1 if block is None else 3)
        tags = ["a0", "idio0", "idio1", "zc"]
        streamed = list(noise.stream())
        assert [(tag, rows) for tag, rows, _ in streamed] == \
            [(tag, rows) for tag in tags for rows in blocks]
        # the eager draw before the noise was streamed, kept as the reference
        rng = np.random.default_rng(7)
        std = np.sqrt(grid16.dt)
        want = {}
        for tag in ("a0", "zc"):
            want[tag] = np.repeat(std * rng.standard_normal((n_common, grid16.n)), n_idio, axis=0)
        for tag in ("idio0", "idio1"):
            want[tag] = std * rng.standard_normal((P, grid16.n))
        assert noise.bundle is noise.bundle
        assert noise.bundle.n_paths == P
        for tag, rows, arr in streamed:
            assert np.array_equal(arr, want[tag][rows])
        for tag in tags:
            assert np.array_equal(noise.bundle.increments[tag], want[tag])
            assert not noise.bundle.increments[tag].flags.writeable
            assert np.array_equal(noise.block_increments()[tag], want[tag][::n_idio])
        # drawn into one recycled buffer: the same arrays, as read-only views of it
        buffer = np.full((blocks[0].stop, grid16.n), np.nan)
        recycled = [(tag, rows, arr.copy())
                    for tag, rows, arr in noise.stream(itertools.repeat(buffer))
                    if np.shares_memory(arr, buffer) and not arr.flags.writeable]
        assert [(tag, rows) for tag, rows, _ in recycled] == \
            [(tag, rows) for tag in tags for rows in blocks]
        for tag, rows, arr in recycled:
            assert np.array_equal(arr, want[tag][rows])

    def test_tag_both_common_and_idiosyncratic_rejected(self, grid16):
        with pytest.raises(ShapeError, match="both common and idiosyncratic"):
            draw_crossed_noise(grid16, {"w", "c"}, {"w"}, 1, 4, seed=0)

    @pytest.mark.parametrize("kind, player_paths, block", [
        *(pytest.param(kind, paths, None, id=f"{kind}-{paths}") for kind, paths in [
            ("iid", 0), ("iid", 100), ("iid", None),
            ("crossed", 0), ("crossed", 50), ("crossed", None),
            ("deterministic", None),
        ]),
        pytest.param("crossed", 50, 7, id="crossed-50-blocks-of-7"),
    ])
    def test_streamed_rows_match_materialized(self, grid16, monkeypatch, kind, player_paths,
                                              block):
        if block:
            monkeypatch.setattr(signals, "ROW_BLOCK_BYTES", block * 8 * grid16.n)
        spec, ns, noise = study_case(kind, grid16)
        if block:       # the means' and the players' last blocks are one row each
            for rows in (noise.n_common * noise.n_idio, player_paths):
                assert row_blocks(rows, grid16.n)[-1] == slice(rows - 1, rows)
        got = convergence_study(spec, ns, noise, player_paths=player_paths)["rows"]
        want = materialized_study(spec, ns, noise, player_paths=player_paths)
        per_tag = materialized_study(spec, ns, noise, player_paths=player_paths,
                                     sample=per_tag_values)
        assert [r["N"] for r in got] == ns
        for g, w, t in zip(got, want, per_tag):
            assert g["N"] == w["N"] == t["N"]
            # the pass sums each shared array's increments in sorted tag order and
            # forms its products over the same row blocks: the paths, and so this
            # row, agree bitwise with the sums-first reference
            assert g["mse_mean"] == w["mse_mean"]
            # and, at rounding level, with one product per tag
            assert abs(g["mse_mean"] - t["mse_mean"]) <= 1e-13 * abs(t["mse_mean"])
            if player_paths == 0:
                assert np.isnan(g["mse_player"]) and np.isnan(w["mse_player"])
                assert np.isnan(t["mse_player"])
            else:
                assert g["mse_player"] == w["mse_player"]
                assert abs(g["mse_player"] - t["mse_player"]) <= 1e-13 * abs(t["mse_player"])

    def test_noise_missing_a_tag_rejected(self, grid16):
        spec, ns, _ = study_case("iid", grid16)
        noise = draw_crossed_noise(grid16, set(), spec.player_family.idio_tags(4), 1, 20, seed=1)
        with pytest.raises(ShapeError, match="idio4"):
            convergence_study(spec, [4, 8], noise)

    def test_concurrent_studies_under_frequent_switches(self, grid16):
        # four studies at once, switching threads every microsecond: a pass that
        # shared its buffer or its sums between calls would change a row
        spec, ns, noise = study_case("crossed", grid16)
        want = materialized_study(spec, ns, noise, player_paths=20)
        results = [None] * 4

        def run(i):
            results[i] = convergence_study(spec, ns, noise, player_paths=20)["rows"]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=run, args=(i,)) for i in range(4)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        for rows in results:
            assert [(r["mse_mean"], r["mse_player"]) for r in rows] == \
                [(r["mse_mean"], r["mse_player"]) for r in want]

    def test_draw_failure_reaches_the_caller(self, grid16, monkeypatch):
        spec, ns, noise = study_case("crossed", grid16)
        real = meanfield.stream_increments

        def failing(*args):
            for k, item in enumerate(real(*args)):
                if k == 3:
                    raise RuntimeError("draw failed")
                yield item

        monkeypatch.setattr(meanfield, "stream_increments", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="draw failed"):
            convergence_study(spec, ns, noise)
        assert threading.active_count() == before

    def test_product_failure_reaches_the_caller(self, grid16, monkeypatch):
        # a product that fails mid-stream ends the pass, and the study runs again
        spec, ns, noise = study_case("crossed", grid16)
        want = convergence_study(spec, ns, noise, player_paths=20)["rows"]
        real = meanfield.adapted_values
        calls = []

        def failing(w, increments):
            calls.append(len(increments))
            if len(calls) == 5:
                raise MemoryError("product")
            return real(w, increments)

        monkeypatch.setattr(meanfield, "adapted_values", failing)
        before = threading.active_count()
        with pytest.raises(MemoryError, match="product"):
            convergence_study(spec, ns, noise, player_paths=20)
        assert threading.active_count() == before
        monkeypatch.undo()
        assert convergence_study(spec, ns, noise, player_paths=20)["rows"] == want


def distinct(cs: CompiledSignal) -> int:
    """The number of distinct weight arrays cs holds."""
    return len({id(w) for w in cs.weights.values()})


class TestSharedWeights:
    def test_study_holds_one_array_per_signal_not_per_tag(self, grid16, monkeypatch):
        seen = []
        streamed = meanfield._streamed_path_values

        def captured(signals, rows, noise):
            seen.extend(signals)
            return streamed(signals, rows, noise)

        monkeypatch.setattr(meanfield, "_streamed_path_values", captured)
        spec, ns, noise = study_case("iid", grid16)
        convergence_study(spec, ns, noise)
        # every N's mean and player 1, then the one mean-field player 1
        means, players, v1 = seen[:len(ns)], seen[len(ns):-1], seen[-1]
        assert len(seen) == 2 * len(ns) + 1
        for N, mean, u1 in zip(ns, means, players):
            assert len(mean.weights) == N and distinct(mean) == 1
            # player 1's own idio0, and one array for every other player's tag
            assert len(u1.weights) == N and distinct(u1) == 2
        assert list(v1.weights) == ["idio0"]
        # the family hands every player's idio tag its one array
        game = induced_game(spec, 8)
        assert len({id(f.weights[f"idio{i}"]) for i, f in enumerate(game.b_signals)}) == 1

    def test_study_forms_one_product_per_array_and_row_block(self, monkeypatch):
        # n = 64, 10^4 paths in five row blocks, N = 4..64, 200 player paths: each
        # mean's one array per row block (25), each finite-game player's two arrays
        # (10) and the mean-field player's one (1), each at one row block of 200
        # rows; 124 tag-mean pairs times 5 blocks plus 125 player products while
        # every tag formed its own
        shapes = []
        real = meanfield.adapted_values

        def counted(w, increments):
            shapes.append(increments.shape)
            return real(w, increments)

        monkeypatch.setattr(meanfield, "adapted_values", counted)
        grid = build_grid(1.0, 64)
        spec = TestConvergence().base_spec(grid, "iid")
        noise = draw_crossed_noise(grid, set(), spec.player_family.idio_tags(64), 1, 10 ** 4,
                                   seed=1)
        convergence_study(spec, [4, 8, 16, 32, 64], noise, player_paths=200)
        blocks = [b.stop - b.start for b in row_blocks(10 ** 4, 64)]
        assert len(blocks) == 5
        assert sorted(shapes) == sorted([(m, 64) for m in blocks] * 5 + [(200, 64)] * 11)

    def test_study_peak_memory(self):
        # the most convergence_study holds at once at n = 64, N = 4..64 and 4 paths,
        # in n x n arrays: 41.0 here; 45.2 with one mean-field player solved per N,
        # 400.1 with one array per player and tag in every mean and player solve
        assert study_peak(64, 4, [4, 8, 16, 32, 64]) / (64 ** 2 * 8) <= 50

    def test_study_peak_memory_past_one_row_block(self):
        # at n = 64 and 10^4 paths, five row blocks, in (paths, n) arrays: 2.7 here,
        # the two N values' mean paths and a few blocks; 2.8 with a product per tag
        # and two draw buffers, 5.2 with two whole-tag draw buffers and a whole-tag
        # product held beside them
        assert len(row_blocks(10 ** 4, 64)) == 5
        assert study_peak(64, 10 ** 4, [4, 8], player_paths=200) / (10 ** 4 * 64 * 8) <= 2.9

    def test_study_peak_memory_with_common_noise(self):
        # common tags a0 and zc beside the idiosyncratic ones, 10 common blocks of
        # 1000 paths: each N's mean holds its idiosyncratic increment sum and its
        # common tags' products, two (paths, n) arrays, and each player two arrays of
        # 200 rows; in (paths, n) arrays: 4.7 here, at most 2 per mean plus 0.9 for
        # the players and the blocks; 3.1 with a product per tag
        peak = study_peak(64, 10 ** 4, [4, 8], player_paths=200, kind="crossed", n_common=10)
        assert peak / (10 ** 4 * 64 * 8) <= 2 * 2 + 0.9


def study_peak(n, paths, ns, player_paths=None, kind="iid", n_common=1):
    """Peak of convergence_study on the IID family, or crossed_spec, in bytes."""
    def study(grid, paths, trace):
        spec = TestConvergence().base_spec(grid, "iid") if kind == "iid" else crossed_spec(grid)
        noise = draw_crossed_noise(grid, spec.common_tags(),
                                   spec.player_family.idio_tags(max(ns)), n_common,
                                   paths // n_common, seed=1)
        if trace:
            tracemalloc.start()
        try:
            convergence_study(spec, ns, noise, player_paths=player_paths)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    study(build_grid(1.0, 8), n_common, trace=False)     # lazy imports, once
    return study(build_grid(1.0, n), paths, trace=True)


def _limit_on_idio0(grid):
    """An IID study whose limit carries idio0, and noise drawing idio0...idio7 as idiosyncratic."""
    spec = TestConvergence().base_spec(grid, "iid")
    spec = replace(spec, b_infty=spec.b_infty + martingale(grid, 0.3, "idio0"))
    return spec, draw_crossed_noise(grid, set(), spec.player_family.idio_tags(8), 1, 20, seed=1)


@pytest.mark.parametrize("run, match", [
    (lambda spec, noise: solve_infinite(replace(spec, player_family=None), 2, noise),
     "needs a player family"),
    (lambda spec, noise: induced_game(replace(spec, player_family=None), 2),
     "need a player family"),
    # the limit is read at each common block's first path, so on common noise only
    (lambda spec, noise: solve_infinite(spec, 2, noise), "b_infty must be measurable"),
    (lambda spec, noise: convergence_study(spec, [2, 4, 8], noise), "b_infty must be measurable"),
], ids=["solve-infinite-no-family", "induced-game-no-family", "solve-infinite-idio-limit",
        "convergence-study-idio-limit"])
def test_input_checks(grid16, run, match):
    spec, noise = _limit_on_idio0(grid16)
    with pytest.raises(ShapeError, match=match):
        run(spec, noise)

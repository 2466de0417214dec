import re
from dataclasses import replace

import numpy as np
import pytest

from volterra_games.errors import ConvexityViolation, InadmissibleKernel, ShapeError
from volterra_games.grid_ops import (
    ConstantLower,
    DelayIndicator,
    ExponentialDecay,
    apply,
    build_grid,
    discretize_kernel,
    horizon_grid,
    zero_kernel,
)
from volterra_games.model_builders import (
    DelayMeasure,
    TerminalVector,
    VolterraGameSpec,
    _state_kernel,
    build_advertising_game,
    build_liquidation_game,
    build_systemic_game,
    reduce_volterra_game,
)
from volterra_games.nplayer import concavity_check, objective, objective_per_path, solve_nash
from volterra_games.signals import NoiseBundle, deterministic, draw_noise, martingale, ou
from volterra_games.validation import validation_report

from references import (
    direct_objective,
    inventory_path,
    linear_state_residual,
    solve_linear_state,
)


class TestMeasureToKernel:
    def test_unit_atom_at_zero_is_constant(self, grid16):
        K = discretize_kernel(DelayMeasure(atoms=((0.0, 1.0),)), grid16)
        C = discretize_kernel(ConstantLower(c=1.0), grid16)
        assert np.array_equal(K.values, C.values)

    def test_pulse_measure_is_delay_indicator(self, grid16):
        tau = 0.4
        K = discretize_kernel(DelayMeasure(atoms=((0.0, 1.0), (tau, -1.0))), grid16)
        D = discretize_kernel(DelayIndicator(tau=tau), grid16)
        assert np.max(np.abs(K.values - D.values)) < 1e-14

    def test_constant_density(self, grid16):
        # nu(ds) = g0 ds: G(t) = g0 t; cell averages are g0 (t_i - t_j - dt/2)
        g0 = 0.7
        K = discretize_kernel(DelayMeasure(density=(g0,) * 16), grid16)
        for i in range(1, 16):
            for j in range(i):
                expect = g0 * (grid16.times[i] - grid16.times[j] - grid16.dt / 2)
                assert abs(K.values[i, j] - expect) < 1e-14

    def test_density_cell_past_the_horizon_is_not_read(self, grid16):
        # a state kernel's density lists the game grid's n cells; on the horizon grid
        # no row reads a cell past T, so any value there gives the same kernel
        density = tuple(np.cos(3.0 * grid16.times))
        K = _state_kernel(DelayMeasure(atoms=((0.1, 0.5),), density=density), grid16)
        for last in (0.0, 123.0):
            nu = DelayMeasure(atoms=((0.1, 0.5),), density=(*density, last))
            ext = discretize_kernel(nu, horizon_grid(grid16))
            assert np.array_equal(ext.values, K.values)
            assert np.array_equal(ext.diag_half, K.diag_half)

    def test_fubini_identity(self, grid16):
        # sum_j G[i, j] u[j] dt matches the double-integral form at O(dt)
        rng = np.random.default_rng(0)
        u = rng.standard_normal(16)
        nu = DelayMeasure(atoms=((0.0, 1.0), (0.25, -0.5)))
        K = discretize_kernel(nu, grid16)
        got = apply(K, u)
        direct = np.zeros(16)
        dt = grid16.dt
        for i in range(16):
            # int_0^{t_i} ( int_{[0, l]} u_{l - r} nu(dr) ) dl by direct summation
            for l in range(i):
                for tau, mass in nu.atoms:
                    if tau <= grid16.times[l] + 1e-12:
                        shift = int(round(tau / dt))
                        direct[i] += mass * u[l - shift] * dt
        assert np.max(np.abs(got - direct)) <= 3 * dt * np.max(np.abs(u))


class TestLinearState:
    def test_zero_kernels_identity(self, grid16):
        Z = zero_kernel(grid16)
        M = np.vstack([np.sin(grid16.times), np.cos(grid16.times)])
        X = solve_linear_state(M, Z, Z)
        assert np.array_equal(X, M)

    def test_exponential_growth_limit(self):
        g = build_grid(1.0, 256)
        K = discretize_kernel(ConstantLower(c=1.0), g)
        X = solve_linear_state(np.ones((1, 256)), K, zero_kernel(g))
        assert np.max(np.abs(X[0] - np.exp(g.times))) <= 5e-2

    def test_matches_picard_iteration(self, grid16):
        K = discretize_kernel(ExponentialDecay(c=0.5, rho=1.0), grid16)
        H = discretize_kernel(ConstantLower(c=0.3), grid16)
        rng = np.random.default_rng(1)
        M = rng.standard_normal((3, 16))
        X = solve_linear_state(M, K, H)
        Y = M.copy()
        for _ in range(50):
            ybar = Y.mean(axis=0)
            Y = np.stack([M[i] + apply(K, Y[i]) + apply(H, ybar) for i in range(3)])
        assert np.max(np.abs(X - Y)) <= 1e-9

    def test_residual_exactness(self, grid16):
        K = discretize_kernel(ExponentialDecay(c=0.5, rho=1.0), grid16)
        H = discretize_kernel(ConstantLower(c=0.3), grid16)
        rng = np.random.default_rng(2)
        M = rng.standard_normal((4, 16))
        X = solve_linear_state(M, K, H)
        assert linear_state_residual(X, M, K, H) <= 1e-9


class TestReduce:
    def test_all_zero_costs(self, grid16):
        n = grid16.n
        dblock = np.zeros((n + 1, n, 2, 2))
        dblock[:, :, 0, 0] = 1.0  # any block; costs are zero
        zero_sig = deterministic(horizon_grid(grid16), 0.0)
        vspec = VolterraGameSpec(
            n_players=2, p=1.3, qmat=np.zeros((2, 2)), smat=np.zeros((2, 2)),
            qvec=np.zeros(2), dblock=dblock,
            d_signals=((zero_sig, zero_sig),) * 2,
            s_terminals=(TerminalVector.zero(),) * 2, grid=grid16)
        game = reduce_volterra_game(vspec)
        assert game.lam == 1.3
        for K in (game.a1, game.a2hat, game.a3):
            assert np.all(K.values == 0.0)
        assert np.all(game.b_signals[0].mean == 0.0)
        assert game.c_constants == (0.0, 0.0)

    def test_state_signals_live_on_the_horizon_grid(self, grid16):
        # a state has n + 1 rows, its value at T the last: n rows on the game grid are refused
        n = grid16.n
        for grid in (grid16, build_grid(1.0, n + 1)):
            with pytest.raises(ShapeError):
                VolterraGameSpec(
                    n_players=1, p=1.0, qmat=np.zeros((2, 2)), smat=np.zeros((2, 2)),
                    qvec=np.zeros(2), dblock=np.zeros((n + 1, n, 2, 2)),
                    d_signals=((deterministic(horizon_grid(grid16), 0.0),
                                deterministic(grid, 0.0)),),
                    s_terminals=(TerminalVector.zero(),), grid=grid16)

    def test_positive_control_cost_required(self, grid16):
        n = grid16.n
        zero_sig = deterministic(horizon_grid(grid16), 0.0)
        vspec = VolterraGameSpec(
            n_players=1, p=0.0, qmat=np.zeros((2, 2)), smat=np.zeros((2, 2)),
            qvec=np.zeros(2), dblock=np.zeros((n + 1, n, 2, 2)),
            d_signals=((zero_sig, zero_sig),), s_terminals=(TerminalVector.zero(),),
            grid=grid16)
        with pytest.raises(InadmissibleKernel):
            reduce_volterra_game(vspec)

    @pytest.mark.parametrize("q_second, message", [
        (10.0, "assembled instantaneous cost loses definiteness: min eig -2.656e+00 < -p"),
        (0.0, "player quadratic form loses concavity: min eig -2.656e+00 < -lam"),
    ], ids=["A2hat-check", "player-form-check"])
    def test_assembled_cost_must_stay_definite(self, grid16, q_second, message):
        # a control cross q = (5, 0) on a unit-kernel state makes A2hat indefinite past
        # -p.  A running cost on the second component, driven by ubar (u^1 at N = 1),
        # adds A1 to the player's form and keeps it concave, so the A2hat check
        # refuses; without that cost the player-form check refuses first
        n, ext = grid16.n, horizon_grid(grid16)
        rows = discretize_kernel(ConstantLower(c=1.0), ext).values[:, :n]
        dblock = np.zeros((n + 1, n, 2, 2))
        dblock[:, :, 0, 0], dblock[:, :, 1, 1] = rows, -rows
        vspec = VolterraGameSpec(
            n_players=1, p=1.0, qmat=np.diag([0.0, q_second]), smat=np.zeros((2, 2)),
            qvec=np.array([5.0, 0.0]), dblock=dblock,
            d_signals=((deterministic(ext, 1.0), deterministic(ext, 0.0)),),
            s_terminals=(TerminalVector.zero(),), grid=grid16)
        with pytest.raises(InadmissibleKernel, match=re.escape(message)):
            reduce_volterra_game(vspec)

    def test_random_vspec_fidelity_symmetric_profiles(self, grid16):
        # 20 random strategies, each played by every player: reduced static
        # objective equals the direct dynamic simulation to rounding
        rng = np.random.default_rng(5)
        g = build_grid(1.0, 6)
        n, ext = g.n, horizon_grid(g)
        for trial in range(3):
            dblock = np.zeros((n + 1, n, 2, 2))
            for a in range(2):
                for b in range(2):
                    rows = discretize_kernel(
                        ExponentialDecay(c=rng.uniform(0.1, 0.6),
                                         rho=rng.uniform(0.5, 2.0)), g).values
                    dblock[:n, :, a, b] = rows
                    dblock[n, :, a, b] = rows[n - 1]  # any terminal row works
            Qr = rng.standard_normal((2, 2)) * 0.3
            Sr = rng.standard_normal((2, 2)) * 0.3
            q = rng.standard_normal(2) * 0.5
            sigs = tuple((deterministic(ext, np.append(rng.standard_normal(n),
                                                       rng.standard_normal())),
                          deterministic(ext, np.append(rng.standard_normal(n),
                                                       rng.standard_normal())))
                         for _ in range(2))
            terms = tuple(TerminalVector(rng.standard_normal(2), {}) for _ in range(2))
            vspec = VolterraGameSpec(n_players=2, p=2.0, qmat=Qr, smat=Sr, qvec=q,
                                     dblock=dblock, d_signals=sigs,
                                     s_terminals=terms, grid=g)
            game = reduce_volterra_game(vspec)
            bundle = draw_noise(g, {"x"}, 1, 0)
            dW = bundle.path(0)
            for _ in range(20):
                u = rng.standard_normal(n)
                prof = np.stack([u, u])
                for i in range(2):
                    Jd = direct_objective(vspec, i, prof, dW)
                    Js = objective(game, i, prof[:, None, :], bundle)
                    assert abs(Jd - Js) <= 1e-8 * max(1.0, abs(Jd))

        # noisy state signals, shared across players by object ("common") and
        # by tag, on the 2m cubature paths dW = +-sqrt(m dt) e_(tag, r): they
        # carry every first and second moment of the m increments, so for
        # strategies affine in past increments each objective's path average is
        # its exact expectation, and the two must agree
        tags = ("common", "x0", "x1")
        m = len(tags) * n
        draws = np.sqrt(m * g.dt) * np.concatenate([np.eye(m), -np.eye(m)])
        P = 2 * m
        bundle = NoiseBundle(g, P, 0, {t: draws[:, k * n:(k + 1) * n]
                                       for k, t in enumerate(tags)})
        for trial in range(3):
            Qr = rng.standard_normal((2, 2)) * 0.3
            Sr = rng.standard_normal((2, 2)) * 0.3
            q = rng.standard_normal(2) * 0.5
            common = ou(ext, kappa=rng.uniform(0.5, 2.0), sigma=0.4, x0=0.2, noise="common")
            sigs = tuple((deterministic(ext, np.append(rng.standard_normal(n),
                                                       rng.standard_normal()))
                          + rng.uniform(0.2, 0.8) * martingale(ext, sigma=0.5, noise=f"x{i}")
                          + rng.uniform(-0.5, 0.5) * common,
                          common)
                         for i in range(2))
            terms = tuple(TerminalVector(rng.standard_normal(2),
                                         {"common": rng.standard_normal((2, n)),
                                          f"x{1 - i}": rng.standard_normal((2, n))})
                          for i in range(2))
            vspec = VolterraGameSpec(n_players=2, p=2.0, qmat=Qr, smat=Sr, qvec=q,
                                     dblock=dblock, d_signals=sigs,
                                     s_terminals=terms, grid=g)
            game = reduce_volterra_game(vspec)
            for _ in range(5):
                u = rng.standard_normal(n) + sum(
                    bundle.increments[t] @ np.tril(rng.standard_normal((n, n)), -1).T
                    for t in tags)                                   # (P, n), adapted
                prof = np.stack([u, u])
                for i in range(2):
                    Jd = np.mean([direct_objective(vspec, i, prof[:, p], bundle.path(p))
                                  for p in range(P)])
                    Js = objective(game, i, prof, bundle)
                    assert abs(Jd - Js) <= 1e-8 * max(1.0, abs(Jd))


class TestLiquidation:
    def params(self, N=2, lam=1.0, phi=0.5, rho_term=1.0, x0=(1.0, 2.0), **kw):
        p = dict(N=N, lam=lam, phi=phi, rho_term=rho_term,
                 propagator=ExponentialDecay(c=1.0, rho=2.0), x0=list(x0))
        p.update(kw)
        return p

    def test_martingale_signal_driver_closed_form(self, grid16):
        # b^i = 2 (rho + phi (T - t)) x0 in the continuum; the discrete tail is
        # strict, so agreement is exact in discrete form and O(dt) to the continuum
        game, _ = build_liquidation_game(self.params(signal_sigma=[0.3, 0.0]), grid16)
        cb = game.b_signals[0]
        t = grid16.times
        discrete = 2 * 1.0 * 1.0 + 2 * 0.5 * 1.0 * grid16.dt * (grid16.n - 1 - np.arange(16))
        cont = 2 * (1.0 + 0.5 * (1.0 - t)) * 1.0
        assert np.max(np.abs(cb.mean - discrete)) < 1e-12
        assert np.max(np.abs(cb.mean - cont)) <= 2 * 0.5 * 1.0 * grid16.dt + 1e-12
        # price-noise weights cancel: E_t[P_t - P_T] = 0 for martingale prices
        assert not cb.weights

    def test_common_b0_is_zero(self, grid16):
        game, _ = build_liquidation_game(self.params(), grid16)
        cb0 = game.b0_signal
        assert np.max(np.abs(cb0.mean)) < 1e-12

    def test_zero_inventory_zero_strategy(self, grid16):
        game, _ = build_liquidation_game(self.params(x0=(0.0, 0.0)), grid16)
        bundle = draw_noise(grid16, {"price0"}, 1, 0)
        sol = solve_nash(game, bundle)
        assert np.max(np.abs(sol.u)) < 1e-12

    def test_terminal_inventory_identity(self, grid16):
        u = np.sin(grid16.times) + 0.3
        path, terminal = inventory_path(2.0, u, grid16)
        assert terminal == 2.0 - float(np.sum(u)) * grid16.dt
        assert path[0] == 2.0

    def test_terminal_inventory_monotone_in_terminal_penalty(self):
        g = build_grid(1.0, 64)
        finals = []
        for rho_term in (1.0, 10.0, 100.0):
            game, _ = build_liquidation_game(
                self.params(N=1, x0=(1.0,), rho_term=rho_term), g)
            bundle = draw_noise(g, {"w"}, 1, 0)
            sol = solve_nash(game, bundle)
            finals.append(abs(inventory_path(1.0, sol.u[0, 0], g)[1]))
        assert finals[0] > finals[1] > finals[2]
        assert finals[2] <= 1e-2

    def test_fidelity_symmetric_profiles(self, grid16):
        g = build_grid(1.0, 6)
        game, vspec = build_liquidation_game(self.params(), g)
        bundle = draw_noise(g, {"w"}, 1, 0)
        dW = bundle.path(0)
        rng = np.random.default_rng(7)
        for _ in range(20):
            u = rng.standard_normal(6)
            prof = np.stack([u, u])
            for i in range(2):
                assert abs(direct_objective(vspec, i, prof, dW)
                           - objective(game, i, prof[:, None, :], bundle)) <= 1e-10


class TestSystemic:
    def params(self, N=3, beta=0.3, eps=0.25, cost_c=1.0, **kw):
        p = dict(N=N, beta=beta, eps=eps, cost_c=cost_c,
                 sigma=[0.0] * N, x0=[1.0, 0.5, -0.2][:N],
                 delay=DelayMeasure(atoms=((0.0, 1.0), (0.3, -1.0))))
        p.update(kw)
        return p

    def test_assembles_when_convex(self, grid16):
        game, _ = build_systemic_game(self.params(), grid16)
        assert game.lam == 0.5

    def test_convexity_violation(self, grid16):
        with pytest.raises(ConvexityViolation):
            build_systemic_game(self.params(beta=0.6, eps=0.25), grid16)

    def test_drift_cells_accumulate_into_the_reserves(self, grid16):
        # h[i][j] is bank i's drift rate on cell j: the reserve gains h dt per cell passed
        h = [[0.5] * 16, [-1.0] * 16, list(np.arange(16.0))]
        _, vspec = build_systemic_game(self.params(h=h), grid16)
        dt = grid16.dt
        for (reserve, _), x0, rates in zip(vspec.d_signals, [1.0, 0.5, -0.2], h):
            passed = np.concatenate([[0.0], np.cumsum(rates)]) * dt
            assert np.allclose(reserve.mean[:-1], x0 + passed[:-1], rtol=0.0, atol=1e-15)
            assert abs(reserve.mean[-1] - (x0 + passed[-1])) <= 1e-14
        with pytest.raises(ShapeError):
            build_systemic_game(self.params(h=[rates[:15] for rates in h]), grid16)

    def test_delay_beyond_horizon_is_constant_kernel(self, grid16):
        _, vspec = build_systemic_game(
            self.params(delay=DelayMeasure(atoms=((0.0, 1.0), (1.5, -1.0)))), grid16)
        C = discretize_kernel(ConstantLower(c=1.0), grid16)
        assert np.array_equal(vspec.dblock[:16, :, 0, 0], C.values)

    def test_no_incentive_when_symmetric_and_beta_zero(self, grid16):
        game, _ = build_systemic_game(
            self.params(beta=0.0, x0=[1.0, 1.0, 1.0]), grid16)
        bundle = draw_noise(grid16, {"w"}, 1, 0)
        sol = solve_nash(game, bundle)
        assert np.max(np.abs(sol.u)) <= 1e-12

    def systemic_equilibrium(self, grid16):
        game, _ = build_systemic_game(
            self.params(beta=0.3, eps=0.25, cost_c=1.0,
                        sigma=[0.2, 0.2, 0.2]), grid16)
        tags = set()
        for f in game.b_signals:
            tags |= f.noise_tags()
        bundle = draw_noise(grid16, tags, 300, 5)
        return game, bundle, solve_nash(game, bundle)

    def test_equilibrium_beats_zero_strategy(self, grid16):
        game, bundle, sol = self.systemic_equilibrium(grid16)
        zero = np.zeros_like(sol.u)
        for i in range(3):
            j_eq = objective(game, i, sol.u, bundle)
            j_zero = objective(game, i, zero, bundle)
            per = (objective_per_path(game, i, zero, bundle)
                   - objective_per_path(game, i, sol.u, bundle))
            se = per.std(ddof=1) / np.sqrt(len(per))
            assert j_eq >= j_zero - 3 * se

    def test_per_path_gaps_average_to_objective_gap(self, grid16):
        # the per-path objective keeps the b0 extras, so its gaps average to
        # the objective difference that the standard errors above describe
        game, bundle, sol = self.systemic_equilibrium(grid16)
        assert any(extra is not None for extra in game.b0_extras)
        zero = np.zeros_like(sol.u)
        for i in range(3):
            per = (objective_per_path(game, i, sol.u, bundle)
                   - objective_per_path(game, i, zero, bundle))
            gap = objective(game, i, sol.u, bundle) - objective(game, i, zero, bundle)
            assert abs(per.mean() - gap) <= 1e-12

    def test_fidelity_symmetric_profiles(self):
        g = build_grid(1.0, 6)
        game, vspec = build_systemic_game(self.params(), g)
        bundle = draw_noise(g, {"w"}, 1, 0)
        dW = bundle.path(0)
        rng = np.random.default_rng(11)
        for _ in range(20):
            u = rng.standard_normal(6)
            prof = np.stack([u, u, u])
            for i in range(3):
                assert abs(direct_objective(vspec, i, prof, dW)
                           - objective(game, i, prof[:, None, :], bundle)) <= 1e-10

    def test_fidelity_heterogeneous_when_beta_zero(self):
        # beta = 0 kills the q-vector, the state blocks are symmetric, and the
        # reduction is exact for arbitrary profiles
        g = build_grid(1.0, 6)
        game, vspec = build_systemic_game(
            self.params(N=2, beta=0.0, x0=[1.0, 0.4]), g)
        bundle = draw_noise(g, {"w"}, 1, 0)
        dW = bundle.path(0)
        rng = np.random.default_rng(13)
        for _ in range(20):
            prof = rng.standard_normal((2, 6))
            for i in range(2):
                assert abs(direct_objective(vspec, i, prof, dW)
                           - objective(game, i, prof[:, None, :], bundle)) <= 1e-10


class TestAdvertising:
    def params(self, N=2, lam=1.0, beta=0.7, **kw):
        p = dict(N=N, lam=lam, beta=beta, forgetting=DelayMeasure(),
                 competition=DelayMeasure(), sigma=[0.0] * N)
        p.update(kw)
        return p

    def test_classic_constant_strategy(self, grid16):
        game, _ = build_advertising_game(self.params(), grid16)
        bundle = draw_noise(grid16, {"w"}, 1, 0)
        sol = solve_nash(game, bundle)
        assert np.max(np.abs(sol.u - 0.7 ** 2 / 2.0)) <= 1e-12

    def test_beta_zero_no_advertising(self, grid16):
        game, _ = build_advertising_game(self.params(beta=0.0), grid16)
        bundle = draw_noise(grid16, {"w"}, 1, 0)
        sol = solve_nash(game, bundle)
        assert np.max(np.abs(sol.u)) < 1e-14

    def test_fidelity_heterogeneous_profiles(self):
        g = build_grid(1.0, 6)
        game, vspec = build_advertising_game(self.params(
            forgetting=DelayMeasure(atoms=((0.0, -0.4),)),
            competition=DelayMeasure(atoms=((0.0, 0.5), (0.2, -0.5))),
            sigma=[0.3, 0.2]), g)
        tags = set()
        for p_sig, r_sig in vspec.d_signals:
            tags |= p_sig.noise_tags() | r_sig.noise_tags()
        bundle = draw_noise(g, tags or {"w"}, 2, 3)
        rng = np.random.default_rng(17)
        for trial in range(20):
            prof = rng.standard_normal((2, 6))
            dW = bundle.path(trial % 2)
            one_path = NoiseBundle(g, 1, bundle.seed, {tag: w[None] for tag, w in dW.items()})
            for i in range(2):
                jd = direct_objective(vspec, i, prof, dW)
                jd0 = direct_objective(vspec, i, np.zeros((2, 6)), dW)
                js = objective(game, i, prof[:, None, :], one_path)
                js0 = objective(game, i, np.zeros((2, 1, 6)), one_path)
                # compare the strategy-dependent parts; the constant c^i is an
                # expectation while the direct value is pathwise
                assert abs((jd - jd0) - (js - js0)) <= 1e-10

    @pytest.mark.parametrize("n", [16, 65])
    def test_state_blocks_match_a_state_solve(self, n):
        # the blocks against solve_linear_state on the grid extended to T, with the
        # control's drive m^i[k] = beta sum_{j<k} u^i_j dt formed here
        g = build_grid(1.0, n)
        forgetting = DelayMeasure(atoms=((0.0, -0.3),))
        competition = DelayMeasure(atoms=((0.0, 0.5), (0.2, -0.5)))
        _, vspec = build_advertising_game(self.params(
            N=3, forgetting=forgetting, competition=competition, sigma=[0.3, 0.2, 0.1]), g)
        ext = build_grid(g.horizon + g.dt, n + 1)
        u = np.random.default_rng(n).standard_normal((3, n))
        m = 0.7 * np.concatenate([np.zeros((3, 1)), np.cumsum(u, axis=1) * g.dt], axis=1)
        x = solve_linear_state(m, discretize_kernel(forgetting, ext),
                               discretize_kernel(competition, ext))
        d = vspec.dblock
        blocks = (d[:, :, 0, 0] @ u.T + d[:, :, 0, 1] @ u.mean(axis=0)[:, None]) * g.dt
        assert np.max(np.abs(x - blocks.T)) <= 1e-13

    def test_oracle_match_with_competition_delay(self):
        from volterra_games.oracle import build_tree, compare, discrete_nash_kkt, solve_game_on_tree

        g = build_grid(1.0, 6)
        game, _ = build_advertising_game(self.params(
            competition=DelayMeasure(atoms=((0.0, 0.8),))), g)
        tree = build_tree(game, branching=1, depth=0)
        diff = compare(discrete_nash_kkt(game, tree), solve_game_on_tree(game, tree))
        assert diff <= 1e-8


class TestBuilderInvariants:
    def test_games_pass_validation(self, grid16):
        liq, _ = build_liquidation_game(dict(
            N=2, lam=1.0, phi=0.5, rho_term=1.0,
            propagator=ExponentialDecay(c=1.0, rho=2.0), x0=[1.0, 2.0],
            signal_sigma=[0.2, 0.1]), grid16)
        sys_, _ = build_systemic_game(dict(
            N=2, beta=0.3, eps=0.25, cost_c=1.0, sigma=[0.2, 0.3], x0=[1.0, 0.5],
            delay=DelayMeasure(atoms=((0.0, 1.0), (0.3, -1.0)))), grid16)
        adv, _ = build_advertising_game(dict(
            N=2, lam=1.0, beta=0.5, forgetting=DelayMeasure(),
            competition=DelayMeasure(atoms=((0.0, 0.5),)), sigma=[0.2, 0.2]), grid16)
        for game in (liq, sys_, adv):
            report = validation_report(game, paths=4, seed=0)
            assert report["passed"], [c for c in report["checks"] if not c["passed"]]

    def test_concavity_spot_checks(self, grid16):
        game, _ = build_systemic_game(dict(
            N=2, beta=0.3, eps=0.25, cost_c=1.0, sigma=[0.0, 0.0], x0=[1.0, 0.5],
            delay=DelayMeasure(atoms=((0.0, 1.0), (0.3, -1.0)))), grid16)
        bundle = draw_noise(grid16, {"w"}, 1, 0)
        sol = solve_nash(game, bundle)
        rng = np.random.default_rng(19)
        for _ in range(20):
            assert concavity_check(game, 0, sol.u, rng.standard_normal(16), bundle)


class TestStochasticStateReduction:
    def test_expectation_level_fidelity(self):
        # with stochastic state drivers, the reduced drivers carry conditional
        # projections: direct and reduced objectives agree in expectation for
        # adapted strategies (pathwise only when the drivers are deterministic)
        rng = np.random.default_rng(5)
        g = build_grid(1.0, 6)
        n, N = g.n, 2
        dblock = np.zeros((n + 1, n, 2, 2))
        for a in range(2):
            for b in range(2):
                fam = ExponentialDecay(c=rng.uniform(0.2, 0.6), rho=rng.uniform(0.5, 1.5))
                dblock[:n, :, a, b] = discretize_kernel(fam, g).values
                dblock[n, :, a, b] = discretize_kernel(fam, horizon_grid(g)).values[n, :n]
        Q = rng.standard_normal((2, 2)) * 0.2
        S = rng.standard_normal((2, 2)) * 0.2
        q = rng.standard_normal(2) * 0.4
        ext = horizon_grid(g)
        sigs = tuple((martingale(ext, sigma=0.5, noise=f"w{i}"),
                      ou(ext, kappa=1.0, sigma=0.4, x0=0.3, noise=f"w{i}")) for i in range(N))
        terms = tuple(TerminalVector(rng.standard_normal(2), {}) for _ in range(N))
        vspec = VolterraGameSpec(n_players=N, p=2.0, qmat=Q, smat=S, qvec=q,
                                 dblock=dblock, d_signals=sigs, s_terminals=terms, grid=g)
        game = reduce_volterra_game(vspec)

        M = 4000
        bundle = draw_noise(g, {"w0", "w1"}, M, seed=123)
        u = rng.standard_normal(n)
        prof = np.tile(u, (N, 1))
        zero = np.zeros((N, n))
        direct = np.empty(M)
        for p in range(M):
            dW = bundle.path(p)
            direct[p] = (direct_objective(vspec, 0, prof, dW)
                         - direct_objective(vspec, 0, zero, dW))
        reduced = (objective(game, 0, np.repeat(prof[:, None, :], M, axis=1), bundle)
                   - objective(game, 0, np.zeros((N, M, n)), bundle))
        se = direct.std(ddof=1) / np.sqrt(M)
        assert abs(direct.mean() - reduced) <= 4 * se


def _liquidation_vspec(grid):
    return build_liquidation_game(TestLiquidation().params(), grid)[1]


@pytest.mark.parametrize("make, error", [
    (lambda g: replace(_liquidation_vspec(g), p=-1.0), InadmissibleKernel),
    (lambda g: replace(_liquidation_vspec(g), dblock=np.zeros((g.n, g.n, 2, 2))), ShapeError),
    (lambda g: replace(_liquidation_vspec(g), d_signals=_liquidation_vspec(g).d_signals[:1]),
     ShapeError),
    (lambda g: build_systemic_game(TestSystemic().params(beta=0.0, eps=0.0), g),
     InadmissibleKernel),
    (lambda g: build_systemic_game(TestSystemic().params(cost_c=-1.0), g), InadmissibleKernel),
    (lambda g: build_advertising_game(TestAdvertising().params(lam=0.0), g), InadmissibleKernel),
    (lambda g: build_advertising_game(TestAdvertising().params(beta=-0.1), g),
     InadmissibleKernel),
], ids=["p-negative", "dblock-shape", "player-missing", "systemic-eps-zero",
        "systemic-cost-negative", "advertising-lam-zero", "advertising-beta-negative"])
def test_input_checks(grid16, make, error):
    with pytest.raises(error):
        make(grid16)

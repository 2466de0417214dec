import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volterra_games.errors import NonConcave, ShapeError, SizeExceeded
from volterra_games.grid_ops import (
    ConstantLower,
    ExponentialDecay,
    GridKernel,
    build_grid,
    discretize_kernel,
    zero_kernel,
)
from volterra_games.model_builders import (
    DelayMeasure,
    build_advertising_game,
    build_liquidation_game,
    build_systemic_game,
)
from volterra_games.nplayer import GameSpec
from volterra_games.oracle import (
    build_tree,
    compare,
    discrete_nash_kkt,
    nodes_to_leaves,
    solve_game_on_tree,
    strategies_to_nodes,
    tree_objective,
    _node_values,
)
from volterra_games.signals import brownian_weighted, deterministic, martingale, ou

from references import kkt_gradient_norm


def small_spec(grid, N=2, zero=False, signal="martingale", lam=1.0):
    Z = zero_kernel(grid)
    if zero:
        a1 = a2 = a3 = Z
    else:
        a1 = discretize_kernel(ExponentialDecay(c=0.3, rho=1.0), grid)
        a2 = discretize_kernel(ExponentialDecay(c=0.7, rho=2.0), grid)
        a3 = discretize_kernel(ConstantLower(c=0.25), grid)
    sigs = []
    for i in range(N):
        det = deterministic(grid, 1.0 + 0.3 * i + 0.2 * grid.times)
        if signal == "martingale":
            sigs.append(det + martingale(grid, sigma=0.5, noise="common"))
        elif signal == "ou":
            sigs.append(det + ou(grid, kappa=1.5, sigma=0.4, x0=0.2, noise="common"))
        else:
            sigs.append(det)
    return GameSpec(n_players=N, lam=lam, a1=a1, a2hat=a2, a3=a3,
                    b_signals=tuple(sigs), b0_signal=deterministic(grid, 0.4), grid=grid)


class TestTree:
    def test_branching_one_single_path(self):
        g = build_grid(1.0, 6)
        spec = small_spec(g, signal="deterministic")
        tree = build_tree(spec, branching=1, depth=5)
        assert tree.n_leaves == 1
        assert tree.total_nodes == 6
        assert tree.leaf_probs.sum() == 1.0

    def test_level_probabilities_sum_to_one(self):
        g = build_grid(1.0, 6)
        tree = build_tree(small_spec(g), branching=3, depth=3)
        for k in range(6):
            total = sum(tree.node_prob(k, h) for h in range(tree.level_size(k)))
            assert abs(total - 1.0) < 1e-12

    def test_increment_moments(self):
        g = build_grid(1.0, 6)
        for b in (2, 3):
            tree = build_tree(small_spec(g), branching=b, depth=4)
            inc = tree.increments["common"]
            p = tree.leaf_probs
            for s in range(4):
                assert abs(p @ inc[:, s]) < 1e-15                    # mean 0
                assert abs(p @ inc[:, s] ** 2 - g.dt) < 1e-15        # variance dt
                assert abs(p @ inc[:, s] ** 3) < 1e-15               # third moment 0

    def test_tree_conditional_means_match_closed_form_surfaces(self):
        # probability-weighted sums over descendants reproduce the family's
        # conditional-expectation surface exactly
        g = build_grid(1.0, 6)
        spec = small_spec(g)
        tree = build_tree(spec, branching=2, depth=4)
        bundle = tree.bundle()
        cs = spec.b_signals[0]
        both = [cs.values_and_surface(bundle.path(p)) for p in range(tree.n_leaves)]
        vals = np.stack([v for v, _ in both])
        surfs = np.stack([s for _, s in both])
        for k in (1, 2, 3):
            for h in range(tree.level_size(k)):
                lo, hi = tree.leaf_range(k, h)
                w = tree.leaf_probs[lo:hi] / tree.node_prob(k, h)
                for r in range(k, 6):
                    cond = w @ vals[lo:hi, r]
                    assert abs(cond - surfs[lo, k, r]) < 1e-14

    def test_node_measurability_of_leaf_values(self):
        g = build_grid(1.0, 6)
        spec = small_spec(g, signal="ou")
        tree = build_tree(spec, branching=2, depth=5)
        bundle = tree.bundle()
        cs = spec.b_signals[1]
        vals = np.stack([cs.values_and_surface(bundle.path(p))[0]
                         for p in range(tree.n_leaves)])
        for k in range(6):
            for h in range(tree.level_size(k)):
                lo, hi = tree.leaf_range(k, h)
                assert np.max(np.abs(vals[lo:hi, k] - vals[lo, k])) < 1e-14

    def test_size_budget(self):
        g = build_grid(1.0, 10)
        spec = small_spec(g, N=3)
        with pytest.raises(SizeExceeded):
            build_tree(spec, branching=3, depth=9)


class TestKKT:
    def test_zero_kernels_closed_form(self):
        g = build_grid(1.0, 5)
        spec = small_spec(g, N=2, zero=True)
        tree = build_tree(spec, branching=2, depth=3)
        u = discrete_nash_kkt(spec, tree)
        bundle = tree.bundle()
        for i in range(2):
            cb, cb0 = spec.b_signals[i], spec.b0_signal
            leaf = np.stack([cb.values_and_surface(bundle.path(p))[0]
                             + cb0.values_and_surface(bundle.path(p))[0] / 2
                             for p in range(tree.n_leaves)])
            assert np.max(np.abs(u[i] - _node_values(tree, leaf) / 2.0)) < 1e-12

    def test_single_player_matches_fredholm_route(self):
        g = build_grid(1.0, 4)
        Z = zero_kernel(g)
        spec = GameSpec(n_players=1, lam=1.0, a1=Z,
                        a2hat=discretize_kernel(ConstantLower(c=1.0), g), a3=Z,
                        b_signals=(deterministic(g, 1.0 + g.times),),
                        b0_signal=deterministic(g, 0.0), grid=g)
        tree = build_tree(spec, branching=1, depth=3)
        diff = compare(discrete_nash_kkt(spec, tree), solve_game_on_tree(spec, tree))
        assert diff <= 1e-10

    def test_three_players_binomial_depth(self):
        g = build_grid(1.0, 8)
        spec = small_spec(g, N=3)
        tree = build_tree(spec, branching=2, depth=6)
        diff = compare(discrete_nash_kkt(spec, tree), solve_game_on_tree(spec, tree))
        assert diff <= 1e-8

    def test_branching_one_equals_deterministic_solver(self):
        g = build_grid(1.0, 6)
        spec = small_spec(g, N=2, signal="deterministic")
        tree = build_tree(spec, branching=1, depth=0)
        uo = discrete_nash_kkt(spec, tree)
        us = solve_game_on_tree(spec, tree)
        assert compare(uo, us) <= 1e-10

    def test_non_concave_detected(self):
        # mixed-sign kernel at the concavity boundary: the spec-level check
        # passes (completed form just above -lam) but the tree Hessian fails
        g = build_grid(1.0, 4)
        Z = zero_kernel(g)
        V = np.zeros((4, 4))
        for i in range(1, 4):
            V[i, i - 1] = 0.2
            V[i, :max(0, i - 1)] = -0.5
        spec = GameSpec(n_players=1, lam=0.05, a1=Z, a2hat=GridKernel(g, V), a3=Z,
                        b_signals=(deterministic(g, 1.0),),
                        b0_signal=deterministic(g, 0.0), grid=g,
                        kernel_check="concave")
        tree = build_tree(spec, branching=1, depth=0)
        with pytest.raises(NonConcave):
            discrete_nash_kkt(spec, tree)


class TestOptimality:
    def test_gradient_vanishes_at_kkt(self):
        g = build_grid(1.0, 5)
        spec = small_spec(g, N=2)
        tree = build_tree(spec, branching=2, depth=3)
        u = discrete_nash_kkt(spec, tree)
        assert kkt_gradient_norm(spec, tree, u) <= 1e-6

    def test_unilateral_deviations_never_improve(self):
        g = build_grid(1.0, 5)
        spec = small_spec(g, N=2)
        tree = build_tree(spec, branching=2, depth=3)
        u = discrete_nash_kkt(spec, tree)
        rng = np.random.default_rng(3)
        base = [tree_objective(spec, tree, i, u) for i in range(2)]
        for _ in range(20):
            i = rng.integers(0, 2)
            dev = u.copy()
            dev[i] += rng.standard_normal(tree.total_nodes) * rng.uniform(0.05, 0.5)
            assert tree_objective(spec, tree, i, dev) <= base[i] + 1e-9

    def test_compare_reports_max_abs(self):
        g = build_grid(1.0, 4)
        spec = small_spec(g, N=2)
        tree = build_tree(spec, branching=2, depth=2)
        u = discrete_nash_kkt(spec, tree)
        assert compare(u, u) == 0.0
        pert = u.copy()
        pert[1, 3] += 0.125
        assert compare(u, pert) == 0.125

    def test_node_leaf_roundtrip(self):
        g = build_grid(1.0, 5)
        spec = small_spec(g, N=2)
        tree = build_tree(spec, branching=2, depth=3)
        u = discrete_nash_kkt(spec, tree)
        round_trip = strategies_to_nodes(tree, nodes_to_leaves(tree, u))
        assert np.array_equal(round_trip, u)


class TestEdgeCases:
    def test_power_law_game_oracle_match(self):
        g = build_grid(1.0, 6)
        from volterra_games.grid_ops import PowerLaw
        spec = GameSpec(
            n_players=2, lam=1.0,
            a1=zero_kernel(g),
            a2hat=discretize_kernel(PowerLaw(c=0.3, alpha=0.45), g),
            a3=discretize_kernel(PowerLaw(c=0.2, alpha=0.25), g),
            b_signals=tuple(deterministic(g, 1.0 + 0.2 * i)
                            + martingale(g, sigma=0.4, noise="common") for i in range(2)),
            b0_signal=deterministic(g, 0.3), grid=g)
        tree = build_tree(spec, branching=2, depth=5)
        diff = compare(discrete_nash_kkt(spec, tree), solve_game_on_tree(spec, tree))
        assert diff <= 1e-8

    def test_ou_signal_game_oracle_match(self):
        g = build_grid(1.0, 6)
        spec = small_spec(g, N=2, signal="ou")
        tree = build_tree(spec, branching=3, depth=3)
        diff = compare(discrete_nash_kkt(spec, tree), solve_game_on_tree(spec, tree))
        assert diff <= 1e-8

    def test_minimal_grid_game(self):
        g = build_grid(1.0, 2)
        spec = small_spec(g, N=2)
        tree = build_tree(spec, branching=2, depth=1)
        diff = compare(discrete_nash_kkt(spec, tree), solve_game_on_tree(spec, tree))
        assert diff <= 1e-10


class TestDynamicStateToyGame:
    def test_controlled_state_game_with_anticipative_signal(self):
        # dX^i = (a X^i + u^i) dt + dW^i with reward int(-u^2 + ubar) dt + (X_T)^2
        # reduces by variation of constants to a static game with a signed
        # instantaneous-cost kernel and an anticipative weighted signal
        from volterra_games.grid_ops import GridKernel, symmetrized_form

        a, T, n, N = -2.0, 1.0, 6, 2
        g = build_grid(T, n)
        t = g.times
        vals = np.zeros((n, n))
        for i in range(1, n):
            for j in range(i):
                s0 = t[j]
                cell = (np.exp(-a * s0) - np.exp(-a * (s0 + g.dt))) / (a * g.dt)
                vals[i, j] = -2.0 * np.exp(a * (2 * T - t[i])) * cell
        a2hat = GridKernel(g, vals)
        assert np.linalg.eigvalsh(symmetrized_form(a2hat))[0] > -1.0   # strictly concave

        w = 2.0 * np.exp(a * (2 * T - t[:, None] - t[None, :]))
        b_sigs = tuple(brownian_weighted(g, np.zeros(n), w, noise=f"toy{i}") for i in range(N))
        spec = GameSpec(n_players=N, lam=1.0, a1=zero_kernel(g), a2hat=a2hat,
                        a3=zero_kernel(g), b_signals=b_sigs,
                        b0_signal=deterministic(g, 1.0), grid=g,
                        kernel_check="concave")
        tree = build_tree(spec, branching=2, depth=2)
        diff = compare(discrete_nash_kkt(spec, tree), solve_game_on_tree(spec, tree))
        assert diff <= 1e-8


def unit(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def reduced_games(draw):
    """A reduced worked game and its tree: 2 systemic banks of distinct sigma > 0 at
    n <= 5, branching 2 and depth n - 1 (4^(n - 1) <= 256 leaves over their 2 tags), or
    liquidation or advertising at random parameters.  Liquidation's costs stay small
    against lam on T <= 1, so each player's problem on the tree is concave, as the
    oracle requires."""
    model = draw(st.sampled_from(["systemic", "liquidation", "advertising"]))
    grid = build_grid(draw(unit(0.5, 1.0)), draw(st.integers(2, 5)))
    if model == "systemic":
        beta = draw(unit(0.05, 0.5))
        sigma = draw(st.lists(unit(0.05, 0.5), min_size=2, max_size=2, unique=True))
        game, _ = build_systemic_game(dict(
            N=2, beta=beta, eps=beta ** 2 + draw(unit(0.05, 1.0)), cost_c=draw(unit(0.0, 2.0)),
            sigma=sigma, x0=draw(st.lists(unit(-1.0, 1.0), min_size=2, max_size=2)),
            delay=DelayMeasure(atoms=((0.0, 1.0), (draw(unit(0.1, 1.5)), -1.0)))), grid)
        assert game.noise_tags() == {"reserve0", "reserve1"}
        return game, build_tree(game, branching=2, depth=grid.n - 1)
    N = draw(st.integers(1, 3))
    players = st.lists(unit(0.0, 0.5), min_size=N, max_size=N)
    if model == "liquidation":
        game, _ = build_liquidation_game(dict(
            N=N, lam=draw(unit(1.0, 2.0)), phi=draw(unit(0.1, 0.5)),
            rho_term=draw(unit(0.1, 0.5)),
            propagator=ExponentialDecay(c=draw(unit(0.1, 1.0)), rho=draw(unit(0.2, 3.0))),
            x0=draw(st.lists(unit(-2.0, 2.0), min_size=N, max_size=N)),
            signal_sigma=draw(players), common_signal_sigma=draw(unit(0.0, 0.5))), grid)
    else:
        game, _ = build_advertising_game(dict(
            N=N, lam=draw(unit(0.5, 2.0)), beta=draw(unit(0.0, 1.0)),
            forgetting=DelayMeasure(atoms=((0.0, -draw(unit(0.0, 0.5))),)),
            competition=DelayMeasure(atoms=((0.0, draw(unit(0.0, 0.8))),
                                            (draw(unit(0.0, 1.0)), -draw(unit(0.0, 0.8))))),
            sigma=draw(players)), grid)
    # a martingale price and a linear goodwill target leave no noise tag in b^i: the
    # tree is one path, and the draw checks the deterministic solve of a reduced game
    assert not game.noise_tags()
    return game, build_tree(game, branching=2, depth=grid.n - 1)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(reduced_games())
def test_reduced_games_match_the_oracle(game_and_tree):
    # the reduction's noise tags (systemic's reserves) reach the oracle's tree, not one path
    game, tree = game_and_tree
    diff = compare(discrete_nash_kkt(game, tree), solve_game_on_tree(game, tree))
    assert diff <= 1e-8


@pytest.mark.parametrize("make", [
    lambda g: build_tree(small_spec(g), 4, 2),
    lambda g: compare(np.zeros((2, 5)), np.zeros((1, 5))),
], ids=["branching-4", "layouts-differ"])
def test_input_checks(make):
    with pytest.raises(ShapeError):
        make(build_grid(1.0, 8))

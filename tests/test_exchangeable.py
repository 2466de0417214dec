"""Exchangeable players: each distinct (weights, mean strategy, b^0) triple is solved once.

Players and tags whose parts depend on equal weight values share that work.
Sharing goes by value, so it must change no result: solve_nash on a game
equals, bitwise, solve_nash on a copy in which every array is a fresh copy,
and the copy does the same work.  The work counts pin how much is shared.
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from volterra_games import nplayer, signals
from volterra_games.cli import build_game_from_config
from volterra_games.fredholm import FredholmSolver
from volterra_games.grid_ops import build_grid
from volterra_games.nplayer import mean_driver, solve_nash
from volterra_games.signals import CompiledSignal, draw_noise

CONFIGS = Path(__file__).resolve().parent.parent / "run_configs"


def game(name, players=None, sigmas=None, n=16):
    """A shipped config's game on n points; systemic widened to `players` banks.

    The banks' x0 cycle over the config's values and their sigma over `sigmas`
    (default: the config's).
    """
    cfg = json.loads((CONFIGS / f"{name}.json").read_text())
    model = cfg["model"]
    if players is not None:
        model["N"] = players
        sigmas = model["sigma"] if sigmas is None else sigmas
        model["sigma"] = [sigmas[i % len(sigmas)] for i in range(players)]
        model["x0"] = [model["x0"][i % len(model["x0"])] for i in range(players)]
    grid = build_grid(cfg["grid"]["T"], n)
    spec = build_game_from_config(cfg, grid)
    return spec, draw_noise(grid, spec.noise_tags() or {"common"}, 5, cfg["noise"]["seed"])


GAMES = {
    "systemic16": lambda: game("systemic", players=16),
    "systemic16_three_sigmas": lambda: game("systemic", players=16, sigmas=[0.1, 0.2, 0.35]),
    "liquidation": lambda: game("liquidation"),
    "advertising": lambda: game("advertising"),
    "raw": lambda: game("raw_game"),
}


def fresh(f):
    """f with every array copied: it shares no object with anything."""
    if f is None:
        return None
    return CompiledSignal(f.grid, f.mean.copy(), {t: w.copy() for t, w in f.weights.items()})


def unshared(spec, copies=None):
    """spec made again from fresh copies of its signals (copies: the players').

    GameSpec maps the copies to one array per value again.
    """
    return replace(spec, b_signals=copies or tuple(fresh(f) for f in spec.b_signals),
                   b0_signal=fresh(spec.b0_signal),
                   b0_extras=tuple(fresh(e) for e in spec.b0_extras))


def weight_objects(signals) -> int:
    return len({id(w) for f in signals for w in f.weights.values()})


def assert_signals_equal(a, b):
    assert np.array_equal(a.mean, b.mean)
    assert list(a.weights) == list(b.weights)
    for tag in a.weights:
        assert np.array_equal(a.weights[tag], b.weights[tag]), tag


@pytest.mark.parametrize("name", sorted(GAMES))
def test_sharing_changes_no_result(name):
    spec, bundle = GAMES[name]()
    copies = tuple(fresh(f) for f in spec.b_signals)
    assert weight_objects(copies) == sum(len(f.weights) for f in spec.b_signals)
    plain = unshared(spec, copies)
    assert weight_objects(plain.b_signals) == weight_objects(spec.b_signals)
    sol, ref = solve_nash(spec, bundle), solve_nash(plain, bundle)
    assert np.array_equal(sol.ubar, ref.ubar)
    assert np.array_equal(sol.u, ref.u)
    assert np.array_equal(sol.base_values, ref.base_values)
    assert_signals_equal(sol.mean_strategy, ref.mean_strategy)
    for s, r in zip(sol.strategies, ref.strategies, strict=True):
        assert_signals_equal(s, r)
    assert sol.diagnostics == ref.diagnostics


@pytest.mark.parametrize("name", ["systemic16", "systemic16_three_sigmas"])
def test_reduction_hands_out_shared_weights(name):
    # bank i's weights for another bank's tag come from the mean field alone
    spec, _ = GAMES[name]()
    N = spec.n_players
    assert sum(len(f.weights) for f in spec.b_signals) == N * N
    assert weight_objects(spec.b_signals) <= 2 * N
    assert weight_objects(e for e in spec.b0_extras if e is not None) <= 2 * N


def work_counts(spec, bundle, monkeypatch):
    """solve_nash's solves of weight arrays and per-tag samples, and its solution."""
    counts = {"solves": 0, "samples": 0}
    solve, adapted_values = FredholmSolver.solve, signals.adapted_values

    def counted_solve(self, f):
        counts["solves"] += weight_objects([f])       # the solver solves each object once
        return solve(self, f)

    def counted_adapted_values(w, increments):
        counts["samples"] += 1
        return adapted_values(w, increments)

    monkeypatch.setattr(FredholmSolver, "solve", counted_solve)
    for module in (nplayer, signals):
        monkeypatch.setattr(module, "adapted_values", counted_adapted_values)
    sol = solve_nash(spec, bundle)
    return counts, sol


def test_systemic_work_grows_with_distinct_weights(monkeypatch):
    # 16 tags: the mean solves each once, the players each distinct (tag, weights)
    # once, 2 per tag, where player by player gave 16 + 16 x 16 solves
    spec, bundle = GAMES["systemic16"]()
    N = spec.n_players
    counts, sol = work_counts(spec, bundle, monkeypatch)
    assert counts["solves"] <= N + 2 * N
    # mean strategy and mean residual, then strategy, residual, FOC and driver per key
    assert counts["samples"] <= 2 * N + 4 * 2 * N
    assert weight_objects(sol.strategies) <= 2 * N


@pytest.mark.parametrize("players", [6, 12])
def test_heterogeneous_work_is_linear_in_players(players, monkeypatch):
    # per-bank sigma over 3 values: still one own tag per bank plus the shared
    # mean field, so the count grows as N, not as N^2
    spec, bundle = game("systemic", players=players, sigmas=[0.1, 0.2, 0.35])
    counts, sol = work_counts(spec, bundle, monkeypatch)
    assert counts["solves"] <= players + 2 * players
    assert weight_objects(sol.strategies) <= 2 * players


def test_unshared_game_does_the_shared_work(monkeypatch):
    # fresh copies are equal by value to the arrays they copy, so they share alike
    spec, bundle = GAMES["systemic16"]()
    shared, _ = work_counts(spec, bundle, monkeypatch)
    monkeypatch.undo()
    counts, _ = work_counts(unshared(spec), bundle, monkeypatch)
    assert counts == shared
    assert counts["solves"] == 1 + 2


def test_distinct_sigmas_do_the_full_work(monkeypatch):
    # 16 distinct sigma: every tag has two player parts of its own, the bank's and
    # the mean field's, and the mean solves each distinct value of its driver.  The
    # mean driver's weights are zero but for rounding (the players' average cancels
    # the mean field), and on some tags that rounding is exactly 0.0: those tags
    # are one value, 12 values for the 16 tags here
    N = 16
    spec, bundle = game("systemic", players=N, sigmas=[0.1 + 0.02 * i for i in range(N)])
    values = {w.tobytes() for w in mean_driver(spec).weights.values()}
    assert 1 < len(values) < N
    counts, _ = work_counts(spec, bundle, monkeypatch)
    assert counts["solves"] == len(values) + 2 * N

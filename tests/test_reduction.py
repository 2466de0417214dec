"""The row-map reduction against the per-player einsum formulation it replaced.

einsum_reduction below is that formulation, kept verbatim in its arithmetic:
every player's state pair taken on its own, both components zero-filled to
the union of their tags, and one einsum per player and tag.  It is the
reference for reduce_volterra_game's drivers, kernels and constants.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import volterra_games.model_builders as mb
from volterra_games.cli import build_game_from_config
from volterra_games.grid_ops import (
    DelayMeasure,
    ExponentialDecay,
    build_grid,
    discretize_kernel,
    horizon_grid,
)
from volterra_games.model_builders import (
    TerminalVector,
    VolterraGameSpec,
    build_advertising_game,
    build_liquidation_game,
    build_systemic_game,
    reduce_volterra_game,
)
from volterra_games.signals import (
    CompiledSignal,
    brownian_weighted,
    deterministic,
    martingale,
    ou,
)


def _stacked_state(vspec, i):
    """Player i's state pair at the grid times and at T, the last of its n + 1 rows."""
    c1, c2 = vspec.d_signals[i]
    c1, c2 = c1 + 0.0 * c2, c2 + 0.0 * c1
    n = vspec.grid.n
    mean = np.stack([c1.mean, c2.mean])
    w = {t: np.stack([c1.weights[t], c2.weights[t]]) for t in sorted(c1.weights)}
    return (mean[:, :n], {t: x[:, :n, :n] for t, x in w.items()},
            mean[:, n], {t: x[:, n, :n] for t, x in w.items()})


def _second_moment(grid, mean_x, w_x, mean_y, w_y, A):
    total = float(mean_x @ A @ mean_y)
    for tag, wx in w_x.items():
        if tag in w_y:
            total += float(np.einsum("ar,ab,br->", wx, A, w_y[tag])) * grid.dt
    return total


def einsum_reduction(vspec, grid):
    """(a1, a2hat, a3, b_signals, b0, b0_extras, c_constants) by per-player einsums."""
    n, dt, N = grid.n, grid.dt, vspec.n_players
    Dm = np.asarray(vspec.dblock[:n])
    DmT = np.asarray(vspec.dblock[n])
    Qbar = vspec.qmat + vspec.qmat.T
    Sbar = vspec.smat + vspec.smat.T

    M = np.einsum("jab,ac,lcd->jlbd", DmT, Sbar, DmT)
    M += dt * np.einsum("kjab,ac,klcd->jlbd", Dm, Qbar, Dm, optimize=True)
    qrow = np.einsum("c,jlcd->jld", vspec.qvec, Dm)
    M[:, :, 0, :] -= 0.5 * qrow
    M[:, :, :, 0] -= 0.5 * qrow
    lower = np.tril(np.ones((n, n)), k=-1)
    a2hat = M[:, :, 0, 0] * lower
    a1 = M[:, :, 1, 1] * lower
    a3 = 0.5 * (M[:, :, 0, 1] + M[:, :, 1, 0]) * lower

    rows, c_consts = [], []
    for i in range(N):
        d_mean, d_w, dT_mean, dT_w = _stacked_state(vspec, i)
        s_term = vspec.s_terminals[i]
        bm = np.einsum("jab,a->bj", DmT, s_term.mean - Sbar @ dT_mean)
        bm -= dt * np.einsum("kjab,ac,ck->bj", Dm, Qbar, d_mean, optimize=True)
        bm[0] += d_mean.T @ vspec.qvec
        wrow = {}
        for tag in sorted(set(d_w) | set(dT_w) | set(s_term.weights)):
            sw = s_term.weights.get(tag, np.zeros((2, n)))
            dTw = dT_w.get(tag, np.zeros((2, n)))
            dw = d_w.get(tag, np.zeros((2, n, n)))
            w = np.einsum("jab,ar->bjr", DmT, sw - Sbar @ dTw)
            w -= dt * np.einsum("kjab,ac,ckr->bjr", Dm, Qbar, dw, optimize=True)
            w[0] += np.einsum("cjr,c->jr", dw, vspec.qvec)
            wrow[tag] = np.tril(w, -1)
        rows.append([CompiledSignal(grid, bm[b], {t: w[b] for t, w in wrow.items()})
                     for b in (0, 1)])
        c_i = -dt * (np.einsum("ak,ab,bk->", d_mean, vspec.qmat, d_mean)
                     + dt * sum(np.einsum("akr,ab,bkr->", w, vspec.qmat, w)
                                for w in d_w.values()))
        c_i -= _second_moment(grid, dT_mean, dT_w, dT_mean, dT_w, vspec.smat)
        c_i += _second_moment(grid, dT_mean, dT_w, s_term.mean, s_term.weights, np.eye(2))
        c_consts.append(float(c_i))

    b0 = CompiledSignal(grid, np.zeros(n), {})
    b_signals = [row[0] + row[1] / N for row in rows]
    extras = [row[1] for row in rows]
    return a1, a2hat, a3, b_signals, b0, extras, c_consts


def signal_gap(f, g, grid):
    """Largest coefficient difference; a missing signal or tag reads as zero."""
    zero = CompiledSignal(grid, np.zeros(grid.n), {})
    f, g = f or zero, g or zero
    gap = np.max(np.abs(f.mean - g.mean))
    for t in set(f.weights) | set(g.weights):
        gap = max(gap, np.max(np.abs(f.weights.get(t, 0.0) - g.weights.get(t, 0.0))))
    return float(gap)


def signal_size(f):
    if f is None:
        return 0.0
    return max([float(np.max(np.abs(f.mean)))]
               + [float(np.max(np.abs(w))) for w in f.weights.values()])


def assert_matches_einsum_reduction(vspec, grid):
    game = reduce_volterra_game(vspec)
    a1, a2hat, a3, b_sigs, b0, extras, c_consts = einsum_reduction(vspec, grid)
    scale = max([float(np.max(np.abs(k))) for k in (a1, a2hat, a3)]
                + [signal_size(f) for f in (*b_sigs, b0, *extras)]
                + [abs(c) for c in c_consts])
    tol = 1e-12 * scale
    for got, want in ((game.a1, a1), (game.a2hat, a2hat), (game.a3, a3)):
        assert np.max(np.abs(got.values - want)) <= tol
    assert signal_gap(game.b0_signal, b0, grid) <= tol
    for i in range(vspec.n_players):
        assert signal_gap(game.b_signals[i], b_sigs[i], grid) <= tol
        assert signal_gap(game.b0_extras[i], extras[i], grid) <= tol
        assert abs(game.c_constants[i] - c_consts[i]) <= tol
    return game


def systemic_params(N):
    return dict(N=N, beta=0.3, eps=0.25, cost_c=1.0,
                sigma=[(0.2, 0.3, 0.0)[i % 3] for i in range(N)],
                x0=[(1.0, 0.5, -0.2)[i % 3] for i in range(N)],
                delay=DelayMeasure(atoms=((0.0, 1.0), (0.3, -1.0))))


def liquidation_params(**kw):
    p = dict(N=3, lam=1.0, phi=0.5, rho_term=1.0,
             propagator=ExponentialDecay(c=1.0, rho=2.0), x0=[1.0, 2.0, -0.5],
             signal_sigma=[0.3, 0.0, 0.2])
    p.update(kw)
    return p


def past_horizon(w, w_T):
    """(n + 1, n + 1) state weights: w at the grid times, w_T at T, and a last column of
    7.0 on the increment past T, which the reduction never reads."""
    n = len(w_T)
    out = np.full((n + 1, n + 1), 7.0)
    out[:n, :n], out[n, :n] = w, w_T
    return out


def random_vspec(seed, n=10, N=3):
    """Random blocks and costs; state signals share objects and tags across players."""
    rng = np.random.default_rng(seed)
    g = build_grid(1.0, n)
    ext = horizon_grid(g)
    dblock = np.zeros((n + 1, n, 2, 2))
    for a in range(2):
        for b in range(2):
            fam = ExponentialDecay(c=rng.uniform(0.1, 0.6), rho=rng.uniform(0.5, 2.0))
            dblock[:n, :, a, b] = discretize_kernel(fam, g).values
            dblock[n, :, a, b] = discretize_kernel(fam, ext).values[n, :n]
    common = ou(ext, kappa=rng.uniform(0.5, 2.0), sigma=0.4, x0=0.3, noise="common")
    g0, w0 = rng.standard_normal(n), rng.standard_normal((n, n))
    anticipative = brownian_weighted(ext, np.append(g0, rng.standard_normal()),
                                     past_horizon(w0, rng.standard_normal(n)), noise="w0")
    # a noise source that reaches the state only at the horizon
    terminal_only = CompiledSignal(ext, np.zeros(n + 1),
                                   {"late": past_horizon(np.zeros((n, n)), rng.standard_normal(n))})
    sigs = []
    for i in range(N):
        own = (deterministic(ext, np.append(rng.standard_normal(n), rng.standard_normal()))
               + rng.uniform(0.2, 0.8) * martingale(ext, sigma=0.5, noise=f"w{i}")
               + rng.uniform(-0.5, 0.5) * common
               + rng.uniform(-0.5, 0.5) * terminal_only)
        sigs.append((own, common if i < N - 1 else anticipative))
    terms = tuple(TerminalVector(rng.standard_normal(2),
                                 {"common": rng.standard_normal((2, n)),
                                  f"w{(i + 1) % N}": rng.standard_normal((2, n))})
                  for i in range(N))
    return VolterraGameSpec(n_players=N, p=2.0, qmat=rng.standard_normal((2, 2)) * 0.3,
                            smat=rng.standard_normal((2, 2)) * 0.3,
                            qvec=rng.standard_normal(2) * 0.5, dblock=dblock,
                            d_signals=tuple(sigs), s_terminals=terms, grid=g)


class TestAgainstEinsumReduction:
    @pytest.mark.parametrize("N", [3, 16])
    def test_systemic(self, N):
        g = build_grid(1.0, 16)
        _, vspec = build_systemic_game(systemic_params(N), g)
        assert_matches_einsum_reduction(vspec, g)

    @pytest.mark.parametrize("common_sigma", [0.0, 0.25])
    def test_liquidation(self, common_sigma):
        g = build_grid(1.0, 16)
        _, vspec = build_liquidation_game(
            liquidation_params(common_signal_sigma=common_sigma), g)
        assert_matches_einsum_reduction(vspec, g)

    def test_advertising(self):
        g = build_grid(1.0, 12)
        _, vspec = build_advertising_game(dict(
            N=3, lam=1.0, beta=0.7, forgetting=DelayMeasure(atoms=((0.0, -0.4),)),
            competition=DelayMeasure(atoms=((0.0, 0.5), (0.2, -0.5))),
            sigma=[0.3, 0.2, 0.1]), g)
        assert_matches_einsum_reduction(vspec, g)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_shared_signals(self, seed):
        vspec = random_vspec(seed)
        game = assert_matches_einsum_reduction(vspec, vspec.grid)
        assert {"common", "w0", "late"} <= set(game.b_signals[0].weights)


def test_shared_state_signal_is_mapped_once(monkeypatch):
    # systemic: N own reserve signals plus one mean field that every bank shares
    N = 16
    g = build_grid(1.0, 8)
    _, vspec = build_systemic_game(systemic_params(N), g)
    assert len({id(pair[1]) for pair in vspec.d_signals}) == 1
    calls = []
    row_map = mb._row_map

    def counting(Rc, w):
        calls.append(w)
        return row_map(Rc, w)

    monkeypatch.setattr(mb, "_row_map", counting)
    reduce_volterra_game(vspec)
    # 11 banks carry noise, over 2 sigma values, and the mean field's 11 tags the
    # same 2 values scaled: each component maps each of its 2 values once
    assert len(calls) == 4


def test_each_operator_is_formed_once(monkeypatch):
    # advertising forms its one (n+1)^3 product once, not once per grid column; the
    # 16 banks' reduction maps each distinct state array once and takes each ordered
    # pair of weight arrays' row inner products once: 3 sigma values, in a bank's own
    # reserve and in the mean field
    counts = dict.fromkeys(["star_product", "_row_map", "_row_inner"], 0)
    for module, name in ((mb, "star_product"), (mb, "_row_map"), (mb, "_row_inner")):
        def counting(*args, name=name, wrapped=getattr(module, name)):
            counts[name] += 1
            return wrapped(*args)

        monkeypatch.setattr(module, name, counting)
    g = build_grid(1.0, 64)
    build_advertising_game(dict(
        N=2, lam=1.0, beta=0.7, forgetting=DelayMeasure(atoms=((0.0, -0.3),)),
        competition=DelayMeasure(atoms=((0.0, 0.5), (0.2, -0.5))), sigma=[0.3, 0.2]), g)
    assert counts["star_product"] == 1
    counts.update(_row_map=0, _row_inner=0)
    cfg = json.loads((Path(__file__).resolve().parent.parent / "run_configs"
                      / "systemic_n16.json").read_text())
    build_game_from_config(cfg, g)
    assert (counts["_row_inner"], counts["_row_map"]) == (12, 6)


class _Built(Exception):
    """Raised in place of the reduction, with the Volterra game it was handed."""


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 513])
def test_kernel_block_is_the_einsum(n, monkeypatch):
    # the one GEMM over (k, c) against the einsum's three-operand loop, on random
    # blocks and row weights and on the worked models' blocks with their own weights
    rng = np.random.default_rng(n)
    blocks = [(rng.standard_normal((n + 1, n, 2, 2)), rng.standard_normal((n + 1, 2, 2)))]

    def built(vspec):
        raise _Built(vspec)

    monkeypatch.setattr(mb, "reduce_volterra_game", built)
    for model in ("systemic", "liquidation", "advertising") if n > 1 else ():
        cfg = json.loads((Path(__file__).resolve().parent.parent / "run_configs"
                          / f"{model}.json").read_text())
        with pytest.raises(_Built) as stopped:
            build_game_from_config(cfg, build_grid(cfg["grid"]["T"], n))
        vspec = stopped.value.args[0]
        W = np.concatenate([np.broadcast_to(vspec.grid.dt * (vspec.qmat + vspec.qmat.T),
                                            (n, 2, 2)), (vspec.smat + vspec.smat.T)[None]])
        blocks += [(vspec.dblock, W), (vspec.dblock, blocks[0][1])]
    for D, W in blocks:
        want = np.einsum("kjab,kac,klcd->jlbd", D, W, D, optimize=True)
        # each entry sums 4 (n + 1) products: both sides stay within the standard
        # rounding bound of that many operations on the sum of the terms' magnitudes
        scale = np.einsum("kjab,kac,klcd->jlbd", abs(D), abs(W), abs(D), optimize=True)
        bound = 8 * (n + 1) * np.finfo(float).eps * scale
        DW = np.einsum("kjab,kac->jbkc", D, W)
        assert np.all(np.abs(mb._kernel_block(DW, D) - want) <= bound)

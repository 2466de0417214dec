"""Mean-field game equilibria, the infinite-player view, and limit experiments.

The mean-field game is the N-player game at N = inf: MFGSpec.n_players is
math.inf, and nplayer.build_operators, with every 1/N term at 0, gives its
player solver F (kernel A2hat) and its mean solver G (kernel A2hat + A3),
both at scale 2*lambda; nplayer.mean_field_coupling gives its coupling
dt (A3 + A3^T) mu, the A3 shift of the player's driver.  The generic player's
equilibrium is mu = G(E[beta] + beta0) with v = F(b - A3(mu) - A3*(E_. mu)),
and its first-order condition is nplayer's at N = inf.  The infinite-player view
replaces the conditional-mean driver by the declared limit b_infty.
Convergence and epsilon-Nash experiments re-solve the induced finite games
on shared noise and fit log-log rates.  Every solve maps a CompiledSignal
driver to a CompiledSignal strategy once for all paths (see nplayer); paths
are read off the coefficients at the sampled increments.  The convergence
study reads the noise as a stream, one row block of one tag at a time
(signals.row_blocks), so its noise memory grows with neither tags nor paths;
a one-worker concurrent.futures pool draws the next block, into one of two
recycled buffers, while the current one is added in.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar

import numpy as np

from .errors import InadmissibleKernel, ShapeError
from .fredholm import FredholmSolver
from .grid_ops import GridKernel, TimeGrid
from .nplayer import (
    GameSpec,
    _foc_terms,
    build_GH,
    build_operators,
    kernel_margins,
    mean_driver,
    mean_field_coupling,
    objective_per_path,
    player_base,
    shifted_drive,
    sup_on_paths,
)
from .signals import (
    COMMON,
    CompiledSignal,
    NoiseBundle,
    deterministic,
    gather_increments,
    martingale,
    on_grid,
    row_blocks,
    stream_increments,
)


@dataclass(frozen=True)
class MFGSpec:
    """Mean-field game data: operators plus the generic player's noise split.

    Signals are CompiledSignals on grid, kernels nonnegative definite; both checked on entry.
    """

    n_players: ClassVar[float] = math.inf     # nplayer's 1/N terms vanish
    lam: float
    a1: GridKernel
    a2hat: GridKernel
    a3: GridKernel
    beta: CompiledSignal      # idiosyncratic part of b
    beta0: CompiledSignal     # common part of b, independent of beta
    b0_signal: CompiledSignal
    grid: TimeGrid
    b_infty: CompiledSignal | None = None
    player_family: object | None = None

    def __post_init__(self):
        if not (self.lam > 0.0):
            raise InadmissibleKernel(f"lambda must be positive, got {self.lam}")
        kernel_margins(A1=self.a1, A2hat=self.a2hat, A3=self.a3)
        on_grid(self.grid, self.beta, self.beta0, self.b0_signal)
        if self.b_infty is not None:
            on_grid(self.grid, self.b_infty)
        if self.beta.noise_tags() & self.beta0.noise_tags():
            raise ShapeError("beta and beta0 must use disjoint noise tags")

    def common_tags(self) -> frozenset:
        tags = self.beta0.noise_tags() | self.b0_signal.noise_tags()
        if self.b_infty is not None:
            tags = tags | self.b_infty.noise_tags()
        return tags

    def b_family(self) -> CompiledSignal:
        """The generic player's b = beta + beta0."""
        return self.beta + self.beta0

    def mean_field_driver(self) -> CompiledSignal:
        """E[beta] + beta0, the driver of the mean field mu = G(E[beta] + beta0)."""
        return deterministic(self.grid, self.beta.mean) + self.beta0

    def limit_family(self) -> CompiledSignal:
        """b_infty, or E[beta] + beta0 where none is declared."""
        return self.mean_field_driver() if self.b_infty is None else self.b_infty


# ---------------------------------------------------------------------------
# crossed noise: common blocks times idiosyncratic draws
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CrossedNoise:
    """Noise where path p = c * n_idio + e shares its common draws with block c.

    Nothing is drawn up front.  stream() draws the sorted common tags first and
    yields every tag in sorted order; bundle draws them all on first access
    and keeps them.  Both come from one generator seeded with seed, so the
    arrays are the same.
    """

    grid: TimeGrid
    common_tags: tuple     # sorted
    idio_tags: tuple       # sorted
    n_common: int
    n_idio: int
    seed: int

    def stream(self, buffers=None):
        """Yield (tag, rows, increments), tags sorted, row block by row block (stream_increments)."""
        return stream_increments(self.grid, self.common_tags, self.idio_tags,
                                 self.n_common, self.n_idio, self.seed, buffers)

    @cached_property
    def bundle(self) -> NoiseBundle:
        """Every tag's increments, drawn once and kept."""
        P = self.n_common * self.n_idio
        return NoiseBundle(self.grid, P, self.seed,
                           gather_increments(self.stream(), P, self.grid.n))

    def block_increments(self) -> dict:
        """Increments at the first path of every common block: tag -> (n_common, n)."""
        return {tag: arr[::self.n_idio] for tag, arr in self.bundle.increments.items()}


def draw_crossed_noise(grid: TimeGrid, common_tags, idio_tags, n_common: int,
                       n_idio: int, seed: int) -> CrossedNoise:
    both = set(common_tags) & set(idio_tags)
    if both:
        raise ShapeError(f"tags {sorted(both)} are both common and idiosyncratic")
    return CrossedNoise(grid, tuple(sorted(set(common_tags))), tuple(sorted(set(idio_tags))),
                        n_common, n_idio, seed)


_END = object()


def _streamed_path_values(signals, rows, noise: CrossedNoise):
    """Each signal's path values on its first rows paths, from one pass over the noise stream.

    Returns the (rows, n) values per signal and each tag's first row per
    common block.  The stream yields the tags in sorted order, and each block
    is added into every signal that carries its tag as it arrives, as
    CompiledSignal.path_values adds the tags, one product per row block as
    tag_values forms them, so the values equal path_values on the bundle's
    first rows bitwise.  Each signal's adapted weights are resolved once per
    tag.  Of the increments, only the block in use, the next block (drawn by
    one worker thread meanwhile), the common tags' rows per common block
    (which the stream keeps) and the first rows of each tag stay in memory.
    The worker draws into two block buffers allocated here, in turn, and
    allocates nothing of that size itself: every large array is allocated and
    freed by this thread in a fixed order, so the process's peak memory does
    not depend on how the two threads interleave.
    """
    # imported here: the executor's import would otherwise count against
    # every command's start-up, and only this pass uses it
    from concurrent.futures import ThreadPoolExecutor

    C, I, n = noise.n_common, noise.n_idio, noise.grid.n
    tags = (*noise.common_tags, *noise.idio_tags)
    missing = set().union(*(s.noise_tags() for s in signals)) - set(tags)
    if missing:
        raise ShapeError(f"noise lacks tags {sorted(missing)}")
    values = [np.broadcast_to(s.mean, (r, n)).copy() for s, r in zip(signals, rows)]
    first = {tag: np.empty((C, n)) for tag in tags}
    # a buffer is redrawn only after the next block's draw has been collected,
    # when this thread is done with the block it held
    rows_per_block = row_blocks(C * I, n)[0].stop
    stream = noise.stream(itertools.cycle([np.empty((rows_per_block, n)) for _ in range(2)]))
    # the worker draws one block ahead; leaving the block waits for that draw
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="noise-draw") as pool:
        ahead = pool.submit(next, stream, _END)
        while (item := ahead.result()) is not _END:
            ahead = pool.submit(next, stream, _END)
            tag, block, dW = item
            # the block's rows c * I, the first paths of its common blocks
            first[tag][-(-block.start // I):-(-block.stop // I)] = dW[-block.start % I::I]
            if not block.start:     # every signal that carries tag, with its adapted weights
                carrying = [(out, s.adapted_weights(tag).T)
                            for s, out in zip(signals, values) if tag in s.weights]
            for out, wT in carrying:
                if len(part := out[block]):
                    part += dW[:len(part)] @ wT
    return values, first


@dataclass
class MFGSolution:
    """Equilibrium of the generic-player (or infinite-player) mean-field game."""

    mu: np.ndarray              # (common, n): mean-field strategy per common block
    v: np.ndarray               # generic: (common, idio, n); infinite: (players, common*idio, n)
    mean_field: CompiledSignal  # coefficients of mu
    strategies: tuple           # coefficients of v: generic (v,), infinite one per player
    block_increments: dict      # tag -> (common, n): each common block's first path
    consistency_gap: float = np.nan
    diagnostics: dict = field(default_factory=dict)


def solve_generic(spec: MFGSpec, noise: CrossedNoise) -> MFGSolution:
    """Generic-player equilibrium with common noise, plus the conditional-MC gap."""
    ops = build_operators(spec)
    grid = spec.grid
    C, I = noise.n_common, noise.n_idio

    cx = spec.mean_field_driver()
    mu_cs = ops.mean_solver.solve(cx)
    v_cs = ops.player_solver.solve(shifted_drive(spec, spec.b_family(), mu_cs))
    first = noise.block_increments()
    mu = mu_cs.path_values(first, C)
    v = v_cs.path_values(noise.bundle.increments, C * I).reshape(C, I, grid.n)
    g_residual = sup_on_paths(ops.mean_solver.residual(cx, mu_cs), first, C)

    # E[v | common] = mu holds exactly: drop v's idiosyncratic weights
    idio = spec.beta.noise_tags()
    diff = v_cs - mu_cs
    exact = max(float(np.max(np.abs(a))) for a in
                [diff.mean, *(w for tag, w in diff.weights.items() if tag not in idio)])

    cond_mean = v.mean(axis=1)
    cond_std = v.std(axis=1, ddof=1) if I > 1 else np.zeros_like(cond_mean)
    stderr = cond_std / np.sqrt(max(I, 1))
    gap_abs = np.abs(cond_mean - mu)
    # grid points that are deterministic given the common noise have stderr at
    # rounding level; floor it so they read as exact matches, not blowups
    floor = 1e-10 * max(1.0, float(np.max(np.abs(mu))) if mu.size else 1.0)
    gap_rel = gap_abs / np.maximum(stderr, floor)
    return MFGSolution(
        mu=mu, v=v, mean_field=mu_cs, strategies=(v_cs,), block_increments=first,
        consistency_gap=float(gap_abs.max()),
        diagnostics={
            "gap_over_stderr_max": float(gap_rel.max()),
            "stderr_max": float(stderr.max()),
            "g_residual_max": g_residual,
            "consistency_exact": exact,
        },
    )


def _common_limit(spec: MFGSpec, noise: CrossedNoise) -> CompiledSignal:
    """b_infty, refused unless noise draws every tag it carries as common."""
    c_lim = spec.limit_family()
    if not c_lim.noise_tags() <= set(noise.common_tags):
        raise ShapeError("b_infty must be measurable with respect to common noise")
    return c_lim


def solve_infinite(spec: MFGSpec, n_view: int, noise: CrossedNoise) -> MFGSolution:
    """Infinite-player equilibrium: nu = G(b_infty), v^i = F(b^i - A3 shift of nu)."""
    if spec.player_family is None:
        raise ShapeError("infinite-player view needs a player family")
    ops = build_operators(spec)
    grid = spec.grid
    P = noise.bundle.n_paths
    nu_cs = ops.mean_solver.solve(_common_limit(spec, noise))
    shift = mean_field_coupling(spec, nu_cs)
    strategies = []
    v = np.empty((n_view, P, grid.n))
    for i in range(n_view):
        strategies.append(ops.player_solver.solve(spec.player_family.signal(i) - shift))
        v[i] = strategies[i].path_values(noise.bundle.increments, P)
    first = noise.block_increments()
    return MFGSolution(mu=nu_cs.path_values(first, noise.n_common), v=v, mean_field=nu_cs,
                       strategies=tuple(strategies), block_increments=first)


def mfg_foc_residual(spec: MFGSpec, solution: MFGSolution, noise: CrossedNoise) -> float:
    """Sup over the noise's paths of the generic player's first-order condition.

    nplayer's condition at N = inf, 2 lam v - b + dt (A3 + A3^T) mu
    + dt (A2hat + A2hat^T) v, formed on the coefficients of solve_generic's (v, mu).
    """
    own, S = _foc_terms(spec)
    res = (solution.strategies[0].adapted_matmul(own) + solution.mean_field.adapted_matmul(S)
           - spec.b_family())
    return sup_on_paths(res, noise.bundle.increments, noise.bundle.n_paths)


# ---------------------------------------------------------------------------
# player families for the infinite-player and convergence experiments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BalancedDeterministicFamily:
    """b^i = base + (-1)^i * amplitude * shape: averages cancel exactly (h = 0)."""

    base: CompiledSignal
    amplitude: float
    shape: CompiledSignal       # deterministic

    def signal(self, i: int) -> CompiledSignal:
        sign = 1.0 if i % 2 == 0 else -1.0
        return self.base + (sign * self.amplitude) * self.shape


@dataclass(frozen=True)
class IIDBrownianFamily:
    """b^i = base + sigma W^i with i.i.d. idiosyncratic Brownian motions: h(N) ~ sigma^2 T / N."""

    base: CompiledSignal
    sigma: float

    @cached_property
    def _noise(self) -> CompiledSignal:
        """sigma W on one tag, built once: every player's idio{i} holds its arrays."""
        return martingale(self.base.grid, self.sigma)

    def signal(self, i: int) -> CompiledSignal:
        w = self._noise
        tag = f"idio{i}"
        return self.base + CompiledSignal(w.grid, w.mean, {tag: w.weights[COMMON]})

    def idio_tags(self, n_players: int):
        return {f"idio{i}" for i in range(n_players)}


def induced_game(spec: MFGSpec, n_players: int) -> GameSpec:
    if spec.player_family is None:
        raise ShapeError("convergence experiments need a player family")
    return GameSpec(
        n_players=n_players,
        lam=spec.lam,
        a1=spec.a1, a2hat=spec.a2hat, a3=spec.a3,
        b_signals=tuple(spec.player_family.signal(i) for i in range(n_players)),
        b0_signal=spec.b0_signal,
        grid=spec.grid,
    )


def fit_loglog_slope(ns, values) -> float:
    ns = np.asarray(ns, dtype=float)
    vals = np.maximum(np.asarray(values, dtype=float), 1e-300)
    return float(np.polyfit(np.log(ns), np.log(vals), 1)[0])


def convergence_study(spec: MFGSpec, ns, noise: CrossedNoise,
                      player_paths: int | None = None) -> dict:
    """sup-t MSE of the finite-game mean and one player against the mean-field limit.

    The mean-strategy MSE uses every path of the noise; the per-player MSE
    may be restricted to the first player_paths paths.  Every coefficient
    solve comes first; then one pass over the noise stream forms every N's
    mean paths and, on those first paths, both players' paths, so the noise
    is never held whole.  Each MSE is formed in place on its paths.  The IID
    family hands every player's tag one weight array and every solve runs
    once per distinct array, so each N's coefficients hold a few arrays, not
    one per player.  The mean-field player is solved and sampled once: it is
    the family's player 1, whose signal(0) takes no N.
    The limit is read at each common block's first path, so a b_infty on a tag
    the noise draws as idiosyncratic is refused, as solve_infinite refuses it.
    """
    ops = build_operators(spec)
    grid = spec.grid
    C, I = noise.n_common, noise.n_idio
    P = C * I
    pp = P if player_paths is None else min(player_paths, P)

    nu_cs = ops.mean_solver.solve(_common_limit(spec, noise))
    means, players = [], []
    for N in ns:
        game = induced_game(spec, N)
        gops = build_operators(game)
        means.append(gops.mean_solver.solve(mean_driver(game)))
        # player 1 of the finite game against the mean-field v^1, on a path subset
        if pp > 0:
            players.append(gops.player_solver.solve(
                shifted_drive(game, player_base(game, 0), means[-1])))
    if pp > 0:
        b1 = spec.player_family.signal(0)
        players.append(ops.player_solver.solve(shifted_drive(spec, b1, nu_cs)))

    paths, first = _streamed_path_values([*means, *players],
                                         [P] * len(means) + [pp] * len(players), noise)
    # the limit, read at each common block's first path, against every path of the block
    nu = nu_cs.path_values(first, C)[:, None, :]
    rows = []
    for j, N in enumerate(ns):
        err = paths[j].reshape(C, I, grid.n)
        err -= nu
        mse_mean = float(np.max(np.mean(np.square(paths[j], out=paths[j]), axis=0)))
        mse_player = np.nan
        if pp > 0:
            gap = paths[len(ns) + j]
            gap -= paths[-1]
            mse_player = float(np.max(np.mean(np.square(gap, out=gap), axis=0)))
        rows.append({"N": int(N), "mse_mean": mse_mean, "mse_player": mse_player})

    out = {"rows": rows}
    if len(rows) > 1:
        out["slope_mean"] = fit_loglog_slope([r["N"] for r in rows],
                                             [r["mse_mean"] for r in rows])
        if all(np.isfinite(r["mse_player"]) for r in rows):
            out["slope_player"] = fit_loglog_slope([r["N"] for r in rows],
                                                   [r["mse_player"] for r in rows])
    return out


def eps_nash_gap(spec: MFGSpec, n_players: int, deviation: np.ndarray,
                 noise: CrossedNoise) -> dict:
    """Gain of one fixed deviation against the mean-field profile in the N-player game."""
    sol = solve_infinite(spec, n_players, noise)
    game = induced_game(spec, n_players)
    dev_profile = sol.v.copy()
    dev_profile[0] = np.asarray(deviation, dtype=float)[None, :]
    return _gain(game, sol.v, dev_profile, noise.bundle)


def best_response_gap(spec: MFGSpec, n_players: int, noise: CrossedNoise) -> dict:
    """Exact sup-deviation gain: J(best response; v^-i) - J(v^i; v^-i), MC averaged.

    The best response of player 0 against the frozen mean-field profile solves
    a Fredholm problem with kernel G and driver b^0 + b0/N shifted by the
    others' average; this realizes the supremum in the epsilon-Nash bound.
    """
    sol = solve_infinite(spec, n_players, noise)
    game = induced_game(spec, n_players)
    G, _ = build_GH(game)
    N = n_players
    br_solver = FredholmSolver(G, 2.0 * spec.lam)

    # the others' sum over N: (N-1)/N times their average, as the coupling weighs it
    others = sum((1.0 / N) * s for s in sol.strategies) - (1.0 / N) * sol.strategies[0]
    br = br_solver.solve(shifted_drive(game, player_base(game, 0), others))
    dev_profile = sol.v.copy()
    dev_profile[0] = br.path_values(noise.bundle.increments, noise.bundle.n_paths)
    return _gain(game, sol.v, dev_profile, noise.bundle)


def _gain(game: GameSpec, profile: np.ndarray, dev_profile: np.ndarray,
          bundle: NoiseBundle) -> dict:
    """Player 0's mean objective gain from profile to dev_profile, with its MC stderr."""
    per_path = (objective_per_path(game, 0, dev_profile, bundle)
                - objective_per_path(game, 0, profile, bundle))
    P = len(per_path)
    stderr = float(per_path.std(ddof=1) / np.sqrt(P)) if P > 1 else 0.0
    return {"gap": float(per_path.mean()), "stderr": stderr}

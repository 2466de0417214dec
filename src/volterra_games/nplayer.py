"""N-player Nash equilibria: mean strategy first, then each player's best response.

The mean strategy solves a Fredholm problem with kernel
Kbar = ((N-1)/N) H + G and driver bbar + b0/N; each player then solves one
with kernel Khat = G - H/N, where G = A1/N^2 + 2 A3/N + A2hat and
H = A1/N + A3, both at scale lam_eff = 2*lambda.  Each player's driver is
shifted by the one term of its first-order condition in the other players,
the coupling H(ubar) + H*(E_. ubar) = dt ((A1 + A1^T)/N + A3 + A3^T) ubar,
formed once per solve_nash from A1 and A3 (mean_field_coupling).  The
condition, the gradient of J^i from A2hat, A3 and that coupling, shows a
wrong G or H; the mean gap, the players' average against ubar, also shows a
wrong H.  The coupling and the condition apply matrices to solver outputs,
whose weights are strictly lower, so each is an adapted product
(CompiledSignal.adapted_matmul).

The mean-field game is this game at N = inf (meanfield.MFGSpec.n_players =
math.inf): build_GH, build_operators, mean_field_coupling and the FOC terms
serve it as they stand, every 1/N term evaluating to 0, so its mean kernel
is A2hat + A3, its player kernel A2hat and its coupling dt (A3 + A3^T) mu.

Drivers and strategies are signals.CompiledSignal values (a mean plus one
weight matrix per noise tag), so each solve runs once for all paths.  Path
values come from the weights and the sampled increments; conditional
surfaces are built only when asked for.

Players that carry the same weight object for a noise tag share one solve,
one residual and FOC check and one sampling for that tag: every step is
linear and acts on each tag apart, so a tag's part of a player's strategy
depends on the player only through that object.  solve_nash therefore runs
the players tag by tag, with a dict from that tag's weight objects to their
parts, and drops the tag's parts before the next.  The reduction of a dynamic
game hands out such shared objects (a bank's weights for another bank's
noise come from the one mean field), so an exchangeable game costs and holds
O(distinct weights), not players x tags.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InadmissibleKernel, ShapeError
from .fredholm import FredholmSolver
from .grid_ops import (
    GridKernel,
    TimeGrid,
    add_kernels,
    min_eigenvalue,
)
from .signals import CompiledSignal, NoiseBundle, on_grid, scaled_sum

# the one tolerance table: the CLI and validation_report copy it, then apply run.tolerances
DEFAULT_TOLERANCES = {"fredholm_residual": 1e-9, "mean_consistency": 1e-6, "foc_residual": 1e-8,
                      "admissibility": 1e-8, "oracle": 1e-8}


@dataclass(frozen=True)
class GameSpec:
    """Static game data: operators, per-player drivers, constants.

    The drivers b^i, b^0 and the b0_extras are CompiledSignals on grid,
    checked on entry.

    kernel_check is "strict" for hand-assembled games (each kernel must be
    nonnegative definite on its own) or "concave" for games reduced from
    dynamic models, whose cross kernels carry signs: there only positivity of
    the per-player quadratic form lam*id + A1/N^2 + (A3+A3*)/N + A2hat is
    required, which is what strict concavity of the objective needs.
    margins keeps the minimum eigenvalue of each form the check tests:
    min_eig_A1, min_eig_A2hat and min_eig_A3 ("strict") or min_eig_player_form
    ("concave", with min_eig_A2hat, which model_builders.reduce_volterra_game
    checks against -lam).  Kept here, the margins survive dataclasses.replace.
    """

    n_players: int
    lam: float
    a1: GridKernel
    a2hat: GridKernel
    a3: GridKernel
    b_signals: tuple           # one CompiledSignal per player
    b0_signal: CompiledSignal
    grid: TimeGrid
    c_constants: tuple = ()
    kernel_check: str = "strict"
    # per-player remainder of a player-dependent b^0, already folded into
    # b_signals for the solvers; enters only objective values, through the
    # first-order-null term <extra_i, ubar - u^i/N>
    b0_extras: tuple = ()
    margins: dict = field(init=False, default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if self.n_players < 1:
            raise ShapeError(f"need at least one player, got {self.n_players}")
        if not (self.lam > 0.0):
            raise InadmissibleKernel(f"lambda must be positive, got {self.lam}")
        if len(self.b_signals) != self.n_players:
            raise ShapeError("one b signal required per player")
        on_grid(self.grid, *self.b_signals, self.b0_signal,
                *(e for e in self.b0_extras if e is not None))
        for name, K in (("A1", self.a1), ("A2hat", self.a2hat), ("A3", self.a3)):
            if K.grid != self.grid:
                raise ShapeError(f"{name} lives on a different grid")
        if self.kernel_check == "strict":
            self.margins.update(kernel_margins(A1=self.a1, A2hat=self.a2hat, A3=self.a3))
        elif self.kernel_check == "concave":
            G, _ = build_GH(self)
            low = self.margins["min_eig_player_form"] = min_eigenvalue(G)
            self.margins["min_eig_A2hat"] = min_eigenvalue(self.a2hat)
            if low < -(self.lam + DEFAULT_TOLERANCES["admissibility"]):
                raise InadmissibleKernel(
                    f"player quadratic form loses concavity: min eig {low:.3e} < -lam")
        else:
            raise ShapeError(f"unknown kernel_check mode {self.kernel_check!r}")
        if not self.c_constants:
            object.__setattr__(self, "c_constants", (0.0,) * self.n_players)
        if len(self.c_constants) != self.n_players:
            raise ShapeError("one c constant required per player")

    def noise_tags(self) -> frozenset:
        """Noise tags of every driver, b^i and b^0."""
        return frozenset().union(*(f.noise_tags() for f in (*self.b_signals, self.b0_signal)))


def kernel_margins(**kernels: GridKernel) -> dict:
    """min_eig_<name> of each kernel; InadmissibleKernel where one is not nonnegative definite."""
    margins = {}
    for name, K in kernels.items():
        low = margins[f"min_eig_{name}"] = min_eigenvalue(K)
        if low < -DEFAULT_TOLERANCES["admissibility"]:
            raise InadmissibleKernel(f"{name} fails nonnegative-definiteness")
    return margins


def build_GH(spec: GameSpec) -> tuple[GridKernel, GridKernel]:
    """G = A1/N^2 + 2 A3/N + A2hat and H = A1/N + A3, entrywise."""
    N = spec.n_players
    G = add_kernels((1.0 / N ** 2, spec.a1), (2.0 / N, spec.a3), (1.0, spec.a2hat))
    H = add_kernels((1.0 / N, spec.a1), (1.0, spec.a3))
    return G, H


@dataclass
class GameOperators:
    """Factorizations of the mean and player problems, shared across paths and players."""

    mean_solver: FredholmSolver
    player_solver: FredholmSolver


def build_operators(spec: GameSpec) -> GameOperators:
    """Factor the game's mean (kernel Kbar) and player (kernel Khat) problems."""
    G, H = build_GH(spec)
    N = spec.n_players
    # (N - 1)/N is nan at N = inf; 1 - 1/N would round differently at some finite N
    kbar = add_kernels(((N - 1.0) / N if N < math.inf else 1.0, H), (1.0, G))
    khat = add_kernels((1.0, G), (-1.0 / N, H))
    lam_eff = 2.0 * spec.lam
    mean_solver = FredholmSolver(kbar, lam_eff)
    player_solver = FredholmSolver(khat, lam_eff)
    return GameOperators(mean_solver, player_solver)


def mean_field_coupling(spec, w: CompiledSignal) -> CompiledSignal:
    """H(w) + H*(E_. w) with H = A1/N + A3, on coefficients dt ((A1 + A1^T)/N + A3 + A3^T) w.

    Read off the spec's A1 and A3 (a GameSpec or an MFGSpec), not off build_GH's
    H.  w is a solver output (or a sum of them), so its weights are strictly lower.
    """
    S = spec.a1.values + spec.a1.values.T
    S /= spec.n_players
    S += spec.a3.values + spec.a3.values.T
    S *= spec.grid.dt
    return w.adapted_matmul(S)


def shifted_drive(spec, base: CompiledSignal, w: CompiledSignal) -> CompiledSignal:
    """Driver base - H(w) - H*(E_. w), on coefficients base - mean_field_coupling(spec, w).

    The shift acts on the mean and on every tag's weights alike, so the
    driver's conditional surfaces stay tower-consistent.
    """
    return base - mean_field_coupling(spec, w)


def player_base(spec: GameSpec, i: int) -> CompiledSignal:
    """Player i's unshifted driver b^i + b^0/N."""
    return spec.b_signals[i] + (1.0 / spec.n_players) * spec.b0_signal


def mean_driver(spec: GameSpec) -> CompiledSignal:
    """The mean strategy's driver bbar + b^0/N, the players' average of b^i + b^0/N.

    sum() of (1/N) f in player order, bitwise, with each distinct array of the
    drivers scaled once (signals.scaled_sum).
    """
    return scaled_sum(1.0 / spec.n_players, (*spec.b_signals, spec.b0_signal))


def conditional_surfaces(cs: CompiledSignal, increments: dict, n_paths: int) -> np.ndarray:
    """Surfaces m[p, i, j] = E_{t_i}[f_j] of cs on each sampled path, (n_paths, n, n)."""
    out = np.empty((n_paths, cs.grid.n, cs.grid.n))
    for p in range(n_paths):
        out[p] = cs.values_and_surface({tag: arr[p] for tag, arr in increments.items()})[1]
    return out


def sup_on_paths(cs: CompiledSignal, increments: dict, n_paths: int) -> float:
    """Largest |value| of cs over the grid and the sampled paths."""
    return float(np.max(np.abs(cs.path_values(increments, n_paths)), initial=0.0))


@dataclass
class NashSolution:
    """Equilibrium strategies as coefficients, their sampled paths, and diagnostics."""

    ubar: np.ndarray            # (paths, n)
    u: np.ndarray               # (players, paths, n)
    base_values: np.ndarray     # (players, paths, n): b^i + b^0/N per path
    mean_strategy: CompiledSignal
    strategies: tuple           # one CompiledSignal per player
    increments: dict            # tag -> (paths, n): the sampled draws
    diagnostics: dict = field(default_factory=dict)

    @property
    def ubar_surface(self) -> np.ndarray:
        """(paths, n, n) conditional surfaces of the mean strategy, built on access."""
        return conditional_surfaces(self.mean_strategy, self.increments, len(self.ubar))

    @property
    def u_surface(self) -> np.ndarray:
        """(players, paths, n, n) conditional surfaces of the strategies, built on access."""
        return np.stack([conditional_surfaces(s, self.increments, len(self.ubar))
                         for s in self.strategies])


def solve_nash(spec: GameSpec, bundle: NoiseBundle) -> NashSolution:
    """Full equilibrium: mean first, then every player; reports the mean gap.

    A player's driver, strategy, Fredholm residual and FOC are affine in b^i,
    so each is the sum of its parts (CompiledSignal.part): the mean, formed
    per player, and one part per noise tag, which depends on the player only
    through the weight object b^i carries for that tag.  The players run tag
    by tag: each distinct weight object of a tag is solved, checked and
    sampled once, and every player that carries it shares the resulting
    arrays; exchangeable players (one mean field in every driver) share all
    but their own tags.  Each player's samples add the parts after the mean
    in sorted tag order, as path_values does, so every output is bitwise what
    a player-by-player solve gives.
    """
    ops = build_operators(spec)
    N, grid = spec.n_players, spec.grid
    increments, P = bundle.increments, bundle.n_paths

    mean_drive = mean_driver(spec)
    mean_strategy = ops.mean_solver.solve(mean_drive)
    fred_residual = sup_on_paths(ops.mean_solver.residual(mean_drive, mean_strategy),
                                 increments, P)
    del mean_drive          # nothing reads the driver past its residual
    # one coupling to the mean strategy shifts every player's driver and enters every FOC
    own, coupling = _foc_terms(spec, mean_strategy)
    tags = sorted(mean_strategy.weights)       # every tag of every driver

    def player_part(b: CompiledSignal, tag):
        """Part tag (None: the mean) of the strategy for b, and its samples.

        The samples are those of the strategy, the Fredholm residual, the FOC
        and the driver; a tag's part is None where the driver lacks the tag.
        Each check is sampled as soon as it is formed and then dropped.
        """
        def sample(part: CompiledSignal):
            return (part.path_values(increments, P) if tag is None
                    else part.tag_values(tag, increments[tag]) if part.weights else None)

        # b^0/N formed part by part: no scaled copy of b^0 is held through the loop
        base = b.part(tag) + (1.0 / N) * spec.b0_signal.part(tag)
        drive = base - coupling.part(tag)
        strategy = ops.player_solver.solve(drive)
        residual = sample(ops.player_solver.residual(drive, strategy))
        del drive               # nothing reads the driver past its residual
        condition = strategy.adapted_matmul(own).accumulate(coupling.part(tag))
        condition = sample(condition.accumulate(base, subtract=True))
        return strategy, [sample(strategy), residual, condition, sample(base)]

    # every player's mean part, then each tag's parts in sorted order
    samples = u, residual, condition, base_values = [np.empty((N, P, grid.n)) for _ in range(4)]
    means, weights = [], [{} for _ in range(N)]
    for i, b in enumerate(spec.b_signals):
        strategy, mean_samples = player_part(b, None)
        means.append(strategy.mean)
        for out, values in zip(samples, mean_samples):
            out[i] = values
    for tag in tags:
        done = {}       # this tag's driver weights, by id: (the weights, their part)
        for i, b in enumerate(spec.b_signals):
            w = b.weights.get(tag)
            if id(w) not in done:
                done[id(w)] = w, player_part(b, tag)
            part, tag_samples = done[id(w)][1]
            weights[i][tag] = part.weights[tag]
            for out, values in zip(samples, tag_samples):
                if values is not None:
                    out[i] += values
    fred_residual = max(fred_residual, float(np.max(np.abs(residual), initial=0.0)))
    foc = float(np.max(np.abs(condition), initial=0.0))
    ubar = mean_strategy.path_values(increments, P)
    mean_gap = float(np.max(np.abs(u.mean(axis=0) - ubar))) if P else 0.0

    return NashSolution(
        ubar=ubar, u=u, base_values=base_values, mean_strategy=mean_strategy,
        strategies=tuple(CompiledSignal(grid, m, w) for m, w in zip(means, weights)),
        increments=increments,
        diagnostics={
            "mean_gap": mean_gap,
            "fredholm_residual_max": fred_residual,
            "foc_residual_max": foc,
            "min_pivot_D_mean": ops.mean_solver.min_pivot(),
            "min_pivot_D_player": ops.player_solver.min_pivot(),
            "cond1_est_D_mean_0": ops.mean_solver.cond1_est(),
            "cond1_est_D_player_0": ops.player_solver.cond1_est(),
            **spec.margins,
        },
    )


def foc_residual(spec: GameSpec, solution: NashSolution, i: int) -> float:
    """Sup over the sampled paths of player i's discretized first-order condition."""
    own, coupling = _foc_terms(spec, solution.mean_strategy)
    return sup_on_paths(solution.strategies[i].adapted_matmul(own) + coupling
                        - player_base(spec, i),
                        solution.increments, len(solution.ubar))


def _foc_terms(spec: GameSpec, mean_strategy: CompiledSignal) -> tuple[np.ndarray, CompiledSignal]:
    """(own, coupling) such that own @ u^i + coupling - (b^i + b^0/N) is minus J^i's gradient.

    own = 2 lam id + dt (A2hat + A2hat^T + (A3 + A3^T)/N) and the coupling is
    mean_field_coupling's of ubar, both read off the objective's A1, A2hat
    and A3, so a wrong G, H or solver shows in the residual.  Formed on
    coefficients; sup_on_paths then evaluates the condition on every path.
    """
    A2, A3 = spec.a2hat.values, spec.a3.values
    own = A2 + A2.T
    own += (A3 + A3.T) / spec.n_players
    own *= spec.grid.dt
    own[np.diag_indices(spec.grid.n)] += 2.0 * spec.lam
    return own, mean_field_coupling(spec, mean_strategy)


def objective_per_path(spec: GameSpec, i: int, strategies: np.ndarray,
                       bundle: NoiseBundle) -> np.ndarray:
    """J^i on each path at the strategy profile (players, paths, n), c^i included."""
    N = spec.n_players
    if strategies.shape[0] != N:
        raise ShapeError("strategy profile must cover every player")
    increments, P = bundle.increments, bundle.n_paths
    if strategies.shape[1] != P:
        raise ShapeError("strategy paths do not match the noise paths")
    dt = spec.grid.dt

    def inner(f, g):
        return np.einsum("pj,pj->p", f, g) * dt

    def quad(f, K, g):
        return inner(f @ K, g) * dt

    ui = strategies[i]
    ub = strategies.mean(axis=0)
    bi = spec.b_signals[i].path_values(increments, P)
    b0 = spec.b0_signal.path_values(increments, P)
    A3 = spec.a3.values
    value = (-quad(ub, spec.a1.values, ub)
             - spec.lam * inner(ui, ui)
             - quad(ui, spec.a2hat.values, ui)
             - quad(ui, A3 + A3.T, ub)
             + inner(bi, ui)
             + inner(b0, ub))
    if spec.b0_extras and spec.b0_extras[i] is not None:
        extra = spec.b0_extras[i].path_values(increments, P)
        value += inner(extra, ub - ui / N)
    return value + spec.c_constants[i]


def objective(spec: GameSpec, i: int, strategies: np.ndarray, bundle: NoiseBundle) -> float:
    """Monte Carlo value of J^i at the given strategy profile (players, paths, n)."""
    return float(np.mean(objective_per_path(spec, i, strategies, bundle)))


def concavity_check(spec: GameSpec, i: int, u_base: np.ndarray, direction: np.ndarray,
                    bundle: NoiseBundle, delta: float = 1.0,
                    tol: float = 1e-10) -> bool:
    """Second central difference of eps -> J^i(u_base^i + eps*h) must be <= +tol."""
    h = np.asarray(direction, dtype=float)
    if not np.any(h != 0.0):
        raise ValueError("direction must not be identically zero")
    j0 = objective(spec, i, u_base, bundle)
    up = u_base.copy()
    up[i] = up[i] + delta * h[None, :]
    jp = objective(spec, i, up, bundle)
    um = u_base.copy()
    um[i] = um[i] - delta * h[None, :]
    jm = objective(spec, i, um, bundle)
    return (jp + jm - 2.0 * j0) <= tol


def scale_game(spec: GameSpec, gamma: float) -> GameSpec:
    """Scale (A1, A2hat, A3, lambda, b^i, b^0, c^i) jointly by gamma > 0.

    The equilibrium is invariant and every objective scales by gamma.
    """

    return replace(
        spec,
        lam=gamma * spec.lam,
        a1=add_kernels((gamma, spec.a1)),
        a2hat=add_kernels((gamma, spec.a2hat)),
        a3=add_kernels((gamma, spec.a3)),
        b_signals=tuple(gamma * f for f in spec.b_signals),
        b0_signal=gamma * spec.b0_signal,
        c_constants=tuple(gamma * c for c in spec.c_constants),
        b0_extras=tuple(None if e is None else gamma * e for e in spec.b0_extras),
    )

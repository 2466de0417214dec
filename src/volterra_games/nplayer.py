"""N-player Nash equilibria: mean strategy first, then each player's best response.

The mean strategy solves a Fredholm problem with kernel
Kbar = ((N-1)/N) H + G and driver bbar + b0/N; each player then solves one
with kernel Khat = G - H/N and a driver shifted by the realized and expected
action of the mean, where G = A1/N^2 + 2 A3/N + A2hat and H = A1/N + A3.
Both solves share the scale lam_eff = 2*lambda.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConsistencyViolation, InadmissibleKernel, ShapeError
from .fredholm import FredholmProblem, FredholmSolver
from .grid_ops import (
    GridKernel,
    TimeGrid,
    add_kernels,
    check_nonneg_definite,
    symmetrized_form,
)
from .signals import NoiseBundle, SignalPath, combine, compile_signal

ADMISSIBILITY_TOL = 1e-8
MEAN_GAP_TOL = 1e-6


@dataclass(frozen=True)
class GameSpec:
    """Static game data: operators, per-player drivers, constants.

    kernel_check is "strict" for hand-assembled games (each kernel must be
    nonnegative definite on its own) or "concave" for games reduced from
    dynamic models, whose cross kernels carry signs: there only positivity of
    the per-player quadratic form lam*id + A1/N^2 + (A3+A3*)/N + A2hat is
    required, which is what strict concavity of the objective needs.
    """

    n_players: int
    lam: float
    a1: GridKernel
    a2hat: GridKernel
    a3: GridKernel
    b_signals: tuple
    b0_signal: object
    grid: TimeGrid
    c_constants: tuple = ()
    kernel_check: str = "strict"
    # per-player remainder of a player-dependent b^0, already folded into
    # b_signals for the solvers; enters only objective values, through the
    # first-order-null term <extra_i, ubar - u^i/N>
    b0_extras: tuple = ()

    def __post_init__(self):
        if self.n_players < 1:
            raise ShapeError(f"need at least one player, got {self.n_players}")
        if not (self.lam > 0.0):
            raise InadmissibleKernel(f"lambda must be positive, got {self.lam}")
        if len(self.b_signals) != self.n_players:
            raise ShapeError("one b signal required per player")
        for name, K in (("A1", self.a1), ("A2hat", self.a2hat), ("A3", self.a3)):
            if K.grid != self.grid:
                raise ShapeError(f"{name} lives on a different grid")
            if not K.volterra:
                raise InadmissibleKernel(f"{name} must be a Volterra kernel")
        if self.kernel_check == "strict":
            for name, K in (("A1", self.a1), ("A2hat", self.a2hat), ("A3", self.a3)):
                if not check_nonneg_definite(K, ADMISSIBILITY_TOL):
                    raise InadmissibleKernel(f"{name} fails nonnegative-definiteness")
        elif self.kernel_check == "concave":
            N = self.n_players
            hess = add_kernels((1.0 / N ** 2, self.a1), (2.0 / N, self.a3), (1.0, self.a2hat))
            low = float(np.linalg.eigvalsh(symmetrized_form(hess))[0])
            if low < -(self.lam + ADMISSIBILITY_TOL):
                raise InadmissibleKernel(
                    f"player quadratic form loses concavity: min eig {low:.3e} < -lam")
        else:
            raise ShapeError(f"unknown kernel_check mode {self.kernel_check!r}")
        if not self.c_constants:
            object.__setattr__(self, "c_constants", (0.0,) * self.n_players)
        if len(self.c_constants) != self.n_players:
            raise ShapeError("one c constant required per player")


def build_GH(spec: GameSpec) -> tuple[GridKernel, GridKernel]:
    """G = A1/N^2 + 2 A3/N + A2hat and H = A1/N + A3, entrywise."""
    N = spec.n_players
    G = add_kernels((1.0 / N ** 2, spec.a1), (2.0 / N, spec.a3), (1.0, spec.a2hat))
    H = add_kernels((1.0 / N, spec.a1), (1.0, spec.a3))
    return G, H


@dataclass
class GameOperators:
    """Per-spec factorizations, shared across paths and players."""

    G: GridKernel
    H: GridKernel
    kbar: GridKernel
    khat: GridKernel
    mean_solver: FredholmSolver
    player_solver: FredholmSolver


def build_operators(spec: GameSpec) -> GameOperators:
    G, H = build_GH(spec)
    N = spec.n_players
    kbar = add_kernels(((N - 1.0) / N, H), (1.0, G))
    khat = add_kernels((1.0, G), (-1.0 / N, H))
    lam_eff = 2.0 * spec.lam
    mean_solver = FredholmSolver(FredholmProblem(K=kbar, L=kbar, lam_eff=lam_eff))
    player_solver = FredholmSolver(FredholmProblem(K=khat, L=khat, lam_eff=lam_eff))
    return GameOperators(G, H, kbar, khat, mean_solver, player_solver)


def shifted_drive(base: SignalPath, H: GridKernel, w: np.ndarray,
                  w_surface: np.ndarray) -> SignalPath:
    """Driver base - H(w) - H*(E_. w) with its exact tower-consistent surface.

    Rows of the output surface at or below the diagonal are the adapted values
    themselves; above, expectations of expectations collapse to the outer time
    through the rows of w_surface.
    """
    grid = base.grid
    dt = grid.dt
    Hv = H.values
    d = base.values - dt * (Hv @ w) - dt * np.einsum("rk,kr->k", Hv, w_surface)
    sym = Hv + Hv.T
    S = base.surface - dt * (w_surface @ sym)
    rows = np.arange(grid.n)[:, None]
    cols = np.arange(grid.n)[None, :]
    S = np.where(cols <= rows, d[None, :], S)
    return SignalPath(grid, d, S, base.noise_tags)


def shifted_drive_batch(base_values, base_surfaces, H: GridKernel, w, w_surfaces):
    dt = H.grid.dt
    Hv = H.values
    d = base_values - dt * (w @ Hv.T) - dt * np.einsum("rk,pkr->pk", Hv, w_surfaces)
    S = base_surfaces - dt * (w_surfaces @ (Hv + Hv.T))
    n = H.grid.n
    mask = np.arange(n)[None, :] <= np.arange(n)[:, None]
    S = np.where(mask[None, :, :], d[:, None, :], S)
    return d, S


def mean_conditional_drive(spec: GameSpec, ubar: np.ndarray, ubar_surface: np.ndarray,
                           base: SignalPath) -> SignalPath:
    """Player driver E_t[b^i + b^0/N - ((H+H*) ubar)] as a SignalPath."""
    _, H = build_GH(spec)
    return shifted_drive(base, H, ubar, ubar_surface)


@dataclass
class NashSolution:
    """Equilibrium strategies per path plus solver diagnostics."""

    ubar: np.ndarray            # (paths, n)
    ubar_surface: np.ndarray    # (paths, n, n)
    u: np.ndarray               # (players, paths, n)
    u_surface: np.ndarray       # (players, paths, n, n)
    base_values: np.ndarray     # (players, paths, n): b^i + b^0/N per path
    diagnostics: dict = field(default_factory=dict)


def simulate_game_signals(spec: GameSpec, bundle: NoiseBundle, indices=None):
    """Per-player SignalPaths of b^i and of b^0, for the selected path indices."""
    indices = range(bundle.n_paths) if indices is None else list(indices)
    compiled_b = [compile_signal(f, spec.grid) for f in spec.b_signals]
    compiled_b0 = compile_signal(spec.b0_signal, spec.grid)
    b_paths, b0_paths = [], []
    for k in indices:
        dW = bundle.path(k)
        b0v, b0s = compiled_b0.values_and_surface(dW)
        b0_paths.append(SignalPath(spec.grid, b0v, b0s, compiled_b0.noise_tags()))
        row = []
        for cs in compiled_b:
            v, s = cs.values_and_surface(dW)
            row.append(SignalPath(spec.grid, v, s, cs.noise_tags()))
        b_paths.append(row)
    return b_paths, b0_paths


def _player_mean_driver(b_paths, b0_path) -> SignalPath:
    """(1/N) sum b^i + b^0/N, accumulated in value-sorted order so the result
    is bitwise invariant under player permutations."""
    N = len(b_paths)
    grid = b0_path.grid
    vals = np.sort(np.stack([p.values for p in b_paths]), axis=0).sum(axis=0) / N
    surf = np.sort(np.stack([p.surface for p in b_paths]), axis=0).sum(axis=0) / N
    tags = frozenset().union(*[p.noise_tags for p in b_paths]) | b0_path.noise_tags
    return SignalPath(grid, vals + b0_path.values / N,
                      surf + b0_path.surface / N, tags)


def solve_mean(spec: GameSpec, driver_paths, operators: GameOperators | None = None):
    """Mean-strategy solve on each driver path bbar + b0/N; returns values and surfaces."""
    ops = operators or build_operators(spec)
    ubar, surf = [], []
    for path in driver_paths:
        sol = ops.mean_solver.solve_path(path)
        ubar.append(sol.v)
        surf.append(sol.surface)
    return np.asarray(ubar), np.asarray(surf)


def solve_player(spec: GameSpec, i: int, drive: SignalPath,
                 operators: GameOperators | None = None) -> np.ndarray:
    """Best response of player i to the solved mean, per path."""
    ops = operators or build_operators(spec)
    return ops.player_solver.solve_v(ops.player_solver.assemble_a(drive))


def solve_nash(spec: GameSpec, bundle: NoiseBundle, indices=None,
               mean_gap_tol: float = MEAN_GAP_TOL) -> NashSolution:
    """Full equilibrium: mean first, then every player; asserts mean consistency."""
    ops = build_operators(spec)
    N = spec.n_players
    b_paths, b0_paths = simulate_game_signals(spec, bundle, indices)
    P = len(b_paths)
    n = spec.grid.n

    ubar = np.empty((P, n))
    ubar_surface = np.empty((P, n, n))
    u = np.empty((N, P, n))
    u_surface = np.empty((N, P, n, n))
    base_values = np.empty((N, P, n))
    fred_residuals = np.zeros((N + 1, P))

    for p in range(P):
        mean_driver = _player_mean_driver(b_paths[p], b0_paths[p])
        mean_sol = ops.mean_solver.solve_path(mean_driver)
        ubar[p] = mean_sol.v
        ubar_surface[p] = mean_sol.surface
        fred_residuals[0, p] = mean_sol.residual
        for i in range(N):
            base = combine([(1.0, b_paths[p][i]), (1.0 / N, b0_paths[p])])
            base_values[i, p] = base.values
            drive = shifted_drive(base, ops.H, mean_sol.v, mean_sol.surface)
            sol_i = ops.player_solver.solve_path(drive)
            u[i, p] = sol_i.v
            u_surface[i, p] = sol_i.surface
            fred_residuals[i + 1, p] = sol_i.residual

    mean_gap = float(np.max(np.abs(u.mean(axis=0) - ubar))) if P else 0.0
    if mean_gap > mean_gap_tol:
        raise ConsistencyViolation(
            f"per-player average deviates from mean strategy by {mean_gap:.3e}")

    sol = NashSolution(
        ubar=ubar, ubar_surface=ubar_surface, u=u, u_surface=u_surface,
        base_values=base_values,
        diagnostics={
            "mean_gap": mean_gap,
            "fredholm_residual_max": float(fred_residuals.max()) if P else 0.0,
            "min_pivot_D_mean": ops.mean_solver.dt_family.min_pivot(),
            "min_pivot_D_player": ops.player_solver.dt_family.min_pivot(),
            "cond1_D_mean_0": ops.mean_solver.dt_family.cond1(),
            "cond1_D_player_0": ops.player_solver.dt_family.cond1(),
        },
    )
    sol.diagnostics["foc_residual_max"] = max(
        (foc_residual(spec, sol, i, p, operators=ops) for i in range(N) for p in range(P)),
        default=0.0,
    )
    return sol


def foc_residual(spec: GameSpec, solution: NashSolution, i: int, path_index: int,
                 operators: GameOperators | None = None) -> float:
    """Sup-norm residual of player i's discretized first-order condition."""
    ops = operators or build_operators(spec)
    dt = spec.grid.dt
    ui = solution.u[i, path_index]
    si = solution.u_surface[i, path_index]
    ub = solution.ubar[path_index]
    sb = solution.ubar_surface[path_index]
    b = solution.base_values[i, path_index]
    H, Kh = ops.H.values, ops.khat.values
    res = (2.0 * spec.lam * ui - b
           + dt * (H @ ub) + dt * np.einsum("rk,kr->k", H, sb)
           + dt * (Kh @ ui) + dt * np.einsum("rk,kr->k", Kh, si))
    return float(np.max(np.abs(res)))


def _quad(grid: TimeGrid, f: np.ndarray, K: GridKernel, g: np.ndarray) -> float:
    return float(f @ K.values @ g) * grid.dt ** 2


def objective(spec: GameSpec, i: int, strategies: np.ndarray, bundle: NoiseBundle,
              indices=None) -> float:
    """Monte Carlo value of J^i at the given strategy profile (players, paths, n)."""
    N = spec.n_players
    if strategies.shape[0] != N:
        raise ShapeError("strategy profile must cover every player")
    grid = spec.grid
    dt = grid.dt
    indices = range(bundle.n_paths) if indices is None else list(indices)
    if strategies.shape[1] != len(indices):
        raise ShapeError("strategy paths do not match the requested noise paths")
    compiled_bi = compile_signal(spec.b_signals[i], grid)
    compiled_b0 = compile_signal(spec.b0_signal, grid)
    compiled_extra = None
    if spec.b0_extras and spec.b0_extras[i] is not None:
        compiled_extra = compile_signal(spec.b0_extras[i], grid)
    total = 0.0
    for col, k in enumerate(indices):
        dW = bundle.path(k)
        bi, _ = compiled_bi.values_and_surface(dW)
        b0, _ = compiled_b0.values_and_surface(dW)
        ui = strategies[i, col]
        ub = strategies[:, col].mean(axis=0)
        total += (
            -_quad(grid, ub, spec.a1, ub)
            - spec.lam * float(ui @ ui) * dt
            - _quad(grid, ui, spec.a2hat, ui)
            - _quad(grid, ui, spec.a3, ub) - float(ui @ spec.a3.values.T @ ub) * dt ** 2
            + float(bi @ ui) * dt
            + float(b0 @ ub) * dt
        )
        if compiled_extra is not None:
            ex, _ = compiled_extra.values_and_surface(dW)
            total += float(ex @ (ub - ui / spec.n_players)) * dt
    return total / len(indices) + spec.c_constants[i]


def concavity_check(spec: GameSpec, i: int, u_base: np.ndarray, direction: np.ndarray,
                    bundle: NoiseBundle, indices=None, delta: float = 1.0,
                    tol: float = 1e-10) -> bool:
    """Second central difference of eps -> J^i(u_base^i + eps*h) must be <= +tol."""
    h = np.asarray(direction, dtype=float)
    if not np.any(h != 0.0):
        raise ValueError("direction must not be identically zero")
    j0 = objective(spec, i, u_base, bundle, indices)
    up = u_base.copy()
    up[i] = up[i] + delta * h[None, :]
    jp = objective(spec, i, up, bundle, indices)
    um = u_base.copy()
    um[i] = um[i] - delta * h[None, :]
    jm = objective(spec, i, um, bundle, indices)
    return (jp + jm - 2.0 * j0) <= tol


def scale_game(spec: GameSpec, gamma: float) -> GameSpec:
    """Scale (A1, A2hat, A3, lambda, b^i, b^0) jointly; the equilibrium is invariant."""
    from .signals import LinearCombination

    def scale_sig(fam):
        return LinearCombination(terms=((gamma, fam),))

    return GameSpec(
        n_players=spec.n_players,
        lam=gamma * spec.lam,
        a1=GridKernel(spec.grid, gamma * spec.a1.values),
        a2hat=GridKernel(spec.grid, gamma * spec.a2hat.values),
        a3=GridKernel(spec.grid, gamma * spec.a3.values),
        b_signals=tuple(scale_sig(f) for f in spec.b_signals),
        b0_signal=scale_sig(spec.b0_signal),
        grid=spec.grid,
        c_constants=spec.c_constants,
    )

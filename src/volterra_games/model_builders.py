"""Reduce dynamic Volterra games to static game data, plus the worked models.

A Volterra game has per-player states Z^i = d^i + int D(t,s) (u^i, ubar) ds
with a 2x2 block kernel D, quadratic running/terminal costs (Q, S), a
control-state cross vector q, and control cost p.  A state lives on the game
grid extended by its horizon point (grid_ops.horizon_grid): n + 1 rows, the
grid times and then T, weighed in one sum, dt Q at each grid time and S at
T.  The worked models discretize every state kernel on that grid with
grid_ops.discretize_kernel; a delay measure is one more kernel family.  The
reduction expands the discrete objective exactly over ordered time pairs,
which yields strictly lower triangular A-kernels, affine-in-noise drivers
b^i, b^0, and constants c^i.  The tests check it against a direct state
simulator with the matching ordered-pair quadrature (tests/references.py).
"""

from __future__ import annotations

import functools
import numbers
import operator
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, ConvexityViolation, InadmissibleKernel, ShapeError
from .grid_ops import (
    ConstantLower,
    GridKernel,
    KernelSpec,
    Tabulated,
    TimeGrid,
    apply,
    discretize_kernel,
    horizon_grid,
    resolvent,
    star_product,
)
from .nplayer import DEFAULT_TOLERANCES, GameSpec
from .signals import (
    CompiledSignal,
    canonicalizer,
    deterministic,
    martingale,
    on_grid,
    once_per_array,
)


def number(value, name: str, lists: bool = False):
    """A config number as a float, or with lists also a (nested) list of them as a list.

    Anything else raises ConfigError naming the field: float() would take "2" or true.
    """
    if lists and isinstance(value, list):
        return [number(v, f"{name}[{i}]", lists) for i, v in enumerate(value)]
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a number{' or a list' if lists else ''}, "
                          f"got {value!r}")
    return float(value)


def integer_field(value, name: str) -> int:
    """A count or seed read from a config: a number with no fractional part, as an int."""
    if not number(value, name).is_integer():
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def player_count(params: dict, *lists: str) -> int:
    """model.N, at least 1, with N numbers in each per-player list of lists that params has."""
    N = integer_field(params["N"], "model.N")
    if N < 1 or any(np.shape(params[key]) != (N,) for key in lists if key in params):
        raise ShapeError(f"need model.N >= 1 and one number per player in {', '.join(lists)}; "
                         f"got N = {N}")
    return N


# ---------------------------------------------------------------------------
# delay measures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DelayMeasure(KernelSpec):
    """Convolution kernel G(t - s), G(x) = nu([0, x]), of a signed measure nu on
    [0, infinity): point masses plus a piecewise-constant density."""

    atoms: tuple = ()              # of (location tau >= 0, mass)
    density: tuple | None = None   # cell values of a density on the grid, or None

    def __post_init__(self):
        for tau, mass in self.atoms:
            if tau < 0.0 or not np.isfinite(mass):
                raise ShapeError(f"bad atom ({tau}, {mass})")

    def _eval_cum(self, grid: TimeGrid, x: np.ndarray) -> np.ndarray:
        """G_d(x) = int_0^x density, piecewise linear, clamped beyond the grid."""
        g = np.asarray(self.density, dtype=float)
        if g.shape != (grid.n,):
            raise ShapeError(f"density needs {grid.n} cell values, got {g.shape}")
        cum = np.concatenate([[0.0], np.cumsum(g) * grid.dt])
        xc = np.clip(x, 0.0, grid.horizon)
        m = np.minimum((xc / grid.dt).astype(int), grid.n - 1)
        return cum[m] + g[m] * (xc - m * grid.dt)

    def row_averages(self, t, grid):
        dt = grid.dt
        out = np.zeros(np.broadcast_shapes(np.shape(t), grid.times.shape))
        for tau, mass in self.atoms:
            out += mass * np.clip((t - tau - grid.times) / dt, 0.0, 1.0)
        if self.density is not None:
            mid = t - grid.times - 0.5 * dt
            out += self._eval_cum(grid, np.maximum(mid, 0.0))
        return out

    def half_cell_average(self, grid):
        dt = grid.dt
        total = 0.0
        for tau, mass in self.atoms:
            if tau < dt:
                total += mass * (1.0 - tau / dt) ** 2
        if self.density is not None:
            total += float(np.asarray(self.density)[0]) * dt / 3.0
        return total


# ---------------------------------------------------------------------------
# Volterra game data and the static reduction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TerminalVector:
    """F_T-measurable 2-vector: mean plus per-tag increment weights (2, n)."""

    mean: np.ndarray
    weights: dict

    @staticmethod
    def zero():
        return TerminalVector(np.zeros(2), {})


@dataclass(frozen=True)
class VolterraGameSpec:
    """Discrete dynamic game: Z^i[k] = d^i[k] + sum_{j<k} D[k, j] (u^i_j, ubar_j) dt.

    A state has n + 1 rows k, the grid times and then T: dblock has shape
    (n + 1, n, 2, 2), columns cell averages in s, and the state signals d^i
    live on horizon_grid(grid), their weights read on the game's n
    increments (a last column, on an increment past T, is not read).  The
    state signals and terminal vectors go through one signals.canonicalizer:
    one array per value.
    """

    n_players: int
    p: float
    qmat: np.ndarray           # (2, 2)
    smat: np.ndarray           # (2, 2)
    qvec: np.ndarray           # (2,)
    dblock: np.ndarray         # (n + 1, n, 2, 2)
    d_signals: tuple           # per player: (component-1, component-2) CompiledSignals
    s_terminals: tuple         # per player: TerminalVector
    grid: TimeGrid

    def __post_init__(self):
        n = self.grid.n
        if self.p < 0.0:
            raise InadmissibleKernel(f"control cost p must be >= 0, got {self.p}")
        if np.asarray(self.dblock).shape != (n + 1, n, 2, 2):
            raise ShapeError("dblock must have shape (n+1, n, 2, 2)")
        if len(self.d_signals) != self.n_players or len(self.s_terminals) != self.n_players:
            raise ShapeError("per-player signal data must cover every player")
        on_grid(horizon_grid(self.grid), *(d for pair in self.d_signals for d in pair))
        canonical = canonicalizer()
        object.__setattr__(self, "d_signals", tuple(tuple(map(canonical, pair))
                                                    for pair in self.d_signals))
        object.__setattr__(self, "s_terminals", tuple(
            TerminalVector(canonical(s.mean), {t: canonical(w) for t, w in s.weights.items()})
            for s in self.s_terminals))


def _kernel_block(DW: np.ndarray, D: np.ndarray) -> np.ndarray:
    """M[j, l, b, d] = sum_{k, c} DW[j, b, k, c] D[k, l, c, d], one GEMM over (k, c).

    D is (n + 1, n, 2, 2), and DW[j, b, k, c] = sum_a D[k, j, a, b] W[k, a, c]
    its rows weighted by the (n + 1, 2, 2) state weights W: DW is the
    (2n x 2(n + 1)) left factor, D's rows the (2(n + 1) x 2n) right one.
    """
    K, n = D.shape[:2]
    right = D.transpose(0, 2, 1, 3).reshape(2 * K, 2 * n)
    return (DW.reshape(2 * n, 2 * K) @ right).reshape(n, 2, n, 2).transpose(0, 2, 1, 3)


def _row_inner(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum_r w[k, r] v[k, r] at each state row k, over the game's n increments."""
    n = w.shape[1] - 1
    return np.einsum("kr,kr->k", w[:, :n], v[:, :n])


def _row_map(Rc: np.ndarray, w: np.ndarray) -> np.ndarray:
    """One tag's two (n, n) row blocks: Rc on the state weights w, over the game's n increments.

    The blocks are projected onto past increments (r < j): the value and surface
    conventions never read the rest, and the raw form stays adapted.
    """
    n = Rc.shape[0] // 2
    return np.tril((Rc @ w[:, :n]).reshape(2, n, n), -1)


def _fold(row0: np.ndarray, row1: np.ndarray, N) -> tuple:
    """(b^i, its b^0 remainder) from a player's two driver rows: (row0 + row1 / N, row1)."""
    return row0 + row1 / N, row1


def reduce_volterra_game(vspec: VolterraGameSpec) -> GameSpec:
    """Exact static form of the discrete Volterra game, on vspec's grid.

    The quadratic part expands over ordered time pairs l < j, giving the
    kernel block [[A2hat, A3], [A3, A1]]; the two cross slots are averaged
    into the single A3 (exact whenever they coincide, e.g. symmetric state
    blocks, and for symmetric strategy profiles otherwise).  Every state row
    k enters with its weight, dt Q at a grid time and S at T, dt the game
    grid's step.

    The linear part of J^i is <row0_i, u^i> + <row1_i, ubar> for two driver
    rows, compiled signals.  The solvers read only b^i + b^0 / N, so the
    game takes b^0 = 0, b^i = row0_i + row1_i / N and all of row1_i as the
    b^0 remainder that enters objective values (GameSpec.b0_extras).

    The driver rows are linear in each state component: player i's row pair,
    stacked as 2n rows, is R_1 d^i_1 + R_2 d^i_2 + T s^i with fixed
    (2n x (n + 1)) row maps R_c over the state's rows: minus the weighted
    state rows DW, formed once and also the kernel block's left factor, plus
    q on the grid rows.  A player's rows for a tag depend on the player
    only through the tag's sources: each state component's weights and the
    target's weights.  vspec holds one array per value, so, by id, each
    distinct state array is mapped once per component it fills, each
    distinct source tuple is added into rows and folded once, and each pair
    of weight arrays gives its row inner products for c^i once, across
    players and tags: the systemic banks cost O(distinct values), not
    players x tags.  The maps are dropped after the last player's rows.
    """
    if not (vspec.p > 0.0):
        raise InadmissibleKernel("reduction to a game needs strictly positive control cost")
    grid = vspec.grid
    n = grid.n
    dt = grid.dt
    N = vspec.n_players
    D = np.asarray(vspec.dblock)               # (k, j, 2, 2), k = n the row at T
    # the state rows' weights: dt (Q + Q^T) at each grid time, S + S^T at T
    W = np.concatenate([np.broadcast_to(dt * (vspec.qmat + vspec.qmat.T), (n, 2, 2)),
                        (vspec.smat + vspec.smat.T)[None]])

    # kernel block M[j, l] for l < j, from the weighted state rows
    DW = np.einsum("kjab,kac->jbkc", D, W)
    M = _kernel_block(DW, D)
    qrow = np.einsum("c,jlcd->jld", vspec.qvec, D[:n])     # (q^T D)[j, l, d]
    M[:, :, 0, :] -= 0.5 * qrow
    M[:, :, :, 0] -= 0.5 * qrow
    lower = np.tril(np.ones((n, n)), k=-1)
    a2hat = GridKernel(grid, M[:, :, 0, 0] * lower)
    a1 = GridKernel(grid, M[:, :, 1, 1] * lower)
    a3 = GridKernel(grid, 0.5 * (M[:, :, 0, 1] + M[:, :, 1, 0]) * lower)
    del M, qrow, lower

    # the two driver rows, stacked as 2n rows (b, j).  State component c enters
    # through R[c] on its n + 1 rows, minus the weighted state rows, and the
    # terminal target s^i through T.
    R = -DW.transpose(3, 1, 0, 2).reshape(2, 2 * n, n + 1)
    del DW
    R[:, :n, :n] += vspec.qvec[:, None, None] * np.eye(n)
    T = np.einsum("jab->bja", D[n]).reshape(2 * n, 2)

    maps = [once_per_array(functools.partial(_row_map, R[c])) for c in (0, 1)]

    @once_per_array
    def folded(w0, w1, ws):
        """One tag's sources (None where absent) as (b^i, remainder) weights, None where all zero."""
        parts = [maps[c](w) for c, w in ((0, w0), (1, w1)) if w is not None]
        if ws is not None:
            parts.append(np.tril((T @ ws).reshape(2, n, n), -1))      # cut as _row_map cuts
        rows = [functools.reduce(operator.add, (p[b] for p in parts)) for b in (0, 1)]
        return [w if np.any(w) else None for w in _fold(*rows, N)]

    inner = once_per_array(_row_inner)
    b_signals, b0_extras, c_consts = [], [], []
    for d, s_term in zip(vspec.d_signals, vspec.s_terminals):
        mean = R[0] @ d[0].mean + R[1] @ d[1].mean + T @ s_term.mean
        weights = {t: folded(d[0].weights.get(t), d[1].weights.get(t), s_term.weights.get(t))
                   for t in sorted({*s_term.weights, *d[0].weights, *d[1].weights})}
        drive, extra = (CompiledSignal(grid, m, {t: w[k] for t, w in weights.items()
                                                 if w[k] is not None})
                        for k, m in enumerate(_fold(mean[:n], mean[n:], N)))
        b_signals.append(drive)
        b0_extras.append(extra if np.any(extra.mean) or extra.weights else None)

        # c_i = -sum_k E[d_k^T W[k] d_k] / 2 + E[d_T . s], component by component, where
        # E[x_k y_k] = x_k y_k on the means plus dt times each common tag's row inner product
        c_i = 0.0
        for a in (0, 1):
            for b in (0, 1):
                moments = d[a].mean * d[b].mean + dt * sum(
                    inner(w, d[b].weights[t]) for t, w in d[a].weights.items()
                    if t in d[b].weights)
                c_i -= 0.5 * (W[:, a, b] @ moments)
            c_i += d[a].mean[n] * s_term.mean[a]
            c_i += dt * sum(float(w[n, :n] @ s_term.weights[t][a])
                            for t, w in d[a].weights.items() if t in s_term.weights)
        c_consts.append(float(c_i))
    del maps, folded        # the memos hold every mapped state array's rows

    spec = GameSpec(
        n_players=N, lam=vspec.p, a1=a1, a2hat=a2hat, a3=a3,
        b_signals=tuple(b_signals), b0_signal=deterministic(grid, 0.0), grid=grid,
        c_constants=tuple(c_consts), kernel_check="concave", b0_extras=tuple(b0_extras),
    )
    low = spec.margins["min_eig_A2hat"]
    if low < -(vspec.p + DEFAULT_TOLERANCES["admissibility"]):
        raise InadmissibleKernel(
            f"assembled instantaneous cost loses definiteness: min eig {low:.3e} < -p")
    return spec


# ---------------------------------------------------------------------------
# worked models
# ---------------------------------------------------------------------------

def _state_kernel(spec: KernelSpec, grid: TimeGrid) -> GridKernel:
    """A state kernel on horizon_grid(grid), rows at the grid times and at T.

    A delay density lists grid's n cells and gets one zero cell past T, which
    no row reads (the largest lag is T - dt/2).  A table lists no row at T.
    """
    if isinstance(spec, Tabulated):
        raise InadmissibleKernel("tabulated kernels have no off-grid rows")
    if isinstance(spec, DelayMeasure) and spec.density is not None:
        if np.shape(spec.density) != (grid.n,):
            raise ShapeError(f"density needs {grid.n} cell values, "
                             f"got {np.shape(spec.density)}")
        spec = replace(spec, density=(*spec.density, 0.0))
    return discretize_kernel(spec, horizon_grid(grid))


def build_liquidation_game(params: dict, grid: TimeGrid) -> tuple[GameSpec, VolterraGameSpec]:
    """Optimal liquidation with transient aggregate impact and price signals.

    params: N, lam, phi, rho_term, propagator (KernelSpec), x0 (per player),
    signal_sigma (per player, price martingale volatility; 0 for none),
    common_signal_sigma (optional common price factor).
    """
    N = player_count(params, "x0", "signal_sigma")
    lam, phi, rho_term = float(params["lam"]), float(params["phi"]), float(params["rho_term"])
    if min(lam, phi, rho_term) <= 0.0:
        raise InadmissibleKernel("liquidation needs lam, phi, rho_term > 0")
    x0 = np.asarray(params["x0"], dtype=float)
    sigmas = np.asarray(params.get("signal_sigma", np.zeros(N)), dtype=float)
    sigma0 = float(params.get("common_signal_sigma", 0.0))

    n, ext = grid.n, horizon_grid(grid)
    dblock = np.zeros((n + 1, n, 2, 2))
    dblock[:, :, 0, 0] = _state_kernel(ConstantLower(c=-1.0), grid).values[:, :n]
    dblock[:, :, 1, 1] = -_state_kernel(params["propagator"], grid).values[:, :n]

    d_signals, s_terms = [], []
    for i in range(N):
        price = deterministic(ext, 0.0)
        if sigmas[i] != 0.0:
            price = price + martingale(ext, sigmas[i], f"price{i}")
        if sigma0 != 0.0:
            price = price + martingale(ext, sigma0, "price_common")
        d_signals.append((deterministic(ext, x0[i]), price))
        s_terms.append(TerminalVector(np.array([price.mean[n], 0.0]),
                                      {t: np.stack([w[n, :n], np.zeros(n)])
                                       for t, w in price.weights.items()}))

    vspec = VolterraGameSpec(
        n_players=N, p=lam,
        qmat=np.array([[phi, 0.0], [0.0, 0.0]]),
        smat=np.array([[rho_term, 0.0], [0.0, 0.0]]),
        qvec=np.array([0.0, 1.0]),
        dblock=dblock, d_signals=tuple(d_signals), s_terminals=tuple(s_terms),
        grid=grid,
    )
    return reduce_volterra_game(vspec), vspec


def build_systemic_game(params: dict, grid: TimeGrid) -> tuple[GameSpec, VolterraGameSpec]:
    """Inter-bank lending with delayed repayment.

    params: N, beta, eps, cost_c, sigma (per player), delay (DelayMeasure),
    x0 (per player), h (optional: per player, one drift value per cell).
    """
    N = player_count(params, "sigma", "x0")
    beta, eps, cost_c = float(params["beta"]), float(params["eps"]), float(params["cost_c"])
    if beta ** 2 > eps:
        raise ConvexityViolation(f"need beta^2 <= eps, got beta^2 = {beta ** 2}, eps = {eps}")
    if cost_c < 0.0 or eps <= 0.0:
        raise InadmissibleKernel("need eps > 0 and cost_c >= 0")
    sigma = np.asarray(params["sigma"], dtype=float)
    x0 = np.asarray(params["x0"], dtype=float)
    n, ext = grid.n, horizon_grid(grid)

    rows = _state_kernel(params["delay"], grid).values[:, :n]
    dblock = np.zeros((n + 1, n, 2, 2))
    dblock[:, :, 0, 0] = rows
    dblock[:, :, 1, 1] = rows

    h = np.asarray(params.get("h", np.zeros((N, n))), dtype=float)
    if h.shape != (N, n):
        raise ShapeError(f"h must list one value per cell ({n}) for each of the {N} players")
    reserves = []
    for i in range(N):
        reserve = deterministic(ext, x0[i] + np.concatenate([[0.0], np.cumsum(h[i])]) * grid.dt)
        if sigma[i] != 0.0:
            reserve = reserve + martingale(ext, sigma[i], f"reserve{i}")
        reserves.append(reserve)
    # one mean-field object in every bank's pair: the reduction maps it once
    mean_field = sum((1.0 / N) * r for r in reserves)

    d_signals = tuple((reserves[i], mean_field) for i in range(N))
    s_terms = tuple(TerminalVector.zero() for _ in range(N))
    vspec = VolterraGameSpec(
        n_players=N, p=0.5,
        qmat=0.5 * eps * np.array([[1.0, -1.0], [-1.0, 1.0]]),
        smat=(cost_c / eps) * 0.5 * eps * np.array([[1.0, -1.0], [-1.0, 1.0]]),
        qvec=beta * np.array([-1.0, 1.0]),
        dblock=dblock, d_signals=d_signals, s_terminals=s_terms, grid=grid,
    )
    return reduce_volterra_game(vspec), vspec


def build_advertising_game(params: dict, grid: TimeGrid) -> tuple[GameSpec, VolterraGameSpec]:
    """Goodwill advertising with delayed forgetting and delayed competition.

    params: N, lam, beta, forgetting (DelayMeasure), competition (DelayMeasure),
    sigma (per player).  The state response to noise is built from resolvents on
    the horizon grid, each operator product formed once; the control blocks are
    beta times those responses' first n columns.
    """
    N = player_count(params, "sigma")
    lam, beta = float(params["lam"]), float(params["beta"])
    if lam <= 0.0 or beta < 0.0:
        raise InadmissibleKernel("advertising needs lam > 0 and beta >= 0")
    sigma = np.asarray(params["sigma"], dtype=float)
    n = grid.n
    ext = horizon_grid(grid)
    K_ext = _state_kernel(params.get("forgetting", DelayMeasure()), grid)
    H_ext = _state_kernel(params.get("competition", DelayMeasure()), grid)
    rk = resolvent(K_ext)
    rkh = resolvent(GridKernel(ext, K_ext.values + H_ext.values))

    # noise response: own Brownian plus resolvent-smoothed average of all
    w_own = np.tril(np.ones((ext.n, ext.n)), k=-1)
    own_resp = w_own + apply(rk, w_own)
    smooth = apply(H_ext, w_own) + apply(star_product(H_ext, rkh), w_own)
    smooth += apply(rk, smooth)

    # a unit-rate control on cell j, divided by the cell weight, adds beta at every
    # later point: beta times column j of w_own
    dblock = np.zeros((n + 1, n, 2, 2))
    dblock[:, :, 0, 0] = beta * own_resp[:, :n]
    dblock[:, :, 0, 1] = beta * smooth[:, :n]

    def response(scaled: dict) -> CompiledSignal:
        """Goodwill driven by tag -> (n + 1)^2 response, without all-zero weights."""
        return CompiledSignal(ext, np.zeros(n + 1), {t: w for t, w in scaled.items() if np.any(w)})

    # one mean-field signal that every player's goodwill shares, as systemic banks do
    mean_field = response({f"adv{l}": (sigma[l] / N) * smooth for l in range(N)})
    d_signals, s_terms = [], []
    for i in range(N):
        goodwill = mean_field + response({f"adv{i}": sigma[i] * own_resp})
        d_signals.append((goodwill, deterministic(ext, 0.0)))
        s_terms.append(TerminalVector(np.array([beta, 0.0]), {}))

    vspec = VolterraGameSpec(
        n_players=N, p=lam,
        qmat=np.zeros((2, 2)), smat=np.zeros((2, 2)), qvec=np.zeros(2),
        dblock=dblock, d_signals=tuple(d_signals), s_terminals=tuple(s_terms),
        grid=grid,
    )
    return reduce_volterra_game(vspec), vspec

"""Reduce dynamic Volterra games to static game data, plus the worked models.

A Volterra game has per-player states Z^i = d^i + int D(t,s) (u^i, ubar) ds
with a 2x2 block kernel D, quadratic running/terminal costs (Q, S), a
control-state cross vector q, and control cost p.  The reduction expands the
discrete objective exactly over ordered time pairs, which yields strictly
lower triangular A-kernels, affine-in-noise drivers b^i, b^0, and constants
c^i.  A direct state simulator with the matching ordered-pair quadrature
serves as the independent fidelity oracle.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ConvexityViolation, InadmissibleKernel, ShapeError
from .grid_ops import (
    ConstantLower,
    GridKernel,
    KernelSpec,
    TimeGrid,
    apply,
    discretize_kernel,
    discretize_kernel_rows,
    resolvent,
    star_product,
)
from .nplayer import DEFAULT_TOLERANCES, GameSpec
from .signals import CompiledSignal, deterministic, martingale, on_grid


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
class DelayMeasure:
    """Signed measure on [0, infinity): point masses plus a piecewise-constant density."""

    atoms: tuple = ()              # of (location tau >= 0, mass)
    density: tuple | None = None   # cell values of a density on the grid, or None

    def __post_init__(self):
        for tau, mass in self.atoms:
            if tau < 0.0 or not np.isfinite(mass):
                raise ShapeError(f"bad atom ({tau}, {mass})")


@dataclass(frozen=True)
class MeasureConvolution(KernelSpec):
    """Convolution kernel G(t - s) with G(x) = nu([0, x])."""

    measure: DelayMeasure = DelayMeasure()

    def _cum_density(self, grid: TimeGrid) -> np.ndarray | None:
        if self.measure.density is None:
            return None
        g = np.asarray(self.measure.density, dtype=float)
        if g.shape != (grid.n,):
            raise ShapeError(f"density needs {grid.n} cell values, got {g.shape}")
        return np.concatenate([[0.0], np.cumsum(g) * grid.dt])

    def _eval_cum(self, grid: TimeGrid, x: np.ndarray) -> np.ndarray:
        """G_d(x) = int_0^x density, piecewise linear, clamped beyond the grid."""
        cum = self._cum_density(grid)
        if cum is None:
            return np.zeros_like(x)
        g = np.asarray(self.measure.density, dtype=float)
        xc = np.clip(x, 0.0, grid.horizon)
        m = np.minimum((xc / grid.dt).astype(int), grid.n - 1)
        return cum[m] + g[m] * (xc - m * grid.dt)

    def row_averages(self, t, grid):
        dt = grid.dt
        out = np.zeros(np.broadcast_shapes(np.shape(t), grid.times.shape))
        for tau, mass in self.measure.atoms:
            out += mass * np.clip((t - tau - grid.times) / dt, 0.0, 1.0)
        if self.measure.density is not None:
            mid = t - grid.times - 0.5 * dt
            out += self._eval_cum(grid, np.maximum(mid, 0.0))
        return out

    def half_cell_average(self, grid):
        dt = grid.dt
        total = 0.0
        for tau, mass in self.measure.atoms:
            if tau < dt:
                total += mass * (1.0 - tau / dt) ** 2
        if self.measure.density is not None:
            total += float(np.asarray(self.measure.density)[0]) * dt / 3.0
        return total


def measure_to_kernel(nu: DelayMeasure, grid: TimeGrid) -> GridKernel:
    """Strictly lower cell-averaged kernel G(t_i - s), G(x) = nu([0, x])."""
    return discretize_kernel(MeasureConvolution(measure=nu), grid)


# ---------------------------------------------------------------------------
# linear Volterra state systems
# ---------------------------------------------------------------------------

def solve_linear_state(m_paths: np.ndarray, K: GridKernel, H: GridKernel) -> np.ndarray:
    """Solve X^i = M^i + K X^i + H Xbar for all players via resolvent kernels."""
    m_paths = np.atleast_2d(np.asarray(m_paths, dtype=float))
    if m_paths.shape[1] != K.grid.n:
        raise ShapeError("state drivers do not match the grid")
    rk = resolvent(K)
    rkh = resolvent(GridKernel(K.grid, K.values + H.values))
    m_bar = m_paths.mean(axis=0)
    smooth = apply(H, m_bar) + apply(star_product(H, rkh), m_bar)
    out = np.empty_like(m_paths)
    for i, m in enumerate(m_paths):
        m_tilde = m + smooth
        out[i] = m_tilde + apply(rk, m_tilde)
    return out


def linear_state_residual(x_paths, m_paths, K: GridKernel, H: GridKernel) -> float:
    x_paths = np.atleast_2d(x_paths)
    m_paths = np.atleast_2d(m_paths)
    x_bar = x_paths.mean(axis=0)
    res = 0.0
    for x, m in zip(x_paths, m_paths):
        res = max(res, float(np.max(np.abs(x - m - apply(K, x) - apply(H, x_bar)))))
    return res


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

    dblock has shape (n + 1, n, 2, 2): one row per grid time plus a final row
    at the horizon T, columns are cell averages in s.
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
        on_grid(self.grid, *(d for pair in self.d_signals for d in pair))


def _nonzero_tags(cs: CompiledSignal) -> CompiledSignal:
    """cs without its all-zero weights, tags in sorted order."""
    return CompiledSignal(cs.grid, cs.mean,
                          {t: cs.weights[t] for t in sorted(cs.weights) if np.any(cs.weights[t])})


def _moments(x: CompiledSignal, y: CompiledSignal) -> tuple[float, float]:
    """E[sum_k x_k y_k] over the grid and E[x_T y_T] at the horizon."""
    dt = x.grid.dt
    body = float(x.mean @ y.mean)
    body += dt * sum(float(np.vdot(w, y.weights[t])) for t, w in x.weights.items()
                     if t in y.weights)
    term = float(x.mean_T * y.mean_T)
    term += dt * sum(float(w @ y.weights_T[t]) for t, w in x.weights_T.items()
                     if t in y.weights_T)
    return body, term


def _rows(grid: TimeGrid, mean: np.ndarray, weights: dict) -> tuple:
    """A stacked (2n,) mean and (2n, n) weights as the two row signals.

    Weights are projected onto past increments (r < j): the value and surface
    conventions never read the rest, and the raw form stays adapted.
    """
    n = grid.n
    cut = {t: np.tril(w.reshape(2, n, n), -1) for t, w in weights.items()}
    return tuple(CompiledSignal(grid, mean[b * n:(b + 1) * n], {t: w[b] for t, w in cut.items()})
                 for b in (0, 1))


def _state_rows(grid: TimeGrid, Rc: np.ndarray, RTc: np.ndarray, cs: CompiledSignal) -> tuple:
    """Row pair of one state component cs: Rc on its grid values, RTc on its terminal value."""
    if cs.mean_T is None:
        raise ShapeError("state signals need terminal extensions for the reduction")
    n = grid.n
    weights = {}
    for tag in dict.fromkeys([*cs.weights, *cs.weights_T]):
        w = Rc @ cs.weights[tag] if tag in cs.weights else np.zeros((2 * n, n))
        if tag in cs.weights_T:
            w += np.outer(RTc, cs.weights_T[tag])
        weights[tag] = w
    return _rows(grid, Rc @ cs.mean + RTc * cs.mean_T, weights)


def terminal_block(DmT: np.ndarray, Sbar: np.ndarray) -> np.ndarray:
    """M[j, l, b, d] = sum_{a, c} DmT[j, a, b] Sbar[a, c] DmT[l, c, d], the terminal cost's block.

    Four broadcast products added in the (a, c) order of
    np.einsum("jab,ac,lcd->jlbd", DmT, Sbar, DmT), each term rounded as
    (DmT Sbar) DmT as its three-operand loop rounds it, so the result is that
    einsum's bitwise, without its element-by-element loop.
    """
    n = DmT.shape[0]
    M = np.zeros((n, n, 2, 2))
    for a in range(2):
        for c in range(2):
            M += (DmT[:, None, a, :, None] * Sbar[a, c]) * DmT[None, :, c, None, :]
    return M


def reduce_volterra_game(vspec: VolterraGameSpec) -> GameSpec:
    """Exact static form of the discrete Volterra game, on vspec's grid.

    The quadratic part expands over ordered time pairs l < j, giving the
    kernel block [[A2hat, A3], [A3, A1]]; the two cross slots are averaged
    into the single A3 (exact whenever they coincide, e.g. symmetric state
    blocks, and for symmetric strategy profiles otherwise).  Drivers b^i and
    the common b^0 come out as compiled signals; the player-dependent part of
    the second row is folded into b^i with weight 1/N, which leaves every
    first-order condition unchanged.

    The driver rows are linear in each state component: player i's row pair,
    stacked as 2n rows, is R_1 d^i_1 + R_2 d^i_2 + T s^i with fixed (2n x n)
    row maps R_c (plus a terminal column) built once from the state blocks,
    Q, S and q.  Each distinct state signal object is mapped once per
    component it fills, one GEMM per tag, and each ordered pair of them gives
    its moments for c^i once, so a signal that every player shares (the
    systemic mean field) costs one map, not N, and the cost grows with the
    distinct signals' tags, not with players x tags.  The
    sharing carries through: sums keep an operand's array where it alone
    carries a tag, and the fold into b^i runs tag by tag, once per distinct
    pair of row weights of the tag, so players hold the same weight object
    wherever their weights are the same function of the same state signals.
    Each tag's row arrays are released once the tag is folded.
    """
    if not (vspec.p > 0.0):
        raise InadmissibleKernel("reduction to a game needs strictly positive control cost")
    grid = vspec.grid
    n = grid.n
    dt = grid.dt
    N = vspec.n_players
    Dm = np.asarray(vspec.dblock[:n])          # (k, j, 2, 2)
    DmT = np.asarray(vspec.dblock[n])          # (j, 2, 2)
    Qbar = vspec.qmat + vspec.qmat.T
    Sbar = vspec.smat + vspec.smat.T

    # kernel block M[j, l] for l < j
    M = terminal_block(DmT, Sbar)
    M += dt * np.einsum("kjab,ac,klcd->jlbd", Dm, Qbar, Dm, optimize=True)
    qrow = np.einsum("c,jlcd->jld", vspec.qvec, Dm)        # (q^T D)[j, l, d]
    M[:, :, 0, :] -= 0.5 * qrow
    M[:, :, :, 0] -= 0.5 * qrow
    lower = np.tril(np.ones((n, n)), k=-1)
    a2hat = GridKernel(grid, M[:, :, 0, 0] * lower)
    a1 = GridKernel(grid, M[:, :, 1, 1] * lower)
    a3 = GridKernel(grid, 0.5 * (M[:, :, 0, 1] + M[:, :, 1, 0]) * lower)
    del M, qrow, lower

    # drivers: row 1 is b^i, row 2 the player's share of b^0, stacked as 2n rows
    # (b, j).  State component c enters through R[c] on its grid values and
    # RT[:, c] on its terminal value, the terminal target s^i through T.
    R = -dt * np.einsum("kjab,ac->cbjk", Dm, Qbar).reshape(2, 2 * n, n)
    R[:, :n] += vspec.qvec[:, None, None] * np.eye(n)
    RT = -np.einsum("jab,ac->bjc", DmT, Sbar).reshape(2 * n, 2)
    T = np.einsum("jab->bja", DmT).reshape(2 * n, 2)

    @functools.cache    # keyed on (component, state signal); the signals live in vspec
    def row_pair(c, cs):
        return _state_rows(grid, R[c], RT[:, c], cs)

    moments = functools.cache(_moments)

    rows = []
    c_consts = []
    for i, d in enumerate(vspec.d_signals):
        s_term = vspec.s_terminals[i]
        target = _rows(grid, T @ s_term.mean, {t: T @ w for t, w in s_term.weights.items()})
        parts = (row_pair(0, d[0]), row_pair(1, d[1]), target)
        rows.append([sum(part[b] for part in parts) for b in (0, 1)])

        # c_i = -dt E[sum_k d_k^T Q d_k] - E[d_T^T S d_T] + E[d_T . s], component by component
        c_i = 0.0
        for a in (0, 1):
            for b in (0, 1):
                body, term = moments(d[a], d[b])
                c_i -= dt * vspec.qmat[a, b] * body + vspec.smat[a, b] * term
            c_i += d[a].mean_T * s_term.mean[a]
            c_i += dt * sum(float(wT @ s_term.weights[t][a]) for t, wT in d[a].weights_T.items()
                            if t in s_term.weights)
        c_consts.append(float(c_i))
    del row_pair, parts     # the cache and the last player's parts hold the shared row pair

    # common b^0 = cross-player average of second rows; remainders fold into b^i
    b0 = _nonzero_tags(sum(row[1] for row in rows) / N)
    tags = sorted(set(b0.weights).union(*(r.weights for row in rows for r in row)))

    def fold(row0, row1, tag):
        """Part tag of (b^i, rest) = (row0 + rest / N, row1 - b^0)."""
        rest = row1.part(tag) - b0.part(tag)
        return row0.part(tag) + rest / N, rest

    def fold_tag(row0, row1, tag):
        """fold's weights for tag, None where missing or all zero."""
        return [f.weights[tag] if tag in f.weights and np.any(f.weights[tag]) else None
                for f in fold(row0, row1, tag)]

    # a tag's fold depends on a player only through the row weights it carries for
    # the tag: tag by tag, each distinct pair folds once and the players share it
    means = [[f.mean for f in fold(row0, row1, None)] for row0, row1 in rows]
    weights = [({}, {}) for _ in rows]
    for tag in tags:
        done = {}       # this tag's row weights, by id: (the weights, their fold)
        for (row0, row1), out in zip(rows, weights):
            pair = (row0.weights.get(tag), row1.weights.get(tag))
            key = tuple(map(id, pair))
            if key not in done:
                done[key] = pair, fold_tag(row0, row1, tag)
            for o, w in zip(out, done[key][1]):
                if w is not None:
                    o[tag] = w
            for r in (row0, row1):      # rows are sums made here: drop the folded tag
                r.weights.pop(tag, None)
    b_signals = tuple(CompiledSignal(grid, m[0], w[0]) for m, w in zip(means, weights))
    b0_extras = tuple(CompiledSignal(grid, m[1], w[1]) if np.any(m[1]) or w[1] else None
                      for m, w in zip(means, weights))

    spec = GameSpec(
        n_players=N, lam=vspec.p, a1=a1, a2hat=a2hat, a3=a3,
        b_signals=b_signals, b0_signal=b0, grid=grid,
        c_constants=tuple(c_consts), kernel_check="concave", b0_extras=b0_extras,
    )
    low = spec.margins["min_eig_A2hat"]
    if low < -(vspec.p + DEFAULT_TOLERANCES["admissibility"]):
        raise InadmissibleKernel(
            f"assembled instantaneous cost loses definiteness: min eig {low:.3e} < -p")
    return spec


# ---------------------------------------------------------------------------
# direct simulation of the dynamic game (the reduction's independent oracle)
# ---------------------------------------------------------------------------

def simulate_states(vspec: VolterraGameSpec, profile: np.ndarray, dW: dict):
    """State paths Z^i[k] and terminal Z^i_T for a strategy profile (players, n)."""
    n = vspec.grid.n
    dt = vspec.grid.dt
    N = vspec.n_players
    ubar = profile.mean(axis=0)
    Z = np.empty((N, n, 2))
    ZT = np.empty((N, 2))
    for i, (c1, c2) in enumerate(vspec.d_signals):
        w = np.stack([profile[i], ubar], axis=1)           # (n, 2)
        dvals = np.stack([_raw_values(c1, dW), _raw_values(c2, dW)], axis=1)   # (n, 2)
        dT = np.array([_raw_terminal(c1, dW), _raw_terminal(c2, dW)])
        conv = np.einsum("kjab,jb->ka", vspec.dblock[:n], w) * dt
        Z[i] = dvals + conv
        ZT[i] = dT + np.einsum("jab,jb->a", vspec.dblock[n], w) * dt
    return Z, ZT


def _raw_values(cs: CompiledSignal, dW: dict) -> np.ndarray:
    out = cs.mean.copy()
    for tag, w in cs.weights.items():
        out = out + w @ dW[tag]
    return out


def _raw_terminal(cs: CompiledSignal, dW: dict) -> float:
    if cs.mean_T is None:
        raise ShapeError("state signal lacks a terminal extension")
    out = float(cs.mean_T)
    for tag, wT in cs.weights_T.items():
        out += float(wT @ dW[tag])
    return out


def direct_objective(vspec: VolterraGameSpec, i: int, profile: np.ndarray,
                     dW: dict, s_values: np.ndarray | None = None) -> float:
    """Player i's realized objective from simulated states.

    Quadratic state costs use the ordered-pair quadrature (the diagonal
    control-pair cell is excluded), matching the strictly-lower-triangular
    static form; everything else is plain left-rule quadrature.
    """
    grid = vspec.grid
    n, dt = grid.n, grid.dt
    ubar = profile.mean(axis=0)
    w = np.stack([profile[i], ubar], axis=1)
    Z, ZT = simulate_states(vspec, profile, dW)
    zi, ziT = Z[i], ZT[i]

    run_q = float(np.einsum("ka,ab,kb->", zi, vspec.qmat, zi)) * dt
    conv_cells = np.einsum("kjab,jb->kja", vspec.dblock[:n], w) * dt
    run_q -= float(np.einsum("kja,ab,kjb->", conv_cells, vspec.qmat, conv_cells)) * dt
    term_cells = np.einsum("jab,jb->ja", vspec.dblock[n], w) * dt
    term_q = float(ziT @ vspec.smat @ ziT)
    term_q -= float(np.einsum("ja,ab,jb->", term_cells, vspec.smat, term_cells))

    if s_values is None:
        s_term = vspec.s_terminals[i]
        s_values = s_term.mean.copy()
        for tag, wt in s_term.weights.items():
            s_values = s_values + wt @ dW[tag]
    cross = float(np.einsum("k,ka,a->", profile[i], zi, vspec.qvec)) * dt
    return (-vspec.p * float(profile[i] @ profile[i]) * dt
            - run_q + cross - term_q + float(ziT @ s_values))


# ---------------------------------------------------------------------------
# worked models
# ---------------------------------------------------------------------------

def _terminal_rows(spec: KernelSpec, grid: TimeGrid) -> np.ndarray:
    """(n + 1, n) rows of a kernel at the grid times (discretize_kernel's values) and at T."""
    return discretize_kernel_rows(spec, grid, np.append(grid.times, grid.horizon))


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

    n = grid.n
    dblock = np.zeros((n + 1, n, 2, 2))
    dblock[:, :, 0, 0] = _terminal_rows(ConstantLower(c=-1.0), grid)
    dblock[:, :, 1, 1] = -_terminal_rows(params["propagator"], grid)

    d_signals, s_terms = [], []
    for i in range(N):
        price = deterministic(grid, 0.0, terminal=0.0)
        if sigmas[i] != 0.0:
            price = price + martingale(grid, sigmas[i], f"price{i}")
        if sigma0 != 0.0:
            price = price + martingale(grid, sigma0, "price_common")
        inv = deterministic(grid, x0[i], terminal=float(x0[i]))
        d_signals.append((inv, price))
        s_terms.append(TerminalVector(np.array([price.mean_T, 0.0]),
                                      {t: np.stack([wT, np.zeros(n)])
                                       for t, wT in price.weights_T.items()}))

    vspec = VolterraGameSpec(
        n_players=N, p=lam,
        qmat=np.array([[phi, 0.0], [0.0, 0.0]]),
        smat=np.array([[rho_term, 0.0], [0.0, 0.0]]),
        qvec=np.array([0.0, 1.0]),
        dblock=dblock, d_signals=tuple(d_signals), s_terminals=tuple(s_terms),
        grid=grid,
    )
    return reduce_volterra_game(vspec), vspec


def inventory_path(x0: float, u: np.ndarray, grid: TimeGrid):
    """Held inventory at grid times and at T for one selling-rate path."""
    dec = np.concatenate([[0.0], np.cumsum(u) * grid.dt])
    return x0 - dec[:-1], x0 - dec[-1]


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
    n = grid.n

    gk = MeasureConvolution(measure=params["delay"])
    rows = _terminal_rows(gk, grid)
    dblock = np.zeros((n + 1, n, 2, 2))
    dblock[:, :, 0, 0] = rows
    dblock[:, :, 1, 1] = rows

    h = np.asarray(params.get("h", np.zeros((N, n))), dtype=float)
    if h.shape != (N, n):
        raise ShapeError(f"h must list one value per cell ({n}) for each of the {N} players")
    reserves = []
    for i in range(N):
        drift = x0[i] + np.concatenate([[0.0], np.cumsum(h[i])[:-1]]) * grid.dt
        reserve = deterministic(grid, drift, terminal=x0[i] + float(np.sum(h[i])) * grid.dt)
        if sigma[i] != 0.0:
            reserve = reserve + martingale(grid, sigma[i], f"reserve{i}")
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
    a grid extended to the horizon endpoint, each operator product formed once;
    the control blocks are beta times those responses' first n columns.
    """
    N = player_count(params, "sigma")
    lam, beta = float(params["lam"]), float(params["beta"])
    if lam <= 0.0 or beta < 0.0:
        raise InadmissibleKernel("advertising needs lam > 0 and beta >= 0")
    sigma = np.asarray(params["sigma"], dtype=float)
    n = grid.n
    ext = TimeGrid(grid.horizon + grid.dt, n + 1)      # T is its last grid time
    K_ext = measure_to_kernel(params.get("forgetting", DelayMeasure()), ext)
    H_ext = measure_to_kernel(params.get("competition", DelayMeasure()), ext)
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
        return CompiledSignal(grid, np.zeros(n),
                              {t: w[:n, :n] for t, w in scaled.items() if np.any(w)}, 0.0,
                              {t: w[n, :n] for t, w in scaled.items() if np.any(w[n])})

    # one mean-field signal that every player's goodwill shares, as systemic banks do
    mean_field = response({f"adv{l}": (sigma[l] / N) * smooth for l in range(N)})
    d_signals, s_terms = [], []
    for i in range(N):
        goodwill = mean_field + response({f"adv{i}": sigma[i] * own_resp})
        d_signals.append((goodwill, deterministic(grid, 0.0, terminal=0.0)))
        s_terms.append(TerminalVector(np.array([beta, 0.0]), {}))

    vspec = VolterraGameSpec(
        n_players=N, p=lam,
        qmat=np.zeros((2, 2)), smat=np.zeros((2, 2)), qvec=np.zeros(2),
        dblock=dblock, d_signals=tuple(d_signals), s_terminals=tuple(s_terms),
        grid=grid,
    )
    return reduce_volterra_game(vspec), vspec

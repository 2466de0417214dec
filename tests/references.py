"""Reference code the tests compare the package against; no volgames command runs it.

- solve_linear_state and linear_state_residual: the linear Volterra state
  system X^i = M^i + K X^i + H Xbar, solved through resolvent kernels;
- direct_objective: a player's realized objective from directly simulated
  states, with the ordered-pair quadrature of the static reduction, so it is
  the reduction's independent oracle;
- inventory_path: a liquidation player's held inventory;
- kkt_gradient_norm: the central-difference gradient of every objective on a
  scenario tree;
- coefficient_kkt: every player's equilibrium coefficients from the stacked
  first-order conditions, one dense solve per mean and per weight column.
"""

from __future__ import annotations

import numpy as np

from volterra_games.errors import ShapeError
from volterra_games.grid_ops import GridKernel, TimeGrid, apply, resolvent, star_product
from volterra_games.model_builders import VolterraGameSpec
from volterra_games.nplayer import GameSpec
from volterra_games.oracle import ScenarioTree, tree_objective
from volterra_games.signals import CompiledSignal


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
        dvals = np.stack([_raw_values(c1, dW), _raw_values(c2, dW)], axis=1)   # (n + 1, 2)
        conv = np.einsum("kjab,jb->ka", vspec.dblock[:n], w) * dt
        Z[i] = dvals[:n] + conv
        ZT[i] = dvals[n] + np.einsum("jab,jb->a", vspec.dblock[n], w) * dt
    return Z, ZT


def _raw_values(cs: CompiledSignal, dW: dict) -> np.ndarray:
    """A state signal's n + 1 rows, the last at T, at the game's n increments dW."""
    out = cs.mean.copy()
    for tag, w in cs.weights.items():
        out = out + w[:, :-1] @ dW[tag]
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


def inventory_path(x0: float, u: np.ndarray, grid: TimeGrid):
    """Held inventory at grid times and at T for one selling-rate path."""
    dec = np.concatenate([[0.0], np.cumsum(u) * grid.dt])
    return x0 - dec[:-1], x0 - dec[-1]


def kkt_gradient_norm(spec: GameSpec, tree: ScenarioTree, u_nodes: np.ndarray,
                      step: float = 0.5) -> float:
    """Sup norm of the central-difference gradient of every player's objective."""
    worst = 0.0
    for i in range(spec.n_players):
        for node in range(tree.total_nodes):
            up = u_nodes.copy()
            up[i, node] += step
            um = u_nodes.copy()
            um[i, node] -= step
            g = (tree_objective(spec, tree, i, up) - tree_objective(spec, tree, i, um)) / (2 * step)
            worst = max(worst, abs(g))
    return worst


def coefficient_kkt(spec: GameSpec) -> tuple[np.ndarray, dict]:
    """Every player's equilibrium coefficients, solved from the first-order conditions.

    objective_per_path forms, with <f, g> = dt sum_k f_k g_k and f^T K g
    weighted dt^2,
        J^i = <b^i, u^i> + <b^0, ubar> - lam <u^i, u^i> - dt^2 u^i.A2hat u^i
              - dt^2 u^i.(A3 + A3^T) ubar - dt^2 ubar.A1 ubar + c^i,
    plus <extra_i, ubar - u^i / N>, whose gradient in u^i is zero.  With
    ubar = sum_k u^k / N, that gradient divided by dt is
    b^i + b^0 / N - own u^i - S ubar, where
        own = 2 lam id + dt (A2hat + A2hat^T) + dt (A3 + A3^T) / N,
        S = dt ((A1 + A1^T) / N + A3 + A3^T),
    and at equilibrium its conditional expectation at every t_k is zero.  A
    strategy is a mean m plus weights w[k, r] on each tag's increment r < k,
    so the condition holds for the means on every row and, for each tag's
    weight column r, on the rows after r.  Each is one stacked system over
    the players, (I_N kron own + (1/N) 1 1^T kron S) x = b^i + b^0 / N, solved
    with np.linalg.solve.

    Returns the means (N, n) and, for every noise tag of the game, the
    weights (N, n, n), zero on and above the diagonal.
    """
    N, n, dt = spec.n_players, spec.grid.n, spec.grid.dt
    A1, A2, A3 = spec.a1.values, spec.a2hat.values, spec.a3.values
    own = 2.0 * spec.lam * np.eye(n) + dt * (A2 + A2.T) + dt * (A3 + A3.T) / N
    S = dt * ((A1 + A1.T) / N + A3 + A3.T)

    def solve(rows: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """The players' stacked conditions on rows, right-hand sides (N, len(rows))."""
        block = np.ix_(rows, rows)
        system = np.kron(np.eye(N), own[block]) + np.kron(np.full((N, N), 1.0 / N), S[block])
        return np.linalg.solve(system, rhs.reshape(-1)).reshape(N, len(rows))

    def drives(tag) -> np.ndarray:
        """b^i + b^0 / N of every player: the means (tag None) or the tag's weights."""
        def part(f):
            return f.mean if tag is None else f.weights.get(tag, np.zeros((n, n)))
        return np.stack([part(b) + part(spec.b0_signal) / N for b in spec.b_signals])

    means = solve(np.arange(n), drives(None))
    weights = {}
    for tag in sorted(spec.noise_tags()):
        rhs, w = drives(tag), np.zeros((N, n, n))
        for r in range(n - 1):
            rows = np.arange(r + 1, n)
            w[:, rows, r] = solve(rows, rhs[:, rows, r])
        weights[tag] = w
    return means, weights

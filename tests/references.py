"""Reference code the tests compare the package against; no volgames command runs it.

- solve_linear_state and linear_state_residual: the linear Volterra state
  system X^i = M^i + K X^i + H Xbar, solved through resolvent kernels;
- direct_objective: a player's realized objective from directly simulated
  states, with the ordered-pair quadrature of the static reduction, so it is
  the reduction's independent oracle;
- inventory_path: a liquidation player's held inventory;
- kkt_gradient_norm: the central-difference gradient of every objective on a
  scenario tree.
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

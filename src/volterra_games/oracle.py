"""Brute-force ground truth: exact Nash KKT systems on finite scenario trees.

A tree realizes the filtration with b-ary branching per step (joint over all
noise tags), increments matched to the first two moments of N(0, dt) (and
zero third moment), so conditional expectations are exact probability-
weighted sums.  The per-player first-order conditions over adapted node
strategies form one linear system, solved by dense elimination; the solver
and the oracle discretize the identical finite game, so discrepancies
isolate solver bugs, not discretization differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonConcave, ShapeError, SingularSystem, SizeExceeded
from .grid_ops import TimeGrid
from .nplayer import GameSpec, build_GH, objective_per_path, solve_nash
from .signals import NoiseBundle

MAX_UNKNOWNS = 50_000
MAX_DENSE = 8_000
HESSIAN_TOL = 1e-10        # a player Hessian block's lowest eigenvalue must reach this


def _step_outcomes(branching: int, dt: float):
    if branching == 1:
        return np.array([0.0]), np.array([1.0])
    if branching == 2:
        r = np.sqrt(dt)
        return np.array([-r, r]), np.array([0.5, 0.5])
    if branching == 3:
        r = np.sqrt(3.0 * dt)
        return np.array([-r, 0.0, r]), np.array([1.0 / 6, 2.0 / 3, 1.0 / 6])
    raise ShapeError(f"branching must be 1, 2 or 3, got {branching}")


@dataclass(frozen=True)
class ScenarioTree:
    """Joint scenario tree over all noise tags of a game."""

    grid: TimeGrid
    branching: int
    depth: int
    tags: tuple
    increments: dict            # tag -> (leaves, n) increments along each leaf path
    leaf_probs: np.ndarray

    @property
    def joint(self) -> int:
        return self.branching ** len(self.tags) if self.tags else 1

    @property
    def n_leaves(self) -> int:
        return self.joint ** self.depth

    def level_size(self, k: int) -> int:
        return self.joint ** min(k, self.depth)

    def level_offset(self, k: int) -> int:
        return sum(self.level_size(r) for r in range(k))

    @property
    def total_nodes(self) -> int:
        return self.level_offset(self.grid.n)

    def leaf_range(self, k: int, h: int):
        span = self.n_leaves // self.level_size(k)
        return h * span, (h + 1) * span

    def node_prob(self, k: int, h: int) -> float:
        lo, hi = self.leaf_range(k, h)
        return float(self.leaf_probs[lo:hi].sum())

    def bundle(self) -> NoiseBundle:
        """Leaves as a noise bundle, so the production solver runs on tree paths."""
        return NoiseBundle(self.grid, self.n_leaves, seed=0, increments=self.increments)


def build_tree(spec: GameSpec, branching: int, depth: int) -> ScenarioTree:
    """Deterministic joint tree over the game's noise tags; no randomness involved."""
    grid = spec.grid
    depth = int(min(depth, grid.n - 1))
    tags = tuple(sorted(spec.noise_tags()))
    joint = branching ** len(tags) if tags else 1
    n_leaves = joint ** depth
    total = sum(joint ** min(k, depth) for k in range(grid.n))
    if spec.n_players * total > MAX_UNKNOWNS:
        raise SizeExceeded(f"{spec.n_players * total} unknowns exceed the budget {MAX_UNKNOWNS}")

    vals, probs = _step_outcomes(branching, grid.dt)
    incs = {tag: np.zeros((n_leaves, grid.n)) for tag in tags}
    leaf_probs = np.ones(n_leaves)
    leaves = np.arange(n_leaves)
    for step in range(depth):
        # joint outcome digit of this step, most significant step first
        digit = (leaves // joint ** (depth - 1 - step)) % joint
        for ti, tag in enumerate(tags):
            tag_digit = (digit // branching ** (len(tags) - 1 - ti)) % branching
            incs[tag][:, step] = vals[tag_digit]
            leaf_probs = leaf_probs * probs[tag_digit]
    if not tags:
        leaf_probs = np.ones(1)
    return ScenarioTree(grid, branching, depth, tags, incs, leaf_probs)


def _node_values(tree: ScenarioTree, values_by_leaf: np.ndarray) -> np.ndarray:
    """Map per-leaf path values (leaves, n) to per-node values, flat layout."""
    out = np.empty(tree.total_nodes)
    for k in range(tree.grid.n):
        off = tree.level_offset(k)
        for h in range(tree.level_size(k)):
            lo, _ = tree.leaf_range(k, h)
            out[off + h] = values_by_leaf[lo, k]
    return out


def discrete_nash_kkt(spec: GameSpec, tree: ScenarioTree) -> np.ndarray:
    """Exact per-node Nash strategies: assemble every player's FOC and solve.

    Returns an array (players, total_nodes) in the tree's flat node layout.
    """
    N = spec.n_players
    grid = spec.grid
    n, dt = grid.n, grid.dt
    total = tree.total_nodes
    n_unknowns = N * total
    if n_unknowns > MAX_DENSE:
        raise SizeExceeded(f"{n_unknowns} unknowns exceed the dense-solve budget {MAX_DENSE}")
    G, H = build_GH(spec)
    khat = G.values - H.values / N
    Hv = H.values

    # adapted driver values per node, vectorized over leaves
    def leaf_values(cs):
        out = np.broadcast_to(cs.mean, (tree.n_leaves, n)).copy()
        for tag, w in cs.weights.items():
            out += tree.increments[tag] @ np.tril(w, k=-1).T
        return out

    b0_leaf = leaf_values(spec.b0_signal)
    b_nodes = [_node_values(tree, leaf_values(spec.b_signals[i]) + b0_leaf / N)
               for i in range(N)]

    offsets = [tree.level_offset(k) for k in range(n)]
    sizes = [tree.level_size(k) for k in range(n)]
    probs = [np.array([tree.node_prob(k, h) for h in range(sizes[k])]) for k in range(n)]
    couplings = _level_couplings(tree, sizes, probs)

    A = np.zeros((n_unknowns, n_unknowns))
    rhs = np.empty(n_unknowns)
    for i in range(N):
        A[i * total:(i + 1) * total].flat[i * total::n_unknowns + 1] = 2.0 * spec.lam
        rhs[i * total:(i + 1) * total] = b_nodes[i]

    for k in range(n):
        rk = slice(offsets[k], offsets[k] + sizes[k])
        for r in range(n):
            if r == k:
                continue
            cr = slice(offsets[r], offsets[r] + sizes[r])
            # coefficient of u^j(r, .) in player i's FOC row at level k
            kern = khat[k, r] if r < k else khat[r, k]
            mean = Hv[k, r] if r < k else Hv[r, k]
            W = couplings[k][r]
            for i in range(N):
                for j in range(N):
                    coef = dt * (mean / N + (kern if i == j else 0.0))
                    if coef != 0.0:
                        A[i * total + offsets[k]:i * total + offsets[k] + sizes[k],
                          j * total + offsets[r]:j * total + offsets[r] + sizes[r]] \
                            += coef * W

    _check_player_hessians(spec, tree, G.values, couplings, probs, offsets, sizes)
    try:
        u = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from None
    if not np.all(np.isfinite(u)):
        raise SingularSystem("KKT solution is not finite")
    return u.reshape(N, total)


def _level_couplings(tree: ScenarioTree, sizes, probs):
    """W[k][r][h, h']: ancestor indicator (r < k) or P(h'|h) over descendants (r > k)."""
    n = tree.grid.n
    out = [dict() for _ in range(n)]
    for k in range(n):
        for r in range(n):
            if r == k:
                continue
            W = np.zeros((sizes[k], sizes[r]))
            if r < k:
                ratio = sizes[k] // sizes[r]
                W[np.arange(sizes[k]), np.arange(sizes[k]) // ratio] = 1.0
            else:
                span = sizes[r] // sizes[k]
                for h in range(sizes[k]):
                    sl = slice(h * span, (h + 1) * span)
                    W[h, sl] = probs[r][sl] / probs[k][h]
            out[k][r] = W
    return out


def _check_player_hessians(spec, tree, Gv, couplings, probs, offsets, sizes):
    """Each player's negative Hessian 2 lam id + symmetrized G-part must be PD."""
    n = spec.grid.n
    dt = spec.grid.dt
    total = tree.total_nodes
    M = np.zeros((total, total))
    pw = np.concatenate([probs[k] * dt for k in range(n)])
    M.flat[::total + 1] = 2.0 * spec.lam * pw
    for k in range(n):
        for r in range(n):
            if r == k:
                continue
            g = Gv[k, r] if r < k else Gv[r, k]
            if g != 0.0:
                M[offsets[k]:offsets[k] + sizes[k], offsets[r]:offsets[r] + sizes[r]] \
                    += dt * g * couplings[k][r] * (probs[k] * dt)[:, None]
    low = float(np.linalg.eigvalsh(0.5 * (M + M.T))[0])
    if low < HESSIAN_TOL:
        raise NonConcave(f"player Hessian block has eigenvalue {low:.3e}")


def strategies_to_nodes(tree: ScenarioTree, u_leaf: np.ndarray) -> np.ndarray:
    """Collapse per-leaf strategy paths (players, leaves, n) onto tree nodes."""
    N = u_leaf.shape[0]
    out = np.empty((N, tree.total_nodes))
    for i in range(N):
        out[i] = _node_values(tree, u_leaf[i])
    return out


def nodes_to_leaves(tree: ScenarioTree, u_nodes: np.ndarray) -> np.ndarray:
    """Expand flat node strategies (players, total_nodes) to leaf paths."""
    N = u_nodes.shape[0]
    n = tree.grid.n
    out = np.empty((N, tree.n_leaves, n))
    for k in range(n):
        off = tree.level_offset(k)
        span = tree.n_leaves // tree.level_size(k)
        for h in range(tree.level_size(k)):
            lo, hi = h * span, (h + 1) * span
            out[:, lo:hi, k] = u_nodes[:, off + h][:, None]
    return out


def compare(oracle_nodes: np.ndarray, solver_nodes: np.ndarray) -> float:
    """Max abs strategy difference over players and nodes."""
    if oracle_nodes.shape != solver_nodes.shape:
        raise ShapeError("strategy layouts differ")
    return float(np.max(np.abs(oracle_nodes - solver_nodes)))


def solve_game_on_tree(spec: GameSpec, tree: ScenarioTree) -> np.ndarray:
    """Run the production solver on every leaf path; return node strategies."""
    sol = solve_nash(spec, tree.bundle())
    return strategies_to_nodes(tree, sol.u)


def tree_objective(spec: GameSpec, tree: ScenarioTree, i: int,
                   u_nodes: np.ndarray) -> float:
    """Tree-exact expected objective of player i at flat node strategies."""
    return float(tree.leaf_probs @ objective_per_path(spec, i, nodes_to_leaves(tree, u_nodes),
                                                      tree.bundle()))

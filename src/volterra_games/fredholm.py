"""Closed-form solver for linear stochastic Fredholm equations of the second kind.

The discrete problem on a grid with step dt is, per path,

    lam * v[k] = f[k] - dt * sum_{r<k} K[k,r] v[r]
                       - dt * sum_{r>k} L[r,k] E_{t_k}[v[r]],

with K, L strictly lower triangular.  Conditioning the equation at t_k on
the time-k sigma-algebra closes it over the unknowns m_k[j] = E_{t_k}[v[j]],
j >= k, through the operator

    D_k = lam * id + dt * (K + L^T) restricted to indices >= k.

Drivers are affine in Brownian increments (signals.CompiledSignal) and the
solution map is linear, so the solver works on coefficients and the solution
is again a CompiledSignal, exact on every path at once.  The mean solves
D_0 m = f.mean, and weight column s of each noise tag, the response to the
increment on step s, solves D_{s+1} restricted to the rows after s: the
discretized equation itself, so the residual of a solved problem is at
linear-algebra precision, not quadrature precision.  Eliminating the
conditional rows instead gives the paper's forward recursion
v = (id - B)^{-1} a; it is the same linear system, and the tests keep it as a
reference.  Conditional surfaces follow from the solution's weights.

Every D_k is a trailing block of D = D_0, so one reversed triangular
factorization of D (O(n^3) time, O(n^2) memory) serves all of them.  The
factorization is a recursive LU computed in place on one copy of the
index-reversed D, whose off-diagonal blocks are products with the leading
block's inverse factors.  The recursion also fills in the factors' own
inverses, block by block as grid_ops.triangular_inverse builds them, so no
block is inverted twice.  The games pass one kernel as K and L, so D is
exactly symmetric, and then the recursion runs from one side: the lower
factor is the transposed upper one scaled by the pivots, and only its
inverse is built.  A solve is two triangular products per noise tag.  Each
forms only the strictly lower half of its result and reads only the nonzero
triangle of its triangular left factor, one column block and row band at a
time (grid_ops.lower_product): n^3/3 multiply-adds per tag instead of 2n^3.
The callers (nplayer, meanfield) form each equilibrium's mean-field shift
once and hand the solver drivers that already carry it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InadmissibleKernel, ShapeError, SingularOperator
from .grid_ops import (LU_LEAF, GridKernel, TimeGrid, cut_upper, lower_product,
                       triangular_inverse)
from .signals import CompiledSignal, NoiseBundle

SELFADJOINT_TOL = 1e-10
NORMEST_ITERATIONS = 5     # block products with D_0^{-1} in cond1_est, Higham and Tisseur's itmax


@dataclass(frozen=True)
class FredholmProblem:
    """Forward kernel K, backward kernel L, and the identity coefficient lam_eff."""

    K: GridKernel
    L: GridKernel
    lam_eff: float
    strict_selfadjoint: bool = True

    def __post_init__(self):
        if self.K.grid != self.L.grid:
            raise ShapeError("K and L live on different grids")
        if not (self.lam_eff > 0.0):
            raise InadmissibleKernel(f"lam_eff must be positive, got {self.lam_eff}")
        if self.K is self.L:
            return              # K + K^T is exactly symmetric: IEEE addition commutes
        sym = self.K.values + self.L.values.T
        gap = float(np.max(np.abs(sym - sym.T))) if sym.size else 0.0
        if gap > SELFADJOINT_TOL:
            msg = f"K + L* deviates from self-adjoint by {gap:.3e}"
            if self.strict_selfadjoint:
                raise InadmissibleKernel(msg)
            warnings.warn(msg + "; proceeding on D_t invertibility alone")

    @property
    def grid(self) -> TimeGrid:
        return self.K.grid


def build_Dt(K: GridKernel, L: GridKernel, lam_eff: float) -> tuple[np.ndarray, ...]:
    """Form D = lam_eff*id + dt*(K + L^T) and factor it once for every D_k.

    Returns (core, pivots, Ui, Li) for core = D = U @ Lw, U unit upper and Lw
    lower triangular: pivots = diag(Lw), Ui = U^{-1} and Li = Lw^{-1}.
    All come from a non-pivoted LU of the index-reversed matrix J D J = L R,
    whose leading blocks are the D_k, computed in place on one copy: U = J L J
    and Lw = J R J, so the factors' inverses are the recursion's, reversed.
    Once the pivots are read, the copy's buffer takes Ui.  When D is exactly
    symmetric (K is L, or the formed core equals its transpose),
    Lw = diag(pivots) U^T, so the recursion inverts L alone, and
    Li = Ui^T / pivots is returned as the transpose of a row scaling of Ui.
    SingularOperator names the largest k whose pivot is at most tol: elimination
    runs from the last index down, and every pivot after a failed one is meaningless.
    """
    n = K.grid.n
    core = K.values + L.values.T
    core *= K.grid.dt
    core[np.diag_indices(n)] += float(lam_eff)
    tol = 1e-10 * max(1.0, float(core.max()), -float(core.min()))
    A = np.array(core[::-1, ::-1])
    L_inv = np.zeros((n, n))
    Rt_inv = None if K is L or np.array_equal(core, core.T) else np.zeros((n, n))
    with np.errstate(all="ignore"):
        _lu_inplace(A, L_inv, Rt_inv, tol, n)
    pivots = np.diagonal(A)[::-1].copy()
    A[...] = L_inv[::-1, ::-1]
    if Rt_inv is None:        # Li = Ui^T / pivots, as the transpose of a row scaling
        return core, pivots, A, np.divide(A, pivots[:, None], out=L_inv).T
    L_inv[...] = Rt_inv.T[::-1, ::-1]
    return core, pivots, A, L_inv


def _lu_inplace(A: np.ndarray, L_inv: np.ndarray, Ut_inv: np.ndarray | None, tol: float,
                end: int) -> None:
    """Non-pivoted LU overwriting A with L (unit diagonal, below) and U (on and above).

    Fills the zeroed L_inv with L^{-1} and Ut_inv with (U^T)^{-1}, block by block
    as grid_ops.triangular_inverse builds them, so every block is inverted once.
    Ut_inv=None declares A symmetric: then U = diag(U) L^T, so each off-diagonal
    block of L is the transposed block of U scaled by the pivots, and
    (U^T)^{-1} = L^{-1} / diag(U) row by row is left to the caller.
    A's first index is grid index end - 1.  The halves recurse on views down to
    LU_LEAF, where a rank-1 loop tests the pivots in elimination order.
    """
    n = A.shape[0]
    if n <= LU_LEAF:
        for j in range(n):
            if not abs(A[j, j]) > tol:
                raise _singular(end - 1 - j)
            A[j + 1:, j] /= A[j, j]
            A[j + 1:, j + 1:] -= A[j + 1:, j, None] * A[j, None, j + 1:]
        L_inv[...] = triangular_inverse(A, unit=True)
        if Ut_inv is not None:
            Ut_inv[...] = triangular_inverse(A.T)
        return
    h = n // 2
    head, tail = (None, None) if Ut_inv is None else (Ut_inv[:h, :h], Ut_inv[h:, h:])
    _lu_inplace(A[:h, :h], L_inv[:h, :h], head, tol, end)
    A[:h, h:] = L_inv[:h, :h] @ A[:h, h:]
    if Ut_inv is None:
        np.divide(A[:h, h:].T, np.diagonal(A[:h, :h]), out=A[h:, :h])
    else:
        A[h:, :h] = A[h:, :h] @ head.T
    A[h:, h:] -= A[h:, :h] @ A[:h, h:]
    _lu_inplace(A[h:, h:], L_inv[h:, h:], tail, tol, end - h)
    L_inv[h:, :h] = -L_inv[h:, h:] @ (A[h:, :h] @ L_inv[:h, :h])
    if Ut_inv is not None:
        Ut_inv[h:, :h] = -tail @ (A[:h, h:].T @ head)


def _singular(k: int) -> SingularOperator:
    return SingularOperator(f"conditional operator D_{k} is numerically singular")


class FredholmSolver:
    """Every D_k = lam*id + dt*(K + L^T)[k:, k:] of one problem, from one reversed
    factorization, and coefficient solves against them.

    D = U @ Lw with U upper and Lw lower triangular.  Triangular factors keep
    their trailing blocks, so D_k = U_k @ Lw_k for every k, and the trailing
    blocks of Ui = U^{-1} and Li = Lw^{-1} give D_k^{-1} = Li_k @ Ui_k, which
    solve applies directly, n^3/6 multiply-adds per product.  Setup is one
    O(n^3) factorization (build_Dt) with O(n^2) memory, one-sided when D is
    symmetric (Li = Ui^T / pivots).  The factorization is a non-pivoted UL
    (U has a unit diagonal), which exists exactly when every D_k is invertible.
    pivots[k] = Lw[k,k] is the Schur pivot det(D_k) / det(D_{k+1}).
    """

    def __init__(self, problem: FredholmProblem):
        self.problem = problem
        self.grid = problem.grid
        self.core, self.pivots, self._Ui, self._Li = build_Dt(problem.K, problem.L,
                                                              problem.lam_eff)

    def min_pivot(self) -> float:
        """Smallest |Schur pivot| over all D_k: how close any D_k is to singular."""
        return float(np.min(np.abs(self.pivots)))

    def cond1_est(self) -> float:
        """1-norm condition number of D_0, with ||D_0^{-1}||_1 estimated from the factors.

        The block estimator of Higham and Tisseur (SIAM J. Matrix Anal. Appl.
        21(4), 2000) with two columns, made deterministic: it starts from the
        constant and an alternating column, and keeps a sign column parallel
        to another instead of redrawing it.  At most NORMEST_ITERATIONS products
        of D_0^{-1} = Li @ Ui and of its transpose with an n x 2 block, O(n^2)
        each, instead of forming the inverse; Higham's extra test vector of
        alternating sign (ACM TOMS 14(4), 1988) is tried last.  Every column
        is D_0^{-1} x for a unit x, so the estimate never exceeds the exact value.
        """
        Li, Ui = self._Li, self._Ui
        n = Li.shape[0]
        X = np.full((n, 2), 1.0 / n)
        X[1::2, 1] *= -1.0
        cols, seen = None, np.zeros(n, dtype=bool)
        est, S = 0.0, np.zeros((n, 0))
        for it in range(NORMEST_ITERATIONS):
            Y = Li @ (Ui @ X)
            norms = np.abs(Y).sum(axis=0)
            if it and norms.max() <= est:
                break
            est = float(norms.max())
            S_old, S = S, np.where(Y >= 0.0, 1.0, -1.0)
            # every sign column repeats an old one: the next block is already known
            if it and np.all(np.abs(S.T @ S_old).max(axis=1) == n):
                break
            h = np.abs(Ui.T @ (Li.T @ S)).max(axis=1)
            if it and h.max() == h[cols[np.argmax(norms)]]:
                break
            order = np.argsort(-h, kind="stable")
            if seen[order[:2]].all():
                break
            cols = order[~seen[order]][:2]
            seen[cols] = True
            X = np.zeros((n, len(cols)))
            X[cols, np.arange(len(cols))] = 1.0
        alt = (1.0 + np.arange(n) / (n - 1)) * np.where(np.arange(n) % 2, -1.0, 1.0)
        est = max(est, float(np.abs(Li @ (Ui @ alt)).sum()) / float(np.abs(alt).sum()))
        return float(np.linalg.norm(self.core, 1)) * est

    def solve(self, f: CompiledSignal) -> CompiledSignal:
        """The solution for driver f, as a mean plus one weight matrix per tag.

        The mean is D_0^{-1} f.mean.  Weight column s is
        D_{s+1}^{-1} f.weights[s+1:, s], below a zero head: the triangular
        inverse factors keep trailing blocks, and Ui @ w read strictly below the
        diagonal sees only rows after s, so the weights come out strictly lower
        triangular and the solution is adapted.  Ui is upper triangular, so
        that part reads only w's strictly lower part, even for anticipative
        weights, and both products form only their strictly lower half and
        read only the nonzero triangle of Ui and Li (grid_ops.lower_product).
        Tags go one at a time, so no stacked right-hand side is built.
        """
        if f.grid != self.grid:
            raise ShapeError("driver lives on a different grid")
        Ui, Li = self._Ui, self._Li
        weights = {t: lower_product(Li, lower_product(Ui, w, "upper"), "lower")
                   for t, w in f.weights.items()}
        return CompiledSignal(self.grid, Li @ (Ui @ f.mean), weights)

    def residual(self, f: CompiledSignal, v: CompiledSignal) -> CompiledSignal:
        """D v - f with D = lam id + dt (K + L^T): the discretized equation itself.

        The mean row is the equation's expectation; per tag only the strictly
        lower weights enter adapted values, so the rest is cut off.  v is a
        solution, so its weights are strictly lower and D v is an adapted
        product; every weight of the difference is a new array, cut in place.
        """
        r = v.adapted_matmul(self.core) - f
        return CompiledSignal(self.grid, r.mean, {t: cut_upper(w) for t, w in r.weights.items()})


def stability_gap(problem_n: FredholmProblem, problem_limit: FredholmProblem,
                  bundle: NoiseBundle, f_n: CompiledSignal,
                  f_limit: CompiledSignal | None = None) -> float:
    """Monte Carlo estimate of sup_k E[(v^N_k - v_k)^2] on the bundle's paths.

    f_n drives problem_n and f_limit (default f_n) drives problem_limit.
    """
    f_limit = f_n if f_limit is None else f_limit
    v_n = FredholmSolver(problem_n).solve(f_n)
    v_l = FredholmSolver(problem_limit).solve(f_limit)
    P = bundle.n_paths
    diff = v_n.path_values(bundle.increments, P) - v_l.path_values(bundle.increments, P)
    return float(np.max(np.mean(diff ** 2, axis=0)))

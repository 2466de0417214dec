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
block is inverted twice, and a solve is two triangular products per noise
tag.  Each product forms only the strictly lower half of its result, one
column block at a time (grid_ops.lower_product): 2n^3/3 multiply-adds per
tag instead of 2n^3.  The callers (nplayer, meanfield) form each
equilibrium's mean-field shift once and hand the solver drivers that already
carry it.
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
HAGER_ITERATIONS = 5       # products with D_0^{-1} in cond1_est, as in LAPACK's xLACON


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
    Once the pivots are read, the copy's buffer takes Ui.
    SingularOperator names the largest k whose pivot is at most tol: elimination
    runs from the last index down, and every pivot after a failed one is meaningless.
    """
    n = K.grid.n
    core = K.values + L.values.T
    core *= K.grid.dt
    core[np.diag_indices(n)] += float(lam_eff)
    tol = 1e-10 * max(1.0, float(np.max(np.abs(core))))
    A = np.array(core[::-1, ::-1])
    L_inv, Rt_inv = np.zeros((n, n)), np.zeros((n, n))
    with np.errstate(all="ignore"):
        _lu_inplace(A, L_inv, Rt_inv, tol, n)
    pivots = np.diagonal(A)[::-1].copy()
    A[...] = L_inv[::-1, ::-1]
    L_inv[...] = Rt_inv.T[::-1, ::-1]
    return core, pivots, A, L_inv


def _lu_inplace(A: np.ndarray, L_inv: np.ndarray, Ut_inv: np.ndarray, tol: float,
                end: int) -> None:
    """Non-pivoted LU overwriting A with L (unit diagonal, below) and U (on and above).

    Fills the zeroed L_inv with L^{-1} and Ut_inv with (U^T)^{-1}, block by block
    as grid_ops.triangular_inverse builds them, so every block is inverted once.
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
        Ut_inv[...] = triangular_inverse(A.T)
        return
    h = n // 2
    _lu_inplace(A[:h, :h], L_inv[:h, :h], Ut_inv[:h, :h], tol, end)
    A[:h, h:] = L_inv[:h, :h] @ A[:h, h:]
    A[h:, :h] = A[h:, :h] @ Ut_inv[:h, :h].T
    A[h:, h:] -= A[h:, :h] @ A[:h, h:]
    _lu_inplace(A[h:, h:], L_inv[h:, h:], Ut_inv[h:, h:], tol, end - h)
    L_inv[h:, :h] = -L_inv[h:, h:] @ (A[h:, :h] @ L_inv[:h, :h])
    Ut_inv[h:, :h] = -Ut_inv[h:, h:] @ (A[:h, h:].T @ Ut_inv[:h, :h])


def _singular(k: int) -> SingularOperator:
    return SingularOperator(f"conditional operator D_{k} is numerically singular")


class FredholmSolver:
    """Every D_k = lam*id + dt*(K + L^T)[k:, k:] of one problem, from one reversed
    factorization, and coefficient solves against them.

    D = U @ Lw with U upper and Lw lower triangular.  Triangular factors keep
    their trailing blocks, so D_k = U_k @ Lw_k for every k, and the trailing
    blocks of Ui = U^{-1} and Li = Lw^{-1} give D_k^{-1} = Li_k @ Ui_k, which
    solve applies directly.  Setup is one O(n^3) factorization (build_Dt)
    with O(n^2) memory.  The factorization is a non-pivoted UL (U has a unit
    diagonal), which exists exactly when every D_k is invertible.
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

        Hager's method with Higham's refinements (Hager 1984; Higham, ACM TOMS
        14(4), 1988), as in LAPACK's xLACON: at most HAGER_ITERATIONS products with
        D_0^{-1} = Li @ Ui and with its transpose, O(n^2) each, instead of
        forming the inverse.  Every iterate is ||D_0^{-1} x||_1 for a unit
        x, so the estimate never exceeds the exact value.
        """
        Li, Ui = self._Li, self._Ui
        n = Li.shape[0]
        x = np.full(n, 1.0 / n)
        est, signs = 0.0, None
        for it in range(HAGER_ITERATIONS):
            y = Li @ (Ui @ x)
            norm = float(np.abs(y).sum())
            new = np.where(y >= 0.0, 1.0, -1.0)
            # a repeated sign vector has converged, a smaller norm is cycling
            done = it and (norm <= est or np.array_equal(new, signs))
            est = max(est, norm)
            if done:
                break
            signs = new
            z = Ui.T @ (Li.T @ signs)
            j = int(np.argmax(np.abs(z)))
            if it and abs(z[j]) <= z @ x:
                break
            x = np.zeros(n)
            x[j] = 1.0
        # Higham's extra test vector, of alternating sign and 1-norm 3n/2
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
        weights, and both products form only their strictly lower half
        (grid_ops.lower_product).  Tags go one at a time, so no stacked
        right-hand side is built.
        """
        if f.grid != self.grid:
            raise ShapeError("driver lives on a different grid")
        Ui, Li = self._Ui, self._Li
        weights = {t: lower_product(Li, lower_product(Ui, w)) for t, w in f.weights.items()}
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

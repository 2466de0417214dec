"""Closed-form solver for linear stochastic Fredholm equations of the second kind.

The discrete problem on a grid with step dt is, per path,

    lam * v[k] = f[k] - dt * sum_{r<k} K[k,r] v[r]
                       - dt * sum_{r>k} K[r,k] E_{t_k}[v[r]],

with K strictly lower triangular.  A player's first-order condition is the
gradient of a quadratic cost, so its operator is the kernel plus its own
adjoint, and the one kernel K acts forward and backward.  Conditioning the
equation at t_k on the time-k sigma-algebra closes it over the unknowns
m_k[j] = E_{t_k}[v[j]], j >= k, through the symmetric operator

    D_k = lam * id + dt * (K + K^T) restricted to indices >= k.

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
block's inverse factor.  D is symmetric, so the recursion runs from one side:
the lower factor is the transposed upper one scaled by the pivots, and only
its inverse is built, block by block as grid_ops.triangular_inverse builds
it, so no block is inverted twice.  The solver keeps the two inverse factors
only as the row bands its products read, n^2 doubles in all, built once.  A
solve is two triangular products per noise tag.  Each forms only the
strictly lower half of its result and reads only those bands, one column
block and row band at a time (grid_ops.lower_product): n^3/3 multiply-adds
per tag instead of 2n^3.  The callers (nplayer, meanfield) form each equilibrium's
mean-field coupling once and hand the solver drivers that already carry it.
"""

from __future__ import annotations

import numpy as np

from .errors import InadmissibleKernel, ShapeError, SingularOperator
from .grid_ops import (
    LU_LEAF,
    GridKernel,
    cut_upper,
    lower_product,
    triangle_bands,
    triangular_inverse,
)
from .signals import CompiledSignal, NoiseBundle, once_per_array

NORMEST_ITERATIONS = 5     # block products with D_0^{-1} in _cond1_est, Higham and Tisseur's itmax


def build_Dt(K: GridKernel, lam_eff: float) -> tuple[np.ndarray, ...]:
    """Form D = lam_eff*id + dt*(K + K^T) and factor it once for every D_k.

    Returns (core, pivots, Ui, Li) for core = D = U @ Lw, U unit upper and Lw
    lower triangular: pivots = diag(Lw), Ui = U^{-1} and Li = Lw^{-1}.
    All come from a non-pivoted LU of the index-reversed matrix J D J = L R,
    whose leading blocks are the D_k, computed in place on one copy: U = J L J
    and Lw = J R J, so the factors' inverses are the recursion's, reversed.
    Once the pivots are read, the copy's buffer takes Ui.  D is exactly
    symmetric (IEEE addition commutes), so Lw = diag(pivots) U^T, the
    recursion inverts L alone, and Li = Ui^T / pivots is returned as the
    transpose of a row scaling of Ui; FredholmSolver keeps only its bands.
    SingularOperator names the largest k whose pivot is at most tol: elimination
    runs from the last index down, and every pivot after a failed one is meaningless.
    """
    n = K.grid.n
    core = K.values + K.values.T
    core *= K.grid.dt
    core[np.diag_indices(n)] += float(lam_eff)
    tol = 1e-10 * max(1.0, float(core.max()), -float(core.min()))
    A = np.array(core[::-1, ::-1])
    L_inv = np.zeros((n, n))
    with np.errstate(all="ignore"):
        _lu_inplace(A, L_inv, tol, n)
    pivots = np.diagonal(A)[::-1].copy()
    A[...] = L_inv[::-1, ::-1]
    return core, pivots, A, np.divide(A, pivots[:, None], out=L_inv).T


def _lu_inplace(A: np.ndarray, L_inv: np.ndarray, tol: float, end: int) -> None:
    """Non-pivoted LU of symmetric A in place: L (unit diagonal) below, U on and above.

    Fills the zeroed L_inv with L^{-1}, block by block as
    grid_ops.triangular_inverse builds it, so every block is inverted once.
    A is symmetric, so U = diag(U) L^T: each off-diagonal block of L is the
    transposed block of U scaled by the pivots, and U is never inverted.
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
        return
    h = n // 2
    _lu_inplace(A[:h, :h], L_inv[:h, :h], tol, end)
    A[:h, h:] = L_inv[:h, :h] @ A[:h, h:]
    np.divide(A[:h, h:].T, np.diagonal(A[:h, :h]), out=A[h:, :h])
    A[h:, h:] -= A[h:, :h] @ A[:h, h:]
    _lu_inplace(A[h:, h:], L_inv[h:, h:], tol, end - h)
    L_inv[h:, :h] = -L_inv[h:, h:] @ (A[h:, :h] @ L_inv[:h, :h])


def _singular(k: int) -> SingularOperator:
    return SingularOperator(f"conditional operator D_{k} is numerically singular")


class FredholmSolver:
    """Every D_k = lam_eff*id + dt*(K + K^T)[k:, k:] of one kernel, from one
    reversed factorization, and coefficient solves against them.

    D = U @ Lw with U upper and Lw lower triangular.  Triangular factors keep
    their trailing blocks, so D_k = U_k @ Lw_k for every k, and the trailing
    blocks of Ui = U^{-1} and Li = Lw^{-1} give D_k^{-1} = Li_k @ Ui_k, which
    solve applies directly, n^3/6 multiply-adds per product.  Setup is one
    O(n^3) one-sided factorization (build_Dt), Li = Ui^T / pivots, kept only
    as the row bands every product reads (grid_ops.triangle_bands), built
    once: n^2 + TRI_BLOCK n doubles, not the dense pair's 2 n^2.  The
    factorization is a non-pivoted UL (U has a unit diagonal), which exists
    exactly when every D_k is invertible.  pivots[k] = Lw[k,k] is the Schur
    pivot det(D_k) / det(D_{k+1}).
    """

    def __init__(self, K: GridKernel, lam_eff: float):
        if not (lam_eff > 0.0):
            raise InadmissibleKernel(f"lam_eff must be positive, got {lam_eff}")
        self.lam_eff, self.grid = lam_eff, K.grid
        self.core, self.pivots, Ui, Li = build_Dt(K, lam_eff)
        self._cond1 = self._cond1_est(self.core, Ui, Li)
        self._ui_bands, self._li_bands = triangle_bands(Ui, "upper"), triangle_bands(Li, "lower")

    def min_pivot(self) -> float:
        """Smallest |Schur pivot| over all D_k: how close any D_k is to singular."""
        return float(np.min(np.abs(self.pivots)))

    def cond1_est(self) -> float:
        """1-norm condition number of D_0, estimated from the dense factors at setup."""
        return self._cond1

    @staticmethod
    def _cond1_est(core: np.ndarray, Ui: np.ndarray, Li: np.ndarray) -> float:
        """1-norm condition number of core = D_0, with ||D_0^{-1}||_1 estimated from the factors.

        The block estimator of Higham and Tisseur (SIAM J. Matrix Anal. Appl.
        21(4), 2000) with two columns, made deterministic: it starts from the
        constant and an alternating column, and keeps a sign column parallel
        to another instead of redrawing it.  At most NORMEST_ITERATIONS products
        of D_0^{-1} = Li @ Ui and of its transpose with an n x 2 block, O(n^2)
        each, instead of forming the inverse; Higham's extra test vector of
        alternating sign (ACM TOMS 14(4), 1988) is tried last.  Every column
        is D_0^{-1} x for a unit x, so the estimate never exceeds the exact value.
        """
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
        return float(np.linalg.norm(core, 1)) * est

    def solve(self, f: CompiledSignal) -> CompiledSignal:
        """The solution for driver f, as a mean plus one weight matrix per tag.

        The mean is D_0^{-1} f.mean.  Weight column s is
        D_{s+1}^{-1} f.weights[s+1:, s], below a zero head: the triangular
        inverse factors keep trailing blocks, and Ui @ w read strictly below the
        diagonal sees only rows after s, so the weights come out strictly lower
        triangular and the solution is adapted.  Ui is upper triangular, so
        that part reads only w's strictly lower part, even for anticipative
        weights, and both products form only their strictly lower half and
        read only the solver's bands of Ui and Li (grid_ops.lower_product).
        Tags go one at a time, so no stacked right-hand side is built, and
        each distinct weight array is solved once: the tags that hold it share
        the solution's array.
        """
        if f.grid != self.grid:
            raise ShapeError("driver lives on a different grid")
        once = once_per_array(lambda w: lower_product(
            self._li_bands, lower_product(self._ui_bands, w, "upper"), "lower"))
        weights = {t: once(w) for t, w in f.weights.items()}
        # an upper band reads the columns from its first row on, a lower one up to its last
        y = np.concatenate([band @ f.mean[-band.shape[1]:] for band in self._ui_bands])
        mean = np.concatenate([band @ y[:band.shape[1]] for band in self._li_bands])
        return CompiledSignal(self.grid, mean, weights)

    def residual(self, f: CompiledSignal, v: CompiledSignal) -> CompiledSignal:
        """D v - f with D = lam id + dt (K + K^T): the discretized equation itself.

        The mean row is the equation's expectation; per tag only the strictly
        lower weights enter adapted values, so the rest is cut off.  v is a
        solution, so its weights are strictly lower and D v is an adapted
        product; f is subtracted into its arrays, which are then cut in place.
        Every array of that difference is new, so the cut writes into no array
        of v or f, and it runs once per distinct array.
        """
        r = v.adapted_matmul(self.core).accumulate(f, subtract=True)
        cut = once_per_array(cut_upper)
        return CompiledSignal(self.grid, r.mean, {t: cut(w) for t, w in r.weights.items()})


def stability_gap(solver_n: FredholmSolver, solver_limit: FredholmSolver,
                  bundle: NoiseBundle, f_n: CompiledSignal,
                  f_limit: CompiledSignal | None = None) -> float:
    """Monte Carlo estimate of sup_k E[(v^N_k - v_k)^2] on the bundle's paths.

    f_n drives solver_n and f_limit (default f_n) drives solver_limit.
    """
    f_limit = f_n if f_limit is None else f_limit
    P = bundle.n_paths
    diff = (solver_n.solve(f_n).path_values(bundle.increments, P)
            - solver_limit.solve(f_limit).path_values(bundle.increments, P))
    return float(np.max(np.mean(diff ** 2, axis=0)))

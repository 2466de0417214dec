"""Closed-form solver for linear stochastic Fredholm equations of the second kind.

The discrete problem on a grid with step dt is, per path,

    lam * v[k] = f[k] - dt * sum_{r<k} K[k,r] v[r]
                       - dt * sum_{r>k} L[r,k] E_{t_k}[v[r]],

with K, L strictly lower triangular.  Conditioning the equation at t_k on
the time-k sigma-algebra closes it over the unknowns m_k[j] = E_{t_k}[v[j]],
j >= k, through the operator

    D_k = lam * id + dt * (K + L^T) restricted to indices >= k.

Eliminating the conditional rows yields the forward recursion
v = (id - B)^{-1} a whose coefficients are assembled below.  The closed form
and the discretized equation are the same linear system, so the residual of
a solved problem is at linear-algebra precision, not quadrature precision.

Every D_k is a trailing block of D = D_0, so one reversed triangular
factorization of D (O(n^3) time, O(n^2) memory) serves all of them, and the
coefficient kernels and conditional surfaces are masked matrix products.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import InadmissibleKernel, ShapeError, SingularOperator
from .grid_ops import GridKernel, SolveHandle, TimeGrid, invert_id_minus
from .signals import SignalPath

SELFADJOINT_TOL = 1e-10
SURFACE_CHUNK = 1 << 18   # array elements per path chunk in conditional_surfaces_batch


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
        if not (self.K.volterra and self.L.volterra):
            raise InadmissibleKernel("K and L must be Volterra kernels")
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


@dataclass(frozen=True)
class FredholmSolution:
    """Per-path solution with the path-independent recursion kernel B."""

    v: np.ndarray
    a: np.ndarray
    B: GridKernel
    surface: np.ndarray
    residual: float


class DtFamily:
    """Every D_k = lam*id + dt*(K + L^T)[k:, k:] from one reversed factorization.

    D = U @ Lw with U upper and Lw lower triangular.  Triangular factors keep
    their trailing blocks, so D_k = U_k @ Lw_k for every k, and the trailing
    blocks of Ui = U^{-1} and Li = Lw^{-1} give D_k^{-1} = Li_k @ Ui_k.  Setup is
    one O(n^3) factorization with O(n^2) memory.  The factorization is a
    non-pivoted UL (U has a unit diagonal), which exists exactly when every D_k
    is invertible.  pivots[k] = Lw[k,k] is the Schur pivot det(D_k) / det(D_{k+1}).

    Handles act block-diagonally on full grid functions: entries below k are
    divided by lam_eff, entries from k on are solved through the factors.
    """

    def __init__(self, K: GridKernel, L: GridKernel, lam_eff: float):
        grid = K.grid
        n = grid.n
        core = grid.dt * (K.values + L.values.T)
        core[np.diag_indices(n)] += float(lam_eff)
        self.grid = grid
        self.lam = float(lam_eff)
        self._core = core
        tol = 1e-10 * max(1.0, float(np.max(np.abs(core))))
        U, Lw = _reversed_factors(core, tol)
        self.pivots = np.diagonal(Lw).copy()
        self._Ui = sla.lapack.dtrtri(U, lower=0)[0]
        self._Li = sla.lapack.dtrtri(Lw, lower=1)[0]
        # w_k = D_k^{-T} ell_k with ell_k[r] = L[r, k] for r >= k; these turn the
        # backward inner products of a and B into plain dot products.  Row k of
        # triu(L^T) @ Li, cut to [k:], is ell_k^T Li_k; Ui keeps the product upper.
        self.w = np.triu(np.triu(L.values.T) @ self._Li) @ self._Ui

    def solve_from(self, k: int, rhs_tail: np.ndarray) -> np.ndarray:
        """Solve D_k x = rhs on indices >= k; rhs_tail has shape (n-k,) or (n-k, m)."""
        return self._Li[k:, k:] @ (self._Ui[k:, k:] @ rhs_tail)

    def solve_rows(self, R: np.ndarray) -> np.ndarray:
        """Row k of the result is D_k^{-1} R[k, k:] on [k:] and zero below k.

        R has shape (m, n, n); each of the m stacked matrices is solved row-wise.
        """
        n = self.grid.n
        upper = np.triu(np.ones((n, n), dtype=bool))
        Y = (np.where(upper, R, 0.0).reshape(-1, n) @ self._Ui.T).reshape(R.shape)
        Y *= upper
        return (Y.reshape(-1, n) @ self._Li.T).reshape(R.shape)

    def handle(self, k: int):
        lam = self.lam

        def solve(y: np.ndarray) -> np.ndarray:
            y = np.asarray(y, dtype=float)
            if y.shape[0] != self.grid.n:
                raise ShapeError(f"rhs has length {y.shape[0]}, expected {self.grid.n}")
            out = y / lam
            out[k:] = self.solve_from(k, y[k:])
            return out

        return solve

    def min_pivot(self) -> float:
        """Smallest |Schur pivot| over all D_k: how close any D_k is to singular."""
        return float(np.min(np.abs(self.pivots)))

    def cond1(self) -> float:
        """1-norm condition number of D_0, read off the factors."""
        return float(np.linalg.norm(self._core, 1) * np.linalg.norm(self._Li @ self._Ui, 1))

    def condition_number(self, k: int) -> float:
        sv = np.linalg.svd(self._core[k:, k:], compute_uv=False)
        return float(sv[0] / sv[-1])


def _reversed_factors(core: np.ndarray, tol: float):
    """Return (U, Lw), U unit upper and Lw lower triangular, with core = U @ Lw.

    Both come from a non-pivoted LU of the index-reversed matrix J core J, whose
    leading blocks are the D_k.  SingularOperator names the largest k whose
    pivot is at most tol: elimination runs from the last index down, and every
    pivot after a failed one is meaningless.
    """
    n = core.shape[0]
    with np.errstate(all="ignore"):
        Lr, Ur = _lu_nopivot(core[::-1, ::-1], tol, n)
    return np.ascontiguousarray(Lr[::-1, ::-1]), np.ascontiguousarray(Ur[::-1, ::-1])


def _lu_nopivot(A: np.ndarray, tol: float, end: int):
    """Recursive blocked LU without pivoting; A's first index is grid index end - 1."""
    n = A.shape[0]
    if n == 1:
        if not abs(A[0, 0]) > tol:
            raise _singular(end - 1)
        return np.ones((1, 1)), A.copy()
    h = n // 2
    L11, U11 = _lu_nopivot(A[:h, :h], tol, end)
    U12 = sla.solve_triangular(L11, A[:h, h:], lower=True, unit_diagonal=True,
                               check_finite=False)
    L21 = sla.solve_triangular(U11, A[h:, :h].T, trans="T", check_finite=False).T
    L22, U22 = _lu_nopivot(A[h:, h:] - L21 @ U12, tol, end - h)
    Z = np.zeros((h, n - h))
    return np.block([[L11, Z], [L21, L22]]), np.block([[U11, U12], [Z.T, U22]])


def _singular(k: int) -> SingularOperator:
    return SingularOperator(f"conditional operator D_{k} is numerically singular")


def build_Dt(K: GridKernel, L: GridKernel, lam_eff: float) -> DtFamily:
    """Factor D once for every masked conditional operator D_k; reused across all paths."""
    return DtFamily(K, L, lam_eff)


class FredholmSolver:
    """Path-independent assembly (D_t family, recursion kernel B) plus per-path solves."""

    def __init__(self, problem: FredholmProblem):
        self.problem = problem
        self.grid = problem.grid
        self.dt_family = build_Dt(problem.K, problem.L, problem.lam_eff)
        self.B = self._assemble_B()
        self._forward: SolveHandle = invert_id_minus(self.B)

    def _assemble_B(self) -> GridKernel:
        # B[k, :k] = (dt * W[k, k:] @ K[k:, :k] - K[k, :k]) / lam; W is upper triangular
        K = self.problem.K.values
        B = np.tril(self.grid.dt * (self.dt_family.w @ K) - K, -1) / self.problem.lam_eff
        return GridKernel(self.grid, B)

    def assemble_a(self, path: SignalPath) -> np.ndarray:
        """a[k] = (f[k] - dt * <w_k, E_{t_k} f restricted to [k:]>) / lam."""
        self._check_path(path)
        W = self.dt_family.w
        a = path.values - self.grid.dt * np.einsum("kj,kj->k", W, path.surface)
        return a / self.problem.lam_eff

    def assemble_a_batch(self, values: np.ndarray, surfaces: np.ndarray) -> np.ndarray:
        W = self.dt_family.w
        a = values - self.grid.dt * np.einsum("kj,pkj->pk", W, surfaces)
        return a / self.problem.lam_eff

    def solve_v(self, a: np.ndarray) -> np.ndarray:
        """Forward recursion v = a + dt * B v (accepts stacked columns)."""
        return self._forward(a)

    def conditional_surface(self, v: np.ndarray, path: SignalPath) -> np.ndarray:
        """Exact surface E_{t_k}[v[j]]: closed rows from D_k, adapted rows from v."""
        self._check_path(path)
        return self._surfaces(v[None], path.surface[None])[0]

    def conditional_surfaces_batch(self, v: np.ndarray, surfaces: np.ndarray) -> np.ndarray:
        """conditional_surface for stacked paths: v is (P, n), surfaces (P, n, n).

        Paths go through in chunks, so no temporary is as large as the output.
        """
        n = self.grid.n
        S = np.empty((v.shape[0], n, n))
        step = max(1, SURFACE_CHUNK // (n * n))
        for p in range(0, v.shape[0], step):
            S[p:p + step] = self._surfaces(v[p:p + step], surfaces[p:p + step])
        return S

    def _surfaces(self, v: np.ndarray, surfaces: np.ndarray) -> np.ndarray:
        # row k solves D_k x = surface[k, k:] - dt * past[k, k:] with
        # past[k, i] = sum_{r<k} K[i, r] v[r]; adapted entries j <= k are v[j]
        past = v[:, :, None] * self.problem.K.values.T
        np.cumsum(past, axis=1, out=past)
        R = surfaces.copy()
        R[:, 1:] -= self.grid.dt * past[:, :-1]
        S = self.dt_family.solve_rows(R)
        n = self.grid.n
        np.copyto(S, v[:, None, :], where=np.tri(n, dtype=bool))
        return S

    def residual(self, v: np.ndarray, surface: np.ndarray, path: SignalPath) -> float:
        dt = self.grid.dt
        forward = dt * (self.problem.K.values @ v)
        backward = dt * np.einsum("rk,kr->k", self.problem.L.values, surface)
        res = self.problem.lam_eff * v - path.values + forward + backward
        return float(np.max(np.abs(res)))

    def solve_path(self, path: SignalPath) -> FredholmSolution:
        a = self.assemble_a(path)
        v = self.solve_v(a)
        S = self.conditional_surface(v, path)
        res = self.residual(v, S, path)
        return FredholmSolution(v=v, a=a, B=self.B, surface=S, residual=res)

    def _check_path(self, path: SignalPath) -> None:
        if path.grid != self.grid:
            raise ShapeError("path lives on a different grid")


# --- thin functional facade ------------------------------------------------

def assemble_B(problem: FredholmProblem) -> GridKernel:
    return FredholmSolver(problem).B


def assemble_a(problem: FredholmProblem, path: SignalPath) -> np.ndarray:
    return FredholmSolver(problem).assemble_a(path)


def solve(problem: FredholmProblem, path: SignalPath,
          solver: FredholmSolver | None = None) -> FredholmSolution:
    return (solver or FredholmSolver(problem)).solve_path(path)


def conditional_solution(problem: FredholmProblem, solution: FredholmSolution,
                         path: SignalPath) -> np.ndarray:
    return FredholmSolver(problem).conditional_surface(solution.v, path)


def residual(problem: FredholmProblem, solution: FredholmSolution, path: SignalPath) -> float:
    return FredholmSolver(problem).residual(solution.v, solution.surface, path)


def stability_gap(problem_n: FredholmProblem, problem_limit: FredholmProblem,
                  paths_n, paths_limit=None) -> float:
    """Monte Carlo estimate of sup_k E[(v^N_k - v_k)^2] on a shared path ensemble."""
    paths_n = list(paths_n)
    paths_limit = list(paths_limit) if paths_limit is not None else paths_n
    if len(paths_n) != len(paths_limit):
        raise ShapeError("path ensembles have different sizes")
    solver_n = FredholmSolver(problem_n)
    solver_l = FredholmSolver(problem_limit)
    sq = np.zeros(problem_n.grid.n)
    for p_n, p_l in zip(paths_n, paths_limit):
        v_n = solver_n.solve_v(solver_n.assemble_a(p_n))
        v_l = solver_l.solve_v(solver_l.assemble_a(p_l))
        sq += (v_n - v_l) ** 2
    return float(np.max(sq / len(paths_n)))

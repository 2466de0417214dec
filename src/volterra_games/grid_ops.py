"""Time grids, discretized Volterra kernels, and the operator calculus on them.

Kernels G(t, s) vanish for s >= t (Volterra convention).  A kernel is stored
as an n x n matrix of cell averages K[i, j] ~ (1/dt) * int_{t_j}^{t_j+dt}
G(t_i, s) ds, strictly lower triangular, so that the induced integral
operator acts on grid functions as (K f)[i] = sum_j K[i, j] f[j] dt.
GridKernel refuses any other matrix, so every id - dt K is unit lower
triangular: triangular_inverse gives the resolvent's (id - dt K)^{-1}, and
fredholm builds its D_t factors' inverses with it too.  Adapted weights are
strictly lower triangular as well, so the solver's products with them
(lower_product) form only that triangle, and read only the nonzero triangle
of a triangular left factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InadmissibleKernel, InvalidGrid, ShapeError

LU_LEAF = 32               # triangular blocks this small are inverted (or eliminated) directly
TRI_BLOCK = 64             # column block and row band of lower_product, row block of cut_upper
_UPPER = np.triu(np.ones((TRI_BLOCK, TRI_BLOCK), dtype=bool))    # on and above the diagonal


@dataclass(frozen=True)
class TimeGrid:
    """Uniform left-endpoint partition of [0, T] with n points t_k = k*T/n."""

    horizon: float
    n: int

    def __post_init__(self):
        if not (self.horizon > 0.0) or self.n < 2:
            raise InvalidGrid(f"need T > 0 and n >= 2, got T={self.horizon}, n={self.n}")

    @property
    def dt(self) -> float:
        return self.horizon / self.n

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n) * self.dt


def build_grid(T: float, n: int) -> TimeGrid:
    """Build the uniform grid; raises InvalidGrid on bad parameters."""
    return TimeGrid(float(T), int(n))


def horizon_grid(grid: TimeGrid) -> TimeGrid:
    """grid extended by its horizon point: n + 1 points, T last.

    Its step (T + dt) / (n + 1) can differ from grid.dt in the last bit, so a
    computation that needs the game's step reads grid.dt.
    """
    return TimeGrid(grid.horizon + grid.dt, grid.n + 1)


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class GridKernel:
    """A discretized Volterra kernel: a strictly lower triangular n x n matrix
    acting with quadrature weight dt; any other matrix raises InadmissibleKernel.

    Equality is identity, as for signals.CompiledSignal: comparing the arrays
    would be ambiguous.

    diag_half optionally stores the kernel's exact averages over the lower
    half of the diagonal cells, (2/dt^2) * int int_{t_j < s < t < t_j + dt}
    G(t, s); the strict lower triangle drops this mass, and definiteness
    checks need it back (see symmetrized_form).
    """

    grid: TimeGrid
    values: np.ndarray
    diag_half: np.ndarray | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n, self.grid.n):
            raise ShapeError(f"kernel values must be {self.grid.n} x {self.grid.n}, got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise InadmissibleKernel("kernel has non-finite entries")
        if _any_upper(v):
            raise InadmissibleKernel("kernel must be strictly lower triangular")
        object.__setattr__(self, "values", _readonly(v))
        if self.diag_half is not None:
            d = np.asarray(self.diag_half, dtype=float)
            if d.shape != (self.grid.n,):
                raise ShapeError("diag_half must have one entry per grid point")
            object.__setattr__(self, "diag_half", _readonly(d))

    def diagonal_estimate(self) -> np.ndarray:
        """Exact diagonal half-cell averages when known, else the nearest subdiagonal."""
        if self.diag_half is not None:
            return self.diag_half
        sub = np.diagonal(self.values, -1)
        return np.concatenate([sub, sub[-1:]])


def zero_kernel(grid: TimeGrid) -> GridKernel:
    return GridKernel(grid, np.zeros((grid.n, grid.n)), diag_half=np.zeros(grid.n))


# ---------------------------------------------------------------------------
# kernel families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelSpec:
    """Base class for analytic convolution kernel families G(t, s) = G(t - s);
    `scale` multiplies the kernel.  A family checks its parameters where it is
    made."""

    scale: float = 1.0

    def lag_averages(self, m: np.ndarray, dt: float) -> np.ndarray:
        """Cell averages (1/dt) int_{(m-1)dt}^{m dt} G(x) dx at the integer lags m >= 1."""
        raise NotImplementedError

    def half_cell_average(self, dt: float) -> float:
        """(2/dt^2) int_0^dt (dt - x) G(x) dx: the dropped diagonal mass."""
        raise NotImplementedError


@dataclass(frozen=True)
class ZeroK(KernelSpec):
    def lag_averages(self, m, dt):
        return np.zeros(np.shape(m))

    def half_cell_average(self, dt):
        return 0.0


@dataclass(frozen=True)
class ConstantLower(KernelSpec):
    c: float = 1.0

    def lag_averages(self, m, dt):
        return np.full(np.shape(m), self.c)

    def half_cell_average(self, dt):
        return self.c


@dataclass(frozen=True)
class ExponentialDecay(KernelSpec):
    """G(x) = c * exp(-rho x)."""

    c: float = 1.0
    rho: float = 1.0

    def lag_averages(self, m, dt):
        x = self.rho * dt
        # (1/dt) int_{(m-1)dt}^{m dt} e^{-rho x} dx = e^{-rho m dt} * (e^{rho dt}-1)/(rho dt)
        fac = np.expm1(x) / x if x != 0.0 else 1.0
        return self.c * np.exp(-self.rho * (m * dt)) * fac

    def half_cell_average(self, dt):
        # 2 (e^{-x} - 1 + x) / x^2; for small |x| its series, which does not cancel
        x = self.rho * dt
        if abs(x) < 0.5:
            return self.c * 2.0 * sum((-x) ** k / math.factorial(k + 2) for k in range(17))
        return self.c * (2.0 / x) * (1.0 - (1.0 - np.exp(-x)) / x)


@dataclass(frozen=True)
class PowerLaw(KernelSpec):
    """G(x) = c * x^(-alpha), alpha in (0, 1/2)."""

    c: float = 1.0
    alpha: float = 0.3

    def __post_init__(self):
        if not (0.0 < self.alpha < 0.5):
            raise InadmissibleKernel(f"power-law exponent must lie in (0, 1/2), got {self.alpha}")

    def lag_averages(self, m, dt):
        a = self.alpha
        # exact antiderivative of x^(-a): m^(1-a) - (m-1)^(1-a) = m^(1-a) (1 - (1 - 1/m)^(1-a)),
        # the bracket by expm1 and log1p, which do not cancel at far lags; lag 1's is 1
        m = np.asarray(m, dtype=float)
        bracket = np.where(m > 1.0, -np.expm1((1.0 - a) * np.log1p(-1.0 / np.maximum(m, 2.0))), 1.0)
        return self.c * m ** (1.0 - a) * bracket * dt ** (-a) / (1.0 - a)

    def half_cell_average(self, dt):
        a = self.alpha
        return 2.0 * self.c * dt ** (-a) / ((1.0 - a) * (2.0 - a))


@dataclass(frozen=True)
class DelayIndicator(KernelSpec):
    """G(x) = 1_{x < tau}: a unit pulse of width tau >= 0."""

    tau: float = 0.5

    def __post_init__(self):
        if not (self.tau >= 0.0):
            raise InadmissibleKernel(f"delay pulse width must be >= 0, got {self.tau}")

    def lag_averages(self, m, dt):
        return 1.0 - np.clip(m - self.tau / dt, 0.0, 1.0)

    def half_cell_average(self, dt):
        if self.tau >= dt:
            return 1.0
        return 1.0 - (1.0 - self.tau / dt) ** 2


@dataclass(frozen=True)
class DelayMeasure(KernelSpec):
    """G(x) = nu([0, x]) for a signed measure nu on [0, infinity): point masses
    plus a density constant on each cell of width dt, the kernel's grid step."""

    atoms: tuple = ()              # of (location tau >= 0, mass)
    density: tuple | None = None   # cell values of a density on the grid, or None

    def __post_init__(self):
        for tau, mass in self.atoms:
            if tau < 0.0 or not np.isfinite(mass):
                raise ShapeError(f"bad atom ({tau}, {mass})")

    def lag_averages(self, m, dt):
        out = np.zeros(np.shape(m))
        for tau, mass in self.atoms:
            out += mass * np.clip(m - tau / dt, 0.0, 1.0)
        if self.density is not None:
            # the density's part of G is linear on lag m's cell, so its average is
            # its value at (m - 1/2) dt: the mass through cell m - 2 plus half of cell m - 1
            g = np.asarray(self.density, dtype=float)
            if len(g) < np.max(m):
                raise ShapeError(f"density needs a value for each of {np.max(m)} cells, "
                                 f"got {len(g)}")
            cum = np.concatenate([[0.0], np.cumsum(g) * dt])
            out += cum[m - 1] + g[m - 1] * (0.5 * dt)
        return out

    def half_cell_average(self, dt):
        total = 0.0
        for tau, mass in self.atoms:
            if tau < dt:
                total += mass * (1.0 - tau / dt) ** 2
        if self.density is not None:
            total += float(np.asarray(self.density)[0]) * dt / 3.0
        return total


@dataclass(frozen=True)
class Tabulated(KernelSpec):
    """Pre-discretized values, taken as already cell-averaged."""

    table: tuple = ()


def discretize_kernel(spec: KernelSpec, grid: TimeGrid) -> GridKernel:
    """Nystrom discretization: strictly lower triangular cell-averaged matrix.

    An analytic family's matrix is Toeplitz: entry (i, j) is its average at
    the lag i - j, so it is gathered from the n - 1 lag averages.
    """
    n = grid.n
    if isinstance(spec, Tabulated):
        vals = np.asarray(spec.table, dtype=float)
        if vals.shape != (n, n):
            raise ShapeError(f"tabulated kernel must be {n} x {n}, got {vals.shape}")
        out = np.tril(vals, k=-1) * spec.scale
        return GridKernel(grid, out)
    lags = np.arange(n)
    table = np.concatenate([[0.0], spec.lag_averages(lags[1:], grid.dt)]) * spec.scale
    out = table[np.maximum(np.subtract.outer(lags, lags), 0)]      # lag 0 on and above the diagonal
    diag = np.full(n, spec.half_cell_average(grid.dt) * spec.scale)
    return GridKernel(grid, out, diag_half=diag)


# ---------------------------------------------------------------------------
# operator calculus
# ---------------------------------------------------------------------------

def _same_grid(a: GridKernel, b: GridKernel) -> TimeGrid:
    if a.grid != b.grid:
        raise ShapeError("kernels live on different grids")
    return a.grid


def apply(K: GridKernel, f: np.ndarray) -> np.ndarray:
    """(K f)[i] = sum_j K[i, j] f[j] dt."""
    f = np.asarray(f, dtype=float)
    if f.shape[0] != K.grid.n:
        raise ShapeError(f"grid function has length {f.shape[0]}, expected {K.grid.n}")
    return K.values @ f * K.grid.dt


def star_product(G: GridKernel, H: GridKernel) -> GridKernel:
    """(G * H)[i, j] = sum_k G[i, k] H[k, j] dt; Volterra is closed under it."""
    grid = _same_grid(G, H)
    return GridKernel(grid, G.values @ H.values * grid.dt)


def resolvent(K: GridKernel) -> GridKernel:
    """R with R = K + K * R (equivalently (id - K)^{-1} = id + R): (id - dt K)^{-1} K."""
    inverse = triangular_inverse(np.eye(K.grid.n) - K.grid.dt * K.values)
    return GridKernel(K.grid, inverse @ K.values)


def symmetrized_form(K: GridKernel) -> np.ndarray:
    """(dt/2)(Kc + Kc^T) where Kc closes the lower triangle with its diagonal cell.

    The strictly lower storage drops the diagonal-cell mass, which makes the
    raw symmetrized matrix indefinite by O(dt * G(0+)) for any nonzero kernel;
    restoring the exact half-cell averages (or their subdiagonal estimate)
    gives a test whose minimum eigenvalue tracks the continuum answer: zero
    margin kernels (constants) land at exactly zero, genuinely indefinite ones
    (delay pulses with tau < T) stay negative under refinement.
    """
    Kc = K.values.copy()
    Kc[np.diag_indices(K.grid.n)] = K.diagonal_estimate()
    S = Kc + Kc.T
    S *= 0.5 * K.grid.dt
    return S


def min_eigenvalue(K: GridKernel) -> float:
    """The minimum eigenvalue of K's symmetrized weighted form (symmetrized_form).

    The zero kernel's form is the zero matrix: its 0.0 needs no eigensolver.
    """
    if not (K.values.any() or K.diagonal_estimate().any()):
        return 0.0
    return float(np.linalg.eigvalsh(symmetrized_form(K))[0])


def triangular_inverse(T: np.ndarray, unit: bool = False) -> np.ndarray:
    """Inverse of the lower triangle of T, exactly zero above it.

    [[A, 0], [C, B]]^{-1} = [[A^{-1}, 0], [-B^{-1} C A^{-1}, B^{-1}]] down to
    LU_LEAF rows, where np.linalg.inv is cut back to the triangle.  Only the
    triangle is read (unit=True: not its diagonal), so T may be a packed LU.
    """
    n = T.shape[0]
    if n <= LU_LEAF:
        leaf = np.tril(T, -1 if unit else 0)
        if unit:
            leaf[np.diag_indices(n)] = 1.0
        return np.tril(np.linalg.inv(leaf))
    h = n // 2
    X = np.zeros((n, n))
    X[:h, :h] = triangular_inverse(T[:h, :h], unit)
    X[h:, h:] = triangular_inverse(T[h:, h:], unit)
    X[h:, :h] = -X[h:, h:] @ (T[h:, :h] @ X[:h, :h])
    return X


def cut_upper(a: np.ndarray) -> np.ndarray:
    """Zero the square a on and above its diagonal, in place, and return it.

    The values of np.tril(a, -1) without its n x n mask: each band of
    TRI_BLOCK rows clears its diagonal block through one fixed small mask and
    the columns right of it by a slice.
    """
    n = a.shape[0]
    for j in range(0, n, TRI_BLOCK):
        k = min(j + TRI_BLOCK, n)
        a[j:k, j:k][_UPPER[:k - j, :k - j]] = 0.0
        a[j:k, k:] = 0.0
    return a


def _any_upper(a: np.ndarray) -> bool:
    """Whether a has a nonzero (not -0.0) on or above its diagonal: cut_upper's bands, read."""
    n = a.shape[0]
    for j in range(0, n, TRI_BLOCK):
        k = min(j + TRI_BLOCK, n)
        if np.any(a[j:k, j:k][_UPPER[:k - j, :k - j]]) or np.any(a[j:k, k:]):
            return True
    return False


def triangle_bands(A: np.ndarray, triangle: str) -> list[np.ndarray]:
    """Copies of A[r:s, r:] (triangle "upper") or A[r:s, :s] ("lower") per TRI_BLOCK rows
    [r, s), diagonal block cut to the triangle: the row bands lower_product reads of a
    triangular A, n^2/2 + TRI_BLOCK n/2 doubles in all.  Only A's triangle is read."""
    n = A.shape[0]
    upper = triangle == "upper"
    cut = ~_UPPER if upper else ~_UPPER.T
    bands = []
    for r in range(0, n, TRI_BLOCK):
        m = min(TRI_BLOCK, n - r)
        band = np.array(A[r:r + m, r:] if upper else A[r:r + m, :r + m])
        np.copyto(band[:, :m] if upper else band[:, r:], 0.0, where=cut[:m, :m])
        bands.append(band)
    return bands


def lower_product(A: np.ndarray | list[np.ndarray], W: np.ndarray,
                  triangle: str | None = None) -> np.ndarray:
    """tril(A @ tril(W, -1), -1), formed one column block at a time.

    Column block [j, k) of the product reads only rows >= j of A and W, so it
    is the one GEMM A[j:, j:] @ W[j:, j:k], with W's diagonal block read
    strictly lower and the result's cut on and above the diagonal: n^3/3
    multiply-adds instead of n^3, and at n <= TRI_BLOCK the single GEMM A @ W.
    A may be any (n, n) matrix; only W's strictly lower triangle is read, and
    the result is exactly zero on and above the diagonal.

    triangle="upper" or "lower" says that A is triangular and passed as its
    triangle_bands, which a caller with one left factor for many products
    builds once.  Each column block then splits into those row bands, and a
    band is one GEMM with only A's nonzero part, A[r:s, r:] (upper) or
    A[r:s, j:s] (lower): n^3/6 multiply-adds, and at n <= TRI_BLOCK the
    single GEMM with the cut band.
    """
    n = W.shape[0]
    out = np.zeros((n, n))
    upper_A = triangle == "upper"
    bands = [] if triangle is None else A
    for j in range(0, n, TRI_BLOCK):
        k = min(j + TRI_BLOCK, n)
        upper = _UPPER[:k - j, :k - j]
        w = W[j:, j:k].copy()
        w[:k - j][upper] = 0.0
        if triangle is None:
            np.matmul(A[j:, j:], w, out=out[j:, j:k])
        for r, band in zip(range(j, n, TRI_BLOCK), bands[j // TRI_BLOCK:]):
            if upper_A:
                np.matmul(band, w[r - j:], out=out[r:r + len(band), j:k])
            else:
                np.matmul(band[:, j:], w[:r + len(band) - j], out=out[r:r + len(band), j:k])
        out[j:k, j:k][upper] = 0.0
    return out


def add_kernels(*terms: tuple[float, GridKernel]) -> GridKernel:
    """Entrywise linear combination sum_i coef_i * K_i; exact diagonals combine too."""
    coef0, K0 = terms[0]
    grid = K0.grid
    acc = coef0 * K0.values
    diag = coef0 * K0.diag_half if K0.diag_half is not None else None
    for coef, K in terms[1:]:
        _same_grid(K0, K)
        acc += coef * K.values
        diag = diag + coef * K.diag_half if (diag is not None and K.diag_half is not None) else None
    return GridKernel(grid, acc, diag_half=diag)


def grid_inner(grid: TimeGrid, f: np.ndarray, g: np.ndarray) -> float:
    """<f, g> = sum_k f[k] g[k] dt."""
    return float(np.dot(f, g) * grid.dt)

"""Progressively measurable inputs, carried as their coefficients in Brownian increments.

Every supported input is affine in Brownian increments,

    f_j = mean[j] + sum_tag sum_r w[tag][j, r] dW^tag_r,

which makes conditional expectations exact linear functionals of past
increments: the stored path value is the adapted projection
values[j] = E_{t_j}[f_j] and the surface is m[i, j] = E_{t_i}[f_j]
= mean[j] + sum_{r < min(i, j)} w[j, r] dW_r.  Anticipative weight rows
(w[j, r] with r >= j) are allowed; they only enter through projections.
The solvers map a CompiledSignal driver to a CompiledSignal solution, so
equilibria are carried in this same form, and the linear algebra of the
form (sums, scalings, matrices applied to every weight) lives here only.
Inputs are built on their grid by deterministic, martingale, ou and
brownian_weighted, and combined with + and *; there is no other signal type.
Sampled paths are read off the coefficients: path_values for every path at
once, values_and_surface for one path with its conditional surface.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError, UnsupportedSignal
from .grid_ops import TimeGrid, _any_upper, cut_upper, lower_product

COMMON = "common"


@dataclass(frozen=True, eq=False)
class CompiledSignal:
    """Affine-in-increments representation of a signal on a grid.

    mean_T / weights_T extend the signal to the horizon endpoint T; they are
    optional and only required by model reductions with terminal data.

    Signals form a vector space: f + g, f - g, c * f and f / c act on the mean
    and on every tag's weights, and M @ f applies an (n, n) matrix to them
    (adapted_matmul forms only the strictly lower part of the weights).  A
    sum carries the union of its operands' tags in operand order, a missing
    tag reading as zero, and keeps a tag even where the sum is zero; where one
    operand alone carries a tag, the sum holds that operand's array.  Its
    terminal extension is the sum of the operands' (mean_T is None if any
    operand's is); M @ f has none.  numpy scalars and arrays defer to these
    operators, and sum() works from its start value 0.  Equality is identity:
    a comparison of the coefficients would be ambiguous on arrays.
    """

    grid: TimeGrid
    mean: np.ndarray
    weights: dict          # tag -> (n, n) array
    mean_T: float | None = None
    weights_T: dict = field(default_factory=dict)   # tag -> (n,) array

    __array_ufunc__ = None    # np.float64 * f and ndarray @ f reach __rmul__ / __rmatmul__

    def noise_tags(self) -> frozenset:
        return frozenset(self.weights)

    def _combine(self, other, op):
        if not isinstance(other, CompiledSignal):
            return NotImplemented
        if other.grid != self.grid:
            raise ShapeError("signals live on different grids")
        mean_T = None if self.mean_T is None or other.mean_T is None \
            else op(self.mean_T, other.mean_T)
        return CompiledSignal(self.grid, op(self.mean, other.mean),
                              _tagwise(op, self.weights, other.weights),
                              mean_T, _tagwise(op, self.weights_T, other.weights_T))

    def __add__(self, other):
        return self._combine(other, operator.add)

    def __sub__(self, other):
        return self._combine(other, operator.sub)

    def __radd__(self, other):
        if isinstance(other, int) and other == 0:
            return self
        return NotImplemented

    def _scaled(self, fn):
        """fn applied to the mean, to every tag's weights and to the terminal extension."""
        mean_T = None if self.mean_T is None else fn(self.mean_T)
        return CompiledSignal(self.grid, fn(self.mean),
                              {tag: fn(w) for tag, w in self.weights.items()}, mean_T,
                              {tag: fn(w) for tag, w in self.weights_T.items()})

    def __mul__(self, c):
        if not isinstance(c, numbers.Real):
            return NotImplemented
        c = float(c)
        return self._scaled(lambda x: c * x)

    __rmul__ = __mul__

    def __truediv__(self, c):
        if not isinstance(c, numbers.Real):
            return NotImplemented
        c = float(c)
        return self._scaled(lambda x: x / c)

    def __rmatmul__(self, M):
        if not isinstance(M, np.ndarray):
            return NotImplemented
        return self._applied(M, operator.matmul)

    def adapted_matmul(self, M: np.ndarray) -> CompiledSignal:
        """M @ self for a signal whose weights are strictly lower triangular.

        Precondition: every weight matrix is zero on and above the diagonal, as
        a solver output's is (only the strictly lower part is read).  The
        result's weights are then tril(M @ w, -1), formed by
        grid_ops.lower_product at a third of the full product's cost; on and
        above the diagonal they are zero, which no adapted value reads.
        """
        return self._applied(M, lower_product)

    def _applied(self, M: np.ndarray, product) -> CompiledSignal:
        """M on the mean and product(M, w) on every tag's weights; no extension to T."""
        if M.shape != (self.grid.n, self.grid.n):
            raise ShapeError(f"matrix of shape {M.shape} does not act on a signal of length "
                             f"{self.grid.n}")
        return CompiledSignal(self.grid, M @ self.mean,
                              {tag: product(M, w) for tag, w in self.weights.items()})

    def accumulate(self, other: CompiledSignal, subtract: bool = False) -> CompiledSignal:
        """self + other (self - other with subtract), written into self's arrays.

        For a signal that alone holds its arrays, as a fresh product does: the
        values of + and -, with no new array for a tag both carry; a tag only
        other carries gets a copy of its array, or 0.0 - it.  No extension to T.
        """
        op = np.subtract if subtract else np.add
        weights = {tag: op(self.weights[tag], w, out=self.weights[tag]) if tag in self.weights
                   else np.subtract(0.0, w) if subtract else w.copy()
                   for tag, w in other.weights.items()}
        return CompiledSignal(self.grid, op(self.mean, other.mean, out=self.mean),
                              {**self.weights, **weights})

    def path_values(self, increments: dict, n_paths: int) -> np.ndarray:
        """Adapted values E_{t_j}[f_j] on every path, shape (n_paths, n).

        increments maps each tag to its (n_paths, n) draws: one GEMM per tag, no
        stacked copy, and tags in sorted order, so the order that built the signal
        does not change the rounding.
        """
        out = np.broadcast_to(self.mean, (n_paths, self.grid.n)).copy()
        for tag in sorted(self.weights):
            out += self.tag_values(tag, increments[tag])
        return out

    def tag_values(self, tag, increments: np.ndarray) -> np.ndarray:
        """One tag's part of the adapted values at its (n_paths, n) increments.

        path_values is the mean plus these parts in sorted tag order; a caller
        that adds them in that order gets path_values bitwise.  Strictly lower
        weights, as a solver's, are read in place, others from a cut copy.
        """
        w = self.weights[tag]
        if _any_upper(w) or not w.flags.c_contiguous:
            w = cut_upper(np.array(w, order="C"))
        return increments @ w.T

    def part(self, tag=None) -> CompiledSignal:
        """The mean alone (tag None), or tag's weights alone on a zero mean.

        Every operator acts on the mean and on each tag apart, so an expression
        in signals equals, part by part, the same expression in their parts.  A
        signal without the tag has an empty part; the extension to T is dropped.
        """
        if tag is None:
            return CompiledSignal(self.grid, self.mean, {})
        weights = {tag: self.weights[tag]} if tag in self.weights else {}
        return CompiledSignal(self.grid, np.zeros(self.grid.n), weights)

    def values_and_surface(self, dW: dict) -> tuple[np.ndarray, np.ndarray]:
        """Adapted path values and the full surface m[i, j] for one increment draw."""
        missing = self.noise_tags() - set(dW)
        if missing:
            raise UnsupportedSignal(f"noise lacks tags {sorted(missing)}")
        n = self.grid.n
        C = np.zeros((n, n))         # C[j, i] = sum_{r < i} w[j, r] dW_r
        for tag, w in self.weights.items():
            wd = w * np.asarray(dW[tag])[None, :]
            C[:, 1:] += np.cumsum(wd, axis=1)[:, :-1]
        jj = np.broadcast_to(np.arange(n)[None, :], (n, n))
        mm = np.minimum(np.arange(n)[:, None], jj)
        surface = self.mean[None, :] + C[jj, mm]
        values = surface.diagonal().copy()
        return values, surface


def _tagwise(op, a: dict, b: dict) -> dict:
    """op(a[tag], b[tag]) over the union of tags in operand order; a missing tag reads as 0.

    A tag that only one operand of a sum carries keeps that operand's array
    (signals never write to their arrays): a running sum over many signals
    copies each array once, and a tag's weights stay the same object wherever
    they are the same sum of the same arrays.
    """
    return {tag: a[tag] if tag not in b
            else b[tag] if tag not in a and op is operator.add
            else op(a.get(tag, 0.0), b[tag])
            for tag in dict.fromkeys([*a, *b])}


def on_grid(grid: TimeGrid, *signals) -> None:
    """Raise UnsupportedSignal for a non-signal and ShapeError for a signal on another grid."""
    for s in signals:
        if not isinstance(s, CompiledSignal):
            raise UnsupportedSignal(f"expected a CompiledSignal, got {type(s).__name__}")
        if s.grid != grid:
            raise ShapeError("signal lives on a different grid")


def deterministic(grid: TimeGrid, values, terminal: float | None = None) -> CompiledSignal:
    """A known function of time: n values, or one held constant; it ends at terminal.

    terminal defaults to the last value.
    """
    g = np.array(values, dtype=float)
    if g.shape in ((), (1,)):
        g = np.full(grid.n, float(g.reshape(-1)[0]))
    if g.shape != (grid.n,):
        raise ShapeError(f"deterministic signal has length {g.shape}, expected {grid.n}")
    term = terminal if terminal is not None else float(g[-1])
    return CompiledSignal(grid, g, {}, mean_T=term)


def martingale(grid: TimeGrid, sigma: float = 1.0, noise: str = COMMON) -> CompiledSignal:
    """Scaled Brownian motion started at 0: f = sigma * W."""
    n = grid.n
    w = sigma * np.tril(np.ones((n, n)), k=-1)
    return CompiledSignal(grid, np.zeros(n), {noise: w},
                          mean_T=0.0, weights_T={noise: np.full(n, sigma)})


def ou(grid: TimeGrid, kappa: float = 1.0, sigma: float = 1.0, x0: float = 0.0,
       noise: str = COMMON) -> CompiledSignal:
    """Mean-reverting recursion f_{j+1} = e^{-kappa dt} f_j + sigma dW_j, f_0 = x0."""
    dt, t = grid.dt, grid.times
    mean = x0 * np.exp(-kappa * t)
    w = np.tril(sigma * np.exp(-kappa * (t[:, None] - (t[None, :] + dt))), k=-1)
    wT = sigma * np.exp(-kappa * (grid.horizon - (t + dt)))
    return CompiledSignal(grid, mean, {noise: w}, mean_T=x0 * np.exp(-kappa * grid.horizon),
                          weights_T={noise: wT})


def brownian_weighted(grid: TimeGrid, g, w, noise: str = COMMON, g_T: float | None = None,
                      w_T=None) -> CompiledSignal:
    """f_j = g[j] + sum_r w[j, r] dW_r with arbitrary (possibly anticipative) weights."""
    g = np.array(g, dtype=float)
    w = np.array(w, dtype=float)
    if g.shape != (grid.n,) or w.shape != (grid.n, grid.n):
        raise ShapeError("a Brownian-weighted signal needs g of shape (n,) and w of shape (n, n)")
    wT = {noise: np.array(w_T, dtype=float)} if w_T is not None else {}
    return CompiledSignal(grid, g, {noise: w}, mean_T=g_T, weights_T=wT)


# ---------------------------------------------------------------------------
# noise
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoiseBundle:
    """Pre-drawn N(0, dt) increments per tag, reproducible from the seed.

    Each array has shape (n_paths, n); increments are generated by
    numpy.random.default_rng (PCG64) in sorted-tag order, one tag at a time,
    so results do not depend on thread count or evaluation order.
    """

    grid: TimeGrid
    n_paths: int
    seed: int
    increments: dict

    def path(self, k: int) -> dict:
        if not (0 <= k < self.n_paths):
            raise ShapeError(f"path index {k} outside [0, {self.n_paths})")
        return {tag: arr[k] for tag, arr in self.increments.items()}


GENERATOR_NAME = "numpy.default_rng(PCG64)"


def stream_increments(grid: TimeGrid, common_tags, idio_tags, n_common: int, n_idio: int,
                      seed: int, buffers=None):
    """Yield (tag, increments) one tag at a time, each (n_common * n_idio, n) and read-only.

    One generator seeded with seed draws the sorted common tags, then the
    sorted idiosyncratic tags.  Path p = c * n_idio + e lies in common block c:
    a common tag draws one row per block and repeats it over the block's
    n_idio paths, an idiosyncratic tag draws every row.  Each tag is drawn
    into a new array, or, if buffers (an iterator of writable arrays of that
    shape) is given, into the next buffer, yielded as a read-only view: the
    caller must be done with a buffer's last tag before it comes round again.
    """
    rng = np.random.default_rng(seed)
    std = np.sqrt(grid.dt)
    draws = [(tag, n_common, n_idio) for tag in sorted(set(common_tags))]
    draws += [(tag, n_common * n_idio, 1) for tag in sorted(set(idio_tags))]
    for tag, rows, repeats in draws:
        arr = np.empty((n_common * n_idio, grid.n)) if buffers is None else next(buffers)
        if repeats > 1:
            block = rng.standard_normal((rows, grid.n))
            block *= std
            arr.reshape(rows, repeats, grid.n)[:] = block[:, None, :]
        else:
            rng.standard_normal(out=arr)
            arr *= std
        view = arr.view()
        view.flags.writeable = False       # increments are shared read-only
        yield tag, view


def draw_noise(grid: TimeGrid, tags, n_paths: int, seed: int) -> NoiseBundle:
    """Every tag idiosyncratic in one common block: the stream, kept whole."""
    incs = dict(stream_increments(grid, (), tags, 1, n_paths, seed))
    return NoiseBundle(grid, n_paths, seed, incs)

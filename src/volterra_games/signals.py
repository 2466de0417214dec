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
A signal that has a value at the horizon T, as a dynamic game's state does,
lives on grid_ops.horizon_grid: T is its last point and its last row.
Sampled paths are read off the coefficients: path_values for every path at
once, values_and_surface for one path with its conditional surface.  Paths
are formed, and noise is drawn, in row blocks of ROW_BLOCK_BYTES (row_blocks):
a product's rounding depends on its row count, so every caller that must
agree bitwise splits the rows there.

Tags may hold one weight array between them, as the players of an
exchangeable game do.  A game maps its players' arrays through one
canonicalizer where it is made (nplayer.GameSpec,
model_builders.VolterraGameSpec), so equal values are one object, and from
then on sharing goes by identity alone.  Every operation computes once per
distinct array object (once_per_array), and every tag that carries the object
gets the one result, so shared arrays stay shared through every sum, scaling,
product and solve; the family mean of many signals (family_mean) adds each
distinct value of a tag once, scaled by its count.  Arrays are never written
in place once shared: only accumulate writes, and only into an array that
one tag alone holds.
"""

from __future__ import annotations

import collections
import functools
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, UnsupportedSignal
from .grid_ops import TimeGrid, _any_upper, cut_upper, lower_product

COMMON = "common"
ROW_BLOCK_BYTES = 1 << 20       # bytes per row block of paths: 2048 rows at n = 64


def row_blocks(n_rows: int, n: int) -> list:
    """Slices of ROW_BLOCK_BYTES of consecutive rows of (n_rows, n) doubles; one empty if no rows."""
    step = max(1, ROW_BLOCK_BYTES // (8 * n))
    return [slice(r, min(r + step, n_rows)) for r in range(0, max(n_rows, 1), step)]


@dataclass(frozen=True, eq=False)
class CompiledSignal:
    """Affine-in-increments representation of a signal on a grid.

    Signals form a vector space: f + g, f - g, c * f and f / c act on the mean
    and on every tag's weights, and M @ f applies an (n, n) matrix to them
    (adapted_matmul forms only the strictly lower part of the weights).  A
    sum carries the union of its operands' tags in operand order, a missing
    tag reading as zero, and keeps a tag even where the sum is zero; where one
    operand alone carries a tag, the sum holds that operand's array.  numpy
    scalars and arrays defer to these operators, and sum() works from its
    start value 0.  Equality is identity: a comparison of the coefficients
    would be ambiguous on arrays.

    Several tags may hold the same array object.  Each operator computes once
    per distinct object (or pair of objects, for + and -) and gives every tag
    that carried it the one result, so the result shares as its operands do.
    """

    grid: TimeGrid
    mean: np.ndarray
    weights: dict          # tag -> (n, n) array

    __array_ufunc__ = None    # np.float64 * f and ndarray @ f reach __rmul__ / __rmatmul__

    def noise_tags(self) -> frozenset:
        return frozenset(self.weights)

    def _combine(self, other, op):
        if not isinstance(other, CompiledSignal):
            return NotImplemented
        if other.grid != self.grid:
            raise ShapeError("signals live on different grids")
        return CompiledSignal(self.grid, op(self.mean, other.mean),
                              _tagwise(op, self.weights, other.weights))

    def __add__(self, other):
        return self._combine(other, operator.add)

    def __sub__(self, other):
        return self._combine(other, operator.sub)

    def __radd__(self, other):
        if isinstance(other, int) and other == 0:
            return self
        return NotImplemented

    def _scaled(self, fn):
        """fn applied to the mean and to every distinct weight array."""
        fn = once_per_array(fn)
        return CompiledSignal(self.grid, fn(self.mean),
                              {tag: fn(w) for tag, w in self.weights.items()})

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
        """M on the mean and product(M, w) on every tag's weights."""
        if M.shape != (self.grid.n, self.grid.n):
            raise ShapeError(f"matrix of shape {M.shape} does not act on a signal of length "
                             f"{self.grid.n}")
        once = once_per_array(lambda w: product(M, w))
        return CompiledSignal(self.grid, M @ self.mean,
                              {tag: once(w) for tag, w in self.weights.items()})

    def accumulate(self, other: CompiledSignal, subtract: bool = False) -> CompiledSignal:
        """self + other (self - other with subtract), written into self's arrays.

        For a signal that alone holds its arrays, as a fresh product does: the
        values of + and -.  An array that one tag of self alone holds takes the
        result in place; one that several tags hold is left as it is, and each
        distinct pair of arrays gets one new result.  A tag only other carries
        gets a copy of its array, or 0.0 - it, one per distinct array.
        """
        op = np.subtract if subtract else np.add
        holders = collections.Counter(map(id, self.weights.values()))
        into = once_per_array(lambda x, y: op(x, y, out=x) if holders[id(x)] == 1 else op(x, y))
        alone = once_per_array(lambda w: np.subtract(0.0, w) if subtract else w.copy())
        weights = {tag: into(self.weights[tag], w) if tag in self.weights else alone(w)
                   for tag, w in other.weights.items()}
        return CompiledSignal(self.grid, op(self.mean, other.mean, out=self.mean),
                              {**self.weights, **weights})

    def path_values(self, increments: dict, n_paths: int) -> np.ndarray:
        """Adapted values E_{t_j}[f_j] on every path, shape (n_paths, n).

        increments maps each tag to its (n_paths, n) draws: one GEMM per tag and
        row block (tag_values), no stacked copy, and tags in sorted order, so the
        order that built the signal does not change the rounding.
        """
        out = np.broadcast_to(self.mean, (n_paths, self.grid.n)).copy()
        for tag in sorted(self.weights):
            out += self.tag_values(tag, increments[tag])
        return out

    def tag_values(self, tag, increments: np.ndarray) -> np.ndarray:
        """One tag's part of the adapted values at its (n_paths, n) increments.

        path_values is the mean plus these parts in sorted tag order; a caller
        that adds them in that order gets path_values bitwise.  One product per
        row block (row_blocks) with adapted_weights: a caller that forms the
        products of the same blocks gets these values bitwise.
        """
        return adapted_values(self.adapted_weights(tag), increments)

    def adapted_weights(self, tag) -> np.ndarray:
        """tag's weights strictly lower and C-ordered: a solver's as they are, others cut in a copy."""
        w = self.weights[tag]
        if _any_upper(w) or not w.flags.c_contiguous:
            w = cut_upper(np.array(w, order="C"))
        return w

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


def adapted_values(w: np.ndarray, increments: np.ndarray) -> np.ndarray:
    """increments @ w.T one row block at a time: a tag's part at its (n_paths, n) increments.

    w is the tag's adapted_weights, strictly lower and C-ordered; a caller
    that samples one array at several tags' increments adapts it once.
    """
    wT = w.T
    out = np.empty((len(increments), w.shape[0]))
    for rows in row_blocks(len(increments), w.shape[0]):
        np.matmul(increments[rows], wT, out=out[rows])
    return out


def _tagwise(op, a: dict, b: dict) -> dict:
    """op(a[tag], b[tag]) over the union of tags in operand order; a missing tag reads as 0.

    A tag that only one operand of a sum carries keeps that operand's array
    (signals never write to their arrays): a running sum over many signals
    copies each array once, and a tag's weights stay the same object wherever
    they are the same sum of the same arrays.  op runs once per distinct pair
    of operand arrays, 0.0 - w once per distinct w, and the tags that carry a
    pair share its result.
    """
    once = once_per_array(op)
    return {tag: a[tag] if tag not in b
            else b[tag] if tag not in a and op is operator.add
            else once(a.get(tag, 0.0), b[tag])
            for tag in dict.fromkeys([*a, *b])}


def once_per_array(fn, calls: collections.Counter | None = None):
    """fn computed once per distinct tuple of argument objects, by identity.

    A call with the same objects as an earlier one returns that call's
    result, the same object.  The memo keeps every argument alive while its
    id is a key, so no new array can take the id meanwhile.  Make one per
    operation and drop it after: it holds every argument and result it saw,
    unless calls counts the calls each key (the tuple of ids) will get; then
    an entry is dropped after its last call.
    """
    done = {}

    def once(*args):
        key = tuple(map(id, args))
        if key not in done:
            done[key] = args, fn(*args)
        result = done[key][1]
        if calls is not None:
            calls[key] -= 1
            if not calls[key]:
                del done[key]
        return result
    return once


def canonicalizer():
    """A function that maps each float64 array to the first array it was given with its bytes.

    A signal maps to one whose mean and weights went through the function.  A
    game maps its players' data through one canonicalizer where it is made,
    so equal values are one object and every computation keyed by identity
    runs once per value.  Identity first: an array or
    signal given before maps as it did.  Otherwise an array is bucketed by its
    shape and the probe sum(w @ z), for the fixed vector z = _probe(columns),
    and a hit is confirmed by comparing bytes, so -0.0 stays apart from +0.0,
    and an array whose probe is NaN never merges.  Hashing the bytes would
    copy every array; the probe costs one matrix-vector product.  The function
    holds everything it was given (their ids stay keys) until it is dropped.
    """
    buckets = {}

    # same and canonical do not refer to themselves: no reference cycle keeps what they
    # hold past the caller's last reference
    @once_per_array
    def same(w: np.ndarray) -> np.ndarray:
        probe = float(np.sum(w @ _probe(w.shape[-1])))
        if probe != probe:
            return w
        bucket = buckets.setdefault((w.shape, probe), [])
        first = next((u for u in bucket if np.array_equal(u.view(np.int64), w.view(np.int64))),
                     None)
        if first is None:
            first = w
            bucket.append(w)
        return first

    @once_per_array
    def canonical(f):
        if isinstance(f, np.ndarray):
            return same(f)
        return CompiledSignal(f.grid, same(f.mean), {t: same(w) for t, w in f.weights.items()})
    return canonical


@functools.cache
def _probe(n: int) -> np.ndarray:
    """canonicalizer's fixed probe vector for arrays of n columns: sqrt(2), ..., sqrt(n + 1).

    A formula, not a draw: numpy.random is imported lazily, and its import
    would add about 17 ms to every game's set-up.
    """
    z = np.sqrt(np.arange(2.0, n + 2.0))
    z.flags.writeable = False       # one cached array for every caller
    return z


def family_mean(c: float, signals) -> CompiledSignal:
    """sum(c * f for f in signals), each tag's operands grouped by object: sum_k (m_k c) W_k.

    One pass over the signals' tags groups each tag's operands by identity,
    in the order of each object's first operand, and the group of W_k, held by
    m_k operands, adds (m_k c) W_k once.  A game's signals hold one array per
    value (canonicalizer), so there the groups are the distinct values across
    tags as well as signals.  Where no array is held twice within a tag, every
    m_k is 1 and each tag's sum is sum()'s bitwise; elsewhere the order of the
    adds changes and the sum moves at rounding level.  Tags whose groups are
    alike get one result object, and the result goes through a canonicalizer:
    sums of different operands can still agree in value (the mean driver's
    rounding residue is exactly 0.0 on some tags of a game of distinct banks),
    and each value is then solved once.  The mean is sum()'s, in operand order.
    """
    c, signals = float(c), list(signals)
    on_grid(signals[0].grid, *signals)

    def tagwise(arrays: list) -> dict:
        groups = {}         # tag -> id -> [the array, its operand count]
        for a in arrays:
            for tag, w in a.items():
                groups.setdefault(tag, {}).setdefault(id(w), [w, 0])[1] += 1
        done = {}           # group signature: (id, count) per array -> the tag's sum
        for tag, group in groups.items():
            key = tuple((k, m) for k, (_, m) in group.items())
            if key not in done:
                (w, m), *rest = group.values()
                done[key] = (m * c) * w
                for w, m in rest:
                    done[key] += (m * c) * w
            groups[tag] = done[key]
        return groups

    mean = functools.reduce(operator.add, (c * f.mean for f in signals))
    return canonicalizer()(CompiledSignal(signals[0].grid, mean,
                                          tagwise([f.weights for f in signals])))


def on_grid(grid: TimeGrid, *signals) -> None:
    """Raise UnsupportedSignal for a non-signal and ShapeError for a signal on another grid."""
    for s in signals:
        if not isinstance(s, CompiledSignal):
            raise UnsupportedSignal(f"expected a CompiledSignal, got {type(s).__name__}")
        if s.grid != grid:
            raise ShapeError("signal lives on a different grid")


def deterministic(grid: TimeGrid, values) -> CompiledSignal:
    """A known function of time: n values, or one held constant."""
    g = np.array(values, dtype=float)
    if g.shape in ((), (1,)):
        g = np.full(grid.n, float(g.reshape(-1)[0]))
    if g.shape != (grid.n,):
        raise ShapeError(f"deterministic signal has length {g.shape}, expected {grid.n}")
    return CompiledSignal(grid, g, {})


def martingale(grid: TimeGrid, sigma: float = 1.0, noise: str = COMMON) -> CompiledSignal:
    """Scaled Brownian motion started at 0: f = sigma * W."""
    n = grid.n
    w = sigma * np.tril(np.ones((n, n)), k=-1)
    return CompiledSignal(grid, np.zeros(n), {noise: w})


def ou(grid: TimeGrid, kappa: float = 1.0, sigma: float = 1.0, x0: float = 0.0,
       noise: str = COMMON) -> CompiledSignal:
    """Mean-reverting recursion f_{j+1} = e^{-kappa dt} f_j + sigma dW_j, f_0 = x0."""
    dt, t = grid.dt, grid.times
    mean = x0 * np.exp(-kappa * t)
    w = np.tril(sigma * np.exp(-kappa * (t[:, None] - (t[None, :] + dt))), k=-1)
    return CompiledSignal(grid, mean, {noise: w})


def brownian_weighted(grid: TimeGrid, g, w, noise: str = COMMON) -> CompiledSignal:
    """f_j = g[j] + sum_r w[j, r] dW_r with arbitrary (possibly anticipative) weights."""
    g = np.array(g, dtype=float)
    w = np.array(w, dtype=float)
    if g.shape != (grid.n,) or w.shape != (grid.n, grid.n):
        raise ShapeError("a Brownian-weighted signal needs g of shape (n,) and w of shape (n, n)")
    return CompiledSignal(grid, g, {noise: w})


# ---------------------------------------------------------------------------
# noise
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoiseBundle:
    """Pre-drawn N(0, dt) increments per tag, reproducible from the seed.

    Each array has shape (n_paths, n); increments are generated by
    numpy.random.default_rng (PCG64) one tag at a time, the sorted common tags
    and then the sorted idiosyncratic ones (stream_increments), so results do
    not depend on thread count or evaluation order.
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
    """Yield (tag, rows, increments), tags in sorted order and each row block by row block.

    increments are the rows (a slice, row_blocks) of the tag's (n_common *
    n_idio, n) draws.  One generator seeded with seed draws the sorted common
    tags first, then the sorted idiosyncratic tags.  Path p = c * n_idio + e
    lies in common block c: a common tag draws one row per block, all at once
    and before any idiosyncratic tag, and repeats it over the block's n_idio
    paths; an idiosyncratic tag draws its rows block by block, in order, the
    numbers of one draw of the whole tag.  Each block is drawn into a new
    array, or, if buffers (an iterator of writable arrays of n columns and at
    least a block's rows) is given, into the next buffer's leading rows, and
    yielded read-only: the caller must be done with a buffer's block before it
    comes round again.
    """
    rng = np.random.default_rng(seed)
    std = np.sqrt(grid.dt)
    once = {tag: std * rng.standard_normal((n_common, grid.n)) for tag in sorted(set(common_tags))}
    for tag in sorted({*once, *idio_tags}):
        for rows in row_blocks(n_common * n_idio, grid.n):
            m = rows.stop - rows.start
            arr = (np.empty((m, grid.n)) if buffers is None else next(buffers))[:m]
            if tag in once:
                np.take(once[tag], np.arange(rows.start, rows.stop) // n_idio, axis=0, out=arr)
            else:
                rng.standard_normal(out=arr)
                arr *= std
            view = arr.view()
            view.flags.writeable = False       # increments are shared read-only
            yield tag, rows, view


def gather_increments(stream, n_paths: int, n: int) -> dict:
    """Every tag's whole (n_paths, n) increments, read-only, from stream_increments's blocks."""
    whole = collections.defaultdict(lambda: np.empty((n_paths, n)))
    for tag, rows, arr in stream:
        whole[tag][rows] = arr
    for arr in whole.values():
        arr.flags.writeable = False
    return dict(whole)


def draw_noise(grid: TimeGrid, tags, n_paths: int, seed: int) -> NoiseBundle:
    """Every tag idiosyncratic in one common block: the stream, kept whole."""
    incs = gather_increments(stream_increments(grid, (), tags, 1, n_paths, seed), n_paths, grid.n)
    return NoiseBundle(grid, n_paths, seed, incs)

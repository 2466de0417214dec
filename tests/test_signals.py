import tracemalloc
from functools import partial

import numpy as np
import pytest

from volterra_games import signals
from volterra_games.errors import ShapeError, UnsupportedSignal
from volterra_games.grid_ops import build_grid, cut_upper, horizon_grid, zero_kernel
from volterra_games.meanfield import MFGSpec
from volterra_games.model_builders import TerminalVector, VolterraGameSpec
from volterra_games.nplayer import GameSpec
from volterra_games.signals import (
    CompiledSignal,
    NoiseBundle,
    brownian_weighted,
    canonicalizer,
    deterministic,
    draw_noise,
    family_mean,
    martingale,
    once_per_array,
    ou,
)

# each builds its signal on a given grid
FAMILIES = [
    partial(deterministic, values=3.0),
    partial(martingale, sigma=1.3, noise="common"),
    partial(ou, kappa=2.0, sigma=0.8, x0=0.5, noise="common"),
]


def realize(cs, bundle, k):
    """(values, surface) of cs on path k of bundle."""
    return cs.values_and_surface(bundle.path(k))


def one_player_game(grid, b_signal, b0_signal):
    zero = zero_kernel(grid)
    return GameSpec(n_players=1, lam=1.0, a1=zero, a2hat=zero, a3=zero,
                    b_signals=(b_signal,), b0_signal=b0_signal, grid=grid)


def binomial_bundle(grid, tag="common", depth=None):
    """All +-sqrt(dt) increment paths, enumerated; exact finite filtration."""
    depth = grid.n if depth is None else depth
    L = 2 ** depth
    inc = np.zeros((L, grid.n))
    for s in range(depth):
        digit = (np.arange(L) // 2 ** (depth - 1 - s)) % 2
        inc[:, s] = np.sqrt(grid.dt) * (2.0 * digit - 1.0)
    return NoiseBundle(grid, L, 0, {tag: inc})


class TestFamilies:
    def test_deterministic_constant(self):
        g = build_grid(1.0, 8)
        bundle = draw_noise(g, {"common"}, 1, 0)
        values, surface = realize(deterministic(g, 3.0), bundle, 0)
        assert np.all(values == 3.0)
        assert np.all(surface == 3.0)

    def test_martingale_surface_freezes(self):
        g = build_grid(1.0, 16)
        bundle = draw_noise(g, {"common"}, 3, 1)
        values, surface = realize(martingale(g, sigma=1.0), bundle, 2)
        for i in range(16):
            for j in range(i, 16):
                assert surface[i, j] == values[i]

    def test_ou_noiseless_decay(self):
        g = build_grid(1.0, 16)
        bundle = draw_noise(g, {"common"}, 1, 0)
        values, surface = realize(ou(g, kappa=2.0, sigma=0.0, x0=1.0), bundle, 0)
        assert np.max(np.abs(values - np.exp(-2.0 * g.times))) < 1e-14
        assert np.max(np.abs(surface - np.exp(-2.0 * g.times)[None, :])) < 1e-14

    def test_brownian_weighted_zero_weights_is_deterministic(self):
        g = build_grid(1.0, 8)
        bundle = draw_noise(g, {"common"}, 2, 5)
        gvals = np.linspace(0.0, 1.0, 8)
        p = realize(brownian_weighted(g, gvals, np.zeros((8, 8))), bundle, 1)
        q = realize(deterministic(g, gvals), bundle, 1)
        assert np.array_equal(p[0], q[0])
        assert np.array_equal(p[1], q[1])

    def test_anticipative_weights_project(self):
        # full weight matrix: values use only past increments
        g = build_grid(1.0, 6)
        rng = np.random.default_rng(2)
        w = rng.standard_normal((6, 6))
        bundle = draw_noise(g, {"common"}, 1, 3)
        values, _ = realize(brownian_weighted(g, np.zeros(6), w), bundle, 0)
        dW = bundle.path(0)["common"]
        for j in range(6):
            assert abs(values[j] - w[j, :j] @ dW[:j]) < 1e-14

    def test_means(self):
        g = build_grid(1.0, 8)
        assert np.all(martingale(g, sigma=2.0).mean == 0.0)
        assert np.allclose(ou(g, kappa=1.0, sigma=3.0, x0=2.0).mean, 2.0 * np.exp(-g.times))
        combo = 2.0 * deterministic(g, 1.0) + martingale(g, sigma=1.0)
        assert np.all(combo.mean == 2.0)

    def test_unknown_family_rejected(self):
        # games accept only signals
        g = build_grid(1.0, 4)
        with pytest.raises(UnsupportedSignal):
            one_player_game(g, deterministic(g, 1.0), object())
        with pytest.raises(UnsupportedSignal):
            one_player_game(g, (1.0, 2.0, 3.0, 4.0), deterministic(g, 0.0))
        with pytest.raises(UnsupportedSignal):
            VolterraGameSpec(n_players=1, p=1.0, qmat=np.zeros((2, 2)), smat=np.zeros((2, 2)),
                             qvec=np.zeros(2), dblock=np.zeros((5, 4, 2, 2)),
                             d_signals=((object(), deterministic(horizon_grid(g), 0.0)),),
                             s_terminals=(TerminalVector.zero(),), grid=g)

    def test_missing_noise_tag_rejected(self):
        g = build_grid(1.0, 4)
        bundle = draw_noise(g, {"other"}, 1, 0)
        with pytest.raises(UnsupportedSignal):
            realize(martingale(g, noise="common"), bundle, 0)


class TestTagValues:
    """tag_values reads strictly lower weights in place and cuts a copy of any others."""

    @pytest.mark.parametrize("n", [2, 64, 65, 130])
    def test_bitwise_the_cut_copy_signed_zeros_included(self, n):
        rng = np.random.default_rng(n)
        g = build_grid(1.0, n)
        lower = np.tril(rng.standard_normal((n, n)), -1)
        negative_zeros = np.where(np.tril(np.ones((n, n)), -1) == 1.0, lower, -0.0)
        anticipative = rng.standard_normal((n, n))
        poisoned = np.where(np.tril(np.ones((n, n)), -1) == 1.0, lower, np.nan)
        increments = rng.standard_normal((5, n))
        increments[:, ::3] = 0.0
        increments[1] = -0.0
        for w in (lower, negative_zeros, anticipative, poisoned, np.asfortranarray(lower)):
            kept = w.tobytes()
            got = CompiledSignal(g, np.zeros(n), {"a": w}).tag_values("a", increments)
            want = increments @ cut_upper(w.copy()).T
            assert got.tobytes() == want.tobytes()
            assert w.tobytes() == kept


class TestInvariants:
    @pytest.mark.parametrize("fam", FAMILIES)
    def test_adaptedness(self, fam):
        g = build_grid(1.0, 16)
        bundle = draw_noise(g, {"common"}, 4, 9)
        for k in range(4):
            values, surface = realize(fam(g), bundle, k)
            ii, jj = np.tril_indices(16)
            assert np.max(np.abs(surface[ii, jj] - values[jj])) <= 1e-12

    @pytest.mark.parametrize("fam", FAMILIES + [
        partial(brownian_weighted, g=np.zeros(6),
                w=np.random.default_rng(4).standard_normal((6, 6)))])
    def test_tower_property_on_enumerated_filtration(self, fam):
        # group-average the surface over all continuations: E_i[E_k'[f_j]] = E_i[f_j]
        g = build_grid(1.0, 6)
        bundle = binomial_bundle(g)
        L = bundle.n_paths
        cs = fam(g)
        surfaces = np.stack([realize(cs, bundle, p)[1] for p in range(L)])
        rng = np.random.default_rng(0)
        for _ in range(20):
            i = rng.integers(0, 5)
            kp = rng.integers(i, 6)
            j = rng.integers(kp, 6)
            span = 2 ** (6 - i)
            for group in range(0, L, span):
                rows = surfaces[group:group + span]
                avg = rows[:, kp, j].mean()            # E over continuations after t_i
                assert abs(avg - rows[0, i, j]) <= 1e-12

    def test_martingale_mc_mean(self):
        g = build_grid(1.0, 8)
        M = 10_000
        bundle = draw_noise(g, {"common"}, M, 123)
        cs = martingale(g, sigma=1.0)
        vals = np.stack([realize(cs, bundle, p)[0] for p in range(M)])
        for j in range(1, 8):
            bound = 4.0 * np.sqrt(g.times[j] / M)
            assert abs(vals[:, j].mean()) <= bound

    def test_reproducible_from_seed(self):
        g = build_grid(1.0, 8)
        a = draw_noise(g, {"x", "y"}, 5, 42)
        b = draw_noise(g, {"y", "x"}, 5, 42)
        for tag in ("x", "y"):
            assert np.array_equal(a.increments[tag], b.increments[tag])

    def test_bundle_is_the_per_tag_formula_bitwise(self):
        # the draw before it went through stream_increments, kept as the reference
        g = build_grid(1.0, 8)
        rng = np.random.default_rng(42)
        want = {tag: np.sqrt(g.dt) * rng.standard_normal((5, g.n)) for tag in ("x", "y", "z")}
        bundle = draw_noise(g, {"z", "x", "y"}, 5, 42)
        assert list(bundle.increments) == ["x", "y", "z"]
        for tag, arr in bundle.increments.items():
            assert np.array_equal(arr, want[tag])
            assert not arr.flags.writeable

    def test_path_values_do_not_depend_on_tag_order(self):
        grid = build_grid(1.0, 16)
        rng = np.random.default_rng(4)
        mean = rng.standard_normal(16)
        weights = {tag: rng.standard_normal((16, 16)) for tag in ("a", "b", "c")}
        bundle = draw_noise(grid, set(weights), 50, 5)
        forward = CompiledSignal(grid, mean, weights)
        backward = CompiledSignal(grid, mean, dict(reversed(weights.items())))
        assert np.array_equal(forward.path_values(bundle.increments, 50),
                              backward.path_values(bundle.increments, 50))


def reference_combination(terms, grid):
    """sum(c * s for c, s in terms) as a hand merge of tag dictionaries."""
    terms = [(float(c), cs) for c, cs in terms]
    mean = sum(c * cs.mean for c, cs in terms)
    weights = {}
    for c, cs in terms:
        for tag, w in cs.weights.items():
            weights[tag] = weights.get(tag, 0.0) + c * w
    return CompiledSignal(grid, np.asarray(mean, dtype=float), weights)


def assert_same_signal(a, b):
    assert list(a.weights) == list(b.weights)
    assert np.array_equal(a.mean, b.mean)
    for tag in a.weights:
        assert np.array_equal(a.weights[tag], b.weights[tag])


def random_weighted(grid, rng, noise):
    """Anticipative weights."""
    n = grid.n
    return brownian_weighted(grid, rng.standard_normal(n), rng.standard_normal((n, n)),
                             noise=noise)


class TestEquality:
    def test_compiled_signals_compare_by_identity(self):
        g = build_grid(1.0, 4)
        f, h = martingale(g), martingale(g)
        assert f == f and f != h
        assert f in [h, f] and h not in [f]
        assert len({f, h}) == 2

    def test_reduced_game_specs_compare_without_raising(self):
        from volterra_games.grid_ops import DelayMeasure
        from volterra_games.model_builders import build_systemic_game

        g = build_grid(1.0, 8)
        params = dict(N=2, beta=0.3, eps=0.25, cost_c=1.0, sigma=[0.2, 0.2], x0=[1.0, 0.5],
                      delay=DelayMeasure(atoms=((0.0, 1.0), (0.3, -1.0))))
        a, b = (build_systemic_game(params, g)[0] for _ in range(2))
        assert isinstance(a.b_signals[0], CompiledSignal)
        assert a == a and a != b
        assert a in [b, a] and b not in [a]


class TestArithmetic:
    def test_tag_union_is_kept_when_the_sum_is_zero(self):
        g = build_grid(1.0, 8)
        f = martingale(g, sigma=1.0, noise="b") + 2.0 * ou(g, noise="a")
        zero = f - f
        assert list(zero.weights) == ["b", "a"]
        assert not np.any(zero.mean)
        assert all(not np.any(w) for w in zero.weights.values())
        # operand order, not set order
        h = martingale(g, noise="c") + f
        assert list(h.weights) == ["c", "b", "a"]

    def test_combination_rules_match_the_hand_merge(self):
        g = build_grid(1.0, 6)
        rng = np.random.default_rng(4)
        cases = [
            ((1.0, deterministic(g, 2.0)), (-0.5, martingale(g, noise="a"))),
            ((0.3, ou(g, kappa=1.5, sigma=0.7, x0=1.0, noise="a")),
             (1.7, random_weighted(g, rng, "b")), (-2.0, martingale(g, sigma=0.4, noise="a"))),
            ((1.0, random_weighted(g, rng, "a")),
             (0.25, random_weighted(g, rng, "a")), (3, ou(g, noise="b"))),
        ]
        for terms in cases:
            assert_same_signal(sum(c * cs for c, cs in terms), reference_combination(terms, g))

    def test_numpy_operands_defer_to_the_operators(self):
        g = build_grid(1.0, 5)
        f = ou(g, kappa=1.0, sigma=0.5, x0=1.0, noise="a")
        c = np.float64(0.7)
        for out in (c * f, f * c):
            assert isinstance(out, CompiledSignal)
            assert_same_signal(out, 0.7 * f)
        assert_same_signal(f / np.float64(2.0), f / 2.0)
        M = np.random.default_rng(0).standard_normal((5, 5))
        out = M @ f
        assert isinstance(out, CompiledSignal)
        assert np.array_equal(out.weights["a"], M @ f.weights["a"])
        assert_same_signal(sum([f, 2.0 * f]), f + 2.0 * f)
        with pytest.raises(TypeError):
            np.ones(5) * f
        with pytest.raises(TypeError):
            f + np.ones(5)

    def test_matrix_product_applies_to_mean_and_every_weight(self):
        g = build_grid(1.0, 7)
        rng = np.random.default_rng(11)
        f = random_weighted(g, rng, "a") + random_weighted(g, rng, "b")
        M = rng.standard_normal((7, 7))
        expect = CompiledSignal(g, M @ f.mean, {tag: M @ w for tag, w in f.weights.items()})
        assert_same_signal(M @ f, expect)
        with pytest.raises(ShapeError):
            np.ones((6, 7)) @ f

    def test_average_of_deterministics(self):
        g = build_grid(1.0, 8)
        bundle = draw_noise(g, {"common"}, 1, 0)
        gs = [np.sin(g.times + i) for i in range(4)]
        avg = sum(0.25 * deterministic(g, v) for v in gs)
        values, _ = avg.values_and_surface(bundle.path(0))
        assert np.allclose(values, np.mean(gs, axis=0), atol=1e-15)

    def test_grid_mismatch(self):
        g4, g5 = build_grid(1.0, 4), build_grid(1.0, 5)
        f, h = martingale(g4, noise="c"), martingale(g5, noise="c")
        with pytest.raises(ShapeError):
            f + h
        # games accept only signals on their own grid
        with pytest.raises(ShapeError):
            one_player_game(g4, f, deterministic(g5, 0.0))
        zero = zero_kernel(g4)
        with pytest.raises(ShapeError):
            MFGSpec(lam=1.0, a1=zero, a2hat=zero, a3=zero, beta=deterministic(g4, 0.0),
                    beta0=f, b0_signal=deterministic(g4, 0.0), grid=g4, b_infty=h)
        with pytest.raises(ShapeError):
            deterministic(g4, (1.0, 2.0, 3.0))


def objects(weights: dict) -> list:
    """For each tag in order, the index of its array among the distinct arrays seen."""
    seen = {}
    return [seen.setdefault(id(w), len(seen)) for w in weights.values()]


class TestSharedArrays:
    """Tags that hold one array: each operation computes once and shares the result alike."""

    def shared(self, g, rng):
        X, Y = rng.standard_normal((2, g.n, g.n))
        return CompiledSignal(g, rng.standard_normal(g.n), {"a": X, "b": X, "c": Y})

    def unshared(self, f):
        return CompiledSignal(f.grid, f.mean.copy(), {t: w.copy() for t, w in f.weights.items()})

    def test_every_operator_shares_as_its_operands(self):
        g = build_grid(1.0, 6)
        rng = np.random.default_rng(7)
        f = self.shared(g, rng)
        h = CompiledSignal(g, np.zeros(6), {"a": f.weights["c"], "b": f.weights["c"],
                                            "d": f.weights["a"], "e": f.weights["a"]})
        M = rng.standard_normal((6, 6))
        cut = once_per_array(lambda w: np.tril(w, -1))
        lower = CompiledSignal(g, f.mean, {t: cut(w) for t, w in f.weights.items()})
        cases = [(2.0 * f, 2.0 * self.unshared(f)), (f / 3.0, self.unshared(f) / 3.0),
                 (M @ f, M @ self.unshared(f)),
                 (lower.adapted_matmul(M), self.unshared(lower).adapted_matmul(M)),
                 (f + h, self.unshared(f) + self.unshared(h)),
                 (f - h, self.unshared(f) - self.unshared(h)),
                 (h - f, self.unshared(h) - self.unshared(f))]
        for got, want in cases:
            assert_same_signal(got, want)
        for got, _ in cases[:4]:
            assert objects(got.weights) == [0, 0, 1]
        # a and b: one X + Y; c keeps Y; d and e keep X
        assert objects(cases[4][0].weights) == [0, 0, 1, 2, 2]
        assert cases[4][0].weights["d"] is f.weights["a"]
        # h's a, b, d, e, then f's c, which h lacks: 0.0 - Y
        assert objects(cases[6][0].weights) == [0, 0, 1, 1, 2]

    @pytest.mark.parametrize("subtract", [False, True])
    def test_accumulate_writes_only_into_an_array_one_tag_holds(self, subtract):
        g = build_grid(1.0, 5)
        rng = np.random.default_rng(3)
        f = self.shared(g, rng)
        X, Y = f.weights["a"], f.weights["c"]
        Z1, Z2, Z3 = rng.standard_normal((3, 5, 5))
        other = CompiledSignal(g, rng.standard_normal(5), {"a": Z1, "b": Z2, "c": Z3,
                                                           "d": Z1, "e": Z1})
        before = {id(w): w.copy() for w in (X, Z1, Z2, Z3)}
        want = (self.unshared(f) - other) if subtract else (self.unshared(f) + other)
        got = f.accumulate(other, subtract)
        assert_same_signal(got, CompiledSignal(g, want.mean, want.weights))
        # X, which a and b both hold, is left as it was; Y, c's alone, takes c's sum
        assert got.weights["c"] is Y
        assert got.weights["a"] is not X and got.weights["b"] is not X
        for w in (X, Z1, Z2, Z3):
            assert np.array_equal(w, before[id(w)])
        # other's one array for d and e: one new array, not other's
        assert got.weights["d"] is got.weights["e"]
        assert got.weights["d"] is not Z1

    def test_once_per_array_keys_on_identity_and_drops_after_the_last_call(self):
        calls = []
        once = once_per_array(lambda *args: calls.append(args) or len(calls))
        x, y = np.zeros(3), np.zeros(3)
        assert [once(x), once(x), once(y), once(x, y), once(x, y)] == [1, 1, 2, 3, 3]
        uses = {(id(x),): 2}
        counted = once_per_array(lambda w: w + 1.0, uses)
        first = counted(x)
        assert counted(x) is first
        assert counted(x) is not first          # the entry went after its second call

    def test_family_mean_is_the_sum_bitwise_without_equal_operands(self):
        # no two operands of a tag are equal by value: every group holds one operand
        g = build_grid(1.0, 6)
        rng = np.random.default_rng(5)
        X = rng.standard_normal((6, 6))
        terms = [random_weighted(g, rng, "a"), random_weighted(g, rng, "b"),
                 CompiledSignal(g, rng.standard_normal(6), {"c": X, "a": X}),
                 CompiledSignal(g, rng.standard_normal(6), {"d": X, "b": X})]
        for picked in (terms[:1], terms[2:], terms):
            assert_same_signal(family_mean(0.3, picked), sum(0.3 * f for f in picked))
        out = family_mean(0.3, terms[2:])
        # c and d, each X alone, are one group: they share the one result
        assert out.weights["c"] is out.weights["d"]

    def test_family_mean_holds_one_tag_of_scaled_copies(self):
        # tag j: one own array for signal j, one shared by every other signal, as
        # the banks of an exchangeable game carry them
        g = build_grid(1.0, 64)
        rng = np.random.default_rng(2)
        N = 16
        own, common = (list(a) for a in rng.standard_normal((2, N, 64, 64)))
        signals = [CompiledSignal(g, np.zeros(64), {j: own[j] if j == i else common[j]
                                                    for j in range(N)})
                   for i in range(N)]
        tracemalloc.start()
        try:
            out = family_mean(1.0 / N, signals)
            peak = tracemalloc.get_traced_memory()[1] / (64 ** 2 * 8)
        finally:
            tracemalloc.stop()
        # in n x n arrays: the N sums and one tag's scaled operands, 17.5 here;
        # 49.3 for sum() of the scaled signals
        assert peak <= N + 6
        # common[j] is 15 of tag j's operands: one group, added once, so the sum
        # moves at rounding level from sum()'s
        want = sum((1.0 / N) * f for f in signals)
        assert list(out.weights) == list(want.weights)
        for tag, w in want.weights.items():
            assert np.max(np.abs(out.weights[tag] - w)) <= 1e-15 * np.max(np.abs(w))

    def test_family_mean_groups_by_value_across_tags(self):
        # copies equal by value, mapped through one canonicalizer as a game maps its
        # signals, group as the one object does, in every tag
        g = build_grid(1.0, 8)
        rng = np.random.default_rng(4)
        X, Y = rng.standard_normal((2, 8, 8))
        shared = [CompiledSignal(g, np.zeros(8), {t: X if i else Y for t in "ab"})
                  for i in range(3)]
        copies = [CompiledSignal(g, np.zeros(8), {t: (X if i else Y).copy() for t in "ab"})
                  for i in range(3)]
        got = family_mean(0.25, map(canonicalizer(), copies))
        want = family_mean(0.25, shared)
        assert_same_signal(got, want)
        assert got.weights["a"] is got.weights["b"]
        assert np.array_equal(got.weights["a"], 0.25 * Y + 0.5 * X)


class TestDistinctArrays:
    """canonicalizer maps each array to the first one it was given with the same bytes."""

    def test_equal_bytes_map_to_the_first_array(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((5, 5))
        same = canonicalizer()
        assert same(X) is X
        assert same(X.copy()) is X
        # one ulp off X, and X's values in another shape
        bumped = X.copy()
        bumped[2, 3] = np.nextafter(bumped[2, 3], np.inf)
        assert same(bumped) is bumped
        assert same(X.reshape(25)) is not X

    def test_signed_zeros_stay_apart(self):
        same = canonicalizer()
        plus, minus = np.zeros((4, 4)), np.zeros((4, 4))
        minus[1, 0] = -0.0
        assert same(plus) is plus
        assert same(minus) is minus
        assert same(np.zeros((4, 4))) is plus

    def test_nan_arrays_never_merge(self):
        same = canonicalizer()
        X = np.full((3, 3), np.nan)
        Y = X.copy()
        assert same(X) is X
        assert same(Y) is Y
        assert same(X) is X             # an array given before maps as it did

    def test_probe_collision_is_settled_by_the_bytes(self, monkeypatch):
        # every probe 0: all arrays share one bucket, and only the bytes tell them apart
        monkeypatch.setattr(signals, "_probe", lambda n: np.zeros(n))
        rng = np.random.default_rng(9)
        arrays = list(rng.standard_normal((4, 6, 6)))
        same = canonicalizer()
        assert [same(w) is w for w in arrays] == [True] * 4
        assert [same(w.copy()) is w for w in arrays] == [True] * 4


class TestMotivatingWeightedSignal:
    def test_exponential_window_weights(self):
        # b_s = 2 int_0^T e^{a(2T - s - r)} dW_r: anticipative weighted signal;
        # its conditional surface is the truncated integral over past increments
        a = 0.7
        g = build_grid(1.0, 8)
        T = g.horizon
        w = 2.0 * np.exp(a * (2 * T - g.times[:, None] - g.times[None, :]))
        bundle = draw_noise(g, {"common"}, 1, 21)
        _, surface = realize(brownian_weighted(g, np.zeros(8), w), bundle, 0)
        dW = bundle.path(0)["common"]
        for i in range(8):
            for j in range(8):
                expect = w[j, :min(i, j)] @ dW[:min(i, j)]
                assert abs(surface[i, j] - expect) < 1e-13


@pytest.mark.parametrize("make", [
    lambda g: brownian_weighted(g, np.zeros(g.n - 1), np.zeros((g.n, g.n))),
    lambda g: brownian_weighted(g, np.zeros(g.n), np.zeros((g.n, g.n - 1))),
    lambda g: draw_noise(g, {"w"}, 3, 0).path(3),
    lambda g: draw_noise(g, {"w"}, 3, 0).path(-1),
], ids=["brownian-g-shape", "brownian-w-shape", "path-past-end", "path-negative"])
def test_input_checks(make):
    with pytest.raises(ShapeError):
        make(build_grid(1.0, 16))

import decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volterra_games.errors import InadmissibleKernel, InvalidGrid, ShapeError
from volterra_games.grid_ops import (
    ConstantLower,
    DelayIndicator,
    DelayMeasure,
    ExponentialDecay,
    GridKernel,
    LU_LEAF,
    TRI_BLOCK,
    PowerLaw,
    Tabulated,
    ZeroK,
    apply,
    build_grid,
    cut_upper,
    discretize_kernel,
    lower_product,
    min_eigenvalue,
    resolvent,
    star_product,
    symmetrized_form,
    triangle_bands,
    triangular_inverse,
    zero_kernel,
)

from conftest import mask_from, rand_lower


class TestGrid:
    def test_uniform_construction(self):
        g = build_grid(1.0, 4)
        assert np.allclose(g.times, [0.0, 0.25, 0.5, 0.75])
        assert g.dt == 0.25

    def test_two_points(self):
        g = build_grid(2.0, 2)
        assert np.allclose(g.times, [0.0, 1.0])
        assert g.dt == 1.0

    def test_weight_times_n_is_horizon(self):
        for n in (2, 7, 64, 333):
            g = build_grid(1.7, n)
            assert abs(g.dt * n - 1.7) < 1e-12

    @pytest.mark.parametrize("T,n", [(1.0, 0), (1.0, 1), (0.0, 4), (-2.0, 4)])
    def test_invalid(self, T, n):
        with pytest.raises(InvalidGrid):
            build_grid(T, n)


class TestDiscretize:
    def test_constant_lower(self):
        g = build_grid(1.0, 4)
        K = discretize_kernel(ConstantLower(c=1.0), g)
        expect = np.tril(np.ones((4, 4)), k=-1)
        assert np.array_equal(K.values, expect)

    def test_zero(self):
        g = build_grid(1.0, 4)
        assert np.all(discretize_kernel(ZeroK(), g).values == 0.0)

    def test_power_law_first_subdiagonal_cell_average(self):
        # (1/dt) * int_0^dt (t_1 - s)^(-0.3) ds = dt^(-0.3) / 0.7
        g = build_grid(1.0, 4)
        K = discretize_kernel(PowerLaw(c=1.0, alpha=0.3), g)
        assert abs(K.values[1, 0] - g.dt ** (-0.3) / 0.7) < 1e-13

    def test_power_law_inadmissible_exponent(self):
        # refused where it is made, before any grid
        for alpha in (0.0, 0.5, 0.7, float("nan")):
            with pytest.raises(InadmissibleKernel, match="power-law exponent"):
                PowerLaw(c=1.0, alpha=alpha)

    def test_exponential_cell_average_is_exact(self):
        g = build_grid(1.0, 8)
        K = discretize_kernel(ExponentialDecay(c=2.0, rho=1.5), g)
        i, j = 5, 2
        s0 = g.times[j]
        exact = 2.0 * (np.exp(-1.5 * (g.times[i] - s0 - g.dt)) -
                       np.exp(-1.5 * (g.times[i] - s0))) / (1.5 * g.dt)
        assert abs(K.values[i, j] - exact) < 1e-14

    def test_delay_indicator_wide_pulse_is_constant(self):
        g = build_grid(1.0, 8)
        K = discretize_kernel(DelayIndicator(tau=1.5), g)
        C = discretize_kernel(ConstantLower(c=1.0), g)
        assert np.array_equal(K.values, C.values)

    def test_tabulated_masks_upper_triangle(self):
        g = build_grid(1.0, 3)
        K = discretize_kernel(Tabulated(table=((1, 2, 3), (4, 5, 6), (7, 8, 9))), g)
        assert np.array_equal(K.values, [[0, 0, 0], [4, 0, 0], [7, 8, 0]])

    def test_strictly_lower(self):
        g = build_grid(1.0, 16)
        for spec in (ConstantLower(c=2.0), ExponentialDecay(), PowerLaw(), DelayIndicator()):
            K = discretize_kernel(spec, g)
            assert np.all(np.triu(K.values) == 0.0)

    def test_scale_multiplier(self):
        g = build_grid(1.0, 8)
        K1 = discretize_kernel(ExponentialDecay(c=1.0, rho=1.0), g)
        K3 = discretize_kernel(ExponentialDecay(scale=3.0, c=1.0, rho=1.0), g)
        assert np.allclose(K3.values, 3.0 * K1.values)


def every_family(g):
    """One kernel of each analytic family, with nondefault scales and parameters."""
    density = tuple(np.cos(3.0 * g.times))
    return [
        ZeroK(),
        ConstantLower(c=-0.7, scale=1.3),
        ExponentialDecay(c=0.5, rho=2.0),
        ExponentialDecay(c=1.5, rho=0.0, scale=0.4),
        PowerLaw(c=0.5, alpha=0.4),
        DelayIndicator(tau=0.3),
        DelayIndicator(tau=1.5, scale=-2.0),
        DelayMeasure(atoms=((0.0, 1.0), (0.3, -1.0))),
        DelayMeasure(atoms=((0.05, 0.5),), density=density, scale=0.8),
    ]


class TestExactLags:
    """An analytic kernel is its lag averages laid out along the subdiagonals."""

    @pytest.mark.parametrize("n", [2, 7, 64, 100, 512, 513])
    def test_every_family_is_toeplitz_bitwise(self, n):
        g = build_grid(1.0, n)
        for spec in every_family(g):
            K = discretize_kernel(spec, g).values
            assert np.array_equal(K[1:, 1:], K[:-1, :-1]), spec
            assert not np.any(np.triu(K)), spec

    @pytest.mark.parametrize("n", [100, 513])
    def test_power_law_first_lag_is_its_closed_form(self, n):
        # (1/dt) int_0^dt c x^(-alpha) dx = c dt^(-alpha) / (1 - alpha), on every row
        g = build_grid(1.0, n)
        K = discretize_kernel(PowerLaw(c=0.5, alpha=0.4), g)
        exact = 0.5 * g.dt ** (-0.4) / 0.6
        assert np.max(np.abs(np.diagonal(K.values, -1) - exact)) <= 1e-15 * exact


# Gauss-Legendre nodes and weights on [-1, 1], exact for polynomials of degree 39
GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(20)


def cell_integrals(G, edges, breaks=()):
    """int G(x) dx over each cell [edges[k], edges[k + 1]]: Gauss-Legendre on each
    piece between the edges and the breaks inside them, summed per cell."""
    cuts = np.union1d(edges, [x for x in breaks if edges[0] < x < edges[-1]])
    lo, hi = cuts[:-1], cuts[1:]
    x = 0.5 * (hi - lo)[:, None] * GL_NODES + 0.5 * (hi + lo)[:, None]
    pieces = 0.5 * (hi - lo) * (G(x) @ GL_WEIGHTS)
    return np.bincount(np.searchsorted(edges, lo, side="right") - 1, pieces,
                       minlength=len(edges) - 1)


# coefficients: relative errors of subnormal products say nothing about the formulas
COEF = st.floats(-2.0, 2.0, allow_subnormal=False)


@st.composite
def families_with_G(draw):
    """(dt, n, [(spec, G, breaks, size)]): one kernel of each family, its G(x) written
    out afresh, the points where G jumps, and a bound on |G| and on the terms it sums,
    to which errors are relative.  The power law is bounded from lag 2 on."""
    n = draw(st.integers(2, 64))
    dt = draw(st.floats(0.25, 4.0)) / n
    c = draw(COEF)
    rho = draw(st.floats(0.0, 5.0))
    alpha = draw(st.floats(0.01, 0.49))
    tau = draw(st.floats(0.0, 1.5 * n * dt))
    atoms = tuple(draw(st.lists(st.tuples(st.floats(0.0, 1.5 * n * dt), COEF),
                                min_size=1, max_size=3)))
    density = np.array(draw(st.lists(COEF, min_size=n, max_size=n)))

    def measure(x):
        jumps = sum(mass * (x >= t) for t, mass in atoms)
        cells = np.clip(x[..., None] - dt * np.arange(n), 0.0, dt)    # x's overlap with each cell
        return jumps + cells @ density

    return dt, n, [
        (ZeroK(), lambda x: 0.0 * x, (), 0.0),
        (ConstantLower(c=c), lambda x: np.full_like(x, c), (), abs(c)),
        (ExponentialDecay(c=c, rho=rho), lambda x: c * np.exp(-rho * x), (), abs(c)),
        (PowerLaw(c=c, alpha=alpha), lambda x: c * x ** -alpha, (), abs(c) * dt ** -alpha),
        (DelayIndicator(tau=tau), lambda x: (x < tau).astype(float), (tau,), 1.0),
        (DelayMeasure(atoms=atoms, density=tuple(density)), measure, [t for t, _ in atoms],
         sum(abs(mass) for _, mass in atoms) + dt * np.sum(np.abs(density))),
    ]


class TestReferenceAverages:
    """Every family's averages against quadrature of its G(x), written out afresh."""

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(families_with_G())
    def test_lag_and_half_cell_averages(self, case):
        dt, n, families = case
        lags = np.arange(1, n)
        for spec, G, breaks, size in families:
            got = spec.lag_averages(lags, dt)
            ref = cell_integrals(G, dt * np.arange(n), breaks) / dt
            half = 2.0 / dt ** 2 * cell_integrals(lambda x: (dt - x) * G(x), [0.0, dt], breaks)[0]
            if isinstance(spec, PowerLaw):      # singular at 0: lag 1 and the half cell below
                got, ref = got[1:], ref[1:]
                half = spec.half_cell_average(dt)
            assert np.all(np.abs(got - ref) <= 1e-12 * size), spec
            assert abs(spec.half_cell_average(dt) - half) <= 1e-12 * size, spec

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(c=COEF, alpha=st.floats(0.01, 0.49), dt=st.floats(1e-3, 2.0))
    def test_power_law_singular_cells(self, c, alpha, dt):
        # (1/dt) int_0^dt c x^(-a) dx and (2/dt^2) int_0^dt (dt - x) c x^(-a) dx
        spec = PowerLaw(c=c, alpha=alpha)
        first = c * dt ** (1.0 - alpha) / (1.0 - alpha) / dt
        half = 2.0 * c / dt ** 2 * (dt ** (2.0 - alpha) / (1.0 - alpha)
                                     - dt ** (2.0 - alpha) / (2.0 - alpha))
        assert abs(spec.lag_averages(np.array([1]), dt)[0] - first) <= 1e-12 * abs(first)
        assert abs(spec.half_cell_average(dt) - half) <= 1e-12 * abs(half)

    @pytest.mark.parametrize("alpha", [0.1, 0.25, 0.4, 0.49])
    def test_power_law_far_lags_do_not_cancel(self, alpha):
        # c dt^(-a) (m^(1-a) - (m-1)^(1-a)) / (1 - a) at 40 digits; the plain
        # difference of powers was off by up to 1.2e-13 at alpha = 0.4
        c, dt = 0.5, 1.0 / 1024
        lags = np.arange(1, 1025)
        got = PowerLaw(c=c, alpha=alpha).lag_averages(lags, dt)
        with decimal.localcontext() as ctx:
            ctx.prec = 40
            e = 1 - decimal.Decimal(alpha)
            scale = decimal.Decimal(c) * decimal.Decimal(dt) ** -decimal.Decimal(alpha) / e
            want = np.array([float(scale * (decimal.Decimal(int(m)) ** e
                                            - decimal.Decimal(int(m) - 1) ** e))
                             for m in lags])
        assert got[0] == c * dt ** -alpha / (1.0 - alpha)
        assert np.max(np.abs(got - want) / want) <= 2e-15


class TestApply:
    def test_zero_kernel(self):
        g = build_grid(1.0, 8)
        assert np.all(apply(zero_kernel(g), np.ones(8)) == 0.0)

    def test_constant_kernel_integrates_one(self):
        # int_0^{t_i} 1 ds = t_i, exactly on the grid
        g = build_grid(1.0, 4)
        K = discretize_kernel(ConstantLower(c=1.0), g)
        assert np.allclose(apply(K, np.ones(4)), g.times, atol=1e-15)

    def test_shape_mismatch(self):
        g = build_grid(1.0, 8)
        with pytest.raises(ShapeError):
            apply(zero_kernel(g), np.ones(9))


class TestStarProduct:
    def test_zero_annihilates(self):
        g = build_grid(1.0, 8)
        K = discretize_kernel(ConstantLower(), g)
        assert np.all(star_product(K, zero_kernel(g)).values == 0.0)

    def test_constant_lower_triple_sum(self):
        # independent triple-loop evaluation of (G * H)[3][0]
        g = build_grid(1.0, 4)
        K = discretize_kernel(ConstantLower(c=1.0), g)
        got = star_product(K, K).values[3, 0]
        naive = sum(K.values[3, k] * K.values[k, 0] * g.dt for k in range(4))
        assert got == naive == 0.5

    def test_associativity(self):
        rng = np.random.default_rng(3)
        g = build_grid(1.0, 16)
        A, B, C = (rand_lower(g, rng) for _ in range(3))
        left = star_product(star_product(A, B), C).values
        right = star_product(A, star_product(B, C)).values
        assert np.max(np.abs(left - right)) < 1e-12

    def test_volterra_closure(self):
        rng = np.random.default_rng(5)
        g = build_grid(1.0, 10)
        for _ in range(20):
            P = star_product(rand_lower(g, rng), rand_lower(g, rng))
            assert np.all(np.triu(P.values) == 0.0)

    def test_grid_mismatch(self):
        with pytest.raises(ShapeError):
            star_product(zero_kernel(build_grid(1.0, 4)), zero_kernel(build_grid(1.0, 5)))


class TestResolvent:
    def test_zero(self):
        g = build_grid(1.0, 8)
        assert np.all(resolvent(zero_kernel(g)).values == 0.0)

    def test_defining_identity_and_commutation(self):
        rng = np.random.default_rng(11)
        g = build_grid(1.0, 24)
        for _ in range(5):
            K = rand_lower(g, rng)
            R = resolvent(K)
            assert np.max(np.abs(R.values - K.values - star_product(K, R).values)) <= 1e-10
            assert np.max(np.abs(star_product(K, R).values
                                 - star_product(R, K).values)) <= 1e-10

    def test_constant_kernel_analytic_limit(self):
        # resolvent of c 1_{s<t} is c e^{c(t-s)} 1_{s<t}
        g = build_grid(1.0, 256)
        R = resolvent(discretize_kernel(ConstantLower(c=1.0), g))
        exact = np.tril(np.exp(np.subtract.outer(g.times, g.times)), k=-1)
        assert np.max(np.abs(np.tril(R.values, -1) - exact)) <= 5e-2

    def test_singular_non_volterra(self):
        # dt K = id would make id - dt K singular; it is not a Volterra kernel and is refused,
        # so every resolvent inverts a unit lower triangular matrix
        g = build_grid(1.0, 4)
        with pytest.raises(InadmissibleKernel):
            GridKernel(g, np.eye(4) / g.dt)


class TestMask:
    def test_zero_index_is_identity(self):
        g = build_grid(1.0, 8)
        K = discretize_kernel(ExponentialDecay(), g)
        assert np.array_equal(mask_from(K, 0).values, K.values)

    def test_last_index_keeps_last_column(self):
        g = build_grid(1.0, 8)
        K = rand_lower(g, np.random.default_rng(1))
        M = mask_from(K, 7)
        assert np.all(M.values[:, :7] == 0.0)
        assert np.array_equal(M.values[:, 7], K.values[:, 7])

    def test_zero_kernel(self):
        g = build_grid(1.0, 8)
        assert np.all(mask_from(zero_kernel(g), 3).values == 0.0)

    def test_out_of_range(self):
        g = build_grid(1.0, 8)
        with pytest.raises(ShapeError):
            mask_from(zero_kernel(g), 8)


class TestNonnegDefinite:
    @pytest.mark.parametrize("n", [2, 16, 100])
    def test_zero_kernel_skips_the_eigensolver_exactly(self, n):
        # with and without the exact diagonal halves, as the eigensolver reads them
        g = build_grid(1.0, n)
        for K in (zero_kernel(g), GridKernel(g, np.zeros((n, n)))):
            assert min_eigenvalue(K) == np.linalg.eigvalsh(symmetrized_form(K))[0] == 0.0
        V = np.zeros((n, n))
        V[n - 1, 0] = 1.0              # one nonzero entry goes to the eigensolver
        K = GridKernel(g, V)
        assert min_eigenvalue(K) == np.linalg.eigvalsh(symmetrized_form(K))[0] != 0.0

    def test_zero_true(self):
        assert min_eigenvalue(zero_kernel(build_grid(1.0, 8))) >= -1e-8

    def test_exponential_decay_true(self):
        g = build_grid(1.0, 64)
        assert min_eigenvalue(discretize_kernel(ExponentialDecay(c=1.0, rho=1.0), g)) >= -1e-8

    def test_admissible_families_pass(self):
        g = build_grid(1.0, 64)
        for spec in (ConstantLower(c=1.0), ExponentialDecay(c=2.0, rho=5.0),
                     PowerLaw(c=1.0, alpha=0.3), PowerLaw(c=1.0, alpha=0.49),
                     DelayIndicator(tau=1.5)):
            assert min_eigenvalue(discretize_kernel(spec, g)) >= -1e-8, spec

    def test_negative_entry_fails(self):
        g = build_grid(1.0, 4)
        V = np.zeros((4, 4))
        V[1, 0] = -5.0
        assert min_eigenvalue(GridKernel(g, V)) < -1e-8

    def test_delay_pulse_inside_horizon_is_indefinite(self):
        # tau < T: numerically not nonnegative definite, stable under refinement
        for n in (64, 128, 256):
            g = build_grid(1.0, n)
            K = discretize_kernel(DelayIndicator(tau=0.5), g)
            low = np.linalg.eigvalsh(symmetrized_form(K))[0]
            assert low < -1e-2
            assert min_eigenvalue(K) < -1e-8


def id_plus_resolvent(K):
    """The matrix id + dt R = (id - dt K)^{-1}: (id - K)^{-1} under the grid quadrature action."""
    return np.eye(K.grid.n) + K.grid.dt * resolvent(K).values


class TestInvertIdMinus:
    def test_zero_is_identity(self):
        g = build_grid(1.0, 8)
        h = id_plus_resolvent(zero_kernel(g))
        a = np.arange(8.0)
        assert np.array_equal(h @ a, a)
        assert np.all(h @ np.zeros(8) == 0.0)

    def test_exponential_decay_limit(self):
        # B = -c 1_{s<t}: h @ 1 solves v' = -c v, v(0) = 1
        errs = {}
        for n in (128, 256):
            g = build_grid(1.0, n)
            h = id_plus_resolvent(discretize_kernel(ConstantLower(c=-1.0), g))
            errs[n] = np.max(np.abs(h @ np.ones(n) - np.exp(-g.times)))
        assert errs[256] <= 5e-2
        assert 1.5 <= errs[128] / errs[256] <= 2.5


class TestTriangularInverse:
    @pytest.mark.parametrize("n", [1, 2, LU_LEAF - 1, LU_LEAF, LU_LEAF + 1, 100, 512])
    @pytest.mark.parametrize("unit", [True, False])
    def test_inverse_and_exact_zeros(self, n, unit):
        rng = np.random.default_rng(n)
        # unit-scale diagonal, off-diagonal entries small enough to keep it well conditioned
        T = rng.standard_normal((n, n)) / (2.0 * np.sqrt(n))
        T = np.tril(T)
        T[np.diag_indices(n)] = rng.uniform(1.0, 2.0, n) * rng.choice([-1.0, 1.0], n)
        if unit:
            T[np.diag_indices(n)] = 1.0
        X = triangular_inverse(T, unit=unit)
        assert np.max(np.abs(T @ X - np.eye(n))) <= 1e-12
        assert np.all(np.triu(X, 1) == 0.0)

    @pytest.mark.parametrize("unit", [True, False])
    def test_reads_only_the_triangle(self, unit):
        # packed LU storage: the upper triangle and, with unit=True, the diagonal are ignored
        n = 3 * LU_LEAF + 5
        rng = np.random.default_rng(7)
        packed = rng.standard_normal((n, n)) / (2.0 * np.sqrt(n))
        packed[np.diag_indices(n)] += 1.5
        T = np.tril(packed, -1 if unit else 0)
        if unit:
            T[np.diag_indices(n)] = 1.0
        X = triangular_inverse(packed, unit=unit)
        assert np.array_equal(X, triangular_inverse(T))
        assert np.max(np.abs(T @ X - np.eye(n))) <= 1e-12


class TestGridRefinement:
    def test_apply_converges_first_order(self):
        # error of the Nystrom quadrature against the closed-form integral
        # int_0^t c e^{-rho (t-s)} s ds halves with the grid
        c, rho = 1.0, 2.0
        errs = {}
        for n in (64, 128):
            g = build_grid(1.0, n)
            K = discretize_kernel(ExponentialDecay(c=c, rho=rho), g)
            got = apply(K, g.times)
            t = g.times
            exact = c * (t / rho - (1 - np.exp(-rho * t)) / rho ** 2)
            errs[n] = np.max(np.abs(got - exact))
        assert 1.5 <= errs[64] / errs[128] <= 2.5

    def test_constant_kernel_quadrature(self):
        errs = {}
        for n in (64, 128):
            g = build_grid(1.0, n)
            K = discretize_kernel(ConstantLower(c=1.0), g)
            errs[n] = np.max(np.abs(apply(K, g.times) - g.times ** 2 / 2.0))
        assert 1.5 <= errs[64] / errs[128] <= 2.5


class TestLowerProduct:
    """lower_product against np.tril(A @ np.tril(W, -1), -1): the same GEMM, bit for
    bit, up to one column block, and within 1e-13 of the largest entry past it."""

    SIZES = [1, 2, 63, 64, 65, 127, 128, 129, 300, 512]

    @staticmethod
    def check(A, W):
        got = lower_product(A, W)
        ref = np.tril(A @ np.tril(W, -1), -1)
        assert not np.any(np.triu(got))
        if W.shape[0] <= TRI_BLOCK:
            assert np.array_equal(got, ref)
        else:
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", SIZES)
    def test_full_left_factor(self, n):
        rng = np.random.default_rng(n)
        self.check(rng.standard_normal((n, n)), np.tril(rng.standard_normal((n, n)), -1))

    @pytest.mark.parametrize("n", SIZES)
    def test_upper_left_factor_reads_only_the_strict_lower_weights(self, n):
        # an upper A, as the solver's Ui, against anticipative weights: the
        # product equals tril(A @ W, -1) whatever W holds on and above its diagonal
        rng = np.random.default_rng(1000 + n)
        A = np.triu(rng.standard_normal((n, n)))
        W = rng.standard_normal((n, n))
        self.check(A, W)
        if n > 1:
            ref = np.tril(A @ W, -1)
            assert np.max(np.abs(lower_product(A, W) - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("triangle", ["upper", "lower"])
    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 130, 513])
    def test_triangular_left_factor_never_reads_its_zero_triangle(self, n, triangle):
        # NaN in A's strict other triangle and in W on and above its diagonal: a
        # single read of either would make the product NaN
        rng = np.random.default_rng(2000 + n)
        cut = np.triu if triangle == "upper" else np.tril
        A = cut(rng.standard_normal((n, n)))
        W = np.tril(rng.standard_normal((n, n)), -1)
        A_nan = np.where(cut(np.ones((n, n))) == 1.0, A, np.nan)
        W_nan = np.where(np.tril(np.ones((n, n)), -1) == 1.0, W, np.nan)
        got = lower_product(triangle_bands(A_nan, triangle), W_nan, triangle)
        assert np.all(np.isfinite(got))
        assert not np.any(np.triu(got))
        ref = lower_product(A, W)
        if n <= TRI_BLOCK:
            assert np.array_equal(got, ref)
        else:
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 200])
    def test_cut_upper_is_tril_in_place(self, n):
        a = np.random.default_rng(n).standard_normal((n, n))
        ref = np.tril(a, -1)
        out = cut_upper(a)
        assert out is a
        assert np.array_equal(out, ref)


class TestVolterraCheck:
    """GridKernel rejects any nonzero on or above the diagonal, band by band."""

    @pytest.mark.parametrize("n", [3, 64, 65, 130])
    def test_each_upper_entry_is_seen(self, n):
        g = build_grid(1.0, n)
        base = np.tril(np.random.default_rng(n).standard_normal((n, n)), -1)
        # diagonal, just above it (across a band boundary too), the top-right corner
        edge = (min(TRI_BLOCK, n) - 1, min(TRI_BLOCK, n - 1))
        for i, j in ((n - 1, n - 1), (n // 2, n // 2), (n - 2, n - 1), (0, 1), edge, (0, n - 1)):
            v = base.copy()
            v[i, j] = 1e-300
            with pytest.raises(InadmissibleKernel, match="strictly lower"):
                GridKernel(g, v)

    @pytest.mark.parametrize("n", [3, 64, 65, 130])
    def test_negative_zero_upper_triangle_passes(self, n):
        g = build_grid(1.0, n)
        v = np.tril(np.random.default_rng(n).standard_normal((n, n)), -1)
        v[np.triu_indices(n)] = -0.0
        assert np.array_equal(GridKernel(g, v).values, v)


def _inf_entry(n):
    v = np.zeros((n, n))
    v[3, 1] = np.inf
    return v


@pytest.mark.parametrize("make, error", [
    (lambda g: GridKernel(g, _inf_entry(g.n)), InadmissibleKernel),
    (lambda g: GridKernel(g, np.zeros((g.n, g.n - 1))), ShapeError),
    (lambda g: GridKernel(g, np.zeros((g.n, g.n)), diag_half=np.zeros(g.n - 1)), ShapeError),
    (lambda g: discretize_kernel(Tabulated(table=((0.0,) * 3,) * 3), g), ShapeError),
    # a negative width once discretized to the zero kernel, with a negative half cell
    (lambda g: DelayIndicator(tau=-0.5), InadmissibleKernel),
    # lag n - 1 reads density cell n - 2: a shorter density is refused, not indexed past
    (lambda g: discretize_kernel(DelayMeasure(density=(0.5,) * (g.n - 2)), g), ShapeError),
], ids=["non-finite", "wrong-shape", "diag-half-length", "tabulated-shape", "pulse-width-negative",
        "density-short"])
def test_input_checks(grid16, make, error):
    with pytest.raises(error):
        make(grid16)

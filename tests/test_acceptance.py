"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Tolerances are pinned here, straight from the stated criteria; nothing is
deferred to later calibration.  Run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion lines.
"""

import time

import numpy as np

from volterra_games.fredholm import FredholmSolver, stability_gap
from volterra_games.grid_ops import (
    ConstantLower,
    ExponentialDecay,
    PowerLaw,
    add_kernels,
    build_grid,
    discretize_kernel,
    resolvent,
    zero_kernel,
)
from volterra_games.meanfield import (
    BalancedDeterministicFamily,
    IIDBrownianFamily,
    MFGSpec,
    best_response_gap,
    convergence_study,
    draw_crossed_noise,
    fit_loglog_slope,
    solve_generic,
)
from volterra_games.model_builders import (
    DelayMeasure,
    build_advertising_game,
    build_liquidation_game,
    build_systemic_game,
    direct_objective,
)
from volterra_games.nplayer import GameSpec, concavity_check, objective, solve_nash
from volterra_games.oracle import build_tree, compare, discrete_nash_kkt, solve_game_on_tree
from volterra_games.signals import deterministic, draw_noise, martingale, ou


def report(num, name, passed, detail):
    print(f"\n[criterion {num:>2}] {'PASS' if passed else 'FAIL'}  {name}: {detail}")
    assert passed, f"criterion {num} ({name}): {detail}"


def random_admissible_kernel(grid, rng, allow_zero=True):
    kind = rng.integers(4 if allow_zero else 3)
    if kind == 0:
        return discretize_kernel(
            ExponentialDecay(c=rng.uniform(0.1, 0.8), rho=rng.uniform(0.3, 3.0)), grid)
    if kind == 1:
        return discretize_kernel(ConstantLower(c=rng.uniform(0.1, 0.8)), grid)
    if kind == 2:
        return discretize_kernel(
            PowerLaw(c=rng.uniform(0.05, 0.3), alpha=rng.uniform(0.1, 0.45)), grid)
    return zero_kernel(grid)


def random_game(rng):
    n = int(rng.integers(4, 9))
    grid = build_grid(float(rng.uniform(0.5, 2.0)), n)
    N = int(rng.integers(1, 4))
    layout = int(rng.integers(3))
    b = []
    for i in range(N):
        det = deterministic(grid, rng.uniform(0.5, 1.5) + rng.uniform(-0.5, 0.5) * grid.times)
        if layout == 0:
            b.append(det + martingale(grid, sigma=rng.uniform(0.2, 0.8), noise="common"))
        elif layout == 1:
            b.append(det + ou(grid, kappa=rng.uniform(0.5, 2.0), sigma=rng.uniform(0.2, 0.6),
                              x0=rng.uniform(-0.5, 0.5), noise="common"))
        else:
            b.append(det + martingale(grid, sigma=0.4, noise="common")
                     + martingale(grid, sigma=0.3, noise="idio"))
    if rng.integers(2):
        b0 = deterministic(grid, float(rng.uniform(-0.5, 0.5)))
    else:
        b0 = martingale(grid, sigma=0.3, noise="common")
    spec = GameSpec(n_players=N, lam=float(rng.uniform(0.5, 2.0)),
                    a1=random_admissible_kernel(grid, rng),
                    a2hat=random_admissible_kernel(grid, rng),
                    a3=random_admissible_kernel(grid, rng),
                    b_signals=tuple(b), b0_signal=b0, grid=grid)
    n_tags = 2 if layout == 2 else 1
    depth = min(6 if n_tags == 1 else 3, n - 1)
    branching = 3 if (n_tags == 1 and rng.integers(4) == 0) else 2
    if branching == 3:
        depth = min(depth, 4)
    return spec, branching, depth


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(2026)
    start = time.time()
    worst = 0.0
    for _ in range(50):
        spec, branching, depth = random_game(rng)
        tree = build_tree(spec, branching=branching, depth=depth)
        diff = compare(discrete_nash_kkt(spec, tree), solve_game_on_tree(spec, tree), tree)
        worst = max(worst, diff)
    elapsed = time.time() - start
    report(1, "oracle equivalence",
           worst <= 1e-8 and elapsed <= 60.0,
           f"max |u_solver - u_oracle| = {worst:.3e} (tol 1e-8), {elapsed:.1f}s (cap 60s)")


def test_criterion_2_fredholm_exactness():
    rng = np.random.default_rng(7)
    grid = build_grid(1.0, 64)
    bundle = draw_noise(grid, {"common", "idio"}, 10, seed=5)
    worst = 0.0
    for trial in range(100):
        K = random_admissible_kernel(grid, rng, allow_zero=False)
        if not rng.integers(2):
            rng.uniform(0.0, 0.3)   # the draw of a retired case: later problems stay the same
        lam_eff = float(rng.uniform(0.5, 4.0))
        f = (martingale(grid, sigma=rng.uniform(0.3, 1.0), noise="common")
             + ou(grid, kappa=rng.uniform(0.5, 2.0), sigma=rng.uniform(0.2, 0.8),
                  x0=rng.uniform(-1, 1), noise="idio")
             + deterministic(grid, rng.standard_normal(64)))
        solver = FredholmSolver(K, lam_eff)
        residual = solver.residual(f, solver.solve(f)).path_values(bundle.increments, 10)
        worst = max(worst, float(np.max(np.abs(residual))))
    report(2, "Fredholm exactness", worst <= 1e-9,
           f"max residual over 100 problems x 10 paths at n=64: {worst:.3e} (tol 1e-9)")


def test_criterion_3_analytic_limits():
    errs_exp = {}
    errs_const = {}
    for n in (128, 256):
        grid = build_grid(1.0, n)
        K = discretize_kernel(ConstantLower(c=1.0), grid)
        ones = deterministic(grid, 1.0)
        # v = 1 - int_0^t v solves (id + dt K) v = 1, so v = 1 + dt R 1 for R the
        # resolvent of -K
        v_exp = 1.0 + grid.dt * resolvent(add_kernels((-1.0, K))).values.sum(axis=1)
        errs_exp[n] = float(np.max(np.abs(v_exp - np.exp(-grid.times))))
        errs_const[n] = float(np.max(np.abs(FredholmSolver(K, 1.0).solve(ones).mean - 0.5)))
    r1 = errs_exp[128] / errs_exp[256]
    r2 = errs_const[128] / errs_const[256]
    ok = (errs_exp[256] <= 5e-2 and errs_const[256] <= 5e-2
          and 1.5 <= r1 <= 2.5 and 1.5 <= r2 <= 2.5)
    report(3, "analytic limits", ok,
           f"e^(-ct): err={errs_exp[256]:.2e}, ratio={r1:.2f}; "
           f"1/(1+cT): err={errs_const[256]:.2e}, ratio={r2:.2f}")


def test_criterion_4_mean_consistency():
    grid = build_grid(1.0, 64)
    a1 = discretize_kernel(ConstantLower(c=0.2), grid)
    a2 = discretize_kernel(ExponentialDecay(c=0.6, rho=1.5), grid)
    a3 = discretize_kernel(ExponentialDecay(c=0.4, rho=1.0), grid)
    worst = 0.0
    for N in (2, 5, 10):
        b = tuple(deterministic(grid, 1.0 + 0.1 * i)
                  + martingale(grid, sigma=0.4, noise=f"idio{i}")
                  + martingale(grid, sigma=0.3, noise="common") for i in range(N))
        spec = GameSpec(n_players=N, lam=1.0, a1=a1, a2hat=a2, a3=a3, b_signals=b,
                        b0_signal=deterministic(grid, 0.4), grid=grid)
        tags = {"common"} | {f"idio{i}" for i in range(N)}
        bundle = draw_noise(grid, tags, 8, seed=N)
        sol = solve_nash(spec, bundle)
        gap = float(np.max(np.abs(sol.u.mean(axis=0) - sol.ubar)))
        worst = max(worst, gap)
    report(4, "mean consistency", worst <= 1e-8,
           f"max |avg(u^i) - ubar| over N in {{2,5,10}}, n=64: {worst:.3e} (tol 1e-8)")


def _mfg_spec(grid, kind):
    base = deterministic(grid, 1.0)
    a1 = discretize_kernel(ConstantLower(c=0.2), grid)
    a2 = discretize_kernel(ExponentialDecay(c=0.6, rho=1.5), grid)
    a3 = discretize_kernel(ExponentialDecay(c=0.4, rho=1.0), grid)
    if kind == "balanced":
        fam = BalancedDeterministicFamily(
            base=base, amplitude=0.5, shape=deterministic(grid, np.sin(np.pi * grid.times)))
        beta = base
    else:
        fam = IIDBrownianFamily(base=base, sigma=0.6)
        beta = martingale(grid, sigma=0.6, noise="idio0")
    return MFGSpec(lam=1.0, a1=a1, a2hat=a2, a3=a3, beta=beta,
                   beta0=deterministic(grid, 0.0),
                   b0_signal=deterministic(grid, 0.4), grid=grid,
                   b_infty=base, player_family=fam)


def test_criterion_5_convergence_rates():
    start = time.time()
    ns = [4, 8, 16, 32, 64]
    grid = build_grid(1.0, 64)

    spec_det = _mfg_spec(grid, "balanced")
    noise_det = draw_crossed_noise(grid, set(), set(), 1, 1, seed=0)
    out_det = convergence_study(spec_det, ns, noise_det)
    slope_det = out_det["slope_mean"]

    spec_iid = _mfg_spec(grid, "iid")
    fam = spec_iid.player_family
    noise_iid = draw_crossed_noise(grid, set(), fam.idio_tags(64), 1, 10_000, seed=1)
    out_iid = convergence_study(spec_iid, ns, noise_iid, player_paths=500)
    slope_iid = out_iid["slope_mean"]

    elapsed = time.time() - start
    ok = (-2.5 <= slope_det <= -1.5) and (-1.4 <= slope_iid <= -0.6) and elapsed <= 600
    report(5, "convergence rates (mean strategy)", ok,
           f"h=0 slope {slope_det:.2f} in [-2.5,-1.5]; "
           f"iid slope {slope_iid:.2f} in [-1.4,-0.6]; M=10^4, {elapsed:.0f}s (cap 600s)")


def test_criterion_6_mfg_consistency_condition():
    grid = build_grid(1.0, 64)
    spec = MFGSpec(lam=1.0,
                   a1=discretize_kernel(ConstantLower(c=0.2), grid),
                   a2hat=discretize_kernel(ExponentialDecay(c=0.6, rho=1.5), grid),
                   a3=discretize_kernel(ExponentialDecay(c=0.4, rho=1.0), grid),
                   beta=martingale(grid, sigma=0.8, noise="idio"),
                   beta0=deterministic(grid, 1.0) + martingale(grid, sigma=0.4, noise="common"),
                   b0_signal=deterministic(grid, 0.3), grid=grid)
    noise = draw_crossed_noise(grid, {"common"}, {"idio"}, 4, 2500, seed=42)
    sol = solve_generic(spec, noise)
    worst = sol.diagnostics["gap_over_stderr_max"]
    report(6, "mean-field consistency condition", worst <= 3.0,
           f"max |E[v|common] - mu| / stderr over every grid point, M=10^4: {worst:.2f} (tol 3)")


def test_criterion_7_eps_nash_decay():
    grid = build_grid(1.0, 32)
    spec = _mfg_spec(grid, "iid")
    fam = spec.player_family
    ns = [4, 8, 16, 32, 64]
    gaps, errs = [], []
    for N in ns:
        noise = draw_crossed_noise(grid, set(), fam.idio_tags(N), 1, 64, seed=9)
        out = best_response_gap(spec, N, noise)
        gaps.append(out["gap"])
        errs.append(out["stderr"])
    sound = all(g >= -3 * e for g, e in zip(gaps, errs))
    slope = fit_loglog_slope(ns, np.maximum(gaps, 1e-300))
    ok = sound and slope <= -0.4
    report(7, "epsilon-Nash decay", ok,
           f"best-response gains {['%.2e' % g for g in gaps]}, slope {slope:.2f} (<= -0.4)")


def _example_games(grid):
    liq = build_liquidation_game(dict(
        N=2, lam=1.0, phi=0.5, rho_term=1.0,
        propagator=ExponentialDecay(c=1.0, rho=2.0), x0=[1.0, 2.0]), grid)
    sys_ = build_systemic_game(dict(
        N=3, beta=0.3, eps=0.25, cost_c=1.0, sigma=[0.0, 0.0, 0.0],
        x0=[1.0, 0.5, -0.2], delay=DelayMeasure(atoms=((0.0, 1.0), (0.3, -1.0)))), grid)
    adv = build_advertising_game(dict(
        N=2, lam=1.0, beta=0.7, forgetting=DelayMeasure(atoms=((0.0, -0.3),)),
        competition=DelayMeasure(atoms=((0.0, 0.5),)), sigma=[0.0, 0.0]), grid)
    return {"liquidation": liq, "systemic": sys_, "advertising": adv}


def test_criterion_8_concavity():
    grid = build_grid(1.0, 16)
    rng = np.random.default_rng(19)
    worst_name = None
    for name, (game, _) in _example_games(grid).items():
        bundle = draw_noise(grid, {"w"}, 1, 0)
        sol = solve_nash(game, bundle)
        for _ in range(50):
            h = rng.standard_normal(grid.n)
            if not concavity_check(game, 0, sol.u, h, bundle, tol=1e-10):
                worst_name = name
    report(8, "concavity second differences", worst_name is None,
           "50 random directions per example game, second difference <= +1e-10"
           if worst_name is None else f"failed for {worst_name}")


def test_criterion_9_model_reduction_fidelity():
    grid = build_grid(1.0, 6)
    rng = np.random.default_rng(23)
    worst = 0.0
    for name, (game, vspec) in _example_games(grid).items():
        tags = set()
        for p_sig, r_sig in vspec.d_signals:
            tags |= p_sig.noise_tags() | r_sig.noise_tags()
        bundle = draw_noise(grid, tags or {"w"}, 1, 0)
        dW = bundle.path(0)
        N = game.n_players
        for _ in range(20):
            u = rng.standard_normal(grid.n)
            if name == "advertising":
                profile = rng.standard_normal((N, grid.n))   # exact for any profile
            else:
                profile = np.tile(u, (N, 1))                 # one strategy, all players
            for i in range(N):
                jd = direct_objective(vspec, i, profile, dW)
                js = objective(game, i, profile[:, None, :], bundle)
                worst = max(worst, abs(jd - js))
    report(9, "model-reduction fidelity", worst <= 1e-8,
           f"max |direct - reduced| over 20 strategies x 3 games, n=6: {worst:.3e} (tol 1e-8)")


def test_criterion_10_stability_rates():
    grid = build_grid(1.0, 32)
    K = discretize_kernel(ExponentialDecay(c=1.0, rho=1.0), grid)
    solver = FredholmSolver(K, 2.0)
    ns = [4, 8, 16, 32, 64]

    bundle = draw_noise(grid, {"common"}, 16, seed=5)
    base = martingale(grid, sigma=1.0, noise="common")
    kernel_gaps = []
    for N in ns:
        KN = add_kernels((1.0, K), (1.0 / N, discretize_kernel(ConstantLower(c=1.0), grid)))
        kernel_gaps.append(stability_gap(FredholmSolver(KN, 2.0), solver, bundle, base))
    slope_k = fit_loglog_slope(ns, kernel_gaps)

    M = 256
    bundle2 = draw_noise(grid, {"common", "pert"}, M, seed=6)
    driver_gaps = []
    for N in ns:
        pert = base + (1.0 / np.sqrt(N)) * martingale(grid, sigma=1.0, noise="pert")
        driver_gaps.append(stability_gap(solver, solver, bundle2, pert, base))
    slope_f = fit_loglog_slope(ns, driver_gaps)

    ok = (-2.4 <= slope_k <= -1.6) and (-1.4 <= slope_f <= -0.6)
    report(10, "stability rates", ok,
           f"kernel-perturbation slope {slope_k:.2f} in [-2.4,-1.6]; "
           f"driver-perturbation slope {slope_f:.2f} in [-1.4,-0.6]")

"""Machine-readable invariant suite used by the validate subcommand."""

from __future__ import annotations

import numpy as np

from .grid_ops import apply, grid_inner, min_eigenvalue, resolvent, star_product
from .nplayer import DEFAULT_TOLERANCES, GameSpec, solve_nash
from .signals import draw_noise


def _check(name, value, tolerance, larger_ok=False):
    passed = value >= -tolerance if larger_ok else value <= tolerance
    return {"name": name, "value": float(value), "tolerance": float(tolerance),
            "passed": bool(passed)}


def validation_report(spec: GameSpec, paths: int = 8, seed: int = 0,
                      tolerances: dict | None = None) -> dict:
    tol = dict(DEFAULT_TOLERANCES)
    tol.update(tolerances or {})
    grid = spec.grid
    checks = []

    checks.append(_check("grid_weight_consistency",
                         abs(grid.dt * grid.n - grid.horizon), 1e-12))

    # the spec's admissibility check already computed the eigenvalues it tests
    for name, K in (("A1", spec.a1), ("A2hat", spec.a2hat), ("A3", spec.a3)):
        if spec.kernel_check == "strict":
            checks.append(_check(f"nonneg_definite_{name.lower()}",
                                 spec.margins[f"min_eig_{name}"],
                                 tol["admissibility"], larger_ok=True))
        else:
            checks.append({"name": f"min_eig_{name.lower()}", "value": min_eigenvalue(K),
                           "tolerance": float("nan"), "passed": True})
    if spec.kernel_check == "concave":
        checks.append(_check("player_concavity_form", spec.margins["min_eig_player_form"],
                             spec.lam + tol["admissibility"], larger_ok=True))

    rng = np.random.default_rng(seed)
    pair_gap = 0.0
    for K in (spec.a1, spec.a2hat, spec.a3):
        for _ in range(25):
            f = rng.standard_normal(grid.n)
            g = rng.standard_normal(grid.n)
            lhs = grid_inner(grid, f, apply(K, g))
            # a contiguous transpose: the strided view's product rounds differently
            rhs = grid_inner(grid, np.ascontiguousarray(K.values.T) @ f * grid.dt, g)
            scale = max(1.0, float(np.linalg.norm(f) * np.linalg.norm(g)))
            pair_gap = max(pair_gap, abs(lhs - rhs) / scale)
    checks.append(_check("adjoint_pairing", pair_gap, 1e-12))

    R = resolvent(spec.a2hat)
    res_identity = float(np.max(np.abs(
        R.values - spec.a2hat.values - star_product(spec.a2hat, R).values)))
    checks.append(_check("resolvent_identity", res_identity, 1e-10))
    commute = float(np.max(np.abs(star_product(spec.a2hat, R).values
                                  - star_product(R, spec.a2hat).values)))
    checks.append(_check("resolvent_commutes", commute, 1e-10))

    closure = star_product(spec.a3, spec.a2hat)
    checks.append(_check("volterra_closure",
                         float(np.max(np.abs(np.triu(closure.values)))), 0.0))

    bundle = draw_noise(grid, spec.noise_tags() or {"common"}, paths, seed)

    # E_{t_j}[f_j] two ways on the same paths: surface cumsums against path_values' GEMMs
    adapt = 0.0
    k = min(paths, 4)
    first = {tag: arr[:k] for tag, arr in bundle.increments.items()}
    ii, jj = np.tril_indices(grid.n)
    for cs in (*spec.b_signals, spec.b0_signal):
        values = cs.path_values(first, k)
        for p in range(k):
            surf = cs.values_and_surface(bundle.path(p))[1]
            adapt = max(adapt, float(np.max(np.abs(surf[ii, jj] - values[p, jj]))))
    checks.append(_check("signal_adaptedness", adapt, 1e-12))

    sol = solve_nash(spec, bundle)
    checks.append(_check("fredholm_residual",
                         sol.diagnostics["fredholm_residual_max"], tol["fredholm_residual"]))
    checks.append(_check("mean_consistency",
                         sol.diagnostics["mean_gap"], tol["mean_consistency"]))
    checks.append(_check("foc_residual",
                         sol.diagnostics["foc_residual_max"], tol["foc_residual"]))
    return {"checks": checks,
            "passed": all(c["passed"] for c in checks),
            "paths": paths, "seed": seed}

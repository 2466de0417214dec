"""Config-driven command line: solve / converge / eps-nash / validate / oracle-check.

Exit codes: 0 success, 1 invariant or oracle-tolerance failure, 2 config
error, 3 numerical error.  Every run writes a manifest with the config echo,
package version, seed, the tolerance table actually used, the grid size and
path count the run used, and what the run cost the process.

main sets the process's allocator policy (keep_freed_heap); importing the
package leaves the allocator alone.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import dataclasses
import json
import math
import platform
import sys
import time
from pathlib import Path

import numpy as np

try:
    import resource
except ImportError:             # Unix only: elsewhere the manifest has no run block
    resource = None

from . import __version__
from .errors import ConfigError, InvalidGrid, VolterraGamesError
from .grid_ops import (
    ConstantLower,
    DelayIndicator,
    ExponentialDecay,
    PowerLaw,
    Tabulated,
    TimeGrid,
    ZeroK,
    build_grid,
    discretize_kernel,
)
from .meanfield import (
    BalancedDeterministicFamily,
    IIDBrownianFamily,
    MFGSpec,
    best_response_gap,
    convergence_study,
    draw_crossed_noise,
    fit_loglog_slope,
)
from .model_builders import (
    DelayMeasure,
    build_advertising_game,
    build_liquidation_game,
    build_systemic_game,
    integer_field,
    number,
)
from .nplayer import DEFAULT_TOLERANCES, GameSpec, solve_nash
from .signals import GENERATOR_NAME, CompiledSignal, deterministic, draw_noise, martingale, ou
from .validation import validation_report

# diagnostics.json entry -> the tolerance that gates it in `solve`
SOLVE_GATES = {"fredholm_residual_max": "fredholm_residual", "foc_residual_max": "foc_residual",
               "mean_gap": "mean_consistency"}

# glibc serves a block of at least M_MMAP_THRESHOLD bytes by mmap and unmaps it
# when freed, and returns the top of its heap to the kernel once more than
# M_TRIM_THRESHOLD bytes are free there; both start at 128 KiB and grow to 1x
# and 2x the largest block it has unmapped (mallopt(3)).  A solve allocates and
# frees n x n float arrays (2 MiB at n = 512) over and over, so every new one
# faulted its pages in again: 27.4k minor faults (107 MB) and 45-80 ms of
# system time per raw-game solve at n = 512, P = 4.  With these two settings
# every n x n array below n = 2048 comes from the heap and freed heap stays
# mapped: at most a few dozen faults per repeated call, peak memory unchanged.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 32 << 20           # glibc's ceiling on 64-bit builds
TRIM_THRESHOLD = 256 << 20
RUN_WIDTH = 14                      # characters per number in the manifest's run block


def _require_keys(obj: dict, allowed: set, context: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{context} must be an object")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {context}")


def _numbers(obj: dict, context: str, skip=(), lists: bool = False) -> dict:
    """obj's entries but skip's, each read by number as context.key."""
    return {key: number(value, f"{context}.{key}", lists) for key, value in obj.items()
            if key not in skip}


# a family's parameters and their defaults are the fields of its KernelSpec
KERNEL_FAMILIES = {"zero": ZeroK, "constant": ConstantLower, "constant_lower": ConstantLower,
                   "exp": ExponentialDecay, "exponential": ExponentialDecay,
                   "exponential_decay": ExponentialDecay, "power_law": PowerLaw,
                   "delay_indicator": DelayIndicator}


def parse_kernel(obj, grid: TimeGrid, context: str = "kernel"):
    if not isinstance(obj, dict) or "family" not in obj:
        raise ConfigError(f"{context} must be an object with a 'family' key")
    fam = obj["family"]
    if fam == "tabulated":
        _require_keys(obj, {"family", "scale", "path"}, context)
        if not isinstance(obj.get("path"), str):       # open() takes an int as a descriptor
            raise ConfigError(f"{context}.path must be a file name")
        try:
            with open(obj["path"]) as fh:
                rows = [[float(x) for x in line.replace(",", " ").split()]
                        for line in fh if line.strip()]
        except OSError as exc:
            raise ConfigError(f"cannot read {context} table: {exc}")
        return Tabulated(scale=number(obj.get("scale", 1.0), f"{context}.scale"),
                         table=tuple(map(tuple, rows)))
    if not isinstance(fam, str) or fam not in KERNEL_FAMILIES:
        raise ConfigError(f"unknown kernel family {fam!r} in {context}")
    family = KERNEL_FAMILIES[fam]
    _require_keys(obj, {"family", *(f.name for f in dataclasses.fields(family))}, context)
    return family(**_numbers(obj, context, skip=("family",)))


def _on_grid(values, grid: TimeGrid, listed_n, name: str) -> list | np.ndarray:
    """Listed signal values (the config field name) as floats, on the run's grid.

    A list of exactly listed_n (the config's grid.n) entries, on a run whose n
    differs (--grid-n, oracle-check's n = 8), is interpolated linearly over
    t_k = k T / listed_n onto the run's grid, held constant past its last
    point.  Any other list is returned as given, for deterministic() to check.
    """
    vals = number(values if isinstance(values, list) else [values], name, lists=True)
    if len(vals) in (1, grid.n) or len(vals) != listed_n:
        return vals
    return np.interp(grid.times, build_grid(grid.horizon, len(vals)).times, vals)


def parse_signal(obj, grid: TimeGrid, idio_tag: str, context: str = "signal",
                 listed_n=None) -> CompiledSignal:
    """The signal obj describes, on grid; inline values listed on a grid of
    listed_n points are moved onto it (_on_grid)."""
    if not isinstance(obj, dict) or "family" not in obj:
        raise ConfigError(f"{context} must be an object with a 'family' key")
    fam = obj["family"]
    if fam == "deterministic":
        _require_keys(obj, {"family", "values", "kind", "a", "b", "terminal"}, context)
        kind = obj.get("kind")
        if kind == "affine":
            a, b = (number(obj.get(key, 0.0), f"{context}.{key}") for key in "ab")
            return deterministic(grid, a + b * grid.times, terminal=a + b * grid.horizon)
        vals = obj.get("values")
        if kind is not None or vals is None:
            raise ConfigError(f"{context}: deterministic signal needs 'values' or kind 'affine'")
        term = obj.get("terminal")
        return deterministic(grid, _on_grid(vals, grid, listed_n, f"{context}.values"),
                             terminal=None if term is None else number(term, f"{context}.terminal"))
    noise = obj.get("noise", "idiosyncratic")
    if noise not in ("common", "idiosyncratic"):
        raise ConfigError(f"{context}: noise must be 'common' or 'idiosyncratic', got {noise!r}")
    tag = "common" if noise == "common" else idio_tag
    if fam == "martingale":
        _require_keys(obj, {"family", "sigma", "noise"}, context)
        return martingale(grid, noise=tag, **_numbers(obj, context, skip=("family", "noise")))
    if fam == "ou":
        _require_keys(obj, {"family", "kappa", "sigma", "x0", "noise"}, context)
        return ou(grid, noise=tag, **_numbers(obj, context, skip=("family", "noise")))
    if fam == "combination":
        _require_keys(obj, {"family", "terms"}, context)
        if not obj["terms"]:
            raise ConfigError(f"{context}: a combination needs at least one term")
        return sum(number(c, f"{context}.terms")
                   * parse_signal(s, grid, idio_tag, context, listed_n) for c, s in obj["terms"])
    raise ConfigError(f"unknown signal family {fam!r} in {context}")


def parse_measure(obj, context: str = "measure") -> DelayMeasure:
    _require_keys(obj, {"atoms", "density"}, context)
    atoms = tuple((number(t, f"{context}.atoms"), number(m, f"{context}.atoms"))
                  for t, m in obj.get("atoms", ()))
    dens = obj.get("density")
    return DelayMeasure(atoms=atoms, density=None if dens is None
                        else tuple(number(dens, f"{context}.density", lists=True)))


def _model_from(build, cfg: dict, grid: TimeGrid):
    """build(cfg, grid), with a malformed or inadmissible model raised as ConfigError."""
    # model-parameter violations (inadmissible kernels, convexity, shapes)
    # are configuration errors, not numerical failures
    try:
        return build(cfg, grid)
    except ConfigError:
        raise
    except (VolterraGamesError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid model: {type(exc).__name__}: {exc}")


def build_game_from_config(cfg: dict, grid: TimeGrid):
    return _model_from(_build_game, cfg, grid)


def build_mfg_from_config(cfg: dict, grid: TimeGrid) -> MFGSpec:
    return _model_from(_build_mfg, cfg, grid)


def _build_game(cfg: dict, grid: TimeGrid):
    model = cfg["model"]
    kind = model.get("kind")
    listed_n = cfg["grid"].get("n")
    if kind == "raw":
        _require_keys(model, {"kind", "N", "lam", "a1", "a2hat", "a3", "b", "b0"}, "model")
        N = integer_field(model["N"], "model.N")
        b_list = model["b"]
        if len(b_list) != N:
            raise ConfigError("model.b must list one signal per player")
        return GameSpec(
            n_players=N,
            lam=number(model["lam"], "model.lam"),
            a1=discretize_kernel(parse_kernel(model["a1"], grid, "a1"), grid),
            a2hat=discretize_kernel(parse_kernel(model["a2hat"], grid, "a2hat"), grid),
            a3=discretize_kernel(parse_kernel(model["a3"], grid, "a3"), grid),
            b_signals=tuple(parse_signal(s, grid, f"idio{i}", f"b[{i}]", listed_n)
                            for i, s in enumerate(b_list)),
            b0_signal=parse_signal(model["b0"], grid, "common", "b0", listed_n),
            grid=grid,
        )
    if kind == "liquidation":
        _require_keys(model, {"kind", "N", "lam", "phi", "rho_term", "propagator",
                              "x0", "signal_sigma", "common_signal_sigma"}, "model")
        return build_liquidation_game({
            **_numbers(model, "model", ("kind", "propagator"), lists=True),
            "propagator": parse_kernel(model["propagator"], grid, "propagator")}, grid)[0]
    if kind == "systemic":
        _require_keys(model, {"kind", "N", "beta", "eps", "cost_c", "sigma",
                              "x0", "delay", "h"}, "model")
        return build_systemic_game({**_numbers(model, "model", ("kind", "delay"), lists=True),
                                    "delay": parse_measure(model["delay"], "delay")}, grid)[0]
    if kind == "advertising":
        _require_keys(model, {"kind", "N", "lam", "beta", "forgetting",
                              "competition", "sigma"}, "model")
        measures = {key: parse_measure(model.get(key, {}), key)
                    for key in ("forgetting", "competition")}
        return build_advertising_game(
            {**_numbers(model, "model", ("kind", *measures), lists=True), **measures}, grid)[0]
    raise ConfigError(f"unknown model kind {kind!r}")


def _build_mfg(cfg: dict, grid: TimeGrid) -> MFGSpec:
    model = cfg["model"]
    if model.get("kind") != "mfg":
        raise ConfigError(f"converge and eps-nash need model kind 'mfg', "
                          f"got {model.get('kind')!r}")
    _require_keys(model, {"kind", "lam", "a1", "a2hat", "a3", "b0", "player_base",
                          "player_kind", "amplitude", "shape", "sigma"}, "model")
    listed_n = cfg["grid"].get("n")
    base = parse_signal(model["player_base"], grid, "idio_base", "player_base", listed_n)
    pk = model.get("player_kind", "balanced")
    if pk == "balanced":
        shape = model.get("shape")
        shape = np.sin(np.pi * grid.times / grid.horizon) if shape is None \
            else _on_grid(shape, grid, listed_n, "model.shape")
        family = BalancedDeterministicFamily(
            base=base, amplitude=number(model.get("amplitude", 0.5), "model.amplitude"),
            shape=deterministic(grid, shape))
        beta = base
    elif pk == "iid":
        family = IIDBrownianFamily(base=base, sigma=number(model.get("sigma", 0.5), "model.sigma"))
        beta = family.signal(0, 1)
    else:
        raise ConfigError(f"unknown player_kind {pk!r}")
    return MFGSpec(
        lam=number(model["lam"], "model.lam"),
        a1=discretize_kernel(parse_kernel(model["a1"], grid, "a1"), grid),
        a2hat=discretize_kernel(parse_kernel(model["a2hat"], grid, "a2hat"), grid),
        a3=discretize_kernel(parse_kernel(model["a3"], grid, "a3"), grid),
        beta=beta,
        beta0=deterministic(grid, 0.0),
        b0_signal=parse_signal(model["b0"], grid, "common", "b0", listed_n),
        grid=grid,
        b_infty=base,
        player_family=family,
    )


def _finite(text: str, number=float):
    """A JSON number or constant (NaN, Infinity) as number; ConfigError unless a finite float."""
    if not math.isfinite(float(text)):
        raise ConfigError(f"config numbers must be finite, got {text}")
    return number(text)


def load_config(path: str) -> dict:
    """The config at path; a NaN, an infinity or an out-of-range number is a ConfigError."""
    try:
        with open(path) as fh:
            cfg = json.load(fh, parse_float=_finite, parse_int=lambda text: _finite(text, int),
                            parse_constant=_finite)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    _require_keys(cfg, {"grid", "noise", "model", "run"}, "config")
    for key in ("grid", "model"):
        if key not in cfg:
            raise ConfigError(f"config needs a '{key}' block")
    _require_keys(cfg["grid"], {"T", "n"}, "grid")
    _require_keys(cfg.get("noise", {}), {"paths", "seed"}, "noise")
    _require_keys(cfg.get("run", {}), {"out", "Ns", "tolerances"}, "run")
    if not isinstance(cfg["model"], dict):
        raise ConfigError("model must be an object")
    if not isinstance(cfg.get("run", {}).get("out", ""), str):
        raise ConfigError("run.out must be a string")
    return cfg


def _grid_from(cfg: dict, override_n=None) -> TimeGrid:
    g = cfg["grid"]
    try:
        # the listed n is read even under an override: listed values are interpolated from it
        n = integer_field(g["n"], "grid.n") if "n" in g or override_n is None else None
        return build_grid(number(g["T"], "grid.T"), n if override_n is None else override_n)
    except (KeyError, TypeError, ValueError, InvalidGrid) as exc:
        raise ConfigError(f"invalid grid: {type(exc).__name__}: {exc}")


def _player_counts(cfg: dict) -> list:
    ns = cfg.get("run", {}).get("Ns", [4, 8, 16, 32, 64])
    if isinstance(ns, list) and ns:
        ns = [integer_field(N, "run.Ns") for N in ns]
    # a repeated N gives the slope fit a repeated point: rank-deficient, yet in a bracket
    if not (isinstance(ns, list) and ns and min(ns) >= 1 and len(set(ns)) == len(ns)):
        raise ConfigError(f"run.Ns must be a nonempty list of distinct positive integers, "
                          f"got {ns!r}")
    return ns


def _tolerances(cfg: dict) -> dict:
    given = cfg.get("run", {}).get("tolerances", {})
    _require_keys(given, set(DEFAULT_TOLERANCES), "run.tolerances")
    return {**DEFAULT_TOLERANCES, **_numbers(given, "run.tolerances")}


def write_manifest(out: Path, cfg: dict, seed: int, tolerances: dict, extra: dict,
                   run: dict | None) -> None:
    """manifest.json: the run's inputs, the extra results, and run_record's block last.

    Each number of the run block is right-aligned in RUN_WIDTH characters (JSON
    allows the spaces), so the file's size does not vary with what the run
    cost: repeated runs of one config write outputs of one size.
    """
    text = json.dumps({
        "tool": "volterra-games",
        "version": __version__,
        "generator": GENERATOR_NAME,
        "seed": seed,
        "tolerances": tolerances,
        "config": cfg,
        **extra,
    }, indent=2, sort_keys=True)
    if run is not None:
        fields = ",\n".join(f"    {json.dumps(key)}: {_fixed_width(value)}"
                            for key, value in sorted(run.items()))
        text = f'{text[:-2]},\n  "run": {{\n{fields}\n  }}\n}}'     # text ends "\n}"
    (out / "manifest.json").write_text(text)


def _fixed_width(value) -> str:
    if isinstance(value, str):
        return json.dumps(value)
    return f"{value:{RUN_WIDTH}.6f}" if isinstance(value, float) else f"{value:{RUN_WIDTH}d}"


def run_record(started: float, usage) -> dict | None:
    """What this call of main cost the process, or None where resource is missing.

    Wall time, CPU times and minor page faults since main started (started and
    usage are perf_counter and getrusage read then), and the process's peak
    resident memory so far, in MB of 2^20 bytes as the benchmark reports it.
    """
    if resource is None:
        return None
    now = resource.getrusage(resource.RUSAGE_SELF)
    rss_unit = 2 ** 20 if sys.platform == "darwin" else 2 ** 10   # ru_maxrss: bytes or KiB
    # uname only: platform.platform() scans the interpreter binary for its libc (~15 ms)
    system = platform.uname()
    return {
        "numpy": np.__version__,
        "platform": f"{system.system}-{system.release}-{system.machine}",
        "wall_s": time.perf_counter() - started,
        "utime_s": now.ru_utime - usage.ru_utime,
        "stime_s": now.ru_stime - usage.ru_stime,
        "minflt": now.ru_minflt - usage.ru_minflt,
        "maxrss_mb": now.ru_maxrss / rss_unit,
    }


def keep_freed_heap() -> bool:
    """Set glibc's M_MMAP_THRESHOLD and M_TRIM_THRESHOLD for this process.

    Returns whether both calls took.  Does nothing on another C library
    (no gnu_get_libc_version) or without mallopt; a call glibc refuses
    (returns 0) is left as it is.
    """
    try:
        libc = ctypes.CDLL(None)
    except (OSError, TypeError):    # no handle to the running process (Windows)
        return False
    if not (hasattr(libc, "gnu_get_libc_version") and hasattr(libc, "mallopt")):
        return False
    mallopt = libc.mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return (mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
            and mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD) == 1)


def run_solve(cfg: dict, tol: dict, out: Path, paths: int, seed: int,
              grid_n=None) -> tuple[int, dict]:
    grid = _grid_from(cfg, grid_n)
    spec = build_game_from_config(cfg, grid)
    bundle = draw_noise(grid, spec.noise_tags() or {"common"}, paths, seed)
    # the gates apply after the outputs are written, so a failed run leaves its diagnostics
    sol = solve_nash(spec, bundle)

    # one reduction per strategy over its (n, P) samples, copied contiguous over
    # paths: bitwise equal to numpy's mean/std per row, and the only temporary
    # is one strategy's samples, whose deviations overwrite them
    means = np.empty((grid.n, 1 + spec.n_players))
    stds = np.empty_like(means)
    for j, values in enumerate((sol.ubar, *sol.u)):
        x = values.T.copy()
        means[:, j] = x.mean(axis=1)
        x -= means[:, j, None]
        stds[:, j] = np.sqrt(np.square(x, out=x).mean(axis=1))
    labels = ["mean", *range(1, spec.n_players + 1)]
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "strategies.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "player", "mean", "std"])
        for k, t in enumerate(grid.times):
            for label, m, sd in zip(labels, means[k], stds[k]):
                w.writerow([f"{t:.12g}", label, f"{m:.12g}", f"{sd:.12g}"])
    diagnostics = dict(sol.diagnostics)
    diagnostics.update({"grid_n": grid.n, "paths": paths, "seed": seed,
                        "players": spec.n_players})
    (out / "diagnostics.json").write_text(json.dumps(diagnostics, indent=2, sort_keys=True))
    # written as value <= tol, so that a NaN fails its gate
    passed = all(diagnostics[key] <= tol[name] for key, name in SOLVE_GATES.items())
    return 0 if passed else 1, {"grid_n": grid.n, "paths": paths}


def run_converge(cfg: dict, tol: dict, out: Path, paths: int, seed: int,
                 grid_n=None) -> tuple[int, dict]:
    grid = _grid_from(cfg, grid_n)
    spec = build_mfg_from_config(cfg, grid)
    ns = _player_counts(cfg)
    iid = isinstance(spec.player_family, IIDBrownianFamily)
    idio = spec.player_family.idio_tags(max(ns)) if iid else set()
    if not idio and not spec.common_tags():
        paths = 1          # fully deterministic limit: one path is exact
    noise = draw_crossed_noise(grid, spec.common_tags(), idio, 1, paths, seed)
    study = convergence_study(spec, ns, noise, player_paths=min(paths, 200))

    out.mkdir(parents=True, exist_ok=True)
    rows = study["rows"]
    with open(out / "convergence.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["N", "mse_mean", "mse_player", "slope_running"])
        for j, r in enumerate(rows):
            slope = ""
            if j >= 1:
                slope = f"{fit_loglog_slope([x['N'] for x in rows[:j + 1]], [x['mse_mean'] for x in rows[:j + 1]]):.6g}"
            w.writerow([r["N"], f"{r['mse_mean']:.12g}", f"{r['mse_player']:.12g}", slope])
    bracket = (-1.4, -0.6) if iid else (-2.5, -1.5)
    slope = study.get("slope_mean", float("nan"))
    ok = bracket[0] <= slope <= bracket[1]
    return 0 if ok else 1, {"slope_mean": slope, "bracket": bracket, "slope_ok": ok,
                            "grid_n": grid.n, "paths": paths}


def run_eps_nash(cfg: dict, tol: dict, out: Path, paths: int, seed: int,
                 grid_n=None) -> tuple[int, dict]:
    grid = _grid_from(cfg, grid_n)
    spec = build_mfg_from_config(cfg, grid)
    ns = _player_counts(cfg)
    rows = []
    for N in ns:
        idio = set()
        if isinstance(spec.player_family, IIDBrownianFamily):
            idio = spec.player_family.idio_tags(N)
        noise = draw_crossed_noise(grid, spec.common_tags(), idio, 1, paths, seed)
        res = best_response_gap(spec, N, noise)
        rows.append({"N": N, "gap": res["gap"], "mc_stderr": res["stderr"]})
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "epsnash.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["N", "gap", "mc_stderr"])
        for r in rows:
            w.writerow([r["N"], f"{r['gap']:.12g}", f"{r['mc_stderr']:.12g}"])
    gaps = [max(r["gap"], 0.0) for r in rows]
    slope = fit_loglog_slope([r["N"] for r in rows], np.maximum(gaps, 1e-300)) \
        if len(rows) > 1 else float("nan")
    # one N has no slope to gate; past it a NaN slope fails, as slope <= -0.4 is False
    ok = len(rows) == 1 or slope <= -0.4
    return 0 if ok else 1, {"gap_slope": slope, "slope_ok": bool(ok), "grid_n": grid.n,
                            "paths": paths}


def run_validate(cfg: dict, tol: dict, out: Path, paths: int, seed: int,
                 grid_n=None) -> tuple[int, dict]:
    grid = _grid_from(cfg, grid_n)
    spec = build_game_from_config(cfg, grid)
    paths = max(4, min(paths, 16))
    report = validation_report(spec, paths=paths, seed=seed, tolerances=tol)
    out.mkdir(parents=True, exist_ok=True)
    (out / "validate.json").write_text(json.dumps(report, indent=2, sort_keys=True))
    return 0 if report["passed"] else 1, {"grid_n": grid.n, "paths": paths}


def run_oracle_check(cfg: dict, tol: dict, out: Path, paths: int, seed: int,
                     grid_n=None) -> tuple[int, dict]:
    from .oracle import build_tree, compare, discrete_nash_kkt, solve_game_on_tree

    grid = _grid_from(cfg, grid_n)
    if grid.n > 8:
        grid = build_grid(grid.horizon, 8)
    spec = build_game_from_config(cfg, grid)
    tree = build_tree(spec, branching=2, depth=min(5, grid.n - 1))
    diff = compare(discrete_nash_kkt(spec, tree), solve_game_on_tree(spec, tree), tree)
    out.mkdir(parents=True, exist_ok=True)
    (out / "oracle.json").write_text(json.dumps(
        {"max_abs_diff": diff, "tolerance": tol["oracle"],
         "leaves": tree.n_leaves, "nodes": tree.total_nodes}, indent=2))
    return 0 if diff <= tol["oracle"] else 1, {"oracle_diff": diff, "oracle_grid_n": grid.n}


RUNNERS = {
    "solve": run_solve,
    "converge": run_converge,
    "eps-nash": run_eps_nash,
    "validate": run_validate,
    "oracle-check": run_oracle_check,
}


def main(argv=None) -> int:
    started = time.perf_counter()
    usage = resource.getrusage(resource.RUSAGE_SELF) if resource is not None else None
    parser = argparse.ArgumentParser(
        prog="volgames",
        description="Nash equilibria of LQ stochastic games with Volterra-operator costs")
    parser.add_argument("command", choices=list(RUNNERS))
    parser.add_argument("--config", required=True, help="path to the JSON run configuration")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--paths", type=int, default=None, help="Monte Carlo paths, at least 1")
    parser.add_argument("--seed", type=int, default=None, help="noise seed, at least 0")
    parser.add_argument("--grid-n", type=int, default=None, help="override grid point count")
    parser.add_argument("--oracle", action="store_true",
                        help="also run the oracle comparison after solve or validate")
    args = parser.parse_args(argv)
    keep_freed_heap()

    try:
        if args.oracle and args.command in ("converge", "eps-nash"):
            raise ConfigError(f"--oracle applies to solve and validate, not {args.command}")
        cfg = load_config(args.config)
        noise_cfg = cfg.get("noise", {})
        # read whatever the flags say: a malformed config value is an error either way
        paths = integer_field(noise_cfg.get("paths", 64), "noise.paths")
        seed = integer_field(noise_cfg.get("seed", 0), "noise.seed")
        paths = paths if args.paths is None else args.paths
        seed = seed if args.seed is None else args.seed
        if paths < 1 or seed < 0:
            raise ConfigError(f"need paths >= 1 and seed >= 0, got paths={paths}, seed={seed}")
        out = Path(cfg.get("run", {}).get("out", args.out)) if args.out == "out" \
            else Path(args.out)
        tol = _tolerances(cfg)
        commands = [args.command]
        if args.oracle and args.command != "oracle-check":
            commands.append("oracle-check")
        extras = {}         # the sizes each command ran at, and its results
        for command in commands:
            code, extra = RUNNERS[command](cfg, tol, out, paths, seed, args.grid_n)
            extras.update(extra)
            write_manifest(out, cfg, seed, tol, extras, run_record(started, usage))
            if code != 0:
                break
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except VolterraGamesError as exc:
        print(f"numerical error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())

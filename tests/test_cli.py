import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from volterra_games import cli
from volterra_games.cli import build_game_from_config, main
from volterra_games.grid_ops import build_grid, symmetrized_form
from volterra_games.nplayer import foc_residual, solve_nash
from volterra_games.signals import draw_noise

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "run_configs"
# every shipped config with the subcommands the README runs it through
SHIPPED = [(path.name, command) for path in sorted(CONFIGS.glob("*.json"))
           for command in (("converge", "eps-nash")
                           if json.loads(path.read_text())["model"]["kind"] == "mfg"
                           else ("solve",))]

RAW_MODEL = {
    "kind": "raw", "N": 2, "lam": 1.0,
    "a1": {"family": "zero"},
    "a2hat": {"family": "exp", "c": 0.5, "rho": 2.0},
    "a3": {"family": "constant", "c": 0.2},
    "b": [
        {"family": "combination", "terms": [
            [1.0, {"family": "deterministic", "kind": "affine", "a": 1.0, "b": 0.5}],
            [1.0, {"family": "martingale", "sigma": 0.4, "noise": "idiosyncratic"}]]},
        {"family": "ou", "kappa": 2.0, "sigma": 0.3, "x0": 1.0, "noise": "common"},
    ],
    "b0": {"family": "deterministic", "values": [0.25]},
}

MFG_MODEL = json.loads((CONFIGS / "mfg_convergence.json").read_text())["model"]
WORKED = {name: json.loads((CONFIGS / f"{name}.json").read_text())["model"]
          for name in ("systemic", "liquidation", "advertising")}
SRC_PATH = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)


def widened_systemic(players):
    """run_configs/systemic.json with per-bank sigma and x0 cycled to `players` banks."""
    cfg = json.loads((CONFIGS / "systemic.json").read_text())
    model = cfg["model"]
    model["N"] = players
    for key in ("sigma", "x0"):
        model[key] = [model[key][i % len(model[key])] for i in range(players)]
    return cfg


def write_cfg(tmp_path, model, grid=None, noise=None, run=None, name="cfg.json"):
    cfg = {"grid": grid or {"T": 1.0, "n": 12},
           "noise": noise or {"paths": 6, "seed": 3},
           "model": model}
    if run is not None:
        cfg["run"] = run
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


class TestConfigErrors:
    def test_malformed_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"grid": nope')
        assert main(["solve", "--config", str(p), "--out", str(tmp_path / "o")]) == 2

    def test_unknown_top_level_key(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"grid": {"T": 1, "n": 8}, "model": RAW_MODEL,
                                 "extra": 1}))
        assert main(["solve", "--config", str(p), "--out", str(tmp_path / "o")]) == 2

    def test_unknown_model_key(self, tmp_path):
        model = dict(RAW_MODEL)
        model["mystery"] = True
        p = write_cfg(tmp_path, model)
        assert main(["solve", "--config", str(p), "--out", str(tmp_path / "o")]) == 2

    def test_inadmissible_power_law_is_config_error(self, tmp_path):
        model = dict(RAW_MODEL)
        model["a2hat"] = {"family": "power_law", "c": 1.0, "alpha": 0.6}
        p = write_cfg(tmp_path, model)
        assert main(["solve", "--config", str(p), "--out", str(tmp_path / "o")]) == 2

    def test_missing_grid_block(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"model": RAW_MODEL}))
        assert main(["solve", "--config", str(p), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("block, key", [("noise", "common_paths"), ("run", "deviation_scale")])
    def test_unread_key_is_rejected(self, tmp_path, block, key):
        blocks = {"noise": {"paths": 6, "seed": 3}, "run": {}}
        blocks[block][key] = 2
        p = write_cfg(tmp_path, RAW_MODEL, noise=blocks["noise"], run=blocks["run"])
        assert main(["solve", "--config", str(p), "--out", str(tmp_path / "o")]) == 2

    # each once ended in a traceback (exit 1), was reported as a numerical error
    # (exit 3) or, for --grid-n 0, was ignored in favour of the config's n; and
    # --paths 0 once wrote NaN statistics with exit 0
    @pytest.mark.parametrize("command, overrides, argv", [
        ("solve", {"grid": 5}, []),
        ("solve", {"grid": {"T": "abc", "n": 12}}, []),
        ("solve", {"grid": {"T": 1.0, "n": 1}}, []),
        ("solve", {}, ["--grid-n", "1"]),
        ("solve", {}, ["--grid-n", "0"]),
        ("solve", {"noise": {"paths": "many", "seed": 3}}, []),
        ("solve", {"model": {**RAW_MODEL, "N": "two"}}, []),
        ("solve", {"model": {k: v for k, v in RAW_MODEL.items() if k != "lam"}}, []),
        ("converge", {"model": {k: v for k, v in MFG_MODEL.items() if k != "lam"}}, []),
        ("converge", {"model": {**MFG_MODEL, "lam": -1.0}}, []),
        ("converge", {"model": {**MFG_MODEL,
                                "a2hat": {"family": "power_law", "c": 1.0, "alpha": 0.9}}}, []),
        ("converge", {"run": {"Ns": "abc"}}, []),
        ("solve", {"model": {**RAW_MODEL, "b0": {"family": "combination", "terms": []}}}, []),
        ("solve", {"model": {**RAW_MODEL,
                             "b0": {"family": "deterministic", "values": [1.0, 2.0, 3.0]}}},
         []),
        ("solve", {}, ["--paths", "0"]),
        ("solve", {}, ["--paths", "-1"]),
        ("solve", {}, ["--seed", "-1"]),
        ("solve", {"noise": {"paths": 0, "seed": 3}}, []),
        ("solve", {"noise": {"paths": 6, "seed": -3}}, []),
        ("validate", {}, ["--paths", "0"]),
        ("oracle-check", {}, ["--seed", "-1"]),
        ("converge", {}, ["--paths", "-1"]),
        ("eps-nash", {}, ["--paths", "0"]),
        ("eps-nash", {}, ["--seed", "-1"]),
        # int() once truncated these (2.7 players ran as 2) or let a boolean through
        ("solve", {"model": {**RAW_MODEL, "N": 2.7}}, []),
        ("solve", {"grid": {"T": 1.0, "n": 16.9}}, []),
        ("solve", {"noise": {"paths": 3.5, "seed": 3}}, []),
        ("solve", {"noise": {"paths": 6, "seed": 1.5}}, []),
        ("solve", {"noise": {"paths": True, "seed": 3}}, []),
        ("eps-nash", {"run": {"Ns": [True, 2]}}, []),
        ("converge", {"run": {"Ns": [2.5, 4]}}, []),
        # a repeated N once fit the convergence slope through two equal points (exit 0)
        ("converge", {"run": {"Ns": [8, 8]}}, []),
        ("eps-nash", {"run": {"Ns": [8, 8]}}, []),
        ("solve", {"model": {**WORKED["systemic"], "N": 3.5}}, []),
        ("solve", {"model": {**WORKED["liquidation"], "N": 2.5}}, []),
        ("solve", {"model": {**WORKED["advertising"], "N": True}}, []),
        # run.tolerances once went unchecked: 5 ended in a TypeError (exit 1), and a
        # misspelled key ran with the gate the user meant left at its default (exit 0)
        ("solve", {"run": {"tolerances": 5}}, []),
        ("solve", {"run": {"tolerances": {"fredholm_residul": 0.0}}}, []),
        ("solve", {"run": {"tolerances": {"foc_residual": "1e-8"}}}, []),
        ("solve", {"run": {"tolerances": {"foc_residual": None}}}, []),
        ("solve", {"run": {"tolerances": {"foc_residual": True}}}, []),
        ("validate", {"run": {"tolerances": {"admissibility": float("nan")}}}, []),
        ("solve", {"run": {"tolerances": {"mean_consistency": float("inf")}}}, []),
        ("solve", {"run": {"tolerances": {"oracle": [1e-8]}}}, []),
        # json reads NaN, Infinity and numbers past float's range: a NaN once ran to
        # NaN diagnostics (exit 0), lam Infinity ended in SingularOperator (exit 3) and
        # 10^999, written out in digits, in an OverflowError (exit 1)
        ("solve", {"model": {**RAW_MODEL,
                             "b0": {"family": "deterministic", "values": [float("nan")]}}},
         []),
        ("solve", {"model": {**RAW_MODEL, "lam": float("inf")}}, []),
        ("solve", {"model": {**RAW_MODEL, "lam": 10 ** 999}}, []),
        # each once ended in a ZeroDivisionError or an IndexError (exit 1)
        ("solve", {"model": {**WORKED["systemic"], "N": 0}}, []),
        ("solve", {"model": {**WORKED["advertising"], "N": 0}}, []),
        ("solve", {"model": {**WORKED["systemic"], "sigma": [0.2, 0.2]}}, []),
        ("solve", {"model": {**WORKED["advertising"], "sigma": [0.3]}}, []),
        ("solve", {"model": {**WORKED["systemic"], "x0": [1.0, 0.5]}}, []),
        ("solve", {"model": {**WORKED["liquidation"], "signal_sigma": [0.2]}}, []),
        # float() once read these: a string or a boolean ran as its number (exit 0),
        # and "Infinity" as a string passed the finite check (SingularOperator, exit 3)
        ("solve", {"model": {**RAW_MODEL, "lam": "2"}}, []),
        ("solve", {"model": {**RAW_MODEL, "lam": True}}, []),
        ("solve", {"model": {**RAW_MODEL, "a2hat": {"family": "exp", "c": "0.5"}}}, []),
        ("solve", {"model": {**RAW_MODEL,
                             "b0": {"family": "deterministic", "values": ["0.25"]}}}, []),
        ("solve", {"model": {**WORKED["systemic"], "sigma": ["0.2", "0.2", "0.2"]}}, []),
        ("solve", {"model": {**WORKED["liquidation"], "lam": "1e-3"}}, []),
        ("solve", {"grid": {"T": "1.0", "n": 12}}, []),
        ("solve", {"model": {**RAW_MODEL, "lam": "Infinity"}}, []),
        # a misspelled noise or deterministic kind ran as the default (exit 0)
        ("solve", {"model": {**RAW_MODEL, "b0": {"family": "martingale", "noise": "commn"}}},
         []),
        ("solve", {"model": {**RAW_MODEL, "b0": {"family": "deterministic", "kind": "afine",
                                                 "values": [0.25]}}}, []),
        # these ended in an AttributeError or a TypeError (exit 1)
        ("solve", {"model": None}, []),
        ("solve", {"model": []}, []),
        ("solve", {"run": {"out": 5}}, []),
        # a one-value h row ran with the drift held at x0 and 0.5 dt added at T (exit 0)
        ("solve", {"model": {**WORKED["systemic"], "h": [[0.5], [0.5], [0.5]]}}, []),
        # a nested list is not its one number: systemic's sigma ran so (exit 0), and
        # values, once refused only by float() of a one-element array, stay refused
        ("solve", {"model": {**RAW_MODEL,
                             "b0": {"family": "deterministic", "values": [[0.25]]}}}, []),
        ("solve", {"model": {**WORKED["systemic"], "sigma": [[0.2], [0.2], [0.2]]}}, []),
        # an indefinite mean-field kernel was found only by the first induced game,
        # outside the config stage (InadmissibleKernel, exit 3)
        ("converge", {"model": {**MFG_MODEL, "a1": {"family": "constant", "c": -1.0}}}, []),
        ("eps-nash", {"model": {**MFG_MODEL, "a3": {"family": "exp", "c": 0.4, "rho": -1.0}}},
         []),
        # the mean-field commands ran a model of any kind as the mean-field game (exit 0)
        ("eps-nash", {"model": {**MFG_MODEL, "kind": "mgf"}}, []),
        # a flag that overrides a noise value once left it unread (exit 0)
        ("solve", {"noise": {"paths": "text", "seed": 3}}, ["--paths", "2"]),
        ("solve", {"noise": {"paths": 6, "seed": [0.5]}}, ["--seed", "1"]),
        ("converge", {"noise": {"paths": 6.5, "seed": 3}}, ["--paths", "2"]),
    ], ids=["grid-not-object", "T-not-number", "n-1", "grid-n-1", "grid-n-0",
            "paths-not-integer", "N-not-integer", "raw-lam-missing", "mfg-lam-missing",
            "mfg-lam-negative", "mfg-alpha-0.9", "Ns-not-list", "combination-empty",
            "deterministic-wrong-length", "paths-0", "paths-negative", "seed-negative",
            "noise-paths-0", "noise-seed-negative", "validate-paths-0",
            "oracle-check-seed-negative", "converge-paths-negative", "eps-nash-paths-0",
            "eps-nash-seed-negative", "N-fractional", "grid-n-fractional",
            "noise-paths-fractional", "noise-seed-fractional", "noise-paths-bool", "Ns-bool",
            "Ns-fractional", "Ns-repeated", "eps-nash-Ns-repeated", "systemic-N-fractional",
            "liquidation-N-fractional", "advertising-N-bool", "tolerances-not-object", "tolerance-misspelled",
            "tolerance-string", "tolerance-null", "tolerance-bool", "tolerance-nan",
            "tolerance-inf", "tolerance-list", "values-nan", "lam-inf", "lam-10**999",
            "systemic-N-0", "advertising-N-0", "systemic-sigma-short",
            "advertising-sigma-short", "systemic-x0-short", "liquidation-signal-sigma-short",
            "lam-string", "lam-bool", "kernel-c-string", "values-string",
            "systemic-sigma-strings", "liquidation-lam-string", "T-string", "lam-string-inf",
            "noise-misspelled", "deterministic-kind-misspelled", "model-null", "model-list",
            "out-not-string", "systemic-h-row-short", "values-nested",
            "systemic-sigma-nested", "mfg-a1-indefinite",
            "eps-nash-a3-indefinite", "mfg-kind-misspelled", "noise-paths-string-under-flag",
            "noise-seed-list-under-flag", "converge-noise-paths-fractional-under-flag"])
    def test_malformed_value_exits_2(self, tmp_path, command, overrides, argv):
        game = command in ("solve", "validate", "oracle-check")
        cfg = {"grid": {"T": 1.0, "n": 12}, "noise": {"paths": 6, "seed": 3},
               "model": RAW_MODEL if game else MFG_MODEL, **overrides}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert main([command, "--config", str(p), "--out", str(tmp_path / "o"), *argv]) == 2

    def test_number_past_float_range_exits_2(self, tmp_path):
        # json reads the literal 1e999 as inf; json.dumps cannot write it, so it is put in
        p = write_cfg(tmp_path, {**RAW_MODEL, "lam": 1234.5})
        p.write_text(p.read_text().replace("1234.5", "1e999"))
        assert main(["solve", "--config", str(p), "--out", str(tmp_path / "o")]) == 2

    def test_integer_tolerance_is_a_number(self, tmp_path):
        p = write_cfg(tmp_path, RAW_MODEL, run={"tolerances": {"foc_residual": 1}})
        out = tmp_path / "o"
        assert main(["solve", "--config", str(p), "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["tolerances"]["foc_residual"] == 1

    def test_integral_floats_are_integers(self, tmp_path):
        p = write_cfg(tmp_path, RAW_MODEL, name="int.json")
        q = write_cfg(tmp_path, {**RAW_MODEL, "N": 2.0}, grid={"T": 1.0, "n": 12.0},
                      noise={"paths": 6.0, "seed": 3.0}, name="float.json")
        assert main(["solve", "--config", str(p), "--out", str(tmp_path / "a")]) == 0
        assert main(["solve", "--config", str(q), "--out", str(tmp_path / "b")]) == 0
        for name in ("strategies.csv", "diagnostics.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestSolve:
    def test_artifacts_and_reproducibility(self, tmp_path):
        p = write_cfg(tmp_path, RAW_MODEL)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["solve", "--config", str(p), "--out", str(out1)]) == 0
        assert main(["solve", "--config", str(p), "--out", str(out2)]) == 0
        s1 = (out1 / "strategies.csv").read_bytes()
        s2 = (out2 / "strategies.csv").read_bytes()
        assert s1 == s2
        diag = json.loads((out1 / "diagnostics.json").read_text())
        assert diag["fredholm_residual_max"] <= 1e-9
        assert diag["mean_gap"] <= 1e-6

    def test_diagnostics_report_margins_and_condition_estimates(self, tmp_path):
        p = write_cfg(tmp_path, RAW_MODEL)
        out = tmp_path / "o"
        assert main(["solve", "--config", str(p), "--out", str(out)]) == 0
        diag = json.loads((out / "diagnostics.json").read_text())
        spec = build_game_from_config(json.loads(p.read_text()), build_grid(1.0, 12))
        for name, K in (("A1", spec.a1), ("A2hat", spec.a2hat), ("A3", spec.a3)):
            assert diag[f"min_eig_{name}"] == np.linalg.eigvalsh(symmetrized_form(K))[0]
        assert diag["cond1_est_D_mean_0"] >= 1.0
        assert diag["cond1_est_D_player_0"] >= 1.0

    def test_residual_tolerance_failure_exits_1(self, tmp_path):
        p = write_cfg(tmp_path, RAW_MODEL, run={"tolerances": {"fredholm_residual": 0.0}})
        out = tmp_path / "o"
        assert main(["solve", "--config", str(p), "--out", str(out)]) == 1
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["fredholm_residual_max"] > 0.0

    @pytest.mark.parametrize("name, key", [("foc_residual", "foc_residual_max"),
                                           ("mean_consistency", "mean_gap")])
    def test_every_reported_tolerance_is_gated(self, tmp_path, name, key):
        # a negative tolerance fails whatever the rounding; the outputs are still written
        p = write_cfg(tmp_path, RAW_MODEL, run={"tolerances": {name: -1.0}})
        out = tmp_path / "o"
        assert main(["solve", "--config", str(p), "--out", str(out)]) == 1
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag[key] >= 0.0
        assert (out / "strategies.csv").exists()

    def test_nan_diagnostic_fails_its_gate(self, tmp_path, monkeypatch):
        # NaN > tol is False: a gate written that way once passed a NaN residual (exit 0)
        def nan_foc(spec, bundle):
            sol = solve_nash(spec, bundle)
            sol.diagnostics["foc_residual_max"] = float("nan")
            return sol

        monkeypatch.setattr(cli, "solve_nash", nan_foc)
        p = write_cfg(tmp_path, RAW_MODEL)
        assert main(["solve", "--config", str(p), "--out", str(tmp_path / "o")]) == 1

    def test_manifest_completeness(self, tmp_path):
        runs = [("solve", RAW_MODEL, None), ("converge", MFG_MODEL, {"Ns": [4, 8]})]
        for command, model, run in runs:
            p = write_cfg(tmp_path, model, run=run, name=f"{command}.json")
            out = tmp_path / command
            assert main([command, "--config", str(p), "--out", str(out)]) == 0
            man = json.loads((out / "manifest.json").read_text())
            assert man["seed"] == 3
            assert "version" in man and "generator" in man
            assert man["config"]["model"]["kind"] == model["kind"]
            assert set(man["tolerances"]) >= {"fredholm_residual", "mean_consistency",
                                              "foc_residual", "oracle"}
            if cli.resource is None:
                assert "run" not in man
                continue
            cost = man["run"]
            assert set(cost) == {"numpy", "platform", "wall_s", "utime_s", "stime_s",
                                 "minflt", "maxrss_mb"}
            assert cost["numpy"] == np.__version__ and cost["platform"]
            assert cost["wall_s"] > 0.0 and cost["utime_s"] >= 0.0 and cost["stime_s"] >= 0.0
            assert cost["minflt"] >= 0 and cost["maxrss_mb"] > 10.0
        # the run's cost goes to the manifest only: diagnostics.json stays reproducible
        assert not set(json.loads((tmp_path / "solve" / "diagnostics.json").read_text())) \
            & {"run", *cost}

    def test_zero_kernel_strategies_follow_driver(self, tmp_path):
        model = {
            "kind": "raw", "N": 1, "lam": 1.0,
            "a1": {"family": "zero"}, "a2hat": {"family": "zero"},
            "a3": {"family": "zero"},
            "b": [{"family": "deterministic", "kind": "affine", "a": 1.0, "b": 1.0}],
            "b0": {"family": "deterministic", "values": [0.0]},
        }
        p = write_cfg(tmp_path, model, noise={"paths": 2, "seed": 0})
        out = tmp_path / "o"
        assert main(["solve", "--config", str(p), "--out", str(out)]) == 0
        rows = (out / "strategies.csv").read_text().strip().splitlines()[1:]
        grid_n = 12
        for row in rows:
            t, player, mean, std = row.split(",")
            expect = (1.0 + float(t)) / 2.0
            assert abs(float(mean) - expect) < 1e-9
            assert abs(float(std)) < 1e-12

    def test_seed_override_changes_output(self, tmp_path):
        p = write_cfg(tmp_path, RAW_MODEL)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["solve", "--config", str(p), "--out", str(out1)]) == 0
        assert main(["solve", "--config", str(p), "--out", str(out2), "--seed", "99"]) == 0
        assert (out1 / "strategies.csv").read_bytes() != (out2 / "strategies.csv").read_bytes()


class TestSolveOutputs:
    """The CLI reports the equilibrium that solve_nash and foc_residual describe."""

    @pytest.mark.parametrize("name", ["systemic_n16", "raw_game"])
    def test_diagnostics_and_statistics_match_the_solution(self, tmp_path, name):
        cfg = (widened_systemic(16) if name == "systemic_n16"
               else json.loads((CONFIGS / "raw_game.json").read_text()))
        cfg["grid"]["n"] = 32
        cfg["noise"]["paths"] = 20
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        assert main(["solve", "--config", str(path), "--out", str(out)]) == 0

        grid = build_grid(cfg["grid"]["T"], 32)
        spec = build_game_from_config(cfg, grid)
        bundle = draw_noise(grid, spec.noise_tags() or {"common"}, 20, cfg["noise"]["seed"])
        sol = solve_nash(spec, bundle)
        foc = max(foc_residual(spec, sol, i) for i in range(spec.n_players))
        assert abs(sol.diagnostics["foc_residual_max"] - foc) <= 1e-12 * foc
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["foc_residual_max"] == sol.diagnostics["foc_residual_max"]

        # rows per time step: the mean strategy, then players 1..N
        rows = (out / "strategies.csv").read_text().strip().splitlines()[1:]
        table = np.array([[float(x) for x in row.split(",")[2:]] for row in rows])
        table = table.reshape(grid.n, 1 + spec.n_players, 2)
        samples = np.concatenate([sol.ubar[None], sol.u])
        # printed to 12 significant digits
        np.testing.assert_allclose(table[..., 0], samples.mean(axis=1).T, rtol=1e-11, atol=1e-15)
        np.testing.assert_allclose(table[..., 1], samples.std(axis=1).T, rtol=1e-11, atol=1e-15)


class TestValidate:
    def test_default_passes(self, tmp_path):
        p = write_cfg(tmp_path, RAW_MODEL)
        out = tmp_path / "o"
        assert main(["validate", "--config", str(p), "--out", str(out)]) == 0
        report = json.loads((out / "validate.json").read_text())
        assert report["passed"]
        names = {c["name"] for c in report["checks"]}
        assert {"adjoint_pairing", "resolvent_identity", "fredholm_residual",
                "mean_consistency", "foc_residual"} <= names

    def test_validate_model_builders(self, tmp_path):
        model = {"kind": "systemic", "N": 2, "beta": 0.3, "eps": 0.25, "cost_c": 1.0,
                 "sigma": [0.1, 0.2], "x0": [1.0, 0.5],
                 "delay": {"atoms": [[0.0, 1.0], [0.3, -1.0]]}}
        p = write_cfg(tmp_path, model)
        assert main(["validate", "--config", str(p), "--out", str(tmp_path / "o")]) == 0

    def test_convexity_violation_is_config_error(self, tmp_path):
        model = {"kind": "systemic", "N": 2, "beta": 0.8, "eps": 0.25, "cost_c": 1.0,
                 "sigma": [0.0, 0.0], "x0": [1.0, 0.5],
                 "delay": {"atoms": [[0.0, 1.0]]}}
        p = write_cfg(tmp_path, model)
        assert main(["validate", "--config", str(p), "--out", str(tmp_path / "o")]) == 2


class TestOracleCheck:
    def test_raw_game_passes(self, tmp_path):
        p = write_cfg(tmp_path, RAW_MODEL, grid={"T": 1.0, "n": 6})
        out = tmp_path / "o"
        assert main(["oracle-check", "--config", str(p), "--out", str(out)]) == 0
        res = json.loads((out / "oracle.json").read_text())
        assert res["max_abs_diff"] <= 1e-8

    def test_liquidation_passes(self, tmp_path):
        model = {"kind": "liquidation", "N": 2, "lam": 1.0, "phi": 0.5,
                 "rho_term": 1.0, "propagator": {"family": "exp", "c": 1.0, "rho": 2.0},
                 "x0": [1.0, 2.0], "signal_sigma": [0.2, 0.0]}
        p = write_cfg(tmp_path, model, grid={"T": 1.0, "n": 6})
        assert main(["oracle-check", "--config", str(p), "--out", str(tmp_path / "o")]) == 0

    def test_oversized_tree_exits_3(self, tmp_path, capsys):
        # the shipped systemic game needs 308,955 unknowns, past the tree budget
        cfg = Path(__file__).resolve().parents[1] / "run_configs" / "systemic.json"
        out = tmp_path / "o"
        assert main(["oracle-check", "--config", str(cfg), "--out", str(out)]) == 3
        assert "SizeExceeded" in capsys.readouterr().err
        assert not (out / "oracle.json").exists()


class TestStudies:
    def test_converge_balanced(self, tmp_path):
        model = {"kind": "mfg", "lam": 1.0,
                 "a1": {"family": "constant", "c": 0.2},
                 "a2hat": {"family": "exp", "c": 0.6, "rho": 1.5},
                 "a3": {"family": "exp", "c": 0.4, "rho": 1.0},
                 "b0": {"family": "deterministic", "values": [0.4]},
                 "player_base": {"family": "deterministic", "values": [1.0]},
                 "player_kind": "balanced", "amplitude": 0.5}
        p = write_cfg(tmp_path, model, noise={"paths": 1, "seed": 0},
                      run={"Ns": [4, 8, 16, 32]})
        out = tmp_path / "o"
        assert main(["converge", "--config", str(p), "--out", str(out)]) == 0
        rows = (out / "convergence.csv").read_text().strip().splitlines()
        assert rows[0] == "N,mse_mean,mse_player,slope_running"
        assert len(rows) == 5
        man = json.loads((out / "manifest.json").read_text())
        assert -2.5 <= man["slope_mean"] <= -1.5

    def test_single_n_has_empty_slope(self, tmp_path):
        model = {"kind": "mfg", "lam": 1.0,
                 "a1": {"family": "zero"},
                 "a2hat": {"family": "exp", "c": 0.6, "rho": 1.5},
                 "a3": {"family": "exp", "c": 0.4, "rho": 1.0},
                 "b0": {"family": "deterministic", "values": [0.4]},
                 "player_base": {"family": "deterministic", "values": [1.0]},
                 "player_kind": "balanced", "amplitude": 0.5}
        p = write_cfg(tmp_path, model, noise={"paths": 1, "seed": 0}, run={"Ns": [4]})
        out = tmp_path / "o"
        main(["converge", "--config", str(p), "--out", str(out)])
        rows = (out / "convergence.csv").read_text().strip().splitlines()
        assert rows[1].endswith(",")  # no slope for a single N

    def test_eps_nash_table(self, tmp_path):
        model = {"kind": "mfg", "lam": 1.0,
                 "a1": {"family": "constant", "c": 0.2},
                 "a2hat": {"family": "exp", "c": 0.6, "rho": 1.5},
                 "a3": {"family": "exp", "c": 0.4, "rho": 1.0},
                 "b0": {"family": "deterministic", "values": [0.4]},
                 "player_base": {"family": "deterministic", "values": [1.0]},
                 "player_kind": "iid", "sigma": 0.5}
        p = write_cfg(tmp_path, model, noise={"paths": 24, "seed": 1},
                      run={"Ns": [4, 8, 16]})
        out = tmp_path / "o"
        assert main(["eps-nash", "--config", str(p), "--out", str(out)]) == 0
        rows = (out / "epsnash.csv").read_text().strip().splitlines()
        assert rows[0] == "N,gap,mc_stderr"
        gaps = [float(r.split(",")[1]) for r in rows[1:]]
        assert all(g >= -1e-12 for g in gaps)
        assert gaps[0] > gaps[-1]


    def test_nan_gap_fails_eps_nash(self, tmp_path, monkeypatch):
        # NaN gaps fit a NaN slope, which once passed as "not finite" (exit 0)
        gap = cli.best_response_gap

        def nan_gap(spec, N, noise):
            return {**gap(spec, N, noise), "gap": float("nan")}

        monkeypatch.setattr(cli, "best_response_gap", nan_gap)
        p = write_cfg(tmp_path, MFG_MODEL, noise={"paths": 4, "seed": 1}, run={"Ns": [4, 8]})
        assert main(["eps-nash", "--config", str(p), "--out", str(tmp_path / "o")]) == 1


class TestTabulatedKernel:
    def test_csv_kernel_roundtrip(self, tmp_path):
        # tabulated copy of an exponential-decay discretization: same solution
        from volterra_games.grid_ops import ExponentialDecay, build_grid, discretize_kernel

        n = 8
        g = build_grid(1.0, n)
        vals = discretize_kernel(ExponentialDecay(c=0.5, rho=2.0), g).values
        csv_path = tmp_path / "kernel.csv"
        csv_path.write_text("\n".join(",".join(f"{x:.17g}" for x in row) for row in vals))
        base_model = {
            "kind": "raw", "N": 1, "lam": 1.0,
            "a1": {"family": "zero"},
            "a2hat": {"family": "exp", "c": 0.5, "rho": 2.0},
            "a3": {"family": "zero"},
            "b": [{"family": "deterministic", "values": [1.0]}],
            "b0": {"family": "deterministic", "values": [0.0]},
        }
        tab_model = dict(base_model)
        tab_model["a2hat"] = {"family": "tabulated", "path": str(csv_path)}
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["solve", "--config", str(write_cfg(tmp_path, base_model, grid={"T": 1.0, "n": n}, name="c1.json")), "--out", str(out_a)]) == 0
        assert main(["solve", "--config", str(write_cfg(tmp_path, tab_model, grid={"T": 1.0, "n": n}, name="c2.json")), "--out", str(out_b)]) == 0
        assert (out_a / "strategies.csv").read_bytes() == (out_b / "strategies.csv").read_bytes()

    def test_tabulated_oracle_check(self, tmp_path):
        n = 6
        vals = 0.3 * np.tril(np.ones((n, n)), k=-1)
        csv_path = tmp_path / "kernel.csv"
        csv_path.write_text("\n".join(" ".join(str(x) for x in row) for row in vals))
        model = {
            "kind": "raw", "N": 2, "lam": 1.0,
            "a1": {"family": "zero"},
            "a2hat": {"family": "tabulated", "path": str(csv_path)},
            "a3": {"family": "zero"},
            "b": [{"family": "martingale", "sigma": 0.5, "noise": "common"},
                  {"family": "deterministic", "values": [1.0]}],
            "b0": {"family": "deterministic", "values": [0.1]},
        }
        p = write_cfg(tmp_path, model, grid={"T": 1.0, "n": n})
        assert main(["oracle-check", "--config", str(p), "--out", str(tmp_path / "o")]) == 0

    def test_missing_table_exits_2(self, tmp_path):
        # an unreadable table once escaped as a FileNotFoundError traceback, exit 1
        cfg = json.loads((CONFIGS / "raw_game.json").read_text())
        missing = tmp_path / "no_such_kernel.csv"
        cfg["model"]["a2hat"] = {"family": "tabulated", "path": str(missing)}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        res = subprocess.run([sys.executable, "-m", "volterra_games.cli", "solve",
                              "--config", str(p), "--out", str(tmp_path / "o")],
                             env=dict(os.environ, PYTHONPATH=SRC_PATH),
                             capture_output=True, text=True, timeout=600)
        assert res.returncode == 2
        assert "config error" in res.stderr
        assert "a2hat" in res.stderr and str(missing) in res.stderr
        assert "Traceback" not in res.stderr


class TestOracleFlag:
    def test_solve_with_oracle_append(self, tmp_path):
        p = write_cfg(tmp_path, RAW_MODEL, grid={"T": 1.0, "n": 6})
        out = tmp_path / "o"
        assert main(["solve", "--config", str(p), "--out", str(out), "--oracle"]) == 0
        assert (out / "strategies.csv").exists()
        assert (out / "oracle.json").exists()

    @pytest.mark.parametrize("command", ["converge", "eps-nash"])
    def test_refused_for_mean_field_studies(self, tmp_path, command):
        # the oracle needs a finite game: these once wrote their table, then exited 2
        p = write_cfg(tmp_path, MFG_MODEL, grid={"T": 1.0, "n": 8}, run={"Ns": [2, 4]})
        out = tmp_path / "o"
        assert main([command, "--config", str(p), "--out", str(out), "--oracle"]) == 2
        assert not out.exists()


class TestManifestSizes:
    """manifest.json records the grid size and path count a run used, not the config's."""

    BALANCED = {**MFG_MODEL, "player_kind": "balanced", "amplitude": 0.5}
    BALANCED.pop("sigma")

    @pytest.mark.parametrize("argv, n", [([], 12), (["--grid-n", "20"], 20)])
    def test_diagnostics_record_the_grid(self, tmp_path, argv, n):
        p = write_cfg(tmp_path, RAW_MODEL)
        out = tmp_path / "o"
        assert main(["solve", "--config", str(p), "--out", str(out), *argv]) == 0
        assert json.loads((out / "diagnostics.json").read_text())["grid_n"] == n

    @pytest.mark.parametrize("command, model, argv, expect", [
        ("solve", RAW_MODEL, [], {"grid_n": 12, "paths": 6}),
        ("solve", RAW_MODEL, ["--grid-n", "32", "--paths", "3"], {"grid_n": 32, "paths": 3}),
        ("validate", RAW_MODEL, ["--paths", "40"], {"grid_n": 12, "paths": 16}),
        ("oracle-check", RAW_MODEL, [], {"oracle_grid_n": 8}),
        ("solve", RAW_MODEL, ["--oracle", "--grid-n", "10"],
         {"grid_n": 10, "paths": 6, "oracle_grid_n": 8}),
        ("eps-nash", MFG_MODEL, ["--grid-n", "8", "--paths", "4"], {"grid_n": 8, "paths": 4}),
        # no noise tag at all: one path is exact, whatever the config asks for
        ("converge", BALANCED, ["--grid-n", "16"], {"grid_n": 16, "paths": 1}),
    ], ids=["config", "overrides", "validate-cap", "oracle-shrink", "solve-oracle",
            "eps-nash", "converge-deterministic"])
    def test_effective_sizes(self, tmp_path, command, model, argv, expect):
        p = write_cfg(tmp_path, model, run={"Ns": [2, 4]} if model["kind"] == "mfg" else None)
        out = tmp_path / "o"
        assert main([command, "--config", str(p), "--out", str(out), *argv]) == 0
        man = json.loads((out / "manifest.json").read_text())
        assert {key: man.get(key) for key in expect} == expect
        assert man["config"]["grid"]["n"] == 12      # the echo stays the config as read


class TestListedSignalsOnAnotherGrid:
    """Inline values list the config's grid; a run on another n interpolates them."""

    T, N = 1.0, 64
    LISTED = np.cos(3.0 * np.arange(N) / N).tolist()

    def raw_cfg(self, tmp_path, values):
        model = {**RAW_MODEL, "b0": {"family": "deterministic", "values": values}}
        return write_cfg(tmp_path, model, grid={"T": self.T, "n": self.N})

    def test_the_listed_grid_takes_the_values_as_given(self, tmp_path):
        cfg = json.loads(self.raw_cfg(tmp_path, self.LISTED).read_text())
        spec = build_game_from_config(cfg, build_grid(self.T, self.N))
        assert spec.b0_signal.mean.tolist() == self.LISTED

    @pytest.mark.parametrize("n", [8, 32, 100])
    def test_values_are_interpolated_onto_the_run_grid(self, tmp_path, n):
        cfg = json.loads(self.raw_cfg(tmp_path, self.LISTED).read_text())
        grid = build_grid(self.T, n)
        spec = build_game_from_config(cfg, grid)
        listed_t = np.arange(self.N) * (self.T / self.N)
        assert np.array_equal(spec.b0_signal.mean, np.interp(grid.times, listed_t, self.LISTED))

    @pytest.mark.parametrize("command, argv", [("solve", ["--grid-n", "32", "--paths", "3"]),
                                               ("oracle-check", [])])
    def test_resized_runs_succeed(self, tmp_path, command, argv):
        p = self.raw_cfg(tmp_path, self.LISTED)
        assert main([command, "--config", str(p), "--out", str(tmp_path / "o"), *argv]) == 0

    def test_any_other_length_is_a_config_error(self, tmp_path):
        p = self.raw_cfg(tmp_path, self.LISTED[:-1])
        out = str(tmp_path / "o")
        assert main(["solve", "--config", str(p), "--out", out, "--grid-n", "32"]) == 2

    def test_mean_field_shape_is_interpolated(self, tmp_path):
        model = {**MFG_MODEL, "player_kind": "balanced", "amplitude": 0.5,
                 "shape": self.LISTED}
        model.pop("sigma")
        cfg = json.loads(write_cfg(tmp_path, model, grid={"T": self.T, "n": self.N})
                         .read_text())
        base = cli.build_mfg_from_config(cfg, build_grid(self.T, self.N)).player_family
        grid = build_grid(self.T, 16)
        family = cli.build_mfg_from_config(cfg, grid).player_family
        listed_t = np.arange(self.N) * (self.T / self.N)
        assert base.shape.mean.tolist() == self.LISTED
        assert np.array_equal(family.shape.mean, np.interp(grid.times, listed_t, self.LISTED))


class TestShippedConfigs:
    @pytest.mark.parametrize("config, command", SHIPPED)
    def test_documented_subcommand_succeeds(self, tmp_path, config, command):
        out = tmp_path / "o"
        assert main([command, "--config", str(CONFIGS / config), "--grid-n", "16",
                     "--out", str(out)]) == 0

    def test_output_does_not_depend_on_hash_seed(self, tmp_path):
        # noise tags are strings; any sum over them in set order would differ
        # between interpreters with different PYTHONHASHSEED values
        outputs = []
        for hash_seed in ("0", "1", "2"):
            out = tmp_path / f"o{hash_seed}"
            subprocess.run(
                [sys.executable, "-m", "volterra_games.cli", "solve",
                 "--config", str(CONFIGS / "systemic.json"), "--grid-n", "32",
                 "--paths", "16", "--out", str(out)],
                env=dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=SRC_PATH),
                check=True, timeout=600)
            outputs.append([(out / name).read_bytes()
                            for name in ("strategies.csv", "diagnostics.json")])
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]


class TestInProcessReruns:
    """main called twice in one process, as the benchmark calls it: no state a call
    leaves behind (memos, cached properties, the allocator policy) reaches the outputs."""

    @pytest.mark.parametrize("command, config, grid_n, files", [
        ("solve", "raw_game.json", 128, ("strategies.csv", "diagnostics.json")),
        ("solve", "systemic.json", 32, ("strategies.csv", "diagnostics.json")),
        ("converge", "mfg_convergence.json", 16, ("convergence.csv",)),
        ("eps-nash", "mfg_convergence.json", 8, ("epsnash.csv",)),
    ])
    def test_rerun_is_byte_identical(self, tmp_path, command, config, grid_n, files):
        outs = [tmp_path / "first", tmp_path / "second"]
        for out in outs:
            assert main([command, "--config", str(CONFIGS / config), "--grid-n", str(grid_n),
                         "--out", str(out)]) == 0
        for name in files:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        # the run block's figures differ, its size does not
        sizes = {(out / "manifest.json").stat().st_size for out in outs}
        assert len(sizes) == 1
        assert all(json.loads((out / "manifest.json").read_text())["grid_n"] == grid_n
                   for out in outs)


# the third of three in-process solves: minor page faults it takes
FAULT_PROBE = """
import resource, sys
from volterra_games.cli import main
argv = ["solve", "--config", sys.argv[1], "--grid-n", sys.argv[2], "--paths", "4",
        "--out", sys.argv[3]]
for _ in range(2):
    assert main(argv) == 0
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
assert main(argv) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestAllocatorPolicy:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the policy is glibc's")
    @pytest.mark.parametrize("grid_n", [128, 256])
    def test_repeated_solve_keeps_its_heap(self, tmp_path, grid_n):
        # with glibc's default thresholds the third solve faulted 964 pages at n = 128
        # and 6,597 at n = 256, as every freed n x n array went back to the kernel
        res = subprocess.run([sys.executable, "-c", FAULT_PROBE, str(CONFIGS / "raw_game.json"),
                              str(grid_n), str(tmp_path / "o")],
                             env=dict(os.environ, PYTHONPATH=SRC_PATH),
                             capture_output=True, text=True, check=True, timeout=300)
        assert int(res.stdout) <= 200

    @pytest.mark.parametrize("libc", [
        SimpleNamespace(),                                           # not glibc, no mallopt
        SimpleNamespace(gnu_get_libc_version=lambda: b"2.36"),       # glibc without mallopt
        SimpleNamespace(gnu_get_libc_version=lambda: b"2.36",
                        mallopt=lambda param, value: 0),             # glibc refusing both
        None,                                                        # no process handle
    ], ids=["other-libc", "no-mallopt", "mallopt-refuses", "no-handle"])
    def test_main_runs_without_the_policy(self, tmp_path, monkeypatch, libc):
        p = write_cfg(tmp_path, RAW_MODEL)
        assert main(["solve", "--config", str(p), "--out", str(tmp_path / "with")]) == 0

        def cdll(name):
            if libc is None:
                raise OSError("no handle")
            return libc

        monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
        assert cli.keep_freed_heap() is False
        out = tmp_path / "without"
        assert main(["solve", "--config", str(p), "--out", str(out)]) == 0
        assert (out / "strategies.csv").read_bytes() == \
            (tmp_path / "with" / "strategies.csv").read_bytes()
        bad = write_cfg(tmp_path, {**RAW_MODEL, "N": 2.5}, name="bad.json")
        assert main(["solve", "--config", str(bad), "--out", str(out)]) == 2


IMPORT_PROBE = """
import sys
before = set(sys.modules)
import volterra_games, volterra_games.cli
loaded = {name.split(".")[0] for name in set(sys.modules) - before}
from importlib.metadata import packages_distributions
print(sorted(loaded & set(packages_distributions()) - {"numpy", "volterra_games"}))
"""


def test_numpy_is_the_only_third_party_import():
    # of the modules that installed distributions provide, the package and its CLI load numpy only
    res = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                         env=dict(os.environ, PYTHONPATH=SRC_PATH),
                         capture_output=True, text=True, check=True, timeout=120)
    assert res.stdout.strip() == "[]"

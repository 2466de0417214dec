"""The work ledger: exact counts of the solver's work on every shipped config.

Each shipped solve config runs in-process at n = 64 with 4 paths, and the
convergence study at n = 32 at its shipped path count, with the layers'
functions wrapped where the package calls them.  LEDGER pins, per run:

- the factorizations (fredholm.build_Dt), as the grid size of each;
- the coefficient solves: FredholmSolver.solve solves each distinct weight
  array once, so a call counts its driver's distinct arrays;
- the grid_ops.lower_product calls and the multiply-adds of the GEMMs they
  run, worked out from the operands' size and the triangle argument;
- the numpy.linalg.eigvalsh calls (the admissibility margins);
- the tag samples, signals.adapted_values calls: one product with a tag's
  increments per row block (CompiledSignal.tag_values makes one, path_values
  one per tag).

The counts are exact and repeat on every run.  A change that lowers one
updates LEDGER in its diff; one that raises one says why.  Counting must not
change an output: a wrapped run writes the bytes an unwrapped run writes.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from volterra_games import cli, fredholm, nplayer, signals
from volterra_games.fredholm import FredholmSolver
from volterra_games.grid_ops import TRI_BLOCK

CONFIGS = Path(__file__).resolve().parent.parent / "run_configs"
SOLVE = ["solve", "--grid-n", "64", "--paths", "4"]
# run -> (shipped config, banks to widen systemic to or None, command line)
RUNS = {
    "raw_game": ("raw_game", None, SOLVE),
    "systemic": ("systemic", None, SOLVE),
    "systemic_n16": ("systemic_n16", None, SOLVE),
    # the benchmark's solve_systemic_n16 game: 16 banks of one sigma
    "systemic_16_banks": ("systemic", 16, SOLVE),
    "liquidation": ("liquidation", None, SOLVE),
    "advertising": ("advertising", None, SOLVE),
    "mfg_convergence": ("mfg_convergence", None, ["converge", "--grid-n", "32"]),
}
OUTPUTS = {"solve": ["strategies.csv", "diagnostics.json"], "converge": ["convergence.csv"]}

KEYS = ("factorizations", "solves", "lower_products", "multiply_adds", "eigvalsh", "tag_samples")
LEDGER = {
    # two factorizations (mean and player problems) at n = 64 per solve; the
    # multiply-adds are 64^3 per lower_product, one block
    "raw_game": dict(zip(KEYS, ([64, 64], 6, 24, 6_291_456, 2, 18))),
    # 3 banks of one sigma: 9 solves and 36 lower_products while each tag
    # solved its own parts
    "systemic": dict(zip(KEYS, ([64, 64], 3, 12, 3_145_728, 2, 30))),
    # 16 banks over 3 sigma values: 48 solves, 192 lower_products and
    # 50,331,648 multiply-adds while each tag solved its own parts
    "systemic_n16": dict(zip(KEYS, ([64, 64], 9, 36, 9_437_184, 2, 160))),
    # 16 banks of one sigma: 1 mean-strategy solve and 2 player parts, the
    # bank's own and the mean field's, for all 16 tags; 48 solves (16 + 32) and
    # 192 lower_products while each tag solved its own parts
    "systemic_16_banks": dict(zip(KEYS, ([64, 64], 3, 12, 3_145_728, 2, 160))),
    # the reduced worked models carry no noise tags at the shipped parameters;
    # advertising's kernels are all zero, so its margins need no eigensolver
    "liquidation": dict(zip(KEYS, ([64, 64], 0, 0, 0, 2, 0))),
    "advertising": dict(zip(KEYS, ([64, 64], 0, 0, 0, 0, 0))),
    # the limit and five induced games; the study samples its own row blocks
    "mfg_convergence": dict(zip(KEYS, ([32] * 12, 16, 37, 1_212_416, 18, 0))),
}


def multiply_adds(n: int, triangle) -> int:
    """Multiply-adds of lower_product's GEMMs on (n, n) operands, block by block as it runs them."""
    total = 0
    for j in range(0, n, TRI_BLOCK):
        width = min(j + TRI_BLOCK, n) - j
        if triangle is None:
            total += (n - j) ** 2 * width
            continue
        for r in range(j, n, TRI_BLOCK):
            rows = min(r + TRI_BLOCK, n) - r
            total += rows * (n - r if triangle == "upper" else r + rows - j) * width
    return total


def run(name: str, out: Path) -> int:
    config, banks, argv = RUNS[name]
    cfg = json.loads((CONFIGS / f"{config}.json").read_text())
    if banks:
        model = cfg["model"]
        model["N"] = banks
        for key in ("sigma", "x0"):
            model[key] = [model[key][i % len(model[key])] for i in range(banks)]
    out.mkdir()
    (out / "config.json").write_text(json.dumps(cfg))
    return cli.main([argv[0], "--config", str(out / "config.json"), *argv[1:], "--out", str(out)])


def counted(name: str, out: Path, monkeypatch) -> dict:
    """LEDGER's counts for one run of name, its outputs written to out."""
    counts = dict.fromkeys(KEYS[1:], 0)
    factorizations = []
    build_Dt, solve = fredholm.build_Dt, FredholmSolver.solve
    lower_product, eigvalsh = fredholm.lower_product, np.linalg.eigvalsh
    adapted_values = signals.adapted_values

    def counted_build_Dt(K, lam_eff):
        factorizations.append(K.grid.n)
        return build_Dt(K, lam_eff)

    def counted_solve(self, f):
        counts["solves"] += len({id(w) for w in f.weights.values()})
        return solve(self, f)

    def counted_lower_product(A, W, triangle=None):
        counts["lower_products"] += 1
        counts["multiply_adds"] += multiply_adds(W.shape[0], triangle)
        return lower_product(A, W, triangle)

    def counted_eigvalsh(a, *args, **kwargs):
        counts["eigvalsh"] += 1
        return eigvalsh(a, *args, **kwargs)

    def counted_adapted_values(w, increments):
        counts["tag_samples"] += 1
        return adapted_values(w, increments)

    monkeypatch.setattr(fredholm, "build_Dt", counted_build_Dt)
    monkeypatch.setattr(FredholmSolver, "solve", counted_solve)
    for module in (fredholm, nplayer, signals):
        monkeypatch.setattr(module, "lower_product", counted_lower_product)
    for module in (nplayer, signals):
        monkeypatch.setattr(module, "adapted_values", counted_adapted_values)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    assert run(name, out) == 0
    monkeypatch.undo()
    return {"factorizations": factorizations, **counts}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_work_ledger(name, tmp_path, monkeypatch):
    counts = counted(name, tmp_path / "counted", monkeypatch)
    assert counts == LEDGER[name]
    # the counting changes no output
    assert run(name, tmp_path / "plain") == 0
    for file in OUTPUTS[RUNS[name][2][0]]:
        assert (tmp_path / "counted" / file).read_bytes() == (tmp_path / "plain" / file).read_bytes()

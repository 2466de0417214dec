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
  one per tag; the convergence study one per distinct weight array of each
  sampled signal, or per tag outside the array its most tags share);
- the reduction's work on a dynamic game (model_builders): the row maps, one
  (2n x (n + 1)) @ ((n + 1) x n) GEMM R[c] @ w each over the state's n + 1
  rows, and their multiply-adds; the folds of a row pair into b^i and the b^0
  remainder (one per call, the means' included); and the multiply-adds of
  the kernel block's one (2n x 2(n + 1)) @ (2(n + 1) x 2n) GEMM.

The counts are exact and repeat on every run.  A change that lowers one
updates LEDGER in its diff; one that raises one says why.  Counting must not
change an output: a wrapped run writes the bytes an unwrapped run writes.
"""

import copy
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from volterra_games import cli, fredholm, meanfield, model_builders, nplayer, signals
from volterra_games.fredholm import FredholmSolver
from volterra_games.grid_ops import TRI_BLOCK
from volterra_games.signals import CompiledSignal

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

KEYS = ("factorizations", "solves", "lower_products", "multiply_adds", "eigvalsh", "tag_samples",
        "row_maps", "row_map_multiply_adds", "folds", "kernel_block_multiply_adds")
LEDGER = {
    # two factorizations (mean and player problems) at n = 64 per solve; the
    # multiply-adds are 64^3 per lower_product, one block; the solver samples
    # each part's strategy, residual and FOC, 18 tag samples while it sampled
    # the driver too
    "raw_game": dict(zip(KEYS, ([64, 64], 6, 24, 6_291_456, 2, 16, 0, 0, 0, 0))),
    # the reduced games below each form one kernel block of 128 x 130 x 128
    # multiply-adds, and each row map 128 x 65 x 64: 65/64 of its multiply-adds
    # while the terminal column was a separate np.outer
    # 3 banks of one sigma: 9 solves and 36 lower_products while each tag
    # solved its own parts; 6 row maps and 9 folds while the reduction went by
    # signal object and by tag; 30 tag samples while the driver was sampled
    "systemic": dict(zip(KEYS, ([64, 64], 3, 12, 3_145_728, 2, 24, 2, 1_064_960, 5,
                                  2_129_920))),
    # 16 banks over 3 sigma values: 48 solves, 192 lower_products and
    # 50,331,648 multiply-adds while each tag solved its own parts; 32 row maps
    # and 48 folds while the reduction went by signal object and by tag; 160
    # tag samples while the driver was sampled
    "systemic_n16": dict(zip(KEYS, ([64, 64], 9, 36, 9_437_184, 2, 128,
                                      6, 3_194_880, 22, 2_129_920))),
    # 16 banks of one sigma: 1 mean-strategy solve and 2 player parts, the
    # bank's own and the mean field's, for all 16 tags; 48 solves (16 + 32) and
    # 192 lower_products while each tag solved its own parts.  The reduction
    # maps the one own-reserve value and the mean field's one value, and folds
    # the 16 means and the 2 row pairs every tag shares: 32 row maps and 48
    # folds while it mapped each state signal's tags one by one and folded
    # each tag's row pairs apart; 160 tag samples while the driver was sampled
    "systemic_16_banks": dict(zip(KEYS, ([64, 64], 3, 12, 3_145_728, 2, 128,
                                           2, 1_064_960, 18, 2_129_920))),
    # the reduced worked models carry no noise tags at the shipped parameters;
    # advertising's kernels are all zero, so its margins need no eigensolver;
    # liquidation's 2 players carry 2 price weight values over 3 tags (4 row
    # maps and 8 folds by signal object and by tag): 2 means and 2 source
    # tuples fold, 5 folds while they folded per (sources, b^0 weights)
    "liquidation": dict(zip(KEYS, ([64, 64], 0, 0, 0, 2, 0, 2, 1_064_960, 4, 2_129_920))),
    "advertising": dict(zip(KEYS, ([64, 64], 0, 0, 0, 0, 0, 4, 2_129_920, 6, 2_129_920))),
    # the limit and five induced games; the study samples 2000 paths, one row
    # block: each N's mean once, each N's player 1 once for its own tag and once
    # for the others', and the mean-field player once (16 products), while it
    # formed 249 products, one per tag, inline and uncounted
    "mfg_convergence": dict(zip(KEYS, ([32] * 12, 16, 37, 1_212_416, 18, 16, 0, 0, 0, 0))),
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


def config(name: str) -> dict:
    """The config of run name: the shipped one, systemic widened to its banks."""
    shipped, banks, _ = RUNS[name]
    cfg = json.loads((CONFIGS / f"{shipped}.json").read_text())
    if banks:
        model = cfg["model"]
        model["N"] = banks
        for key in ("sigma", "x0"):
            model[key] = [model[key][i % len(model[key])] for i in range(banks)]
    return cfg


def run(name: str, out: Path, cfg: dict | None = None) -> int:
    """Run name's command line on its config, or on cfg, writing the outputs to out."""
    argv = RUNS[name][2]
    out.mkdir()
    (out / "config.json").write_text(json.dumps(cfg or config(name)))
    return cli.main([argv[0], "--config", str(out / "config.json"), *argv[1:], "--out", str(out)])


def counting(monkeypatch) -> dict:
    """LEDGER's counts, filled in as the package runs until monkeypatch is undone."""
    counts = {"factorizations": [], **dict.fromkeys(KEYS[1:], 0)}
    build_Dt, solve = fredholm.build_Dt, FredholmSolver.solve
    lower_product, eigvalsh = fredholm.lower_product, np.linalg.eigvalsh
    adapted_values = signals.adapted_values
    row_map, fold = model_builders._row_map, model_builders._fold
    kernel_block = model_builders._kernel_block

    def counted_build_Dt(K, lam_eff):
        counts["factorizations"].append(K.grid.n)
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

    def counted_row_map(Rc, w):
        counts["row_maps"] += 1
        counts["row_map_multiply_adds"] += Rc.shape[0] * Rc.shape[1] * (Rc.shape[1] - 1)
        return row_map(Rc, w)

    def counted_fold(*args):
        counts["folds"] += 1
        return fold(*args)

    def counted_kernel_block(DW, D):
        K, n = D.shape[:2]
        counts["kernel_block_multiply_adds"] += 2 * n * 2 * K * 2 * n
        return kernel_block(DW, D)

    monkeypatch.setattr(fredholm, "build_Dt", counted_build_Dt)
    monkeypatch.setattr(FredholmSolver, "solve", counted_solve)
    for module in (fredholm, signals):
        monkeypatch.setattr(module, "lower_product", counted_lower_product)
    for module in (nplayer, signals, meanfield):
        monkeypatch.setattr(module, "adapted_values", counted_adapted_values)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    monkeypatch.setattr(model_builders, "_row_map", counted_row_map)
    monkeypatch.setattr(model_builders, "_fold", counted_fold)
    monkeypatch.setattr(model_builders, "_kernel_block", counted_kernel_block)
    return counts


def counted(name: str, out: Path, monkeypatch) -> dict:
    """LEDGER's counts for one run of name, its outputs written to out."""
    counts = counting(monkeypatch)
    assert run(name, out) == 0
    monkeypatch.undo()
    return counts


@pytest.mark.parametrize("name", sorted(RUNS))
def test_work_ledger(name, tmp_path, monkeypatch):
    counts = counted(name, tmp_path / "counted", monkeypatch)
    assert counts == LEDGER[name]
    # the counting changes no output
    assert run(name, tmp_path / "plain") == 0
    for file in OUTPUTS[RUNS[name][2][0]]:
        assert (tmp_path / "counted" / file).read_bytes() == (tmp_path / "plain" / file).read_bytes()


def copied_players(reduce):
    """reduce_volterra_game on its game with each player's state and target copied apart."""
    return lambda vspec: reduce(replace(
        vspec, d_signals=tuple(copy.deepcopy(pair) for pair in vspec.d_signals),
        s_terminals=tuple(copy.deepcopy(s) for s in vspec.s_terminals)))


def shared_players(game_spec):
    """GameSpec with every player's signal holding player 0's arrays under its own tags."""
    def build(**fields):
        first = fields["b_signals"][0]
        fields["b_signals"] = tuple(
            CompiledSignal(f.grid, first.mean, dict(zip(f.weights, first.weights.values())))
            for f in fields["b_signals"])
        return game_spec(**fields)
    return build


@pytest.mark.parametrize("case", ["systemic_16_banks", "raw_equal_players"])
def test_copies_do_the_work_of_shared_arrays(case, tmp_path, monkeypatch):
    # the same game from value-equal arrays held as separate objects and from shared
    # objects writes the same bytes and does the same work
    if case == "systemic_16_banks":
        # the builder's banks share one mean field; the copies hold one each
        name, cfg = case, config(case)
        patches = {"shared": None,
                   "copies": (model_builders, "reduce_volterra_game", copied_players)}
    else:
        # two raw players of one signal: each parsed apart, or both on player 0's arrays
        name, cfg = "raw_game", config("raw_game")
        cfg["model"]["b"][1] = cfg["model"]["b"][0]
        patches = {"shared": (cli, "GameSpec", shared_players), "copies": None}
    written = []
    for variant, patch in patches.items():
        counts = counting(monkeypatch)
        if patch:
            module, attr, wrap = patch
            monkeypatch.setattr(module, attr, wrap(getattr(module, attr)))
        assert run(name, tmp_path / variant, cfg) == 0
        monkeypatch.undo()
        written.append((counts, [(tmp_path / variant / f).read_bytes() for f in OUTPUTS["solve"]]))
    assert written[0] == written[1]

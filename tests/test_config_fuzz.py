"""The CLI on mutated shipped configs: every malformed value exits cleanly.

Each example takes one config from run_configs/, shortens its run (a small
grid, two paths, run.Ns = [2, 4]) and changes one node of its JSON tree: drops
it, swaps its type, puts a non-finite, zero or negative number in its place,
shortens or lengthens a list, or names an unknown family, noise or kind.  main
runs in-process and must return an exit code from 0 to 3 without raising; a
config error (exit 2) is reported as one, with no traceback, and a run that
exits 0 writes finite outputs that a rerun repeats byte for byte.
Derandomized, so every run checks the same examples.
"""

import contextlib
import copy
import csv
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from volterra_games.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "run_configs"
SHIPPED = {path.name: json.loads(path.read_text()) for path in sorted(CONFIGS.glob("*.json"))}
NAMED = ("family", "noise", "kind", "player_kind")
SWAPS = ("text", True, [0.5], None, {"x": 1.0}, math.nan, math.inf, -math.inf, 0, -1.0)


def short_run(cfg: dict) -> dict:
    cfg = copy.deepcopy(cfg)
    cfg["run"]["Ns"] = [2, 4]
    if cfg["model"]["kind"] != "mfg":
        del cfg["run"]["Ns"]
    return cfg


def nodes(obj, path=()):
    """The path (a tuple of keys and indices) of every node below obj."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) \
        if isinstance(obj, list) else ()
    for key, value in items:
        yield (*path, key)
        yield from nodes(value, (*path, key))


def mutations(cfg: dict):
    """(path, mutation) pairs that apply to cfg's nodes."""
    for path in nodes(cfg):
        value = at(cfg, path[:-1])[path[-1]]
        if isinstance(at(cfg, path[:-1]), dict):
            yield path, ("drop",)
        yield from ((path, ("set", swap)) for swap in SWAPS)
        if isinstance(value, list):
            yield from ((path, (change,)) for change in ("shorten", "lengthen"))
        if path[-1] in NAMED:
            yield path, ("set", "unknown")


def at(cfg, path):
    for key in path:
        cfg = cfg[key]
    return cfg


def mutate(cfg: dict, path: tuple, mutation: tuple) -> dict:
    cfg = copy.deepcopy(cfg)
    parent, key = at(cfg, path[:-1]), path[-1]
    if mutation[0] == "drop":
        del parent[key]
    elif mutation[0] == "set":
        parent[key] = mutation[1]
    elif mutation[0] == "shorten":
        parent[key] = parent[key][:-1]
    else:
        parent[key] = parent[key] + parent[key][-1:]
    return cfg


CASES = [(name, command, path, mutation)
         for name, cfg in SHIPPED.items()
         for command in (("converge", "eps-nash") if cfg["model"]["kind"] == "mfg"
                         else ("solve",))
         for path, mutation in mutations(short_run(cfg))]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(case=st.sampled_from(CASES), grid_n=st.sampled_from([4, 9, 16]))
def test_mutated_config_exits_cleanly(case, grid_n):
    name, command, path, mutation = case
    cfg = mutate(short_run(SHIPPED[name]), path, mutation)
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "cfg.json"
        config.write_text(json.dumps(cfg))
        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, "--config", str(config), "--out", str(out),
                         "--grid-n", str(grid_n), "--paths", "2"])
        assert code in (0, 1, 2, 3), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert "config error" in err.getvalue()
        if code == 0:
            rerun = Path(tmp) / "rerun"
            with contextlib.redirect_stderr(io.StringIO()):
                assert main([command, "--config", str(config), "--out", str(rerun),
                             "--grid-n", str(grid_n), "--paths", "2"]) == 0
            for table in out.glob("*.csv"):
                with open(table) as fh:
                    rows = list(csv.DictReader(fh))
                assert rows
                assert all(math.isfinite(float(value)) for row in rows
                           for key, value in row.items() if key != "player" and value != "")
                assert table.read_bytes() == (rerun / table.name).read_bytes()

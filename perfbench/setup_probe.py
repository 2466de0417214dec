"""Time one set-up in a fresh interpreter: import, config load and spec build.

    python3 perfbench/setup_probe.py CONFIG COMMAND N

COMMAND is the volgames subcommand the config is for; N the grid size.
Prints ``{"setup_s": seconds}``.  run.py calls this several times per run.
"""

import time

t0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import volterra_games  # noqa: E402
from volterra_games import cli  # noqa: E402

config, command, n = sys.argv[1], sys.argv[2], int(sys.argv[3])
cfg = cli.load_config(config)
grid = volterra_games.build_grid(float(cfg["grid"]["T"]), n)
build = cli.build_mfg_from_config if command == "converge" else cli.build_game_from_config
build(cfg, grid)
print(json.dumps({"setup_s": time.perf_counter() - t0}))

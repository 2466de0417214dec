"""Benchmark of the ``volgames`` command line, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload solve_systemic_n16 --seed 1 --seconds 30 --trace 0

Each workload drives one ``volgames`` subcommand in-process through
``volterra_games.cli.main(argv)``, so every layer runs in the order users see
(config, model reduction, kernels, signals, D_t setup, solves, diagnostics,
CSV/JSON).  ``--trace 0`` reports the end-to-end metrics named in
BENCHMARK.json; ``--trace 1`` wraps the layers' public functions
(``tracing.py``) and reports the per-layer metrics.  Every call's outputs are
checked; a failed check counts the call as failed.  The last line of standard
output is the JSON result.  See README.md for the workloads and the
predictions they test.
"""

from __future__ import annotations

import os

# One BLAS thread for every workload: with the default two OpenBLAS threads
# the n=512 set-up spread 22% (IQR/median) between repeats, with one 1.6%.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import csv
import gzip
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference"

# The CLI's DEFAULT_TOLERANCES for the gated diagnostics, fixed here so that
# the gate does not move with the program.
TOLERANCES = {"fredholm_residual_max": 1e-9, "foc_residual_max": 1e-8, "mean_gap": 1e-6}
CSV_TOLERANCE = 1e-8        # the oracle gate, absolute
VARIANTS = 4                # noise seeds per workload that have a stored reference
SETUP_PROBES = 7
TRACED_PAIRS = 5            # caps the spans a traced run holds in memory
PROBE_TIMEOUT_S = 60


@dataclass(frozen=True)
class Workload:
    """One ``volgames`` run: a shipped config widened to the benchmark's size."""

    name: str
    config: str             # file under run_configs/
    command: str            # volgames subcommand
    output: str             # the CSV checked against the stored reference
    n: int
    paths: int
    smoke_paths: int
    players: int = 0        # systemic only: widen to this many banks
    flags: bool = False     # pass n and paths as --grid-n/--paths, not in the config

    def inputs(self, seed: int, smoke: bool) -> tuple[dict, list[str], int]:
        """Config, extra CLI flags and grid size for this workload and seed."""
        cfg = json.loads((ROOT / "run_configs" / self.config).read_text())
        n = 8 if smoke else self.n
        paths = self.smoke_paths if smoke else self.paths
        noise_seed = int(cfg["noise"]["seed"]) + seed % VARIANTS
        cfg["noise"]["seed"] = noise_seed
        model = cfg["model"]
        if self.players:
            model["N"] = self.players
            for key in ("sigma", "x0"):
                model[key] = [model[key][i % len(model[key])] for i in range(self.players)]
        argv = ["--seed", str(noise_seed)]
        if self.flags:
            argv += ["--grid-n", str(n), "--paths", str(paths)]
        else:
            cfg["grid"]["n"] = n
            cfg["noise"]["paths"] = paths
        return cfg, argv, n

    def reference(self, seed: int, smoke: bool) -> Path:
        size = "smoke" if smoke else "full"
        return REFERENCE / f"{self.name}-{size}-v{seed % VARIANTS}.csv.gz"


WORKLOADS = {w.name: w for w in (
    Workload("solve_systemic_n16", "systemic.json", "solve", "strategies.csv",
             n=64, paths=100, smoke_paths=2, players=16),
    Workload("setup_raw_n512", "raw_game.json", "solve", "strategies.csv",
             n=512, paths=4, smoke_paths=2, flags=True),
    # P=2 leaves the converge slope gate to chance (4 of 8 seeds fail at n=8);
    # 50 paths pass it on 40 of 40 seeds.
    Workload("converge_mfg_1e4", "mfg_convergence.json", "converge", "convergence.csv",
             n=64, paths=10_000, smoke_paths=50),
)}


# --- output checks -----------------------------------------------------------

def _read_csv(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def _csv_problems(got: list[list[str]], want: list[list[str]]) -> list[str]:
    if len(got) != len(want) or got[:1] != want[:1]:
        return [f"CSV shape/header differs: {len(got)} rows vs reference {len(want)}"]
    for r, (row, ref) in enumerate(zip(got, want)):
        if len(row) != len(ref):
            return [f"CSV row {r} has {len(row)} cells, reference {len(ref)}"]
        for c, (a, b) in enumerate(zip(row, ref)):
            try:
                diff = abs(float(a) - float(b))
            except ValueError:
                if a != b:
                    return [f"CSV row {r} col {c}: {a!r} != reference {b!r}"]
                continue
            if not diff <= CSV_TOLERANCE:
                return [f"CSV row {r} col {c}: {a} vs reference {b} (|diff| {diff:.3e})"]
    return []


def check_outputs(workload: Workload, out: Path, code: int, reference: Path) -> list[str]:
    """Every reason this call's outputs are wrong; empty when they pass."""
    if code != 0:
        return [f"exit code {code}"]
    problems = []
    if workload.command == "solve":
        diag = json.loads((out / "diagnostics.json").read_text())
        for key, tol in TOLERANCES.items():
            if not diag[key] <= tol:
                problems.append(f"diagnostics {key} = {diag[key]:.3e} > {tol:.0e}")
    else:
        manifest = json.loads((out / "manifest.json").read_text())
        if manifest.get("slope_ok") is not True:
            problems.append(f"converge slope_ok is {manifest.get('slope_ok')!r}")
    got = _read_csv((out / workload.output).read_text())
    want = _read_csv(gzip.decompress(reference.read_bytes()).decode())
    return problems + _csv_problems(got, want)


# --- environment -------------------------------------------------------------

def _blas_threads() -> dict:
    """Thread count reported by each loaded OpenBLAS, by library file name."""
    import ctypes

    import numpy
    import scipy

    found = {}
    for package in (numpy, scipy):
        libdir = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
        for lib in sorted(libdir.glob("*openblas*.so*")):
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                try:
                    fn = getattr(ctypes.CDLL(str(lib)), symbol)
                except (OSError, AttributeError):
                    continue
                fn.restype = ctypes.c_int
                found[lib.name] = fn()
                break
    return found


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(workload: str, seed: int, noise_seed: int, smoke: bool) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    scipy_blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload, "seed": seed, "noise_seed": noise_seed, "smoke": smoke,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": f"{blas.get('name')} {blas.get('version')}",
        "scipy_blas": f"{scipy_blas.get('name')} {scipy_blas.get('version')}",
        "blas_threads_env": BLAS_THREADS, "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(), "machine": platform.machine(),
        "git_commit": _git_commit(), "src_sha256": digest.hexdigest(),
    }


# --- the run -----------------------------------------------------------------

def _import_program():
    """Import volterra_games from this checkout's src/, or exit 2."""
    sys.path.insert(0, str(SRC))
    try:
        from volterra_games import cli
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import volterra_games from {SRC}: {exc}")
    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        sys.exit(f"perfbench: volterra_games imported from {cli.__file__}, not {SRC}")
    return cli


def setup_probe(config: Path, command: str, n: int) -> float:
    """One set-up time measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(config), command, str(n)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


class Caller:
    """Runs and checks ``cli.main`` calls, counting attempts and failures."""

    def __init__(self, cli, workload: Workload, argv: list[str], out: Path, reference: Path):
        self.cli, self.workload, self.argv, self.out = cli, workload, argv, out
        self.reference = reference
        self.attempted = self.failed = 0

    def __call__(self, tracer=None, memory=False) -> float:
        """One checked call; returns its wall time in seconds."""
        shutil.rmtree(self.out, ignore_errors=True)
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if tracer is None:
                code = self.cli.main(self.argv)
            else:
                code = tracer.run(lambda: self.cli.main(self.argv), memory)
            wall = time.perf_counter() - t0
            problems = check_outputs(self.workload, self.out, code, self.reference)
        except Exception:       # a crash is a failed call, not a failed benchmark
            wall = time.perf_counter() - t0
            problems = ["exception:\n" + traceback.format_exc()]
        if problems:
            self.failed += 1
            print(f"perfbench: call {self.attempted} failed: {'; '.join(problems)}",
                  file=sys.stderr)
        return wall

    def output_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.out.rglob("*") if p.is_file())


def _fill(step, deadline: float, durations=(), limit=None) -> None:
    """Repeat ``step()`` while another would end before ``deadline``.

    Runs it at least once unless ``durations`` (of earlier steps) is given,
    and at most ``limit`` times more.
    """
    durations = list(durations)
    done = 0
    while (not durations or time.perf_counter() + statistics.median(durations) <= deadline) \
            and (limit is None or done < limit):
        t0 = time.perf_counter()
        step()
        durations.append(time.perf_counter() - t0)
        done += 1


def run_untraced(call: Caller, config: Path, n: int, seconds: float) -> dict:
    setup, solve = [], []

    def step():
        # set-up probes are spread over the window: the machine's speed drifts
        # over seconds, and probes taken back to back all see one state
        if len(setup) < SETUP_PROBES:
            setup.append(setup_probe(config, call.workload.command, n))
        solve.append(call())

    setup_probe(config, call.workload.command, n)     # cold file cache: discarded
    deadline = time.perf_counter() + seconds
    call()                                    # warm-up: lazy imports, caches
    _fill(step, deadline)
    while len(setup) < SETUP_PROBES:
        setup.append(setup_probe(config, call.workload.command, n))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "metrics": {"setup_s": statistics.median(setup), "solve_s": statistics.median(solve),
                    "peak_rss_mb": rss_mb},
        "samples": {"setup_s": setup, "solve_s": solve},
    }


def run_traced(call: Caller, seconds: float) -> dict:
    from tracing import Tracer

    tracer = Tracer()
    plain, traced, per_call = [], [], []

    def pair():
        plain.append(call())
        traced.append(call(tracer))
        per_call.append(dict(tracer.metrics, **{"cli.output_bytes": call.output_bytes()}))

    deadline = time.perf_counter() + seconds
    call()                                    # warm-up
    t0 = time.perf_counter()
    pair()
    first = time.perf_counter() - t0
    call(tracer, memory=True)                 # peaks only: tracemalloc slows Python ~2x
    memory = dict(tracer.metrics, **{"cli.output_bytes": call.output_bytes()})
    _fill(pair, deadline, [first], limit=TRACED_PAIRS - 1)

    counts = [{k: v for k, v in m.items() if k.endswith(("_calls", "_bytes"))}
              for m in per_call + [memory]]
    mismatched = sorted({k for c in counts[1:] for k in c.keys() | counts[0].keys()
                         if c.get(k) != counts[0].get(k)})
    metrics = {}
    for key in set().union(*per_call):
        values = [m.get(key, 0) for m in per_call]
        metrics[key] = values[0] if key in counts[0] else statistics.median(values)
    metrics.update({k: v for k, v in memory.items() if k.endswith("_peak_mb")})
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    return {"metrics": metrics, "samples": {"untraced_s": plain, "traced_s": traced},
            "count_mismatch": mismatched, "spans": tracer.spans}


def _declared(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the timed loop runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny size (n=8) on the same code path and checks")
    args = parser.parse_args(argv)

    declared = _declared(bool(args.trace))
    cli = _import_program()
    workload = WORKLOADS[args.workload]
    cfg, flags, n = workload.inputs(args.seed, args.smoke)
    reference = workload.reference(args.seed, args.smoke)
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        config = work / "config.json"
        config.write_text(json.dumps(cfg, indent=1))
        out = work / "out"
        argv = [workload.command, "--config", str(config), "--out", str(out)] + flags
        call = Caller(cli, workload, argv, out, reference)
        if args.trace:
            result = run_traced(call, args.seconds)
        else:
            result = run_untraced(call, config, n, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment(args.workload, args.seed, cfg["noise"]["seed"], args.smoke)
    metrics = {name: {"value": result["metrics"].get(name, 0), "unit": unit}
               for name, unit in declared.items()}
    correct = call.failed == 0 and not result.get("count_mismatch")
    if result.get("count_mismatch"):
        print(f"perfbench: counts differ between traced calls: {result['count_mismatch']}",
              file=sys.stderr)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    record = {"environment": env, "attempted": call.attempted, "failed": call.failed,
              "metrics": metrics, "samples": result["samples"]}
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(
            {"environment": env,
             "fields": ["trace", "span", "parent", "name", "start_s", "end_s"],
             "spans": result["spans"]}))

    print("environment " + json.dumps(env, sort_keys=True))
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}")
    print(f"{'failed_frac':36s} {call.failed / call.attempted:.6g} "
          f"({call.failed} of {call.attempted} calls)")
    print(json.dumps({"correct": correct, "attempted": call.attempted, "failed": call.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

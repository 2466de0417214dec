"""Per-layer spans and counters, recorded from outside the program.

The tracer wraps public functions and methods of the ``volterra_games``
modules.  A function imported by name into another module (``cli.solve_nash``,
``meanfield.shifted_drive``) is replaced at every import site, so each call is
seen once whatever module makes it.  Spans stay in memory; ``run.py`` writes
them out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import tracemalloc
from dataclasses import dataclass
from typing import Callable

PACKAGE = "volterra_games"
MB = 1024.0 * 1024.0


def _noise_bytes(args, result) -> int:
    return sum(a.nbytes for a in result.increments.values())


def _crossed_noise_bytes(args, result) -> int:
    return _noise_bytes(args, result.bundle)


def _factor_bytes(args, result) -> int:
    # one dense LU of the (n-k) x (n-k) trailing block per grid index k
    n = args[0].grid.n
    return sum((n - k) ** 2 * 8 for k in range(n))


def _solution_bytes(args, result) -> int:
    return sum(a.nbytes for a in (result.ubar, result.ubar_surface, result.u,
                                  result.u_surface, result.base_values))


@dataclass(frozen=True)
class Target:
    """One wrapped boundary: ``attr`` is ``name`` or ``Class.method`` in ``module``.

    ``stem`` is ``layer.what``; the span's time is reported as ``<stem>_s``
    and, with ``calls``, its entry count as ``<stem>_calls``.  A target with
    ``span=False`` is counted only: it sits in the innermost loops, where a
    span per call would distort the times around it.
    """

    module: str
    attr: str
    stem: str
    calls: bool = False
    span: bool = True
    peak: str | None = None
    size: tuple[str, Callable] | None = None


TARGETS = (
    Target("cli", "load_config", "cli.load_config"),
    Target("model_builders", "build_systemic_game", "model_builders.build_game"),
    Target("model_builders", "build_liquidation_game", "model_builders.build_game"),
    Target("model_builders", "build_advertising_game", "model_builders.build_game"),
    Target("model_builders", "reduce_volterra_game", "model_builders.reduce"),
    Target("grid_ops", "discretize_kernel", "grid_ops.discretize", calls=True),
    Target("grid_ops", "SolveHandle.__call__", "grid_ops.forward_solve", calls=True),
    Target("signals", "compile_signal", "signals.compile", calls=True),
    Target("signals", "CompiledSignal.values_and_surface", "signals.surface", calls=True),
    Target("signals", "draw_noise", "signals.noise", size=("signals.noise_bytes", _noise_bytes)),
    Target("fredholm", "FredholmSolver.__init__", "fredholm.setup", calls=True,
           peak="fredholm.setup_peak_mb"),
    Target("fredholm", "build_Dt", "fredholm.factor",
           size=("fredholm.factor_bytes", _factor_bytes)),
    Target("fredholm", "DtFamily.condition_number", "fredholm.condition_number"),
    Target("fredholm", "FredholmSolver.assemble_a", "fredholm.assemble_a"),
    Target("fredholm", "FredholmSolver.assemble_a_batch", "fredholm.assemble_a"),
    Target("fredholm", "FredholmSolver.solve_path", "fredholm.solve_path", calls=True),
    Target("fredholm", "FredholmSolver.conditional_surface", "fredholm.cond_surface", calls=True),
    Target("fredholm", "FredholmSolver.conditional_surfaces_batch", "fredholm.cond_surface",
           calls=True),
    Target("fredholm", "DtFamily.solve_from", "fredholm.dt_solve", calls=True, span=False),
    Target("fredholm", "FredholmSolver.residual", "fredholm.residual"),
    Target("nplayer", "solve_nash", "nplayer.solve_nash", peak="nplayer.solve_peak_mb",
           size=("nplayer.solution_bytes", _solution_bytes)),
    Target("nplayer", "build_operators", "nplayer.build_operators"),
    Target("nplayer", "simulate_game_signals", "nplayer.simulate_signals"),
    Target("nplayer", "shifted_drive", "nplayer.shifted_drive"),
    Target("nplayer", "shifted_drive_batch", "nplayer.shifted_drive"),
    Target("nplayer", "foc_residual", "nplayer.foc_residual", calls=True),
    Target("meanfield", "convergence_study", "meanfield.convergence_study",
           peak="meanfield.study_peak_mb"),
    Target("meanfield", "draw_crossed_noise", "meanfield.noise",
           size=("meanfield.noise_bytes", _crossed_noise_bytes)),
    Target("meanfield", "build_mfg_operators", "meanfield.build_operators"),
    Target("meanfield", "BatchedDriver.assemble", "meanfield.batched_assemble"),
)


class _Open:
    __slots__ = ("index", "outermost", "t0", "child_s", "base", "peak")

    def __init__(self, index, outermost, t0, base):
        self.index, self.outermost, self.t0 = index, outermost, t0
        self.child_s = 0.0
        self.base = self.peak = base


class Tracer:
    """Records spans ``(trace, span, parent, stem, start, end)`` and per-call metrics.

    With ``memory=True`` each span also tracks the tracemalloc peak above its
    starting allocation; nested spans fold their peaks into their parents.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self._originals: list[tuple] = []
        self._stack: list[_Open] = []
        self._depth: dict[str, int] = {}
        self.trace_id = 0
        self.memory = False
        self.metrics: dict[str, float] = {}

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for target in TARGETS:
            module = importlib.import_module(f"{PACKAGE}.{target.module}")
            owner_name, _, name = target.attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = owner.__dict__.get(name) if owner is not None else None
                if original is None:
                    continue          # the method is gone from the program
                self._originals.append((owner, name, original))
                setattr(owner, name, self._wrap(target, original))
                continue
            original = getattr(module, name, None)
            if original is None:
                continue
            wrapper = self._wrap(target, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._originals.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._originals):
            setattr(owner, name, original)
        self._originals.clear()

    # -- one traced cli.main call -------------------------------------------

    def run(self, fn, memory: bool):
        """Call ``fn()`` wrapped, under a root ``cli.main`` span; return its result.

        The wrappers are in place only during the call.  ``self.metrics`` then
        holds this call's per-layer numbers.
        """
        self.trace_id += 1
        self.memory = memory
        self.metrics = {}
        self._depth = {}
        self.install()
        if memory:
            tracemalloc.start()
        try:
            return self._call("cli.main", None, fn, (), {})
        finally:
            if memory:
                tracemalloc.stop()
            self.memory = False
            self.uninstall()

    def _wrap(self, target: Target, original):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not target.span:
                tracer._count(target.stem + "_calls")
                return original(*args, **kwargs)
            return tracer._call(target.stem, target, original, args, kwargs)

        return wrapper

    def _count(self, key: str, amount: float = 1) -> None:
        self.metrics[key] = self.metrics.get(key, 0) + amount

    def _call(self, stem, target, fn, args, kwargs):
        depth = self._depth.get(stem, 0)
        self._depth[stem] = depth + 1
        base = 0
        if self.memory:
            base, peak = tracemalloc.get_traced_memory()
            if self._stack:
                self._stack[-1].peak = max(self._stack[-1].peak, peak)
            tracemalloc.reset_peak()
        parent = self._stack[-1].index if self._stack else None
        index = len(self.spans)
        self.spans.append(None)
        span = _Open(index, depth == 0, time.perf_counter(), base)
        self._stack.append(span)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self._depth[stem] = depth
            duration = t1 - span.t0
            self.spans[index] = (self.trace_id, index, parent, stem, span.t0, t1)
            if self._stack:
                self._stack[-1].child_s += duration
            layer = stem.split(".")[0]
            self._count(f"{layer}.self_s", duration - span.child_s)
            if span.outermost:
                self._count(stem + "_s", duration)
            if target is not None:
                if target.calls:
                    self._count(stem + "_calls")
                if target.size is not None and result is not None:
                    self._count(target.size[0], target.size[1](args, result))
            if self.memory:
                span.peak = max(span.peak, tracemalloc.get_traced_memory()[1])
                tracemalloc.reset_peak()
                if self._stack:
                    self._stack[-1].peak = max(self._stack[-1].peak, span.peak)
                if target is not None and target.peak is not None:
                    grown = (span.peak - span.base) / MB
                    self.metrics[target.peak] = max(self.metrics.get(target.peak, 0.0), grown)

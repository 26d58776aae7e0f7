"""Spans and counts around calls into paritysim's layers, from outside.

The tracer wraps named module functions and rebinds every module attribute
that refers to the original function object, so a caller that imported the
name (``from .trajectory import step_batch`` in ``ensemble``) and a caller
that looks it up in its own module both reach the wrapper. Nothing under
``src/`` changes. A name that no longer exists is reported as an absent
layer, not an error, so the tracer survives refactors that delete
functions.

Each span accumulates its call count, self time (its time minus the time
of the spans it called) and named work counts. Counters run after
the timed call and their cost is charged to neither the span nor its
parent, only to the tracing overhead.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

# Counter signature: (counts, args, kwargs, result) -> None.
Counter = Callable[[dict, tuple, dict, object], None]


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _add(counts: dict, key: str, n) -> None:
    counts[key] = counts.get(key, 0) + int(n)


def _lanes(key: str) -> Counter:
    """Count the leading (batch) dimension of the first argument."""
    return lambda c, a, k, r: _add(c, key, _arg(a, k, 0, "rho").shape[0])


def _count_simulate(c, a, k, r):
    _add(c, "runs", 1)
    _add(c, "run_steps", _arg(a, k, 0, "cfg").n_steps)


def _count_ensemble(c, a, k, r):
    _add(c, "runs", r.n_runs)
    for kind, n in r.event_totals().items():
        _add(c, "events_" + kind.name.lower(), n)
        _add(c, "events_total", n)


def _count_emit(c, a, k, r):
    out_dir = _arg(a, k, 0, "out_dir")
    names = ["manifest.json", *_arg(a, k, 2, "writers")]
    _add(c, "files", len(names))
    _add(c, "bytes", sum((out_dir / n).stat().st_size for n in names))


@dataclass(frozen=True)
class Span:
    """A function to wrap, the layer it belongs to, and what it counts.

    ``moves`` records which end-to-end metric, on which workload, a change
    to this layer is expected to move; "none" marks a control.
    """

    module: str
    func: str
    moves: str
    count: Counter | None = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.func}"


SPANS = (
    Span("cli", "main", "wall_s on trajectory_sweep (one call per run)"),
    Span("cli", "_emit_outputs", "wall_s on ensemble_k0.3 and trajectory_sweep "
         "(the single write boundary: manifest, data files, fsync)", _count_emit),
    Span("trajectory", "simulate", "work_per_s on trajectory_sweep "
         "(single-lane stepping loop: noise block, bookkeeping)", _count_simulate),
    Span("trajectory", "step_batch", "work_per_s on ensemble_k0.3 and "
         "trajectory_sweep; none on crossing_states", _lanes("lane_steps")),
    Span("trajectory", "hermitize", "as step_batch"),
    Span("trajectory", "psd_violations", "work_per_s on trajectory_sweep, "
         "then on ensemble_k0.3", _lanes("lanes_checked")),
    Span("trajectory", "clip_negative_eigenvalues", "work_per_s on ensemble_k0.3",
         lambda c, a, k, r: _add(c, "lanes_repaired", r[2])),
    Span("ensemble", "run_ensemble", "work_per_s on ensemble_k0.3 (noise draw, "
         "event detection and chunk merge are not separable from outside)",
         _count_ensemble),
    Span("ensemble", "genesis_histogram", "none (a few microseconds per pass)"),
    Span("ensemble", "validate_against_analytics", "none (z-scores only)"),
    Span("ensemble", "first_crossing_times", "work_per_s on crossing_states; "
         "none elsewhere",
         lambda c, a, k, r: _add(c, "walkers", _arg(a, k, 2, "n_runs"))),
    Span("fpt", "predict", "none (a control that should stay flat)"),
    Span("concurrence", "lambda_branch_values", "work_per_s on every workload "
         "but crossing_states, marginally",
         lambda c, a, k, r: _add(c, "states", _arg(a, k, 0, "populations").shape[0])),
    Span("concurrence", "wootters_concurrence", "none (off-class states only)"),
    Span("projective", "monte_carlo_average", "work_per_s on projective_k30",
         lambda c, a, k, r: _add(
             c, "chain_steps", _arg(a, k, 1, "n_steps") * _arg(a, k, 2, "n_runs"))),
    Span("projective", "average_concurrence", "none (closed form)"),
    Span("qstate", "preset_state", "none (once per CLI call)"),
    Span("qstate", "sanitize", "none (off-class states only)"),
)


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    counts: dict = field(default_factory=dict)
    count_errors: int = 0


class Tracer:
    """Installs wrappers for ``spans`` into the loaded modules of ``package``.

    Use as ``reset()``, ``install()`` ... ``uninstall()``; ``reset()``
    clears the statistics between passes. Not thread-safe: the span stack assumes the
    traced calls run on one thread, which holds for ``--jobs 1``.
    """

    def __init__(self, package: str, spans=SPANS):
        self.package = package
        self.spans = spans
        self.stats: dict[str, SpanStats] = {}
        self.absent: list[str] = []
        self._stack: list[float] = []
        self._rebound: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.stats = {s.name: SpanStats() for s in self.spans}

    def install(self) -> None:
        if self._rebound:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == self.package or n.startswith(self.package + "."))]
        self.absent = []
        for span in self.spans:
            home = sys.modules.get(f"{self.package}.{span.module}")
            orig = getattr(home, span.func, None)
            if not callable(orig):
                self.absent.append(span.name)
                continue
            wrapper = self._wrap(self.stats[span.name], orig, span.count)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._rebound.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._rebound):
            setattr(mod, attr, orig)
        self._rebound = []

    def exclude(self, seconds: float) -> None:
        """Keep ``seconds`` spent inside the innermost open span, by code
        that is not the program's, out of every span's self time."""
        if self._stack:
            self._stack[-1] += seconds

    def call_cost_s(self, n: int = 100_000) -> float:
        """Seconds a wrapper adds to one call, measured on a no-op."""
        def noop():
            return None

        wrapped = self._wrap(SpanStats(), noop, None)
        t0 = time.perf_counter()
        for _ in range(n):
            noop()
        t1 = time.perf_counter()
        for _ in range(n):
            wrapped()
        t2 = time.perf_counter()
        return max((t2 - t1) - (t1 - t0), 0.0) / n

    def _wrap(self, stat: SpanStats, fn, count: Counter | None):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stat.calls += 1
                stat.self_s += elapsed - stack.pop()
            if count is not None:
                try:
                    count(stat.counts, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, OSError):
                    # a refactor changed the signature or result; keep the
                    # timing and report the counter as broken
                    stat.count_errors += 1
            if stack:
                stack[-1] += clock() - t0
            return result

        return traced

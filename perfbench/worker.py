"""One workload process: import paritysim, time passes, check them.

Started by run.py, never imported. It writes one JSON result to --result
and exits 0 if it could measure at all; failed checks are data in the
result, not an exit code. With --probe it stops as soon as it is ready to
make its first call, which is what the set-up time measures.

A first pass warms up and is not timed. Untraced (--trace 0): timed passes
then run back to back for --seconds, stopping before a pass that would
overrun (at least MIN_PASSES). Traced (--trace 1): untraced and traced
passes alternate, in the order U T T U U T ..., so that a drift in host
speed biases neither side; tracing overhead compares the two medians.
While a timed pass runs, reference.HostSpeed samples the host's speed on
the same CPU. Successive passes run on successive CPUs of the process's
affinity set, because other tenants of a shared host slow one vCPU at a
time.

Every pass uses the same seed, so every pass must reproduce the first
pass's output digest and work counts exactly: this checks rerun
determinism, and in a traced run that tracing does not perturb results.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import paritysim
import reference
import tracer
import workloads

MIN_PASSES = 3
MIN_TRACED = 2
PROBE_SLICES = 20


def _pass(wl, seed: int, out: Path, trace: tracer.Tracer | None,
          speed: reference.HostSpeed | None) -> dict:
    """One pass; timed passes are sampled by ``speed``, the warm-up is not."""
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    if trace is not None:
        trace.reset()
        trace.install()
    error = None
    with (contextlib.nullcontext() if speed is None
          else speed.during(trace.exclude if trace is not None else None)) as sample:
        t0 = time.perf_counter()
        try:
            ret = wl.run(seed, out)
        except Exception:  # a crashing pass fails its checks; the run goes on
            error = traceback.format_exc()
        wall = time.perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace is not None:
        trace.uninstall()
    if error is None:
        try:
            outcome = wl.inspect(seed, out, ret)
        except (OSError, ValueError, KeyError, IndexError):
            error = traceback.format_exc()
    if error is not None:
        sys.stderr.write(error)
        outcome = workloads.Outcome(
            [(name, False, "pass raised; see stderr") for name in wl.check_names], {}, "")
    rec = {"wall_s": wall - (sample.inside_s if sample else 0.0),
           "speed": sample.speed if sample else None,
           "slices": len(sample.speeds) if sample else 0,
           "rss_mb": rss_mb, "traced": trace is not None,
           "checks": [(name, bool(ok), detail) for name, ok, detail in outcome.checks],
           "counts": {k: int(v) for k, v in outcome.counts.items()},
           "digest": outcome.digest}
    if trace is not None:
        rec["spans"] = {name: {"calls": s.calls, "self_s": s.self_s, "counts": s.counts,
                               "count_errors": s.count_errors}
                        for name, s in trace.stats.items()}
        rec["absent"] = list(trace.absent)
    return rec


def _schedule(traced_run: bool):
    """Yield True for a traced timed pass, False for an untraced one."""
    i = 0
    while True:
        yield traced_run and i % 4 in (1, 2)
        i += 1


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()
    wl = workloads.WORKLOADS[args.workload]
    ready = time.monotonic()
    if args.probe:
        args.result.write_text(json.dumps(
            {"ready": ready, "speed": reference.HostSpeed(wl.reference).measure(PROBE_SLICES),
             "default_seed": wl.seed}))
        return 0

    trace = tracer.Tracer("paritysim") if args.trace else None
    # a traced run needs MIN_TRACED timed passes of each kind; an untraced
    # run MIN_PASSES
    need_u, need_t = (MIN_TRACED, MIN_TRACED) if args.trace else (MIN_PASSES, 0)
    cpus = sorted(os.sched_getaffinity(0))
    start = time.perf_counter()
    os.sched_setaffinity(0, {cpus[0]})
    # pass 0 is checked but not timed: it pays the first-call costs that
    # setup_s does not cover, and sets peak_rss_mb, so the reference kernel
    # is built only after it
    passes = [_pass(wl, args.seed, args.out, None, None)]
    speed = reference.HostSpeed(wl.reference)
    for traced in _schedule(bool(args.trace)):
        timed = passes[1:]
        n_t = sum(p["traced"] for p in timed)
        if len(timed) - n_t >= need_u and n_t >= need_t:
            # stop before a pass that would overrun --seconds
            typical = statistics.median(p["wall_s"] for p in timed)
            if time.perf_counter() - start + typical > args.seconds:
                break
        os.sched_setaffinity(0, {cpus[len(passes) % len(cpus)]})
        passes.append(_pass(wl, args.seed, args.out, trace if traced else None, speed))

    first = passes[0]
    for p in passes[1:]:
        same = p["digest"] == first["digest"] and p["counts"] == first["counts"]
        p["checks"].append(("same output bytes and work counts as pass 0", same,
                            "traced pass vs untraced pass 0" if p["traced"] else "rerun"))
    traced_passes = [p for p in passes if p["traced"]]
    for p in traced_passes[1:]:
        p["checks"].append(("same layer calls and counts as the first traced pass",
                            _layer_counts(p) == _layer_counts(traced_passes[0]),
                            "traced rerun"))
    result = {
        "call_cost_s": trace.call_cost_s() if trace is not None else 0.0,
        "workload": {"default_seed": wl.seed, "unit": wl.unit, "why": wl.why,
                     "loads": wl.loads, "bypasses": wl.bypasses},
        "passes": passes,
        "env": {
            "paritysim": str(Path(paritysim.__file__).resolve().parent),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "blas": _blas(),
        },
    }
    args.result.write_text(json.dumps(result))
    return 0


def _layer_counts(p: dict) -> dict:
    return {n: (s["calls"], s["counts"]) for n, s in p["spans"].items()}


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        return "unknown"
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


if __name__ == "__main__":
    sys.exit(main())

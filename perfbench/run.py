"""paritysim benchmark: time one workload end to end, or trace its layers.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a source checkout; the package is imported from
its ``src/`` directory. Workloads, their default seeds and the reasons they
exist are in workloads.py; the layers traced, and which end-to-end metric
each should move, are in tracer.py.

The workload runs in a fresh worker process with one BLAS/OpenMP thread and
``--jobs 1``; its output files go to a temporary directory inside the
checkout that is removed afterwards. Set-up time is launch-to-ready of a
probe process that stops there, launched SETUP_SAMPLES times.

Timings are medians of host-normalized seconds: each raw time is multiplied
by the host speed that slices of the workload's reference kernel
(reference.py) measured on the same CPU while it ran. They are proportional
to wall seconds at a fixed host speed, and remove most of the slow-down
other tenants of a shared host cause. The report also prints the raw times.

Lines starting with ``#`` are the human-readable report; the last line is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
its per-layer metrics with ``--trace 1``.

Exit codes: 0 when a result was printed (whether or not checks passed),
1 when the workload could not be measured, 2 on a usage error or when
the checkout holds no paritysim sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
from reference import INTERVAL_S, SLICE_S

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_SAMPLES = 9       # probe launches
TIME_LIMIT_S = 170.0    # the whole invocation stays inside 180 s


class Unmeasurable(Exception):
    pass


def _worker_env(tmp: Path) -> dict:
    env = dict(os.environ)
    env.pop("PARITY_SEED", None)
    # numpy asks for transparent huge pages on large arrays by default; whether
    # the kernel grants them depends on the host's free memory at the moment,
    # which moved peak_rss_mb by up to 12% between identical runs
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               NUMPY_MADVISE_HUGEPAGE="0", TMPDIR=str(tmp))
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def _launch(argv: list[str], env: dict, result: Path, deadline: float) -> tuple[float, dict]:
    """Run the worker; return (monotonic launch time, its JSON result)."""
    t0 = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *argv, "--result", str(result)],
                              env=env, cwd=ROOT, timeout=max(deadline - t0, 1.0),
                              stdout=sys.stderr)
    except subprocess.TimeoutExpired:
        raise Unmeasurable("worker exceeded the time limit") from None
    if proc.returncode != 0:
        raise Unmeasurable(f"worker exited with code {proc.returncode}")
    try:
        return t0, json.loads(result.read_text())
    except (OSError, ValueError) as exc:
        raise Unmeasurable(f"worker wrote no result: {exc}") from None


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _norm(raw_s: float, speed: float) -> float:
    """Host-normalized seconds: raw time times the host speed measured while
    it ran (about 1 for a slice on its own on a quiet reference box)."""
    return raw_s * speed


def _median_norm(samples: list[tuple[float, float]]) -> float:
    return statistics.median(_norm(raw, speed) for raw, speed in samples)


def _timing(label: str, samples: list[tuple[float, float]]) -> str:
    """Median with sample count, normalized and raw, of (raw, speed) pairs."""
    raw = [r for r, _ in samples]
    return (f"{label}: median {_median_norm(samples):.4f} s normalized "
            f"(raw median {statistics.median(raw):.4f} s, min {min(raw):.4f} s), "
            f"n={len(samples)} [{', '.join(f'{_norm(*x):.4f}' for x in samples)}]")


def _samples(passes: list[dict]) -> list[tuple[float, float]]:
    return [(p["wall_s"], p["speed"]) for p in passes]


def _end_to_end(res: dict, setup: list[tuple[float, float]], report) -> dict:
    timed = res["passes"][1:]
    unit = res["workload"]["unit"]
    work = res["passes"][0]["counts"].get(unit, 0)
    wall = _median_norm(_samples(timed))
    report(f"warm-up pass: {res['passes'][0]['wall_s']:.4f} s raw, not timed")
    report(_timing("wall_s per pass", _samples(timed)))
    report(f"host speed: median {statistics.median(p['speed'] for p in timed):.4f} "
           f"({SLICE_S * 1e3:g} ms / reference slice time), from {sum(p['slices'] for p in timed)} reference "
           f"slices, one every {INTERVAL_S} s of a pass and one on either side")
    report(_timing("setup_s (launch to ready)", setup))
    report(f"work_per_s = {work} {unit} per pass / wall_s {wall:.4f} s")
    return {
        "wall_s": wall,
        "work_per_s": work / wall,
        "setup_s": _median_norm(setup),
        "peak_rss_mb": res["passes"][0]["rss_mb"],
    }


def _per_layer(res: dict, report) -> dict:
    timed = res["passes"][1:]
    traced = [p for p in timed if p["traced"]]
    t_wall = _median_norm(_samples(traced))
    u_wall = _median_norm(_samples([p for p in timed if not p["traced"]]))
    # layer values come from one pass: the traced pass whose normalized
    # time is the median (the upper one of two)
    chosen = sorted(traced, key=lambda p: _norm(p["wall_s"], p["speed"]))[len(traced) // 2]
    spans = chosen["spans"]
    metrics = {}
    for name, s in spans.items():
        metrics[f"{name}.self_s"] = s["self_s"]
        metrics[f"{name}.calls"] = s["calls"]
        metrics.update({f"{name}.{key}": n for key, n in s["counts"].items()})
    checked = metrics.get("trajectory.psd_violations.lanes_checked", 0)
    repaired = metrics.get("trajectory.clip_negative_eigenvalues.lanes_repaired", 0)
    lane_steps = metrics.get("trajectory.step_batch.lane_steps", 0)
    step_s = metrics["trajectory.step_batch.self_s"]
    calls = sum(s["calls"] for s in spans.values())
    metrics["trajectory.positivity.repair_ratio"] = repaired / checked if checked else 0.0
    metrics["trajectory.step_batch.lane_steps_per_s"] = lane_steps / step_s if step_s else 0.0
    metrics["trace_overhead_frac"] = (t_wall - u_wall) / u_wall
    metrics["trace_wrapper_frac"] = calls * res["call_cost_s"] / u_wall

    report(_timing("untraced wall_s per pass", _samples([p for p in timed if not p["traced"]])))
    report(_timing("traced wall_s per pass", _samples(traced)))
    report(f"trace_overhead_frac = (traced {t_wall:.4f} s - untraced {u_wall:.4f} s) "
           f"/ untraced {u_wall:.4f} s")
    report(f"trace_wrapper_frac = {calls} wrapped calls x {res['call_cost_s'] * 1e6:.3f} us "
           f"/ untraced {u_wall:.4f} s (wrapper cost measured on a no-op; counters "
           "excluded; free of host noise)")
    report(f"repair_ratio = {repaired} lanes_repaired / {checked} lanes_checked")
    report(f"lane_steps_per_s = {lane_steps} lane_steps / step_batch self_s {step_s:.4f} s")
    report(f"{'span':<44} {'calls':>9} {'self_s':>9} {'share':>6}  counts  "
           f"(share = raw self_s / raw wall_s {chosen['wall_s']:.4f} s of that pass)")
    for name, s in sorted(spans.items(), key=lambda kv: -kv[1]["self_s"]):
        if name in chosen["absent"]:
            report(f"{name:<44} absent (no such function in this version)")
            continue
        broken = f" [counter failed {s['count_errors']}x]" if s["count_errors"] else ""
        report(f"{name:<44} {s['calls']:>9} {s['self_s']:>9.4f} "
               f"{s['self_s'] / chosen['wall_s']:>6.1%}  {s['counts'] or ''}{broken}")
    report("expected movers:")
    for span in tracer.SPANS:
        report(f"  {span.name}: {span.moves}")
    return metrics


def _select(metrics: dict, wanted: list[dict]) -> dict:
    """The BENCHMARK.json metrics, in its order. A per-layer metric of a span
    that never ran (or no longer exists) is 0; an unknown name is an error."""
    spans = {s.name for s in tracer.SPANS}
    out = {}
    for m in wanted:
        name = m["name"]
        if name not in metrics and name.rsplit(".", 1)[0] not in spans:
            raise Unmeasurable(f"metric {name!r} is not produced by this benchmark")
        out[name] = {"value": metrics.get(name, 0), "unit": m["unit"]}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, help="default: the workload's own (workloads.py)")
    ap.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "paritysim" / "__init__.py").is_file():
        print(f"error: no paritysim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    deadline = time.monotonic() + TIME_LIMIT_S
    tmp = ROOT / ".perfbench-tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    lines = []
    report = lines.append
    try:
        env = _worker_env(tmp)
        argv = ["--workload", args.workload, "--out", str(tmp / "out")]
        setup = []
        cpus = sorted(os.sched_getaffinity(0))
        for i in range(SETUP_SAMPLES):
            # probes alternate CPUs for the reason passes do (see worker.py)
            os.sched_setaffinity(0, {cpus[i % len(cpus)]})
            t0, probe = _launch([*argv, "--seed", "0", "--seconds", "0", "--probe"], env,
                                tmp / f"probe{i}.json", deadline)
            setup.append((probe["ready"] - t0, probe["speed"]))
        os.sched_setaffinity(0, cpus)
        seed = args.seed
        if seed is None:
            seed = probe.get("default_seed", 0)
        t0, res = _launch([*argv, "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(args.trace)], env, tmp / "result.json", deadline)

        env_info = res["env"]
        report(f"workload {args.workload}, seed {seed} (default "
               f"{res['workload']['default_seed']}), trace {args.trace}, "
               f"1 warm-up and {len(res['passes']) - 1} timed passes in about {seconds:g} s")
        report(f"why: {res['workload']['why']}")
        report(f"loads: {res['workload']['loads']}")
        report(f"bypasses: {res['workload']['bypasses']}")
        report(f"commit {_commit()}, src sha256 {_src_digest()}, nproc {os.cpu_count()}, "
               f"python {env_info['python']}, numpy {env_info['numpy']}, "
               f"blas {env_info['blas']}, 1 BLAS thread, --jobs 1")
        if not Path(env_info["paritysim"]).is_relative_to(ROOT / "src"):
            raise Unmeasurable(f"imported paritysim from {env_info['paritysim']}, "
                               f"not from {ROOT / 'src'}")
        report(f"work counts per pass: {res['passes'][0]['counts']}")

        checks = [c for p in res["passes"] for c in p["checks"]]
        failed = [c for c in checks if not c[1]]
        for i, p in enumerate(res["passes"]):
            for name, ok, detail in p["checks"]:
                if not ok or i == 0:
                    report(f"pass {i} {'PASS' if ok else 'FAIL'} {name}: {detail}")
        report(f"failed_frac = {len(failed)} failed / {len(checks)} checks attempted "
               f"= {len(failed) / len(checks):.4f}")

        if args.trace:
            metrics = _per_layer(res, report)
            wanted = spec["per_layer"]
        else:
            metrics = _end_to_end(res, setup, report)
            wanted = spec["end_to_end"]
        selected = _select(metrics, wanted)
    except Unmeasurable as exc:
        print("\n".join("# " + line for line in lines))
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass  # another run is still using it

    for line in lines:
        print("# " + line)
    for name, m in selected.items():
        print(f"# {name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": not failed, "attempted": len(checks),
                      "failed": len(failed), "metrics": selected}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

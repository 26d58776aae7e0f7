"""The four benchmark workloads: what one pass runs, and how it is checked.

A pass is a fixed amount of work made from the seed alone, so every pass of
a run repeats the same computation; the worker times passes and reports
their median. ``run`` is the timed part and calls only paritysim's public
entry points. ``inspect`` is untimed: it reads back what the pass produced,
checks it against the acceptance criteria the workload mirrors, and returns
exact work counts plus a digest of the outputs.

Each workload records why it exists, which layers it loads and which it
bypasses; the layer names are paritysim's modules.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference
from paritysim import cli
from paritysim.ensemble import validate_against_analytics
from paritysim.trajectory import SimConfig

# Family-wise bound on |z| for the statistical gates. For the 22 crossing
# z-scores at 256 walkers per state the exact binomial tails and the exact
# normal law of the mean-time statistic (see _crossing_inspect) give a
# false-failure probability of about 1.2e-4 per pass; for the 50 projective
# steps at 2e4 runs, Bonferroni over normal tails gives about 3e-5.
Z_FAMILY = 5.0

ENSEMBLE_RUNS = 256                       # one 256-lane chunk
ENSEMBLE_ARGS = ["--k", "0.3", "--state", "mixed", "--duration", "15",
                 "--record-stride", "20"]
SWEEP = [1.0] * 7 + [0.3] * 2 + [30.0]    # criterion-9 proportions 7:2:1
CROSSING_WALKERS = 256                    # one 256-lane chunk per state
CROSSING_STATES = (                       # the 11 criterion-4 states
    (0.25, 0.25, 0.49, 0.01),
    (0.02, 0.02, 0.49, 0.47),
    (0.26, 0.26, 0.22, 0.26),
    (0.01, 0.01, 0.00, 0.98),
    (0.24, 0.24, 0.01, 0.51),
    (0.49, 0.01, 0.25, 0.25),
    (0.20, 0.20, 0.05, 0.55),
    (0.05, 0.05, 0.00, 0.90),
    (0.15, 0.15, 0.10, 0.60),
    (0.10, 0.10, 0.28, 0.52),
    (0.35, 0.35, 0.05, 0.25),
)
PROJECTIVE_RUNS = 20_000
PROJECTIVE_N_MAX = 50

Check = tuple[str, bool, str]


@dataclass(frozen=True)
class Outcome:
    checks: list[Check]
    counts: dict[str, int]
    digest: str


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int          # default seed: the matching acceptance criterion's
    unit: str          # the count that work_per_s divides by wall_s
    why: str
    loads: str
    bypasses: str
    check_names: tuple[str, ...]
    reference: Callable    # builds the reference kernel (reference.py)
    run: Callable[[int, Path], object]
    inspect: Callable[[int, Path, object], Outcome]


def _tree(out: Path) -> tuple[str, int]:
    """sha256 over every output file's name and bytes, and their total size."""
    h = hashlib.sha256()
    size = 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(str(path.relative_to(out)).encode() + b"\0" + data + b"\0")
        size += len(data)
    return h.hexdigest(), size


def _csv(path: Path) -> dict[str, np.ndarray]:
    with open(path, encoding="ascii") as fh:
        header = fh.readline().strip().split(",")
    cols = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: cols[:, i] for i, name in enumerate(header)}


# ---------------------------------------------------------------- ensemble


def _ensemble_run(seed: int, out: Path) -> int:
    return cli.main(["ensemble", *ENSEMBLE_ARGS, "--runs", str(ENSEMBLE_RUNS),
                     "--seed", str(seed), "--jobs", "1", "--out", str(out)])


def _ensemble_inspect(seed: int, out: Path, rc: int) -> Outcome:
    stats = json.loads((out / "stats.json").read_text(encoding="ascii"))
    with open(out / "avg_lambda.csv", encoding="ascii") as fh:
        fh.readline()
        row0 = fh.readline().split(",")
    earliest = stats["genesis_time_min"]
    digest, size = _tree(out)
    checks = [
        ("exit code 0", rc == 0, f"rc={rc}"),
        ("avg_lambda row 0 is exactly -0.5", float(row0[1]) == -0.5, f"row 0 = {row0[1]}"),
        ("earliest genesis > 0.1 T_q", earliest is not None and earliest > 0.1,
         f"earliest {earliest} T_q over {stats['n_crossed']} crossings"),
    ]
    counts = {
        "runs": stats["n_runs"],
        "run_steps": stats["n_runs"] * SimConfig(k_ratio=0.3, duration=15.0).n_steps,
        "events_genesis": stats["events_genesis"],
        "events_sudden_death": stats["events_sudden_death"],
        "events_sudden_birth": stats["events_sudden_birth"],
        "output_bytes": size,
    }
    return Outcome(checks, counts, digest)


# ---------------------------------------------------------------- trajectory


def _sweep_run(seed: int, out: Path) -> list[int]:
    return [
        cli.main(["trajectory", "--k", repr(k), "--state", "mixed", "--duration", "1",
                  "--seed", str(seed + i), "--out", str(out / f"run{i}")])
        for i, k in enumerate(SWEEP)
    ]


def _sweep_inspect(seed: int, out: Path, rcs: list[int]) -> Outcome:
    trace_err = class_err = 0.0
    eig_min = math.inf
    rows = 0
    for i in range(len(SWEEP)):
        c = _csv(out / f"run{i}" / "trajectory.csv")
        rows += c["t"].size
        pops = np.column_stack([c["rho_11"], c["rho_22"], c["rho_33"], c["rho_44"]])
        trace_err = max(trace_err, float(np.max(np.abs(pops.sum(axis=1) - 1.0))))
        class_err = max(class_err, float(np.max(np.abs(np.column_stack(
            [c["re_rho_23"], c["re_rho_14"], c["im_rho_14"]])))))
        # the CSV holds the X-shaped part; the other off-diagonal entries are
        # zero on the class the dynamics preserves from the mixed state
        rho = np.zeros((c["t"].size, 4, 4), dtype=complex)
        rho[:, range(4), range(4)] = pops
        rho[:, 1, 2] = c["re_rho_23"] + 1j * c["im_rho_23"]
        rho[:, 0, 3] = c["re_rho_14"] + 1j * c["im_rho_14"]
        rho[:, 2, 1] = np.conj(rho[:, 1, 2])
        rho[:, 3, 0] = np.conj(rho[:, 0, 3])
        eig_min = min(eig_min, float(np.linalg.eigvalsh(rho).min()))
    digest, size = _tree(out)
    checks = [
        ("exit code 0 on every run", all(rc == 0 for rc in rcs), f"rcs={rcs}"),
        ("trace within 1e-12", trace_err <= 1e-12, f"max |tr - 1| {trace_err:.3g}"),
        ("closed-class residuals <= 1e-9", class_err <= 1e-9,
         f"max |re rho_23|, |rho_14| {class_err:.3g}"),
        ("smallest eigenvalue >= -1e-4", eig_min >= -1e-4, f"min eigenvalue {eig_min:.3g}"),
    ]
    counts = {
        "runs": len(SWEEP),
        "run_steps": sum(SimConfig(k_ratio=k, duration=1.0).n_steps for k in SWEEP),
        "record_rows": rows,
        "output_bytes": size,
    }
    return Outcome(checks, counts, digest)


# ---------------------------------------------------------------- crossing


def _crossing_run(seed: int, out: Path) -> list:
    cfg = SimConfig(delta=0.0, k_ratio=1.0, duration=12.0, dt=2e-3, seed=seed)
    return [validate_against_analytics(list(p), cfg, CROSSING_WALKERS, jobs=1)
            for p in CROSSING_STATES]


def _crossing_inspect(seed: int, out: Path, reports: list) -> Outcome:
    """Fraction z from the report (binomial SE of the predicted fraction).

    The mean-time z is recomputed from the report's crossing count n and
    mean m: conditioned crossing times are inverse Gaussian IG(a, a^2) with
    a the predicted mean, so m ~ IG(a, n a^2) and n (m - a)^2 / m is exactly
    chi-square with one degree of freedom. z = (m - a) sqrt(n / m) is then
    exactly normal in magnitude, unlike the report's sample-SE z-score,
    whose tails are far heavier than normal for the strongly skewed
    near-threshold states (a = 0.02 T_M).
    """
    checks = []
    for state, rep in zip(CROSSING_STATES, reports):
        a, n, m = rep.prediction.mean_time, rep.n_crossed, rep.observed_mean
        z_t = (m - a) * math.sqrt(n / m) if n else math.inf
        checks.append((f"{state} fraction |z| <= {Z_FAMILY}",
                       abs(rep.fraction_z) <= Z_FAMILY,
                       f"z={rep.fraction_z:.3f} ({n}/{rep.n_runs} crossed, "
                       f"predicted {rep.prediction.p_cross:.4f})"))
        checks.append((f"{state} mean-time |z| <= {Z_FAMILY}", abs(z_t) <= Z_FAMILY,
                       f"z={z_t:.3f} (mean {m:.5f} vs {a:.5f} T_M)"))
    blob = json.dumps([rep.to_dict() for rep in reports], sort_keys=True)
    counts = {
        "walkers": sum(rep.n_runs for rep in reports),
        "crossed": sum(rep.n_crossed for rep in reports),
        "open": sum(rep.n_open for rep in reports),
    }
    return Outcome(checks, counts, hashlib.sha256(blob.encode()).hexdigest())


# ---------------------------------------------------------------- projective


def _projective_run(seed: int, out: Path) -> int:
    return cli.main(["projective", "--k", "30", "--n-max", str(PROJECTIVE_N_MAX),
                     "--runs", str(PROJECTIVE_RUNS), "--seed", str(seed), "--out", str(out)])


def _projective_inspect(seed: int, out: Path, rc: int) -> Outcome:
    c = _csv(out / "mc_comparison.csv")
    mean, se, target = c["mc_mean"], c["mc_se"], c["analytic"]
    diff = np.abs(mean - target)
    with np.errstate(divide="ignore", invalid="ignore"):
        worst = float(np.where(diff == 0.0, 0.0, diff / se).max())
    digest, size = _tree(out)
    checks = [
        ("exit code 0", rc == 0, f"rc={rc}"),
        ("step 1 is exactly 0", mean[0] == 0.0, f"step 1 mean {float(mean[0])!r}"),
        (f"every step within |z| <= {Z_FAMILY} of average_concurrence", worst <= Z_FAMILY,
         f"worst |z| {worst:.3f} over {mean.size} steps"),
    ]
    counts = {
        "runs": PROJECTIVE_RUNS,
        "chain_steps": PROJECTIVE_RUNS * int(c["step"].size),
        "output_bytes": size,
    }
    return Outcome(checks, counts, digest)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="ensemble_k0.3",
        seed=23,
        unit="run_steps",
        why="The criterion-8 ensemble (K = 0.3 from the mixed state, 3000 steps, "
            "record stride 20) on the batched 4x4 path, where eigh positivity repair "
            "fires on about 74% of lane-steps and 256 runs give about 5.7k border "
            "events. The workload the closed-class kernel and the split-step "
            "integrator must move.",
        loads="trajectory (step_batch, hermitize, psd_violations, "
              "clip_negative_eigenvalues), concurrence (lambda_branch_values), "
              "ensemble (run_ensemble: noise, events, merge), cli (file output)",
        bypasses="the crossing kernel (first_crossing_times), fpt, projective",
        check_names=("exit code 0", "avg_lambda row 0 is exactly -0.5",
                     "earliest genesis > 0.1 T_q"),
        reference=reference.batch,
        run=_ensemble_run,
        inspect=_ensemble_inspect,
    ),
    Workload(
        name="trajectory_sweep",
        seed=0,
        unit="run_steps",
        why="Sequential single-run CLI trajectories from the mixed state at K = 1, "
            "0.3 and 30 in the criterion-9 proportions 7:2:1 (7800 steps per pass). "
            "The same stepping and positivity layers at one lane, where per-call "
            "overhead and the polynomial trigger dominate and eigh repair is small: "
            "a change that helps wide batches but adds per-call cost shows here.",
        loads="trajectory (simulate, step_batch, hermitize, psd_violations, "
              "clip_negative_eigenvalues), concurrence, cli (one main call and one "
              "fsync'd output directory per run)",
        bypasses="ensemble, the crossing kernel, fpt, projective",
        check_names=("exit code 0 on every run", "trace within 1e-12",
                     "closed-class residuals <= 1e-9", "smallest eigenvalue >= -1e-4"),
        reference=reference.lane,
        run=_sweep_run,
        inspect=_sweep_inspect,
    ),
    Workload(
        name="crossing_states",
        seed=11,
        unit="walkers",
        why="validate_against_analytics over the 11 criterion-4 states (delta = 0, "
            "K = 1, duration 12, dt = 2e-3). The measurement-only first-passage "
            "kernel over the full range of threshold distances, which set how long "
            "lanes stay alive: the payoff of lane widening and of a shared bridge "
            "primitive. The 4x4 kernel does no work here.",
        loads="ensemble (first_crossing_times and its private crossing kernel), fpt "
              "(predict)",
        bypasses="trajectory (step_batch and positivity), concurrence, projective, "
                 "cli and file output",
        check_names=tuple(f"{s} {what} |z| <= {Z_FAMILY}" for s in CROSSING_STATES
                          for what in ("fraction", "mean-time")),
        reference=reference.walkers,
        run=_crossing_run,
        inspect=_crossing_inspect,
    ),
    Workload(
        name="projective_k30",
        seed=0,
        unit="chain_steps",
        why="The criterion-6 pulsed chain through the CLI (K = 30, so delta = pi/30, "
            "50 steps, 2e4 runs). The projective module is under 4% of every other "
            "workload; the closed-class kernel is meant to take it over.",
        loads="projective (monte_carlo_average), concurrence (lambda_branch_values), "
              "cli (file output)",
        bypasses="trajectory, ensemble, fpt",
        check_names=("exit code 0", "step 1 is exactly 0",
                     f"every step within |z| <= {Z_FAMILY} of average_concurrence"),
        reference=reference.chains,
        run=_projective_run,
        inspect=_projective_inspect,
    ),
)}

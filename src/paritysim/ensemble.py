"""Monte Carlo ensembles: many trajectories, border events, statistics.

Runs are split into fixed chunks of _CHUNK consecutive run indices; each
chunk, of the ensemble and of the measurement-only crossing kernel alike,
draws its noise from one stream SeedSequence(entropy=seed,
spawn_key=(chunk,)), and chunk partial sums are merged in chunk order, so
results are byte-identical for any worker count. Border events (genesis,
sudden death, sudden birth) are detected at full step resolution even
when the averaged series is decimated, and kept as one table with a row
per event, ordered by run, then step.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import math
from dataclasses import dataclass

import numpy as np

from .concurrence import X_TOL, class_residual, lambda_branch_max
from .fpt import (
    CrossingPrediction,
    _crossing_fraction,
    block_draws,
    diagonal_state,
    drift_offset,
    predict,
    walk_dts,
    walk_first_passage,
)
from .qstate import DensityMatrix, DivergenceError
from .trajectory import (
    _CHUNK,
    SimConfig,
    _class_rows,
    _rows_stepper,
    _record_steps,
    _step_blocks,
    _write_csv,
    clip_floor,
)

__all__ = [
    "EventKind",
    "BorderEvent",
    "EnsembleStats",
    "GenesisHistogram",
    "ValidationReport",
    "run_ensemble",
    "coupled_step_bias",
    "genesis_histogram",
    "first_crossing_times",
    "validate_against_analytics",
]


class EventKind(enum.Enum):
    GENESIS = "genesis"
    SUDDEN_DEATH = "sudden-death"
    SUDDEN_BIRTH = "sudden-birth"


# an event table's "kind" column indexes _KINDS
_KINDS = tuple(EventKind)
_GENESIS, _DEATH, _BIRTH = range(3)
_EVENT_DTYPE = np.dtype([("run", "i8"), ("step", "i8"), ("time", "f8"), ("kind", "i1")])


@dataclass(frozen=True)
class BorderEvent:
    """One border crossing: time is the linear-interpolation zero of the
    branch maximum, step the grid index of the first sample on the new
    side (kept so histograms can be rebuilt from raw indices)."""

    time: float
    kind: EventKind
    step: int


@dataclass(frozen=True)
class EnsembleStats:
    """Aggregate of n_runs independent trajectories.

    genesis_times and rise_times are per-run, nan where the run never
    crossed (resp. never rose above the threshold) within the window;
    censored runs are tallied, never dropped or imputed. Standard errors
    come from the per-run variance at each grid point. event_table holds
    every border event, one row (run, step, time, kind) each, ordered by
    run, then step; kind indexes tuple(EventKind).
    """

    config: SimConfig
    n_runs: int
    times: np.ndarray
    avg_lambda: np.ndarray
    se_lambda: np.ndarray
    avg_concurrence: np.ndarray
    se_concurrence: np.ndarray
    genesis_times: np.ndarray
    rise_times: np.ndarray | None
    event_table: np.ndarray
    trace_correction_total: float
    clip_total: float
    n_clips: int

    @property
    def crossed_times(self) -> np.ndarray:
        return self.genesis_times[~np.isnan(self.genesis_times)]

    @property
    def n_never(self) -> int:
        return int(np.isnan(self.genesis_times).sum())

    @property
    def crossing_fraction(self) -> float:
        return 1.0 - self.n_never / self.n_runs

    @property
    def events(self) -> tuple[tuple[BorderEvent, ...], ...]:
        """One tuple of BorderEvent per run, built from event_table."""
        runs: list[list[BorderEvent]] = [[] for _ in range(self.n_runs)]
        for run, step, time, kind in self.event_table.tolist():
            runs[run].append(BorderEvent(time, _KINDS[kind], step))
        return tuple(map(tuple, runs))

    def event_totals(self) -> dict[EventKind, int]:
        counts = np.bincount(self.event_table["kind"], minlength=len(_KINDS))
        return {kind: int(n) for kind, n in zip(_KINDS, counts)}

    def death_birth_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-run numbers of sudden-death and sudden-birth events."""
        run, kind = self.event_table["run"], self.event_table["kind"]
        return tuple(
            np.bincount(run[kind == code], minlength=self.n_runs) for code in (_DEATH, _BIRTH)
        )

    def write_avg_lambda_csv(self, path) -> None:
        cols = np.column_stack(
            [
                self.times,
                self.avg_lambda,
                self.se_lambda,
                self.avg_concurrence,
                self.se_concurrence,
            ]
        )
        header = "t,avg_lambda,se_lambda,avg_concurrence,se_concurrence"
        _write_csv(path, header, cols, ["%.17g"] * 5)

    def write_events_csv(self, path) -> None:
        kinds = tuple(kind.value for kind in _KINDS)
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write("run,step,time,kind\n")
            for run, step, time, kind in self.event_table.tolist():
                fh.write(f"{run},{step},{time:.17g},{kinds[kind]}\n")

    def stats_dict(self) -> dict:
        crossed = self.crossed_times
        totals = self.event_totals()
        out = {
            "n_runs": self.n_runs,
            "n_crossed": int(crossed.size),
            "n_never": self.n_never,
            "crossing_fraction": self.crossing_fraction,
            "genesis_time_mean": float(crossed.mean()) if crossed.size else None,
            "genesis_time_median": float(np.median(crossed)) if crossed.size else None,
            "genesis_time_min": float(crossed.min()) if crossed.size else None,
            "genesis_time_max": float(crossed.max()) if crossed.size else None,
            "events_genesis": totals[EventKind.GENESIS],
            "events_sudden_death": totals[EventKind.SUDDEN_DEATH],
            "events_sudden_birth": totals[EventKind.SUDDEN_BIRTH],
            "trace_correction_total": self.trace_correction_total,
            "clip_total": self.clip_total,
            "n_clips": self.n_clips,
            "dt": self.config.dt,
            "duration": self.config.duration,
            "record_points": int(self.times.size),
        }
        if self.rise_times is not None:
            risen = self.rise_times[~np.isnan(self.rise_times)]
            out["rise_time_median"] = float(np.median(risen)) if risen.size else None
            out["n_never_risen"] = int(np.isnan(self.rise_times).sum())
        return out

    def write_stats_json(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump(self.stats_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _ensemble_chunk(args) -> dict:
    """Runs [lo, hi): the batched mirror of trajectory.simulate.

    The lanes are (5, n) class rows on one _rows_stepper built for the
    chunk: the float operations of simulate's one-lane class step, on rows
    (pinned bit for bit by tests). They go through simulate's stepping loop
    trajectory._step_blocks, on the chunk's one noise stream drawn
    step-major across its runs: a run's draws depend on the width of its
    chunk, so a partial last chunk draws differently from a full one.
    At the end of each block of steps the branch maximum is evaluated once
    for all of its states, and the record columns, border crossings and
    rise times of the block are found with array operations. At the
    chunk's end the crossings are sorted by run into the event table: a
    run's first crossing is genesis if it goes up (the run started
    unentangled), later up-crossings sudden births, down-crossings sudden
    deaths. Events and rise times are placed by fpt._crossing_fraction,
    which has the bits of events_from_series in tests/event_reference.py,
    so an ensemble of one reproduces its detect_events exactly.
    """
    cfg, p0, y0, lo, hi, rise_threshold = args
    n, dt = hi - lo, cfg.dt
    rec_at = _record_steps(cfg)
    rows = _class_rows(p0, y0, n)
    advance = _rows_stepper(cfg, clip_floor(cfg), n)
    lam_rec = np.empty((n, rec_at.size))
    rise = np.full(n, np.nan)
    crossings = []
    slot = 0
    try:
        for k0, blk, _, health in _step_blocks(cfg, lo, hi, rows, advance):
            # row i of the block is step k0 + i
            k1 = k0 + len(blk) - 1
            lam = lambda_branch_max(blk[:, :4].transpose(0, 2, 1), blk[:, 4])
            if k0 == 0 and rise_threshold is not None:
                rise[lam[0] > rise_threshold] = 0.0
            stop = int(np.searchsorted(rec_at, k1, side="right"))
            lam_rec[:, slot:stop] = lam[rec_at[slot:stop] - k0].T
            slot = stop

            ent = lam > 0.0
            # lane j crosses within step k = k0 + 1 + i, from t0 to t1, in
            # crossing (i, j); crossings come in step order
            i, j = np.nonzero(ent[1:] != ent[:-1])
            k = k0 + 1 + i
            t0, t1 = (k - 1) * dt, k * dt
            t_star = t0 + (t1 - t0) * _crossing_fraction(lam[i, j], lam[i + 1, j], 0.0)
            crossings.append((lo + j, k, t_star, ent[i + 1, j]))
            if rise_threshold is not None:
                # the first step of the block that ends above the threshold
                above = lam[1:] > rise_threshold
                (j,) = np.nonzero(np.isnan(rise) & above.any(axis=0))
                i = above[:, j].argmax(axis=0)
                k = k0 + 1 + i
                t0, t1 = (k - 1) * dt, k * dt
                rise[j] = t0 + (t1 - t0) * _crossing_fraction(
                    lam[i, j], lam[i + 1, j], rise_threshold)
    except DivergenceError as exc:
        raise DivergenceError(f"runs [{lo}, {hi}) at {exc}") from None

    run, step, time, up = (np.concatenate(col) for col in zip(*crossings))
    order = np.argsort(run, kind="stable")   # a run's crossings stay in step order
    run, up = run[order], up[order]
    first = np.diff(run, prepend=-1) != 0
    table = np.empty(run.size, _EVENT_DTYPE)
    table["run"], table["step"], table["time"] = run, step[order], time[order]
    table["kind"] = np.where(up, np.where(first, _GENESIS, _BIRTH), _DEATH)
    born = table[table["kind"] == _GENESIS]
    genesis = np.full(n, np.nan)
    genesis[born["run"] - lo] = born["time"]

    conc_rec = np.maximum(lam_rec, 0.0)
    return {
        "lam_sum": lam_rec.sum(axis=0),
        "lam_sumsq": (lam_rec**2).sum(axis=0),
        "conc_sum": conc_rec.sum(axis=0),
        "conc_sumsq": (conc_rec**2).sum(axis=0),
        "genesis": genesis,
        "rise": rise,
        "events": table,
        "corrections": health[0],
        "clip_total": health[1],
        "n_clips": health[2],
    }


def _map_chunks(fn, chunks, jobs: int) -> list:
    if jobs > 1 and len(chunks) > 1:
        # imported here so a --jobs 1 process never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(chunks))) as ex:
            return list(ex.map(fn, chunks))
    return [fn(c) for c in chunks]


def _class_start(initial: DensityMatrix) -> tuple[np.ndarray, float]:
    """Populations and Im rho_23 of a start state within X_TOL of the
    closed class; ValueError for any other state."""
    if not class_residual(initial.mat) <= X_TOL:
        raise ValueError("ensemble statistics require the closed X class "
                         "(rho_14 = 0, rho_23 imaginary, no other coherence)")
    return initial.diag, float(np.imag(initial.mat[1, 2]))


def run_ensemble(
    cfg: SimConfig,
    initial: DensityMatrix,
    n_runs: int,
    *,
    jobs: int = 1,
    rise_threshold: float | None = None,
) -> EnsembleStats:
    """n_runs independent trajectories, aggregated.

    Entanglement along runs is evaluated with the X-class branch values,
    so the initial state must be in the closed class (rho_14 = 0, rho_23
    imaginary, every other coherence zero: class_residual within X_TOL, as
    in simulate) or ValueError is raised. The dynamics never leaves it, and
    runs are integrated on the class kernel from the populations and
    Im rho_23. rise_threshold, if given,
    also records the first time each run's branch maximum exceeds it.
    """
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    p0, y0 = _class_start(initial)
    chunks = [
        (cfg, p0, y0, lo, min(lo + _CHUNK, n_runs), rise_threshold)
        for lo in range(0, n_runs, _CHUNK)
    ]
    parts = _map_chunks(_ensemble_chunk, chunks, jobs)
    # merged in chunk order whatever the worker count: sums from 0, arrays end to end
    sums = {
        key: sum(part[key] for part in parts)
        for key in ("lam_sum", "lam_sumsq", "conc_sum", "conc_sumsq",
                    "corrections", "clip_total", "n_clips")
    }
    genesis, rise, table = (
        np.concatenate([part[key] for part in parts]) for key in ("genesis", "rise", "events")
    )
    times = _record_steps(cfg) * cfg.dt
    n_rec = times.size

    def mean_se(total, totalsq):
        mean = total / n_runs
        if n_runs == 1:
            return mean, np.zeros(n_rec)
        var = np.maximum(totalsq - n_runs * mean**2, 0.0) / (n_runs - 1)
        return mean, np.sqrt(var / n_runs)

    avg_lam, se_lam = mean_se(sums["lam_sum"], sums["lam_sumsq"])
    avg_conc, se_conc = mean_se(sums["conc_sum"], sums["conc_sumsq"])
    return EnsembleStats(
        config=cfg,
        n_runs=n_runs,
        times=times,
        avg_lambda=avg_lam,
        se_lambda=se_lam,
        avg_concurrence=avg_conc,
        se_concurrence=se_conc,
        genesis_times=genesis,
        rise_times=None if rise_threshold is None else rise,
        event_table=table,
        trace_correction_total=sums["corrections"],
        clip_total=sums["clip_total"],
        n_clips=sums["n_clips"],
    )


def coupled_step_bias(
    cfg: SimConfig, initial: DensityMatrix, n_runs: int
) -> tuple[float, float]:
    """Step-size bias of the class kernel, measured on coupled Brownian paths.

    Each run steps twice from initial over cfg.duration on one Brownian
    path: at cfg.dt / 2 on standard normals z, and at cfg.dt on
    (z[2k] + z[2k + 1]) / sqrt(2), the same increment over the coarse step
    (Kloeden & Platen, Numerical Solution of SDEs, 1992). Both step the
    chunk's (5, n) class rows on a _rows_stepper through _step_blocks, the
    kernel an ensemble chunk runs. Returns the mean over runs of
    max(Lambda, 0) at the end at dt minus that at dt / 2, and the standard
    error of that mean; a step whose error at dt is below the Monte Carlo
    error reads within a few standard errors of 0. Runs come in _CHUNK-run
    chunks, and chunk c reads z from SeedSequence(seed, spawn_key=(c,)),
    the stream its ensemble chunk steps on at dt / 2. initial must be on
    the closed class, as for run_ensemble.
    """
    fine = dataclasses.replace(cfg, dt=cfg.dt / 2.0)
    if fine.n_steps != 2 * cfg.n_steps:
        raise ValueError("duration must be a whole number of steps dt")
    p0, y0 = _class_start(initial)
    diff = np.empty(n_runs)
    for lo in range(0, n_runs, _CHUNK):
        hi = min(lo + _CHUNK, n_runs)
        seq = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(lo // _CHUNK,))
        z = np.random.default_rng(seq).standard_normal((fine.n_steps + 2, hi - lo))

        def coarse(k0, k1):
            return (z[2 * k0 : 2 * k1 : 2] + z[2 * k0 + 1 : 2 * k1 : 2]) / math.sqrt(2.0)

        ends = []
        for c, draw in ((cfg, coarse), (fine, lambda k0, k1: z[k0:k1])):
            rows = _class_rows(p0, y0, hi - lo)
            advance = _rows_stepper(c, clip_floor(c), hi - lo)
            for _, blk, _, _ in _step_blocks(c, lo, hi, rows, advance, draw):
                pass
            ends.append(np.maximum(lambda_branch_max(blk[-1, :4].T, blk[-1, 4]), 0.0))
        diff[lo:hi] = ends[0] - ends[1]
    return float(diff.mean()), float(diff.std(ddof=1) / math.sqrt(n_runs))


@dataclass(frozen=True)
class GenesisHistogram:
    """Genesis-time counts on uniform bins; runs that never crossed are
    tallied separately, not binned."""

    bin_width: float
    edges: np.ndarray
    counts: np.ndarray
    n_never: int

    def to_csv(self, path) -> None:
        cols = np.column_stack([self.edges[:-1], self.edges[1:], self.counts])
        _write_csv(path, "bin_start,bin_end,count", cols, ["%.17g", "%.17g", "%d"])


def genesis_histogram(stats: EnsembleStats, bin_width: float) -> GenesisHistogram:
    if not bin_width > 0:
        raise ValueError("bin_width must be positive")
    crossed = stats.crossed_times
    n_bins = 1 if crossed.size == 0 else int(crossed.max() / bin_width) + 1
    edges = np.arange(n_bins + 1) * bin_width
    counts, _ = np.histogram(crossed, bins=edges)
    return GenesisHistogram(
        bin_width=bin_width, edges=edges, counts=counts, n_never=stats.n_never
    )


def _crossing_chunk(args) -> dict:
    """Measurement-only first-crossing kernel for runs [lo, hi).

    With the drive off the conditioned state is an exact function of the
    integrated record, p_i(gamma) proportional to p_i(0) exp(I_i gamma),
    so the mean current is tanh(gamma + c), c = ln(p_even / p_odd) / 2,
    and the record log-likelihood advances by the Euler rule
    (tanh(gamma + c) + noise) dt on one real per run. fpt.walk_first_passage
    steps the runs in blocks over the fine-then-coarse steps of
    fpt.walk_dts, five in-place ufunc calls per step, and resolves each
    crossing with fpt.bridge_step, which evaluates the bridge exponential
    only where it is nonzero.

    The chunk draws from one generator,
    SeedSequence(entropy=seed, spawn_key=(lo // _CHUNK,)): each block takes
    the normals, then the bridge uniforms, of the runs still open
    (fpt.block_draws). A run's time is therefore a deterministic function
    of the seed and its chunk, fixed by the _CHUNK boundaries whatever the
    worker count; it also depends on the block schedule and on the other
    runs of the chunk, so a partial last chunk draws differently from a
    full one.

    The window is [0, tau_max], and the steps of fpt.walk_dts can end past
    it: a crossing located after tau_max counts as open (time nan, counted
    in n_open).
    """
    seed, p0, lo, hi, thr, dt1, tau_max = args
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(lo // _CHUNK,)))
    c = np.full(hi - lo, drift_offset(p0[0] + p0[1], p0[2] + p0[3]))
    times, n_open = walk_first_passage(c, thr, walk_dts(thr, dt1, tau_max), block_draws(rng))
    late = times > tau_max
    times[late] = np.nan
    return {"times": times, "n_open": n_open + int(late.sum())}


def _crossing_chunks(state, cfg: SimConfig, n_runs: int) -> list[tuple]:
    """_crossing_chunk arguments covering runs [0, n_runs) of a state."""
    ds = diagonal_state(np.asarray(state, dtype=float))
    pred = predict(ds)
    thr = pred.r2 if math.isfinite(pred.r2) else pred.r1
    if not math.isfinite(thr):
        raise ValueError("state has no finite crossing boundary to validate")
    dt1 = cfg.dt / cfg.s0
    tau_max = cfg.duration / cfg.s0
    return [
        (cfg.seed, ds.p, lo, min(lo + _CHUNK, n_runs), thr, dt1, tau_max)
        for lo in range(0, n_runs, _CHUNK)
    ]


def first_crossing_times(
    state,
    cfg: SimConfig,
    n_runs: int,
    *,
    jobs: int = 1,
) -> tuple[np.ndarray, int]:
    """Per-run border-crossing times (units T_M, nan = never) from the
    measurement-only simulator, plus the count of runs still open at the
    window end. cfg.delta must be 0; cfg.dt sets the fine step and
    cfg.duration the window, both converted to T_M units internally. No
    reported time exceeds duration / s0: a run that crosses only after the
    window end counts as open."""
    if cfg.delta != 0.0:
        raise ValueError("first-crossing analytics require delta = 0")
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    parts = _map_chunks(_crossing_chunk, _crossing_chunks(state, cfg, n_runs), jobs)
    times = np.concatenate([part["times"] for part in parts])
    n_open = sum(part["n_open"] for part in parts)
    return times, n_open


@dataclass(frozen=True)
class ValidationReport:
    """Simulation vs closed forms for one measurement-only initial state.

    Times in T_M units. mean_z is nan when no run crossed.
    """

    state: tuple[float, float, float, float]
    n_runs: int
    prediction: CrossingPrediction
    n_crossed: int
    n_open: int
    observed_fraction: float
    fraction_se: float
    fraction_z: float
    observed_mean: float
    mean_se: float
    mean_z: float

    def passed(self) -> bool:
        """Both z-scores within 3; mean_z only when some run crossed."""
        ok = abs(self.fraction_z) <= 3.0
        if math.isfinite(self.mean_z):
            ok = ok and abs(self.mean_z) <= 3.0
        return ok

    def to_dict(self) -> dict:
        return {
            "state": list(self.state),
            "n_runs": self.n_runs,
            "n_crossed": self.n_crossed,
            "n_open": self.n_open,
            "predicted_fraction": self.prediction.p_cross,
            "observed_fraction": self.observed_fraction,
            "fraction_se": self.fraction_se,
            "fraction_z": self.fraction_z,
            "predicted_mean": self.prediction.mean_time,
            "observed_mean": self.observed_mean,
            "mean_se": self.mean_se,
            "mean_z": self.mean_z,
            "passed": self.passed(),
        }


def validate_against_analytics(
    state,
    cfg: SimConfig,
    n_runs: int,
    *,
    jobs: int = 1,
) -> ValidationReport:
    """Compare the simulated crossing fraction and conditional mean
    crossing time against the closed forms for one initial state.

    The state must be in a supported single-boundary class (the predict
    preconditions); cfg.delta must be 0. z-scores use the binomial
    standard error for the fraction and the sample standard error for
    the conditional mean.
    """
    ds = diagonal_state(np.asarray(state, dtype=float))
    pred = predict(ds)
    times, n_open = first_crossing_times(ds.p, cfg, n_runs, jobs=jobs)
    crossed = times[~np.isnan(times)]
    frac = crossed.size / n_runs
    p = pred.p_cross
    f_se = math.sqrt(p * (1.0 - p) / n_runs)
    f_z = 0.0 if f_se == 0.0 and frac == p else (frac - p) / f_se if f_se else math.inf
    if crossed.size > 1:
        m = float(crossed.mean())
        m_se = float(crossed.std(ddof=1) / math.sqrt(crossed.size))
        m_z = (m - pred.mean_time) / m_se if m_se else math.inf
    else:
        m, m_se, m_z = math.nan, math.nan, math.nan
    return ValidationReport(
        state=tuple(float(x) for x in ds.p),
        n_runs=n_runs,
        prediction=pred,
        n_crossed=int(crossed.size),
        n_open=n_open,
        observed_fraction=frac,
        fraction_se=f_se,
        fraction_z=f_z,
        observed_mean=m,
        mean_se=m_se,
        mean_z=m_z,
    )

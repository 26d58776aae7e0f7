"""Ensemble aggregation, event detection, and analytic validation checks."""

import math
import re

import numpy as np
import pytest

from event_reference import detect_events, events_from_series
from paritysim import ensemble, trajectory
from paritysim.concurrence import lambda_branch_values
from paritysim.ensemble import (
    BorderEvent,
    EnsembleStats,
    EventKind,
    first_crossing_times,
    genesis_histogram,
    run_ensemble,
    validate_against_analytics,
    _crossing_chunk,
    _crossing_chunks,
    _ensemble_chunk,
    coupled_step_bias,
)
from paritysim.fpt import _BLOCK, DIFFUSION, ESCAPE, drift_offset, walk_dts
from paritysim.qstate import (
    Basis,
    DivergenceError,
    preset_state,
    sanitize,
    state_from_json,
    state_to_json,
)
from paritysim.trajectory import (
    _CHUNK,
    _EVENT_BLOCK,
    C_NOISE,
    SimConfig,
    _class_rows,
    _class_stepper,
    simulate,
)

MIXED = preset_state("mixed")
ENTANGLED = sanitize(np.diag([0.1, 0.6, 0.2, 0.1]).astype(complex)).state


def make_stats(genesis_times, n_runs):
    """Minimal EnsembleStats for histogram/serialization tests."""
    g = np.asarray(genesis_times, dtype=float)
    pad = np.full(n_runs - g.size, np.nan)
    times = np.array([0.0, 1.0])
    z = np.zeros(2)
    return EnsembleStats(
        config=SimConfig(duration=1.0),
        n_runs=n_runs,
        times=times,
        avg_lambda=z,
        se_lambda=z,
        avg_concurrence=z,
        se_concurrence=z,
        genesis_times=np.concatenate([g, pad]),
        rise_times=None,
        event_table=np.zeros(0, ensemble._EVENT_DTYPE),
        trace_correction_total=0.0,
        clip_total=0.0,
        n_clips=0,
    )


# ---------------------------------------------------------------- events


def test_events_from_synthetic_sine():
    # lam = sin(2 pi t) - 1/2 has roots at 1/12, 5/12, 13/12, ...
    t = np.arange(0, 1201) * 1e-3
    lam = np.sin(2.0 * math.pi * t) - 0.5
    events = events_from_series(t, lam)
    kinds = [ev.kind for ev in events]
    assert kinds == [EventKind.GENESIS, EventKind.SUDDEN_DEATH, EventKind.SUDDEN_BIRTH]
    roots = [1.0 / 12.0, 5.0 / 12.0, 13.0 / 12.0]
    for ev, root in zip(events, roots):
        assert ev.time == pytest.approx(root, abs=1e-5)
    assert [ev.step for ev in events] == [84, 417, 1084]


def test_events_initially_entangled_starts_with_death():
    t = np.array([0.0, 1.0, 2.0, 3.0])
    lam = np.array([0.5, -0.5, 0.5, -0.5])
    kinds = [ev.kind for ev in events_from_series(t, lam)]
    # a run that starts entangled never logs a genesis
    assert kinds == [
        EventKind.SUDDEN_DEATH,
        EventKind.SUDDEN_BIRTH,
        EventKind.SUDDEN_DEATH,
    ]


def test_events_constant_series_empty():
    t = np.linspace(0.0, 1.0, 50)
    assert events_from_series(t, np.ones(50)) == []
    assert events_from_series(t, np.full(50, -0.2)) == []


def test_events_nan_rejected():
    t = np.array([0.0, 1.0, 2.0])
    with pytest.raises(ValueError, match="X class"):
        events_from_series(t, np.array([0.1, np.nan, -0.1]))


def test_detect_events_matches_series_detector():
    cfg = SimConfig(k_ratio=1.0, duration=2.0, seed=12)
    rec = simulate(cfg, MIXED)
    assert detect_events(rec) == events_from_series(rec.times, rec.lam)


# ------------------------------------------------------------- ensembles


def test_stationary_initial_state_is_trivial():
    u1 = np.zeros((4, 4), dtype=complex)
    u1[0, 0] = 1.0
    stats = run_ensemble(SimConfig(duration=0.3, seed=2), sanitize(u1).state, 8)
    assert np.all(stats.avg_lambda == 1.0)
    assert np.all(stats.avg_concurrence == 1.0)
    assert stats.event_totals() == {k: 0 for k in EventKind}
    assert stats.n_never == 8
    assert stats.crossing_fraction == 0.0


def test_ensemble_of_one_equals_single_trajectory():
    """Also from presets written in the computational basis, whose class
    residual is rounding (about 2e-17): both commands run the class kernel."""
    cfg = SimConfig(k_ratio=1.0, duration=1.0, seed=77)
    round_trips = [state_from_json(state_to_json(preset_state(name), Basis.COMPUTATIONAL))
                   for name in ("mixed", "sigma-boundary")]
    for initial in (MIXED, *round_trips):
        rec = simulate(cfg, initial)
        stats = run_ensemble(cfg, initial, 1)
        assert np.array_equal(stats.times, rec.times)
        assert np.array_equal(stats.avg_lambda, rec.lam)
        assert np.array_equal(stats.avg_concurrence, rec.concurrence)
        assert np.all(stats.se_lambda == 0.0)
        assert list(stats.events[0]) == detect_events(rec)


def test_ensemble_deterministic_and_jobs_invariant():
    cfg = SimConfig(k_ratio=1.0, duration=0.25, seed=31)
    a = run_ensemble(cfg, MIXED, 600, rise_threshold=-0.05)
    b = run_ensemble(cfg, MIXED, 600, jobs=3, rise_threshold=-0.05)
    assert np.array_equal(a.avg_lambda, b.avg_lambda)
    assert np.array_equal(a.se_lambda, b.se_lambda)
    assert np.array_equal(a.avg_concurrence, b.avg_concurrence)
    assert np.array_equal(a.genesis_times, b.genesis_times, equal_nan=True)
    assert np.array_equal(a.rise_times, b.rise_times, equal_nan=True)
    assert a.events == b.events
    assert a.trace_correction_total == b.trace_correction_total
    assert a.clip_total == b.clip_total
    assert a.n_clips == b.n_clips


def _stepped_ensemble(args):
    """Plain per-step transcription of _ensemble_chunk.

    The batch class stepper steps on the chunk's one noise stream, drawn
    step-major in one call, the branch maximum after every step, and the
    event and rise rules of events_from_series written out lane by lane.
    """
    cfg, p0, y0, lo, hi, thr = args
    n, n_steps, dt = hi - lo, cfg.n_steps, cfg.dt
    rec_steps = list(range(0, n_steps + 1, cfg.record_stride))
    if rec_steps[-1] != n_steps:
        rec_steps.append(n_steps)
    sigma = math.sqrt(C_NOISE * cfg.s0 / dt)
    g = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(lo // _CHUNK,)))
    xi = g.standard_normal((n_steps, n)) * sigma
    advance = _class_stepper(cfg, trajectory.clip_floor(cfg))
    s = _class_rows(p0, y0, n)
    p, y = s[:4].T, s[4]
    lam_rec = np.empty((n, len(rec_steps)))
    genesis, rise = np.full(n, np.nan), np.full(n, np.nan)
    events = [[] for _ in range(n)]
    corrections = clip_total = 0.0
    n_clips = 0
    for k in range(n_steps + 1):
        l1, l2, l3 = lambda_branch_values(p, y)
        lam = np.maximum(np.maximum(l1, l2), l3)
        if k in rec_steps:
            lam_rec[:, rec_steps.index(k)] = lam
        if k == 0:
            seen = lam > 0.0
            if thr is not None:
                rise[lam > thr] = 0.0
        else:
            t0, t1 = (k - 1) * dt, k * dt
            for j in range(n):
                a, b = prev[j], lam[j]
                if (b > 0.0) != (a > 0.0):
                    t_star = t0 + (t1 - t0) * (a / (a - b))
                    if b <= 0.0:
                        kind = EventKind.SUDDEN_DEATH
                    elif seen[j]:
                        kind = EventKind.SUDDEN_BIRTH
                    else:
                        kind = EventKind.GENESIS
                        genesis[j], seen[j] = t_star, True
                    events[j].append(BorderEvent(float(t_star), kind, k))
                if thr is not None and math.isnan(rise[j]) and b > thr:
                    rise[j] = t0 + (t1 - t0) * ((thr - a) / (b - a))
        prev = lam
        if k == n_steps:
            break
        s, corr, clipped, n_c = advance(s, xi[k])
        p, y = s[:4].T, s[4]
        corrections += corr
        clip_total += clipped
        n_clips += n_c
    conc_rec = np.maximum(lam_rec, 0.0)
    return {
        "lam_sum": lam_rec.sum(axis=0),
        "lam_sumsq": (lam_rec**2).sum(axis=0),
        "conc_sum": conc_rec.sum(axis=0),
        "conc_sumsq": (conc_rec**2).sum(axis=0),
        "genesis": genesis,
        "rise": rise,
        "events": [tuple(run) for run in events],
        "corrections": corrections,
        "clip_total": clip_total,
        "n_clips": n_clips,
    }


def _event_table(runs, lo):
    """The event table of per-run BorderEvent lists for runs lo, lo + 1, ..."""
    kinds = list(EventKind)
    rows = [(lo + j, ev.step, ev.time, kinds.index(ev.kind))
            for j, run in enumerate(runs) for ev in run]
    return np.array(rows, dtype=ensemble._EVENT_DTYPE)


def test_ensemble_chunk_matches_per_step_reference():
    """The blocked chunk driver is bitwise a plain per-step loop: record
    sums, genesis and rise times, events and health totals. n_steps = 260
    is no multiple of the event block, and 300 runs leave a partial chunk.
    The third case starts entangled, so its runs die and are reborn without
    genesis."""
    g = np.zeros((4, 4))
    g[1, 2] = g[2, 1] = 0.7
    cases = [
        (SimConfig(k_ratio=1.0, duration=1.3, seed=19, record_stride=7, gamma=g), MIXED, -0.05),
        (SimConfig(k_ratio=0.3, duration=2.6, seed=5), preset_state("sigma-boundary"), None),
        (SimConfig(k_ratio=0.3, duration=2.6, seed=5), ENTANGLED, None),
    ]
    edge_steps = set()
    for cfg, initial, thr in cases:
        assert cfg.n_steps % _EVENT_BLOCK != 0
        p0, y0 = initial.diag, float(initial.mat[1, 2].imag)
        for lo, hi in ((0, 256), (256, 300)):
            args = (cfg, p0, y0, lo, hi, thr)
            ref = _stepped_ensemble(args)
            got = _ensemble_chunk(args)
            for key in ("lam_sum", "lam_sumsq", "conc_sum", "conc_sumsq", "genesis", "rise"):
                assert np.array_equal(got[key], ref[key], equal_nan=True), key
            want = _event_table(ref["events"], lo)
            for field in want.dtype.names:
                assert np.array_equal(got["events"][field], want[field]), field
            for key in ("corrections", "clip_total", "n_clips"):
                assert got[key] == ref[key], key
            assert ref["n_clips"] > 0
            edge_steps |= {ev.step % _EVENT_BLOCK for run in ref["events"] for ev in run}
            if initial is ENTANGLED:
                kinds = {ev.kind for run in ref["events"] for ev in run}
                assert kinds == {EventKind.SUDDEN_DEATH, EventKind.SUDDEN_BIRTH}
    # events on the first step of a block (from k0 to k0 + 1) and on its last
    assert {1, 0} <= edge_steps


def test_ensemble_fixed_by_seed_and_chunk():
    """A run's noise is a function of the seed and its _CHUNK-run chunk:
    chunks computed one at a time in reverse order merge to run_ensemble at
    any worker count, more runs leave full chunks unchanged, distinct
    chunks draw from distinct streams, and a partial last chunk draws
    differently from a full one."""
    cfg = SimConfig(k_ratio=1.0, duration=0.5, seed=13)
    chunks = [(cfg, MIXED.diag, 0.0, lo, min(lo + _CHUNK, 600), None) for lo in (0, 256, 512)]
    parts = {a[3]: _ensemble_chunk(a) for a in reversed(chunks)}
    genesis, table = (np.concatenate([parts[a[3]][key] for a in chunks])
                      for key in ("genesis", "events"))
    lam_sum = sum(parts[a[3]]["lam_sum"] for a in chunks)
    for jobs in (1, 3):
        stats = run_ensemble(cfg, MIXED, 600, jobs=jobs)
        assert np.array_equal(stats.genesis_times, genesis, equal_nan=True), jobs
        assert np.array_equal(stats.event_table, table), jobs
        assert np.array_equal(stats.avg_lambda, lam_sum / 600), jobs
    head = run_ensemble(cfg, MIXED, 512)
    assert np.array_equal(head.genesis_times, genesis[:512], equal_nan=True)
    assert np.array_equal(head.event_table, table[table["run"] < 512])
    assert not np.array_equal(parts[0]["events"]["time"][:20], parts[256]["events"]["time"][:20])
    tail = run_ensemble(cfg, MIXED, 300).event_table
    full = table[(table["run"] >= 256) & (table["run"] < 300)]
    assert not np.array_equal(tail[tail["run"] >= 256], full)


@pytest.mark.xfail(strict=True, reason="the Euler class step is biased at the default dt")
def test_coupled_step_size_bias_within_monte_carlo_error():
    """On coupled Brownian paths, mean max(Lambda, 0) at K = 0.3 moves by
    less than 3 coupled standard errors from dt to dt / 2. The Euler class
    step with its positivity repair reads +0.10 (se 0.012) at 10 T_q here, far
    outside; a completely positive (Kraus) step would hold it."""
    cfg = SimConfig(k_ratio=0.3, duration=10.0, seed=55)
    bias, se = coupled_step_bias(cfg, MIXED, 512)
    assert abs(bias) <= 3.0 * se, f"dt minus dt/2: {bias:+.4f} (se {se:.4f})"


def test_ensemble_divergence_names_step(monkeypatch):
    """With a vanishing clip floor the first repair is a divergence: an
    ensemble of one names its run range and the step simulate names."""
    monkeypatch.setattr(trajectory, "clip_floor", lambda cfg: 1e-300)
    monkeypatch.setattr(ensemble, "clip_floor", lambda cfg: 1e-300)
    cfg = SimConfig(k_ratio=0.3, duration=3.0, seed=8)
    with pytest.raises(DivergenceError) as single:
        simulate(cfg, MIXED)
    step = int(re.match(r"step (\d+): ", str(single.value)).group(1))
    assert step > 1
    with pytest.raises(DivergenceError) as batch:
        run_ensemble(cfg, MIXED, 1)
    assert re.match(
        rf"runs \[0, 1\) at step {step}: eigenvalue .* below the clip floor -1e-300: ",
        str(batch.value),
    )


def test_ensemble_seed_sensitivity():
    cfg1 = SimConfig(k_ratio=1.0, duration=0.25, seed=31)
    cfg2 = SimConfig(k_ratio=1.0, duration=0.25, seed=32)
    a = run_ensemble(cfg1, MIXED, 64)
    b = run_ensemble(cfg2, MIXED, 64)
    assert not np.array_equal(a.avg_lambda, b.avg_lambda)


def test_measurement_only_mixed_never_entangles():
    # With the drive off, both parity outcomes relax to equal mixtures in
    # their subspace: the branch maximum rises toward 0 but never crosses.
    cfg = SimConfig(delta=0.0, k_ratio=1.0, duration=2.0, seed=8)
    stats = run_ensemble(cfg, MIXED, 300)
    assert stats.avg_lambda[0] == -0.5
    assert stats.avg_lambda[-1] > -0.25
    assert np.all(stats.avg_concurrence == 0.0)
    assert stats.n_never == 300
    assert stats.event_totals()[EventKind.GENESIS] == 0


def test_event_grammar_and_genesis_bookkeeping():
    cfg = SimConfig(k_ratio=0.3, duration=4.0, seed=5, record_stride=10)
    stats = run_ensemble(cfg, MIXED, 200)
    n_genesis = 0
    for run, gt in zip(stats.events, stats.genesis_times):
        kinds = [ev.kind for ev in run]
        ts = [ev.time for ev in run]
        assert ts == sorted(ts)
        if kinds:
            # mixed start: genesis first, then alternating death/birth
            expected = [EventKind.GENESIS]
            while len(expected) < len(kinds):
                expected.append(
                    EventKind.SUDDEN_DEATH
                    if expected[-1] in (EventKind.GENESIS, EventKind.SUDDEN_BIRTH)
                    else EventKind.SUDDEN_BIRTH
                )
            assert kinds == expected
            n_genesis += 1
            assert gt == run[0].time
            assert gt > 0.0
        else:
            assert math.isnan(gt)
    assert stats.crossed_times.size + stats.n_never == 200
    assert stats.crossing_fraction == n_genesis / 200
    deaths, births = stats.death_birth_counts()
    assert np.all(births <= deaths)
    kinds = [ev.kind for run in stats.events for ev in run]
    assert stats.event_totals() == {kind: kinds.count(kind) for kind in EventKind}
    for kind, counts in ((EventKind.SUDDEN_DEATH, deaths), (EventKind.SUDDEN_BIRTH, births)):
        assert counts.tolist() == [[ev.kind for ev in run].count(kind) for run in stats.events]


def test_run_ensemble_rejects_off_class_initial():
    m = np.eye(4, dtype=complex) / 4.0
    m[0, 3] = m[3, 0] = 0.1
    with pytest.raises(ValueError, match="X class"):
        run_ensemble(SimConfig(duration=0.2), sanitize(m).state, 2)
    # rho_14 = Re rho_23 = 0, but another coherence is not
    for slot, value in (((0, 2), 0.2), ((0, 1), 0.2j)):
        m = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        m[slot], m[slot[::-1]] = value, np.conj(value)
        with pytest.raises(ValueError, match="X class"):
            run_ensemble(SimConfig(duration=0.2), sanitize(m).state, 2)
        with pytest.raises(ValueError, match="X class"):
            coupled_step_bias(SimConfig(duration=0.2), sanitize(m).state, 2)


def test_rise_times_recorded():
    cfg = SimConfig(k_ratio=30.0, duration=0.2, seed=4)
    stats = run_ensemble(cfg, MIXED, 32, rise_threshold=-0.05)
    risen = stats.rise_times[~np.isnan(stats.rise_times)]
    assert risen.size > 0
    assert np.all(risen >= 0.0)
    assert np.all(risen <= 0.2)


# ------------------------------------------------------------- histogram


def test_histogram_single_bin():
    stats = make_stats([1.0] * 5, 6)
    hist = genesis_histogram(stats, 0.2)
    assert hist.n_never == 1
    assert hist.counts.sum() == 5
    k = np.nonzero(hist.counts)[0]
    assert list(k) == [5]
    assert hist.edges[5] == pytest.approx(1.0)
    assert hist.edges[6] == pytest.approx(1.2)


def test_histogram_empty_and_validation():
    stats = make_stats([], 3)
    hist = genesis_histogram(stats, 0.5)
    assert hist.counts.sum() == 0
    assert hist.n_never == 3
    with pytest.raises(ValueError, match="bin_width"):
        genesis_histogram(stats, 0.0)


def test_histogram_counts_partition_crossers():
    stats = make_stats([0.05, 0.25, 0.26, 1.11], 6)
    hist = genesis_histogram(stats, 0.2)
    assert hist.counts.sum() == 4
    assert hist.counts[0] == 1 and hist.counts[1] == 2 and hist.counts[5] == 1


def test_histogram_csv_bytes(tmp_path):
    """to_csv writes through the shared table writer with the bytes of the
    f-string writer it replaced, over three blocks of rows."""
    rng = np.random.default_rng(8)
    stats = make_stats(list(rng.uniform(0.0, 130.0, 5000)) + [0.0, 0.1, 0.3], 5010)
    hist = genesis_histogram(stats, 0.1)
    assert hist.counts.size > 2 * trajectory._CSV_BLOCK
    hist.to_csv(tmp_path / "hist.csv")
    lines = ["bin_start,bin_end,count\n"] + [
        f"{a:.17g},{b:.17g},{c}\n"
        for a, b, c in zip(hist.edges[:-1], hist.edges[1:], hist.counts)
    ]
    assert (tmp_path / "hist.csv").read_bytes() == "".join(lines).encode("ascii")


# ------------------------------------------------------------ validation


def test_validation_worked_state_fast():
    cfg = SimConfig(delta=0.0, k_ratio=1.0, duration=12.0, dt=2e-3, seed=9)
    rep = validate_against_analytics([0.25, 0.25, 0.49, 0.01], cfg, 2000)
    assert rep.prediction.p_cross == pytest.approx(0.98)
    assert rep.passed()
    assert rep.n_crossed + rep.observed_fraction * 0 >= 0  # smoke on fields
    assert abs(rep.fraction_z) < 3.0
    assert abs(rep.mean_z) < 3.0
    d = rep.to_dict()
    assert d["passed"] is True
    assert d["n_runs"] == 2000


def test_validation_sudden_death_state():
    cfg = SimConfig(delta=0.0, k_ratio=1.0, duration=12.0, dt=2e-3, seed=13)
    rep = validate_against_analytics([0.24, 0.24, 0.01, 0.51], cfg, 2000)
    assert rep.prediction.p_cross == pytest.approx(0.9792)
    assert rep.passed()


def test_validation_mirrored_class():
    cfg = SimConfig(delta=0.0, k_ratio=1.0, duration=12.0, dt=2e-3, seed=21)
    rep = validate_against_analytics([0.49, 0.01, 0.25, 0.25], cfg, 2000)
    assert rep.prediction.p_cross == pytest.approx(0.98)
    assert math.isfinite(rep.prediction.r1)
    assert rep.passed()


def test_validation_jobs_invariant():
    cfg = SimConfig(delta=0.0, k_ratio=1.0, duration=8.0, dt=2e-3, seed=3)
    t1, o1 = first_crossing_times([0.25, 0.25, 0.49, 0.01], cfg, 600)
    t2, o2 = first_crossing_times([0.25, 0.25, 0.49, 0.01], cfg, 600, jobs=3)
    assert np.array_equal(t1, t2, equal_nan=True)
    assert o1 == o2


def test_validation_rejects_bad_inputs():
    cfg = SimConfig(delta=0.0, k_ratio=1.0, duration=4.0, dt=2e-3, seed=1)
    with pytest.raises(ValueError):
        validate_against_analytics([0.3, 0.2, 0.3, 0.2], cfg, 100)
    with pytest.raises(ValueError, match="no finite crossing boundary"):
        validate_against_analytics([0.25, 0.25, 0.25, 0.25], cfg, 100)
    drive_on = SimConfig(k_ratio=1.0, duration=4.0, dt=2e-3, seed=1)
    with pytest.raises(ValueError, match="delta = 0"):
        validate_against_analytics([0.25, 0.25, 0.49, 0.01], drive_on, 100)


def test_crossing_times_are_positive_and_bounded():
    cfg = SimConfig(delta=0.0, k_ratio=1.0, duration=10.0, dt=2e-3, seed=6)
    times, n_open = first_crossing_times([0.02, 0.02, 0.49, 0.47], cfg, 500)
    crossed = times[~np.isnan(times)]
    assert crossed.size > 400
    assert np.all(crossed > 0.0)
    assert np.all(crossed <= 10.0)
    assert n_open <= 5
    # the last coarse step of this window ends past 12 T_M, and a run of
    # seed 1 crosses within that overshoot: it counts as open
    state = [0.26, 0.26, 0.22, 0.26]
    cfg = SimConfig(delta=0.0, k_ratio=1.0, duration=12.0, dt=2e-3, seed=1)
    _, _, _, _, thr, dt1, tau_max = _crossing_chunks(state, cfg, 1)[0]
    assert walk_dts(thr, dt1, tau_max).sum() > 12.0
    times, n_open = first_crossing_times(state, cfg, 2000)
    crossed = times[~np.isnan(times)]
    assert np.all(crossed > 0.0)
    assert np.all(crossed <= 12.0)
    assert n_open > 0


def _stepped_crossings(args, z, u):
    """Plain per-run, per-step transcription of the crossing kernel.

    Populations through the Bayes map and the mean current as their
    weighted average, run j's noise and bridge uniform of step k read from
    z[k, j - lo] and u[k, j - lo], and the bridge rule written out. Returns
    the times and each run's fate: (kind, step) with kind hit, bridge,
    escape or open.
    """
    seed, p0, lo, hi, thr, dt1, tau_max = args
    tau_bulk = min(abs(thr) + 6.0 * math.sqrt(abs(thr)) + 2.0, tau_max)
    side = math.copysign(1.0, thr)
    n1 = max(1, math.ceil(tau_bulk / dt1))
    n2 = max(0, math.ceil((tau_max - n1 * dt1) / (20.0 * dt1)))
    dts = [dt1] * n1 + [20.0 * dt1] * n2
    times, fates = [], []
    for j in range(lo, hi):
        g, t, time_j, fate = 0.0, 0.0, math.nan, ("open", len(dts))
        for k, dt in enumerate(dts):
            w = [p * math.exp(s * g) for p, s in zip(p0, (1.0, 1.0, -1.0, -1.0))]
            mean = (w[0] + w[1] - w[2] - w[3]) / sum(w)
            g_new = g + (mean + z[k, j - lo] * math.sqrt(1.0 / dt)) * dt
            a, b = side * (g - thr), side * (g_new - thr)
            if b >= 0.0:
                time_j, fate = t + dt * (thr - g) / (g_new - g), ("hit", k)
                break
            if u[k, j - lo] < math.exp(-(a * b) / (DIFFUSION * dt)):
                time_j, fate = t + 0.5 * dt, ("bridge", k)
                break
            if b < -ESCAPE:
                fate = ("escape", k)
                break
            g, t = g_new, t + dt
        times.append(time_j)
        fates.append(fate)
    return np.array(times), fates, n1


_COVERS = {
    # runs retired after the step coarsens 20x
    "coarse": lambda fates, n1: sum(k >= n1 for _, k in fates) >= 5,
    # runs still open after 32 full noise blocks of the walk driver
    "noise_block": lambda fates, n1: sum(k >= 32 * _BLOCK for _, k in fates) >= 3,
    # runs retired by escape
    "escape": lambda fates, n1: sum(f == "escape" for f, _ in fates) >= 30,
    # a run still open at the window's end
    "open": lambda fates, n1: any(f == "open" for f, _ in fates),
}


@pytest.mark.parametrize(
    "state,dt,case",
    [
        ((0.10, 0.10, 0.28, 0.52), 1e-2, "coarse"),
        ((0.26, 0.26, 0.22, 0.26), 2e-3, "noise_block"),
        ((0.05, 0.05, 0.00, 0.90), 2e-3, "escape"),
        ((0.35, 0.35, 0.05, 0.25), 1e-2, "open"),
    ],
)
def test_crossing_chunk_matches_per_step_reference(state, dt, case, monkeypatch):
    """_crossing_chunk, its draws served from seeded tables z[step, run]
    and u[step, run] in place of the chunk stream, against the per-step
    reference reading the same tables. Column j of each table comes from
    its own stream, SeedSequence(seed, spawn_key=(j,)) for z and (j, 1)
    for u."""
    cfg = SimConfig(delta=0.0, k_ratio=1.0, duration=12.0, dt=dt, seed=11)
    args = _crossing_chunks(state, cfg, 64)[0]
    _, _, lo, hi, thr, dt1, tau_max = args
    n_steps = walk_dts(thr, dt1, tau_max).size

    def table(draw, *key):
        return np.stack([
            draw(np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(j, *key))))
            for j in range(lo, hi)
        ], axis=1)

    z = table(lambda g: g.standard_normal(n_steps))
    u = table(lambda g: g.random(n_steps), 1)
    ref_times, fates, n1 = _stepped_crossings(args, z, u)
    assert _COVERS[case](fates, n1)

    def table_draw(k0, k1, alive):
        return z[k0:k1, alive], u[k0:k1, alive]

    monkeypatch.setattr(ensemble, "block_draws", lambda rng: table_draw)
    got = _crossing_chunk(args)
    crossed = ~np.isnan(ref_times)
    assert np.array_equal(~np.isnan(got["times"]), crossed)
    assert got["n_open"] == sum(f == "open" for f, _ in fates)
    assert np.max(np.abs(got["times"][crossed] - ref_times[crossed])) <= 1e-12


def test_crossing_times_fixed_by_seed_and_chunk():
    """A crossing time is a function of the seed and its _CHUNK-run chunk:
    chunks computed one at a time in reverse order equal
    first_crossing_times at any worker count, and more runs leave the times
    of full chunks unchanged. Distinct chunks draw from distinct streams."""
    state = (0.26, 0.26, 0.22, 0.26)
    cfg = SimConfig(delta=0.0, k_ratio=1.0, duration=12.0, dt=2e-3, seed=11)
    chunks = _crossing_chunks(state, cfg, 600)
    assert [a[2:4] for a in chunks] == [(0, 256), (256, 512), (512, 600)]
    parts = {a[2]: _crossing_chunk(a) for a in reversed(chunks)}
    times = np.concatenate([parts[a[2]]["times"] for a in chunks])
    n_open = sum(part["n_open"] for part in parts.values())
    for jobs in (1, 3):
        got, got_open = first_crossing_times(state, cfg, 600, jobs=jobs)
        assert np.array_equal(got, times, equal_nan=True), jobs
        assert got_open == n_open
    head, _ = first_crossing_times(state, cfg, 512)
    assert np.array_equal(head, times[:512], equal_nan=True)
    assert not np.array_equal(times[:256], times[256:512], equal_nan=True)


def test_mean_current_is_tanh_of_shifted_gamma():
    gammas = np.linspace(-12.0, 12.0, 481)
    signs = np.array([1.0, 1.0, -1.0, -1.0])
    states = [
        (0.25, 0.25, 0.49, 0.01),
        (0.01, 0.01, 0.00, 0.98),
        (0.49, 0.01, 0.25, 0.25),
        (0.35, 0.35, 0.05, 0.25),
        (0.10, 0.20, 0.30, 0.40),
    ]
    for p in map(np.array, states):
        w = p[None, :] * np.exp(np.outer(gammas, signs))
        weighted = (w @ signs) / w.sum(axis=1)
        c = drift_offset(p[0] + p[1], p[2] + p[3])
        assert np.max(np.abs(np.tanh(gammas + c) - weighted)) <= 1e-15, p
    # a vanishing parity pins the current at -+1 exactly
    assert np.all(np.tanh(gammas + drift_offset(0.0, 1.0)) == -1.0)
    assert np.all(np.tanh(gammas + drift_offset(1.0, 0.0)) == 1.0)
    with pytest.raises(ValueError):
        drift_offset(0.0, 0.0)


# ---------------------------------------------------------------- output


def test_stats_writers(tmp_path):
    cfg = SimConfig(k_ratio=0.3, duration=3.0, seed=17, record_stride=20)
    stats = run_ensemble(cfg, MIXED, 64)
    avg = tmp_path / "avg_lambda.csv"
    ev = tmp_path / "events.csv"
    sj = tmp_path / "stats.json"
    gh = tmp_path / "genesis_hist.csv"
    stats.write_avg_lambda_csv(avg)
    stats.write_events_csv(ev)
    stats.write_stats_json(sj)
    genesis_histogram(stats, 0.2).to_csv(gh)

    rows = avg.read_text().strip().split("\n")
    assert rows[0] == "t,avg_lambda,se_lambda,avg_concurrence,se_concurrence"
    assert len(rows) == stats.times.size + 1
    first = rows[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == -0.5

    ev_rows = ev.read_text().strip().split("\n")
    n_events = sum(len(r) for r in stats.events)
    assert len(ev_rows) == n_events + 1
    ref = "run,step,time,kind\n" + "".join(
        f"{run},{e.step},{e.time:.17g},{e.kind.value}\n"
        for run, evs in enumerate(stats.events)
        for e in evs
    )
    assert ev.read_bytes() == ref.encode("ascii")

    import json

    blob = json.loads(sj.read_text())
    assert blob["n_runs"] == 64
    assert blob["n_crossed"] + blob["n_never"] == 64

    gh_rows = gh.read_text().strip().split("\n")
    assert gh_rows[0] == "bin_start,bin_end,count"

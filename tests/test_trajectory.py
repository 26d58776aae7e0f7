"""Integrator tests against closed-form and statistical oracles.

The Hamiltonian block is checked against scipy's matrix exponential, the
measurement update against the exact Bayes posterior, and the noise
calibration against the Gaussian law of the integrated detector record
(mean +-t/T_M, variance t/T_M per parity). Ensemble-level statistical
invariants use the vectorized kernel directly to keep runtimes small.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy.linalg import expm

from conftest import random_closed_class_bell, random_density_bell
from event_reference import detect_events
from paritysim import ensemble, fpt, trajectory
from paritysim.cli import main
from paritysim.concurrence import lambda_branch_max, lambda_branch_values
from paritysim.ensemble import run_ensemble
from paritysim.qstate import (
    DensityMatrix,
    DivergenceError,
    make_state,
    preset_state,
    state_to_json,
)
from paritysim.trajectory import _CSV_BLOCK, _EVENT_BLOCK, SimConfig, _write_csv, simulate
from step_reference import class_stepper


def bell_diag(p1, p2, p3, p4):
    return make_state(np.diag([p1, p2, p3, p4]).astype(complex), "bell")


MIXED = preset_state("mixed")
U1 = bell_diag(1, 0, 0, 0)
U4 = bell_diag(0, 0, 0, 1)


def batch_lambda(p, y):
    l1, l2, l3 = lambda_branch_values(p, y)
    return np.maximum(np.maximum(l1, l2), l3)


def hamiltonian(delta: float) -> np.ndarray:
    """Bell-basis Hamiltonian, the reference for the elementwise
    commutator of step_batch: the tunnel coupling connects only u2 and u3."""
    if not delta > 0:
        raise ValueError("delta must be positive")
    h = np.zeros((4, 4))
    h[1, 2] = h[2, 1] = delta
    return h


def rows_step(s, xi, cfg, floor):
    """One step of (5, n) class rows s on draws xi through the rows block
    stepper; returns (the rows after the step, sum of |tr - 1|, clipped
    magnitude, lanes clipped)."""
    states = np.stack([s, np.full_like(s, np.nan)])
    advance = trajectory._rows_stepper(cfg, floor, s.shape[1])
    health = advance(states, np.stack([xi, np.full_like(xi, np.nan)]), 0, (0.0, 0.0, 0))
    return (states[1], *health)


def lanes_advance(p, y, xi, cfg, floor):
    """One step of class lanes (p, y) on draws xi on the rows block stepper;
    returns (p, y, sum of |tr - 1|, clipped magnitude, lanes clipped)."""
    s, *health = rows_step(trajectory._class_rows(p, y, len(y)), xi, cfg, floor)
    return (s[:4].T, s[4], *health)


def run_batch(cfg, initial, n_runs, checkpoints=frozenset()):
    """Small ensemble on the rows block stepper through simulate's stepping
    loop, its lanes on the ensemble's chunk-0 stream drawn step-major
    across all n_runs lanes (an ensemble's runs for n_runs <= 256, and
    simulate's for n_runs = 1); returns the final
    (p, y), the summed (trace corrections, clipped magnitude, lanes
    clipped) and {step: (p, y)} from the loop's blocks."""
    rows = trajectory._class_rows(initial.diag, initial.mat[1, 2].imag, n_runs)
    advance = trajectory._rows_stepper(cfg, trajectory.clip_floor(cfg), n_runs)
    grabbed = {}
    for k0, states, _, health in trajectory._step_blocks(cfg, 0, n_runs, rows, advance):
        for k in checkpoints & set(range(k0 + 1, k0 + len(states))):
            grabbed[k] = (states[k - k0, :4].T.copy(), states[k - k0, 4].copy())
    return (states[-1, :4].T.copy(), states[-1, 4].copy()), health, grabbed


def class_matrices(p, y):
    """(n, 4, 4) Bell-basis matrices of class lanes."""
    rho = np.zeros((p.shape[0], 4, 4), dtype=complex)
    rho[:, range(4), range(4)] = p
    rho[:, 1, 2] = 1j * y
    rho[:, 2, 1] = -1j * y
    return rho


# -------------------------------------------------------------- structure


def test_hamiltonian_matrix():
    h = hamiltonian(1.0)
    expect = np.zeros((4, 4))
    expect[1, 2] = expect[2, 1] = 1.0
    assert np.array_equal(h, expect)
    assert np.array_equal(hamiltonian(3.5), 3.5 * expect)
    with pytest.raises(ValueError):
        hamiltonian(0.0)


def test_stationary_diagonal_commutator():
    h = hamiltonian(2.0)
    rho = np.diag([0.7, 0.0, 0.0, 0.3])
    assert np.allclose(h @ rho - rho @ h, 0.0, atol=0.0)


def test_u2_rotation_matches_expm_oracle():
    """H alone rotates u2 <-> u3: populations cos^2/sin^2(Delta t), rho_23
    purely imaginary. Oracle: scipy expm of the generator."""
    delta = 2.0 * math.pi
    h = hamiltonian(delta)
    rho0 = np.zeros((4, 4), dtype=complex)
    rho0[1, 1] = 1.0
    for t in (0.03, 0.11, 0.20):
        u = expm(-1j * h * t)
        rho_t = u @ rho0 @ u.conj().T
        assert rho_t[1, 1].real == pytest.approx(math.cos(delta * t) ** 2, abs=1e-12)
        assert rho_t[2, 2].real == pytest.approx(math.sin(delta * t) ** 2, abs=1e-12)
        assert abs(rho_t[1, 2].real) < 1e-12
        assert abs(rho_t[0, 0]) < 1e-15 and abs(rho_t[3, 3]) < 1e-15


def test_step_batch_hamiltonian_term_tracks_expm():
    """With noise off and the measurement rate negligible, the elementwise
    commutator reproduces the unitary rotation."""
    cfg = SimConfig(k_ratio=1e-5, duration=0.25, dt=2.0 * math.pi / (2.0 * math.pi) / 20000)
    rho = np.zeros((1, 4, 4), dtype=complex)
    rho[0, 1, 1] = 1.0
    n = int(round(0.25 / cfg.dt))
    for _ in range(n):
        rho = trajectory.step_batch(
            rho, np.zeros(1), cfg.dt, cfg.s0, cfg.delta, cfg.gamma
        )
        rho = trajectory.hermitize(rho)
        rho /= np.real(np.einsum("nii->n", rho))[:, None, None]
    u = expm(-1j * hamiltonian(cfg.delta) * n * cfg.dt)
    expect = u @ np.diag([0, 1, 0, 0]).astype(complex) @ u.conj().T
    assert np.max(np.abs(rho[0] - expect)) < 5e-3


# ------------------------------------------------------------ fixed points


def test_u1_projector_is_exact_fixed_point():
    """Any noise leaves the U1 projector exactly in place, on the 4x4
    kernel, on the class kernel and along a simulated run."""
    cfg = SimConfig(k_ratio=2.0, duration=0.1)
    floor = trajectory.clip_floor(cfg)
    for xi in (-3.7, 0.0, 12.0):
        out = trajectory.step_batch(
            U1.mat[None].astype(complex), np.array([xi]), cfg.dt, cfg.s0, cfg.delta, cfg.gamma
        )
        assert np.array_equal(out[0], U1.mat)
        p, y, _, _, n_c = lanes_advance(U1.diag[None], np.zeros(1), np.array([xi]), cfg, floor)
        assert np.array_equal(p[0], U1.diag) and y[0] == 0.0 and n_c == 0
    rec = simulate(cfg, U1)
    assert np.all(rec.states == U1.mat)


def test_diagonal_state_fixed_under_zero_noise():
    cfg = SimConfig(k_ratio=1.0, duration=0.1)
    rho = bell_diag(0.1, 0.2, 0.3, 0.4)
    with np.errstate(all="raise"):
        out = trajectory.step_batch(
            rho.mat[None].astype(complex), np.zeros(1), cfg.dt, cfg.s0, 0.0, cfg.gamma
        )
    assert np.max(np.abs(out[0] - rho.mat)) < 1e-16


def test_u4_trajectory_stays_maximally_entangled():
    cfg = SimConfig(k_ratio=2.0, duration=1.0, seed=11)
    rec = simulate(cfg, U4)
    assert np.all(np.abs(rec.concurrence - 1.0) < 1e-12)
    assert np.all(np.abs(rec.lam - 1.0) < 1e-12)
    # current samples scatter around the odd-parity value -1
    se = math.sqrt(trajectory.C_NOISE * cfg.s0 / cfg.dt / rec.currents.size)
    assert abs(np.mean(rec.currents) + 1.0) < 4.0 * se


# ------------------------------------------------------- measurement update


def test_single_step_matches_bayes_posterior():
    """Diagonal Euler update vs the exact posterior with log-likelihood
    increment xi dt / S0: the gap shrinks linearly in dt at fixed
    standardized noise."""
    cfg = SimConfig(k_ratio=1.0, duration=1.0)
    state = fpt.diagonal_state([0.25, 0.25, 0.25, 0.25])
    u = 1.3  # standardized noise draw
    errs = []
    for dt in (cfg.t_m / 200.0, cfg.t_m / 2000.0, cfg.t_m / 20000.0):
        xi = u * math.sqrt(trajectory.C_NOISE * cfg.s0 / dt)
        out = trajectory.step_batch(
            np.diag([0.25] * 4).astype(complex)[None], np.array([xi]), dt, cfg.s0, 0.0, cfg.gamma
        )
        euler = np.real(np.diagonal(out[0]))
        euler = euler / euler.sum()
        bayes = fpt.bayes_update(state, xi * dt / cfg.s0).p
        errs.append(np.max(np.abs(euler - bayes)))
    assert errs[1] < errs[0] / 8.0
    assert errs[2] < errs[1] / 8.0


def class_test_states(rng):
    """Random class states plus pure and boundary ones whose Euler step
    overshoots the physical set."""
    mats = [random_closed_class_bell(rng) for _ in range(48)]
    for _ in range(16):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        w = rng.uniform(0.2, 1.0)           # weight of a pure u2-u3 block
        q = rng.uniform(0.0, 1.0 - w)
        mat = np.diag([q, 0.0, 0.0, 1.0 - w - q]).astype(complex)
        mat[1, 1] = w * math.cos(theta) ** 2
        mat[2, 2] = w * math.sin(theta) ** 2
        mat[1, 2] = 1j * w * math.cos(theta) * math.sin(theta)
        mat[2, 1] = -mat[1, 2]
        mats.append(mat)
    for _ in range(16):
        p = rng.dirichlet(np.ones(4))
        p[rng.integers(1, 3)] = 0.0         # empty u2 or u3, no coherence
        mats.append(np.diag(p / p.sum()).astype(complex))
    mats = np.array(mats)
    return np.real(np.einsum("nii->ni", mats)), np.imag(mats[:, 1, 2]), mats


def test_class_kernel_matches_4x4_path(rng):
    """class step + class repair against step_batch -> hermitize ->
    renormalize -> clip_negative_eigenvalues, with the drive and an
    environment rate on, including lanes the 4x4 trigger repairs."""
    g = np.zeros((4, 4))
    g[1, 2] = g[2, 1] = 0.7
    cfg = SimConfig(k_ratio=1.0, duration=1.0, gamma=g)
    floor = trajectory.clip_floor(cfg)
    p, y, mats = class_test_states(rng)
    xi = rng.normal(0.0, math.sqrt(cfg.s0 / cfg.dt), p.shape[0])

    rho = trajectory.hermitize(
        trajectory.step_batch(mats, xi, cfg.dt, cfg.s0, cfg.delta, cfg.gamma)
    )
    rho /= np.real(np.einsum("nii->n", rho))[:, None, None]
    rho, total_4x4, n_4x4 = trajectory.clip_negative_eigenvalues(rho, floor)
    p_new, y_new, _, total, n_c = lanes_advance(p, y, xi, cfg, floor)

    assert n_4x4 >= 16  # the boundary lanes are exercised
    assert n_c == n_4x4
    assert abs(total - total_4x4) <= 1e-14
    assert np.max(np.abs(class_matrices(p_new, y_new) - rho)) <= 1e-14


def test_class_subsystem_tracks_full_states(rng):
    """From off-class full states, unclipped, the populations and Im rho_23
    of the 4x4 update follow the class kernel: the subsystem is closed."""
    cfg = SimConfig(k_ratio=1.0, duration=1.0)
    rho = np.array([random_density_bell(rng) for _ in range(32)])
    s = trajectory._class_rows(np.real(np.einsum("nii->ni", rho)), np.imag(rho[:, 1, 2]), 32)
    coef = trajectory._drive_coefficients(cfg.dt, cfg.s0, cfg.delta, 0.0)
    for _ in range(50):
        xi = rng.normal(0.0, math.sqrt(cfg.s0 / cfg.dt), rho.shape[0])
        rho = trajectory.hermitize(
            trajectory.step_batch(rho, xi, cfg.dt, cfg.s0, cfg.delta, cfg.gamma)
        )
        rho /= np.real(np.einsum("nii->n", rho))[:, None, None]
        *rows, tr = trajectory._class_step(*s, xi * (cfg.dt / cfg.s0), coef)
        s = np.divide(rows, tr)
    p, y = s[:4].T, s[4]
    assert np.max(np.abs(np.real(np.einsum("nii->ni", rho)) - p)) <= 1e-14
    assert np.max(np.abs(np.imag(rho[:, 1, 2]) - y)) <= 1e-14


def test_class_path_positivity_is_exact():
    """On the class path every recorded state is positive to rounding:
    p1, p4 >= 0 and p2 p3 >= y^2 within 1e-15, for single runs and for
    ensemble checkpoints."""

    def margins(p, y):
        return min(p[:, 0].min(), p[:, 3].min(), (p[:, 1] * p[:, 2] - y**2).min())

    cfg = SimConfig(k_ratio=0.3, duration=3.0, seed=8)
    rec = simulate(cfg, MIXED)
    assert rec.n_clips > 0
    pops = np.real(np.einsum("nii->ni", rec.states))
    assert margins(pops, np.imag(rec.states[:, 1, 2])) >= -1e-15
    checkpoints = set(range(1, cfg.n_steps + 1, 7))
    _, _, grabbed = run_batch(cfg, MIXED, 64, checkpoints)
    assert min(margins(p, y) for p, y in grabbed.values()) >= -1e-15


def test_simulate_lane_equals_batch_of_one():
    """simulate's one-lane class stepper is bitwise the batch stepper at n = 1:
    recorded states, currents and the health totals, over the regimes, an
    environment rate, a record stride, a start with y != 0, a Bell-state
    start, whose lane never reaches the repair, and a run long enough to
    purify, where more than half the steps repair on the lane's floats."""
    g = np.zeros((4, 4))
    g[1, 2] = g[2, 1] = 0.7
    cases = [
        (SimConfig(k_ratio=0.3, duration=3.0, seed=8), MIXED),
        (SimConfig(k_ratio=1.0, duration=1.0, seed=3), MIXED),
        (SimConfig(k_ratio=30.0, duration=0.5, seed=5), MIXED),
        (SimConfig(k_ratio=1.0, duration=1.0, seed=4, gamma=g), MIXED),
        (SimConfig(k_ratio=2.0, duration=1.0, seed=6, record_stride=7), MIXED),
        (SimConfig(k_ratio=1.0, duration=1.0, seed=2), preset_state("sigma-boundary")),
        (SimConfig(k_ratio=1.0, duration=2.0, seed=9), preset_state("bell-u4")),
        (SimConfig(k_ratio=0.3, duration=10.0, seed=1), MIXED),
    ]
    assert preset_state("sigma-boundary").mat[1, 2].imag != 0.0
    repairs = 0
    for cfg, initial in cases:
        rec = simulate(cfg, initial)
        steps = np.round(rec.times / cfg.dt).astype(int)
        _, totals, grabbed = run_batch(cfg, initial, 1, set(steps))
        p = np.array([initial.diag] + [grabbed[k][0][0] for k in steps[1:]])
        y = np.array([initial.mat[1, 2].imag] + [grabbed[k][1][0] for k in steps[1:]])
        assert np.array_equal(rec.states, class_matrices(p, y))
        rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(0,)))
        xi = rng.normal(0.0, math.sqrt(trajectory.C_NOISE * cfg.s0 / cfg.dt), cfg.n_steps + 1)
        mean_i = ((p[:, 0] + p[:, 1]) - p[:, 2]) - p[:, 3]
        assert np.array_equal(rec.currents, mean_i + xi[steps])
        assert (rec.trace_correction_total, rec.clip_total, rec.n_clips) == totals
        repairs += rec.n_clips
    assert repairs >= 1_700


def bits(values):
    """The float64 bit patterns of values, for comparisons that tell -0.0
    from 0.0."""
    return np.asarray(values, dtype=float).view(np.uint64)


@st.composite
def class_lanes(draw):
    """(5, n) rows of random class lanes and one draw a per lane. A lane is
    in the bulk, has y up to 5% beyond the 2x2 bound sqrt(p2 p3), has an
    empty u2-u3 block (p2 = p3 = y = 0), or has p1 or p4 pushed up to 0.01
    below zero, so the repair sees flagged and unflagged lanes."""
    lanes, a = [], []
    for _ in range(draw(st.integers(1, 8))):
        w = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4))) + 1e-3
        p = w / w.sum()
        y = draw(st.floats(-1.05, 1.05)) * math.sqrt(p[1] * p[2])
        kind = draw(st.sampled_from(("bulk", "empty", "negative")))
        if kind == "empty":
            p[1] = p[2] = y = 0.0
        elif kind == "negative":
            p[draw(st.sampled_from((0, 3)))] -= draw(st.floats(0.0, 0.01))
        lanes.append((*p, y))
        a.append(draw(st.floats(-0.5, 0.5)))
    return np.array(lanes).T, np.array(a)


# lanes: unflagged bulk, flagged by y > sqrt(p2 p3), an unflagged empty u2-u3
# block, an empty block flagged by p1 < 0, an unflagged and a p4 < 0 lane
# with coinciding u2-u3 eigenvalues (r = 0), p1 = -0.0 flagged by l-,
# p1, p4 and l- all negative, where the order of the clipped sum shows, and
# a lane flagged by l- whose hypot(d, y) math.hypot gets one ulp off
EDGE_LANES = (
    np.array([[0.25, 0.1, 0.5, -1e-3, 0.4, 0.35, -0.0, -0.004, 0.3],
              [0.25, 0.4, 0.0, 0.0, 0.1, 0.33, 0.4, 0.4, 0.263],
              [0.25, 0.4, 0.0, 0.0, 0.1, 0.33, 0.1, 0.1, 0.177],
              [0.25, 0.1, 0.5, 1.001, 0.4, -0.01, 0.5, -0.005, 0.2],
              [0.1, 0.41, 0.0, 0.0, 0.0, 0.0, 0.21, 0.238, 0.22]]),
    np.array([0.03, -0.2, 0.1, 0.0, 0.05, -0.1, 0.2, 0.0, 0.0]),
)
EDGE_FLAGS = [0, 1, 0, 1, 0, 1, 1, 1, 1]


@given(lanes=class_lanes(), delta=st.floats(0.0, 10.0), gamma23=st.floats(0.0, 5.0))
@example(lanes=EDGE_LANES, delta=2.0 * math.pi, gamma23=0.7)
def test_class_step_same_bits_on_floats_and_rows(lanes, delta, gamma23):
    """_class_step on one lane's Python floats gives the bits it gives for
    that lane on (n,) rows."""
    s, a = lanes
    coef = trajectory._drive_coefficients(0.005, 1.0, delta, gamma23)
    rows = trajectory._class_step(*s, a, coef)
    for j in range(s.shape[1]):
        lane = trajectory._class_step(*s[:, j].tolist(), float(a[j]), coef)
        assert all(type(v) is float for v in lane)
        assert np.array_equal(bits(lane), bits([row[j] for row in rows]))


@given(lanes=class_lanes())
@example(lanes=EDGE_LANES)
def test_class_repair_lane_equals_lane_of_batch(lanes):
    """_rows_repair on a one-lane array gives the bits that lane gets in
    an n-lane call; unflagged lanes stay as they were, and the lanes
    clipped add up."""
    s, _ = lanes
    floor = trajectory.clip_floor(SimConfig())
    batch = s.copy()
    total, n_clipped = trajectory._rows_repair(floor, s.shape[1])(batch)
    totals, counts = [], 0
    for j in range(s.shape[1]):
        one = s[:, j : j + 1].copy()
        t, c = trajectory._rows_repair(floor, 1)(one)
        assert np.array_equal(bits(one), bits(batch[:, j : j + 1]))
        if c == 0:
            assert t == 0.0 and np.array_equal(bits(one), bits(s[:, j : j + 1]))
        totals.append(t)
        counts += c
    assert counts == n_clipped
    assert math.isclose(total, math.fsum(totals), rel_tol=1e-12, abs_tol=0.0)


@given(lanes=class_lanes())
@example(lanes=EDGE_LANES)
def test_class_repair_same_bits_on_floats_and_rows(lanes):
    """_lane_repair on one lane's Python floats gives the bits _rows_repair
    gives that lane as a (5, 1) row: the state, the clipped magnitude and
    whether the lane was flagged; below the clip floor both raise the same
    DivergenceError."""
    s, _ = lanes
    floor = trajectory.clip_floor(SimConfig())
    flags = []
    for j in range(s.shape[1]):
        row = s[:, j : j + 1].copy()
        total, n_c = trajectory._rows_repair(floor, 1)(row)
        lane, clipped, flagged = trajectory._lane_repair(*s[:, j].tolist(), floor)
        assert all(type(v) is float for v in (*lane, clipped))
        assert np.array_equal(bits(lane), bits(row[:, 0]))
        assert bits(clipped) == bits(total) and flagged == n_c
        flags.append(flagged)
        if flagged:
            with pytest.raises(DivergenceError, match="below the clip floor") as rows_err:
                trajectory._rows_repair(1e-300, 1)(s[:, j : j + 1].copy())
            with pytest.raises(DivergenceError) as lane_err:
                trajectory._lane_repair(*s[:, j].tolist(), 1e-300)
            assert str(lane_err.value) == str(rows_err.value)
    if s is EDGE_LANES[0]:
        assert flags == EDGE_FLAGS


# 44 lanes, the width of a 300-run ensemble's last chunk: the edge lanes
# tiled, each copy on other draws, then an unflagged lane whose p1 sits
# within the rounding slack below zero, so its clipped part is not 0 and
# the clipped sum must leave it out
WIDE_LANES = (
    np.column_stack([np.tile(EDGE_LANES[0], 5)[:, :43], [-4e-16, 0.3, 0.3, 0.4, 0.1]]),
    np.append(np.linspace(-0.4, 0.4, 43), 0.0),
)


@given(lanes=class_lanes(), delta=st.one_of(st.just(0.0), st.floats(1e-3, 10.0)),
       gamma23=st.floats(0.0, 5.0))
@example(lanes=EDGE_LANES, delta=2.0 * math.pi, gamma23=0.7)
@example(lanes=(EDGE_LANES[0][:, 1:2], EDGE_LANES[1][1:2]), delta=2.0 * math.pi, gamma23=0.0)
@example(lanes=WIDE_LANES, delta=2.0 * math.pi, gamma23=0.7)
def test_rows_step_same_bits_as_lane_step(lanes, delta, gamma23):
    """One step of the rows block stepper gives every lane the bits of the
    float lane step: _class_step on that lane's floats and scaled draw,
    division by tr, then _lane_repair. Its health is numpy's sums, in lane
    order, of the lanes' |tr - 1| and of the flagged lanes' clipped
    magnitudes, and its lanes clipped the flagged lanes' count. Lanes are
    renormalized first, so every trace stays within the drift bound, and
    the floor is wide, so no lane raises."""
    s, a = lanes
    s = s / s[:4].sum(axis=0)
    g = np.zeros((4, 4))
    g[1, 2] = g[2, 1] = gamma23
    cfg = SimConfig(delta=delta, dt=0.005, gamma=g)
    floor, per_xi = 1.0, cfg.dt / cfg.s0
    coef = trajectory._drive_coefficients(cfg.dt, cfg.s0, cfg.delta, gamma23)
    xi = a / per_xi
    rows, corrections, clip_total, n_clips = rows_step(s, xi, cfg, floor)
    devs, clipped = [], []
    for j in range(s.shape[1]):
        *lane, tr = trajectory._class_step(*s[:, j].tolist(), float(xi[j]) * per_xi, coef)
        lane, total, flagged = trajectory._lane_repair(*(v / tr for v in lane), floor)
        assert np.array_equal(bits(lane), bits(rows[:, j]))
        devs.append(abs(tr - 1.0))
        clipped += [total] * flagged
    assert bits(corrections) == bits(np.sum(np.array(devs)))
    assert bits(clip_total) == bits(np.sum(np.array(clipped)))
    assert n_clips == len(clipped)


def test_lane_path_skips_repair_on_empty_u2_u3_block(monkeypatch):
    """From u1 or u4 the u2-u3 block stays exactly empty, so the lane
    prefilter clears every step without entering _lane_repair; from the
    mixed state the lane enters it, and every repair counted was made
    there. The lane never builds the rows projection _rows_repair."""
    flagged = []
    project = trajectory._lane_repair

    def counting(*lane):
        out = project(*lane)
        flagged.append(out[2])
        return out

    def rows_projection(floor, n):
        raise AssertionError("the lane built _rows_repair")

    monkeypatch.setattr(trajectory, "_lane_repair", counting)
    monkeypatch.setattr(trajectory, "_rows_repair", rows_projection)
    cfg = SimConfig(k_ratio=1.0, duration=2.0, seed=6)
    for name in ("bell-u1", "bell-u4"):
        rec = simulate(cfg, preset_state(name))
        assert rec.n_clips == 0 and rec.clip_total == 0.0
        assert np.all(rec.lam == 1.0)
    assert flagged == []
    rec = simulate(cfg, MIXED)
    assert rec.n_clips > 0 and sum(flagged) == rec.n_clips


def test_noise_calibration():
    """The pinned (coefficient, variance) pair: integrated record of a
    frozen even-parity state is Gaussian with mean t/T_M and variance
    t/T_M."""
    cfg = SimConfig(k_ratio=2.0, duration=1.0, seed=5)  # t = 2 T_M
    n_runs, n_steps = 4000, cfg.n_steps
    sigma = math.sqrt(trajectory.C_NOISE * cfg.s0 / cfg.dt)
    gammas = np.empty(n_runs)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=5, spawn_key=(0,)))
    for i in range(n_runs):
        xi = rng.normal(0.0, sigma, n_steps)
        gammas[i] = np.sum(1.0 + xi) * cfg.dt / cfg.s0  # frozen <I> = +1
    tau = cfg.duration / cfg.t_m
    se_mean = math.sqrt(tau / n_runs)
    assert abs(gammas.mean() - tau) < 4.0 * se_mean
    se_var = tau * math.sqrt(2.0 / (n_runs - 1))
    assert abs(gammas.var(ddof=1) - tau) < 4.0 * se_var


def test_simulate_noise_distribution():
    """From the stationary U1 state the recorded currents minus 1 are the
    noise draws: the SeedSequence(seed, spawn_key=(0,)) stream, with zero
    mean and variance C_NOISE S0 / dt."""
    cfg = SimConfig(k_ratio=1.0, duration=100.0, seed=7)
    draws = simulate(cfg, U1).currents - 1.0
    assert draws.size == cfg.n_steps + 1 == 20001
    var = trajectory.C_NOISE * cfg.s0 / cfg.dt
    rng = np.random.default_rng(np.random.SeedSequence(entropy=7, spawn_key=(0,)))
    assert np.max(np.abs(draws - rng.normal(0.0, math.sqrt(var), draws.size))) < 1e-12
    assert abs(draws.mean()) < 4.0 * math.sqrt(var / draws.size)
    assert abs(draws.var(ddof=1) - var) < 4.0 * var * math.sqrt(2.0 / draws.size)


def test_trajectory_posterior_tracks_record_bayes_filter():
    """Along a measurement-only run, the integrated record (1/S0) int I dt
    reproduces the state via the exact Bayes filter up to O(dt) stepping
    error."""
    cfg = SimConfig(k_ratio=1.0, duration=0.5, dt=1.0 / 5000.0, seed=23)
    init = fpt.diagonal_state([0.25, 0.25, 0.3, 0.2])
    rho = np.array([np.diag(init.p).astype(complex)])
    rng = np.random.default_rng(np.random.SeedSequence(entropy=23, spawn_key=(0,)))
    sigma = math.sqrt(trajectory.C_NOISE * cfg.s0 / cfg.dt)
    gamma_rec = 0.0
    for _ in range(cfg.n_steps):
        xi = rng.normal(0.0, sigma)
        mean_i = float(np.real(rho[0, 0, 0] + rho[0, 1, 1] - rho[0, 2, 2] - rho[0, 3, 3]))
        gamma_rec += (mean_i + xi) * cfg.dt / cfg.s0
        rho = trajectory.step_batch(rho, np.array([xi]), cfg.dt, cfg.s0, 0.0, cfg.gamma)
        rho = trajectory.hermitize(rho)
        rho /= np.real(np.einsum("nii->n", rho))[:, None, None]
    filtered = fpt.bayes_update(init, gamma_rec).p
    stepped = np.real(np.diagonal(rho[0]))
    assert np.max(np.abs(stepped - filtered)) < 5e-3


# ----------------------------------------------------------- full runs


def test_simulate_deterministic_and_seed_sensitive():
    cfg = SimConfig(k_ratio=1.0, duration=0.5, seed=42)
    a = simulate(cfg, MIXED)
    b = simulate(cfg, MIXED)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.currents, b.currents)
    c = simulate(SimConfig(k_ratio=1.0, duration=0.5, seed=43), MIXED)
    assert not np.array_equal(a.currents, c.currents)


def test_trace_corrections_stay_at_rounding_floor():
    """Trace is preserved algebraically; logged corrections must sit at the
    accumulation floor of double rounding for any dt."""
    for dt_div in (200.0, 400.0):
        cfg = SimConfig(k_ratio=1.0, duration=1.0, dt=1.0 / dt_div, seed=9)
        rec = simulate(cfg, MIXED)
        assert rec.trace_correction_total <= cfg.n_steps * 1e-14


def test_positivity_projections_shrink_with_dt():
    """Tangential boundary overshoots are clipped; the logged total must
    fall at least linearly in dt (measured: much faster)."""
    totals = []
    for dt_div in (200, 400):
        tot = 0.0
        for s in range(40):
            cfg = SimConfig(k_ratio=1.0, duration=1.0, dt=1.0 / dt_div, seed=s)
            tot += simulate(cfg, MIXED).clip_total
        totals.append(tot)
    assert totals[0] > 0.0  # the regime actually exercises the projection
    assert totals[1] <= 0.5 * totals[0]


def test_x_closure_along_runs():
    for seed in (1, 2):
        cfg = SimConfig(k_ratio=4.0, duration=2.0, seed=seed)
        rec = simulate(cfg, MIXED)
        assert np.max(np.abs(rec.states[:, 0, 3])) <= 1e-12
        assert np.max(np.abs(np.real(rec.states[:, 1, 2]))) <= 1e-12
        # sigma-style initial coherence keeps the closure too
        sigma_state = preset_state("sigma-boundary")
        rec = simulate(cfg, sigma_state)
        assert np.max(np.abs(rec.states[:, 0, 3])) <= 1e-12
        assert np.max(np.abs(np.real(rec.states[:, 1, 2]))) <= 1e-12


def test_record_grid_and_stride():
    cfg = SimConfig(k_ratio=1.0, duration=0.1, dt=1e-3, record_stride=7, seed=3)
    rec = simulate(cfg, MIXED)
    assert rec.times[0] == 0.0
    assert rec.times[-1] == pytest.approx(0.1, abs=1e-12)
    steps = np.round(rec.times / cfg.dt).astype(int)
    assert np.all(np.diff(steps[:-1]) == 7)
    assert rec.integrated_output[0] == 0.0
    # running mean of the record at full resolution matches a direct
    # reconstruction at the recorded points
    assert len(rec) == len(rec.times)


def test_simulate_records_integrated_output_consistently():
    cfg = SimConfig(k_ratio=1.0, duration=0.05, dt=1e-3, seed=6)
    rec = simulate(cfg, MIXED)
    # with stride 1 the running mean can be rebuilt from the current column
    isum = np.cumsum(rec.currents[:-1]) * cfg.dt
    expect = isum / rec.times[1:]
    assert np.max(np.abs(rec.integrated_output[1:] - expect)) < 1e-10


def test_parity_populations_martingale():
    """Measurement only: ensemble-average odd weight is constant in time."""
    cfg = SimConfig(k_ratio=1.0, duration=2.0, seed=77)
    n_runs = 10_000
    n_steps = cfg.n_steps
    sigma = math.sqrt(trajectory.C_NOISE * cfg.s0 / cfg.dt)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=77, spawn_key=(1,)))
    s = trajectory._class_rows(np.full(4, 0.25), 0.0, n_runs)
    coef = trajectory._drive_coefficients(cfg.dt, cfg.s0, 0.0, 0.0)
    checkpoints = {n_steps // 4, n_steps // 2, n_steps}
    for k in range(n_steps):
        xi = rng.normal(0.0, sigma, n_runs)
        *s, _ = trajectory._class_step(*s, xi * (cfg.dt / cfg.s0), coef)
        if k + 1 in checkpoints:
            p_odd = s[2] + s[3]
            se = p_odd.std(ddof=1) / math.sqrt(n_runs)
            assert abs(p_odd.mean() - 0.5) < 3.0 * se + 1e-12


def test_step_size_convergence():
    """Halving dt moves the ensemble-average Lambda curve by less than the
    Monte Carlo error."""
    n_runs = 600
    curves = []
    ses = []
    for divider, seed in ((200, 101), (400, 102)):
        cfg = SimConfig(k_ratio=1.0, duration=1.0, dt=1.0 / divider, seed=seed)
        checkpoints = {cfg.n_steps // 4, cfg.n_steps // 2, cfg.n_steps}
        _, _, grabbed = run_batch(cfg, MIXED, n_runs, checkpoints)
        lam = {k * cfg.dt: batch_lambda(*v) for k, v in grabbed.items()}
        curves.append({t: v.mean() for t, v in lam.items()})
        ses.append({t: v.std(ddof=1) / math.sqrt(n_runs) for t, v in lam.items()})
    for t in curves[0]:
        se = math.hypot(ses[0][t], ses[1][t])
        assert abs(curves[0][t] - curves[1][t]) < 3.2 * se


def test_asymptotic_entanglement_recovery():
    """Weak coupling, long runs: the ensemble ends almost maximally
    entangled."""
    cfg = SimConfig(k_ratio=0.3, duration=20.0, seed=55)
    (p, y), _, _ = run_batch(cfg, MIXED, 200)
    lam = batch_lambda(p, y)
    assert np.mean(np.maximum(lam, 0.0)) >= 0.9


def test_zeno_regime_fast_lambda_rise():
    """Strong coupling: Lambda leaves -1/2 for the border on the T_M
    timescale."""
    cfg = SimConfig(k_ratio=30.0, duration=0.4, seed=88)
    n_runs = 30
    checkpoints = set(range(1, cfg.n_steps + 1))
    rho = np.broadcast_to(MIXED.mat, (n_runs, 4, 4)).astype(np.complex128).copy()
    sigma = math.sqrt(trajectory.C_NOISE * cfg.s0 / cfg.dt)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=88, spawn_key=(0,)))
    first = np.full(n_runs, np.inf)
    for k in range(cfg.n_steps):
        xi = rng.normal(0.0, sigma, n_runs)
        rho = trajectory.step_batch(rho, xi, cfg.dt, cfg.s0, cfg.delta, cfg.gamma)
        rho = trajectory.hermitize(rho)
        rho /= np.real(np.einsum("nii->n", rho))[:, None, None]
        lam = batch_lambda(np.real(np.einsum("nii->ni", rho)), np.imag(rho[:, 1, 2]))
        newly = (lam > -0.05) & ~np.isfinite(first)
        first[newly] = (k + 1) * cfg.dt
    assert np.median(first) < cfg.t_q / 10.0


# ------------------------------------------------------------- validation


def test_simconfig_validation():
    with pytest.raises(ValueError, match="dt"):
        SimConfig(k_ratio=1.0, duration=1.0, dt=0.02)  # above min/100 cap
    with pytest.raises(ValueError, match="dt"):
        SimConfig(k_ratio=1.0, duration=1.0, dt=0.0)
    with pytest.raises(ValueError, match="delta"):
        SimConfig(delta=-1.0, duration=1.0)
    with pytest.raises(ValueError, match="duration"):
        SimConfig(k_ratio=1.0, duration=0.0)
    with pytest.raises(ValueError, match="^duration"):
        SimConfig(k_ratio=1.0, duration=math.inf)
    with pytest.raises(ValueError, match="^k_ratio"):
        SimConfig(k_ratio=math.inf, duration=1.0)
    with pytest.raises(ValueError, match="^delta"):
        SimConfig(delta=math.inf, duration=1.0)
    with pytest.raises(ValueError, match="symmetric"):
        g = np.zeros((4, 4))
        g[0, 1] = 0.5
        SimConfig(k_ratio=1.0, duration=1.0, gamma=g)
    with pytest.raises(ValueError, match="symmetric"):
        g = np.zeros((4, 4))
        g[1, 2], g[2, 1] = 1.0, 1.000009  # within np.allclose's default rtol
        SimConfig(k_ratio=1.0, duration=1.0, gamma=g)
    with pytest.raises(ValueError, match="diagonal"):
        SimConfig(k_ratio=1.0, duration=1.0, gamma=np.eye(4))
    with pytest.raises(ValueError, match="stride"):
        SimConfig(k_ratio=1.0, duration=1.0, record_stride=0)
    for seed in (1.5, 2.0, "3", -1, 2**64):
        with pytest.raises(ValueError, match="seed"):
            SimConfig(k_ratio=1.0, duration=1.0, seed=seed)
    cfg = SimConfig(k_ratio=4.0, duration=1.0)
    assert cfg.t_q == pytest.approx(1.0)
    assert cfg.t_m == pytest.approx(0.25)
    assert cfg.s0 == cfg.t_m
    assert cfg.dt == pytest.approx(0.25 / 200.0)


def test_environment_gamma_decays_coherence():
    """A nonzero gamma_23 rate damps the 2-3 coherence of a Hamiltonian-off
    run at the prescribed exponential rate."""
    g = np.zeros((4, 4))
    g[1, 2] = g[2, 1] = 5.0
    cfg = SimConfig(k_ratio=1.0, duration=0.4, dt=1e-4, gamma=g)
    sigma_state = preset_state("sigma-boundary")
    rho = sigma_state.mat[None].astype(complex)
    for _ in range(cfg.n_steps):
        rho = trajectory.step_batch(rho, np.zeros(1), cfg.dt, cfg.s0, 0.0, cfg.gamma)
        rho = trajectory.hermitize(rho)
        rho /= np.real(np.einsum("nii->n", rho))[:, None, None]
    # rho_23 links the parity subspaces, so measurement dephasing
    # (I2-I3)^2/(8 S0) = 1/(2 S0) and the environment rate add
    rate = 1.0 / (2.0 * cfg.s0) + 5.0
    expect = 0.25 * math.exp(-rate * cfg.duration)
    assert rho[0, 1, 2].imag == pytest.approx(expect, rel=5e-3)


def test_divergence_names_step_and_clip_floor(tmp_path, monkeypatch, capsys):
    """With a vanishing clip floor the first repair is a divergence: on the
    lane path and on the 4x4 path simulate raises with the step and the
    floor named, and the trajectory command exits 3."""
    monkeypatch.setattr(trajectory, "clip_floor", lambda cfg: 1e-300)
    cfg = SimConfig(k_ratio=0.3, duration=3.0, seed=8)
    off_class = MIXED.mat.copy()
    off_class[0, 3] = off_class[3, 0] = 0.01
    for initial in (MIXED, make_state(off_class, "bell")):
        with pytest.raises(DivergenceError) as exc:
            simulate(cfg, initial)
        assert re.match(r"step \d+: eigenvalue .* below the clip floor -1e-300", str(exc.value))
    rc = main(["trajectory", "--k", "0.3", "--duration", "3", "--seed", "8",
               "--out", str(tmp_path / "d")])
    assert rc == 3
    assert "clip floor" in capsys.readouterr().err


def test_divergence_step_across_block_edge(monkeypatch):
    """Under a vanishing clip floor the first repair, past two block edges,
    diverges: simulate's lane loop and an ensemble of one's rows loop name
    the same global step, with the same message, and it is the first step a
    per-step class_stepper reference on the run's draws flags."""
    monkeypatch.setattr(trajectory, "clip_floor", lambda cfg: 1e-300)
    monkeypatch.setattr(ensemble, "clip_floor", lambda cfg: 1e-300)
    cfg = SimConfig(k_ratio=1.0, duration=3.0, seed=1)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(0,)))
    xi = rng.normal(0.0, math.sqrt(trajectory.C_NOISE * cfg.s0 / cfg.dt), cfg.n_steps)
    step = class_stepper(cfg, 1e-300)
    s = trajectory._class_rows(MIXED.diag, 0.0, 1)
    with pytest.raises(DivergenceError) as ref:
        for k in range(cfg.n_steps):
            s = step(s, xi[k : k + 1])[0]
    first = k + 1
    assert first > 2 * _EVENT_BLOCK and first % _EVENT_BLOCK != 0
    with pytest.raises(DivergenceError) as lane:
        simulate(cfg, MIXED)
    with pytest.raises(DivergenceError) as rows:
        run_ensemble(cfg, MIXED, 1)
    assert str(lane.value) == f"step {first}: {ref.value}"
    assert str(rows.value) == f"runs [0, 1) at step {first}: {ref.value}"


def test_off_class_positivity_on_exact_spectrum(tmp_path):
    """Off the class the repair is triggered by the smallest eigvalsh
    eigenvalue below -1e-12. These runs from the mixed state with
    rho_14 = 0.01 once recorded eigenvalues down to -3e-6, which a
    polynomial trigger let through and the recording then rejected; now
    they complete with every recorded eigenvalue >= -1e-12, and so does
    the CLI on such a state file."""
    off_class = MIXED.mat.copy()
    off_class[0, 3] = off_class[3, 0] = 0.01
    initial = make_state(off_class, "bell")
    for k_ratio, duration, seeds in ((30.0, 0.5, (1, 2, 6, 7)), (1.0, 3.0, (3,))):
        for seed in seeds:
            rec = simulate(SimConfig(k_ratio=k_ratio, duration=duration, seed=seed), initial)
            assert np.linalg.eigvalsh(rec.states)[:, 0].min() >= -1e-12
    path = tmp_path / "state.json"
    path.write_text(state_to_json(initial))
    rc = main(["trajectory", "--state", str(path), "--k", "1", "--duration", "3",
               "--seed", "3", "--out", str(tmp_path / "out")])
    assert rc == 0


@pytest.mark.parametrize("n_steps", [3 * _EVENT_BLOCK, 4096, 8192])
def test_driver_noise_at_block_edges(n_steps):
    """At block-edge lengths simulate steps on draws 0 .. n_steps - 1 of the
    spawn-key-0 stream (against a plain per-step loop of the batch stepper
    at n = 1), records currents that are the mean currents plus draws
    0 .. n_steps, the last one drawn after the last step, and an ensemble
    of one is simulate."""
    cfg = SimConfig(k_ratio=1.0, duration=n_steps / 200.0, dt=1.0 / 200.0, seed=5)
    assert cfg.n_steps == n_steps
    rec = simulate(cfg, MIXED)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=5, spawn_key=(0,)))
    xi = rng.normal(0.0, math.sqrt(trajectory.C_NOISE * cfg.s0 / cfg.dt), n_steps + 1)
    step = class_stepper(cfg, trajectory.clip_floor(cfg))
    lanes = [trajectory._class_rows(MIXED.diag, 0.0, 1)]
    for k in range(n_steps):
        lanes.append(step(lanes[-1], xi[k : k + 1])[0])
    lanes = np.array(lanes)[:, :, 0]
    assert np.array_equal(np.real(np.einsum("nii->ni", rec.states)), lanes[:, :4])
    assert np.array_equal(np.imag(rec.states[:, 1, 2]), lanes[:, 4])
    mean_i = ((lanes[:, 0] + lanes[:, 1]) - lanes[:, 2]) - lanes[:, 3]
    assert np.array_equal(rec.currents, mean_i + xi)
    stats = run_ensemble(cfg, MIXED, 1)
    assert np.array_equal(stats.times, rec.times)
    assert np.array_equal(stats.avg_lambda, rec.lam)
    assert list(stats.events[0]) == detect_events(rec)


def test_csv_serialization(tmp_path):
    cfg = SimConfig(k_ratio=1.0, duration=0.02, dt=1e-3, seed=4)
    rec = simulate(cfg, MIXED)
    path = tmp_path / "traj.csv"
    rec.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == (
        "t,rho_11,rho_22,rho_33,rho_44,re_rho_23,im_rho_23,"
        "re_rho_14,im_rho_14,current,integrated_output,lambda,concurrence"
    )
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (len(rec), 13)
    assert np.array_equal(data[:, 0], rec.times)  # %.17g is repr-exact
    assert np.array_equal(data[:, 9], rec.currents)
    rec.to_csv(tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


def test_csv_bytes_match_savetxt(tmp_path):
    """to_csv writes the bytes of np.savetxt with %.17g, for a class record
    and for an off-class one whose lambda column is nan."""
    off_class = MIXED.mat.copy()
    off_class[0, 3] = off_class[3, 0] = 0.01
    cfg = SimConfig(k_ratio=1.0, duration=0.2, seed=4)
    for initial in (MIXED, make_state(off_class, "bell")):
        rec = simulate(cfg, initial)
        s = rec.states
        cols = np.column_stack(
            [rec.times, *(s[:, i, i].real for i in range(4)), s[:, 1, 2].real,
             s[:, 1, 2].imag, s[:, 0, 3].real, s[:, 0, 3].imag, rec.currents,
             rec.integrated_output, rec.lam, rec.concurrence]
        )
        header = ("t,rho_11,rho_22,rho_33,rho_44,re_rho_23,im_rho_23,"
                  "re_rho_14,im_rho_14,current,integrated_output,lambda,concurrence")
        np.savetxt(tmp_path / "ref.csv", cols, fmt="%.17g", delimiter=",",
                   header=header, comments="")
        rec.to_csv(tmp_path / "new.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert np.all(np.isnan(rec.lam))


def test_write_csv_matches_savetxt(tmp_path):
    """The shared table writer gives np.savetxt's bytes for a %d step column
    and %.17g floats across block boundaries, special values included."""
    rng = np.random.default_rng(5)
    n = 2 * _CSV_BLOCK + 3
    cols = np.column_stack([np.arange(1, n + 1), rng.standard_normal((n, 3))])
    cols[[0, 1, 2, 3, -1], 3] = [np.nan, np.inf, -np.inf, -0.0, 1e-300]
    fmt = ["%d"] + ["%.17g"] * 3
    np.savetxt(tmp_path / "ref.csv", cols, fmt=fmt, delimiter=",", header="step,a,b,c",
               comments="")
    _write_csv(tmp_path / "new.csv", "step,a,b,c", cols, fmt)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_class_record_holds_five_rows():
    """A class run records (n, 5) float rows: its states are built from
    them, its lambda is their branch maximum, never nan, and state_at gives
    a density matrix. An off-class run keeps its (n, 4, 4) states and nan
    lambda."""
    cfg = SimConfig(k_ratio=1.0, duration=0.2, seed=4, record_stride=3)
    rec = simulate(cfg, MIXED)
    assert rec.rows.shape == (len(rec), 5) and rec.rows.dtype == np.float64
    p, y = rec.rows[:, :4], rec.rows[:, 4]
    assert np.array_equal(rec.states, class_matrices(p, y))
    assert np.array_equal(rec.lam, lambda_branch_max(p, y))
    assert not np.isnan(rec.lam).any()
    for k in (0, len(rec) // 2, -1):
        dm = rec.state_at(k)
        assert isinstance(dm, DensityMatrix)
        assert np.max(np.abs(dm.mat - rec.states[k])) <= 1e-15
    off_class = MIXED.mat.copy()
    off_class[0, 3] = off_class[3, 0] = 0.01
    rec = simulate(cfg, make_state(off_class, "bell"))
    assert rec.rows.shape == (len(rec), 4, 4) and rec.states is rec.rows
    assert np.all(np.isnan(rec.lam))


def test_state_at_returns_valid_density_matrix():
    cfg = SimConfig(k_ratio=1.0, duration=0.05, dt=1e-3, seed=21)
    rec = simulate(cfg, MIXED)
    dm = rec.state_at(len(rec) - 1)
    assert isinstance(dm, DensityMatrix)
    assert dm.mat.trace().real == pytest.approx(1.0, abs=1e-12)

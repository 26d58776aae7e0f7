"""Checks for the projective measure-rotate chain.

The post-measurement states of the first few steps have hand-computable
closed forms; those, the step-average formula, and the absorbing property
of an outcome flip are the oracles here.
"""

import math

import numpy as np
import pytest

from conftest import random_closed_class_bell
from paritysim.concurrence import wootters_concurrence
from paritysim.projective import (
    Outcome,
    average_concurrence,
    monte_carlo_average,
    project_parity,
    projective_step,
    rotate_class,
    rotation,
    run_projective,
    zeno_comparison_curve,
)
from paritysim.qstate import DensityMatrix, preset_state, sanitize


def bell_projector(k: int) -> DensityMatrix:
    v = np.eye(4, dtype=complex)[k]
    return sanitize(np.outer(v, v.conj())).state


MIXED = preset_state("mixed")


def test_rotation_is_unitary_and_block_shaped():
    for delta in (0.0, 0.3, math.pi / 30, 2.0):
        u = rotation(delta)
        assert np.allclose(u @ u.conj().T, np.eye(4), atol=1e-15)
        assert u[0, 0] == 1.0 and u[3, 3] == 1.0
        assert np.all(u[0, 1:] == 0) and np.all(u[3, :3] == 0)
        assert u[1, 1] == pytest.approx(math.cos(delta), abs=1e-15)
        assert u[1, 2] == pytest.approx(-1j * math.sin(delta), abs=1e-15)


def test_rotation_swaps_u2_u3_at_half_turn():
    u = rotation(math.pi / 2.0)
    e = np.eye(4, dtype=complex)
    assert np.allclose(u @ e[1], -1j * e[2], atol=1e-15)


def test_rotate_class_matches_rotation(rng):
    """The closed-class pulse is the 4x4 conjugation by rotation()."""
    mats = np.array([random_closed_class_bell(rng) for _ in range(32)])
    p, y = np.real(np.einsum("nii->ni", mats)), np.imag(mats[:, 1, 2])
    for delta in (0.3, math.pi / 30, 2.0):
        u = rotation(delta)
        full = np.einsum("ij,njk,lk->nil", u, mats, u.conj())
        p_new, y_new = rotate_class(p, y, delta)
        assert np.max(np.abs(np.real(np.einsum("nii->ni", full)) - p_new)) <= 1e-15
        assert np.max(np.abs(full[:, 1, 2] - 1j * y_new)) <= 1e-15


def test_project_parity_probabilities_sum_to_one():
    rng = np.random.default_rng(7)
    for _ in range(20):
        p = rng.dirichlet(np.ones(4))
        rho = sanitize(np.diag(p).astype(complex)).state
        pe, even_state = project_parity(rho, Outcome.EVEN)
        po, odd_state = project_parity(rho, Outcome.ODD)
        assert pe + po == pytest.approx(1.0, abs=1e-14)
        assert np.trace(even_state.mat).real == pytest.approx(1.0, abs=1e-12)
        assert np.all(even_state.mat[2:, :] == 0)
        assert np.all(odd_state.mat[:2, :] == 0)


def test_project_parity_zero_branch_raises():
    with pytest.raises(ValueError, match="zero probability"):
        project_parity(bell_projector(0), Outcome.ODD)


def test_first_measurement_from_mixed_state():
    # Mixed state is rotation invariant, so step 1 is a bare parity check:
    # each outcome with probability 1/2, post-state a half-half diagonal
    # inside one block, concurrence exactly zero.
    rng = np.random.default_rng(11)
    n_even = 0
    n = 4000
    expected_even = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    expected_odd = np.diag([0.0, 0.0, 0.5, 0.5]).astype(complex)
    for _ in range(n):
        outcome, state = projective_step(MIXED, math.pi / 30, rng)
        target = expected_even if outcome is Outcome.EVEN else expected_odd
        assert np.allclose(state.mat, target, atol=1e-14)
        assert wootters_concurrence(state) == 0.0
        n_even += outcome is Outcome.EVEN
    se = math.sqrt(0.25 / n)
    assert abs(n_even / n - 0.5) < 3.0 * se


def test_even_then_rotation_sits_on_the_border():
    # After one even outcome the rotated state has branch values exactly
    # zero: the chain starts from the separable-entangled border.
    delta = 0.4
    _, even_state = project_parity(MIXED, Outcome.EVEN)
    u = rotation(delta)
    rotated = sanitize(u @ even_state.mat @ u.conj().T).state
    assert wootters_concurrence(rotated) <= 1e-15
    c, s = math.cos(delta), math.sin(delta)
    expected = np.diag([0.5, 0.5 * c * c, 0.5 * s * s, 0.0]).astype(complex)
    expected[1, 2] = 0.5j * c * s
    expected[2, 1] = -0.5j * c * s
    assert np.allclose(rotated.mat, expected, atol=1e-15)


def test_odd_flip_probability_and_state():
    # From the post-even rotated state the odd branch has weight
    # sin^2(delta)/2 and collapses to the pure u3 state.
    delta = 0.7
    _, even_state = project_parity(MIXED, Outcome.EVEN)
    u = rotation(delta)
    rotated = sanitize(u @ even_state.mat @ u.conj().T).state
    po, odd_state = project_parity(rotated, Outcome.ODD)
    assert po == pytest.approx(0.5 * math.sin(delta) ** 2, abs=1e-15)
    assert np.allclose(odd_state.mat, bell_projector(2).mat, atol=1e-13)
    assert wootters_concurrence(odd_state) == pytest.approx(1.0, abs=1e-12)


def test_two_consecutive_evens_closed_form():
    delta = 0.6
    _, state = project_parity(MIXED, Outcome.EVEN)
    u = rotation(delta)
    rotated = sanitize(u @ state.mat @ u.conj().T).state
    _, state2 = project_parity(rotated, Outcome.EVEN)
    c2 = math.cos(delta) ** 2
    expected = (1.0 - c2) / (1.0 + c2)
    assert wootters_concurrence(state2) == pytest.approx(expected, abs=1e-14)


def test_average_concurrence_formula_values():
    assert average_concurrence(1, 0.3) == 0.0
    assert average_concurrence(2, 0.3) == pytest.approx(math.sin(0.3) ** 2, abs=1e-15)
    assert average_concurrence(5, 0.0) == 0.0
    assert average_concurrence(2500, 0.1) == pytest.approx(1.0, abs=1e-3)
    with pytest.raises(ValueError):
        average_concurrence(0, 0.3)


def test_zeno_curve_axis_and_values():
    k = 30.0
    curve = zeno_comparison_curve(k, 12)
    assert curve.shape == (12, 2)
    assert curve[0, 0] == pytest.approx(1.0 / 30.0)
    assert curve[0, 1] == 0.0
    delta = math.pi / k
    for n in (1, 5, 12):
        assert curve[n - 1, 1] == pytest.approx(average_concurrence(n, delta), abs=1e-15)
    assert np.all(np.diff(curve[:, 1]) > 0)


def _first_flipping_run():
    # Roughly half the runs never flip (the stationary u1/u4 components
    # purify instead), so scan seeds for one that does.
    for seed in range(32):
        rng = np.random.default_rng(seed)
        run = run_projective(MIXED, 0.5, 40, rng)
        flip = next(
            (k for k in range(1, 40) if run.outcomes[k] is not run.outcomes[k - 1]),
            None,
        )
        if flip is not None:
            return run, flip
    raise AssertionError("no flipping run found in 32 seeds")


def test_run_projective_absorbing_after_flip():
    run, first_flip = _first_flipping_run()
    assert len(run) == 40
    for k in range(first_flip, 40):
        assert run.concurrences[k] == pytest.approx(1.0, abs=1e-12)
    assert np.all(run.concurrences >= 0.0) and np.all(run.concurrences <= 1.0 + 1e-12)


def test_run_projective_trapped_states_alternate_pure_bell():
    run, first_flip = _first_flipping_run()
    for k in range(first_flip, 40):
        target = bell_projector(1 if run.outcomes[k] is Outcome.EVEN else 2)
        assert np.allclose(run.states[k].mat, target.mat, atol=1e-10)


@pytest.mark.parametrize("delta", [0.05, 0.1, math.pi / 30])
def test_monte_carlo_matches_step_average(delta):
    n_steps, n_runs = 20, 20000
    means, ses = monte_carlo_average(delta, n_steps, n_runs, seed=90)
    assert means[0] == 0.0
    for n in range(1, n_steps + 1):
        target = average_concurrence(n, delta)
        assert abs(means[n - 1] - target) < 3.0 * max(ses[n - 1], 1e-12), (
            f"step {n}: {means[n - 1]} vs {target}"
        )


def test_monte_carlo_deterministic():
    a = monte_carlo_average(0.2, 10, 500, seed=4)
    b = monte_carlo_average(0.2, 10, 500, seed=4)
    c = monte_carlo_average(0.2, 10, 500, seed=5)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    assert not np.array_equal(a[0], c[0])


def test_monte_carlo_zero_angle_never_entangles():
    means, _ = monte_carlo_average(0.0, 8, 300, seed=1)
    assert np.all(means == 0.0)


def test_run_csv_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    run = run_projective(MIXED, math.pi / 30, 6, rng)
    path = tmp_path / "run.csv"
    run.to_csv(path, k_ratio=30.0)
    rows = path.read_text().strip().split("\n")
    assert rows[0] == "step,time,outcome,concurrence"
    assert len(rows) == 7
    first = rows[1].split(",")
    assert first[0] == "1"
    assert float(first[1]) == pytest.approx(1.0 / 30.0)
    assert first[2] in ("even", "odd")

"""Checks for the projective measure-rotate chain.

The post-measurement states of the first few steps have hand-computable
closed forms; those, the step-average formula, and the absorbing property
of an outcome flip are the oracles here. Outcomes are forced through the
uniforms handed to pulse_class: 0.0 always reads even, the largest double
below 1 odd wherever the odd branch has weight. Concurrences of the
returned lanes come from the general Wootters machinery on the 4x4 matrix.
"""

import math

import numpy as np
import pytest

from conftest import random_closed_class_bell
from paritysim.concurrence import wootters_concurrence
from paritysim.projective import (
    average_concurrence,
    monte_carlo_average,
    pulse_class,
    rotate_class,
    rotation,
    zeno_comparison_curve,
)
from paritysim.qstate import sanitize

EVEN = 0.0
ODD = np.nextafter(1.0, 0.0)


def mixed(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.full((n, 4), 0.25), np.zeros(n)


def lane_matrices(p: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(n, 4, 4) Bell-basis matrices of closed-class lanes."""
    mats = np.zeros((p.shape[0], 4, 4), dtype=complex)
    mats[:, range(4), range(4)] = p
    mats[:, 1, 2], mats[:, 2, 1] = 1j * y, -1j * y
    return mats


def lane_concurrences(p: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.array([wootters_concurrence(sanitize(m).state) for m in lane_matrices(p, y)])


def pulse(p, y, delta, u):
    return pulse_class(p, y, delta, np.full(p.shape[0], u))


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


def test_pulse_class_outcomes_are_normalized_parity_blocks(rng):
    mats = np.array([random_closed_class_bell(rng) for _ in range(64)])
    p, y = np.real(np.einsum("nii->ni", mats)), np.imag(mats[:, 1, 2])
    for delta in (0.0, 0.3, 2.0):
        p_rot, _ = rotate_class(p, y, delta)
        p_even = p_rot[:, 0] + p_rot[:, 1]
        for u, block, other in ((EVEN, slice(0, 2), slice(2, 4)), (ODD, slice(2, 4), slice(0, 2))):
            q, y_new, even = pulse(p, y, delta, u)
            assert np.all(even == (u < p_even))
            assert np.all(y_new == 0.0)
            assert np.all(q[:, other] == 0.0)
            assert np.max(np.abs(q.sum(axis=1) - 1.0)) <= 1e-14
            w = np.where(even, p_even, 1.0 - p_even)
            assert np.max(np.abs(q[:, block] * w[:, None] - p_rot[:, block])) <= 1e-15


def test_pulse_class_never_picks_a_zero_weight_branch():
    # At delta = 0 the pure Bell lanes keep p_even exactly 1 (u1, u2) or
    # 0 (u3, u4); both extreme uniforms must pick the branch with weight.
    p = np.eye(4)
    for u in (EVEN, ODD):
        q, _, even = pulse(p, np.zeros(4), 0.0, u)
        assert even.tolist() == [True, True, False, False]
        assert np.array_equal(q, p)


def test_first_measurement_from_mixed_state(rng):
    # Mixed state is rotation invariant, so step 1 is a bare parity check:
    # each outcome with probability 1/2, post-state a half-half diagonal
    # inside one block, concurrence exactly zero.
    n = 4000
    p, y, even = pulse_class(*mixed(n), math.pi / 30, rng.random(n))
    target = np.where(even[:, None], [0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5])
    assert np.max(np.abs(p - target)) <= 1e-14
    assert np.all(y == 0.0)
    assert np.all(lane_concurrences(p, y) == 0.0)
    se = math.sqrt(0.25 / n)
    assert abs(even.mean() - 0.5) < 3.0 * se


def test_even_then_rotation_sits_on_the_border():
    # After one even outcome the rotated state has branch values exactly
    # zero: the chain starts from the separable-entangled border.
    delta = 0.4
    p, y, _ = pulse(*mixed(1), delta, EVEN)
    p, y = rotate_class(p, y, delta)
    rotated = lane_matrices(p, y)[0]
    assert lane_concurrences(p, y)[0] <= 1e-15
    c, s = math.cos(delta), math.sin(delta)
    expected = np.diag([0.5, 0.5 * c * c, 0.5 * s * s, 0.0]).astype(complex)
    expected[1, 2] = 0.5j * c * s
    expected[2, 1] = -0.5j * c * s
    assert np.allclose(rotated, expected, atol=1e-15)


def test_odd_flip_probability_and_state():
    # From the post-even state the odd branch of the next step has weight
    # sin^2(delta)/2 and collapses to the pure u3 state.
    delta = 0.7
    p, y, _ = pulse(*mixed(1), delta, EVEN)
    p_even = 1.0 - 0.5 * math.sin(delta) ** 2
    assert pulse(p, y, delta, p_even - 1e-15)[2][0]
    assert not pulse(p, y, delta, p_even + 1e-15)[2][0]
    p, y, even = pulse(p, y, delta, ODD)
    assert not even[0]
    assert np.allclose(lane_matrices(p, y)[0], np.diag([0.0, 0.0, 1.0, 0.0]), atol=1e-13)
    assert lane_concurrences(p, y)[0] == pytest.approx(1.0, abs=1e-12)


def test_two_consecutive_evens_closed_form():
    delta = 0.6
    p, y, _ = pulse(*mixed(1), delta, EVEN)
    p, y, even = pulse(p, y, delta, EVEN)
    assert even[0]
    c2 = math.cos(delta) ** 2
    expected = (1.0 - c2) / (1.0 + c2)
    assert lane_concurrences(p, y)[0] == pytest.approx(expected, abs=1e-14)


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


def _flipping_lanes(rng):
    """40 steps at delta = 0.5 on 256 lanes: the lanes whose outcome ever
    flips, with their first flip step, outcomes and post-measurement
    states. Roughly half the lanes never flip (the stationary u1/u4
    components purify instead)."""
    n, n_steps = 256, 40
    p, y = mixed(n)
    evens, states = [], []
    for _ in range(n_steps):
        p, y, even = pulse_class(p, y, 0.5, rng.random(n))
        evens.append(even)
        states.append((p, y))
    evens = np.array(evens)
    flipped = (evens[1:] != evens[:-1]).any(axis=0)
    assert flipped.sum() >= n // 4
    first = (evens[1:] != evens[:-1]).argmax(axis=0) + 1
    return np.nonzero(flipped)[0], first, evens, states


def test_chain_absorbing_after_flip(rng):
    lanes, first, _, states = _flipping_lanes(rng)
    for k, (p, y) in enumerate(states):
        conc = lane_concurrences(p[lanes], y[lanes])
        assert np.all(conc >= 0.0) and np.all(conc <= 1.0 + 1e-12)
        trapped = k >= first[lanes]
        assert np.all(np.abs(conc[trapped] - 1.0) <= 1e-12), k


def test_chain_trapped_lanes_alternate_pure_bell(rng):
    lanes, first, evens, states = _flipping_lanes(rng)
    for k, (p, y) in enumerate(states):
        trapped = lanes[k >= first[lanes]]
        target = np.where(evens[k, trapped, None], np.eye(4)[1], np.eye(4)[2])
        assert np.allclose(p[trapped], target, atol=1e-10), k
        assert np.all(y[trapped] == 0.0)


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

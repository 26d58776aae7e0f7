"""Checks for the projective measure-rotate chain.

The post-measurement states of the first few steps have hand-computable
closed forms; those, the step-average formula, and the absorbing property
of an outcome flip are the oracles here. Lanes step through pulse_class,
the one-uniform-per-lane chain step defined below, and outcomes are forced
through its uniforms: 0.0 always reads even, the largest double below 1
odd wherever the odd branch has weight. Lanes are (5, n) class rows p1,
p2, p3, p4, y, which rotate_class and pulse_class update in place, so a
test that keeps an input or a per-step state copies it. Concurrences of
the lanes come from the general Wootters machinery on the 4x4 matrix.
The Monte Carlo is checked bit for bit against a per-run chain that draws
its binomials on groups of equal runs, and in law against one uniform per
run.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import chi2_contingency

from conftest import random_closed_class_bell
from paritysim.concurrence import (
    lambda_branch_max,
    lambda_branch_values,
    wootters_concurrence,
)
from paritysim.projective import (
    _project,
    average_concurrence,
    monte_carlo_average,
    rotate_class,
    rotation,
    zeno_comparison_curve,
)
from paritysim.qstate import sanitize
from paritysim.trajectory import _class_rows

EVEN = 0.0
ODD = np.nextafter(1.0, 0.0)


def mixed(n: int) -> np.ndarray:
    return _class_rows(np.full(4, 0.25), 0.0, n)


def class_lanes(mats: np.ndarray) -> np.ndarray:
    """(5, n) rows of (n, 4, 4) closed-class Bell-basis matrices."""
    return _class_rows(np.real(np.einsum("nii->ni", mats)), np.imag(mats[:, 1, 2]), len(mats))


def lane_matrices(s: np.ndarray) -> np.ndarray:
    """(n, 4, 4) Bell-basis matrices of (5, n) class rows."""
    mats = np.zeros((s.shape[1], 4, 4), dtype=complex)
    mats[:, range(4), range(4)] = s[:4].T
    mats[:, 1, 2], mats[:, 2, 1] = 1j * s[4], -1j * s[4]
    return mats


def lane_concurrences(s: np.ndarray) -> np.ndarray:
    return np.array([wootters_concurrence(sanitize(m).state) for m in lane_matrices(s)])


def pulse_class(s: np.ndarray, delta_angle: float, u: np.ndarray) -> np.ndarray:
    """One chain step, in place on (5, n) class rows s: rotate by
    delta_angle, then measure parity. Returns the even mask.

    Lane i comes out even where u[i] < p_even, its Born probability after
    the rotation, so uniforms in [0, 1) never pick a zero-weight branch.
    """
    rotate_class(s, delta_angle)
    p_even = s[0] + s[1]
    even = u < p_even
    _project(s, p_even, even)
    return even


def pulse(s, delta, u):
    return pulse_class(s, delta, np.full(s.shape[1], u))


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
    s = class_lanes(mats)
    for delta in (0.3, math.pi / 30, 2.0):
        u = rotation(delta)
        full = np.einsum("ij,njk,lk->nil", u, mats, u.conj())
        r = s.copy()
        rotate_class(r, delta)
        assert np.max(np.abs(np.real(np.einsum("nii->ni", full)) - r[:4].T)) <= 1e-15
        assert np.max(np.abs(full[:, 1, 2] - 1j * r[4])) <= 1e-15


def test_pulse_class_outcomes_are_normalized_parity_blocks(rng):
    s = class_lanes(np.array([random_closed_class_bell(rng) for _ in range(64)]))
    for delta in (0.0, 0.3, 2.0):
        r = s.copy()
        rotate_class(r, delta)
        p_rot = r[:4].T
        p_even = p_rot[:, 0] + p_rot[:, 1]
        for u, block, other in ((EVEN, slice(0, 2), slice(2, 4)), (ODD, slice(2, 4), slice(0, 2))):
            q = s.copy()
            even = pulse(q, delta, u)
            q, y_new = q[:4].T, q[4]
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
        q = _class_rows(p, np.zeros(4), 4)
        even = pulse(q, 0.0, u)
        assert even.tolist() == [True, True, False, False]
        assert np.array_equal(q[:4].T, p)


def test_first_measurement_from_mixed_state(rng):
    # Mixed state is rotation invariant, so step 1 is a bare parity check:
    # each outcome with probability 1/2, post-state a half-half diagonal
    # inside one block, concurrence exactly zero.
    n = 4000
    s = mixed(n)
    even = pulse_class(s, math.pi / 30, rng.random(n))
    target = np.where(even[:, None], [0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5])
    assert np.max(np.abs(s[:4].T - target)) <= 1e-14
    assert np.all(s[4] == 0.0)
    assert np.all(lane_concurrences(s) == 0.0)
    se = math.sqrt(0.25 / n)
    assert abs(even.mean() - 0.5) < 3.0 * se


def test_even_then_rotation_sits_on_the_border():
    # After one even outcome the rotated state has branch values exactly
    # zero: the chain starts from the separable-entangled border.
    delta = 0.4
    s = mixed(1)
    pulse(s, delta, EVEN)
    rotate_class(s, delta)
    rotated = lane_matrices(s)[0]
    assert lane_concurrences(s)[0] <= 1e-15
    c, s = math.cos(delta), math.sin(delta)
    expected = np.diag([0.5, 0.5 * c * c, 0.5 * s * s, 0.0]).astype(complex)
    expected[1, 2] = 0.5j * c * s
    expected[2, 1] = -0.5j * c * s
    assert np.allclose(rotated, expected, atol=1e-15)


def test_odd_flip_probability_and_state():
    # From the post-even state the odd branch of the next step has weight
    # sin^2(delta)/2 and collapses to the pure u3 state.
    delta = 0.7
    s = mixed(1)
    pulse(s, delta, EVEN)
    p_even = 1.0 - 0.5 * math.sin(delta) ** 2
    assert pulse(s.copy(), delta, p_even - 1e-15)[0]
    assert not pulse(s.copy(), delta, p_even + 1e-15)[0]
    even = pulse(s, delta, ODD)
    assert not even[0]
    assert np.allclose(lane_matrices(s)[0], np.diag([0.0, 0.0, 1.0, 0.0]), atol=1e-13)
    assert lane_concurrences(s)[0] == pytest.approx(1.0, abs=1e-12)


def test_two_consecutive_evens_closed_form():
    delta = 0.6
    s = mixed(1)
    pulse(s, delta, EVEN)
    even = pulse(s, delta, EVEN)
    assert even[0]
    c2 = math.cos(delta) ** 2
    expected = (1.0 - c2) / (1.0 + c2)
    assert lane_concurrences(s)[0] == pytest.approx(expected, abs=1e-14)


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
    s = mixed(n)
    evens, states = [], []
    for _ in range(n_steps):
        even = pulse_class(s, 0.5, rng.random(n))
        evens.append(even)
        states.append(s.copy())
    evens = np.array(evens)
    flipped = (evens[1:] != evens[:-1]).any(axis=0)
    assert flipped.sum() >= n // 4
    first = (evens[1:] != evens[:-1]).argmax(axis=0) + 1
    return np.nonzero(flipped)[0], first, evens, states


def test_chain_absorbing_after_flip(rng):
    lanes, first, _, states = _flipping_lanes(rng)
    for k, s in enumerate(states):
        conc = lane_concurrences(s[:, lanes])
        assert np.all(conc >= 0.0) and np.all(conc <= 1.0 + 1e-12)
        trapped = k >= first[lanes]
        assert np.all(np.abs(conc[trapped] - 1.0) <= 1e-12), k


def test_chain_trapped_lanes_alternate_pure_bell(rng):
    lanes, first, evens, states = _flipping_lanes(rng)
    for k, s in enumerate(states):
        trapped = lanes[k >= first[lanes]]
        target = np.where(evens[k, trapped, None], np.eye(4)[1], np.eye(4)[2])
        assert np.allclose(s[:4, trapped].T, target, atol=1e-10), k
        assert np.all(s[4, trapped] == 0.0)


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


def _reference_chain(delta, n_steps, n_runs, seed):
    """The chain of one uniform per run, the law monte_carlo_average keeps:
    (n, 4) populations and y rotated into new arrays, run i even where
    u[i] < p_even, projected by a float mask, branch values of the (n, 4)
    array, np.mean and np.std over the runs."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
    c2, s2 = math.cos(2.0 * delta), math.sin(2.0 * delta)
    p = np.full((n_runs, 4), 0.25)
    y = np.zeros(n_runs)
    means, ses = np.empty(n_steps), np.empty(n_steps)
    for k in range(n_steps):
        u = rng.random(n_runs)
        h = 0.5 * (p[:, 1] + p[:, 2])
        d = 0.5 * (p[:, 1] - p[:, 2])
        d_new = c2 * d - s2 * y
        p = p.copy()
        p[:, 1] = h + d_new
        p[:, 2] = h - d_new
        y = c2 * y + s2 * d
        p_even = p[:, 0] + p[:, 1]
        even = u < p_even
        mask = np.where(even[:, None], [1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0])
        norm = np.where(even, p_even, 1.0 - p_even)
        p, y = p * mask / norm[:, None], np.zeros_like(y)
        l1, l2, l3 = lambda_branch_values(p, y)
        c = np.maximum(np.maximum(np.maximum(l1, l2), l3), 0.0)
        means[k] = c.mean()
        ses[k] = c.std(ddof=1) / math.sqrt(n_runs)
    return means, ses


def _groups(p, y):
    """Runs grouped by the exact bits of their five class numbers, in the
    order np.unique sorts the bits: (first run, group of each run, count)."""
    rows = np.column_stack([p, y])
    bits = rows.view(f"V{5 * rows.itemsize}")[:, 0]
    _, first, group, counts = np.unique(
        bits, return_index=True, return_inverse=True, return_counts=True)
    return first, group, counts


def _grouped_reference_chain(delta, n_steps, n_runs, seed):
    """_reference_chain's one row per run, with its uniforms replaced by
    the count chain's draw: each step groups the runs by their exact bits,
    draws rng.binomial on the group counts with p_even clamped as
    monte_carlo_average clamps it, and sends the first n_even runs of each
    group, in run order, even. Returns (means, ses) reduced over the
    post-projection groups with monte_carlo_average's formulas, and
    (means, ses) of np.mean and np.std over the per-run values."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
    c2, s2 = math.cos(2.0 * delta), math.sin(2.0 * delta)
    p = np.full((n_runs, 4), 0.25)
    y = np.zeros(n_runs)
    out = np.empty((4, n_steps))
    for k in range(n_steps):
        first, group, counts = _groups(p, y)
        h = 0.5 * (p[:, 1] + p[:, 2])
        d = 0.5 * (p[:, 1] - p[:, 2])
        d_new = c2 * d - s2 * y
        p = p.copy()
        p[:, 1] = h + d_new
        p[:, 2] = h - d_new
        y = c2 * y + s2 * d
        p_even = p[:, 0] + p[:, 1]
        n_even = rng.binomial(counts, np.fmin(np.fmax(p_even[first], 0.0), 1.0))
        order = np.argsort(group, kind="stable")  # by group, in run order within each
        even = np.empty(n_runs, dtype=bool)
        even[order] = np.arange(n_runs) < np.repeat(np.cumsum(counts) - counts + n_even, counts)
        mask = np.where(even[:, None], [1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0])
        norm = np.where(even, p_even, 1.0 - p_even)
        p, y = p * mask / norm[:, None], np.zeros_like(y)
        c = np.maximum(lambda_branch_max(p, y), 0.0)
        first, _, counts = _groups(p, y)
        out[0, k] = mean = (counts @ c[first]) / n_runs
        out[1, k] = math.sqrt((counts @ (c[first] - mean) ** 2) / (n_runs - 1)) / math.sqrt(n_runs)
        out[2, k] = c.mean()
        out[3, k] = c.std(ddof=1) / math.sqrt(n_runs)
    return out


def _assert_matches_grouped_reference(delta, n_steps, n_runs, seed):
    got = monte_carlo_average(delta, n_steps, n_runs, seed=seed)
    ref = _grouped_reference_chain(delta, n_steps, n_runs, seed)
    for a, b, per_run in zip(got, ref[:2], ref[2:]):
        assert np.array_equal(a, b), (n_runs, seed)
        assert np.array_equal(np.signbit(a), np.signbit(b)), (n_runs, seed)
        assert np.allclose(a, per_run, rtol=1e-14, atol=0.0), (n_runs, seed)


@pytest.mark.parametrize("delta", [0.0, math.pi / 30, 0.5, math.pi / 2])
def test_monte_carlo_matches_grouped_reference(delta):
    for n_runs in (2, 3, 257, 2000):
        for seed in (0, 90):
            _assert_matches_grouped_reference(delta, 30, n_runs, seed)


@pytest.mark.parametrize(
    "delta, n_steps, n_runs",
    [(math.pi / 30, 50, 20000), (0.05, 200, 2000)],
    ids=["criterion-6", "small-angle"],
)
def test_monte_carlo_matches_grouped_reference_on_long_chains(delta, n_steps, n_runs):
    """Criterion 6's chain, and a long small-angle one whose table of
    distinct states grows past a hundred columns."""
    _assert_matches_grouped_reference(delta, n_steps, n_runs, seed=0)


def test_monte_carlo_has_the_law_of_one_uniform_per_run():
    """Binomial counts per state against _reference_chain's uniform per
    run: 4 runs at delta = 0.6, the step 2 to 4 means of 2,000 seeds each
    (disjoint between the chains) in a chi-square two-sample test. Means
    are rounded to 12 digits, since the two reductions differ in the last
    bits, and categories under 5 expected per chain are pooled."""
    n_seeds, n_steps, n_runs, delta = 2000, 4, 4, 0.6
    got = np.array([monte_carlo_average(delta, n_steps, n_runs, seed=i)[0]
                    for i in range(n_seeds)])
    ref = np.array([_reference_chain(delta, n_steps, n_runs, seed=n_seeds + i)[0]
                    for i in range(n_seeds)])
    for k in range(1, n_steps):
        values, codes = np.unique(np.round(np.r_[got[:, k], ref[:, k]], 12),
                                  return_inverse=True)
        table = np.array([np.bincount(codes[:n_seeds], minlength=values.size),
                          np.bincount(codes[n_seeds:], minlength=values.size)])
        rare = table.sum(axis=0) < 10
        table = np.column_stack([table[:, ~rare], table[:, rare].sum(axis=1)])
        table = table[:, table.sum(axis=0) > 0]
        assert table.shape[1] >= 3, k
        p = chi2_contingency(table).pvalue
        assert p > 1e-3, (k + 1, p, table)


def test_monte_carlo_cost_does_not_grow_with_runs():
    """10^12 runs: the draw is one binomial per state, so the chain takes
    what 10^4 runs take and matches the closed form at its own error."""
    delta, n_steps = math.pi / 30, 50
    start = time.perf_counter()
    means, ses = monte_carlo_average(delta, n_steps, 10**12, seed=0)
    assert time.perf_counter() - start < 1.0
    assert means[0] == 0.0
    for n in range(1, n_steps + 1):
        target = average_concurrence(n, delta)
        assert abs(means[n - 1] - target) <= 5.0 * ses[n - 1], (n, means[n - 1], target)


@pytest.mark.parametrize("delta", [0.0, math.pi / 2])
def test_monte_carlo_projects_only_taken_branches(delta):
    # At both angles the table holds states whose other branch has weight
    # exactly 0; projecting it would divide 0 by 0.
    with np.errstate(divide="raise", invalid="raise"):
        monte_carlo_average(delta, 50, 2000, seed=0)


def test_monte_carlo_deterministic():
    a = monte_carlo_average(0.2, 10, 500, seed=4)
    b = monte_carlo_average(0.2, 10, 500, seed=4)
    c = monte_carlo_average(0.2, 10, 500, seed=5)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    assert not np.array_equal(a[0], c[0])


def test_monte_carlo_draws_on_a_nan_weight():
    """A nan angle makes every weight nan. The draw reads it as u < p_even
    does, as no run even, so the chain returns nan and does not raise."""
    means, ses = monte_carlo_average(math.nan, 3, 10, seed=0)
    assert np.isnan(means).all() and np.isnan(ses).all()


def test_monte_carlo_zero_angle_never_entangles():
    means, _ = monte_carlo_average(0.0, 8, 300, seed=1)
    assert np.all(means == 0.0)

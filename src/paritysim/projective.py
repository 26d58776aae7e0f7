"""Strong-measurement limit: projective parity checks with short rotations.

Each step applies the u2-u3 block rotation by delta_angle and then a
projective parity measurement. The chain never leaves the closed class, so
its states are (5, n) class rows p1, p2, p3, p4, y = Im rho_23, the layout
the ensemble kernel steps, updated in place, and concurrence along them
comes from the closed-class branch values; the Monte Carlo keeps one
column per distinct state and a count of the runs in it, not a column or
an index per run. The closed-form step average 1 - cos^(2(n-1)) delta
acts as the oracle for the Monte Carlo.
delta_angle is the literal rotation angle of the block (the u2 amplitude
picks up cos delta), which is the angle the closed forms are expressed in.
"""

from __future__ import annotations

import math

import numpy as np

from .concurrence import lambda_branch_max

__all__ = [
    "rotation",
    "rotate_class",
    "average_concurrence",
    "zeno_comparison_curve",
    "monte_carlo_average",
]


def rotation(delta_angle: float) -> np.ndarray:
    """Unitary of the inter-measurement evolution: a rotation by
    delta_angle inside the u2-u3 block, identity elsewhere."""
    u = np.eye(4, dtype=complex)
    c, s = math.cos(delta_angle), math.sin(delta_angle)
    u[1, 1] = u[2, 2] = c
    u[1, 2] = u[2, 1] = -1j * s
    return u


def rotate_class(s: np.ndarray, delta_angle: float) -> None:
    """rotation(delta_angle) applied in place to (5, n) class rows s:
    p1, p2, p3, p4 and y = Im rho_23, one column per lane.

    The u2-u3 block is h + d sigma_z - y sigma_y with h, d the half sum and
    half difference of p2, p3; the rotation turns (d, y) by twice the
    angle and leaves h, p1 and p4 alone. The float operations and their
    order are pinned bit for bit by a transcribed per-run chain
    (test_monte_carlo_matches_grouped_reference).
    """
    c, sn = math.cos(2.0 * delta_angle), math.sin(2.0 * delta_angle)
    h = 0.5 * (s[1] + s[2])
    d = 0.5 * (s[1] - s[2])
    d_new = c * d - sn * s[4]
    np.add(h, d_new, out=s[1])
    np.subtract(h, d_new, out=s[2])
    s[4] = c * s[4] + sn * d


def _project(s: np.ndarray, p_even: np.ndarray, even: np.ndarray) -> None:
    """Project rotated (5, n) class rows s in place onto the parity block
    of each lane's even mask: (p * mask) / norm with a 0/1 mask and norm
    p_even or 1 - p_even, pinned bit for bit like the rotation."""
    # the projection keeps one parity block and, with it, drops the
    # u2-u3 coherence that links the blocks
    s[:2] *= even
    s[2:4] *= ~even
    s[:4] /= np.where(even, p_even, 1.0 - p_even)
    s[4] = 0.0


def average_concurrence(n: int, delta_angle: float) -> float:
    """Closed-form step average: 1 - cos^(2(n-1)) delta."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return 1.0 - math.cos(delta_angle) ** (2 * (n - 1))


def zeno_comparison_curve(k_ratio: float, n_max: int) -> np.ndarray:
    """The closed-form average on the physical time axis, (n_max, 2) array
    of (t, <C>) with delta = pi/K and t_n = n T_M = n/K (units of T_q)."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    delta = math.pi / k_ratio
    n = np.arange(1, n_max + 1)
    return np.column_stack(
        [n / k_ratio, 1.0 - np.cos(delta) ** (2 * (n - 1))]
    )


def monte_carlo_average(
    delta_angle: float,
    n_steps: int,
    n_runs: int,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Ensemble of projective chains from the fully mixed state.

    Returns (mean concurrence, standard error) per step, shape (n_steps,);
    the standard error is nan for one run. Deterministic in seed, on one
    stream with one binomial call per step.

    Runs that share a state bit for bit share its arithmetic, and all start
    mixed while every outcome collapses onto one parity block. So the chain
    steps a (5, U) table of distinct states, U a few dozen for 10^4 runs,
    with an int64 count of runs per column. Runs in one column are
    exchangeable: in a chain of one uniform per run, read even where
    u < p_even, the runs of column j that go even number
    Binomial(n_j, p_even_j), independently across columns, and mean and
    standard deviation over runs depend on the counts alone. So a step
    draws that binomial per column, p_even clamped to [0, 1] with nan read
    as 0, as u < p_even reads it; projects only the (column, branch) pairs
    with runs (no zero-weight branch is divided by its weight); keeps one
    column per bit pattern, so -0.0 and 0.0 stay apart, and sums the
    counts that merge. Nothing has the length n_runs, so the cost grows
    with U, not with the runs.
    """
    if n_steps < 1 or n_runs < 1:
        raise ValueError("n_steps and n_runs must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
    table = np.full((5, 1), 0.25)
    table[4] = 0.0
    counts = np.array([n_runs], dtype=np.int64)
    means = np.empty(n_steps)
    ses = np.full(n_steps, math.nan)
    for k in range(n_steps):
        rotate_class(table, delta_angle)
        p_even = table[0] + table[1]
        n_even = rng.binomial(counts, np.fmin(np.fmax(p_even, 0.0), 1.0))
        # pair 2 j + b holds the runs of column j's child on branch b, 1 odd
        runs = np.column_stack([n_even, counts - n_even]).ravel()
        built = np.flatnonzero(runs)
        children = table[:, built >> 1]
        _project(children, p_even[built >> 1], built % 2 == 0)
        bits = np.ascontiguousarray(children.T).view(f"V{5 * children.itemsize}")[:, 0]
        _, first, column = np.unique(bits, return_index=True, return_inverse=True)
        table = children[:, first]
        counts = np.zeros(first.size, dtype=np.int64)
        np.add.at(counts, column, runs[built])
        c = np.maximum(lambda_branch_max(table[:4].T, table[4]), 0.0)
        means[k] = (counts @ c) / n_runs
        if n_runs > 1:
            ses[k] = math.sqrt((counts @ (c - means[k]) ** 2) / (n_runs - 1)) / math.sqrt(n_runs)
    return means, ses

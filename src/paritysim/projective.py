"""Strong-measurement limit: projective parity checks with short rotations.

Each step applies the u2-u3 block rotation by delta_angle and then a
projective parity measurement. The chain never leaves the closed class, so
runs are carried as populations and Im rho_23, and concurrence along them
comes from the closed-class branch values. The closed-form step average
1 - cos^(2(n-1)) delta acts as the oracle for the Monte Carlo.
delta_angle is the literal rotation angle of the block (the u2 amplitude
picks up cos delta), which is the angle the closed forms are expressed in.
"""

from __future__ import annotations

import math

import numpy as np

from .concurrence import lambda_branch_values

__all__ = [
    "rotation",
    "rotate_class",
    "pulse_class",
    "average_concurrence",
    "zeno_comparison_curve",
    "monte_carlo_average",
]

_EVEN_POPS = np.array([1.0, 1.0, 0.0, 0.0])
_ODD_POPS = np.array([0.0, 0.0, 1.0, 1.0])


def rotation(delta_angle: float) -> np.ndarray:
    """Unitary of the inter-measurement evolution: a rotation by
    delta_angle inside the u2-u3 block, identity elsewhere."""
    u = np.eye(4, dtype=complex)
    c, s = math.cos(delta_angle), math.sin(delta_angle)
    u[1, 1] = u[2, 2] = c
    u[1, 2] = u[2, 1] = -1j * s
    return u


def rotate_class(
    p: np.ndarray, y: np.ndarray, delta_angle: float
) -> tuple[np.ndarray, np.ndarray]:
    """rotation(delta_angle) applied to closed-class lanes: (n, 4)
    populations and (n,) y = Im rho_23, returned as new arrays.

    The u2-u3 block is h + d sigma_z - y sigma_y with h, d the half sum and
    half difference of p2, p3; the rotation turns (d, y) by twice the
    angle and leaves h, p1 and p4 alone.
    """
    c, s = math.cos(2.0 * delta_angle), math.sin(2.0 * delta_angle)
    h = 0.5 * (p[:, 1] + p[:, 2])
    d = 0.5 * (p[:, 1] - p[:, 2])
    d_new = c * d - s * y
    out = p.copy()
    out[:, 1] = h + d_new
    out[:, 2] = h - d_new
    return out, c * y + s * d


def pulse_class(
    p: np.ndarray, y: np.ndarray, delta_angle: float, u: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One chain step on closed-class lanes: rotate by delta_angle, then
    measure parity.

    Lane i comes out even where u[i] < p_even, its Born probability after
    the rotation, so uniforms in [0, 1) never pick a zero-weight branch.
    Returns the post-measurement populations and y, and the even mask.
    """
    p, y = rotate_class(p, y, delta_angle)
    p_even = p[:, 0] + p[:, 1]
    even = u < p_even
    # the projection keeps one parity block and, with it, drops the
    # u2-u3 coherence that links the blocks
    mask = np.where(even[:, None], _EVEN_POPS, _ODD_POPS)
    norm = np.where(even, p_even, 1.0 - p_even)
    return p * mask / norm[:, None], np.zeros_like(y), even


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
    """Vectorized ensemble of projective chains from the fully mixed state.

    Returns (mean concurrence, standard error) per step, shape (n_steps,).
    Deterministic in seed; all runs advance in lockstep on one stream,
    one pulse_class step per step.
    """
    if n_steps < 1 or n_runs < 1:
        raise ValueError("n_steps and n_runs must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
    p = np.full((n_runs, 4), 0.25)
    y = np.zeros(n_runs)
    means = np.empty(n_steps)
    ses = np.empty(n_steps)
    for k in range(n_steps):
        p, y, _ = pulse_class(p, y, delta_angle, rng.random(n_runs))
        l1, l2, l3 = lambda_branch_values(p, y)
        c = np.maximum(np.maximum(np.maximum(l1, l2), l3), 0.0)
        means[k] = c.mean()
        ses[k] = c.std(ddof=1) / math.sqrt(n_runs)
    return means, ses

"""Strong-measurement limit: projective parity checks with short rotations.

Each step applies the u2-u3 block rotation by delta_angle and then a
projective parity measurement. The closed-form step average
1 - cos^(2(n-1)) delta acts as the oracle for the Monte Carlo; concurrence
along simulated runs always comes from the general machinery, never from
the step-specific special cases. delta_angle is the literal rotation angle
of the block (the u2 amplitude picks up cos delta), which is the angle the
closed forms are expressed in.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .concurrence import lambda_branch_values, wootters_concurrence
from .qstate import DensityMatrix, sanitize

__all__ = [
    "Outcome",
    "ProjectiveRun",
    "rotation",
    "rotate_class",
    "project_parity",
    "projective_step",
    "run_projective",
    "average_concurrence",
    "zeno_comparison_curve",
    "monte_carlo_average",
]

_EVEN_MASK = np.zeros((4, 4))
_EVEN_MASK[:2, :2] = 1.0
_ODD_MASK = np.zeros((4, 4))
_ODD_MASK[2:, 2:] = 1.0
_EVEN_POPS = np.array([1.0, 1.0, 0.0, 0.0])
_ODD_POPS = np.array([0.0, 0.0, 1.0, 1.0])


class Outcome(enum.Enum):
    EVEN = "even"
    ODD = "odd"


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


def project_parity(rho: DensityMatrix, parity: Outcome) -> tuple[float, DensityMatrix]:
    """Collapse onto one parity subspace.

    Returns (branch probability, renormalized post-measurement state).
    Raises on a zero-probability branch.
    """
    mask = _EVEN_MASK if parity is Outcome.EVEN else _ODD_MASK
    block = rho.mat * mask
    p = float(np.real(np.trace(block)))
    if p <= 0.0:
        raise ValueError(f"{parity.value} branch has zero probability")
    return p, sanitize(block / p).state


def projective_step(
    rho: DensityMatrix, delta_angle: float, rng: np.random.Generator
) -> tuple[Outcome, DensityMatrix]:
    """Rotate, then measure parity; the outcome is drawn from the Born
    probabilities."""
    u = rotation(delta_angle)
    rotated = sanitize(u @ rho.mat @ u.conj().T).state
    p_even = float(np.real(rotated.mat[0, 0] + rotated.mat[1, 1]))
    outcome = Outcome.EVEN if rng.random() < p_even else Outcome.ODD
    _, state = project_parity(rotated, outcome)
    return outcome, state


@dataclass(frozen=True)
class ProjectiveRun:
    """One realization of the measure-rotate chain.

    states[k] is the post-measurement state of step k+1; concurrences are
    computed by the general Wootters machinery.
    """

    delta_angle: float
    outcomes: tuple[Outcome, ...]
    states: tuple[DensityMatrix, ...]
    concurrences: np.ndarray

    def __len__(self) -> int:
        return len(self.outcomes)

    def to_csv(self, path, *, k_ratio: float) -> None:
        """step, time (units of T_q = 1, so t_n = n/K), outcome, concurrence."""
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write("step,time,outcome,concurrence\n")
            for k, (out, c) in enumerate(zip(self.outcomes, self.concurrences), start=1):
                fh.write(f"{k},{k / k_ratio:.17g},{out.value},{c:.17g}\n")


def run_projective(
    initial: DensityMatrix,
    delta_angle: float,
    n_steps: int,
    rng: np.random.Generator,
) -> ProjectiveRun:
    """Chain n_steps rotate-measure steps from an initial state.

    Every step rotates first; the fully mixed state is rotation invariant,
    so from it the chain reproduces the bare first measurement followed by
    rotated ones, the indexing the closed-form average refers to.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    outcomes = []
    states = []
    rho = initial
    for _ in range(n_steps):
        outcome, rho = projective_step(rho, delta_angle, rng)
        outcomes.append(outcome)
        states.append(rho)
    conc = np.array([wootters_concurrence(s) for s in states])
    return ProjectiveRun(
        delta_angle=delta_angle,
        outcomes=tuple(outcomes),
        states=tuple(states),
        concurrences=conc,
    )


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
    Deterministic in seed; all runs advance in lockstep on one stream. The
    chain never leaves the closed class, so runs are carried as populations
    and Im rho_23.
    """
    if n_steps < 1 or n_runs < 1:
        raise ValueError("n_steps and n_runs must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
    p = np.full((n_runs, 4), 0.25)
    y = np.zeros(n_runs)
    means = np.empty(n_steps)
    ses = np.empty(n_steps)
    for k in range(n_steps):
        p, y = rotate_class(p, y, delta_angle)
        p_even = p[:, 0] + p[:, 1]
        even = rng.random(n_runs) < p_even
        # the projection keeps one parity block and, with it, drops the
        # u2-u3 coherence that links the blocks
        mask = np.where(even[:, None], _EVEN_POPS, _ODD_POPS)
        norm = np.where(even, p_even, 1.0 - p_even)
        p = p * mask / norm[:, None]
        y = np.zeros(n_runs)
        l1, l2, l3 = lambda_branch_values(p, y)
        c = np.maximum(np.maximum(np.maximum(l1, l2), l3), 0.0)
        means[k] = c.mean()
        ses[k] = c.std(ddof=1) / math.sqrt(n_runs)
    return means, ses

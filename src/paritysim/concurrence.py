"""Concurrence of two-qubit states, general and closed-form.

The general route computes the sqrt-eigenvalues of
R = rho (sy x sy) rho* (sy x sy) in the computational basis. For Bell-basis
X-states (nonzero entries only on the diagonal and at the 14/23 slots) the
same four values have closed forms in the matrix entries, and for the class
the measurement dynamics preserves (rho_14 = 0, rho_23 purely imaginary)
the Wootters Lambda reduces to the maximum of three branch expressions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict

import numpy as np

from .qstate import DensityMatrix, bell_to_computational

__all__ = [
    "SY_SY",
    "SqrtEigenvalues",
    "LambdaBranches",
    "wootters_concurrence",
    "wootters_lambda",
    "xstate_sqrt_eigenvalues",
    "lambda_branches",
    "diagonal_lambda",
    "lambda_branch_values",
    "lambda_branch_max",
    "class_residual",
]

# sigma_y (x) sigma_y in the computational basis |00>,|01>,|10>,|11>.
SY_SY = np.array(
    [
        [0, 0, 0, -1],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [-1, 0, 0, 0],
    ],
    dtype=complex,
)

X_TOL = 1e-9
CLASS_TOL = 1e-12

# the X pattern: the diagonal and the anti-diagonal (rho_14, rho_23 and conjugates)
_X_PATTERN = np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1]
# the 10 entries the closed class holds at zero: every off-diagonal one but rho_23, rho_32
_OFF_ROWS, _OFF_COLS = [0, 0, 0, 1, 1, 2, 2, 3, 3, 3], [1, 2, 3, 0, 3, 0, 3, 0, 1, 2]


def class_residual(mats: np.ndarray) -> np.ndarray:
    """Distance of (..., 4, 4) Bell-basis matrices from the closed class:
    the largest modulus among its zero entries and Re rho_23. Exactly 0 on
    the class and nan where an entry is nan, so test `not res <= tol`."""
    off = np.abs(mats[..., _OFF_ROWS, _OFF_COLS]).max(axis=-1)
    return np.maximum(off, np.abs(mats[..., 1, 2].real))


def _sqrt_eigenvalues_general(rho: DensityMatrix) -> np.ndarray:
    """Descending sqrt-eigenvalues of rho (sy x sy) rho* (sy x sy).

    Computed as the singular values of W = sqrt(rho) (sy x sy) sqrt(rho)*,
    which has W W^dagger similar to the product above; the SVD keeps the
    near-zero values at machine accuracy where the raw product eigenvalues
    carry O(sqrt(eps)) noise.
    """
    comp = bell_to_computational(rho)
    evals, vecs = np.linalg.eigh(comp)
    evals = np.clip(evals, 0.0, None)
    root = (vecs * np.sqrt(evals)) @ vecs.conj().T
    w = root @ SY_SY @ root.conj()
    return np.linalg.svd(w, compute_uv=False)   # numpy returns them descending


def wootters_lambda(rho: DensityMatrix) -> float:
    """sqrt(l1) - sqrt(l2) - sqrt(l3) - sqrt(l4), eigenvalues descending."""
    s = _sqrt_eigenvalues_general(rho)
    return float(s[0] - s[1] - s[2] - s[3])


def wootters_concurrence(rho: DensityMatrix) -> float:
    """Concurrence C = max(0, Lambda) for an arbitrary two-qubit state."""
    return max(0.0, wootters_lambda(rho))


@dataclass(frozen=True)
class SqrtEigenvalues:
    """Closed-form sqrt-eigenvalues for a Bell-basis X-state.

    Pairs satisfy b >= a >= 0 (from the 11/44/14 entries) and d >= c >= 0
    (from the 22/33/23 entries). Lambda is the largest of the four minus
    the other three.
    """

    a: float
    b: float
    c: float
    d: float

    def as_array(self) -> np.ndarray:
        return np.array([self.a, self.b, self.c, self.d])

    @property
    def lam(self) -> float:
        vals = np.sort(self.as_array())[::-1]
        return float(vals[0] - vals[1] - vals[2] - vals[3])


def xstate_sqrt_eigenvalues(rho: DensityMatrix) -> SqrtEigenvalues:
    """Closed-form sqrt-eigenvalues from the X-state entries.

    Validates the X pattern first; the diagnostic reports the largest
    off-pattern magnitude.
    """
    m = rho.mat
    off = np.max(np.abs(np.where(_X_PATTERN, 0.0, m)))
    if off > X_TOL:
        raise ValueError(f"not an X-state: largest off-pattern entry {off:.3e}")
    r11, r22, r33, r44 = m.diagonal().real
    r14, r23 = m[0, 3], m[1, 2]

    def pair(p: float, q: float, z: complex) -> tuple[float, float]:
        plus = np.sqrt(max((p + q) ** 2 - 4.0 * z.real**2, 0.0))
        minus = np.sqrt(max((p - q) ** 2 + 4.0 * z.imag**2, 0.0))
        return 0.5 * (plus - minus), 0.5 * (plus + minus)

    a, b = pair(r11, r44, r14)
    c, d = pair(r22, r33, r23)
    return SqrtEigenvalues(a, b, c, d)


@dataclass(frozen=True)
class LambdaBranches:
    """The three Lambda branches on the measurement-closed state class.

    lambda1 = 2 rho_11 - 1, lambda2 = 2 rho_44 - 1,
    lambda3 = sqrt((rho_22 - rho_33)^2 + 4 |rho_23|^2) + rho_22 + rho_33 - 1.
    selected is their maximum and equals the Wootters Lambda on the class;
    concurrence = max(0, selected).
    """

    lambda1: float
    lambda2: float
    lambda3: float
    selected: float
    branch: int
    concurrence: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def lambda_branch_values(
    populations: np.ndarray, rho23_im: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized branch values; populations (..., 4), rho23_im (...,)."""
    p = np.asarray(populations)
    y = np.asarray(rho23_im)
    lam1 = 2.0 * p[..., 0] - 1.0
    lam2 = 2.0 * p[..., 3] - 1.0
    lam3 = np.sqrt((p[..., 1] - p[..., 2]) ** 2 + 4.0 * y**2) + p[..., 1] + p[..., 2] - 1.0
    return lam1, lam2, lam3


def lambda_branch_max(populations: np.ndarray, rho23_im: np.ndarray) -> np.ndarray:
    """The branch maximum, the Wootters Lambda on the closed class;
    arguments as for lambda_branch_values."""
    lam1, lam2, lam3 = lambda_branch_values(populations, rho23_im)
    return np.maximum(np.maximum(lam1, lam2), lam3)


def lambda_branches(rho: DensityMatrix) -> LambdaBranches:
    """Branch decomposition of Lambda for the measurement-closed class.

    Requires class_residual(rho.mat) <= CLASS_TOL: rho_14, Re rho_23 and
    every coherence but rho_23 vanish. That is the class the
    parity-measurement dynamics preserves, on which the branch maximum
    equals the Wootters Lambda; off it only wootters_lambda applies.
    """
    m = rho.mat
    res = class_residual(m)
    if not res <= CLASS_TOL:
        raise ValueError(f"|rho_14|, |Re rho_23| or another coherence reaches {res:.3e}: "
                         "outside the closed class")
    p = m.diagonal().real
    lam1, lam2, lam3 = lambda_branch_values(p, np.array(m[1, 2].imag))
    vals = (float(lam1), float(lam2), float(lam3))
    branch = int(np.argmax(vals))
    selected = vals[branch]
    return LambdaBranches(
        lambda1=vals[0],
        lambda2=vals[1],
        lambda3=vals[2],
        selected=selected,
        branch=branch + 1,
        concurrence=max(0.0, selected),
    )


def diagonal_lambda(populations: np.ndarray) -> float:
    """Lambda = 2 max_i rho_ii - 1 for a diagonal Bell-basis state."""
    p = np.asarray(populations, dtype=float)
    if p.shape != (4,):
        raise ValueError("expected four populations")
    return float(2.0 * p.max() - 1.0)

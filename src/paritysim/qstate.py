"""Two-qubit density matrices in the parity (Bell) eigenbasis.

The working basis throughout the package is the Bell basis ordered as

    u1 = (|11> - |00>)/sqrt(2)      even parity, stationary
    u2 = (|11> + |00>)/sqrt(2)      even parity
    u3 = (|10> + |01>)/sqrt(2)      odd parity
    u4 = (|10> - |01>)/sqrt(2)      odd parity (singlet), stationary

u1, u2 carry detector current +1 and u3, u4 carry -1 (units of dI/2).
Computational-basis I/O uses the standard product ordering
|00>, |01>, |10>, |11>.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "Basis",
    "DensityMatrix",
    "StateValidationError",
    "BELL_FROM_COMP",
    "PARITY_CURRENTS",
    "make_state",
    "preset_state",
    "bell_to_computational",
    "computational_to_bell",
    "trace_distance",
    "hs_half_distance",
    "sanitize",
    "SanitizeResult",
    "state_to_json",
    "state_from_json",
    "PRESETS",
]

# Default numeric tolerances for state validation.
TRACE_TOL = 1e-9
PSD_TOL = 1e-9
HERM_TOL = 1e-9

# Detector current carried by each Bell state (units of dI/2 = 1).
PARITY_CURRENTS = np.array([1.0, 1.0, -1.0, -1.0])

_S2 = 1.0 / np.sqrt(2.0)
# Columns are the Bell vectors expressed in the computational basis
# |00>, |01>, |10>, |11>; rho_comp = B rho_bell B^dagger.
BELL_FROM_COMP = np.array(
    [
        [-_S2, _S2, 0.0, 0.0],
        [0.0, 0.0, _S2, -_S2],
        [0.0, 0.0, _S2, _S2],
        [_S2, _S2, 0.0, 0.0],
    ],
    dtype=complex,
)


class Basis(Enum):
    BELL = "bell"
    COMPUTATIONAL = "computational"


class StateValidationError(ValueError):
    """Raised when an input matrix fails a density-matrix invariant."""


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Immutable 4x4 density matrix stored in the Bell basis."""

    mat: np.ndarray

    @property
    def diag(self) -> np.ndarray:
        """Bell-basis populations (rho_11, rho_22, rho_33, rho_44)."""
        return self.mat.diagonal().real.copy()


def _wrap(mat: np.ndarray) -> DensityMatrix:
    """Package a Bell-basis array without re-validating. Internal."""
    out = np.ascontiguousarray(mat, dtype=complex)
    out.setflags(write=False)
    return DensityMatrix(out)


def bell_to_computational(rho: DensityMatrix) -> np.ndarray:
    """Return the state as a computational-basis matrix (U rho U^dagger)."""
    B = BELL_FROM_COMP
    return B @ rho.mat @ B.conj().T


def computational_to_bell(mat: np.ndarray) -> np.ndarray:
    B = BELL_FROM_COMP
    return B.conj().T @ np.asarray(mat, dtype=complex) @ B


def _validate(mat: np.ndarray) -> np.ndarray:
    mat = np.asarray(mat, dtype=complex)
    if mat.shape != (4, 4):
        raise StateValidationError(f"expected a 4x4 matrix, got shape {mat.shape}")
    # the invariant tests below compare with >, which nan passes
    if not np.isfinite(mat).all():
        raise StateValidationError("entries must be finite (no nan or inf)")
    herm_gap = np.max(np.abs(mat - mat.conj().T))
    if herm_gap > HERM_TOL:
        raise StateValidationError(f"not Hermitian: max |rho - rho^dagger| = {herm_gap:.3e}")
    mat = 0.5 * (mat + mat.conj().T)
    trace_gap = abs(mat.trace().real - 1.0)
    if trace_gap > TRACE_TOL:
        raise StateValidationError(f"trace differs from 1 by {trace_gap:.3e}")
    evals = np.linalg.eigvalsh(mat)
    if evals[0] < -PSD_TOL:
        raise StateValidationError(f"not positive semidefinite: min eigenvalue {evals[0]:.3e}")
    return mat


def make_state(entries: np.ndarray, basis: Basis = Basis.BELL) -> DensityMatrix:
    """Validate a 4x4 matrix and store it in the Bell basis.

    Rejects non-finite, non-Hermitian, non-unit-trace, or non-PSD inputs
    with a diagnostic naming the violated invariant. Computational-basis
    input is rotated with the Bell change-of-basis unitary.
    """
    mat = _validate(np.asarray(entries))
    if basis is Basis.COMPUTATIONAL:
        mat = computational_to_bell(mat)
    return _wrap(mat)


def _preset_matrix(name: str) -> np.ndarray:
    if name == "mixed":
        return np.eye(4, dtype=complex) / 4.0
    if name.startswith("bell-u"):
        idx = int(name[-1]) - 1
        if name in ("bell-u1", "bell-u2", "bell-u3", "bell-u4"):
            mat = np.zeros((4, 4), dtype=complex)
            mat[idx, idx] = 1.0
            return mat
    if name == "sigma-boundary":
        # Boundary state: diag 1/4 with rho_23 = +i/4 between u2 and u3.
        mat = np.eye(4, dtype=complex) / 4.0
        mat[1, 2] = 0.25j
        mat[2, 1] = -0.25j
        return mat
    raise KeyError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")


PRESETS = ("mixed", "bell-u1", "bell-u2", "bell-u3", "bell-u4", "sigma-boundary")


def preset_state(name: str) -> DensityMatrix:
    """Named initial states: mixed, bell-u1..bell-u4, sigma-boundary."""
    return _wrap(_preset_matrix(name))


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """(1/2) tr |a - b| via the eigenvalues of the Hermitian difference."""
    diff = a.mat - b.mat
    diff = 0.5 * (diff + diff.conj().T)
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(diff))))


def hs_half_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """(1/2) tr[(a - b)^2], the half Hilbert-Schmidt distance."""
    diff = a.mat - b.mat
    return 0.5 * float(np.sum(np.abs(diff) ** 2))


@dataclass(frozen=True)
class SanitizeResult:
    state: DensityMatrix
    correction: float


class DivergenceError(RuntimeError):
    """Raised when a state has drifted beyond the repairable tolerances."""


def sanitize(rho: DensityMatrix | np.ndarray) -> SanitizeResult:
    """Re-Hermitize, renormalize the trace, clip tiny negative eigenvalues.

    Eigenvalues in [-PSD_TOL, 0) are clipped to zero with renormalization;
    anything below -PSD_TOL, or a trace off by more than TRACE_TOL, raises
    DivergenceError. The returned correction is the total applied change:
    |tr - 1| plus the clipped negative mass.
    """
    mat = rho.mat if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    mat = 0.5 * (mat + mat.conj().T)
    tr = mat.trace().real
    if abs(tr - 1.0) > TRACE_TOL:
        raise DivergenceError(f"trace drifted to {tr!r}")
    correction = abs(tr - 1.0)
    mat = mat / tr
    evals, vecs = np.linalg.eigh(mat)
    if evals[0] < -PSD_TOL:
        raise DivergenceError(f"eigenvalue {evals[0]:.3e} below -psd_tol")
    if evals[0] < 0.0:
        correction += float(-np.sum(evals[evals < 0.0]))
        evals = np.clip(evals, 0.0, None)
        evals = evals / evals.sum()
        mat = (vecs * evals) @ vecs.conj().T
        mat = 0.5 * (mat + mat.conj().T)
    return SanitizeResult(_wrap(mat), float(correction))


def state_to_json(rho: DensityMatrix, basis: Basis = Basis.BELL) -> str:
    """Serialize to the interchange schema {basis, re, im}."""
    mat = rho.mat if basis is Basis.BELL else bell_to_computational(rho)
    payload = {
        "basis": basis.value,
        "re": mat.real.tolist(),
        "im": mat.imag.tolist(),
    }
    return json.dumps(payload, sort_keys=True)


def state_from_json(text: str) -> DensityMatrix:
    payload = json.loads(text)
    try:
        basis = Basis(payload["basis"])
        mat = np.asarray(payload["re"], dtype=float) + 1j * np.asarray(payload["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise StateValidationError(f"malformed state JSON: {exc}") from exc
    return make_state(mat, basis)

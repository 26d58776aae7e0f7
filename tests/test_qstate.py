import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from paritysim import qstate
from paritysim.qstate import (
    Basis,
    DivergenceError,
    StateValidationError,
    bell_to_computational,
    hs_half_distance,
    make_state,
    preset_state,
    sanitize,
    state_from_json,
    state_to_json,
    trace_distance,
)

from conftest import random_density_bell


# Independent change-of-basis oracle: Bell vectors written out by hand in the
# computational ordering |00>, |01>, |10>, |11>.
S2 = 1 / np.sqrt(2)
U1 = np.array([-1, 0, 0, 1]) * S2
U2 = np.array([1, 0, 0, 1]) * S2
U3 = np.array([0, 1, 1, 0]) * S2
U4 = np.array([0, -1, 1, 0]) * S2
B_ORACLE = np.stack([U1, U2, U3, U4], axis=1).astype(complex)


def test_change_of_basis_matches_hand_constructed_unitary():
    assert np.allclose(qstate.BELL_FROM_COMP, B_ORACLE, atol=1e-15)
    assert np.allclose(B_ORACLE @ B_ORACLE.conj().T, np.eye(4), atol=1e-15)


def test_bell_vectors_have_definite_parity():
    # even = aligned (|00>, |11>), odd = anti-aligned (|01>, |10>)
    parity = np.diag([1.0, -1.0, -1.0, 1.0])
    for vec, expected in [(U1, 1), (U2, 1), (U3, -1), (U4, -1)]:
        assert np.allclose(parity @ vec, expected * vec)


def test_singlet_projector_in_computational_basis():
    rho = preset_state("bell-u4")
    comp = bell_to_computational(rho)
    want = np.zeros((4, 4))
    want[1, 1] = want[2, 2] = 0.5
    want[1, 2] = want[2, 1] = -0.5
    assert np.allclose(comp, want, atol=1e-15)


def test_sigma_pattern_read_as_computational_converts_to_odd_block_coupling():
    # The boundary-state numeric pattern interpreted in the computational
    # basis: the +-i/4 pair couples |01> and |10>, both odd parity, so the
    # Bell-basis image has the coupling between u3 and u4, purely imaginary
    # with magnitude 1/4, and a uniform diagonal. Derived by hand with the
    # oracle unitary before implementation.
    pattern = np.diag([0.25] * 4).astype(complex)
    pattern[1, 2] = 0.25j
    pattern[2, 1] = -0.25j
    rho = make_state(pattern, Basis.COMPUTATIONAL)
    expect = B_ORACLE.conj().T @ pattern @ B_ORACLE
    assert np.allclose(rho.mat, expect, atol=1e-15)
    assert np.allclose(rho.diag, [0.25] * 4, atol=1e-15)
    assert abs(rho.mat[2, 3] - 0.25j) < 1e-15
    assert abs(rho.mat[1, 2]) < 1e-15
    assert abs(rho.mat[0, 3]) < 1e-15


def test_round_trip_bell_computational(rng):
    for _ in range(200):
        mat = random_density_bell(rng)
        rho = make_state(mat, Basis.BELL)
        back = make_state(bell_to_computational(rho), Basis.COMPUTATIONAL)
        assert np.max(np.abs(back.mat - rho.mat)) < 1e-12


def test_eigenvalues_invariant_under_basis_change(rng):
    for _ in range(50):
        mat = random_density_bell(rng)
        rho = make_state(mat)
        ev_bell = np.sort(np.linalg.eigvalsh(rho.mat))
        ev_comp = np.sort(np.linalg.eigvalsh(bell_to_computational(rho)))
        assert np.allclose(ev_bell, ev_comp, atol=1e-12)


def test_make_state_rejections():
    bad_herm = np.eye(4, dtype=complex) / 4
    bad_herm[0, 1] = 0.1
    with pytest.raises(StateValidationError, match="Hermitian"):
        make_state(bad_herm)
    with pytest.raises(StateValidationError, match="trace"):
        make_state(np.eye(4) / 3)
    bad_psd = np.diag([0.6, 0.6, -0.1, -0.1]).astype(complex)
    with pytest.raises(StateValidationError, match="positive"):
        make_state(bad_psd)
    with pytest.raises(StateValidationError, match="4x4"):
        make_state(np.eye(3) / 3)
    # every invariant test compares with >, which a nan population would pass
    for slot, bad in (((0, 0), np.nan), ((0, 1), np.nan), ((0, 1), np.inf)):
        mat = np.eye(4, dtype=complex) / 4
        mat[slot] = mat[slot[::-1]] = bad
        with pytest.raises(StateValidationError, match="finite"):
            make_state(mat)


def test_presets():
    assert np.allclose(preset_state("mixed").mat, np.eye(4) / 4)
    for i in range(1, 5):
        mat = preset_state(f"bell-u{i}").mat
        assert mat[i - 1, i - 1] == 1.0
        assert np.sum(np.abs(mat)) == 1.0
    sig = preset_state("sigma-boundary").mat
    assert sig[1, 2] == 0.25j
    with pytest.raises(KeyError):
        preset_state("nope")


def test_distances_mixed_sigma():
    mixed = preset_state("mixed")
    sigma = preset_state("sigma-boundary")
    # eigenvalues of (mixed - sigma) are {+-1/4, 0, 0}: trace distance 1/4,
    # half Hilbert-Schmidt distance (1/2)(2/16) = 1/16
    assert abs(trace_distance(mixed, sigma) - 0.25) < 1e-12
    assert abs(hs_half_distance(mixed, sigma) - 1.0 / 16.0) < 1e-12


def test_distances_orthogonal_pure():
    a = preset_state("bell-u1")
    b = preset_state("bell-u3")
    assert abs(trace_distance(a, b) - 1.0) < 1e-12
    assert abs(hs_half_distance(a, b) - 1.0) < 1e-12


def test_distance_properties(rng):
    states = [make_state(random_density_bell(rng)) for _ in range(12)]
    for a in states:
        assert trace_distance(a, a) < 1e-14
        assert hs_half_distance(a, a) < 1e-14
    for a, b, c in zip(states, states[1:], states[2:]):
        d_ab = trace_distance(a, b)
        assert abs(d_ab - trace_distance(b, a)) < 1e-14
        assert d_ab <= trace_distance(a, c) + trace_distance(c, b) + 1e-12


def test_sanitize_idempotent_and_clipping():
    good = preset_state("mixed")
    res = sanitize(good)
    assert res.correction < 1e-15
    assert np.allclose(res.state.mat, good.mat)

    # small negative eigenvalue inside the tolerance is clipped and renormalized
    mat = np.diag([0.5, 0.5 + 4e-10, -4e-10, 0.0]).astype(complex)
    res = sanitize(mat)
    evals = np.linalg.eigvalsh(res.state.mat)
    assert evals[0] >= 0.0
    assert abs(res.state.mat.trace().real - 1.0) < 1e-15
    assert 0 < res.correction < 1e-8

    res2 = sanitize(res.state)
    assert np.max(np.abs(res2.state.mat - res.state.mat)) < 1e-14

    with pytest.raises(DivergenceError, match="eigenvalue"):
        sanitize(np.diag([0.6, 0.5, -0.1, 0.0]).astype(complex))
    with pytest.raises(DivergenceError, match="trace"):
        sanitize(np.eye(4, dtype=complex) / 2)


@given(st.integers(min_value=0, max_value=10**9))
def test_json_round_trip(seed):
    rng = np.random.default_rng(seed)
    rho = make_state(random_density_bell(rng))
    for basis in (Basis.BELL, Basis.COMPUTATIONAL):
        text = state_to_json(rho, basis)
        payload = json.loads(text)
        assert payload["basis"] == basis.value
        back = state_from_json(text)
        assert np.max(np.abs(back.mat - rho.mat)) < 1e-12


def test_json_rejects_malformed():
    with pytest.raises(StateValidationError):
        state_from_json(json.dumps({"basis": "bell", "re": [[1.0]]}))
    with pytest.raises(StateValidationError):
        state_from_json(json.dumps({"re": [[0.25]], "im": [[0.0]]}))


def test_density_matrix_is_read_only():
    rho = preset_state("mixed")
    with pytest.raises(ValueError):
        rho.mat[0, 0] = 1.0

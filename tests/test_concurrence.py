import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from paritysim.concurrence import (
    SY_SY,
    class_residual,
    diagonal_lambda,
    lambda_branches,
    wootters_concurrence,
    wootters_lambda,
    xstate_sqrt_eigenvalues,
)
from paritysim.qstate import Basis, bell_to_computational, make_state, preset_state

from conftest import random_closed_class_bell, random_density_bell, random_xstate_bell


def oracle_sqrt_eigenvalues(rho_bell: np.ndarray) -> np.ndarray:
    """Independent oracle: raw eigenvalues of rho (sy x sy) rho* (sy x sy)."""
    comp = bell_to_computational(make_state(rho_bell))
    R = comp @ SY_SY @ comp.conj() @ SY_SY
    ev = np.linalg.eigvals(R).real
    return np.sort(np.sqrt(np.clip(ev, 0.0, None)))[::-1]


def oracle_lambda(rho_bell: np.ndarray) -> float:
    s = oracle_sqrt_eigenvalues(rho_bell)
    return float(s[0] - s[1] - s[2] - s[3])


def test_bell_states_maximally_entangled():
    for name in ("bell-u1", "bell-u2", "bell-u3", "bell-u4"):
        assert abs(wootters_concurrence(preset_state(name)) - 1.0) < 1e-12


def test_mixed_state_concurrence_zero():
    rho = preset_state("mixed")
    assert wootters_concurrence(rho) == 0.0
    assert abs(wootters_lambda(rho) + 0.5) < 1e-12


def test_sigma_boundary_exact_zero():
    sig = preset_state("sigma-boundary")
    br = lambda_branches(sig)
    assert br.lambda3 == 0.0
    assert br.selected == 0.0
    assert br.concurrence == 0.0
    assert wootters_concurrence(sig) == 0.0


def test_wootters_matches_general_oracle(rng):
    for _ in range(300):
        mat = random_density_bell(rng)
        assert abs(wootters_lambda(make_state(mat)) - oracle_lambda(mat)) < 1e-9


def test_xstate_closed_form_u1_projector():
    s = xstate_sqrt_eigenvalues(preset_state("bell-u1"))
    assert np.allclose(s.as_array(), [0.0, 1.0, 0.0, 0.0], atol=1e-15)
    assert abs(s.lam - 1.0) < 1e-15


def test_xstate_closed_form_vs_oracle(rng):
    worst = 0.0
    for _ in range(500):
        mat = random_xstate_bell(rng)
        s = xstate_sqrt_eigenvalues(make_state(mat))
        got = np.sort(s.as_array())[::-1]
        want = oracle_sqrt_eigenvalues(mat)
        worst = max(worst, float(np.max(np.abs(got - want))))
        assert s.b >= s.a >= -1e-15
        assert s.d >= s.c >= -1e-15
    assert worst < 1e-9


def test_xstate_rejects_off_pattern():
    mat = np.eye(4, dtype=complex) / 4
    mat[0, 1] = mat[1, 0] = 0.05
    with pytest.raises(ValueError, match="off-pattern"):
        xstate_sqrt_eigenvalues(make_state(mat))


def test_branch_maximum_equals_wootters_on_closed_class(rng):
    for _ in range(400):
        mat = random_closed_class_bell(rng)
        rho = make_state(mat)
        br = lambda_branches(rho)
        assert abs(br.selected - max(br.lambda1, br.lambda2, br.lambda3)) == 0.0
        assert abs(br.selected - wootters_lambda(rho)) < 1e-10
        assert abs(br.concurrence - wootters_concurrence(rho)) < 1e-10
        for lam in (br.lambda1, br.lambda2, br.lambda3):
            assert -1.0 - 1e-12 <= lam <= 1.0 + 1e-12


def test_branches_reject_out_of_class():
    mat = np.diag([0.3, 0.3, 0.2, 0.2]).astype(complex)
    mat[0, 3] = mat[3, 0] = 0.1
    with pytest.raises(ValueError, match="rho_14"):
        lambda_branches(make_state(mat))
    mat = np.diag([0.3, 0.3, 0.2, 0.2]).astype(complex)
    mat[1, 2] = 0.05
    mat[2, 1] = 0.05
    with pytest.raises(ValueError, match="Re rho_23"):
        lambda_branches(make_state(mat))
    # rho_14 = Re rho_23 = 0, but another coherence is not
    for slot, value in (((0, 2), 0.2), ((0, 1), 0.2j)):
        mat = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        mat[slot], mat[slot[::-1]] = value, np.conj(value)
        with pytest.raises(ValueError, match="closed class"):
            lambda_branches(make_state(mat))


@given(seed=st.integers(0, 2**32 - 1), labels=st.lists(st.integers(0, 3), min_size=4, max_size=4))
@example(seed=0, labels=[0, 1, 0, 1])   # rho_13 and rho_24 only
@example(seed=0, labels=[0, 0, 1, 2])   # rho_12 only
@example(seed=0, labels=[0, 1, 2, 3])   # diagonal, on the class
def test_class_residual_decides_branch_validity(seed, labels):
    """class_residual is 0 on the closed class; on a random state, pinched to
    the blocks of equal label (a mask that keeps it a state), lambda_branches
    either refuses it or agrees with the Wootters Lambda."""
    rng = np.random.default_rng(seed)
    assert class_residual(random_closed_class_bell(rng)) == 0.0
    label = np.array(labels)
    rho = make_state(random_density_bell(rng) * (label[:, None] == label[None, :]))
    try:
        br = lambda_branches(rho)
    except ValueError:
        assert class_residual(rho.mat) > 1e-12
        return
    assert abs(br.selected - wootters_lambda(rho)) < 1e-10


def test_diagonal_lambda_worked_values():
    assert abs(diagonal_lambda(np.array([0.25, 0.25, 0.49, 0.01])) + 0.02) < 1e-15
    assert diagonal_lambda(np.array([0.25, 0.25, 0.25, 0.25])) == -0.5
    assert diagonal_lambda(np.array([1.0, 0.0, 0.0, 0.0])) == 1.0
    with pytest.raises(ValueError):
        diagonal_lambda(np.array([0.5, 0.5]))


def test_diagonal_lambda_consistent_with_branches(rng):
    for _ in range(100):
        p = rng.dirichlet(np.ones(4))
        rho = make_state(np.diag(p).astype(complex))
        br = lambda_branches(rho)
        assert abs(br.selected - diagonal_lambda(p)) < 1e-12


def test_werner_family_crossing_at_one_third():
    # rho = (1-p)/4 I + p |u><u| crosses C = 0 exactly at p = 1/3
    for idx in range(4):
        proj = np.zeros((4, 4), dtype=complex)
        proj[idx, idx] = 1.0
        cs = []
        for p in np.linspace(0.0, 1.0, 101):
            mat = (1 - p) * np.eye(4, dtype=complex) / 4 + p * proj
            cs.append(wootters_concurrence(make_state(mat)))
        cs = np.array(cs)
        ps = np.linspace(0.0, 1.0, 101)
        assert np.all(cs[ps <= 1 / 3 + 1e-12] < 1e-10)
        assert np.all(cs[ps > 1 / 3 + 1e-3] > 0.0)
        # above threshold the closed form is (3p-1)/2
        above = ps > 1 / 3
        assert np.allclose(cs[above], (3 * ps[above] - 1) / 2, atol=1e-10)


def test_concurrence_in_unit_interval(rng):
    for _ in range(100):
        c = wootters_concurrence(make_state(random_density_bell(rng)))
        assert 0.0 <= c <= 1.0 + 1e-12


def test_branch_json():
    br = lambda_branches(preset_state("mixed"))
    import json

    payload = json.loads(br.to_json())
    assert payload["selected"] == -0.5
    assert payload["concurrence"] == 0.0

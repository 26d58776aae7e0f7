"""Measurement-only analytics against independent oracles.

Threshold formulas are checked against numeric root-finding on
lambda_of_gamma, crossing probabilities against the per-parity weighted
assembly and against a Brownian-bridge random walk, densities against
scipy.stats.invgauss and quadrature, and the survival Green function
against its own boundary flux.
"""

import itertools
import json
import math

import numpy as np
import pytest
from scipy import integrate, optimize, stats

from paritysim import fpt
from paritysim.concurrence import diagonal_lambda
from step_reference import tanh_walk

# (populations, r2, p_cross, initially entangled)
WORKED = [
    ((0.25, 0.25, 0.49, 0.01), -0.020410997260127583, 0.98, False),
    ((0.02, 0.02, 0.49, 0.47), -0.34657359027997264, 0.98, False),
    ((0.26, 0.26, 0.22, 0.26), -1.2824746787307684, 0.52, False),
    ((0.01, 0.01, 0.00, 0.98), 1.9459101490553132, 0.04, True),
    ((0.25, 0.25, 0.01, 0.49), -0.020410997260127583, 0.98, False),
    ((0.24, 0.24, 0.01, 0.51), 0.020410997260127583, 0.9792, True),
]


def random_standard_state(rng, entangled=None):
    """rho_11 = rho_22, rho_33 != rho_44, optionally fixing the sign of
    Lambda."""
    while True:
        p3, p4 = rng.dirichlet(np.ones(3))[:2]
        rest = 1.0 - p3 - p4
        p = np.array([rest / 2, rest / 2, p3, p4])
        if abs(p3 - p4) < 1e-3 or rest < 1e-3:
            continue
        lam = 2 * p.max() - 1
        if abs(lam) < 1e-3:
            continue
        if entangled is None or (lam > 0) == entangled:
            return fpt.diagonal_state(p)


# ---------------------------------------------------------------- updates


def test_bayes_update_matches_direct_arithmetic(rng):
    for _ in range(200):
        p = rng.dirichlet(np.ones(4))
        g = rng.uniform(-3, 3)
        st = fpt.diagonal_state(p)
        w = p * np.exp(g * np.array([1.0, 1.0, -1.0, -1.0]))
        expect = w / w.sum()
        got = fpt.bayes_update(st, g).p
        assert np.max(np.abs(got - expect)) < 1e-14


def test_bayes_update_composes(rng):
    for _ in range(100):
        st = fpt.diagonal_state(rng.dirichlet(np.ones(4)))
        g1, g2 = rng.uniform(-2, 2, 2)
        once = fpt.bayes_update(st, g1 + g2).p
        twice = fpt.bayes_update(fpt.bayes_update(st, g1), g2).p
        assert np.max(np.abs(once - twice)) < 1e-13


def test_bayes_update_extreme_gamma():
    st = fpt.diagonal_state([0.3, 0.2, 0.4, 0.1])
    for g, expect in [
        (600.0, [0.6, 0.4, 0.0, 0.0]),
        (-600.0, [0.0, 0.0, 0.8, 0.2]),
        (math.inf, [0.6, 0.4, 0.0, 0.0]),
        (-math.inf, [0.0, 0.0, 0.8, 0.2]),
    ]:
        got = fpt.bayes_update(st, g).p
        assert np.max(np.abs(got - expect)) < 1e-12


@pytest.mark.parametrize("pops, match", [
    ([math.nan, 0.5, 0.25, 0.25], "non-finite"),
    ([math.inf, 0.5, 0.25, 0.25], "non-finite"),
    ([0.25, -math.inf, 0.5, 0.25], "non-finite"),
    ([-0.1, 0.6, 0.25, 0.25], r"negative population: -0\.1$"),
    ([0.5, 0.5, 0.25, 0.25], r"populations sum to 1\.5, not 1$"),
])
def test_diagonal_state_rejects_bad_populations(pops, match):
    """nan and +-inf are refused, though every comparison with nan is
    False; the messages print plain floats, not numpy reprs."""
    with pytest.raises(ValueError, match=match):
        fpt.diagonal_state(pops)


def test_bayes_update_infinite_into_empty_subspace_raises():
    st = fpt.diagonal_state([0.0, 0.0, 0.6, 0.4])
    with pytest.raises(ValueError, match="zero weight"):
        fpt.bayes_update(st, math.inf)


def test_lambda_of_gamma_consistent_with_update(rng):
    for _ in range(100):
        st = fpt.diagonal_state(rng.dirichlet(np.ones(4)))
        g = rng.uniform(-500, 500)
        assert fpt.lambda_of_gamma(st, g) == pytest.approx(
            diagonal_lambda(fpt.bayes_update(st, g).p), abs=1e-13
        )


# ------------------------------------------------------------- thresholds


def test_thresholds_are_lambda_roots(rng):
    """Closed-form r1/r2 against brentq root-finding on Lambda(gamma)."""
    for _ in range(300):
        st = random_standard_state(rng)
        r1, r2 = fpt.crossing_thresholds(st)
        assert r1 == math.inf
        assert math.isfinite(r2)
        assert fpt.lambda_of_gamma(st, r2) == pytest.approx(0.0, abs=1e-12)
        lam0 = diagonal_lambda(st.p)
        root = optimize.brentq(
            lambda g: fpt.lambda_of_gamma(st, g),
            r2 - 1.0,
            r2 + 1.0,
            xtol=1e-13,
        )
        assert root == pytest.approx(r2, abs=1e-10)
        # the threshold sits on the opposite side of gamma = 0 from Lambda_0
        assert (r2 > 0) == (lam0 > 0) or r2 == 0.0


def test_threshold_sentinels():
    r1, r2 = fpt.crossing_thresholds(fpt.diagonal_state([0.25, 0.25, 0.25, 0.25]))
    assert (r1, r2) == (math.inf, -math.inf)
    # pure even parity, populations distinct: no odd weight to collapse into
    r1, r2 = fpt.crossing_thresholds(fpt.diagonal_state([0.7, 0.3, 0.0, 0.0]))
    assert (r1, r2) == (-math.inf, -math.inf)
    # pure odd parity
    r1, r2 = fpt.crossing_thresholds(fpt.diagonal_state([0.0, 0.0, 0.3, 0.7]))
    assert (r1, r2) == (math.inf, math.inf)
    # mirrored class: finite r1, blocked r2
    r1, r2 = fpt.crossing_thresholds(fpt.diagonal_state([0.49, 0.01, 0.25, 0.25]))
    assert math.isfinite(r1) and r2 == -math.inf
    assert r1 == pytest.approx(0.020410997260127583, abs=1e-15)


@pytest.mark.parametrize("pops, r2, p_cross, entangled", WORKED)
def test_worked_cases_frozen(pops, r2, p_cross, entangled):
    st = fpt.diagonal_state(pops)
    _, got_r2 = fpt.crossing_thresholds(st)
    assert got_r2 == pytest.approx(r2, abs=1e-15)
    assert fpt.mean_crossing_time(st) == pytest.approx(abs(r2), abs=1e-15)
    if entangled:
        assert fpt.p_sudden_death(st) == pytest.approx(p_cross, abs=1e-15)
    else:
        assert fpt.p_genesis(st) == pytest.approx(p_cross, abs=1e-15)


def test_probability_class_guards():
    genesis_state = fpt.diagonal_state([0.25, 0.25, 0.49, 0.01])
    death_state = fpt.diagonal_state([0.01, 0.01, 0.0, 0.98])
    with pytest.raises(ValueError, match="not entangled"):
        fpt.p_sudden_death(genesis_state)
    with pytest.raises(ValueError, match="entangled"):
        fpt.p_genesis(death_state)
    with pytest.raises(ValueError, match="rho_11 = rho_22"):
        fpt.p_genesis(fpt.diagonal_state([0.3, 0.2, 0.4, 0.1]))
    with pytest.raises(ValueError, match="rho_33 != rho_44"):
        fpt.p_genesis(fpt.diagonal_state([0.3, 0.3, 0.2, 0.2]))


def test_weighted_assembly_identity(rng):
    """The closed-form crossing probability equals the parity-weighted
    mixture of definite-parity crossing probabilities, to 1e-12."""
    for _ in range(1000):
        st = random_standard_state(rng)
        _, r2 = fpt.crossing_thresholds(st)
        mix = st.p_even * fpt.p_cross_parity(r2, "even") + st.p_odd * fpt.p_cross_parity(
            r2, "odd"
        )
        lam0 = diagonal_lambda(st.p)
        closed = fpt.p_sudden_death(st) if lam0 > 0 else fpt.p_genesis(st)
        assert closed == pytest.approx(mix, abs=1e-12)
        assert 0.0 < closed <= 1.0 + 1e-12


def test_p_cross_parity_values():
    assert fpt.p_cross_parity(-0.7, "odd") == 1.0
    assert fpt.p_cross_parity(-0.7, "even") == pytest.approx(math.exp(-1.4), rel=1e-15)
    assert fpt.p_cross_parity(0.7, "even") == 1.0
    assert fpt.p_cross_parity(0.7, "odd") == pytest.approx(math.exp(-1.4), rel=1e-15)
    with pytest.raises(ValueError, match="parity"):
        fpt.p_cross_parity(0.5, "sideways")


# -------------------------------------------------------------- densities


@pytest.mark.parametrize("r2", [-0.020410997260127583, -0.34657359027997264, 1.0, -1.0, 1.9459101490553132])
@pytest.mark.parametrize("parity", ["even", "odd"])
def test_fpt_pdf_integrates_to_crossing_probability(r2, parity):
    total, _ = integrate.quad(
        lambda t: fpt.fpt_pdf(t, r2, parity), 0, np.inf, limit=400
    )
    assert total == pytest.approx(fpt.p_cross_parity(r2, parity), abs=1e-8)


@pytest.mark.parametrize("r2", [-0.3465735902799722, 0.5, -1.0, 2.0])
def test_fpt_pdf_conditioned_is_inverse_gaussian(r2):
    """Pointwise match to scipy's inverse Gaussian with mean |r2| and
    shape r2^2."""
    dist = stats.invgauss(mu=1.0 / abs(r2), scale=r2 * r2)
    t = np.linspace(1e-3, 8.0, 700)
    ours = fpt.fpt_pdf_conditioned(t, r2)
    assert np.max(np.abs(ours - dist.pdf(t))) < 1e-12

    total, _ = integrate.quad(lambda x: fpt.fpt_pdf_conditioned(x, r2), 0, np.inf, limit=400)
    assert total == pytest.approx(1.0, abs=1e-8)
    mean, _ = integrate.quad(
        lambda x: x * fpt.fpt_pdf_conditioned(x, r2), 0, np.inf, limit=400
    )
    assert mean == pytest.approx(abs(r2), abs=1e-7)


@pytest.mark.parametrize("r2", [0.25, 1.0, 3.0])
def test_fpt_pdf_conditioned_mode(r2):
    grid = np.linspace(1e-4, 3 * r2 + 2, 200001)
    peak = grid[np.argmax(fpt.fpt_pdf_conditioned(grid, r2))]
    assert peak == pytest.approx(math.sqrt(r2 * r2 + 2.25) - 1.5, abs=2e-4)


def test_conditioned_density_is_parity_independent():
    """f_parity / p_cross_parity collapses to the same conditioned law for
    both parities."""
    t = np.linspace(1e-3, 6.0, 400)
    for r2 in (-0.6, 0.9):
        cond = fpt.fpt_pdf_conditioned(t, r2)
        for parity in ("even", "odd"):
            ratio = fpt.fpt_pdf(t, r2, parity) / fpt.p_cross_parity(r2, parity)
            assert np.max(np.abs(ratio - cond)) < 1e-12


def test_fpt_pdf_zero_for_nonpositive_tau():
    assert fpt.fpt_pdf(0.0, -0.5, "even") == 0.0
    assert fpt.fpt_pdf(-1.0, -0.5, "even") == 0.0
    assert fpt.fpt_pdf_conditioned(0.0, -0.5) == 0.0


# --------------------------------------------------------- Green function


def test_green_function_vanishes_on_boundary():
    assert fpt.green_function(-0.7, 0.4, -0.7, "odd") == 0.0
    assert fpt.green_function(1.3, 2.0, 1.3, "even") == 0.0


@pytest.mark.parametrize("r2, parity", [(-0.7, "odd"), (-0.7, "even"), (1.2, "even")])
@pytest.mark.parametrize("tau", [0.3, 1.5])
def test_green_boundary_flux_equals_fpt_pdf(r2, parity, tau):
    """|D dG/dgamma| at the absorbing boundary is the first-passage
    density."""
    h = 1e-6
    inside = r2 + h if r2 < 0 else r2 - h
    grad = (fpt.green_function(inside, tau, r2, parity) - 0.0) / h
    flux = fpt.DIFFUSION * abs(grad)
    assert flux == pytest.approx(fpt.fpt_pdf(tau, r2, parity), rel=1e-4)


@pytest.mark.parametrize("r2, parity", [(-0.7, "odd"), (1.2, "even")])
def test_green_mass_loss_rate_equals_fpt_pdf(r2, parity):
    def mass(tau):
        if r2 < 0:
            lo, hi = r2, r2 + 40.0
        else:
            lo, hi = r2 - 40.0, r2
        val, _ = integrate.quad(
            lambda g: fpt.green_function(g, tau, r2, parity), lo, hi, limit=400
        )
        return val

    tau, h = 0.8, 1e-5
    rate = -(mass(tau + h) - mass(tau - h)) / (2 * h)
    assert rate == pytest.approx(fpt.fpt_pdf(tau, r2, parity), rel=1e-4)


def test_green_function_free_limit():
    """A remote boundary reduces the survival density to the free
    Gaussian."""
    g = np.linspace(-2, 2, 41)
    tau = 0.7
    got = fpt.green_function(g, tau, -40.0, "even")
    free = np.exp(-((g - tau) ** 2) / (2 * tau)) / np.sqrt(2 * np.pi * tau)
    assert np.max(np.abs(got - free)) < 1e-12


def test_green_function_domain_checks():
    with pytest.raises(ValueError, match="below"):
        fpt.green_function(-1.0, 0.5, -0.5, "odd")
    with pytest.raises(ValueError, match="above"):
        fpt.green_function(1.0, 0.5, 0.5, "even")
    with pytest.raises(ValueError, match="tau"):
        fpt.green_function(0.0, 0.0, -0.5, "odd")


# ----------------------------------------------------------------- border


def test_border_lines_sit_on_lambda_zero():
    """Points of both border lines, pushed back through the Bayes update,
    land exactly on Lambda = 0."""
    for gamma in (-2.0, -0.7, 0.3, 1.5):
        lines = fpt.border_geometry(gamma)
        for slope, intercept, branch in (
            (*lines.upper, "upper"),
            (*lines.lower, "lower"),
        ):
            for p3 in np.linspace(0.05, 0.45, 9):
                p4 = slope * p3 + intercept
                if branch == "upper" and not p4 > p3:
                    continue
                if branch == "lower" and not p3 > p4:
                    continue
                if not (0 < p4 < 1 and p3 + p4 < 1):
                    continue
                rest = (1.0 - p3 - p4) / 2.0
                st = fpt.diagonal_state([rest, rest, p3, p4])
                assert abs(fpt.lambda_of_gamma(st, gamma)) < 1e-12


def test_border_lines_pass_through_center():
    for gamma in (-1.2, 0.4, 2.0):
        lines = fpt.border_geometry(gamma)
        for slope, intercept in (lines.upper, lines.lower):
            assert slope * 0.5 + intercept == pytest.approx(0.5, abs=1e-14)


def test_border_gamma_zero_degenerates():
    lines = fpt.border_geometry(0.0)
    assert lines.upper == (0.0, 0.5)          # horizontal: rho_44 = 1/2
    assert lines.lower == (math.inf, math.inf)  # vertical: rho_33 = 1/2


# ---------------------------------------------------------------- predict


@pytest.mark.parametrize("pops, r2, p_cross, entangled", WORKED)
def test_predict_worked_cases(pops, r2, p_cross, entangled):
    pred = fpt.predict(fpt.diagonal_state(pops))
    assert pred.r1 == math.inf
    assert pred.r2 == pytest.approx(r2, abs=1e-15)
    assert pred.initially_entangled is entangled
    assert pred.p_cross == pytest.approx(p_cross, abs=1e-15)
    assert pred.mean_time == pytest.approx(abs(r2), abs=1e-15)
    assert pred.pdf_params == pytest.approx((abs(r2), 1.0, 0.5))


def test_predict_mirrored_class():
    pred = fpt.predict(fpt.diagonal_state([0.49, 0.01, 0.25, 0.25]))
    assert pred.r2 == -math.inf
    assert pred.r1 == pytest.approx(0.020410997260127583, abs=1e-15)
    assert pred.p_cross == pytest.approx(0.98, abs=1e-15)
    assert pred.mean_time == pytest.approx(0.020410997260127583, abs=1e-15)


def test_predict_degenerate_class():
    pred = fpt.predict(fpt.diagonal_state([0.25, 0.25, 0.25, 0.25]))
    assert pred.p_cross == 0.0
    assert pred.mean_time == math.inf
    pred = fpt.predict(fpt.diagonal_state([0.0, 0.0, 0.3, 0.7]))
    assert pred.p_cross == 0.0 and pred.mean_time == math.inf


def test_predict_rejects_two_finite_thresholds():
    with pytest.raises(ValueError, match="two finite"):
        fpt.predict(fpt.diagonal_state([0.3, 0.2, 0.4, 0.1]))


def test_predict_json_round_trip():
    pred = fpt.predict(fpt.diagonal_state([0.25, 0.25, 0.49, 0.01]))
    payload = json.loads(pred.to_json())
    assert payload["r1"] == "inf"
    assert payload["r2"] == pytest.approx(-0.020410997260127583)
    assert payload["p_cross"] == pytest.approx(0.98)
    assert payload["initially_entangled"] is False
    pred = fpt.predict(fpt.diagonal_state([0.25, 0.25, 0.25, 0.25]))
    payload = json.loads(pred.to_json())
    assert payload["mean_time_tm"] == "inf"


# ------------------------------------------------------------ walk oracle


def test_walk_oracle_matches_closed_forms():
    """Brownian-bridge walk ensembles against closed-form p_cross and mean
    conditioned crossing time, 3 SE, for representative states including
    every worked case."""
    states = [w[0] for w in WORKED] + [
        (0.49, 0.01, 0.25, 0.25),     # mirrored class
        (0.2, 0.2, 0.05, 0.55),      # entangled, large threshold gap
        (0.05, 0.05, 0.0, 0.9),      # deep in the entangled corner
        (0.15, 0.15, 0.1, 0.6),
    ]
    n = 100_000
    for pops in states:
        st = fpt.diagonal_state(pops)
        pred = fpt.predict(st)
        if math.isfinite(pred.r2):
            thr, p_even = pred.r2, st.p_even
        else:
            thr, p_even = -pred.r1, st.p_odd
        dt = max(1e-3, abs(thr) / 400.0)
        crossed, times = fpt.walk_crossing_times(p_even, thr, n, dt_tau=dt, seed=20260814)
        p_hat = crossed.mean()
        se_p = math.sqrt(pred.p_cross * (1 - pred.p_cross) / n)
        assert abs(p_hat - pred.p_cross) < 3 * se_p + 1e-12, pops
        t_cond = times[crossed]
        se_t = t_cond.std(ddof=1) / math.sqrt(t_cond.size)
        assert abs(t_cond.mean() - pred.mean_time) < 3 * se_t + dt, pops


def test_walk_rejects_bad_inputs():
    with pytest.raises(ValueError, match="threshold"):
        fpt.walk_crossing_times(0.5, 0.0, 10)
    with pytest.raises(ValueError, match="threshold"):
        fpt.walk_crossing_times(0.5, math.inf, 10)
    with pytest.raises(ValueError, match="p_even"):
        fpt.walk_crossing_times(1.5, -0.5, 10)


def test_bridge_step_decisions():
    """Threshold -1 crossed downwards: a direct hit, a bridge crossing on
    either side of its probability, an escape and its near miss, and an
    open walk."""
    far = -1.0 + fpt.ESCAPE
    g0 = np.array([-0.5, -0.5, -0.5, far - 2.0, far - 2.0, 0.0])
    g1 = np.array([-1.5, -0.6, -0.6, far + 0.1, far - 0.1, 0.1])
    pb = math.exp(-(0.5 * 0.4) / fpt.DIFFUSION)
    u = np.array([0.99, pb - 1e-9, pb + 1e-9, 0.99, 0.99, 0.99])
    crossed, retire = fpt.bridge_step(g0, g1, -1.0, -1.0, 1.0, u)
    assert crossed.tolist() == [True, True, False, False, False, False]
    assert retire.tolist() == [True, True, False, True, False, False]
    frac = fpt.hit_fraction(g0[:2], g1[:2], -1.0, -1.0)
    assert frac[0] == 0.5 and frac[1] == 0.5
    # elementwise over (steps, walks) blocks with a per-step dt
    g = np.array([[0.0, 0.0], [0.3, -0.2], [0.8, -0.1]])
    dts = np.array([[0.1], [0.2]])
    crossed, _ = fpt.bridge_step(g[:-1], g[1:], 0.5, 1.0, dts, np.ones((2, 2)))
    assert crossed.tolist() == [[False, False], [True, False]]
    assert fpt.hit_fraction(g[1, 0], g[2, 0], 0.5, 1.0) == pytest.approx(0.4)


def test_crossing_fraction_has_the_bits_of_both_forms(rng):
    """The one crossing rule, on steps across the level: the values of
    (level - g0) / (g1 - g0), the form the rise times had, and at level 0
    the bits of g0 / (g0 - g1), the form the border events had. Only a zero
    fraction (g0 on the level) can differ, in its sign, and the time
    t0 + (t1 - t0) * frac with t0 >= 0 takes the same bits from both."""
    g = np.concatenate([rng.normal(size=(2, 20000)) * 10.0 ** rng.integers(-300, 300, (2, 20000)),
                        [[-0.0, 0.0, 5e-324, -5e-324], [1.0, -1.0, -1e-300, 2.0]]], axis=1)
    t0 = rng.integers(0, 1000, g.shape[1]) * 0.01
    t1 = t0 + 0.01
    for level in (0.0, -0.05, 0.3):
        g0, g1 = g + level
        across = (np.sign(g0 - level) * np.sign(g1 - level) <= 0.0) & (g0 != g1)
        g0, g1, a, b = g0[across], g1[across], t0[across], t1[across]
        got = fpt._crossing_fraction(g0, g1, level)
        want = (level - g0) / (g1 - g0)
        assert np.array_equal(got, want), level
        assert (a + (b - a) * got).tobytes() == (a + (b - a) * want).tobytes(), level
        if level == 0.0:
            assert got.tobytes() == (g0 / (g0 - g1)).tobytes()


def test_walk_first_passage_at_infinite_offset_is_constant_drift(monkeypatch):
    """The oracle's walk_first_passage call, a drift sign +-1 per walker
    (the constant drift that c = +-inf gave the filter walk), against a
    plain per-walk stepper with drift +-1 on the draws the oracle's
    callback handed out: the same crossings, open count and times, over a
    direct hit, a bridge crossing, an escape and a retirement in the
    coarse phase."""
    real = fpt.walk_first_passage
    calls = []

    def recording(c, thr, dts, draw):
        blocks = []

        def logged(k0, k1, alive):
            xi, u = draw(k0, k1, alive)
            blocks.append((k0, alive.copy(), xi.copy(), u.copy()))
            return xi, u

        out = real(c, thr, dts, logged)
        calls.append((c.copy(), thr, dts, blocks, out))
        return out

    monkeypatch.setattr(fpt, "walk_first_passage", recording)
    crossed, times = fpt.walk_crossing_times(0.5, -0.5, 400, dt_tau=0.05, seed=5)
    [(c, thr, dts, blocks, (got, n_open))] = calls
    assert np.all(np.abs(c) == 1.0) and (c > 0).any() and (c < 0).any()
    assert np.array_equal(times, got, equal_nan=True)
    assert np.array_equal(crossed, ~np.isnan(got))

    z = np.full((dts.size, c.size), np.nan)
    u = np.full_like(z, np.nan)
    for k0, alive, xi, unif in blocks:
        z[k0 : k0 + xi.shape[0], alive] = xi
        u[k0 : k0 + xi.shape[0], alive] = unif
    n1 = int(np.sum(dts == dts[0]))
    side = math.copysign(1.0, thr)
    ref, fates = np.full(c.size, np.nan), []
    for j in range(c.size):
        v = 1.0 if c[j] > 0 else -1.0
        g, t, fate = 0.0, 0.0, ("open", dts.size)
        for k, dt in enumerate(dts.tolist()):
            assert not math.isnan(z[k, j]), (j, k)
            g_new = g + (v + z[k, j] * math.sqrt(1.0 / dt)) * dt
            a, b = side * (g - thr), side * (g_new - thr)
            if b >= 0.0:
                ref[j], fate = t + dt * (thr - g) / (g_new - g), ("hit", k)
                break
            if u[k, j] < math.exp(-(a * b) / (fpt.DIFFUSION * dt)):
                ref[j], fate = t + 0.5 * dt, ("bridge", k)
                break
            if b < -fpt.ESCAPE:
                fate = ("escape", k)
                break
            g, t = g_new, t + dt
        fates.append(fate)
    kinds = {f for f, _ in fates}
    assert {"hit", "bridge", "escape"} <= kinds
    assert any(f != "open" and k >= n1 for f, k in fates)
    assert np.array_equal(np.isnan(got), np.isnan(ref))
    assert n_open == sum(f == "open" for f, _ in fates)
    hit = ~np.isnan(ref)
    assert np.max(np.abs(got[hit] - ref[hit])) <= 1e-12


CROSSING_STATES = [
    (0.25, 0.25, 0.49, 0.01),
    (0.02, 0.02, 0.49, 0.47),
    (0.26, 0.26, 0.22, 0.26),
    (0.01, 0.01, 0.00, 0.98),
    (0.24, 0.24, 0.01, 0.51),
    (0.49, 0.01, 0.25, 0.25),     # mirrored class: threshold r1 > 0
    (0.20, 0.20, 0.05, 0.55),
    (0.05, 0.05, 0.00, 0.90),
    (0.15, 0.15, 0.10, 0.60),
    (0.10, 0.10, 0.28, 0.52),
    (0.35, 0.35, 0.05, 0.25),
]


def _reference_bridge_step(g0, g1, thr, side, dt, u):
    """The bridge rule with exp(-a b / (D dt)) evaluated on every step."""
    d0 = g0 - thr
    d1 = g1 - thr
    b = side * d1
    crossed = (b >= 0.0) | (u < np.exp(-(d0 * d1) / (fpt.DIFFUSION * dt)))
    return crossed, crossed | (b < -fpt.ESCAPE)


def _reference_walk(v, thr, dts, draw):
    """walk_first_passage stepped through a scratch increment row, with
    in-place += xi, *= each step's dt as a Python float and a per-step add,
    and decided by _reference_bridge_step."""
    side = math.copysign(1.0, thr)
    dt_list = dts.tolist()
    noise_scale = np.sqrt(1.0 / dts)
    t_before = np.concatenate([[0.0], np.cumsum(dts)])
    gam = np.zeros(v.size)
    alive = np.arange(v.size)
    times = np.full(v.size, np.nan)
    k0 = 0
    while k0 < dts.size and alive.size:
        k1 = min(k0 + min(max(k0, fpt._FIRST_BLOCK), fpt._BLOCK), dts.size)
        xi, unif = draw(k0, k1, alive)
        xi *= noise_scale[k0:k1, None]
        g = np.empty((k1 - k0 + 1, alive.size))
        g[0] = gam
        inc = np.empty(alive.size)
        for i in range(k1 - k0):
            np.copyto(inc, v)
            inc += xi[i]
            inc *= dt_list[k0 + i]
            np.add(g[i], inc, out=g[i + 1])
        crossed, retire = _reference_bridge_step(
            g[:-1], g[1:], thr, side, dts[k0:k1, None], unif
        )
        done = retire.any(axis=0)
        lanes = np.nonzero(done)[0]
        first = retire[:, lanes].argmax(axis=0)
        hit = crossed[first, lanes]
        lanes, first = lanes[hit], first[hit]
        k = k0 + first
        frac = fpt.hit_fraction(g[first, lanes], g[first + 1, lanes], thr, side)
        times[alive[lanes]] = t_before[k] + dts[k] * frac
        keep = ~done
        alive, gam, v = alive[keep], g[-1, keep], v[keep]
        k0 = k1
    return times, int(alive.size)


def _logged_stream(seed, n_walks, p_even, blocks):
    """The parity signs and the block_draws callback of the stream
    SeedSequence(seed, spawn_key=(0,)), parities first, as
    fpt._parity_walks draws them; each block's (k1, open walks) is
    appended to blocks."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
    v = np.where(rng.random(n_walks) < p_even, 1.0, -1.0)
    draw = fpt.block_draws(rng)

    def logged(k0, k1, alive):
        blocks.append((k1, alive.size))
        return draw(k0, k1, alive)

    return v, logged


@pytest.mark.parametrize("n_walks", [256, 37])
@pytest.mark.parametrize("seed", [0, 11])
def test_walk_first_passage_matches_scratch_row_reference(seed, n_walks):
    """The crossing kernel's walks (a parity drawn per walk, then drift
    +-1, fine then coarse steps over a 12 T_M window) equal _reference_walk
    on the same parity draw and stream bit for bit, on the 11
    crossing-statistics states at two fine steps, for full and partial
    256-walk chunks; some of them step through the coarse phase."""
    tau_max = 12.0
    signs, coarse_steps = set(), 0
    for state, dt1 in itertools.product(CROSSING_STATES, (2e-3, 1e-2)):
        st = fpt.diagonal_state(state)
        pred = fpt.predict(st)
        thr = pred.r2 if math.isfinite(pred.r2) else pred.r1
        dts = fpt.walk_dts(thr, dt1, tau_max)
        n_fine = int(np.sum(dts == dt1))
        blocks = []
        got, n_open = fpt._parity_walks(seed, 0, st.p_even, n_walks, thr, dts)
        v, draw = _logged_stream(seed, n_walks, st.p_even, blocks)
        ref, ref_open = _reference_walk(v, thr, dts, draw)
        assert np.array_equal(got, ref, equal_nan=True), state
        assert n_open == ref_open, state
        signs.add(math.copysign(1.0, thr))
        coarse_steps += sum(size * max(0, k1 - n_fine) for k1, size in blocks)
    assert signs == {-1.0, 1.0}
    assert coarse_steps > 0


# (p_even, threshold, fine step, window): near thresholds on both sides
# whose windows end in the coarse phase, and a far one whose short window
# leaves walks open
SIGN_WALKS = [
    (0.5, -0.5, 1e-2, 12.0),
    (0.3, 0.7, 2e-3, 14.0),
    (0.5, -5.0, 2e-3, 4.0),
    (0.04, 1.9459101490553132, 1e-2, 12.0),
]


@pytest.mark.parametrize("n_walks", [256, 37])
def test_walk_first_passage_keeps_the_tanh_walk_bits_on_signs(n_walks):
    """walk_first_passage on drift signs v = +-1 has the bits of the retired
    filter walk step_reference.tanh_walk at c = v * inf on the same stream,
    which is what keeps walk_crossing_times' output: the same times and
    open counts, through the fine and the coarse phase, with walks retired
    by a crossing and by escape, and walks left open."""
    coarse = escaped = still_open = 0
    for seed, (p_even, thr, dt1, tau_max) in enumerate(SIGN_WALKS):
        dts = fpt.walk_dts(thr, dt1, tau_max)
        n_fine = int(np.sum(dts == dt1))
        blocks = []
        v, draw = _logged_stream(seed, n_walks, p_even, blocks)
        got, n_open = fpt.walk_first_passage(v, thr, dts, draw)
        _, draw = _logged_stream(seed, n_walks, p_even, [])
        ref, ref_open = tanh_walk(v * math.inf, thr, dts, draw)
        assert got.tobytes() == ref.tobytes(), (p_even, thr)
        assert n_open == ref_open, (p_even, thr)
        coarse += sum(size for k1, size in blocks if k1 > n_fine)
        escaped += int(np.isnan(got).sum()) - n_open
        still_open += n_open
    assert coarse > 0 and escaped > 0 and still_open > 0


def test_bridge_step_at_the_exp_cutoff():
    """bridge_step against the full expression where exp(-a b / (D dt))
    runs from 1 through the subnormal band to exactly 0 (exponent 0 to
    -800, densely around -708.4 and -745.13): both sides, scalar and
    per-row dt, dt as a stride-0 view at the full block shape, 0-d inputs,
    and uniforms down to 0 and 5e-324. A subnormal probability still
    crosses at u = 0; an exact 0 never does."""
    edge = 745.1332191019411
    x = np.concatenate([
        np.linspace(0.0, 800.0, 1601),
        np.linspace(706.0, 711.0, 501),
        edge + np.arange(-400, 401) * np.spacing(edge),
        746.0 + np.arange(-20, 21) * np.spacing(746.0),
    ])
    thr = 0.3
    seen_subnormal = seen_zero = False
    for side in (1.0, -1.0):
        dt_rows = np.array([[1e-3], [0.02], [0.5]])
        for dt in (1e-3, dt_rows, np.broadcast_to(dt_rows, (3, x.size))):
            g1 = thr - side * x * fpt.DIFFUSION * dt
            g0 = np.full(g1.shape, thr - side)
            prob = np.exp(-((g0 - thr) * (g1 - thr)) / (fpt.DIFFUSION * dt))
            direct = side * (g1 - thr) >= 0.0
            subnormal = (prob > 0.0) & (prob < np.finfo(float).tiny) & ~direct
            zero = (prob == 0.0) & ~direct
            for u0 in (0.0, 5e-324, 2.0**-53, 0.5):
                u = np.full(g1.shape, u0)
                before = [a.copy() for a in (g0, g1, np.asarray(dt), u)]
                crossed, retire = fpt.bridge_step(g0, g1, thr, side, dt, u)
                ref_crossed, ref_retire = _reference_bridge_step(g0, g1, thr, side, dt, u)
                assert np.array_equal(crossed, ref_crossed), (side, u0)
                assert np.array_equal(retire, ref_retire), (side, u0)
                for a, b in zip(before, (g0, g1, np.asarray(dt), u)):
                    assert np.array_equal(a, b)
                if u0 == 0.0:
                    assert crossed[subnormal].all() and not crossed[zero].any()
            seen_subnormal |= bool(subnormal.any())
            seen_zero |= bool(zero.any())
            # 0-d inputs around the last nonzero exponential, last dt row
            at_edge = np.abs(x - edge) < 1e-9
            last_dt = float(np.ravel(dt)[-1])
            for a, b in zip(g0.reshape(-1, x.size)[-1, at_edge], g1.reshape(-1, x.size)[-1, at_edge]):
                for u0 in (0.0, 5e-324):
                    args = (np.array(a), np.array(b), thr, side, last_dt, np.array(u0))
                    assert fpt.bridge_step(*args) == _reference_bridge_step(*args)
    assert seen_subnormal and seen_zero


def test_walk_is_deterministic():
    c1, t1 = fpt.walk_crossing_times(0.5, -0.5, 2000, seed=3)
    c2, t2 = fpt.walk_crossing_times(0.5, -0.5, 2000, seed=3)
    assert np.array_equal(c1, c2)
    assert np.array_equal(t1, t2, equal_nan=True)


# ------------------------------------------------------------- validation


def test_diagonal_state_validation():
    with pytest.raises(ValueError, match="four"):
        fpt.diagonal_state([0.5, 0.5])
    with pytest.raises(ValueError, match="negative"):
        fpt.diagonal_state([-0.1, 0.4, 0.4, 0.3])
    with pytest.raises(ValueError, match="sum"):
        fpt.diagonal_state([0.3, 0.3, 0.3, 0.3])
    st = fpt.diagonal_state([0.25, 0.25, 0.49, 0.01])
    assert st.even_blocked and not st.odd_blocked
    assert st.p_even == pytest.approx(0.5)

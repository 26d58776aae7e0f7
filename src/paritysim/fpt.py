"""Measurement-only analytics: Bayes updates, thresholds, first passage.

With the Hamiltonian off, a parity measurement record enters the state only
through the log-likelihood variable gamma(t), Gaussian per parity with mean
+-t/T_M and variance t/T_M. Diagonal Bell-basis states update as

    (p1, p2, p3, p4) -> (p1 e^g, p2 e^g, p3 e^-g, p4 e^-g) / N(g)

so entanglement genesis and sudden death reduce to the first passage of a
biased random walk (drift +-1, diffusion 1/2 in tau = t/T_M units) across a
threshold r2 fixed by the initial populations. All times here are in units
of the measurement time T_M.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .concurrence import diagonal_lambda

__all__ = [
    "DiagonalState",
    "diagonal_state",
    "bayes_update",
    "lambda_of_gamma",
    "crossing_thresholds",
    "p_genesis",
    "p_sudden_death",
    "p_cross_parity",
    "mean_crossing_time",
    "fpt_pdf",
    "fpt_pdf_conditioned",
    "green_function",
    "BorderLines",
    "border_geometry",
    "CrossingPrediction",
    "predict",
    "drift_offset",
    "bridge_step",
    "hit_fraction",
    "block_draws",
    "walk_dts",
    "walk_first_passage",
    "walk_crossing_times",
]

CLASS_TOL = 1e-12
DRIFT = 1.0       # |v| of the log-likelihood walk, tau units
DIFFUSION = 0.5   # D of the log-likelihood walk, tau units
ESCAPE = 6.0      # distance beyond the surviving side at which a walk is
                  # retired as never-crossing (recovery probability e^{-2*6})
_FIRST_BLOCK = 16     # walk steps between the first crossing decisions,
_BLOCK = 128          # doubling up to this many
_WALK_CHUNK = 16384   # oracle walkers per stream
_WALK_TAIL = 24.0     # oracle window beyond the bulk, tau units
_EXP_CUTOFF = 746.0   # exp(-x) is exactly 0 for every x beyond this

_CURRENT_SIGNS = np.array([1.0, 1.0, -1.0, -1.0])


@dataclass(frozen=True, eq=False)
class DiagonalState:
    """Diagonal Bell-basis state (populations only)."""

    p: np.ndarray

    @property
    def p_even(self) -> float:
        return float(self.p[0] + self.p[1])

    @property
    def p_odd(self) -> float:
        return float(self.p[2] + self.p[3])

    @property
    def even_blocked(self) -> bool:
        """True when rho_11 = rho_22: the even-collapse border is unreachable."""
        return abs(self.p[0] - self.p[1]) <= CLASS_TOL

    @property
    def odd_blocked(self) -> bool:
        """True when rho_33 = rho_44: the odd-collapse border is unreachable."""
        return abs(self.p[2] - self.p[3]) <= CLASS_TOL


def diagonal_state(populations) -> DiagonalState:
    p = np.asarray(populations, dtype=float).copy()
    if p.shape != (4,):
        raise ValueError("expected four populations")
    if np.any(p < -CLASS_TOL):
        raise ValueError(f"negative population: {p.min()!r}")
    if abs(p.sum() - 1.0) > 1e-9:
        raise ValueError(f"populations sum to {p.sum()!r}, not 1")
    p = np.clip(p, 0.0, None)
    p.setflags(write=False)
    return DiagonalState(p)


def _swap_parity(state: DiagonalState) -> DiagonalState:
    return diagonal_state(np.array([state.p[2], state.p[3], state.p[0], state.p[1]]))


def _log_weights(state: DiagonalState, gamma: float) -> np.ndarray:
    with np.errstate(divide="ignore"):
        logp = np.log(state.p)
    return logp + gamma * _CURRENT_SIGNS


def bayes_update(state: DiagonalState, gamma: float) -> DiagonalState:
    """Posterior after observing integrated log-likelihood gamma.

    Log-domain arithmetic, safe for any finite gamma; +-inf returns the
    corresponding parity subspace.
    """
    if math.isinf(gamma):
        mask = _CURRENT_SIGNS == (1.0 if gamma > 0 else -1.0)
        q = np.where(mask, state.p, 0.0)
        if q.sum() <= 0.0:
            raise ValueError("limit subspace has zero weight")
        return diagonal_state(q / q.sum())
    logq = _log_weights(state, gamma)
    m = logq.max()
    q = np.exp(logq - m)
    return diagonal_state(q / q.sum())


def lambda_of_gamma(state: DiagonalState, gamma: float) -> float:
    """Lambda of the gamma-updated state: 2 max_i p_i(gamma) - 1."""
    if math.isinf(gamma):
        return diagonal_lambda(bayes_update(state, gamma).p)
    logq = _log_weights(state, gamma)
    m = logq.max()
    q = np.exp(logq - m)
    return float(2.0 * q.max() / q.sum() - 1.0)


def crossing_thresholds(state: DiagonalState) -> tuple[float, float]:
    """Thresholds (r1, r2) where Lambda(gamma) = 0.

    r1 is the even-side crossing (gamma -> +inf direction), r2 the odd-side
    one. Blocked routes return infinite sentinels: r1 = +inf when
    rho_11 = rho_22, r2 = -inf when rho_33 = rho_44; a vanishing opposite
    subspace pushes the threshold to the other infinity.
    """
    p = state.p
    d_even = abs(p[0] - p[1])
    d_odd = abs(p[2] - p[3])
    if d_even <= CLASS_TOL:
        r1 = math.inf
    elif state.p_odd <= CLASS_TOL:
        r1 = -math.inf
    else:
        r1 = 0.5 * math.log(state.p_odd / d_even)
    if d_odd <= CLASS_TOL:
        r2 = -math.inf
    elif state.p_even <= CLASS_TOL:
        r2 = math.inf
    else:
        r2 = -0.5 * math.log(state.p_even / d_odd)
    return r1, r2


def _require_standard_class(state: DiagonalState, op: str) -> None:
    if not state.even_blocked:
        raise ValueError(f"{op} needs rho_11 = rho_22 (got {state.p[0]!r}, {state.p[1]!r})")
    if state.odd_blocked:
        raise ValueError(f"{op} needs rho_33 != rho_44")
    if state.p_even <= CLASS_TOL:
        raise ValueError(f"{op} needs rho_11 = rho_22 != 0")


def p_genesis(state: DiagonalState) -> float:
    """Probability that an unentangled state ever crosses to C > 0.

    P_EG = 2 max(rho_33, rho_44), assembled from the per-parity crossing
    probabilities weighted by the parity populations.
    """
    _require_standard_class(state, "p_genesis")
    if diagonal_lambda(state.p) > CLASS_TOL:
        raise ValueError("state is entangled; use p_sudden_death")
    return float(2.0 * max(state.p[2], state.p[3]))


def p_sudden_death(state: DiagonalState) -> float:
    """Probability that an entangled state ever crosses to C = 0.

    P_SD = 2 max(rho_33, rho_44) (rho_11 + rho_22) / |rho_33 - rho_44|.
    """
    _require_standard_class(state, "p_sudden_death")
    if diagonal_lambda(state.p) <= CLASS_TOL:
        raise ValueError("state is not entangled; use p_genesis")
    return float(
        2.0 * max(state.p[2], state.p[3]) * state.p_even / abs(state.p[2] - state.p[3])
    )


def p_cross_parity(r2: float, parity: str) -> float:
    """Crossing probability of a definite-parity walk against threshold r2.

    1 when the drift points at the threshold, exp(r2 v / D)-type decay
    otherwise: exp((r2 v - |r2 v|)/(2 D)) with v = +1 (even), -1 (odd).
    """
    v = _parity_drift(parity)
    x = r2 * v
    return 1.0 if x >= 0.0 else float(math.exp((x - abs(x)) / (2.0 * DIFFUSION)))


def mean_crossing_time(state: DiagonalState) -> float:
    """Mean conditioned crossing time in units of T_M: |r2| (inf if blocked)."""
    _, r2 = crossing_thresholds(state)
    return abs(r2)


def _parity_drift(parity) -> float:
    if parity in ("even", 1, +1.0):
        return DRIFT
    if parity in ("odd", -1, -1.0):
        return -DRIFT
    raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")


def fpt_pdf(tau, r2: float, parity: str):
    """Unconditioned first-passage density of the definite-parity walk.

    |r2| / sqrt(4 pi D tau^3) * exp(-(r2 - v tau)^2 / (4 D tau)); integrates
    to p_cross_parity(r2, parity) over tau > 0.
    """
    v = _parity_drift(parity)
    tau = np.asarray(tau, dtype=float)
    out = np.zeros_like(tau)
    pos = tau > 0.0
    t = tau[pos]
    out[pos] = (
        abs(r2)
        / np.sqrt(4.0 * np.pi * DIFFUSION * t**3)
        * np.exp(-((r2 - v * t) ** 2) / (4.0 * DIFFUSION * t))
    )
    return out if out.ndim else float(out)


def fpt_pdf_conditioned(tau, r2: float):
    """Crossing-time density conditioned on crossing: the same inverse
    Gaussian for both parities, mean |r2|, shape r2^2."""
    tau = np.asarray(tau, dtype=float)
    out = np.zeros_like(tau)
    pos = tau > 0.0
    t = tau[pos]
    out[pos] = abs(r2) / np.sqrt(2.0 * np.pi * t**3) * np.exp(-((abs(r2) - t) ** 2) / (2.0 * t))
    return out if out.ndim else float(out)


def green_function(gamma, tau: float, r2: float, parity: str):
    """Survival density of the walk with an absorbing boundary at r2.

    Image-charge solution; zero at gamma = r2 and the free Gaussian as
    r2 -> -+inf. gamma must lie on the surviving side of r2.
    """
    v = _parity_drift(parity)
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    gamma = np.asarray(gamma, dtype=float)
    if r2 < 0 and np.any(gamma < r2 - 1e-12):
        raise ValueError("gamma below the absorbing boundary")
    if r2 > 0 and np.any(gamma > r2 + 1e-12):
        raise ValueError("gamma above the absorbing boundary")
    d = DIFFUSION
    free = np.exp(-((gamma - v * tau) ** 2) / (4.0 * d * tau)) / np.sqrt(4.0 * np.pi * d * tau)
    image = 1.0 - np.exp(-(r2**2 - r2 * gamma) / (d * tau))
    out = free * image
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class BorderLines:
    """The Lambda(gamma) = 0 loci in the (rho_33, rho_44) plane at
    rho_11 = rho_22, as lines rho_44 = a rho_33 + b. Both pass through
    (1/2, 1/2); the branch that degenerates to a vertical line carries inf
    sentinels."""

    upper: tuple[float, float]   # branch with rho_44 > rho_33
    lower: tuple[float, float]   # branch with rho_33 > rho_44


def border_geometry(gamma: float) -> BorderLines:
    th = math.tanh(gamma)
    upper = (-th, 0.5 * (1.0 + th))
    if th == 0.0:
        lower = (math.inf, math.inf)
    else:
        lower = (-1.0 / th, -1.0 / math.expm1(-2.0 * gamma))
    return BorderLines(upper=upper, lower=lower)


def _json_num(x: float):
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return x


@dataclass(frozen=True)
class CrossingPrediction:
    """Closed-form border-crossing forecast for a diagonal state."""

    r1: float
    r2: float
    initially_entangled: bool
    p_cross: float
    mean_time: float                      # units of T_M
    pdf_params: tuple[float, float, float]  # (|threshold|, drift, diffusion)

    def to_json(self) -> str:
        return json.dumps(
            {
                "r1": _json_num(self.r1),
                "r2": _json_num(self.r2),
                "initially_entangled": self.initially_entangled,
                "p_cross": self.p_cross,
                "mean_time_tm": _json_num(self.mean_time),
                "pdf_params": [_json_num(v) for v in self.pdf_params],
            },
            sort_keys=True,
        )


def predict(state: DiagonalState) -> CrossingPrediction:
    """Assemble thresholds, crossing probability, and timing for a state.

    Supported classes: rho_11 = rho_22 != 0 with rho_33 != rho_44 (odd-side
    threshold r2), its parity mirror (even-side threshold r1), and the
    degenerate class blocked on both sides (p_cross = 0, mean_time = inf).
    States with both routes open (two finite thresholds) are rejected.
    """
    lam0 = diagonal_lambda(state.p)
    entangled = lam0 > CLASS_TOL
    r1, r2 = crossing_thresholds(state)
    f1, f2 = math.isfinite(r1), math.isfinite(r2)
    if f1 and f2:
        raise ValueError(
            "both rho_11 != rho_22 and rho_33 != rho_44: two finite thresholds, "
            "outside the analyzed classes"
        )
    if not f1 and not f2:
        return CrossingPrediction(
            r1, r2, entangled, 0.0, math.inf, (math.inf, DRIFT, DIFFUSION)
        )
    work = state if f2 else _swap_parity(state)
    p_cross = p_sudden_death(work) if entangled else p_genesis(work)
    thr = abs(r2) if f2 else abs(r1)
    return CrossingPrediction(r1, r2, entangled, p_cross, thr, (thr, DRIFT, DIFFUSION))


def drift_offset(p_even: float, p_odd: float) -> float:
    """Offset c of the mean current of the Bayes-updated state.

    sum_i p_i I_i e^{I_i g} / sum_i p_i e^{I_i g} = tanh(g + c) with
    c = ln(p_even / p_odd) / 2. A vanishing parity gives c = -+inf, for
    which numpy's tanh returns the limiting current -+1 exactly.
    """
    if p_even < 0.0 or p_odd < 0.0 or p_even + p_odd <= 0.0:
        raise ValueError(f"need nonnegative parity weights, not both 0: {p_even!r}, {p_odd!r}")
    if p_odd == 0.0:
        return math.inf
    if p_even == 0.0:
        return -math.inf
    return 0.5 * math.log(p_even / p_odd)


def bridge_step(g0, g1, thr: float, side: float, dt, u):
    """Crossing decision for walk steps g0 -> g1 against the threshold thr.

    side is the sign of the crossing direction: crossed means
    side * (g - thr) >= 0. A step that ends at or beyond thr is a direct
    hit, located by linear interpolation within the step. Otherwise the
    Brownian bridge between the samples crossed with probability
    exp(-a b / (D dt)), a and b the signed distances at either end; the
    uniform u decides it, and the time is put mid-step. A walk that is not
    crossed and ends ESCAPE beyond the surviving side retires as never
    crossing. Elementwise over broadcastable arrays, so the same rule
    serves one step of many walks or many steps of many walks; the masked
    exp always broadcasts, and a per-row dt keeps the cutoff product small.

    The exponential is evaluated only where it can be nonzero: once
    a b >= 746 D dt it underflows to exactly 0 (below exp(-745.14)), and
    no uniform in [0, 1) is below 0. The decisions are those of the full
    expression, bit for bit.

    Returns (crossed, retire): the crossed mask and the mask of walks that
    leave (crossed or escaped). hit_fraction places a crossing in its step.
    """
    d0 = g0 - thr
    d1 = g1 - thr
    if side > 0:
        crossed, escaped = d1 >= 0.0, d1 < -ESCAPE
    else:
        crossed, escaped = d1 <= 0.0, d1 > ESCAPE
    # a b = (side d0)(side d1) = d0 d1 exactly; -d0 d1 > 0 only on a step
    # that straddles thr, which is direct anyway
    ab = d0 * d1
    near = ab < _EXP_CUTOFF * DIFFUSION * dt
    ab, dt, u, near = np.broadcast_arrays(ab, dt, u, near)
    bridged = np.zeros(ab.shape, dtype=bool)
    bridged[near] = u[near] < np.exp(-ab[near] / (DIFFUSION * dt[near]))
    crossed = crossed | bridged
    return crossed, crossed | escaped


def hit_fraction(g0, g1, thr: float, side: float):
    """Time of a bridge_step crossing as a fraction of its step g0 -> g1:
    the linear-interpolation zero for a direct hit, mid-step for a bridge
    crossing. Elementwise, meant for the crossed steps only."""
    d0 = g0 - thr
    direct = side * (g1 - thr) >= 0.0
    # d0 / (g0 - g1) is (thr - g0) / (g1 - g0) to the bit, in (0, 1] on a
    # live direct hit since rounding is monotone; only steps that are not
    # direct can divide by zero, and those get 0.5
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(direct, d0 / (g0 - g1), 0.5)


def _tau_bulk(thr: float) -> float:
    """Span holding essentially all of the conditional crossing-time mass
    of a walk against thr (mean |thr|, variance |thr|), tau units."""
    return abs(thr) + 6.0 * math.sqrt(abs(thr)) + 2.0


def walk_dts(thr: float, dt1: float, tau_max: float) -> np.ndarray:
    """Per-step dt of a walk window [0, tau_max] against the threshold thr.

    Fine steps dt1 through the bulk of the conditional-time distribution,
    then 20x coarser through the straggler tail. The bridge rule keeps the
    crossing fraction unbiased at any step size, so coarsening only touches
    the time resolution of the few late crossers. Step counts are rounded
    up, so the steps can end less than one step past tau_max;
    ensemble._crossing_chunk counts a crossing located there as open.
    """
    n1 = max(1, int(math.ceil(min(_tau_bulk(thr), tau_max) / dt1)))
    dt2 = 20.0 * dt1
    n2 = max(0, int(math.ceil((tau_max - n1 * dt1) / dt2)))
    return np.concatenate([np.full(n1, dt1), np.full(n2, dt2)])


def block_draws(rng: np.random.Generator):
    """walk_first_passage draw callback on one generator: each block takes
    rng.standard_normal((k1 - k0, alive.size)) for the open walks, then
    rng.random of the same shape. A walk's values therefore depend on the
    block schedule (_FIRST_BLOCK doubling to _BLOCK) and on which other
    walks of the generator are still open, not on the walk alone."""

    def draw(k0, k1, alive):
        shape = (k1 - k0, alive.size)
        return rng.standard_normal(shape), rng.random(shape)

    return draw


def walk_first_passage(c: np.ndarray, thr: float, dts: np.ndarray, draw):
    """First passage across thr of walks dg = (tanh(g + c) + xi/sqrt(dt)) dt
    from g = 0, one per entry of c, with the per-step dt of dts.

    c = +-inf gives the constant drift +-1 exactly, since numpy's
    tanh(+-inf) is +-1. Open walks are stepped a block of steps at a time
    with g recorded at every step: each step is five ufunc calls that write
    g[i + 1] = g[i] + (tanh(g[i] + c) + xi) * dt in place, bound to locals
    with positional outputs, since on a few hundred lanes numpy's per-call
    overhead outweighs the arithmetic. bridge_step then decides the whole
    block at once. Each walk's first retiring step fixes its time, and
    hit_fraction is evaluated on those steps alone; steps taken after it
    within the block are discarded, and the open walks are compacted.

    draw(k0, k1, alive) supplies the standard normals xi and the bridge
    uniforms of steps [k0, k1) for the open walks, as two
    (k1 - k0, alive.size) arrays; alive holds their indices into c. Both
    callers pass block_draws, so the block schedule, starting at
    _FIRST_BLOCK steps and doubling to _BLOCK, shapes what each walk draws.

    Returns (times, n_open): crossing times (nan where a walk escaped or
    stayed open) and the count of walks still open at the window end.
    """
    side = math.copysign(1.0, thr)
    n_steps = dts.size
    noise_scale = np.sqrt(1.0 / dts)
    t_before = np.concatenate([[0.0], np.cumsum(dts)])   # t += dt, in order
    gam = np.zeros(c.size)
    alive = np.arange(c.size)
    times = np.full(c.size, np.nan)
    add, tanh, multiply = np.add, np.tanh, np.multiply
    # a Python-float dt, or a (1,) row that numpy must broadcast, costs more
    # per call than a stride-0 row; blocks slice these rows, not rebuild them
    dt_lanes = np.broadcast_to(dts[:, None], (n_steps, c.size))
    k0 = 0
    while k0 < n_steps and alive.size:
        # short first blocks, so that the many walks retiring within the
        # first steps do not each pay for a full block of steps
        k1 = min(k0 + min(max(k0, _FIRST_BLOCK), _BLOCK), n_steps)
        xi, unif = draw(k0, k1, alive)
        xi *= noise_scale[k0:k1, None]
        g = np.empty((k1 - k0 + 1, alive.size))
        g[0] = gam
        for g_i, g_next, xi_i, dt_i in zip(g[:-1], g[1:], xi, dt_lanes[k0:k1, :alive.size]):
            add(g_i, c, g_next)
            tanh(g_next, g_next)
            add(g_next, xi_i, g_next)
            multiply(g_next, dt_i, g_next)
            add(g_i, g_next, g_next)
        crossed, retire = bridge_step(g[:-1], g[1:], thr, side, dts[k0:k1, None], unif)
        done = retire.any(axis=0)
        lanes = np.nonzero(done)[0]
        first = retire[:, lanes].argmax(axis=0)
        hit = crossed[first, lanes]
        lanes, first = lanes[hit], first[hit]
        k = k0 + first
        frac = hit_fraction(g[first, lanes], g[first + 1, lanes], thr, side)
        times[alive[lanes]] = t_before[k] + dts[k] * frac
        keep = ~done
        alive, gam, c = alive[keep], g[-1, keep], c[keep]
        k0 = k1
    return times, int(alive.size)


def walk_crossing_times(
    p_even: float,
    r2: float,
    n_walkers: int,
    *,
    dt_tau: float = 1e-3,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Direct Monte Carlo of the log-likelihood walk, the oracle behind the
    closed forms.

    Each walker draws a parity (even with probability p_even), then runs
    dgamma = v dtau + sqrt(2 D dtau) N(0,1) until absorbed at r2: walks of
    walk_first_passage at c = +inf (even) or -inf (odd), over
    walk_dts(r2, dt_tau, tau_bulk + 24). Sub-step crossings are resolved
    exactly with the Brownian-bridge crossing probability
    exp(-(g0-r2)(g1-r2)/(D dtau)), so the crossing fraction is unbiased at
    any step size; crossing times carry only an O(dtau) bias. Walkers
    ESCAPE beyond the threshold on the surviving side retire early.

    Returns (crossed mask, times); times are nan for non-crossers.
    Deterministic in seed: walkers come in chunks of _WALK_CHUNK, and chunk
    c draws its parities, then every block's normals and uniforms
    (block_draws), from the one stream derived from
    SeedSequence(seed, spawn_key=(c,)). A partial last chunk draws
    differently from a full one, so a walker's time depends on n_walkers
    unless its chunk is full in both.
    """
    if not 0.0 <= p_even <= 1.0:
        raise ValueError("p_even must be in [0, 1]")
    if not math.isfinite(r2) or r2 == 0.0:
        raise ValueError("walk oracle needs a finite nonzero threshold")
    dts = walk_dts(r2, dt_tau, _tau_bulk(r2) + _WALK_TAIL)
    times = np.full(n_walkers, np.nan)
    for ci, lo in enumerate(range(0, n_walkers, _WALK_CHUNK)):
        hi = min(lo + _WALK_CHUNK, n_walkers)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(ci,)))
        c = np.where(rng.random(hi - lo) < p_even, math.inf, -math.inf)
        times[lo:hi], _ = walk_first_passage(c, r2, dts, block_draws(rng))
    return ~np.isnan(times), times

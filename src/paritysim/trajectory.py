"""Conditioned-state dynamics under continuous parity measurement.

Euler-Maruyama integration of the Ito equation for the Bell-basis density
matrix conditioned on the detector record,

    drho_ij = xi (I_i + I_j - 2<I>) rho_ij dt / (2 S0)
              - rho_ij [ (I_i - I_j)^2 / (8 S0) + gamma_ij ] dt
              - i [H, rho]_ij dt,

with currents I = (+1, +1, -1, -1), <I> = sum_k rho_kk I_k, and white noise
of variance S0/dt per step. In this convention the detector record is
I(t) = <I> + xi, the diagonal update is the quantum Bayes rule with
log-likelihood increment d(gamma) = xi dt / S0, and measurement-only
trajectories reproduce the drift +-1, diffusion 1/2 statistics of the
log-likelihood walk in units of T_M. The coefficient normalization and the
noise variance come as a pair; see the calibration test and README note.

The stochastic and decay coefficient matrices are real and symmetric and
the Hamiltonian term is Hermitian, so the update preserves Hermiticity and
trace exactly in exact arithmetic; the integrator renormalizes the trace
each step and logs the (rounding-level) corrections.

States on the closed class (rho_14 = 0, rho_23 purely imaginary, every
other coherence zero; concurrence.class_residual within X_TOL, so a
near-class start keeps only its populations and Im rho_23) are integrated
as five real numbers per lane, with positivity tested and projected in
closed form on the exact spectrum; the (n, 4, 4) kernel step_batch, with
the eigh projection clip_negative_eigenvalues, serves states off the class.

The class step is written once, as _class_step on the five values p1,
p2, p3, p4, y and the scaled draw, with only +, - and *. It runs on
Python floats for a single trajectory (_lane_stepper), which repairs a
lane its prefilter cannot clear with _lane_repair, the closed-form
projection on the five floats. n lanes held as one (5, n) array step on
_rows_stepper, the same float operations transcribed onto scratch rows
for numpy's per-call cost, with the division and _rows_repair, the
projection on rows, in place; tests pin every rows lane to the floats.

One loop, _step_blocks, steps every state: it draws the noise of a chunk
of up to _CHUNK runs from one stream a block at a time, hands each block
of up to _EVENT_BLOCK steps to the caller's block stepper and yields the
block: _rows_stepper for class rows, _per_step for (n, 4, 4) states, and
_lane_stepper, whose loop reads a block's draws with one tolist() and
stores its states with one write. simulate records from the blocks, a
class run as (n, 5) rows whose (n, 4, 4) states TrajectoryRecord builds
on demand, and the ensemble chunks reduce them to branch values and
border events.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .concurrence import X_TOL, class_residual, lambda_branch_max, wootters_concurrence
from .qstate import PARITY_CURRENTS, DensityMatrix, DivergenceError, sanitize

__all__ = [
    "C_NOISE",
    "SimConfig",
    "TrajectoryRecord",
    "simulate",
    "step_batch",
    "clip_negative_eigenvalues",
    "clip_floor",
    "hermitize",
]

TWO_PI = 2.0 * math.pi

# Noise variance is C_NOISE * S0 / dt. The value is pinned jointly with the
# 1/(2 S0) coefficient normalization above by requiring the measurement-only
# log-likelihood gamma = (1/S0) int I dt to be Gaussian with mean +-t/T_M
# and variance t/T_M; the pair is verified by test_noise_calibration.
C_NOISE = 1.0

_I = PARITY_CURRENTS.astype(float)
_AIJ = _I[:, None] + _I[None, :]            # I_i + I_j
_DEC8 = (_I[:, None] - _I[None, :]) ** 2 / 8.0

# recorded states whose class_residual exceeds this get lambda = nan and the
# general concurrence; a runtime-drift allowance, looser than the start's X_TOL
_RECORD_CLASS_TOL = 1e-7
_EVENT_BLOCK = 128  # steps per block of _step_blocks
_CHUNK = 256        # runs per noise stream; --jobs maps chunks to processes
_CSV_BLOCK = 512


@dataclass(frozen=True)
class SimConfig:
    """Physical and numerical parameters of one continuous-measurement run.

    delta sets the qubit period T_q = 2 pi / delta; k_ratio = T_q / T_M
    fixes the measurement time, and S0 = T_M under the normalized currents
    (Delta I = 2, mean current 0). delta = 0 switches the drive off; the
    qubit period is then infinite and k_ratio sets the measurement time
    directly, T_M = 1/k_ratio. dt defaults to min(T_q, T_M)/200 and is
    capped at min(T_q, T_M)/100. gamma holds optional environment rates
    applied to the matching off-diagonal elements (zero by default).
    """

    delta: float = TWO_PI
    k_ratio: float = 1.0
    duration: float = 1.0
    dt: float | None = None
    gamma: np.ndarray | None = field(default=None, repr=False)
    seed: int = 0
    record_stride: int = 1

    def __post_init__(self):
        if not 0 <= self.delta < math.inf:
            raise ValueError("delta must be finite and nonnegative")
        if not 0 < self.k_ratio < math.inf:
            raise ValueError("k_ratio must be finite and positive")
        if not 0 < self.duration < math.inf:
            raise ValueError("duration must be finite and positive")
        if not isinstance(self.record_stride, int) or self.record_stride < 1:
            raise ValueError("record_stride must be a positive integer")
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            raise ValueError("seed must be an integer that fits in 64 unsigned bits")
        cap = min(self.t_q, self.t_m)
        if self.dt is None:
            object.__setattr__(self, "dt", cap / 200.0)
        if not 0 < self.dt <= cap / 100.0:
            raise ValueError(
                f"dt={self.dt!r} exceeds min(T_q, T_M)/100 = {cap / 100.0!r}"
            )
        if self.gamma is None:
            g = np.zeros((4, 4))
        else:
            g = np.array(self.gamma, dtype=float)
        if g.shape != (4, 4):
            raise ValueError("gamma must be a 4x4 matrix")
        if not np.array_equal(g, g.T):
            raise ValueError("gamma must be symmetric")
        if np.any(g < 0.0):
            raise ValueError("gamma rates must be nonnegative")
        if np.any(np.diagonal(g) != 0.0):
            raise ValueError("gamma must have zero diagonal")
        g.setflags(write=False)
        object.__setattr__(self, "gamma", g)

    @property
    def t_q(self) -> float:
        return math.inf if self.delta == 0.0 else TWO_PI / self.delta

    @property
    def t_m(self) -> float:
        return (1.0 if self.delta == 0.0 else self.t_q) / self.k_ratio

    @property
    def s0(self) -> float:
        return self.t_m

    @property
    def n_steps(self) -> int:
        return max(1, int(round(self.duration / self.dt)))


def hermitize(rho: np.ndarray) -> np.ndarray:
    """(rho + rho^dagger)/2 over a (..., 4, 4) batch."""
    return 0.5 * (rho + np.conjugate(np.swapaxes(rho, -1, -2)))


def step_batch(
    rho: np.ndarray,
    xi: np.ndarray,
    dt: float,
    s0: float,
    delta: float,
    gamma: np.ndarray,
) -> np.ndarray:
    """One Euler-Maruyama step over a (n, 4, 4) batch with noise xi (n,).

    The hot kernel shared by single runs and ensembles. The commutator is
    expanded elementwise: H couples only rows/columns 2 and 3.
    """
    diag = np.real(np.einsum("nii->ni", rho))
    mean_i = diag @ _I
    amp = _AIJ[None, :, :] - 2.0 * mean_i[:, None, None]
    drho = rho * (
        xi[:, None, None] * amp * (dt / (2.0 * s0))
        - (_DEC8[None, :, :] / s0 + gamma[None, :, :]) * dt
    )
    comm = np.zeros_like(rho)
    comm[:, 1, :] += rho[:, 2, :]
    comm[:, 2, :] += rho[:, 1, :]
    comm[:, :, 1] -= rho[:, :, 2]
    comm[:, :, 2] -= rho[:, :, 1]
    return rho + drho - 1j * delta * dt * comm


def clip_negative_eigenvalues(
    rho: np.ndarray, floor: float
) -> tuple[np.ndarray, float, int]:
    """Project batch members with small negative eigenvalues back onto the
    physical set.

    Euler steps overshoot tangential boundary contacts (the Hamiltonian
    pushes a vanishing population through zero by up to ~2 delta dt |rho_23|
    per step); left unprojected, the negative weight compounds
    multiplicatively under the measurement terms and the run blows up.
    Members whose smallest eigenvalue is below -1e-12 are flagged; their
    eigenvalues in [-floor, 0) are clipped to zero and the state
    renormalized, and anything below -floor raises DivergenceError.
    Modifies rho in place on the flagged members and returns
    (rho, total clipped magnitude, number of members clipped).
    """
    flagged = np.linalg.eigvalsh(rho)[:, 0] < -1e-12
    if not flagged.any():
        return rho, 0.0, 0
    idx = np.nonzero(flagged)[0]
    vals, vecs = np.linalg.eigh(rho[idx])
    worst = float(vals.min())
    if worst < -floor:
        raise _below_floor(worst, floor)
    total = float(-vals[vals < 0.0].sum())
    clipped = np.clip(vals, 0.0, None)
    new = np.einsum("nij,nj,nkj->nik", vecs, clipped, np.conjugate(vecs))
    new /= np.real(np.einsum("nii->n", new))[:, None, None]
    rho[idx] = new
    return rho, total, int(idx.size)


def _below_floor(worst: float, floor: float) -> DivergenceError:
    """The error of a positivity projection whose smallest eigenvalue is
    below -floor."""
    return DivergenceError(
        f"eigenvalue {worst!r} below the clip floor -{floor!r}: "
        "integrator divergence (dt too large?)"
    )


def clip_floor(cfg: SimConfig) -> float:
    """Per-step positivity overshoot allowance.

    Healthy trajectories graze the boundary of the physical set when the
    rotation carries a population through zero; the measured excursion
    depth is ~1.2 dt/S0 at worst (<= 0.012 at the dt cap), while actual
    integrator runaway grows multiplicatively without bound and passes
    any such scale within a few steps. The floor sits well above grazing
    and far below runaway; clip volume is logged either way."""
    return 0.05 + 2.0 * cfg.delta * cfg.dt


# On the closed class (rho_14 = 0, rho_23 = i y, every other off-diagonal
# entry zero) a state is its four Bell populations and y = Im rho_23. The
# (populations, Im rho_23) part of step_batch is a closed subsystem for any
# initial state: H couples only u2 and u3, the measurement terms act
# elementwise, and the mean current depends on the populations alone.

# class eigenvalues in [-_CLASS_SLACK, 0) are rounding, not overshoot; the
# bound keeps every unrepaired 2x2 determinant p2 p3 - y^2 above -1e-15
_CLASS_SLACK = 1e-15
_TRACE_DRIFT = 1e-6
_TINY = math.ulp(0.0)


def _drive_coefficients(dt: float, s0: float, delta: float, gamma23: float):
    """(flow, feed, decay) of a class step: the drive moves flow * y from
    u2 to u3 and feeds y by feed * (p2 - p3); y also decays by decay
    besides the measurement term."""
    return 2.0 * delta * dt, delta * dt, float((0.5 / s0 + gamma23) * dt)


def _trace_deviation(tr: np.ndarray) -> np.ndarray:
    """|tr - 1| per lane; a lane whose trace is non-finite or off by more
    than _TRACE_DRIFT raises DivergenceError."""
    dev = np.abs(tr - 1.0)
    within = dev <= _TRACE_DRIFT
    if not within.all():
        j = int(np.argmin(within))
        raise DivergenceError(f"lane {j}: trace drifted to {tr[j]!r} (dt too large?)")
    return dev


def _class_step(p1, p2, p3, p4, y, a, coef):
    """step_batch on the closed class, with a = xi dt / S0 and coef from
    _drive_coefficients: the five values after the step and their trace,
    before renormalization.

    With m = (p1 + p2) - (p3 + p4) the mean current: p_i *= 1 + a (I_i
    - m); the drive moves 2 delta dt y from u2 to u3; y becomes
    y (1 - m a - (1/(2 S0) + gamma23) dt) + delta dt (p2 - p3), decaying
    at the measurement rate and fed by the drive. Only +, - and * occur, so
    the same source makes the same bits on Python floats (one lane, in
    simulate) and on (n,) rows (n lanes, in ensembles).
    """
    flow_c, feed_c, decay_c = coef
    m = (p1 + p2) - (p3 + p4)
    even = 1.0 + a * (1.0 - m)
    odd = 1.0 + a * (-1.0 - m)
    flow = flow_c * y
    y = y * (1.0 - m * a - decay_c) + feed_c * (p2 - p3)
    p1 = p1 * even
    p2 = p2 * even - flow
    p3 = p3 * odd + flow
    p4 = p4 * odd
    return p1, p2, p3, p4, y, ((p1 + p2) + p3) + p4


def _lane_repair(p1, p2, p3, p4, y, floor: float):
    """_rows_repair on one finite lane held as five Python floats.

    A transcription, not a second projection: it makes the float
    operations _rows_repair makes on that lane as a (5, 1) row, in the
    same order, with the same np.hypot (math.hypot can differ in the last
    bit), and raises the same DivergenceError. np.maximum(v, 0.0) gives
    0.0 for v = -0.0, hence v if v > 0.0 else 0.0. Returns (lane, clipped
    magnitude, lanes clipped); a property test pins it to _rows_repair,
    so the two change together.
    """
    h, d = (p2 + p3) * 0.5, (p2 - p3) * 0.5
    r = float(np.hypot(d, y))
    lp, lm = h + r, h - r
    worst = min(p1, p4, lm)
    if worst >= -_CLASS_SLACK:
        return (p1, p2, p3, p4, y), 0.0, 0
    if worst < -floor:
        raise _below_floor(worst, floor)
    k1 = p1 if p1 > 0.0 else 0.0
    kp = lp if lp > 0.0 else 0.0
    km = lm if lm > 0.0 else 0.0
    k4 = p4 if p4 > 0.0 else 0.0
    total = ((k1 - p1) + (k4 - p4)) + ((kp - lp) + (km - lm))
    scale = (kp - km) / max(r * 2.0, _TINY)
    hc, dc = (kp + km) * 0.5, scale * d
    norm = (k1 + k4) + (kp + km)
    lane = (k1 / norm, (hc + dc) / norm, (hc - dc) / norm, k4 / norm, scale * y / norm)
    return lane, total, 1


def _class_rows(p, y, n: int) -> np.ndarray:
    """(5, n) rows p1, p2, p3, p4, y of n class lanes from populations p,
    shape (n, 4) or (4,), and y."""
    s = np.empty((5, n))
    s[:4] = np.asarray(p).T.reshape(4, -1)
    s[4] = y
    return s


def _rows_repair(floor: float, n: int):
    """_lane_repair's closed-form projection on (5, n) class rows, in place,
    on scratch rows built once: repair(s) -> (clipped magnitude, lanes
    clipped). A class state's spectrum is p1, p4 and h +- r, h = (p2 + p3)/2,
    r = hypot((p2 - p3)/2, y); a lane whose smallest eigenvalue is below
    -_CLASS_SLACK has the negative ones clipped to zero, eigenvectors kept,
    and is renormalized (clip_negative_eigenvalues' projection), the others
    stay. Below -floor raises DivergenceError. Lanes do not mix.
    """
    add, subtract, multiply, divide, hypot = np.add, np.subtract, np.multiply, np.divide, np.hypot
    maximum, minimum, less, putmask = np.maximum, np.minimum, np.less, np.putmask
    zero, half, tiny, slack = np.repeat([[0.0], [0.5], [_TINY], [-_CLASS_SLACK]], n, 1)
    h, d, r, lm, low, lp, kp, km, c, cs, t, kpm, norm = np.empty((13, n))
    new, mask, flag = np.empty((5, n)), np.empty((5, n), bool), np.empty(n, bool)
    k1, n2, n3, k4, n5 = new

    def repair(s):
        p1, p2, p3, p4, y = s
        multiply(add(p2, p3, h), half, h)
        subtract(h, hypot(multiply(subtract(p2, p3, d), half, d), y, r), lm)
        worst = minimum.reduce(minimum(minimum(p1, p4, out=low), lm, out=low))
        if worst >= -_CLASS_SLACK:
            return 0.0, 0
        if worst < -floor:
            raise _below_floor(float(worst), floor)
        less(low, slack, flag)
        maximum(p1, zero, out=k1)
        maximum(add(h, r, lp), zero, out=kp)
        maximum(lm, zero, out=km)
        maximum(p4, zero, out=k4)
        # clipped parts (c1 + c4) + (cp + cm), each c = max(v, 0) - v
        add(subtract(k1, p1, c), subtract(k4, p4, cs), c)
        add(c, add(subtract(kp, lp, cs), subtract(km, lm, t), cs), c)
        total = float(add.reduce(c[flag]))
        # (l+ - l-) / max(2 r, subnormal) scales (d, y); 0 where l+ = l- (r = 0)
        divide(subtract(kp, km, c), maximum(add(r, r, t), tiny, out=t), c)
        multiply(add(kp, km, kpm), half, n2)
        subtract(n2, multiply(c, d, d), n3)
        add(n2, d, n2)
        multiply(c, y, n5)
        divide(new, add(add(k1, k4, norm), kpm, norm), new)
        mask[:] = flag  # putmask on a full mask costs half of copyto(where=flag)
        putmask(s, mask, new)
        return total, int(np.count_nonzero(flag))

    return repair


def _rows_stepper(cfg: SimConfig, floor: float, n: int):
    """The block stepper of _step_blocks for n class lanes as (5, n) rows,
    built once per chunk with its scratch rows. Per step: _class_step's
    float operations in order on the block's draws, scaled in one call, the
    trace check, division into states[i + 1] and _rows_repair in place. Its
    ufuncs are bound locals with positional outputs (out= for np.maximum
    and np.minimum); constants are (n,) rows, cheaper than floats."""
    per_xi = cfg.dt / cfg.s0
    flow_c, feed_c, decay_c = _drive_coefficients(cfg.dt, cfg.s0, cfg.delta, cfg.gamma[1, 2])
    one, neg, flow, feed, decay = np.repeat([[1.0], [-1.0], [flow_c], [feed_c], [decay_c]], n, 1)
    add, subtract, multiply, divide = np.add, np.subtract, np.multiply, np.divide
    absolute, q, (m, t, e, o, f, u, tr) = np.absolute, np.empty((5, n)), np.empty((7, n))
    q1, q2, q3, q4, q5 = q
    repair = _rows_repair(floor, n)

    def advance(states, xi, k0, health):
        corrections, clip_total, n_clips = health
        a_rows = multiply(xi[:-1], per_xi)  # per block: a held scratch raises peak RSS
        p1, p2, p3, p4, y = states[0]
        try:
            for i in range(len(states) - 1):
                a = a_rows[i]
                subtract(add(p1, p2, m), add(p3, p4, t), m)
                add(one, multiply(a, subtract(one, m, e), e), e)
                add(one, multiply(a, subtract(neg, m, o), o), o)
                subtract(subtract(one, multiply(m, a, u), u), decay, u)
                add(multiply(y, u, u), multiply(feed, subtract(p2, p3, t), t), q5)
                multiply(p1, e, q1)
                subtract(multiply(p2, e, q2), multiply(flow, y, f), q2)
                add(multiply(p3, o, q3), f, q3)
                multiply(p4, o, q4)
                add(add(add(q1, q2, tr), q3, tr), q4, tr)
                dev = float(add.reduce(absolute(subtract(tr, one, t), t)))
                if not dev <= _TRACE_DRIFT:  # a sum within the bound clears every lane
                    _trace_deviation(tr)
                s = states[i + 1]
                clipped, n_c = repair(divide(q, tr, s))
                corrections += dev
                clip_total += clipped
                n_clips += n_c
                p1, p2, p3, p4, y = s
        except DivergenceError as exc:
            raise DivergenceError(f"step {k0 + i + 1}: {exc}") from None
        return corrections, clip_total, n_clips

    return advance


def _per_step(cfg: SimConfig, floor: float):
    """The block stepper of _step_blocks for (n, 4, 4) states off the closed
    class, one step per draw row xi[i] into states[i + 1]: step_batch,
    hermitize, the trace check and renormalization, and
    clip_negative_eigenvalues."""

    def advance(states, xi, k0, health):
        corrections, clip_total, n_clips = health
        rho = states[0]
        try:
            for i in range(len(states) - 1):
                rho = hermitize(step_batch(rho, xi[i], cfg.dt, cfg.s0, cfg.delta, cfg.gamma))
                tr = np.real(np.einsum("nii->n", rho))
                dev = _trace_deviation(tr)
                rho /= tr[:, None, None]
                rho, clipped, n_c = clip_negative_eigenvalues(rho, floor)
                corrections += float(dev.sum())
                clip_total += clipped
                n_clips += n_c
                states[i + 1] = rho
        except DivergenceError as exc:
            raise DivergenceError(f"step {k0 + i + 1}: {exc}") from None
        return corrections, clip_total, n_clips

    return advance


# The lane prefilter passes a lane without _lane_repair only if p1 >= 0,
# p4 >= 0, h >= 0 and h^2 - (d^2 + y^2) >= _LANE_MARGIN. Exactly, that
# makes l- = (h^2 - r^2) / (h + r) >= _LANE_MARGIN / (2 h), and h <= 1/2 up
# to the trace drift, so l- >= 1e-12. Rounding in the prefilter and in
# the projection's h - hypot(d, y) is a few ulp of h (< 1e-15), so the
# projection would find low >= 0 > -_CLASS_SLACK and not flag the lane.
# A lane with p1 >= 0, p4 >= 0 and an empty u2-u3 block (p2 = p3 = y = 0)
# has the spectrum p1, p4, 0, 0 exactly, so it passes too; the Bell-state
# starts u1 and u4 stay on it for good. The prefilter sends extra lanes,
# never fewer; _lane_repair returns those unchanged, for one np.hypot.
_LANE_MARGIN = 1e-12


def _lane_stepper(cfg: SimConfig, floor: float):
    """The block stepper of _step_blocks for one class lane, on five Python
    floats: it reads the lane from states[0] and the block's scaled draws
    with one tolist(), makes each step as _class_step, trace check and
    renormalization with the float operations of _rows_stepper, and
    stores the block's lanes with one write into states[1:]. Lanes the
    prefilter above cannot clear go to _lane_repair, which alone decides
    and makes a repair, on the floats. Only np.hypot there meets numpy: a
    step that raises nothing builds no array.
    """
    per_xi = cfg.dt / cfg.s0
    coef = _drive_coefficients(cfg.dt, cfg.s0, cfg.delta, cfg.gamma[1, 2])

    def advance(states, xi, k0, health):
        corrections, clip_total, n_clips = health
        p1, p2, p3, p4, y = states[0].tolist()
        lanes = []
        try:
            for a in (xi[:-1, 0] * per_xi).tolist():
                p1, p2, p3, p4, y, tr = _class_step(p1, p2, p3, p4, y, a, coef)
                dev = abs(tr - 1.0)
                if not dev <= _TRACE_DRIFT:
                    _trace_deviation(np.array([tr]))
                corrections += dev
                p1 /= tr
                p2 /= tr
                p3 /= tr
                p4 /= tr
                y /= tr
                h = 0.5 * (p2 + p3)
                d = 0.5 * (p2 - p3)
                if p1 < 0.0 or p4 < 0.0 or h < 0.0 or (
                    h * h - (d * d + y * y) < _LANE_MARGIN and not p2 == p3 == y == 0.0
                ):
                    (p1, p2, p3, p4, y), clipped, n_c = _lane_repair(p1, p2, p3, p4, y, floor)
                    clip_total += clipped
                    n_clips += n_c
                lanes.append((p1, p2, p3, p4, y))
        except DivergenceError as exc:
            raise DivergenceError(f"step {k0 + len(lanes) + 1}: {exc}") from None
        states[1:] = lanes
        return corrections, clip_total, n_clips

    return advance


@dataclass(frozen=True)
class TrajectoryRecord:
    """One realization sampled on the record grid.

    rows holds what the run stepped: (n, 5) class rows p1, p2, p3, p4 and
    y = Im rho_23 for a run on the closed class, the (n, 4, 4) Bell-basis
    states for a run off it. states gives (n, 4, 4) states either way,
    built from the rows on demand for a class run. lam is the branch
    maximum, nan on off-class rows whose class_residual exceeds 1e-7;
    concurrence is max(lam, 0), or the general Wootters value on those
    rows. integrated_output[0] is reported as 0 (the t -> 0 limit of the
    running mean is left undefined by 0/0). trace_correction_total
    accumulates |Tr rho - 1| before each renormalization (rounding floor;
    the update is trace-preserving algebraically); clip_total accumulates
    the positivity projections, whose magnitude scales with dt.
    """

    config: SimConfig
    times: np.ndarray
    rows: np.ndarray
    currents: np.ndarray
    integrated_output: np.ndarray
    lam: np.ndarray
    concurrence: np.ndarray
    trace_correction_total: float
    clip_total: float
    n_clips: int

    @property
    def on_class(self) -> bool:
        return self.rows.ndim == 2

    @property
    def states(self) -> np.ndarray:
        """The (n, 4, 4) Bell-basis states of the record."""
        return _class_matrices(self.rows) if self.on_class else self.rows

    def state_at(self, k: int) -> DensityMatrix:
        mat = _class_matrices(self.rows[k][None])[0] if self.on_class else self.rows[k]
        return sanitize(mat).state

    def __len__(self) -> int:
        return self.times.size

    def to_csv(self, path) -> None:
        s = self.rows
        if self.on_class:
            # rho_14 and Re rho_23 are exactly 0 on the class: written as the
            # "0" %.17g makes of them
            state_cols, fmt = [*s.T], ["%.17g"] * 4 + ["0", "%.17g", "0", "0"]
        else:
            state_cols = [*s.diagonal(0, 1, 2).real.T, s[:, 1, 2].real, s[:, 1, 2].imag,
                          s[:, 0, 3].real, s[:, 0, 3].imag]
            fmt = ["%.17g"] * 8
        cols = np.column_stack([self.times, *state_cols, self.currents,
                                self.integrated_output, self.lam, self.concurrence])
        header = (
            "t,rho_11,rho_22,rho_33,rho_44,re_rho_23,im_rho_23,"
            "re_rho_14,im_rho_14,current,integrated_output,lambda,concurrence"
        )
        _write_csv(path, header, cols, ["%.17g", *fmt, *["%.17g"] * 4])


def _write_csv(path, header: str, cols: np.ndarray, fmt: list[str]) -> None:
    """Write (n, m) cols as CSV under header, each line the fields fmt joined
    by commas (a field with no % is a literal): np.savetxt's bytes, "%d" % 1.0
    included, formatted one block of rows at a time, since a whole long
    table as lists and strings would cost several MB."""
    row = ",".join(fmt) + "\n"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(header + "\n")
        for at in range(0, len(cols), _CSV_BLOCK):
            block = cols[at : at + _CSV_BLOCK].tolist()
            fh.write("".join(row % tuple(r) for r in block))


def _class_matrices(rows: np.ndarray) -> np.ndarray:
    """(n, 4, 4) Bell-basis states of (n, 5) class rows."""
    states = np.zeros((len(rows), 4, 4), dtype=np.complex128)
    states.real[:, range(4), range(4)] = rows[:, :4]
    states.imag[:, 1, 2] = rows[:, 4]
    states.imag[:, 2, 1] = -rows[:, 4]
    return states


def _record_entanglement(states: np.ndarray):
    """Branch maximum and concurrence for the recorded states of an
    off-class run: closed-form on rows within _RECORD_CLASS_TOL of the
    class, lambda = nan and the general Wootters concurrence off it."""
    pops = np.real(np.einsum("nii->ni", states))
    off = ~(class_residual(states) <= _RECORD_CLASS_TOL)
    lam = lambda_branch_max(pops, np.imag(states[:, 1, 2]))
    conc = np.maximum(lam, 0.0)
    if off.any():
        lam[off] = np.nan
        for k in np.nonzero(off)[0]:
            conc[k] = wootters_concurrence(sanitize(states[k]).state)
    return lam, conc


def _record_steps(cfg: SimConfig) -> np.ndarray:
    """Steps of the record grid: every record_stride-th step and the last."""
    steps = np.arange(0, cfg.n_steps + 1, cfg.record_stride)
    return steps if steps[-1] == cfg.n_steps else np.append(steps, cfg.n_steps)


def _step_blocks(cfg: SimConfig, lo: int, hi: int, state, advance, draw=None):
    """The one stepping loop: runs [lo, hi) from state over cfg.n_steps.

    advance(states, xi, k0, health) -> health steps a whole block: from
    states[0] it makes one step per draw row xi[i], i < len(states) - 1,
    writes the state after step i into states[i + 1], and adds each step's
    |tr - 1| sum, clipped magnitude and lanes clipped onto the running
    totals health, step by step; a DivergenceError it raises names the
    global step, k0 + i + 1 (_rows_stepper for class rows, _per_step for
    (n, 4, 4) states, _lane_stepper for one lane's floats). draw(k0, k1)
    supplies the standard normals of steps [k0, k1) for every run, one
    (k1 - k0, hi - lo) array, which the loop scales by the noise
    amplitude; by default they come from the chunk's one generator,
    SeedSequence(cfg.seed, spawn_key=(lo // _CHUNK,)), drawn step-major a
    block at a time. After each block of up to _EVENT_BLOCK steps from
    step k0 this yields (k0, states, xi, health): states[i] is the state
    at step k0 + i and xi[i] the draw at that step, from i = 0 to the
    block's end, so the last xi row is the draw after the block's last
    step; the next block carries it over into its row 0 and draws the
    rest, so the chunk reads one unbroken stream. Both are views, valid
    until the next block. health is the running (sum of |tr - 1|, clipped
    magnitude, lanes clipped).
    """
    n_steps = cfg.n_steps
    sigma = math.sqrt(C_NOISE * cfg.s0 / cfg.dt)
    if draw is None:
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=cfg.seed, spawn_key=(lo // _CHUNK,)))

        def draw(k0, k1):
            return rng.standard_normal((k1 - k0, hi - lo))

    xi = np.empty((_EVENT_BLOCK + 1, hi - lo))
    first = np.asarray(state)
    states = np.empty((_EVENT_BLOCK + 1, *first.shape), first.dtype)
    states[0] = first
    health = (0.0, 0.0, 0)
    for k0 in range(0, n_steps, _EVENT_BLOCK):
        n = min(_EVENT_BLOCK, n_steps - k0)
        fresh = 1 if k0 else 0
        np.multiply(draw(k0 + fresh, k0 + n + 1), sigma, out=xi[fresh : n + 1])
        health = advance(states[: n + 1], xi[: n + 1], k0, health)
        yield k0, states[: n + 1], xi[: n + 1], health
        states[0] = states[n]
        xi[0] = xi[n]


def simulate(cfg: SimConfig, initial: DensityMatrix) -> TrajectoryRecord:
    """Integrate one conditioned trajectory.

    Deterministic in (cfg.seed, cfg, initial): the noise stream is drawn
    from SeedSequence(seed, spawn_key=(0,)), as chunk 0 of width 1, so the
    run is run 0 of an ensemble of one. Records state, the instantaneous
    detector sample I(t_k) that drives the following step, the running
    time-averaged output, and the entanglement branch values every
    record_stride steps (the final step is always recorded; its sample is
    the draw after the last step).

    An initial state within X_TOL of the closed class (class_residual, as
    in run_ensemble) runs _class_step on the five Python floats of its
    populations and Im rho_23 (_lane_stepper), the rows ensembles step, so
    it is bitwise an ensemble of one (tested), and is recorded as (n, 5)
    class rows with lambda_branch_max on them. Any other state runs on the
    (n, 4, 4) kernel and is recorded through _record_entanglement. Both go
    through _step_blocks; per block, the currents and the running integral
    come from the block's states and draws with array operations, the
    integral summed in step order by np.add.accumulate.
    """
    dt = cfg.dt
    floor = clip_floor(cfg)
    on_class = class_residual(initial.mat) <= X_TOL
    if on_class:
        state = (*initial.diag.tolist(), float(initial.mat[1, 2].imag))
        advance = _lane_stepper(cfg, floor)
    else:
        state = initial.mat[None, :, :].astype(np.complex128)
        advance = _per_step(cfg, floor)

    rec_at = _record_steps(cfg)
    times = rec_at * dt
    recs, currents, integrated = [], [], []
    isum = 0.0            # int I dt at full step resolution
    slot = 0
    for k0, blk, xi, health in _step_blocks(cfg, 0, 1, state, advance):
        if not on_class:
            blk = blk[:, 0]
        pops = blk[:, :4] if on_class else blk.diagonal(0, 1, 2).real
        current = (((pops[:, 0] + pops[:, 1]) - pops[:, 2]) - pops[:, 3]) + xi[:, 0]
        # the integral at each step of the block: isum += current * dt
        sums = np.add.accumulate(np.concatenate(([isum], current[:-1] * dt)))
        isum = sums[-1]
        stop = int(np.searchsorted(rec_at, k0 + len(blk) - 1, side="right"))
        rows = rec_at[slot:stop] - k0
        slot = stop
        recs.append(blk[rows])
        currents.append(current[rows])
        integrated.append(sums[rows])
    rec, currents = np.concatenate(recs), np.concatenate(currents)
    integrated = np.concatenate(integrated)
    integrated[1:] /= times[1:]   # [0] is the integral at t = 0, exactly 0
    corrections, clip_total, n_clips = health

    if on_class:
        lam = lambda_branch_max(rec[:, :4], rec[:, 4])
        conc = np.maximum(lam, 0.0)
    else:
        lam, conc = _record_entanglement(rec)
    return TrajectoryRecord(
        config=cfg,
        times=times,
        rows=rec,
        currents=currents,
        integrated_output=integrated,
        lam=lam,
        concurrence=conc,
        trace_correction_total=corrections,
        clip_total=clip_total,
        n_clips=n_clips,
    )

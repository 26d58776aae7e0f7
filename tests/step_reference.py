"""Reference steppers that no program path calls.

class_stepper is the per-step class stepper, the oracle for the fused rows
kernel trajectory._rows_stepper: _class_step on (n,) rows with the scaled
draw, the trace check, np.divide by the trace and the rows repair, one call
per step (test_ensemble.py and test_trajectory.py). tanh_walk is the
filter walk, five ufunc calls per step, the bitwise reference for
fpt.walk_first_passage on drift signs (test_fpt.py)."""

import math

import numpy as np

from paritysim import fpt, trajectory


def class_stepper(cfg: trajectory.SimConfig, floor: float):
    """One integrator step of (5, n) class rows s: _class_step on the
    scaled draws, the trace check and renormalization, _rows_repair.
    Returns advance(s, xi) -> (s, sum of |tr - 1|, clipped magnitude,
    lanes clipped)."""
    per_xi = cfg.dt / cfg.s0
    coef = trajectory._drive_coefficients(cfg.dt, cfg.s0, cfg.delta, cfg.gamma[1, 2])

    def advance(s, xi):
        *rows, tr = trajectory._class_step(*s, xi * per_xi, coef)
        dev = float(np.abs(tr - 1.0).sum())
        # a sum within the bound clears every lane; otherwise look lane by lane
        if not dev <= trajectory._TRACE_DRIFT:
            trajectory._trace_deviation(tr)
        s = np.divide(rows, tr)
        return (s, dev, *trajectory._rows_repair(floor, s.shape[1])(s))

    return advance


def tanh_walk(c, thr, dts, draw):
    """The filter form of fpt.walk_first_passage: walks
    dg = (tanh(g + c) + xi/sqrt(dt)) dt, one per offset c, stepped with five
    in-place ufunc calls per step on a stride-0 dt row and decided a block
    at a time by fpt.bridge_step. At c = +-inf, tanh gives the drift +-1
    exactly, so it has the bits of walk_first_passage on the signs +-1."""
    side = math.copysign(1.0, thr)
    n_steps = dts.size
    noise_scale = np.sqrt(1.0 / dts)
    t_before = np.concatenate([[0.0], np.cumsum(dts)])
    gam = np.zeros(c.size)
    alive = np.arange(c.size)
    times = np.full(c.size, np.nan)
    add, tanh, multiply = np.add, np.tanh, np.multiply
    dt_lanes = np.broadcast_to(dts[:, None], (n_steps, c.size))
    k0 = 0
    while k0 < n_steps and alive.size:
        k1 = min(k0 + min(max(k0, fpt._FIRST_BLOCK), fpt._BLOCK), n_steps)
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
        crossed, retire = fpt.bridge_step(g[:-1], g[1:], thr, side, dts[k0:k1, None], unif)
        done = retire.any(axis=0)
        lanes = np.nonzero(done)[0]
        first = retire[:, lanes].argmax(axis=0)
        hit = crossed[first, lanes]
        lanes, first = lanes[hit], first[hit]
        k = k0 + first
        frac = fpt.hit_fraction(g[first, lanes], g[first + 1, lanes], thr, side)
        times[alive[lanes]] = t_before[k] + dts[k] * frac
        keep = ~done
        alive, gam, c = alive[keep], g[-1, keep], c[keep]
        k0 = k1
    return times, int(alive.size)

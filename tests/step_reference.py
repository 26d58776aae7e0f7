"""Reference steppers that no program path calls.

class_stepper is the per-step class stepper, the oracle for the fused rows
kernel trajectory._rows_stepper: _class_step on (n,) rows with the scaled
draw, the trace check, np.divide by the trace and the rows repair, one call
per step (test_ensemble.py and test_trajectory.py). block_walk is
fpt.walk_first_passage walk by walk and step by step on Python floats, its
bitwise reference (test_fpt.py and test_ensemble.py)."""

import itertools
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


def block_walk(v, thr, dts, draw):
    """fpt.walk_first_passage written out walk by walk on Python floats,
    reading the same (endpoints, path) draws: per block, every open walk's
    end point g1 = g0 + v T + sqrt(T) eta; a walk is near when
    (g0 - thr)(g1 - thr) < fpt._FAR D T, and only near walks draw, in one
    path call that is skipped when none is near. A near walk's path is the
    bridge g0 + W_i + t_i (g1 - g0 - W_m) / T with its last point g1, and
    its first step that ends at or beyond thr, or whose bridge uniform is
    below np.exp(-a b / (D dt)), is its crossing. A walk that has not
    crossed and has v (g1 - thr) > fpt.ESCAPE escapes.

    Returns (times, n_open, fates, modes): fates[j] is (kind, step) with
    kind hit, bridge, escape (step: the block end) or open; modes[j] spells
    walk j's blocks, N near and F far."""
    endpoints, path = draw
    side = math.copysign(1.0, thr)
    dts = dts.tolist()
    t_before = [0.0, *itertools.accumulate(dts)]
    v = v.tolist()
    g = [0.0] * len(v)
    times = [math.nan] * len(v)
    fates = [("open", len(dts))] * len(v)
    modes = [""] * len(v)
    alive = list(range(len(v)))
    k0 = 0
    while k0 < len(dts) and alive:
        k1 = min(k0 + min(max(k0, fpt._FIRST_BLOCK), fpt._BLOCK), len(dts))
        span = t_before[k1] - t_before[k0]
        g1, near = {}, []
        for j, eta in zip(alive, endpoints(k0, k1, np.array(alive)).tolist()):
            g1[j] = g[j] + v[j] * span + math.sqrt(span) * eta
            is_near = (g[j] - thr) * (g1[j] - thr) < fpt._FAR * fpt.DIFFUSION * span
            modes[j] += "N" if is_near else "F"
            if is_near:
                near.append(j)
        if near:
            xi, unif = path(k0, k1, np.array(near))
            for j, x, u in zip(near, xi.T.tolist(), unif.T.tolist()):
                w = list(itertools.accumulate(
                    math.sqrt(dt) * x_i for dt, x_i in zip(dts[k0:k1], x)))
                slope = (g1[j] - g[j] - w[-1]) / span
                path_j = [g[j]]
                path_j += [g[j] + w_i + (t_before[k0 + i + 1] - t_before[k0]) * slope
                           for i, w_i in enumerate(w[:-1])]
                path_j.append(g1[j])
                for i, (a, b) in enumerate(zip(path_j, path_j[1:])):
                    k, dt = k0 + i, dts[k0 + i]
                    if side * (b - thr) >= 0.0:
                        times[j] = t_before[k] + dt * ((a - thr) / (a - b))
                        fates[j] = ("hit", k)
                        break
                    if u[i] < np.exp(-((a - thr) * (b - thr)) / (fpt.DIFFUSION * dt)):
                        times[j] = t_before[k] + dt * 0.5
                        fates[j] = ("bridge", k)
                        break
        still = []
        for j in alive:
            if fates[j][0] != "open":
                continue
            if v[j] * (g1[j] - thr) > fpt.ESCAPE:
                fates[j] = ("escape", k1)
            else:
                g[j] = g1[j]
                still.append(j)
        alive = still
        k0 = k1
    return np.array(times), len(alive), fates, modes

"""Reference per-step class stepper, the oracle for the fused rows kernel
trajectory._rows_stepper: _class_step on (n,) rows with the scaled draw, the
trace check, np.divide by the trace and the rows repair, one call per step
(test_ensemble.py and test_trajectory.py). No program path calls it."""

import numpy as np

from paritysim import trajectory


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

"""Reference border-event detection on one sampled series, the oracle for
the ensemble's array event table: an ensemble of one must reproduce
detect_events of the same trajectory exactly (test_ensemble.py and
test_trajectory.py). No program path calls these."""

import numpy as np

from paritysim.ensemble import BorderEvent, EventKind
from paritysim.trajectory import TrajectoryRecord


def events_from_series(times: np.ndarray, lam: np.ndarray) -> list[BorderEvent]:
    """Border events of one run from its sampled branch-maximum series.

    Entangled means lam > 0. The first positive-going crossing of a run
    that started unentangled is genesis; later positive-going crossings
    are sudden births, negative-going ones sudden deaths.
    """
    times = np.asarray(times, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if times.shape != lam.shape or times.ndim != 1:
        raise ValueError("times and lam must be matching 1-d arrays")
    if np.isnan(lam).any():
        raise ValueError("series left the closed X class; events undefined")
    ent = lam > 0.0
    events = []
    genesis_seen = bool(ent[0])
    for k in np.nonzero(ent[1:] != ent[:-1])[0]:
        t0, t1 = times[k], times[k + 1]
        t_star = t0 + (t1 - t0) * (lam[k] / (lam[k] - lam[k + 1]))
        if ent[k + 1]:
            kind = EventKind.SUDDEN_BIRTH if genesis_seen else EventKind.GENESIS
            genesis_seen = True
        else:
            kind = EventKind.SUDDEN_DEATH
        events.append(BorderEvent(float(t_star), kind, int(k + 1)))
    return events


def detect_events(record: TrajectoryRecord) -> list[BorderEvent]:
    """Events of a recorded trajectory, at the record grid's resolution."""
    return events_from_series(record.times, record.lam)

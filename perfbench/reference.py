"""Reference kernels that measure how fast the host runs at the moment.

On a shared host, other tenants slow a vCPU by up to 2x, in spells of
seconds to minutes, and the slow-down depends on what the code does: batched
LAPACK calls, interpreter-bound loops over tiny arrays and cache-missing
copies are hit differently. Raw wall times of identical 25-second runs then
spread by 20-35% (interquartile range over median), more than any useful
regression bound.

Each workload therefore has a reference kernel that imitates its inner loop
with plain numpy: the same array shapes and the same kinds of operations,
but none of paritysim's code, so no change to the program moves it. One
call runs a slice of about SLICE_S seconds. HostSpeed runs slices on the
workload's own CPU while a pass runs, so that they see the same spells as
the pass; the pass time scaled by the host speed they measure is the
pass's host-normalized time.
"""

from __future__ import annotations

import contextlib
import math
import signal
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# A slice run on its own takes about SLICE_S on the box the benchmark was
# defined on (2 vCPUs, Python 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31, one BLAS
# thread) when its host is quiet. Between a workload's steps it runs at
# another speed, as the workload leaves the caches in another state. So
# host-normalized seconds are proportional to wall seconds at a fixed host
# speed, not equal to them.
SLICE_S = 0.005
# One slice every INTERVAL_S of a pass: about 2% of its time, and 5 or more
# slices in the shortest pass.
INTERVAL_S = 0.25

_I = np.array([1.0, 1.0, -1.0, -1.0])
_AMP = _I[:, None] + _I[None, :]


def _states(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.standard_normal((n, 4, 4)) + 1j * rng.standard_normal((n, 4, 4))
    rho = a @ np.conj(np.swapaxes(a, 1, 2))
    return rho / np.real(np.einsum("nii->n", rho))[:, None, None]


def _step(rho: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """An elementwise update, a block coupling, Hermitization and
    renormalization of a (n, 4, 4) batch: the shape of one integrator step."""
    mean = np.real(np.einsum("nii->ni", rho)) @ _I
    rho = rho * (1.0 + 1e-3 * xi[:, None, None] * (_AMP - 2.0 * mean[:, None, None]))
    comm = np.zeros_like(rho)
    comm[:, 1, :] += rho[:, 2, :]
    comm[:, 2, :] -= rho[:, :, 1]
    rho = rho - 1e-3j * comm
    rho = 0.5 * (rho + np.conj(np.swapaxes(rho, 1, 2)))
    return rho / np.real(np.einsum("nii->n", rho))[:, None, None]


def _traces(rho: np.ndarray) -> np.ndarray:
    r2 = rho @ rho
    return (np.real(np.einsum("nij,nji->n", rho, rho))
            + np.real(np.einsum("nij,nji->n", r2, rho))
            + np.real(np.einsum("nij,nji->n", r2, r2)))


def batch(rng: np.random.Generator) -> Callable[[], None]:
    """ensemble_k0.3: 256 lanes stepped together with noise read column by
    column from a block larger than the caches, eigh repair of most lanes,
    branch values and a Python loop over the lanes that changed sign."""
    rho = _states(rng, 256)
    noise = rng.standard_normal((256, 4096))
    col = [0]

    def run():
        r = rho
        prev = np.zeros(256)
        for _ in range(4):
            col[0] = (col[0] + 48) % noise.shape[1]
            r = _step(r, noise[:, col[0]])
            _traces(r)
            vals, vecs = np.linalg.eigh(r[:190])
            r[:190] = np.einsum("nij,nj,nkj->nik", vecs, np.clip(vals, 0.0, None),
                                np.conj(vecs))
            pops = np.real(np.einsum("nii->ni", r))
            lam = np.sqrt((pops[:, 1] - pops[:, 2]) ** 2 + 4.0 * np.imag(r[:, 1, 2]) ** 2)
            lam = np.maximum(lam + pops[:, 1] + pops[:, 2] - 1.0, 2.0 * pops[:, 0] - 1.0)
            flips = []
            for j in np.nonzero((lam > 0.2) != (prev > 0.2))[0][:8]:
                flips.append(float(prev[j] / (prev[j] - lam[j] + 1e-9)))
            prev = lam
    return run


def lane(rng: np.random.Generator) -> Callable[[], None]:
    """trajectory_sweep: one lane, so per-call overhead, plus a CSV write."""
    rho = _states(rng, 1)
    xi = rng.standard_normal(50)
    rows = rng.standard_normal((50, 13))

    def run():
        r = rho
        acc = 0.0
        for k in range(50):
            r = _step(r, xi[k : k + 1])
            acc += float(_traces(r)[0]) + float(np.real(r[0, 0, 0] - r[0, 3, 3]))
        "\n".join(",".join(f"{v:.17g}" for v in row) for row in rows)
    return run


def walkers(rng: np.random.Generator) -> Callable[[], None]:
    """crossing_states: log-likelihood walkers on (n,) and (n, 4) arrays,
    columns of a noise block, and lanes retiring by boolean compaction.
    The block itself is not compacted: copying it made the slice's time
    depend on page faults, and it tracked the workload half as well."""
    p0 = np.array([0.26, 0.26, 0.22, 0.26])
    blk = rng.standard_normal((256, 4096))
    col = [0]

    def run():
        gam = np.zeros(256)
        for k in range(100):
            col[0] = (col[0] + 1) % blk.shape[1]
            w = p0[None, :] * np.exp(np.outer(gam, _I))
            mean = (w @ _I) / w.sum(axis=1)
            new = gam + (mean + blk[: gam.size, col[0]] * 20.0) * 2e-3
            pb = np.exp(np.minimum(-(gam * new) / (0.5 * 2e-3), 0.0))
            keep = pb >= 0.0
            if k % 30 == 29:
                keep[0] = False
                new = new[keep]
            gam = new
    return run


def chains(rng: np.random.Generator) -> Callable[[], None]:
    """projective_k30: one rotate-measure step over a block of chains."""
    c, s = math.cos(math.pi / 30), math.sin(math.pi / 30)
    u = np.eye(4, dtype=complex)
    u[1, 1] = u[2, 2] = c
    u[1, 2] = u[2, 1] = -1j * s
    even = np.diag([1.0, 1.0, 0.0, 0.0])
    rho = np.broadcast_to(np.eye(4, dtype=complex) / 4.0, (4500, 4, 4)).copy()

    def run():
        r = np.einsum("ij,njk,lk->nil", u, rho, np.conj(u))
        p = np.real(r[:, 0, 0] + r[:, 1, 1])
        hit = rng.random(p.size) < p
        mask = np.where(hit[:, None, None], even[None], (1.0 - even)[None])
        r = r * mask / np.where(hit, p, 1.0 - p)[:, None, None]
        pops = np.real(np.einsum("nii->ni", r))
        c3 = np.sqrt((pops[:, 1] - pops[:, 2]) ** 2 + 4.0 * np.imag(r[:, 1, 2]) ** 2)
        np.maximum(c3 + pops[:, 1] + pops[:, 2] - 1.0, 0.0).std()
    return run


@dataclass
class Sample:
    """Host speed seen by the slices run around and inside one pass."""

    speeds: list[float] = field(default_factory=list)
    inside_s: float = 0.0   # wall time of the slices run inside the pass

    @property
    def speed(self) -> float:
        return statistics.fmean(self.speeds)


class HostSpeed:
    """Samples a reference kernel's speed on the calling thread's CPU.

    A slice's speed is SLICE_S over its time: about 1 on the quiet reference
    box, lower on a slowed host. A pass's raw seconds times the mean speed
    of slices taken at even wall-clock intervals through it measures the
    work it did, whatever the host's speed was at the time.
    """

    def __init__(self, build: Callable[[np.random.Generator], Callable[[], None]]):
        self._run = build(np.random.default_rng(0))
        self._run()  # first-call costs (LAPACK loading, page faults) stay out

    def _slice(self) -> float:
        t0 = time.perf_counter()
        self._run()
        return time.perf_counter() - t0

    def measure(self, n: int) -> float:
        """Mean speed over n slices run back to back."""
        return statistics.fmean(SLICE_S / self._slice() for _ in range(n))

    @contextlib.contextmanager
    def during(self, on_slice: Callable[[float], None] | None = None):
        """Sample the host around and inside the body: one slice before, one
        after, and one every INTERVAL_S from a SIGALRM handler. The body's
        caller subtracts ``inside_s`` from its wall time. ``on_slice`` is
        told the seconds of each slice inside, so that a tracer can keep
        them out of the span they interrupted."""
        sample = Sample()

        def tick(signum, frame):
            dt = self._slice()
            sample.speeds.append(SLICE_S / dt)
            sample.inside_s += dt
            if on_slice is not None:
                on_slice(dt)

        sample.speeds.append(SLICE_S / self._slice())
        old = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield sample
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, old)
        sample.speeds.append(SLICE_S / self._slice())

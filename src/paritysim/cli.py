"""Command-line front end.

Subcommands: trajectory, ensemble, predict, projective, validate.
Times in file outputs are in units of T_q (the drive period), except
predict, which reports crossing times in units of T_M with the unit in
the column header. Flag precedence: command line > --config JSON >
defaults; config values are parsed by the flags' own types, and the
master seed falls back to the PARITY_SEED environment variable. Every
output directory receives a manifest (written before the data files)
whose byte content, like the data, is independent of --jobs and of
reruns. Exit codes: 0 ok, 1 validation failure, 2 usage error,
3 numerical divergence.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .concurrence import lambda_branch_max, wootters_concurrence
from .ensemble import (
    coupled_step_bias,
    genesis_histogram,
    run_ensemble,
    validate_against_analytics,
)
from .fpt import diagonal_state, predict
from .projective import average_concurrence, monte_carlo_average
from .qstate import (
    DensityMatrix,
    DivergenceError,
    hs_half_distance,
    preset_state,
    state_from_json,
    trace_distance,
)
from .trajectory import SimConfig, _class_matrices, _write_csv, simulate

_SEED_ENV = "PARITY_SEED"


class UsageError(Exception):
    pass


# ------------------------------------------------------------- plumbing


def _resolve_seed(args) -> int:
    seed = args.seed
    if seed is None:
        env = os.environ.get(_SEED_ENV, "0")
        try:
            seed = int(env)
        except ValueError:
            raise UsageError(f"{_SEED_ENV}={env!r} is not an integer") from None
    if not 0 <= seed < 2**64:
        raise UsageError("--seed: must fit in 64 unsigned bits")
    return seed


def _parse_state(text: str) -> tuple[DensityMatrix, str]:
    try:
        return preset_state(text), text
    except (KeyError, ValueError):
        pass
    p = Path(text)
    if p.is_file():
        try:
            return state_from_json(p.read_text(encoding="ascii")), str(p)
        except (ValueError, KeyError) as exc:
            raise UsageError(f"--state: cannot parse {text!r}: {exc}") from None
    raise UsageError(f"--state: {text!r} is neither a preset nor a readable file")


def _fsync_file(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _emit_outputs(out_dir: Path, manifest: dict, writers: dict) -> None:
    """Manifest first, then the data files, fsyncing everything."""
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = dict(manifest, version=__version__, outputs=sorted(writers))
    man_path = out_dir / "manifest.json"
    with open(man_path, "w", encoding="ascii") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
        fh.flush()
        os.fsync(fh.fileno())
    for name in sorted(writers):
        path = out_dir / name
        writers[name](path)
        _fsync_file(path)
    dfd = os.open(out_dir, os.O_RDONLY)
    try:
        os.fsync(dfd)
    finally:
        os.close(dfd)


def _build_sim_config(args, seed: int) -> SimConfig:
    try:
        return SimConfig(k_ratio=args.k, duration=args.duration, dt=args.dt,
                         record_stride=args.record_stride, seed=seed)
    except ValueError as exc:
        msg = str(exc)
        for field, flag in (("k_ratio", "--k"), ("record_stride", "--record-stride"),
                            ("dt", "--dt"), ("duration", "--duration")):
            if msg.startswith(field):
                msg = flag + ": " + msg
                break
        raise UsageError(msg) from None


def _config_dict(cfg: SimConfig) -> dict:
    return {
        "delta": cfg.delta,
        "k": cfg.k_ratio,
        "duration": cfg.duration,
        "dt": cfg.dt,
        "record_stride": cfg.record_stride,
        "seed": cfg.seed,
    }


# ------------------------------------------------------------- commands


def cmd_trajectory(args) -> int:
    seed = _resolve_seed(args)
    cfg = _build_sim_config(args, seed)
    state, state_desc = _parse_state(args.state)
    record = simulate(cfg, state)
    manifest = {
        "command": "trajectory",
        "config": _config_dict(cfg),
        "seed": seed,
        "state": state_desc,
    }
    _emit_outputs(Path(args.out), manifest, {"trajectory.csv": record.to_csv})
    return 0


def cmd_ensemble(args) -> int:
    seed = _resolve_seed(args)
    cfg = _build_sim_config(args, seed)
    state, state_desc = _parse_state(args.state)
    if not args.runs >= 1:
        raise UsageError("--runs: must be >= 1")
    if not 0.0 < args.bin_width < math.inf:
        raise UsageError("--bin-width: must be positive and finite")
    if cfg.duration / args.bin_width > 1e6:
        raise UsageError("--bin-width: gives more than 10^6 bins over --duration")
    if not args.jobs >= 1:
        raise UsageError("--jobs: must be >= 1")
    try:
        stats = run_ensemble(cfg, state, args.runs, jobs=args.jobs)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    hist = genesis_histogram(stats, args.bin_width)
    manifest = {
        "command": "ensemble",
        "config": dict(_config_dict(cfg), runs=args.runs, bin_width=args.bin_width),
        "seed": seed,
        "state": state_desc,
    }
    _emit_outputs(
        Path(args.out),
        manifest,
        {
            "stats.json": stats.write_stats_json,
            "avg_lambda.csv": stats.write_avg_lambda_csv,
            "genesis_hist.csv": hist.to_csv,
            "events.csv": stats.write_events_csv,
        },
    )
    return 0


def _parse_probs(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 4:
        raise UsageError("--state: expected four comma-separated probabilities")
    try:
        return np.array([float(x) for x in parts])
    except ValueError:
        raise UsageError(f"--state: cannot parse {text!r} as numbers") from None


def _grid_rows(n: int):
    """predict --grid: the admissible (rho33, rho44) triangle at
    rho11 = rho22 = (1 - rho33 - rho44)/2, n points per axis; predict
    gives (0, inf) on the diagonal, where both routes are blocked."""
    axis = np.linspace(0.0, 1.0, n)
    for x in axis:
        for y in axis:
            if x + y > 1.0 + 1e-12:
                continue
            s = max(1.0 - x - y, 0.0)
            pred = predict(diagonal_state(np.array([s / 2.0, s / 2.0, x, y])))
            yield x, y, pred.p_cross, pred.mean_time


def cmd_predict(args) -> int:
    if (args.state is None) == (args.grid is None):
        raise UsageError("predict needs exactly one of --state or --grid")
    if args.grid is not None:
        if not args.grid >= 2:
            raise UsageError("--grid: must be >= 2")
        sys.stdout.write("rho33,rho44,p_cross,t_c_tm\n")
        for x, y, p, tc in _grid_rows(args.grid):
            sys.stdout.write(f"{x:.17g},{y:.17g},{p:.17g},{tc:.17g}\n")
        return 0
    probs = _parse_probs(args.state)
    try:
        pred = predict(diagonal_state(probs))
    except ValueError as exc:
        raise UsageError(
            f"--state: {exc} (supported classes: rho11 = rho22 with "
            "rho33 != rho44, or rho33 = rho44 with rho11 != rho22)"
        ) from None
    sys.stdout.write(pred.to_json() + "\n")
    return 0


def cmd_projective(args) -> int:
    seed = _resolve_seed(args)
    k, delta_angle, n_max, n_runs = args.k, args.delta_angle, args.n_max, args.runs
    if (k is None) == (delta_angle is None):
        raise UsageError("projective needs exactly one of --k or --delta-angle")
    if delta_angle is None:
        if not k >= 2.0:
            raise UsageError("--k: must be >= 2 (delta = pi/k <= pi/2)")
        delta_angle = math.pi / k
    elif not 0.0 <= delta_angle <= math.pi / 2.0:
        raise UsageError("--delta-angle: must lie in [0, pi/2]")
    if not n_max >= 1:
        raise UsageError("--n-max: must be >= 1")

    steps = np.arange(1, n_max + 1)
    times = steps * (delta_angle / math.pi)  # t_n = n T_M, T_M = delta/pi T_q
    analytic = np.array([average_concurrence(int(n), delta_angle) for n in steps])

    def table(header, *cols):
        """A writer of steps, times and cols as CSV under header."""
        fmt = ["%d"] + ["%.17g"] * (len(cols) + 1)
        return lambda path: _write_csv(path, header, np.column_stack([steps, times, *cols]), fmt)

    writers = {"curve.csv": table("step,time,avg_concurrence", analytic)}
    if n_runs is not None:
        if not n_runs >= 1:
            raise UsageError("--runs: must be >= 1")
        means, ses = monte_carlo_average(delta_angle, n_max, n_runs, seed=seed)
        writers["mc_comparison.csv"] = table(
            "step,time,analytic,mc_mean,mc_se", analytic, means, ses)
    manifest = {
        "command": "projective",
        "config": {
            "delta_angle": delta_angle,
            "n_max": n_max,
            "runs": n_runs,
        },
        "seed": seed,
        "state": "mixed",
    }
    _emit_outputs(Path(args.out), manifest, writers)
    return 0


# ------------------------------------------------------------- validate


_WORKED = [
    ((0.25, 0.25, 0.49, 0.01), 0.98, 0.020410997260127583),
    ((0.02, 0.02, 0.49, 0.47), 0.98, 0.34657359027997264),
    ((0.26, 0.26, 0.22, 0.26), 0.52, 1.2824746787307684),
    ((0.01, 0.01, 0.0, 0.98), 0.04, 1.9459101490553132),
    ((0.24, 0.24, 0.01, 0.51), 0.9792, 0.020410997260127583),
    ((0.49, 0.01, 0.25, 0.25), 0.98, 0.020410997260127583),
]


def _check_worked_examples():
    err = 0.0
    for probs, p_cross, t_c in _WORKED:
        pred = predict(diagonal_state(np.array(probs)))
        err = max(err, abs(pred.p_cross - p_cross), abs(pred.mean_time - t_c))
    return err < 1e-12, f"max closed-form error {err:.3g}"


def _check_sigma_state():
    sigma = preset_state("sigma-boundary")
    mixed = preset_state("mixed")
    c = wootters_concurrence(sigma)
    hs = hs_half_distance(sigma, mixed)
    td = trace_distance(sigma, mixed)
    err = max(abs(c), abs(hs - 1.0 / 16.0), abs(td - 0.25))
    return err < 1e-12, f"concurrence/distance error {err:.3g}"


def _check_concurrence_oracle(n: int):
    rng = np.random.default_rng(20260814)
    pops = rng.dirichlet(np.ones(4), size=n)
    y = (2.0 * rng.random(n) - 1.0) * np.sqrt(pops[:, 1] * pops[:, 2])
    branch = np.maximum(lambda_branch_max(pops, y), 0.0)
    err = 0.0
    for b, mat in zip(branch, _class_matrices(np.column_stack([pops, y]))):
        err = max(err, abs(b - wootters_concurrence(DensityMatrix(mat))))
    return err < 1e-10, f"max |branch - Wootters| {err:.3g} over {n} states"


def _check_crossing(states, n_runs, jobs):
    worst = 0.0
    details = []
    ok = True
    for probs in states:
        cfg = SimConfig(delta=0.0, k_ratio=1.0, duration=12.0, dt=2e-3, seed=11)
        rep = validate_against_analytics(list(probs), cfg, n_runs, jobs=jobs)
        ok = ok and rep.passed()
        worst = max(worst, abs(rep.fraction_z), abs(rep.mean_z))
        details.append(f"{probs}: z_p={rep.fraction_z:.2f} z_t={rep.mean_z:.2f}")
    return ok, f"worst |z| {worst:.2f} ({'; '.join(details)})"


def _check_projective_mc(n_runs, n_steps):
    means, ses = monte_carlo_average(math.pi / 30.0, n_steps, n_runs, seed=0)
    worst = 0.0
    for n in range(1, n_steps + 1):
        target = average_concurrence(n, math.pi / 30.0)
        z = abs(means[n - 1] - target) / max(ses[n - 1], 1e-12)
        if means[n - 1] == target:
            z = 0.0
        worst = max(worst, z)
    return worst <= 3.0, f"worst |z| {worst:.2f} over {n_steps} steps"


def _check_zeno_rise(n_runs, jobs):
    cfg = SimConfig(k_ratio=30.0, duration=0.3, seed=19)
    stats = run_ensemble(
        cfg, preset_state("mixed"), n_runs, jobs=jobs, rise_threshold=-0.05
    )
    start_ok = stats.avg_lambda[0] == -0.5
    risen = stats.rise_times[~np.isnan(stats.rise_times)]
    median = float(np.median(risen)) if risen.size else math.inf
    return (
        start_ok and median < 0.1,
        f"<L>(0) = {stats.avg_lambda[0]}, median rise {median:.4f} T_q",
    )


def _check_genesis_gap_and_tail(n_runs, jobs):
    cfg = SimConfig(k_ratio=0.3, duration=12.0, seed=23, record_stride=20)
    stats = run_ensemble(cfg, preset_state("mixed"), n_runs, jobs=jobs)
    crossed = stats.crossed_times
    if crossed.size == 0:
        return False, "no genesis events"
    gap = float(crossed.min())
    tail = float(crossed.max())
    return (
        gap > 0.1 and tail > 5.0,
        f"earliest genesis {gap:.3f} T_q, latest {tail:.2f} T_q, "
        f"fraction {stats.crossing_fraction:.3f}",
    )


def _step_bias_detail(n_runs):
    """The class step's coupled dt versus dt / 2 bias at K = 0.3, for a line
    that validate prints and does not gate: the Euler class step misses
    3 standard errors by far."""
    bias, se = coupled_step_bias(
        SimConfig(k_ratio=0.3, duration=5.0, seed=0), preset_state("mixed"), n_runs
    )
    return (f"mean max(L, 0) at 5 T_q, dt minus dt/2: {bias:+.4f} "
            f"(se {se:.4f}, {n_runs} coupled runs)")


def cmd_validate(args) -> int:
    jobs = args.jobs
    if not jobs >= 1:
        raise UsageError("--jobs: must be >= 1")
    fast = args.suite == "fast"
    checks = [
        ("worked-example closed forms", lambda: _check_worked_examples()),
        ("boundary-state distances", lambda: _check_sigma_state()),
        (
            "concurrence branch maximum vs Wootters",
            lambda: _check_concurrence_oracle(2000 if fast else 10000),
        ),
        (
            "measurement-only crossing statistics",
            lambda: _check_crossing(
                [w[0] for w in (_WORKED[:2] if fast else _WORKED)],
                2000 if fast else 10000,
                jobs,
            ),
        ),
        (
            "projective chain vs step average",
            lambda: _check_projective_mc(
                5000 if fast else 100000, 20 if fast else 50
            ),
        ),
        ("fast-projection rise time", lambda: _check_zeno_rise(100 if fast else 1000, jobs)),
    ]
    if not fast:
        checks.append(
            ("genesis-time gap and tail", lambda: _check_genesis_gap_and_tail(4000, jobs))
        )
    info = "coupled step-size bias"
    n_fail = 0
    width = max(len(info), *(len(name) for name, _ in checks))
    for name, fn in checks:
        ok, detail = fn()
        n_fail += not ok
        sys.stdout.write(f"{name:<{width}}  {'PASS' if ok else 'FAIL'}  {detail}\n")
    sys.stdout.write(f"{info:<{width}}  INFO  {_step_bias_detail(256 if fast else 1024)}\n")
    sys.stdout.write(
        f"suite {args.suite}: {len(checks) - n_fail}/{len(checks)} checks passed\n"
    )
    return 1 if n_fail else 0


# ----------------------------------------------------------------- main


def _add_common(sub, out: str, *, state=True):
    sub.add_argument("--config", help="JSON object of flag values by dest (flags override it)")
    sub.add_argument("--seed", type=int, help=f"master seed (default ${_SEED_ENV} or 0)")
    sub.add_argument("--out", default=out, help="output directory (default %(default)s)")
    if state:
        sub.add_argument("--state", default="mixed",
                         help="initial state: preset name or JSON file (default %(default)s)")


def _add_sim_flags(sub):
    sub.add_argument("--k", type=float, default=1.0,
                     help="measurement rate ratio K = T_q/T_M (default %(default)s)")
    sub.add_argument("--dt", type=float, help="integrator step in T_q units (default min(T_q,T_M)/200)")
    sub.add_argument("--duration", type=float, default=1.0,
                     help="run length in T_q units (default %(default)s)")
    sub.add_argument("--record-stride", type=int, dest="record_stride", default=1,
                     help="record every n-th step (default %(default)s)")


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="paritysim",
        description="Continuous two-qubit parity measurement: trajectories, "
        "ensembles, and closed-form crossing analytics.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    t = subs.add_parser("trajectory", help="integrate one conditioned run")
    _add_common(t, "trajectory-out")
    _add_sim_flags(t)
    t.set_defaults(fn=cmd_trajectory)

    e = subs.add_parser("ensemble", help="Monte Carlo ensemble with event statistics")
    _add_common(e, "ensemble-out")
    _add_sim_flags(e)
    e.add_argument("--runs", type=int, default=1000,
                   help="number of trajectories (default %(default)s)")
    e.add_argument("--bin-width", type=float, dest="bin_width", default=0.2,
                   help="genesis histogram bin width in T_q units (default %(default)s)")
    e.add_argument("--jobs", type=int, default=1, help="worker processes (default %(default)s)")
    e.set_defaults(fn=cmd_ensemble)

    p = subs.add_parser("predict", help="closed-form crossing prediction")
    p.add_argument("--state", help="four diagonal probabilities, comma separated")
    p.add_argument("--grid", type=int,
                   help="emit CSV over the (rho33, rho44) triangle, N points per axis")
    p.set_defaults(fn=cmd_predict)

    j = subs.add_parser("projective", help="strong-measurement chain curves")
    _add_common(j, "projective-out", state=False)
    j.add_argument("--k", type=float, help="pulsing rate K (delta = pi/K)")
    j.add_argument("--delta-angle", type=float, dest="delta_angle",
                   help="rotation angle per step, radians in [0, pi/2]")
    j.add_argument("--n-max", type=int, dest="n_max", default=100,
                   help="number of steps (default %(default)s)")
    j.add_argument("--runs", type=int, help="Monte Carlo runs (analytic only if omitted)")
    j.set_defaults(fn=cmd_projective)

    v = subs.add_parser("validate", help="run the internal check suites")
    v.add_argument("--suite", choices=("fast", "full"), default="fast")
    v.add_argument("--jobs", type=int, default=1, help="worker processes (default %(default)s)")
    v.set_defaults(fn=cmd_validate)
    return parser, subs.choices


def _parse_args(argv) -> argparse.Namespace:
    """Parse argv. With --config, parse it again with the config values as
    string defaults of the subcommand's flags: argparse then converts and
    checks them with each flag's own type, and flags still win. Keys are
    flag dests; null keeps the built-in default."""
    parser, commands = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None) is None:
        return args
    sub = commands[args.command]
    try:
        with open(args.config, encoding="ascii") as fh:
            conf = json.load(fh)
    except (OSError, ValueError) as exc:
        sub.error(f"--config: cannot read {args.config!r}: {exc}")
    if not isinstance(conf, dict):
        sub.error("--config: top-level JSON value must be an object")
    known = set(vars(args)) - {"fn", "command", "config"}
    for key, value in conf.items():
        if key not in known:
            sub.error(f"--config: unknown key {key!r} (known: {', '.join(sorted(known))})")
        if value is None:
            continue
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            sub.error(f"--config: {key!r} must be a string, a number or null")
        sub.set_defaults(**{key: str(value)})
    try:
        return parser.parse_args(argv)
    except SystemExit:
        # argv alone parsed above, so a config value was refused
        print(f"{sub.prog}: the refused value is from --config {args.config!r}", file=sys.stderr)
        raise


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass both through
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run a fixed list of paritysim commands and keep every output they make.

Each command runs as `python -m paritysim ...` with this interpreter, in
the caller's environment, from inside OUT with relative paths, so the
manifests do not depend on where OUT is. Every command writes its files
to OUT/<name>/ (when it has --out), and its stdout and exit code to
OUT/<name>.stdout and OUT/<name>.rc. The script first writes two state
files into OUT: offclass.json (the mixed state with rho_14 = 0.01 and
rho_23 = 0.02 + 0.01i) and rho13.json (diag(0.4, 0.3, 0.2, 0.1) with
rho_13 = 0.2).

To compare this checkout with a git revision in one command, pass
--against REV:

    PYTHONPATH=src python scripts/contract_outputs.py OUT --against HEAD

REV's tree is exported with git archive into a temporary directory,
removed afterwards. The command list runs once with PYTHONPATH set to
that tree's src, into OUT/parent, and once with this checkout's src, into
OUT/change. The script then prints `diff -r` of the two directories and
exits non-zero when they differ.

To compare two source trees by hand, run it once per tree with PYTHONPATH
set to that tree's src (an absolute path), then diff the two directories:

    PYTHONPATH=/path/to/a/src python scripts/contract_outputs.py out-a
    PYTHONPATH=/path/to/b/src python scripts/contract_outputs.py out-b
    diff -r out-a out-b
"""

from __future__ import annotations

import argparse
import io
import os
import pathlib
import subprocess
import sys
import tarfile
import tempfile

import numpy as np

from paritysim.qstate import make_state, preset_state, state_to_json

ROOT = pathlib.Path(__file__).resolve().parents[1]

TRAJECTORIES = [
    "--k 0.3 --duration 45.5",
    "--k 1 --duration 10 --seed 3",
    "--k 30 --duration 3 --record-stride 7",
    "--k 1 --duration 5 --state sigma-boundary",
    "--k 2 --duration 5 --state bell-u4 --seed 9",
    "--k 0.3 --duration 10 --seed 8",
    "--k 1 --duration 3 --seed 4 --state offclass.json",
    "--k 1 --duration 3 --seed 4 --state rho13.json",
]
ENSEMBLES = [
    "--k 0.3 --duration 10 --runs 600 --seed 23",
    "--k 30 --duration 1 --runs 300 --record-stride 7",
    "--k 1 --runs 257 --state sigma-boundary",
    "--k 1 --runs 10 --state rho13.json",
    "--k 0.3 --duration 3 --runs 64 --state bell-u2",
    "--k 1 --duration 2 --runs 300 --dt 0.01",
]
# two finite thresholds (refused, exit 2); the odd side r2; the even side,
# through the parity swap; an entangled state, through p_sudden_death
PREDICT_STATES = [
    "0.1,0.2,0.3,0.4",
    "0.25,0.25,0.49,0.01",
    "0.49,0.01,0.25,0.25",
    "0.05,0.05,0.1,0.8",
]
PROJECTIVES = [
    "--k 30 --runs 2000",
    "--k 30 --n-max 50 --runs 20000",
    "--delta-angle 0 --runs 300",
    "--delta-angle 0.05 --n-max 400 --runs 3000",
    "--k 2 --n-max 5 --runs 1",
    "--k 30 --n-max 50 --runs 100000",
]


def commands() -> list[tuple[str, list[str], bool]]:
    """(name, arguments, takes --out) of every command, in run order."""
    out = []
    for jobs in (1, 2):
        for i, flags in enumerate(ENSEMBLES):
            out.append((f"ensemble{i}-j{jobs}", ["ensemble", *flags.split(), "--jobs", str(jobs)],
                        True))
        out.append((f"validate-j{jobs}", ["validate", "--suite", "fast", "--jobs", str(jobs)],
                    False))
    out += [(f"trajectory{i}", ["trajectory", *flags.split()], True)
            for i, flags in enumerate(TRAJECTORIES)]
    out += [(f"projective{i}", ["projective", *flags.split()], True)
            for i, flags in enumerate(PROJECTIVES)]
    out += [(f"predict-state{i}", ["predict", "--state", state], False)
            for i, state in enumerate(PREDICT_STATES)]
    out.append(("predict-grid", ["predict", "--grid", "6"], False))
    return out


def write_states(out: pathlib.Path) -> None:
    off = preset_state("mixed").mat.copy()
    off[0, 3] = off[3, 0] = 0.01
    off[1, 2], off[2, 1] = 0.02 + 0.01j, 0.02 - 0.01j
    rho13 = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    rho13[0, 2] = rho13[2, 0] = 0.2
    for name, mat in (("offclass.json", off), ("rho13.json", rho13)):
        (out / name).write_text(state_to_json(make_state(mat)), encoding="ascii")


def run_commands(out: pathlib.Path, src: pathlib.Path | None = None) -> None:
    """Write the state files and every command's outputs into out, running
    paritysim from src (absolute) if given, else from the caller's
    PYTHONPATH."""
    env = None if src is None else dict(os.environ, PYTHONPATH=str(src))
    out.mkdir(parents=True, exist_ok=True)
    write_states(out)
    for name, argv, has_out in commands():
        if has_out:
            argv = [*argv, "--out", name]
        proc = subprocess.run([sys.executable, "-m", "paritysim", *argv], cwd=out,
                              stdout=subprocess.PIPE, env=env)
        (out / f"{name}.stdout").write_bytes(proc.stdout)
        (out / f"{name}.rc").write_text(f"{proc.returncode}\n", encoding="ascii")
        print(f"{name}: exit {proc.returncode}", file=sys.stderr)


def export_tree(rev: str, dest: pathlib.Path) -> None:
    """Extract the tree of git revision rev of this checkout into dest."""
    tree = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                          stdout=subprocess.PIPE, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tree)) as tar:
        tar.extractall(dest, filter="data")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", type=pathlib.Path, help="directory for every output (created)")
    ap.add_argument("--against", metavar="REV",
                    help="run REV's tree into OUT/parent and this checkout's into "
                         "OUT/change, print diff -r and exit 1 when they differ")
    args = ap.parse_args()
    if args.against is None:
        run_commands(args.out)
        return
    out = args.out.resolve()
    with tempfile.TemporaryDirectory() as tmp:
        export_tree(args.against, pathlib.Path(tmp))
        run_commands(out / "parent", pathlib.Path(tmp, "src"))
    run_commands(out / "change", ROOT / "src")
    sys.exit(subprocess.run(["diff", "-r", str(out / "parent"), str(out / "change")]).returncode)


if __name__ == "__main__":
    main()

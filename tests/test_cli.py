"""Command-line interface: exit codes, manifests, reproducibility."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from paritysim import __version__
from paritysim import cli
from paritysim.cli import main
from paritysim.projective import average_concurrence
from paritysim.qstate import DivergenceError


def read_tree(out_dir):
    return {p.name: p.read_bytes() for p in out_dir.iterdir() if p.is_file()}


def test_trajectory_writes_manifest_and_csv(tmp_path):
    out = tmp_path / "run"
    rc = main(["trajectory", "--k", "2", "--duration", "0.1", "--seed", "3",
               "--out", str(out)])
    assert rc == 0
    man = json.loads((out / "manifest.json").read_text())
    assert man["command"] == "trajectory"
    assert man["seed"] == 3
    assert man["version"] == __version__
    assert man["config"]["k"] == 2.0
    assert man["config"]["dt"] is not None  # resolved value, not the flag default
    assert man["outputs"] == ["trajectory.csv"]
    assert man["state"] == "mixed"
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0].startswith("t,rho_11")
    assert float(lines[1].split(",")[0]) == 0.0


def test_trajectory_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    argv = ["trajectory", "--k", "5", "--duration", "0.05", "--seed", "9"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert read_tree(a) == read_tree(b)


def test_usage_errors_name_the_flag(tmp_path, capsys):
    rc = main(["trajectory", "--dt", "1.0", "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "--dt" in capsys.readouterr().err
    rc = main(["trajectory", "--k", "-1", "--out", str(tmp_path / "y")])
    assert rc == 2
    assert "--k" in capsys.readouterr().err
    rc = main(["trajectory", "--state", "no-such-preset", "--out", str(tmp_path / "z")])
    assert rc == 2
    assert "--state" in capsys.readouterr().err
    # Python's json writes and reads NaN; a state carrying one is a usage error
    nan_file = tmp_path / "nan.json"
    re = (np.eye(4) / 4).tolist()
    re[0][0] = math.nan
    nan_file.write_text(json.dumps({"basis": "bell", "re": re, "im": np.zeros((4, 4)).tolist()}))
    for command in ("trajectory", "ensemble"):
        rc = main([command, "--state", str(nan_file), "--out", str(tmp_path / command)])
        assert rc == 2
        assert "finite" in capsys.readouterr().err


def test_unknown_flag_exits_2(capsys):
    assert main(["trajectory", "--frobnicate"]) == 2
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for name in ("trajectory", "ensemble", "predict", "projective", "validate"):
        assert name in out


def test_divergence_exits_3(tmp_path, monkeypatch, capsys):
    def boom(cfg, state):
        raise DivergenceError("synthetic blow-up")

    monkeypatch.setattr(cli, "simulate", boom)
    rc = main(["trajectory", "--duration", "0.05", "--out", str(tmp_path / "d")])
    assert rc == 3
    assert "synthetic blow-up" in capsys.readouterr().err


def test_ensemble_outputs_and_jobs_invariance(tmp_path):
    base = ["ensemble", "--k", "1", "--duration", "0.05", "--runs", "8",
            "--seed", "4"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(base + ["--out", str(a)]) == 0
    assert main(base + ["--jobs", "2", "--out", str(b)]) == 0
    tree_a, tree_b = read_tree(a), read_tree(b)
    assert set(tree_a) == {"manifest.json", "stats.json", "avg_lambda.csv",
                           "genesis_hist.csv", "events.csv"}
    assert tree_a == tree_b
    stats = json.loads(tree_a["stats.json"])
    assert stats["n_runs"] == 8
    man = json.loads(tree_a["manifest.json"])
    assert man["config"]["runs"] == 8
    assert man["config"]["bin_width"] == 0.2
    assert sorted(man["outputs"]) == ["avg_lambda.csv", "events.csv",
                                      "genesis_hist.csv", "stats.json"]


def test_one_manifest_per_directory(tmp_path):
    out = tmp_path / "shared"
    assert main(["trajectory", "--duration", "0.05", "--out", str(out)]) == 0
    assert main(["ensemble", "--duration", "0.05", "--runs", "2",
                 "--out", str(out)]) == 0
    manifests = [p for p in out.iterdir() if "manifest" in p.name]
    assert len(manifests) == 1


def test_predict_state_json(capsys):
    rc = main(["predict", "--state", "0.25,0.25,0.49,0.01"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["p_cross"] == 0.98
    assert doc["mean_time_tm"] == pytest.approx(0.020410997260127583, abs=1e-15)
    assert doc["initially_entangled"] is False


def test_predict_inf_sentinel(capsys):
    rc = main(["predict", "--state", "0.25,0.25,0.25,0.25"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mean_time_tm"] == "inf"
    assert doc["p_cross"] == 0.0


def test_predict_rejects_unsupported_class(capsys):
    rc = main(["predict", "--state", "0.1,0.2,0.3,0.4"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "rho" in err  # the message states the class conditions


@pytest.mark.parametrize("state", ["nan,0.5,0.25,0.25", "inf,0.5,0.25,0.25",
                                   "0.25,0.25,-inf,0.5"])
def test_predict_rejects_non_finite_populations(capsys, state):
    assert main(["predict", "--state", state]) == 2
    captured = capsys.readouterr()
    assert "--state" in captured.err and "non-finite" in captured.err
    assert "np.float64" not in captured.err
    assert captured.out == ""


def test_predict_needs_exactly_one_mode(capsys):
    assert main(["predict"]) == 2
    capsys.readouterr()
    assert main(["predict", "--state", "0.25,0.25,0.49,0.01", "--grid", "3"]) == 2
    capsys.readouterr()


def test_predict_grid(capsys):
    rc = main(["predict", "--grid", "5"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "rho33,rho44,p_cross,t_c_tm"
    rows = [line.split(",") for line in lines[1:]]
    # admissible triangle only: 5x5 grid on [0,1] keeps x + y <= 1
    assert len(rows) == 15
    for x, y, p, tc in rows:
        assert float(x) + float(y) <= 1.0 + 1e-12
        assert 0.0 <= float(p) <= 1.0
        if x == y:
            assert float(p) == 0.0 and tc == "inf"
    byx = {(r[0], r[1]): r for r in rows}
    # (0.5, 0.25) sits exactly on the border: crossing is immediate and sure
    r = byx[("0.5", "0.25")]
    assert float(r[2]) == 1.0
    assert float(r[3]) == 0.0
    # (0.75, 0) is entangled: P_SD = 2*0.75*0.25/0.75, t_c = 0.5 ln 3
    r = byx[("0.75", "0")]
    assert float(r[2]) == pytest.approx(0.5, rel=1e-12)
    assert float(r[3]) == pytest.approx(0.5 * math.log(3.0), rel=1e-12)


def test_projective_curve_matches_closed_form(tmp_path):
    out = tmp_path / "p"
    rc = main(["projective", "--k", "30", "--n-max", "10", "--out", str(out)])
    assert rc == 0
    man = json.loads((out / "manifest.json").read_text())
    assert man["config"]["delta_angle"] == pytest.approx(math.pi / 30.0)
    assert man["outputs"] == ["curve.csv"]
    rows = np.loadtxt(out / "curve.csv", delimiter=",", skiprows=1)
    assert rows.shape == (10, 3)
    for n, t, val in rows:
        assert t == pytest.approx(n / 30.0, rel=1e-12)
        assert val == pytest.approx(average_concurrence(int(n), math.pi / 30.0),
                                    rel=1e-12)


def test_projective_with_runs_writes_comparison(tmp_path):
    out = tmp_path / "pm"
    rc = main(["projective", "--delta-angle", "0.3", "--n-max", "6",
               "--runs", "400", "--seed", "1", "--out", str(out)])
    assert rc == 0
    rows = np.loadtxt(out / "mc_comparison.csv", delimiter=",", skiprows=1)
    assert rows.shape == (6, 5)
    # MC means track the analytic column within a loose band
    assert np.all(np.abs(rows[:, 3] - rows[:, 2]) <= 5.0 * rows[:, 4] + 1e-12)


def test_projective_one_run_writes_nan_error_silently(tmp_path):
    """One run has no standard error: mc_se reads nan, and nothing (no
    numpy warning) reaches stderr."""
    out = tmp_path / "one"
    proc = subprocess.run(
        [sys.executable, "-m", "paritysim", "projective", "--k", "2", "--n-max", "3",
         "--runs", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    lines = (out / "mc_comparison.csv").read_text().splitlines()
    assert lines[0].split(",")[-1] == "mc_se"
    assert [line.split(",")[-1] for line in lines[1:]] == ["nan"] * 3


def test_projective_zero_angle_curve_is_flat(tmp_path):
    out = tmp_path / "p0"
    rc = main(["projective", "--delta-angle", "0", "--n-max", "5", "--out", str(out)])
    assert rc == 0
    rows = np.loadtxt(out / "curve.csv", delimiter=",", skiprows=1)
    assert np.all(rows[:, 2] == 0.0)


def test_projective_flag_validation(capsys):
    assert main(["projective", "--n-max", "5"]) == 2
    capsys.readouterr()
    assert main(["projective", "--k", "30", "--delta-angle", "0.1"]) == 2
    capsys.readouterr()
    assert main(["projective", "--k", "1"]) == 2
    assert "--k" in capsys.readouterr().err
    assert main(["projective", "--delta-angle", "2.0"]) == 2
    assert "--delta-angle" in capsys.readouterr().err


def test_seed_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("PARITY_SEED", "42")
    out = tmp_path / "env"
    assert main(["trajectory", "--duration", "0.05", "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["seed"] == 42
    out2 = tmp_path / "flag"
    assert main(["trajectory", "--duration", "0.05", "--seed", "7",
                 "--out", str(out2)]) == 0
    assert json.loads((out2 / "manifest.json").read_text())["seed"] == 7


def test_seed_env_invalid(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PARITY_SEED", "not-a-number")
    assert main(["trajectory", "--duration", "0.05",
                 "--out", str(tmp_path / "x")]) == 2
    assert "PARITY_SEED" in capsys.readouterr().err


def test_config_file_precedence(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"k": 2.0, "duration": 0.1, "seed": 5}))
    out = tmp_path / "c"
    rc = main(["trajectory", "--config", str(conf), "--duration", "0.2",
               "--out", str(out)])
    assert rc == 0
    man = json.loads((out / "manifest.json").read_text())
    assert man["config"]["k"] == 2.0          # from config file
    assert man["config"]["duration"] == 0.2   # flag wins
    assert man["seed"] == 5                   # from config file


@pytest.mark.parametrize("argv, conf, named", [
    pytest.param(["ensemble"], {"runs": "1e3"}, "--runs", id="config-runs-1e3"),
    pytest.param(["trajectory"], {"k": "fast"}, "--k", id="config-k-fast"),
    pytest.param(["trajectory"], {"k": True}, "'k'", id="config-k-true"),
    pytest.param(["trajectory"], {"record_stride": 2.5}, "--record-stride",
                 id="config-record_stride-2.5"),
    pytest.param(["ensemble"], {"runs": 1000.0}, "--runs", id="config-runs-1000.0"),
    pytest.param(["trajectory"], {"duraton": 15}, "'duraton'", id="config-duraton"),
    pytest.param(["trajectory"], {"out": ["x"]}, "'out'", id="config-out-list"),
    pytest.param(["ensemble", "--bin-width", "nan"], None, "--bin-width", id="flag-bin-width-nan"),
    pytest.param(["ensemble", "--bin-width", "1e-300"], None, "--bin-width",
                 id="flag-bin-width-1e-300"),
    pytest.param(["projective", "--k", "nan"], None, "--k", id="flag-projective-k-nan"),
    pytest.param(["trajectory", "--duration", "inf"], None, "--duration", id="flag-duration-inf"),
])
def test_bad_flag_and_config_values_exit_2(tmp_path, capsys, argv, conf, named):
    """A value argparse would refuse as a flag is refused in --config too, an
    unknown key or a non-scalar value is refused, and NaN or inf fails the
    range checks: exit 2, the flag or key named, no traceback."""
    argv = argv + ["--out", str(tmp_path / "o")]
    if conf is not None:
        path = tmp_path / "conf.json"
        path.write_text(json.dumps(conf))
        argv += ["--config", str(path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert named in err
    if conf is not None:
        # the usage line lists [--config CONFIG]; the last line names the source
        assert "--config" in err.strip().splitlines()[-1]
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_config_file_must_be_object(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text("[1, 2]")
    assert main(["trajectory", "--config", str(conf)]) == 2
    assert "--config" in capsys.readouterr().err


def test_state_from_json_file(tmp_path):
    from paritysim.qstate import preset_state, state_to_json

    state_file = tmp_path / "state.json"
    state_file.write_text(state_to_json(preset_state("bell-u1")))
    out = tmp_path / "s"
    rc = main(["trajectory", "--duration", "0.05", "--state", str(state_file),
               "--out", str(out)])
    assert rc == 0
    man = json.loads((out / "manifest.json").read_text())
    assert man["state"] == str(state_file)
    rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
    assert rows[0, 1] == pytest.approx(1.0)  # rho_11 of u1


def test_trajectory_state_json_off_and_on_the_class(tmp_path):
    """An off-class JSON state runs on the 4x4 path (lambda undefined, the
    general concurrence finite); a class state runs on the class kernel and
    its off-class columns are exactly zero. A state whose only coherence is
    rho_13 is off the class too: lambda is nan on every row whose class
    residual exceeds 1e-7 and the concurrence is the Wootters value, and
    ensemble refuses it."""
    from paritysim.concurrence import class_residual, wootters_concurrence
    from paritysim.qstate import make_state, preset_state, sanitize, state_to_json
    from paritysim.trajectory import SimConfig, simulate

    mat = np.diag([0.4, 0.1, 0.1, 0.4]).astype(complex)
    mat[0, 3] = mat[3, 0] = 0.2
    rho13 = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    rho13[0, 2] = rho13[2, 0] = 0.2
    cols = {}
    for name, state in (("off", make_state(mat)), ("on", preset_state("sigma-boundary")),
                        ("rho13", make_state(rho13))):
        state_file = tmp_path / f"{name}.json"
        state_file.write_text(state_to_json(state))
        out = tmp_path / name
        rc = main(["trajectory", "--duration", "0.05", "--state", str(state_file),
                   "--out", str(out)])
        assert rc == 0
        path = out / "trajectory.csv"
        header = path.read_text().splitlines()[0].split(",")
        cols[name] = dict(zip(header, np.loadtxt(path, delimiter=",", skiprows=1).T))
    off, on = cols["off"], cols["on"]
    assert np.all(off["re_rho_14"] != 0.0)
    assert np.all(np.isnan(off["lambda"]))
    assert np.all(np.isfinite(off["concurrence"]))
    for name in ("re_rho_14", "im_rho_14", "re_rho_23"):
        assert np.all(on[name] == 0.0)
    assert np.all(np.isfinite(on["lambda"]))

    # the CLI's record, recomputed in-process for the states it holds
    states = simulate(SimConfig(duration=0.05), make_state(rho13)).states
    off_rows = class_residual(states) > 1e-7
    got = cols["rho13"]
    assert off_rows[0]
    assert np.array_equal(np.isnan(got["lambda"]), off_rows)
    wootters = [wootters_concurrence(sanitize(s).state) for s in states[off_rows]]
    assert np.array_equal(got["concurrence"][off_rows], wootters)
    assert got["concurrence"][0] == pytest.approx(0.0472, abs=1e-4)
    rc = main(["ensemble", "--duration", "0.05", "--runs", "2",
               "--state", str(tmp_path / "rho13.json"), "--out", str(tmp_path / "ens")])
    assert rc == 2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "paritysim", "predict",
         "--state", "0.02,0.02,0.49,0.47"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["p_cross"] == 0.98


def test_validate_check_functions():
    ok, detail = cli._check_worked_examples()
    assert ok, detail
    ok, detail = cli._check_sigma_state()
    assert ok, detail
    ok, detail = cli._check_concurrence_oracle(50)
    assert ok, detail
    ok, detail = cli._check_projective_mc(2000, 10)
    assert ok, detail


def test_validate_fails_on_a_numpy_false(monkeypatch, capsys):
    """A check that fails with a numpy bool, as several checks return,
    fails the suite: exit 1, a FAIL line and the pass count shows it. The
    step-bias line is printed and not counted."""
    for name in ("_check_worked_examples", "_check_sigma_state", "_check_concurrence_oracle",
                 "_check_crossing", "_check_zeno_rise"):
        monkeypatch.setattr(cli, name, lambda *a: (np.True_, "stub"))
    monkeypatch.setattr(cli, "_check_projective_mc", lambda *a: (np.False_, "stub"))
    monkeypatch.setattr(cli, "coupled_step_bias", lambda *a: (0.0, 0.0))
    assert main(["validate", "--suite", "fast"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [ln.split()[-2] for ln in lines[:-1]].count("FAIL") == 1
    assert " INFO " in lines[-2]
    assert lines[-1] == "suite fast: 5/6 checks passed"

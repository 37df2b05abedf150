"""The experiment runner: config handling, artifacts, and exit codes."""

import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import trajopt
from trajopt import cli
from trajopt.artifacts import prediction_row
from trajopt.cli import _KEYS, ExperimentConfig, build_config, main, parse_kv_file
from trajopt.models import BENCHMARKS, PendulumModel
from trajopt.solver import SolverConfig


def _run(args):
    return main(args)


def _fast_pendulum(outdir, extra=()):
    return ["run", "--system", "pendulum", "--method", "ilqr",
            "--out", str(outdir), "--set", "horizon=40",
            "--set", "max_iters=60", *extra]


RUN_FILES = ("iterations.csv", "quu_profile.csv", "trajectory.csv",
             "trials.csv", "summary.json")


def test_run_writes_all_artifacts(tmp_path):
    out = tmp_path / "runs"
    assert _run(_fast_pendulum(out)) == 0
    for name in RUN_FILES:
        assert (out / name).exists(), name
    summary = json.loads((out / "summary.json").read_text())
    assert summary["method"] == "ilqr"
    assert summary["system"] == "pendulum"
    assert summary["seed"] == 0
    assert summary["converged"] is True
    assert summary["reason"] in ("gradient", "step")
    assert summary["final_cost"] >= 0.0
    assert "wall_time" in summary
    # no trial diverged, so each stepped all 40 points, as the first rollout did
    trials = (out / "trials.csv").read_text().splitlines()[1:]
    assert all(row.split(",")[3] != "inf" for row in trials)
    assert summary["model_steps"] == 40 * (1 + len(trials))


def test_run_all_methods_share_initial_guess(tmp_path):
    out = tmp_path / "all"
    args = ["run", "--system", "pendulum", "--method", "all",
            "--seed", "3", "--out", str(out),
            "--set", "horizon=30", "--set", "init=random",
            "--set", "max_iters=20"]
    assert _run(args) == 0
    first_costs = set()
    for method in ("ilqr", "newton", "ddp", "hybrid"):
        subdir = out / method
        for name in RUN_FILES:
            assert (subdir / name).exists(), (method, name)
        first_row = (subdir / "iterations.csv").read_text().splitlines()[1]
        first_costs.add(first_row.split(",")[1])
    assert len(first_costs) == 1  # same seed, same initial cost everywhere


def test_unknown_config_key_exits_2(tmp_path, capsys):
    assert _run(["run", "--out", str(tmp_path), "--set", "metod=ilqr"]) == 2
    assert "unknown configuration key" in capsys.readouterr().err


def test_bad_values_exit_2(tmp_path):
    assert _run(["run", "--out", str(tmp_path), "--set", "horizon=abc"]) == 2
    assert _run(["run", "--system", "spring", "--out", str(tmp_path)]) == 2
    assert _run(["run", "--method", "sqp", "--out", str(tmp_path)]) == 2
    assert _run(["run", "--out", str(tmp_path), "--set", "init=warm"]) == 2
    assert _run(["run", "--out", str(tmp_path), "--set", "grad_tol=-1"]) == 2


# the default of each key; a float list is set with the pendulum's two entries
_DEFAULTS = {**{f.name: f.default for f in (*fields(ExperimentConfig), *fields(SolverConfig))},
             **BENCHMARKS["pendulum"][1]}
_NON_FINITE = [f"{key}={value}" + (",0" if isinstance(default, tuple) else "")
               for key, default in _DEFAULTS.items()
               if key in _KEYS and isinstance(default, (float, tuple))
               for value in ("inf", "nan")]


def test_the_non_finite_cases_cover_every_float_key():
    assert len(_NON_FINITE) == 2 * 9
    assert {"grad_tol=nan", "init_amplitude=nan", "step_tol=inf", "x0=nan,0"} <= set(_NON_FINITE)


@pytest.mark.parametrize("setting", _NON_FINITE)
def test_non_finite_values_exit_2(tmp_path, capsys, setting):
    out = tmp_path / "out"
    args = ["run", "--out", str(out), "--set", "init=random", "--set", setting]
    assert _run(args) == 2
    err = capsys.readouterr().err
    # the object that uses the value rejects it, not the CLI's type parser
    assert err.startswith("configuration error:") and "finite" in err
    assert not out.exists()


@pytest.mark.parametrize("method", ["ilqr,ilqr", "ilqr,ddp,ilqr"])
def test_repeated_method_exits_2(tmp_path, capsys, method):
    out = tmp_path / "out"
    assert _run(["run", "--method", method, "--out", str(out)]) == 2
    assert "configuration error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(("settings", "message"), [
    ({"init": "warm"}, "unknown init 'warm'"),
    ({"init_amplitude": -0.5}, "init_amplitude must be nonnegative and finite"),
    ({"init_amplitude": float("nan")}, "init_amplitude must be nonnegative and finite"),
    ({"seed": -1}, "seed must be nonnegative"),
    ({"method": "ilqr,ilqr"}, "method 'ilqr' is repeated"),
    ({"method": "ilqr,sqp"}, "unknown method 'sqp'"),
    ({"system": "spring"}, "unknown system 'spring'"),
    ({"problem": {"horizon": 0}}, "horizon must be at least 1"),
], ids=["init", "amplitude-negative", "amplitude-nan", "seed", "method-repeated",
        "method-unknown", "system", "horizon"])
def test_an_experiment_config_checks_itself(settings, message):
    # cmd_run and cmd_verify take a config built without build_config too
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ExperimentConfig(**settings)


@pytest.mark.parametrize("extra", [["--system", "cartpole"], ["--method", "ddp"],
                                   ["--set", "horizon=100"], ["--set", "max_iters=5"]])
def test_verify_rejects_keys_it_ignores(tmp_path, capsys, extra):
    out = tmp_path / "out"
    assert _run(["verify", "--out", str(out), *extra]) == 2
    assert "configuration error:" in capsys.readouterr().err
    assert not out.exists()


def test_verify_accepts_seed_out_and_init_amplitude(tmp_path):
    cfg = tmp_path / "verify.cfg"
    cfg.write_text(f"seed = 2\ninit_amplitude = 0.5\nout = {tmp_path / 'v'}\n")
    assert _run(["verify", "--config", str(cfg)]) == 0
    assert (tmp_path / "v" / "verify_report.json").exists()


@pytest.mark.parametrize("command", [["run", "--set", "init=random"], ["verify"]])
def test_negative_seed_exits_2(tmp_path, capsys, command):
    out = tmp_path / "out"
    assert _run([*command, "--seed", "-1", "--out", str(out)]) == 2
    assert "configuration error:" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "# pendulum experiment\n"
        "system = pendulum\n"
        "method = ddp\n"
        "horizon = 25\n"
        "seed = 5\n")
    pairs = parse_kv_file(cfg)
    assert pairs == {"system": "pendulum", "method": "ddp",
                     "horizon": "25", "seed": "5"}
    out = tmp_path / "out"
    args = ["run", "--config", str(cfg), "--method", "ilqr",
            "--out", str(out), "--set", "max_iters=10"]
    assert _run(args) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["method"] == "ilqr"  # flag beats the file
    assert summary["seed"] == 5


def test_malformed_config_file_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("system pendulum\n")
    assert _run(["run", "--config", str(cfg)]) == 2
    assert "expected key=value" in capsys.readouterr().err


def test_byte_identical_reruns(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    extra = ["--set", "init=random", "--seed", "9"]
    assert _run(_fast_pendulum(out_a, extra)) == 0
    assert _run(_fast_pendulum(out_b, extra)) == 0
    for name in RUN_FILES:
        if name.endswith(".csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_quu_profile_nonnegative_for_ilqr(tmp_path):
    for seed in (0, 1, 2):
        out = tmp_path / f"s{seed}"
        assert _run(_fast_pendulum(out, ["--seed", str(seed),
                                         "--set", "init=random"])) == 0
        rows = (out / "quu_profile.csv").read_text().splitlines()[1:]
        mins = [float(r.split(",")[1]) for r in rows]
        assert min(mins) >= 0.1 - 1e-10


def test_quu_profile_is_the_solvers_first_sweep(tmp_path):
    # hybrid starts on DDP, so its profile is the DDP sweep, not an iLQR one
    common = ["--seed", "4", "--set", "init=random", "--set", "horizon=30",
              "--set", "max_iters=3"]
    profiles = {}
    for method in ("hybrid", "ilqr", "ddp"):
        out = tmp_path / method
        assert _run(["run", "--method", method, "--out", str(out), *common]) == 0
        profiles[method] = (out / "quu_profile.csv").read_bytes()
    first = (tmp_path / "hybrid" / "iterations.csv").read_text().splitlines()[1]
    assert first.split(",")[7] == "ddp"
    assert profiles["hybrid"] == profiles["ddp"]
    assert profiles["hybrid"] != profiles["ilqr"]


def test_a_converged_start_writes_no_sweep(tmp_path, capsys):
    # the start already meets the gradient tolerance: its one record forms no
    # sweep, not even Newton's iLQR seed, so its sweep cells are empty
    out = tmp_path / "newton"
    assert _run(["run", "--system", "pendulum", "--method", "newton",
                 "--out", str(out), "--set", "grad_tol=1e9"]) == 0
    assert "reason=gradient iterations=1 " in capsys.readouterr().out
    header, row = (out / "iterations.csv").read_text().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["dJ_pred"] == cells["min_quu"] == ""
    assert (cells["dJ_realized"], cells["alpha"], cells["status"]) == ("0", "0", "OK")
    assert (out / "quu_profile.csv").read_text() == "t,min_eig_quu,k_norm,K_norm\n"


def _two_method_run(out):
    return ["run", "--system", "pendulum", "--method", "ilqr,ddp",
            "--out", str(out), "--set", "horizon=30",
            "--set", "init=random", "--seed", "2",
            "--set", "max_iters=15"]


def test_run_with_several_methods_writes_merged_tables(tmp_path):
    out = tmp_path / "cmp"
    assert _run(_two_method_run(out)) == 0
    merged = (out / "merged.csv").read_text().splitlines()
    assert merged[0] == "method,iteration,J,alpha,min_quu,grad_norm,dJ_pred"
    methods = {line.split(",")[0] for line in merged[1:]}
    assert methods == {"ilqr", "ddp"}
    table = (out / "prediction_table.csv").read_text().splitlines()
    assert table[0] == "method,iteration,J,dJ_pred,J_pred,feasible"
    # both runs stop on their gradient; that last record forms no sweep, so
    # its prediction cells are empty in both tables
    rows = [line.split(",") for line in table[1:]]
    last = {cells[0]: i for i, cells in enumerate(rows)}.values()
    for i, (cells, trace) in enumerate(zip(rows, (line.split(",") for line in merged[1:]))):
        if i in last:
            assert cells[3:] == ["", "", ""] and trace[4] == trace[6] == ""
            continue
        assert cells[5] in ("true", "false")
        assert float(cells[4]) == pytest.approx(
            float(cells[2]) + float(cells[3]), rel=1e-12)


def test_merged_rows_are_the_cells_of_each_methods_iterations(tmp_path):
    out = tmp_path / "cmp"
    assert _run(_two_method_run(out)) == 0
    columns = ("J", "alpha", "min_quu", "grad_norm", "dJ_pred")
    expected = []
    for method in ("ilqr", "ddp"):
        header, *rows = (out / method / "iterations.csv").read_text().splitlines()
        for row in rows:
            cells = dict(zip(header.split(","), row.split(",")))
            expected.append(",".join([method, cells["index"], *map(cells.get, columns)]))
    assert (out / "merged.csv").read_text().splitlines()[1:] == expected


def test_one_method_run_writes_no_merged_tables(tmp_path):
    out = tmp_path / "one"
    assert _run(_fast_pendulum(out)) == 0
    assert sorted(path.name for path in out.iterdir()) == sorted(RUN_FILES)


def test_multi_method_warm_start_runs(tmp_path):
    out = tmp_path / "warm"
    args = ["run", "--system", "pendulum", "--method", "ilqr,ddp",
            "--out", str(out), "--set", "warm_start=true",
            "--set", "horizon=40"]
    assert _run(args) == 0
    summary = json.loads((out / "ddp" / "summary.json").read_text())
    assert summary["converged"] is True


def test_one_method_warm_run_starts_like_a_multi_method_one(tmp_path):
    cold = ["--system", "pendulum", "--set", "horizon=20"]
    warm = [*cold, "--set", "warm_start=true"]
    assert _run(["run", "--out", str(tmp_path / "run"), "--method", "ilqr", *warm]) == 0
    assert _run(["run", "--out", str(tmp_path / "cmp"), "--method", "ilqr,ddp", *warm]) == 0
    assert _run(["run", "--out", str(tmp_path / "cold"), "--method", "ilqr", *cold]) == 0

    def first_cost(path):
        return (path / "iterations.csv").read_text().splitlines()[1].split(",")[1]

    assert first_cost(tmp_path / "run") == first_cost(tmp_path / "cmp" / "ilqr")
    assert first_cost(tmp_path / "run") != first_cost(tmp_path / "cold")


def test_prediction_row_flags_unattainable_predictions():
    j_pred, feasible = prediction_row(701.4661, -377.7732)
    assert j_pred == pytest.approx(323.6929, abs=1e-4)
    assert feasible
    j_pred, feasible = prediction_row(2.872408e5, -3.3685e5)
    assert j_pred == pytest.approx(-4.9609e4, rel=1e-4)
    assert not feasible


def test_verify_passes_by_default(tmp_path, capsys):
    out = tmp_path / "verify"
    assert _run(["verify", "--out", str(out), "--seed", "1"]) == 0
    payload = json.loads((out / "verify_report.json").read_text())
    systems = ("pendulum", "cartpole", "linear-m2")
    # per system, 11 derivative checks and six horizons x three sweeps x
    # three blocks (dx, du, lam)
    assert len(payload) == 3 * (11 + 6 * 3 * 3)
    assert all(entry["pass"] for entry in payload)
    for system in systems:
        derivatives = [entry for entry in payload
                       if (entry["system"], entry["certified"]) == (system, "derivatives")]
        assert [entry["check"] for entry in derivatives] == [
            "fx", "fu", "fxx", "fxu", "fuu", "lx", "lxx", "control_grad",
            "control_hess", "terminal_grad", "terminal_hess"]
        for entry in derivatives:
            assert entry["T"] is None and entry["tol"] == 1e-7
            assert 0 <= entry["worst"] < 100
    sweeps = [entry for entry in payload if entry["certified"] != "derivatives"]
    assert {entry["T"] for entry in sweeps} == {1, 2, 5, 20, 100, 200}
    # the horizons the benchmarks run at are certified for every sweep,
    # on both benchmarks and on the two-input linear system
    at_200 = [(entry["system"], entry["certified"], entry["check"])
              for entry in sweeps if entry["T"] == 200]
    assert at_200 == [(system, sweep, block) for system in systems
                      for sweep in ("ilqr", "newton", "ddp")
                      for block in ("dx", "du", "lam")]
    certified = [line.split()[:2] for line in capsys.readouterr().out.splitlines()
                 if "T=200" in line and line.endswith(" ok")]
    assert certified == [[f"[{system}]", sweep] for system in systems
                         for sweep in ("ilqr", "newton", "ddp")]
    for entry in sweeps:
        assert entry["tol"] == 1e-8
        assert 0 <= entry["worst"] <= entry["T"]


def test_verify_detects_injected_jacobian_fault(tmp_path, monkeypatch):
    true_derivatives = PendulumModel._derivatives

    def corrupted(self, x, u):
        fx, fu, fxx, fxu = true_derivatives(self, x, u)
        fx[..., 1, 0] += 0.05
        return fx, fu, fxx, fxu

    monkeypatch.setattr(PendulumModel, "_derivatives", corrupted)
    assert _run(["verify", "--out", str(tmp_path / "v")]) == 1


def test_io_failure_exits_3(tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("not a directory")
    assert _run(_fast_pendulum(blocker)) == 3


def test_initial_divergence_exits_1(tmp_path):
    args = _fast_pendulum(tmp_path / "div", ["--set", "x0=1e9,0"])
    assert _run(args) == 1


def test_python_dash_m_runs_the_cli(tmp_path):
    src = str(Path(trajopt.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))

    def run(*args):
        return subprocess.run([sys.executable, "-m", "trajopt", *args], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=60)

    shown = run("--help")
    assert shown.returncode == 0 and shown.stdout.startswith("usage: trajopt")
    assert "{run,verify}" in shown.stdout  # the only subcommands
    refused = run("run", "--seed", "-1")
    assert refused.returncode == 2
    assert refused.stderr.startswith("configuration error:")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("added", [(), ("quadrotor",)], ids=["benchmarks", "one-more"])
def test_run_help_names_every_system_and_method(capsys, monkeypatch, added):
    # the help is built from the schema: a system added to it shows unedited
    monkeypatch.setattr(cli, "SYSTEMS", cli.SYSTEMS + added)
    with pytest.raises(SystemExit) as exited:
        main(["run", "--help"])
    assert exited.value.code == 0
    shown = capsys.readouterr().out
    for name in (*cli.SYSTEMS, *cli.METHODS, "all"):
        assert re.search(rf"\b{name}\b", shown), name


def test_build_config_defaults_and_methods():
    cfg = build_config({})
    assert cfg.system == "pendulum"
    assert cfg.methods() == ["ilqr"]
    cfg = build_config({"method": "all"})
    assert cfg.methods() == ["ilqr", "newton", "ddp", "hybrid"]
    cfg = build_config({"method": "ilqr,newton"})
    assert cfg.methods() == ["ilqr", "newton"]


def test_the_keys_are_the_flat_fields_of_each_source_once():
    sources = [
        {f.name for f in fields(ExperimentConfig)} - {"problem", "solver"},
        {key for defaults in BENCHMARKS.values() for key in defaults[1]},
        {f.name for f in fields(SolverConfig)} - {"method"},
    ]
    assert set(_KEYS) == set.union(*sources)
    assert len(_KEYS) == sum(map(len, sources))  # no key in two sources
    cfg = build_config({"step_tol": "1e-7", "grad_tol": "1e-6", "max_iters": "7"})
    assert (cfg.solver.step_tol, cfg.solver.grad_tol, cfg.solver.max_iters) == (1e-7, 1e-6, 7)


def test_the_readme_lists_each_configuration_key_once():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("### Configuration keys\n\n", 1)[1]
    listed = re.findall(r"`([^`]+)`", section.split("\n\n", 1)[0])
    assert sorted(listed) == sorted(_KEYS) and len(_KEYS) == 17


def test_build_config_parses_booleans_and_keeps_the_problem_keys_set():
    for text, value in (("false", False), ("No", False), ("0", False),
                        ("true", True), (" YES ", True), ("1", True)):
        assert build_config({"warm_start": text}).warm_start is value
    assert build_config({}).problem == {}
    cfg = build_config({"horizon": "60", "q_diag": "2,0.5", "qt_scale": "50"})
    assert cfg.problem == {"horizon": 60, "q_diag": (2.0, 0.5), "qt_scale": 50.0}
    assert cfg != build_config({}) and hash(cfg) == hash(build_config({"horizon": "60"}))


@pytest.mark.parametrize(("args", "message"), [
    (["--set", "horizon"], "--set expects key=value, got 'horizon'"),
    (["--set", "init_amplitude=-0.5"], "init_amplitude must be nonnegative and finite"),
    (["--set", "warm_start=maybe"], "expected a boolean, got 'maybe'"),
    (["--set", "horizon=5.5"], "bad value for horizon: '5.5'"),
    (["--set", "q_diag=1,2,x"], "expected comma-separated floats, got '1,2,x'"),
    (["--system", "acrobot"], "unknown system 'acrobot'"),
    # accepted by the parser, rejected by the benchmark the configuration builds
    (["--set", "q_diag=1,2,3"], "q_diag length must match the state dimension"),
    (["--system", "cartpole", "--set", "x0=0,0"],
     "x0 and goal length must match the state dimension"),
    (["--set", "horizon=0"], "horizon must be at least 1"),
    (["--set", "timestep=0"], "timestep must be positive"),
    # every line search starts at alpha = 1; there is no key to move it
    (["--set", "alpha_init=0.5"], "unknown configuration key 'alpha_init'"),
    # the line search's ratio threshold and its steps are constants
    (["--set", "sigma=0.2"], "unknown configuration key 'sigma'"),
    (["--set", "rho=0.5"], "unknown configuration key 'rho'"),
    (["--set", "alpha_min=1e-6"], "unknown configuration key 'alpha_min'"),
    # hybrid leaves DDP on a failed DDP iteration only
    (["--set", "hybrid_alpha_switch=0.1"], "unknown configuration key 'hybrid_alpha_switch'"),
    (["--set", "hybrid_patience=2"], "unknown configuration key 'hybrid_patience'"),
], ids=["set-without-equals", "negative-amplitude", "malformed-boolean", "fractional-horizon",
        "bad-float-list", "unknown-system", "q-diag-width", "x0-width", "horizon-0",
        "timestep-0", "alpha-init", "sigma", "rho", "alpha-min", "hybrid-alpha-switch",
        "hybrid-patience"])
def test_configuration_errors_exit_2_with_their_message(tmp_path, capsys, args, message):
    out = tmp_path / "out"
    assert _run(["run", "--out", str(out), *args]) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not out.exists()

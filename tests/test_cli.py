"""End-to-end CLI contract: exit codes, JSON/CSV output, reproducibility."""

import csv
import io
import json
import subprocess
import sys
from importlib.resources import files

import jsonschema
import pytest

from rnnmf import SWEEP_COLUMNS, fixed_point, get_architecture, jacobian, moment_maps, theta_to_json_dict
from rnnmf.cli import run
from rnnmf.moment_maps import step_correlation

from conftest import make_theta, zero_variance_theta


def _schema(name):
    return json.loads((files("rnnmf") / "schemas" / name).read_text())


def _write_theta(tmp_path, arch_name, filename="theta.json", **kw):
    arch = get_architecture(arch_name)
    theta = make_theta(arch, **kw)
    path = tmp_path / filename
    path.write_text(json.dumps(theta_to_json_dict(theta, arch_name)))
    return path


def _rows(text):
    return list(csv.reader(io.StringIO(text)))


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    out = capsys.readouterr().out
    assert "fixed-point" in out and "verify" in out


def test_no_command_prints_help_and_exits_2(capsys):
    assert run([]) == 2
    assert "command" in capsys.readouterr().out


def test_fixed_point_report_is_schema_valid(tmp_path, capsys):
    theta = _write_theta(tmp_path, "GRU")
    assert run(["fixed-point", "--theta", str(theta), "--seed", "0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    jsonschema.validate(doc, _schema("fixed_point_report.schema.json"))
    assert doc["arch"] == "GRU"
    assert 0.0 <= doc["c_star"] <= 1.0
    assert doc["chi"] > 0.0


def test_missing_theta_file_is_a_usage_error(tmp_path, capsys):
    code = run(["fixed-point", "--theta", str(tmp_path / "nope.json")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_theta_json_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["fixed-point", "--theta", str(bad)]) == 2


_HUGE_INT = "1" + "0" * 400  # a JSON integer beyond the float range


def _gate(sigma2=0.0, nu2=0.0, rho2=0.0, mu=0.0):
    return {"sigma2": sigma2, "nu2": nu2, "rho2": rho2, "mu": mu}


def test_invalid_theta_values_are_a_usage_error(tmp_path, capsys):
    doc = {"arch": "GRU", "gates": {"f": _gate(sigma2=-0.5), "r": _gate(), "r2": _gate()}}
    bad = tmp_path / "neg.json"
    bad.write_text(json.dumps(doc))
    assert run(["fixed-point", "--theta", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err
    # an integer too large for a float is a bad file too, not a failed computation
    bad.write_text(json.dumps(doc).replace("-0.5", _HUGE_INT))
    assert run(["fixed-point", "--theta", str(bad)]) == 2
    assert f"error: bad theta file {bad}: gate 'f': sigma2 does not fit a float" in capsys.readouterr().err


def test_arch_flag_must_match_the_file(tmp_path, capsys):
    theta = _write_theta(tmp_path, "GRU")
    assert run(["fixed-point", "--theta", str(theta), "--arch", "LSTM"]) == 2


def test_computation_failure_exits_1_with_json_error(tmp_path, capsys):
    doc = {
        "arch": "peepholeLSTM",
        "gates": {
            "i": _gate(sigma2=0.1, nu2=1.0),
            "f": _gate(mu=10.0),
            "r": _gate(sigma2=0.1, nu2=1.0),
            "o": _gate(sigma2=0.1, nu2=1.0),
        },
    }
    path = tmp_path / "divergent.json"
    path.write_text(json.dumps(doc))
    # this theta converges in 19 map evaluations (its moment map
    # expands for Q below about 1000), so a budget of 10 forces the failure
    assert run(["fixed-point", "--theta", str(path), "--seed", "0", "--max-iter", "10"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NoConvergence"
    assert isinstance(err["message"], str)


def test_saturated_gate_fixed_point_reports_its_chi(tmp_path, capsys):
    # sigmoid(8) saturates the gate: sigma*^2 = 5.9e-7, small enough that
    # differencing the map would resolve only its rounding
    path = _write_theta(tmp_path, "vanillaRNN", sigma2=0.5, nu2=0.5, rho2=0.05, mu_f=8.0)
    assert run(["fixed-point", "--theta", str(path), "--seed", "0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["chi"] == pytest.approx(4.5074e-7, rel=1e-4)


def test_omitted_seed_is_drawn_echoed_and_reproducible(tmp_path, capsys):
    theta = _write_theta(tmp_path, "LSTM")
    assert run(["fixed-point", "--theta", str(theta)]) == 0
    captured = capsys.readouterr()
    line = next(l for l in captured.err.splitlines() if l.startswith("seed = "))
    seed = int(line.split("=")[1])
    assert run(["fixed-point", "--theta", str(theta), "--seed", str(seed)]) == 0
    assert capsys.readouterr().out == captured.out


def test_negative_seed_is_a_usage_error_naming_the_flag(tmp_path, capsys):
    theta = _write_theta(tmp_path, "LSTM")
    assert run(["fixed-point", "--theta", str(theta), "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert any("error:" in l and "--seed" in l for l in captured.err.splitlines())


# the numeric flags whose usage error is not "expected a positive integer";
# --R and --sigma-z report InputStats' own message
_FLAG_ERRORS = {
    "--n-s": "argument --n-s: expected an integer >= 2",
    "--c0": "argument --c0: expected a correlation in [-1, 1]",
    "--R": "argument --R/--sigma-z: R must be >= 0",
    "--sigma-z": "argument --R/--sigma-z: |sigma_z| must be <= 1",
    "--tol": "argument --tol: expected a positive finite number",
    "--target-xi": "argument --target-xi: expected a number >= 0",
}


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["critical-init", "--preset", "standard", "--N", "0"], "--N"),
        (["critical-init", "--preset", "standard", "--N", "-5"], "--N"),
        (["critical-init", "--preset", "standard", "--N", "4", "--input-dim", "-4"], "--input-dim"),
        (["spectrum", "--theta", "THETA", "--N", "8", "--burn-in", "0"], "--burn-in"),
        (["simulate", "--theta", "THETA", "--N", "0", "--T", "5"], "--N"),
        (["simulate", "--theta", "THETA", "--N", "8", "--T", "0"], "--T"),
        (["cell-dist", "--theta", "THETA", "--simulate", "--N", "0"], "--N"),
        (["fixed-point", "--theta", "THETA", "--order", "0"], "--order"),
        (["critical-init", "--search", "--arch", "LSTM", "--order", "0"], "--order"),
        (["fixed-point", "--theta", "THETA", "--max-iter", "0"], "--max-iter"),
        (["fixed-point", "--theta", "THETA", "--n-iters", "-1"], "--n-iters"),
        (["critical-init", "--search", "--arch", "LSTM", "--n-iters", "-1"], "--n-iters"),
        (["fixed-point", "--theta", "THETA", "--n-s", "0"], "--n-s"),
        (["jacobian", "--theta", "THETA", "--n-s", "1"], "--n-s"),
        (["critical-init", "--search", "--arch", "LSTM", "--n-s", "1"], "--n-s"),
        (["fixed-point", "--theta", "THETA", "--R", "-1"], "--R"),
        (["simulate", "--theta", "THETA", "--N", "8", "--T", "2", "--sigma-z", "2"], "--sigma-z"),
        (["fixed-point", "--theta", "THETA", "--c0", "2"], "--c0"),
        (["fixed-point", "--theta", "THETA", "--c0", "nan"], "--c0"),
        (["fixed-point", "--theta", "THETA", "--n-iters", "0"], "--n-iters"),
        (["timescale", "--theta", "THETA", "--n-iters", "0"], "--n-iters"),
        (["jacobian", "--theta", "THETA", "--n-iters", "0"], "--n-iters"),
        (["sweep", "--theta0", "THETA", "--direction", "THETA", "--alphas", "0:1:2", "--n-iters", "0"], "--n-iters"),
        # a tolerance that cannot describe a fixed point: inf accepts the
        # start point, and -1 or nan can never be met
        (["fixed-point", "--theta", "THETA", "--tol", "inf"], "--tol"),
        (["fixed-point", "--theta", "THETA", "--tol", "-1"], "--tol"),
        (["fixed-point", "--theta", "THETA", "--tol", "nan"], "--tol"),
        (["timescale", "--theta", "THETA", "--tol", "0"], "--tol"),
        (["jacobian", "--theta", "THETA", "--tol", "inf"], "--tol"),
        (["spectrum", "--theta", "THETA", "--N", "8", "--tol", "-1"], "--tol"),
        (["fixed-point", "--theta", "THETA", "--R", "inf"], "--R"),
        (["sweep", "--theta0", "THETA", "--direction", "THETA", "--alphas", "0:1:2", "--workers", "0"], "--workers"),
        (["sweep", "--theta0", "THETA", "--direction", "THETA", "--alphas", "0:1:2", "--workers", "-1"], "--workers"),
        (["critical-init", "--search", "--arch", "peepholeLSTM", "--target-xi", "nan"], "--target-xi"),
        (["critical-init", "--search", "--arch", "peepholeLSTM", "--target-xi", "-1"], "--target-xi"),
    ],
)
def test_width_and_step_flags_below_one_are_usage_errors(tmp_path, capsys, argv, flag):
    theta = str(_write_theta(tmp_path, "LSTM"))
    assert run([theta if a == "THETA" else a for a in argv] + ["--seed", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    expected = _FLAG_ERRORS.get(flag, f"argument {flag}: expected a positive integer")
    assert f"error: {expected}" in captured.err



def test_timescale_highlights_xi_on_stderr(tmp_path, capsys):
    theta = _write_theta(tmp_path, "GRU")
    assert run(["timescale", "--theta", str(theta), "--seed", "0"]) == 0
    captured = capsys.readouterr()
    assert "xi = " in captured.err and "steps" in captured.err
    json.loads(captured.out)  # full report still on stdout


def test_jacobian_report_is_schema_valid(tmp_path, capsys):
    theta = _write_theta(tmp_path, "peepholeLSTM")
    assert run(["jacobian", "--theta", str(theta), "--seed", "0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    jsonschema.validate(doc, _schema("jacobian_report.schema.json"))


def test_critical_init_preset_prints_theta(capsys):
    assert run(["critical-init", "--preset", "peephole_critical"]) == 0
    doc = json.loads(capsys.readouterr().out)
    jsonschema.validate(doc, _schema("theta.schema.json"))
    assert doc["arch"] == "peepholeLSTM"
    assert doc["gates"]["f"]["mu"] == 5.0


def test_critical_init_unknown_preset_is_a_usage_error(capsys):
    assert run(["critical-init", "--preset", "nope"]) == 2


def test_critical_init_needs_exactly_one_mode(capsys):
    assert run(["critical-init"]) == 2
    assert run(["critical-init", "--preset", "standard", "--search"]) == 2
    assert run(["critical-init", "--search"]) == 2  # search needs --arch


def test_critical_init_search_reports_progress(capsys):
    code = run(
        ["critical-init", "--search", "--arch", "peepholeLSTM", "--target-xi", "10", "--seed", "0"]
    )
    assert code == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    jsonschema.validate(doc, _schema("theta.schema.json"))
    assert "xi" in captured.err


def _sweep_files(tmp_path):
    theta0 = _write_theta(tmp_path, "GRU", filename="theta0.json", mu_f=0.0)
    direction = tmp_path / "dir.json"
    direction.write_text(json.dumps({"gates": {"f": {"mu": 1.0}}}))
    return theta0, direction


def test_sweep_csv_matches_the_column_contract(tmp_path, capsys):
    theta0, direction = _sweep_files(tmp_path)
    args = [
        "sweep", "--theta0", str(theta0), "--direction", str(direction),
        "--alphas", "0:2:3", "--arch", "GRU", "--seed", "0",
    ]
    assert run(args + ["--workers", "1"]) == 0
    first = capsys.readouterr().out
    rows = _rows(first)
    assert rows[0] == list(SWEEP_COLUMNS)
    assert len(rows) == 4
    assert [r[0] for r in rows[1:]] == ["0", "1", "2"]
    assert all(r[6] == "ok" for r in rows[1:])
    assert run(args + ["--workers", "2"]) == 0
    assert capsys.readouterr().out == first  # worker count cannot change results


def test_sweep_rejects_a_malformed_grid(tmp_path, capsys):
    theta0, direction = _sweep_files(tmp_path)
    code = run(
        ["sweep", "--theta0", str(theta0), "--direction", str(direction),
         "--alphas", "zero-to-two", "--arch", "GRU", "--seed", "0"]
    )
    assert code == 2


@pytest.mark.parametrize("alphas", ["0:inf:3", "nan:1:2", "-inf:0:2"])
def test_sweep_rejects_a_non_finite_grid_endpoint(tmp_path, capsys, alphas):
    # np.linspace(0, inf, 3) is [nan, inf, inf]: no row of such a grid is
    # a point of the ray
    theta0, direction = _sweep_files(tmp_path)
    code = run(
        ["sweep", "--theta0", str(theta0), "--direction", str(direction),
         f"--alphas={alphas}", "--arch", "GRU", "--seed", "0", "--workers", "1"]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: --alphas" in captured.err


def test_sweep_reads_a_grid_starting_with_minus_after_a_space(tmp_path, capsys):
    # argparse alone takes "-1:1:3" for a flag: "expected one argument"
    theta0, direction = _sweep_files(tmp_path)
    args = ["sweep", "--theta0", str(theta0), "--direction", str(direction), "--seed", "0", "--workers", "1"]
    assert run(args + ["--alphas", "-1:1:3"]) == 0
    rows = _rows(capsys.readouterr().out)
    assert [(r[0], r[6]) for r in rows[1:]] == [("-1", "ok"), ("0", "ok"), ("1", "ok")]
    assert run(args + ["--alphas", "-inf:0:2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: --alphas endpoints must be finite" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["fixed-point", "--theta", "THETA"],
        ["jacobian", "--theta", "THETA"],
        ["spectrum", "--theta", "THETA", "--N", "8"],
        ["critical-init", "--search", "--arch", "GRU"],
        ["sweep", "--theta0", "THETA", "--direction", "THETA", "--alphas", "0:1:2"],
    ],
)
def test_an_order_without_a_finite_gauss_hermite_rule_is_a_usage_error(tmp_path, capsys, argv):
    # numpy builds Gauss-Hermite nodes at order 350 but not at 400
    theta = str(_write_theta(tmp_path, "GRU"))
    assert run([theta if a == "THETA" else a for a in argv] + ["--order", "400"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: argument --order: quadrature order 400 unsupported" in captured.err


def test_sweep_rejects_a_gate_the_architecture_lacks(tmp_path, capsys):
    theta0, direction = _sweep_files(tmp_path)
    direction.write_text(json.dumps({"gates": {"ff": {"mu": 1.0}}}))
    code = run(
        ["sweep", "--theta0", str(theta0), "--direction", str(direction),
         "--alphas", "0:2:3", "--seed", "0", "--workers", "1"]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "'ff'" in captured.err


def test_sweep_rejects_a_direction_without_a_gates_object(tmp_path, capsys):
    theta0, direction = _sweep_files(tmp_path)
    direction.write_text(json.dumps({"gates": [1, 2]}))
    code = run(
        ["sweep", "--theta0", str(theta0), "--direction", str(direction),
         "--alphas", "0:2:3", "--seed", "0", "--workers", "1"]
    )
    assert code == 2
    assert "gates" in capsys.readouterr().err


@pytest.mark.parametrize(
    "value, problem",
    [("\"1\"", "must be a number"), ("true", "must be a number"), ("null", "must be a number"),
     ("[1]", "must be a number"), (_HUGE_INT, "does not fit a float"), ("1e400", "must be finite")],
    ids=["\"1\"", "true", "null", "[1]", "huge_int", "inf"],
)
def test_sweep_direction_entries_must_be_numbers(tmp_path, capsys, value, problem):
    theta0, direction = _sweep_files(tmp_path)
    direction.write_text('{"gates": {"f": {"mu": %s}}}' % value)
    code = run(
        ["sweep", "--theta0", str(theta0), "--direction", str(direction),
         "--alphas", "0:2:3", "--seed", "0", "--workers", "1"]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: bad direction file {direction}: gate 'f': mu {problem}" in captured.err


def test_simulate_trajectory_csv(tmp_path, capsys):
    theta = _write_theta(tmp_path, "minimalRNN")
    args = [
        "simulate", "--theta", str(theta), "--N", "32", "--T", "6", "--seed", "0",
    ]
    assert run(args) == 0
    rows = _rows(capsys.readouterr().out)
    assert rows[0] == ["t", "mu", "q", "c", "se_mu", "se_q", "se_c"]
    assert len(rows) == 8
    assert rows[1][0] == "0" and rows[1][3] == "1"  # shared start: c = 1 exactly
    float(rows[-1][1])  # numeric payload


@pytest.mark.parametrize("flag, value", [("--order", "3"), ("--n-s", "7"), ("--n-iters", "5")])
def test_simulate_takes_no_sampler_flags(tmp_path, capsys, flag, value):
    # the simulator reads neither a quadrature order nor the cell sampler's sizes
    theta = _write_theta(tmp_path, "minimalRNN")
    args = ["simulate", "--theta", str(theta), "--N", "8", "--T", "2", "--seed", "0", flag, value]
    assert run(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {flag} {value}" in captured.err


def test_spectrum_takes_no_correlation_start(tmp_path, capsys):
    # spectrum compares the spectrum with the Jacobian moments, which need
    # no correlation solve, so there is no start correlation to steer
    theta = _write_theta(tmp_path, "GRU")
    assert run(["spectrum", "--theta", str(theta), "--N", "8", "--seed", "0", "--c0", "0.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --c0 0.5" in captured.err


@pytest.mark.parametrize("arch_name", ["GRU", "LSTM"])
def test_spectrum_solves_no_correlation(tmp_path, capsys, monkeypatch, arch_name):
    theta = _write_theta(tmp_path, arch_name)
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return step_correlation(*args, **kwargs)

    monkeypatch.setattr(fixed_point, "step_correlation", spy)
    monkeypatch.setattr(moment_maps, "step_correlation", spy)
    args = ["spectrum", "--theta", str(theta), "--N", "8", "--burn-in", "5", "--seed", "0", "--n-s", "16"]
    assert run(args) == 0
    assert calls == []
    assert "predicted m1" in capsys.readouterr().err


def test_simulate_schedule_length_is_checked(tmp_path, capsys):
    theta = _write_theta(tmp_path, "minimalRNN")
    sched = tmp_path / "sched.txt"
    sched.write_text("0.0\n1.0\n")
    code = run(
        ["simulate", "--theta", str(theta), "--N", "16", "--T", "6",
         "--seed", "0", "--sigma-z-schedule", str(sched)]
    )
    assert code == 2


def test_simulate_schedule_entries_are_checked(tmp_path, capsys):
    # a NaN entry fails |s| <= 1 like 1.5 does, rather than poisoning the state
    theta = _write_theta(tmp_path, "minimalRNN")
    sched = tmp_path / "sched.txt"
    sched.write_text("0.0\nnan\n1.0\n")
    code = run(
        ["simulate", "--theta", str(theta), "--N", "16", "--T", "3",
         "--seed", "0", "--sigma-z-schedule", str(sched)]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: bad schedule" in captured.err and "entry 1 = nan" in captured.err


def test_spectrum_csv_and_theory_line(tmp_path, capsys):
    theta = _write_theta(tmp_path, "GRU")
    assert run(["spectrum", "--theta", str(theta), "--N", "32", "--seed", "0"]) == 0
    captured = capsys.readouterr()
    rows = _rows(captured.out)
    assert rows[0] == ["rank", "squared_singular_value"]
    assert len(rows) == 33
    values = [float(r[1]) for r in rows[1:]]
    assert values == sorted(values, reverse=True)
    assert "empirical mean" in captured.err and "predicted m1" in captured.err


@pytest.mark.parametrize("command", [["jacobian"], ["spectrum", "--N", "8", "--burn-in", "5"]], ids=["jacobian", "spectrum"])
@pytest.mark.parametrize("degenerate", [False, True], ids=["make_theta", "zero_variance"])
def test_jacobian_commands_compute_the_moments_once(tmp_path, capsys, monkeypatch, command, degenerate):
    # each command asks for the Jacobian moments once; at a zero-variance
    # fixed point chi is their m1, but chi_at reaches it by Price's slope at
    # full correlation, which builds no contribution vector
    arch = get_architecture("GRU")
    theta = zero_variance_theta(arch) if degenerate else make_theta(arch)
    path = tmp_path / "theta.json"
    path.write_text(json.dumps(theta_to_json_dict(theta, "GRU")))
    calls = []
    contribution_vector = jacobian.contribution_vector

    def spy(*args, **kwargs):
        calls.append(args)
        return contribution_vector(*args, **kwargs)

    monkeypatch.setattr(jacobian, "contribution_vector", spy)
    assert run([*command, "--theta", str(path), "--seed", "0"]) == 0
    assert len(calls) == 1


def test_cell_dist_sampler_csv(tmp_path, capsys):
    theta = _write_theta(tmp_path, "LSTM")
    assert run(["cell-dist", "--theta", str(theta), "--seed", "0", "--n-s", "64"]) == 0
    rows = _rows(capsys.readouterr().out)
    assert rows[0] == ["cell"]
    assert len(rows) == 65


def test_cell_dist_simulator_path(tmp_path, capsys):
    theta = _write_theta(tmp_path, "peepholeLSTM")
    code = run(
        ["cell-dist", "--theta", str(theta), "--simulate", "--N", "24", "--T", "10", "--seed", "0"]
    )
    assert code == 0
    assert len(_rows(capsys.readouterr().out)) == 25


def test_cell_dist_guards_the_architecture(tmp_path, capsys):
    gru = _write_theta(tmp_path, "GRU")
    assert run(["cell-dist", "--theta", str(gru), "--seed", "0"]) == 2
    assert run(["cell-dist", "--theta", str(gru), "--simulate", "--seed", "0"]) == 2
    peep = _write_theta(tmp_path, "peepholeLSTM", filename="peep.json")
    assert run(["cell-dist", "--theta", str(peep), "--seed", "0"]) == 2  # sampler is LSTM-only


def test_verify_battery_passes(capsys):
    assert run(["verify"]) == 0
    out = capsys.readouterr().out
    assert "7/7 checks passed" in out
    assert "FAIL" not in out


def test_console_script_is_wired():
    proc = subprocess.run(
        [sys.executable, "-m", "rnnmf.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "Mean-field" in proc.stdout


def test_cli_start_up_loads_neither_scipy_nor_the_process_pool():
    # both cost import time in every CLI process; only `sweep --workers N`
    # needs the process pool, and nothing needs scipy
    code = (
        "import sys, rnnmf.cli; print(sorted(m for m in sys.modules"
        " if m.split('.')[0] == 'scipy' or m == 'concurrent.futures.process'))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_start_up_loads_every_traced_layer():
    # perfbench/tracer.py and perfbench/defects.py import rnnmf.cli and then
    # look up each layer in sys.modules; the package namespace is lazy, so
    # only the CLI's own imports guarantee they are there
    layers = (
        "core", "quadrature", "moment_maps", "lstm_cell_sampler",
        "fixed_point", "jacobian", "criticality", "simulator",
    )
    code = f"import sys, rnnmf.cli; print([m for m in {layers!r} if 'rnnmf.' + m not in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"

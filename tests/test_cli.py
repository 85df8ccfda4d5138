"""Command-line interface: subcommands, units, config files, exit codes."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rydqnd
from rydqnd import analysis, cli


def run(argv):
    return cli.main(argv)


# ---------------------------------------------------------------------------
# simulate

def test_simulate_writes_deterministic_outputs(tmp_path):
    args = ["simulate", "--n-true", "2", "--omega-mhz", "2.5", "--gamma-mhz", "0.3",
            "--tau-eit-us", "0.3", "--candidates", "1..4", "--seed", "7",
            "--trajectories", "2"]
    assert run(args + ["--outdir", str(tmp_path / "a")]) == cli.EXIT_OK
    assert run(args + ["--outdir", str(tmp_path / "b")]) == cli.EXIT_OK
    a = (tmp_path / "a" / "trajectories.jsonl").read_bytes()
    b = (tmp_path / "b" / "trajectories.jsonl").read_bytes()
    assert a == b
    lines = a.decode().splitlines()
    header = json.loads(lines[0])
    assert header["schema"] == cli.TRAJECTORY_SCHEMA
    # reproducibility header records angular frequencies in rad/s
    assert header["config"]["omega_rad_s"] == pytest.approx(2 * 3.141592653589793 * 2.5e6)
    assert header["config"]["seed"] == 7
    assert len(lines) == 3
    summary = json.loads((tmp_path / "a" / "summary.json").read_text())
    assert summary["n_trajectories"] == 2
    trace = (tmp_path / "a" / "trace_000.csv").read_text().splitlines()
    assert trace[0].startswith("# schema:")
    assert trace[2].split(",")[:5] == ["time_s", "phase", "p_no_rydberg",
                                       "p_rydberg", "fidelity"]


def test_simulate_noiseless_has_unit_fidelity(tmp_path):
    out = tmp_path / "run"
    assert run(["simulate", "--gamma-mhz", "0", "--n-true", "1", "--seed", "3",
                "--max-cycles", "40", "--outdir", str(out)]) == cli.EXIT_OK
    lines = (out / "trajectories.jsonl").read_text().splitlines()
    doc = json.loads(lines[1])
    assert all(f == 1.0 for f in doc["fidelities"])


@pytest.mark.parametrize("gamma_mhz", ["0", "0.3"])
def test_simulate_adaptive_greedy_draws_shared_taus_from_its_grid(gamma_mhz, tmp_path):
    """Both trajectories follow one greedy tau sequence, every tau a point of the
    800-point default grid that the summary records."""
    out = tmp_path / "run"
    assert run(["simulate", "--schedule", "adaptive-greedy", "--gamma-mhz", gamma_mhz,
                "--trajectories", "2", "--max-cycles", "3", "--trace-points", "0",
                "--outdir", str(out)]) == cli.EXIT_OK
    config = json.loads((out / "summary.json").read_text())["config"]
    assert config["schedule"] == {"kind": "adaptive-greedy", "grid_points": 800}
    header, *docs = map(json.loads, (out / "trajectories.jsonl").read_text().splitlines())
    taus = [[entry["tau_s"] for entry in doc["record"]] for doc in docs]
    grid = analysis.default_tau_grid(header["config"]["omega_rad_s"], 800).tolist()
    assert len(taus) == 2 and all(taus) and set(taus[0] + taus[1]) <= set(grid)
    shared = min(map(len, taus))
    assert taus[0][:shared] == taus[1][:shared]


def test_angular_flag_changes_frequency_interpretation(tmp_path):
    out = tmp_path / "run"
    assert run(["simulate", "--angular", "--omega-mhz", "15.707963", "--gamma-mhz", "0",
                "--n-true", "1", "--outdir", str(out), "--max-cycles", "40"]) == cli.EXIT_OK
    header = json.loads((out / "trajectories.jsonl").read_text().splitlines()[0])
    assert header["config"]["omega_rad_s"] == pytest.approx(15.707963e6)


def test_config_file_supplies_values_and_cli_overrides(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_true": 1, "gamma_mhz": 0.0, "seed": 4,
                               "outdir": str(tmp_path / "from_cfg")}))
    assert run(["simulate", "--config", str(cfg), "--max-cycles", "40"]) == cli.EXIT_OK
    header = json.loads((tmp_path / "from_cfg" / "trajectories.jsonl")
                        .read_text().splitlines()[0])
    assert header["config"]["seed"] == 4
    assert header["config"]["n_true"] == 1
    # explicit flag wins over the file value
    assert run(["simulate", "--config", str(cfg), "--seed", "9", "--max-cycles", "40",
                "--outdir", str(tmp_path / "cli_wins")]) == cli.EXIT_OK
    header = json.loads((tmp_path / "cli_wins" / "trajectories.jsonl")
                        .read_text().splitlines()[0])
    assert header["config"]["seed"] == 9


# ---------------------------------------------------------------------------
# infer

def _write_record(path, entries):
    path.write_text(json.dumps(
        {"entries": [{"tau_s": t, "outcome": m} for t, m in entries]}))


def test_infer_empty_record_echoes_prior(tmp_path):
    rec = tmp_path / "rec.json"
    _write_record(rec, [])
    out = tmp_path / "post.json"
    assert run(["infer", str(rec), "--candidates", "1..4",
                "--out", str(out)]) == cli.EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["weights"] == [0.25, 0.25, 0.25, 0.25]
    assert doc["trace"] == [[0.25, 0.25, 0.25, 0.25]]


def test_infer_concentrates_on_consistent_candidate(tmp_path):
    # tau = pi/(2*Omega) makes n=1 certain to flip outcome each cycle
    import math
    omega = 2 * math.pi * 2.5e6
    tau = math.pi / (2 * omega)
    rec = tmp_path / "rec.json"
    outcomes = ["Rydberg", "NoRydberg"] * 4
    _write_record(rec, [(tau, m) for m in outcomes])
    out = tmp_path / "post.json"
    assert run(["infer", str(rec), "--omega-mhz", "2.5", "--candidates", "1..4",
                "--out", str(out)]) == cli.EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["mle_index"] == 0
    assert doc["weights"][0] > 0.9
    assert len(doc["trace"]) == 9


def test_infer_inconsistent_record_exits_3(tmp_path):
    rec = tmp_path / "rec.json"
    _write_record(rec, [(0.0, "Rydberg")])
    assert run(["infer", str(rec), "--gamma-mhz", "0",
                "--candidates", "1..4"]) == cli.EXIT_INCONSISTENT


def test_infer_candidates_file_without_prior_takes_the_uniform_prior(tmp_path):
    rec, cands, out = tmp_path / "rec.json", tmp_path / "cands.json", tmp_path / "post.json"
    _write_record(rec, [])
    cands.write_text(json.dumps({"candidates": [[0, 1], [0, 0, 1], [0, 0.5, 0.5]]}))
    assert run(["infer", str(rec), "--candidates-file", str(cands),
                "--out", str(out)]) == cli.EXIT_OK
    assert json.loads(out.read_text())["trace"] == [[1 / 3, 1 / 3, 1 / 3]]


def test_infer_record_with_an_unknown_outcome_names_the_entry(tmp_path, capsys):
    rec = tmp_path / "rec.json"
    _write_record(rec, [(1e-7, "Rydberg"), (1e-7, "Maybe")])
    assert run(["infer", str(rec)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "entry 1: unknown outcome 'Maybe'" in err and "Traceback" not in err


def test_infer_malformed_record_reports_line(tmp_path, capsys):
    rec = tmp_path / "rec.json"
    rec.write_text('{"entries": [\n  {"tau_s": oops}\n]}')
    assert run(["infer", str(rec)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "line 2" in err


# ---------------------------------------------------------------------------
# oracle-check

def test_oracle_check_passes_on_reduced_grid(tmp_path):
    out = tmp_path / "oracle.json"
    assert run(["oracle-check", "--time-points", "4",
                "--out", str(out)]) == cli.EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    assert doc["worst_deviation"] < 1e-6
    assert len(doc["rows"]) == 15


def test_oracle_check_detects_corrupted_entry(tmp_path, capsys):
    assert run(["oracle-check", "--time-points", "4", "--corrupt-cell", "2,4",
                "--out", str(tmp_path / "oracle.json")]) == cli.EXIT_ORACLE
    err = capsys.readouterr().err
    assert "N=4" in err and "n=2" in err


def test_oracle_check_runs_the_simulator_propagator(tmp_path, capsys, monkeypatch):
    # a propagator that drives 0.1% too long must fail the gate
    from rydqnd import dynamics
    exact = dynamics._propagator
    monkeypatch.setattr(dynamics, "_propagator", lambda n, N, j, omega, gamma, taus:
                        exact(n, N, j, omega, gamma, tuple(1.001 * tau for tau in taus)))
    assert run(["oracle-check", "--time-points", "4",
                "--out", str(tmp_path / "oracle.json")]) == cli.EXIT_ORACLE
    assert "FAIL cell" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--time-points", "0"],
    ["--time-points", "-3"],
    ["--corrupt-cell", "2"],
    ["--corrupt-cell", "a,b"],
    ["--corrupt-cell", "9,9"],
    ["--omega-mhz", "0"],
    ["--omega-mhz", "nan"],
])
def test_oracle_check_rejects_bad_input(flags, tmp_path, capsys):
    out = tmp_path / "oracle.json"
    assert run(["oracle-check", *flags, "--out", str(out)]) == cli.EXIT_USAGE
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# analyze

def test_analyze_detection_time_noiseless(capsys):
    import math
    assert run(["analyze", "detection-time", "--regime", "noiseless",
                "--n", "1..4", "--omega-mhz", "2.5"]) == cli.EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    omega = 2 * math.pi * 2.5e6
    for row in doc["rows"]:
        assert row["t_star_s"] == pytest.approx(math.sqrt(row["n"]) / omega)


def test_analyze_steady_state(capsys):
    assert run(["analyze", "steady-state", "--n", "5"]) == cli.EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["rows"][0]["p_no_rydberg"] == pytest.approx(1 / 6)
    assert doc["rows"][0]["p_rydberg"] == pytest.approx(5 / 6)


def test_analyze_optimize_schedule_toy(capsys):
    assert run(["analyze", "optimize-schedule", "--toy", "appendix-c",
                "--cycles", "2"]) == cli.EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    vals = {(r["strategy"], r["T"]): r["fidelity_percent"] for r in doc["rows"]}
    assert vals[("local", 1)] == pytest.approx(96.59, abs=0.10)
    assert vals[("local", 2)] == pytest.approx(99.84, abs=0.10)
    assert vals[("global", 1)] == pytest.approx(96.52, abs=0.10)
    assert vals[("global", 2)] == pytest.approx(99.89, abs=0.10)


def test_optimize_schedule_past_the_enumeration_guard_fails_before_the_first_step(
        monkeypatch, tmp_path, capsys):
    steps = []
    fidelity_over_grid = analysis._fidelity_over_grid
    monkeypatch.setattr(analysis, "_fidelity_over_grid",
                        lambda *args: steps.append(1) or fidelity_over_grid(*args))
    out, cycles = tmp_path / "schedule.json", str(analysis.MAX_ENUMERATED_CYCLES + 1)
    assert run(["analyze", "optimize-schedule", "--cycles", cycles, "--out", str(out)]
               ) == cli.EXIT_RESOURCE
    assert "2^21 outcome sequences exceed the enumeration guard" in capsys.readouterr().err
    assert not out.exists() and not steps


def test_analyze_csv_output(tmp_path):
    out = tmp_path / "table.csv"
    assert run(["analyze", "detection-time", "--regime", "steady-state",
                "--n", "1..3", "--out", str(out)]) == cli.EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# schema:")
    assert lines[1].startswith("# config:")
    assert lines[2] == "regime,n,t_star_s"
    assert len(lines) == 6


def test_usage_errors_exit_2(tmp_path):
    assert run(["infer", str(tmp_path / "missing.json")]) == cli.EXIT_USAGE
    with pytest.raises(SystemExit) as err:
        run(["analyze", "bogus"])
    assert err.value.code == 2


@pytest.mark.parametrize("argv", [
    ["simulate", "--gamma-mhz", "0", "--schedule", "uniform-random", "--tau-max-us", "inf"],
    ["simulate", "--gamma-mhz", "0", "--tau-us", "nan"],
    ["simulate", "--tau-us", "nan"],
    ["simulate", "--tau-us", "-0.1"],
    ["simulate", "--schedule", "uniform-random", "--tau-min-us", "0.5", "--tau-max-us", "0.1"],
    ["simulate", "--threshold", "nan"],
    ["simulate", "--trajectories", "0"],
    ["analyze", "optimize-schedule", "--cycles", "-1"],
    ["analyze", "optimize-schedule", "--cycles", "0"],
    ["analyze", "optimize-schedule", "--grid-points", "-5"],
    ["analyze", "optimize-schedule", "--grid-points", "0"],
    ["simulate", "--omega-mhz", "nan"],
    ["simulate", "--gamma-mhz", "nan"],
    ["analyze", "detection-time", "--omega-mhz", "0", "--n", "2"],
    ["analyze", "optimize-schedule", "--omega-mhz", "0"],
    ["analyze", "fisher", "--omega-mhz", "nan", "--n", "2"],
    ["analyze", "fisher", "--gamma-mhz", "nan", "--n", "2"],
])
def test_bad_drive_times_and_counts_exit_2(argv, tmp_path, capsys):
    if argv[0] == "simulate":
        argv = argv + ["--max-cycles", "3", "--outdir", str(tmp_path / "run")]
    assert run(argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("flags", [
    ["--omega-mhz", "nan"],
    ["--omega-mhz", "0"],
    ["--omega-mhz", "-2.5"],
    ["--gamma-mhz", "-0.3"],
    ["--gamma-mhz", "nan"],
    ["--gamma-mhz", "0.3", "--tau-eit-us", "nan"],
])
def test_infer_rejects_invalid_rates_and_windows(flags, tmp_path, capsys):
    rec = tmp_path / "rec.json"
    _write_record(rec, [(1e-7, "Rydberg"), (1e-7, "NoRydberg")])
    out = tmp_path / "post.json"
    assert run(["infer", str(rec), *flags, "--out", str(out)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--tau-eit-us", "nan"],
    ["--tau-eit-us", "inf"],
    ["--tau-eit-us=-3"],
    ["--n-atoms=-4"],
    ["--n-atoms", "0"],
])
def test_infer_rejects_invalid_noise_flags_without_dephasing(flags, tmp_path, capsys):
    # posterior.json records tau_EIT and N at gamma = 0 as well
    rec = tmp_path / "rec.json"
    _write_record(rec, [(1e-7, "Rydberg"), (1e-7, "NoRydberg")])
    out = tmp_path / "post.json"
    assert run(["infer", str(rec), "--gamma-mhz", "0", *flags,
                "--out", str(out)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert not out.exists()


def test_infer_without_dephasing_records_valid_noise_flags(tmp_path):
    rec = tmp_path / "rec.json"
    _write_record(rec, [(1e-7, "Rydberg"), (1e-7, "NoRydberg")])
    out = tmp_path / "post.json"
    assert run(["infer", str(rec), "--gamma-mhz", "0", "--tau-eit-us", "0.2",
                "--n-atoms", "6", "--out", str(out)]) == cli.EXIT_OK

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    config = json.loads(out.read_text(), parse_constant=reject)["config"]
    assert config["tau_eit_s"] == pytest.approx(2e-7)
    assert config["N"] == 6


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-3"])
def test_simulate_rejects_invalid_window_without_dephasing(value, tmp_path, capsys):
    # at gamma = 0 the window is recorded as 0.0, but a bad flag is still an error
    outdir = tmp_path / "run"
    assert run(["simulate", "--gamma-mhz", "0", f"--tau-eit-us={value}", "--n-true", "1",
                "--max-cycles", "3", "--outdir", str(outdir)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert not outdir.exists()


def test_simulate_without_dephasing_records_no_window(tmp_path):
    outdir = tmp_path / "run"
    assert run(["simulate", "--gamma-mhz", "0", "--tau-eit-us", "0.2", "--n-true", "1",
                "--max-cycles", "3", "--outdir", str(outdir)]) == cli.EXIT_OK
    assert json.loads((outdir / "summary.json").read_text())["config"]["tau_eit_s"] == 0.0


@pytest.mark.parametrize("name, text, argv", [
    ("cands.json", '{"candidates": [[0, 1]', ["simulate", "--candidates-file"]),
    ("cands.json", '{"prior": [1]}', ["simulate", "--candidates-file"]),
    ("cands.json", "[[0, 1]]", ["infer", "--candidates-file"]),
    ("cands.json", '{"candidates": []}', ["infer", "--candidates-file"]),
    ("cfg.json", '{"seed": 3,\n "n_true" 2}', ["simulate", "--config"]),
    ("cfg.json", '[{"seed": 3}]', ["simulate", "--config"]),
    (None, None, ["simulate", "--candidates", "1..x"]),
    (None, None, ["infer", "--candidates", "3..1"]),
    (None, None, ["analyze", "fisher", "--n", "0"]),
    (None, None, ["analyze", "steady-state", "--n", "0"]),
    (None, None, ["infer", "--n-max", "0"]),
    ("cfg.json", '{"seed": "x"}', ["simulate", "--config"]),
    ("cands.json", '{"candidates": [[0, 1]], "prior": [0.5, 0.5]}', ["infer", "--candidates-file"]),
    (None, None, ["infer", "--candidates", "1..11"]),
    (None, None, ["simulate", "--gamma-mhz", "0", "--n-true", "11"]),
    (None, None, ["analyze", "optimize-schedule", "--toy", "nope"]),
], ids=["candidates-bad-json", "candidates-no-key", "candidates-list", "candidates-empty",
        "config-bad-json", "config-list", "range-not-integer", "range-reversed",
        "fisher-n-zero", "steady-state-n-zero",
        "infer-n-max-zero", "config-wrong-type", "candidates-prior-length",
        "infer-range-past-n-atoms", "noiseless-n-true-past-n-atoms", "unknown-toy"])
def test_malformed_auxiliary_inputs_exit_2(name, text, argv, tmp_path, capsys):
    rec = tmp_path / "rec.json"
    _write_record(rec, [(1e-7, "Rydberg")])
    if name is not None:
        (tmp_path / name).write_text(text)
        argv = argv + [str(tmp_path / name)]
    if argv[0] == "simulate":
        argv = argv + ["--max-cycles", "3", "--outdir", str(tmp_path / "run")]
    elif argv[0] == "infer":
        argv = [argv[0], str(rec), *argv[1:]]
    assert run(argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    if name is not None:
        assert name in err


@pytest.mark.parametrize("name, text, message", [
    ("rec.json", '{"entries": [{"tau_s": true, "outcome": "Rydberg"}]}',
     "entry 0: drive time must be a number, got True"),
    ("rec.json", '{"entries": [{"tau_s": 1e-7, "outcome": "Rydberg"}, '
                 '{"tau_s": "2e-7", "outcome": "Rydberg"}]}',
     "entry 1: drive time must be a number, got '2e-7'"),
    ("cands.json", '{"candidates": [[false, true], [0, 0, 1]]}',
     "candidate 0 must be a list of numbers, got [False, True]"),
    ("cands.json", '{"candidates": [[0, 1], 0.5]}',
     "candidate 1 must be a list of numbers, got 0.5"),
    ("cands.json", '{"candidates": [[0, 1], [0, 0, 1]], "prior": [0.5, "0.5"]}',
     "the prior must be a list of numbers, got [0.5, '0.5']"),
    ("cands.json", '{"candidates": [[]]}', "candidate 0: distribution must be a non-empty vector"),
    ("cands.json", '{"candidates": [[1.5, -0.5]]}',
     "candidate 0: probabilities must be non-negative"),
    ("cands.json", '{"candidates": [[0.0, 0.5, 0.4]]}',
     "candidate 0: probabilities must sum to 1, got 0.9"),
    ("cands.json", '{"candidates": [[0, 1], [0.0, 0.5, 0.4]]}',
     "candidate 1: probabilities must sum to 1, got 0.9"),
    ("cands.json", '{"candidates": [[0, 1], [0, 0, 1]], "prior": [1.5, -0.5]}',
     "the prior: posterior weights must be non-negative"),
    ("cands.json", '{"candidates": [[0, 1], [0, 0, 1]], "prior": [0.5, 0.4]}',
     "the prior: posterior weights must sum to 1"),
], ids=["tau-true", "tau-string", "candidate-booleans", "candidate-number", "prior-string",
        "candidate-empty", "candidate-negative", "candidate-sum", "second-candidate-sum",
        "prior-negative", "prior-sum"])
def test_malformed_input_files_exit_2_naming_the_file_and_entry(name, text, message, tmp_path,
                                                                capsys):
    """A JSON true or a string where a number belongs, and each value the
    distribution types refuse, exit 2 naming the file and the entry, candidate or
    prior, before anything is written."""
    rec, out = tmp_path / "rec.json", tmp_path / "post.json"
    _write_record(rec, [(1e-7, "Rydberg")])
    (tmp_path / name).write_text(text)
    argv = ["infer", str(rec), "--out", str(out)]
    if name == "cands.json":
        argv += ["--candidates-file", str(tmp_path / name)]
    assert run(argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert f"error: {tmp_path / name}: {message}" in err and "Traceback" not in err
    assert not out.exists()


def test_oracle_check_refuses_time_points_past_the_guard(tmp_path, capsys, monkeypatch):
    """One more time point than `MAX_TIME_POINTS` exits 5, naming the value,
    before any dense evolution runs or any file is written."""
    monkeypatch.setattr(cli.dense_oracle, "evolve_dense_grid",
                        lambda *args: pytest.fail("the dense evolution ran"))
    out = tmp_path / "oracle.json"
    points = cli.MAX_TIME_POINTS + 1
    assert run(["oracle-check", "--time-points", str(points), "--out", str(out)]) \
        == cli.EXIT_RESOURCE
    assert f"--time-points {points} exceeds" in capsys.readouterr().err
    assert not out.exists()


def test_large_array_simulation_exits_cleanly(tmp_path):
    # exit 0, or 5 if a resource guard trips; never an uncaught exception
    rc = run(["simulate", "--n-true", "200", "--n-atoms", "700", "--max-cycles", "1",
              "--trace-points", "0", "--outdir", str(tmp_path / "big")])
    assert rc in (cli.EXIT_OK, cli.EXIT_RESOURCE)


def test_version_matches_pyproject(capsys):
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        version = tomllib.load(fh)["project"]["version"]
    assert rydqnd.__version__ == version
    with pytest.raises(SystemExit):
        run(["--version"])
    assert capsys.readouterr().out.strip() == version


def test_python_dash_m_runs_main_and_exits_with_its_code(tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    for argv, code in ((["--help"], cli.EXIT_OK),
                       (["infer", str(tmp_path / "missing.json")], cli.EXIT_USAGE)):
        out = subprocess.run([sys.executable, "-m", "rydqnd", *argv], env=env,
                             capture_output=True, text=True)
        assert out.returncode == code, out.stderr
    assert out.stderr.startswith("error:")


# Run in a fresh interpreter by the test below: prints whether `numpy.ma` is
# loaded after the import and after each command.
_NUMPY_MA_PROBE = """
import json, sys
from pathlib import Path

import rydqnd.cli as cli

seen = {"import": "numpy.ma" in sys.modules}
tmp = Path(sys.argv[1])
record = json.dumps({"entries": [{"tau_s": 2.1e-7, "outcome": m}
                                 for m in ("Rydberg", "NoRydberg", "Rydberg")]})
(tmp / "rec.json").write_text(record)
steps = {
    "simulate-noisy": ["simulate", "--max-cycles", "3", "--outdir", str(tmp / "noisy")],
    "simulate-noiseless": ["simulate", "--gamma-mhz", "0", "--outdir", str(tmp / "pure")],
    "infer-noisy": ["infer", str(tmp / "rec.json"), "--gamma-mhz", "0.3",
                    "--tau-eit-us", "0.3", "--out", str(tmp / "noisy.json")],
    "infer-noiseless": ["infer", str(tmp / "rec.json"), "--out", str(tmp / "pure.json")],
}
for name, argv in steps.items():
    assert cli.main(argv) == 0, name
    seen[name] = "numpy.ma" in sys.modules
print(json.dumps(seen))
"""


def test_simulate_and_infer_start_without_numpy_ma(tmp_path):
    """`numpy.ma` costs a cold start about 13 ms; `simulate` and `infer`, noisy
    and noiseless, never load it."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", _NUMPY_MA_PROBE, str(tmp_path)], env=env,
                         capture_output=True, text=True, check=True)
    seen = json.loads(out.stdout.splitlines()[-1])
    assert seen == dict.fromkeys(["import", "simulate-noisy", "simulate-noiseless",
                                  "infer-noisy", "infer-noiseless"], False)


# ---------------------------------------------------------------------------
# config files, help, and the error-mapping property

@pytest.mark.parametrize("argv", [
    ["simulate", "--gamma-mhz", "0", "--n-true", "-1"],
    ["simulate", "--n-true", "-1"],
    ["simulate", "--trace-points", "-2"],
    ["simulate", "--seed", "-3"],
    ["infer", "--candidates=-1..2"],
    ["analyze", "fisher", "--n", "2", "--time-us", "nan"],
    ["analyze", "fisher", "--n", "2", "--time-us", "inf"],
], ids=["n-true-negative-noiseless", "n-true-negative-noisy", "trace-points-negative",
        "seed-negative", "candidate-negative", "fisher-time-nan", "fisher-time-inf"])
def test_out_of_range_counts_and_times_exit_2(argv, tmp_path, capsys):
    if argv[0] == "simulate":
        argv = argv + ["--max-cycles", "2", "--outdir", str(tmp_path / "run")]
    elif argv[0] == "infer":
        rec = tmp_path / "rec.json"
        _write_record(rec, [(1e-7, "Rydberg")])
        argv = [argv[0], str(rec), *argv[1:]]
    assert run(argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("doc, key", [
    ({"candidates": [1, 2]}, "candidates"),
    ({"eject": "no"}, "eject"),
    ({"schedule": "bogus"}, "schedule"),
    ({"seed": "x"}, "seed"),
    ({"angular": 1}, "angular"),
    ({"outdir": None}, "outdir"),
])
def test_config_values_are_converted_by_their_option(doc, key, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "run"
    assert run(["simulate", "--config", str(cfg), "--max-cycles", "2",
                "--outdir", str(out)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert str(cfg) in err and repr(key) in err and "Traceback" not in err
    assert not out.exists()


def _simulate_files(argv, outdir):
    assert run(["simulate", "--max-cycles", "4", "--trajectories", "2", "--n-true", "3",
                *argv, "--outdir", str(outdir)]) == cli.EXIT_OK
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}


@pytest.mark.parametrize("doc, flags", [
    ({"eject": True}, ["--eject"]),
    ({"candidates": "1..3"}, ["--candidates", "1..3"]),
    ({"angular": True, "omega_mhz": 15.7}, ["--angular", "--omega-mhz", "15.7"]),
    ({"schedule": "uniform-random", "tau_max_us": 0.3},
     ["--schedule", "uniform-random", "--tau-max-us", "0.3"]),
])
def test_config_values_act_like_their_flags(doc, flags, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    from_flags = _simulate_files(flags, tmp_path / "flags")
    assert _simulate_files(["--config", str(cfg)], tmp_path / "file") == from_flags
    # keys that name no option of the subcommand are ignored
    cfg.write_text(json.dumps({**doc, "no_such_option": [1], "time_points": "x"}))
    assert _simulate_files(["--config", str(cfg)], tmp_path / "extra") == from_flags


def test_config_precedence_is_flag_then_file_then_default(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"eject": True, "threshold": 0.9, "n_max": 3}))
    assert (_simulate_files(["--config", str(cfg), "--threshold", "0.95"], tmp_path / "a")
            == _simulate_files(["--eject", "--threshold", "0.95", "--n-max", "3"],
                               tmp_path / "b"))


def test_simulate_help_shows_defaults(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["simulate", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "0.21" in out and "(default: fixed)" in out


RATE_FLAGS = {"simulate": ["--omega-mhz", "--gamma-mhz", "--tau-eit-us", "--tau-us",
                           "--tau-min-us", "--tau-max-us", "--threshold"],
              "infer": ["--omega-mhz", "--gamma-mhz", "--tau-eit-us"],
              "analyze": ["--omega-mhz", "--gamma-mhz", "--time-us"],
              "oracle-check": ["--omega-mhz"]}
COUNT_FLAGS = {"simulate": ["--n-true", "--n-atoms", "--n-max", "--seed", "--trajectories",
                            "--max-cycles", "--trace-points"],
               "infer": ["--n-atoms", "--n-max"],
               "analyze": ["--cycles", "--grid-points"],
               "oracle-check": ["--time-points"]}
RANGE_FLAGS = {"simulate": "--candidates", "infer": "--candidates", "analyze": "--n"}
# a JSON value of the wrong type for each kind of option
WRONG_JSON = {"typed": [[1], True, None, {}], "flag": ["yes", 1, None, [True]],
              "string": [[1, 2], False, None, 3, 2.5]}
CONFIG_KEYS = {"simulate": {"seed": "typed", "tau_us": "typed", "eject": "flag",
                            "angular": "flag", "candidates": "string", "outdir": "string",
                            "schedule": "string"},
               "infer": {"n_max": "typed", "eject": "flag", "candidates": "string"},
               "analyze": {"cycles": "typed", "regime": "string", "n": "string"},
               "oracle-check": {"time_points": "typed", "corrupt_cell": "string"}}
OUT_OF_CHOICES = {"simulate": "schedule", "analyze": "regime"}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("sweep")
    _write_record(path / "rec.json", [(1e-7, "Rydberg"), (2e-7, "NoRydberg")])
    return path


@st.composite
def invalid_argv(draw, workdir):
    """A subcommand with one invalid input; everything else at cheap values."""
    command = draw(st.sampled_from(sorted(RATE_FLAGS)))
    kinds = ["rate", "count", "config"] + (["range"] if command in RANGE_FLAGS else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "rate":
        value = draw(st.sampled_from(["nan", "inf", "-inf", "-0.5", "-1e-9"]))
        bad = [f"{draw(st.sampled_from(RATE_FLAGS[command]))}={value}"]
    elif kind == "count":
        bad = [f"{draw(st.sampled_from(COUNT_FLAGS[command]))}={draw(st.integers(-5, -1))}"]
    elif kind == "range":
        text = draw(st.sampled_from(["", ",", "..", "3..1", "-2..1", "-1", "1..", "a..b"]))
        bad = [f"{RANGE_FLAGS[command]}={text}"]
    else:
        key, want = draw(st.sampled_from(sorted(CONFIG_KEYS[command].items())))
        value = draw(st.sampled_from(WRONG_JSON[want]))
        if command in OUT_OF_CHOICES and draw(st.booleans()):
            key, value = OUT_OF_CHOICES[command], "bogus"
        cfg = workdir / f"cfg_{command}.json"
        cfg.write_text(json.dumps({key: value}))
        bad = ["--config", str(cfg)]
    if command == "simulate":
        base = ["--max-cycles", "2", "--outdir", str(workdir / "run")]
    elif command == "infer":
        base = [str(workdir / "rec.json"), "--out", str(workdir / "post.json")]
    elif command == "analyze":
        base = [draw(st.sampled_from(["fisher", "detection-time", "steady-state",
                                      "optimize-schedule"])),
                "--cycles", "1", "--grid-points", "20", "--n", "1..3",
                "--out", str(workdir / "table.json")]
    else:
        base = ["--time-points", "2"]
    return [command, *base, *bad]


@given(data=st.data())
@settings(max_examples=60)
def test_invalid_inputs_map_to_documented_exit_codes(workdir, data):
    argv = data.draw(invalid_argv(workdir))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            rc = run(argv)
        except SystemExit as exc:  # argparse's own rejections
            rc = exc.code
    assert rc in (0, 2, 3, 4, 5), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if argv[0] == "oracle-check":  # only inputs that fail before integrating
        assert rc == cli.EXIT_USAGE, argv

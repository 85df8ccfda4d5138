"""Command-line interface: subcommands, units, config files, exit codes."""

import json
import tomllib
from pathlib import Path

import pytest

import rydqnd
from rydqnd import cli


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


@pytest.mark.parametrize("flags", [
    ["--time-points", "0"],
    ["--time-points", "-3"],
    ["--corrupt-cell", "2"],
    ["--corrupt-cell", "a,b"],
    ["--corrupt-cell", "9,9"],
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

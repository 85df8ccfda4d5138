"""The log comparison, `scripts/compare_logs.py`: HEAD against itself on a tiny
setting (every golden case and output file, one random batch of each noise
model), and its report on hand-made documents that differ."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))

import compare_logs  # noqa: E402


def test_a_revision_against_itself_is_byte_identical():
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "compare_logs.py"), "--parent", "HEAD",
         "--change", "HEAD", "--random-batches", "1"],
        capture_output=True, text=True, check=True, timeout=300)
    lines = out.stdout.splitlines()[1:]
    for prefix in ("engine fixed-int: ", "engine noisy-greedy: ", "noiseless sweep: 4 ",
                   "noisy sweep: 2 ", "simulate eject trace_000.csv: ",
                   "simulate no-trace trajectories.jsonl: 3 ", "infer noisy posterior.json: 1 "):
        assert any(line.startswith(prefix) for line in lines), prefix
    cases = lines[:lines.index("diverged: 0")]
    assert len(cases) == 20 + 2 + 26 + 6 + 4
    for line in cases:
        docs = line.split(": ")[1].split(" documents")[0]
        assert line.endswith(f"{docs} documents, {docs} byte-identical, 0 diverged")
    assert "oracle csv-7 oracle.csv: 1 documents, 1 byte-identical, 0 diverged" in cases
    cells = lines.index("oracle pass or passed flipped: none")
    assert lines[cells - 15:cells] == [f"  {cell}: 0" for cell in (
        f"N={N} n={n} gamma/omega={g:g}" for N, n in ((2, 1), (3, 1), (4, 2), (5, 2), (5, 3))
        for g in (0.0, 0.1, 1.0))]
    assert lines[-1] == "fields that moved, largest |delta| over all documents: none"


def _log(outcomes, posteriors, taus=None, converged=True):
    taus = taus or [0.5] * len(outcomes)
    return json.dumps({"record": [{"outcome": o, "tau_s": t} for o, t in zip(outcomes, taus)],
                       "posteriors": posteriors, "converged": converged})


def test_moved_fields_and_diverged_logs_are_reported():
    parent = {"engine a": {"log 0": _log(["Rydberg"], [[0.5, 0.5], [0.25, 0.75]]),
                           "log 1": _log(["Rydberg", "NoRydberg"], [[1.0], [1.0], [1.0]]),
                           "log 2": _log(["Rydberg"], [[1.0], [1.0]], taus=[0.25])},
              "infer b posterior.json": {"file": json.dumps({"weights": [0.5, 0.5]})}}
    change = {"engine a": {"log 0": _log(["Rydberg"], [[0.5, 0.5], [0.25, 0.75 + 1e-16]],
                                         converged=False),
                           "log 1": _log(["Rydberg", "Rydberg"], [[1.0], [1.0], [0.0]]),
                           "log 2": _log(["Rydberg"], [[1.0], [1.0]], taus=[0.3])},
              "infer b posterior.json": {"file": json.dumps({"weights": [0.5, 0.5]})}}
    lines, diverged, total = compare_logs.compare(parent, change)
    assert lines == ["engine a: 3 documents, 0 byte-identical, 2 diverged; "
                     "max |delta| converged 1 differ, posteriors 1.11e-16",
                     "infer b posterior.json: 1 documents, 1 byte-identical, 0 diverged"]
    assert diverged == ["engine a log 1: cycle 1 outcome flipped NoRydberg -> Rydberg",
                        "engine a log 2: cycle 0 drive time 0.25 -> 0.3"]
    assert total == {"converged": 1, "posteriors": 0.75 + 1e-16 - 0.75}


def _oracle(devs, passed, csv=False):
    rows = [{"N": 2, "n": 1, "gamma_over_omega": g, "max_deviation": d, "pass": d <= 1e-6}
            for g, d in zip((0.0, 0.1), devs)]
    if csv:
        return "# schema\nN,n,gamma_over_omega,max_deviation,pass\n" + "".join(
            f"{r['N']},{r['n']},{r['gamma_over_omega']},{r['max_deviation']},{r['pass']}\n"
            for r in rows)
    return json.dumps({"passed": passed, "rows": rows})


def test_oracle_cells_report_deviations_and_flips():
    parent = {"oracle a oracle.json": {"file": _oracle([1e-15, 2e-15], True)},
              "oracle b oracle.csv": {"file": _oracle([1e-15, 2e-15], None, csv=True)},
              "engine c": {"log 0": _log(["Rydberg"], [[1.0], [1.0]])}}
    change = {"oracle a oracle.json": {"file": _oracle([4e-15, 2e-15], False)},
              "oracle b oracle.csv": {"file": _oracle([1e-15, 3e-6], None, csv=True)},
              "engine c": {"log 0": _log(["Rydberg"], [[1.0], [1.0]])}}
    cells, flips = compare_logs.oracle_cells(parent, change)
    assert cells == {"N=2 n=1 gamma/omega=0": pytest.approx(3e-15),
                     "N=2 n=1 gamma/omega=0.1": pytest.approx(3e-6 - 2e-15)}
    assert flips == ["oracle a oracle.json: passed True -> False",
                     "oracle b oracle.csv N=2 n=1 gamma/omega=0.1: pass True -> False"]

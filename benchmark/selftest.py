"""Tests of the benchmark itself.  Run: python3 -m pytest benchmark/selftest.py

The file name keeps it out of the repository's default test collection; the
smoke runs start worker processes and take about a minute in all.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from rydqnd import inference  # noqa: E402
from rydqnd.records import NO_RYDBERG, RYDBERG, MeasurementRecord  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_spec_lists_what_the_benchmark_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in SPEC["per_layer"]] == [n for n, _ in tracing.per_layer_names()]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke(workload):
    result = bench(workload, seed=5, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_reference_agrees_with_program_likelihood():
    rng = np.random.default_rng(7)
    omega = 2 * math.pi * 2.5e6
    for n in (1, 2, 3, 4):
        taus = rng.uniform(0.05e-6, 0.4e-6, 60)
        rydberg = reference.sample_noiseless(rng, taus, n, omega)
        record = MeasurementRecord([(float(t), RYDBERG if m else NO_RYDBERG)
                                    for t, m in zip(taus, rydberg)])
        ours = reference.noiseless_log_likelihoods(taus, rydberg, [1, 2, 3, 4], omega)[:, -1]
        theirs = [inference.log_likelihood_noiseless(record, k, omega) for k in (1, 2, 3, 4)]
        np.testing.assert_allclose(ours, theirs, rtol=1e-9)


@pytest.fixture
def infer_workload(tmp_path):
    from workloads import InferRecords
    InferRecords(tmp_path, 3, tiny=True).generate(1)
    wl = InferRecords(tmp_path, 3, tiny=True)
    op = next(o for o in wl.manifest["rounds"][0] if o["kind"] == "noiseless")
    return wl, op


def test_wrong_posterior_counts_as_failed(infer_workload):
    wl, op = infer_workload
    assert worker._run_op(wl, op)["ok"]
    real_call = wl.call

    def tampered(op):
        rc = real_call(op)
        doc = json.loads(wl.out.read_text())
        doc["trace"][1] = doc["trace"][1][::-1]
        wl.out.write_text(json.dumps(doc))
        return rc

    wl.call = tampered
    rec = worker._run_op(wl, op)
    assert not rec["ok"] and rec["wrong"]
    assert "reference" in rec["reason"]


def test_nonzero_exit_counts_as_failed(infer_workload):
    wl, op = infer_workload
    wl.call = lambda op: 3
    rec = worker._run_op(wl, op)
    assert not rec["ok"] and not rec["wrong"]
    doc = {"workload": "infer_records", "peak_rss_mb": 1.0,
           "input_properties": {}, "setup_s": 1.0, "setup_calibration_s": [0.03],
           "calibration_s": [0.03],
           "ops": [{"latency_s": 0.1, "ok": True, "wrong": False, "reason": "", "items": 1,
                    "cycles": 5, "decided": 1, "hits": 1},
                   {"latency_s": 0.1, "ok": rec["ok"], "wrong": rec["wrong"],
                    "reason": rec["reason"]}]}
    metrics, report = run.end_to_end(doc, [doc])
    assert metrics["ok_frac"][0] == 0.5 and report["failed_frac"] == 0.5


def test_distillation_off_born_weights_counts_as_wrong(tmp_path):
    from workloads import NoiselessDistill, OpResult
    wl = NoiselessDistill(tmp_path, 1, tiny=True)
    fair, skewed = OpResult(counts=[100, 60, 40]), OpResult(counts=[160, 20, 20])
    records = [{"op": {"schedule": k}, "ok": True, "wrong": False, "reason": "",
                "result": skewed if k == 2 else fair} for k in (0, 1, 2)]
    wl.finish(records)
    assert [r["ok"] for r in records] == [True, True, False]
    assert records[2]["wrong"] and "adaptive-greedy" in records[2]["reason"]

    def ten_ops(first, second):
        return [{"op": {"schedule": 0}, "ok": True, "wrong": False, "reason": "",
                 "result": first if i < 5 else second} for i in range(10)]

    one_excursion, two_in_a_row = ten_ops(skewed, fair), ten_ops(skewed, skewed)
    wl.finish(one_excursion)
    wl.finish(two_in_a_row)
    assert all(r["ok"] for r in one_excursion)
    assert not any(r["ok"] for r in two_in_a_row)


def test_traced_calls_repeat_exactly():
    first = bench("noisy_simulate", seed=9, trace=1)["metrics"]
    second = bench("noisy_simulate", seed=9, trace=1)["metrics"]
    calls = [k for k in first if k.endswith(".calls")]
    assert calls and all(first[k]["value"] == second[k]["value"] for k in calls)
    assert first["symbasis.build_block.calls"]["value"] > 0
    assert first["dense_oracle.evolve_dense.calls"]["value"] == 0


def test_distillation_touches_no_block_layers():
    metrics = bench("noiseless_distill", seed=9, trace=1)["metrics"]
    assert metrics["engine.run_protocol.calls"]["value"] > 0
    for label in tracing.LABELS:
        if label.startswith(("symbasis.", "dense_oracle.", "cli.")) or label == "dynamics.expm":
            assert metrics[f"{label}.calls"]["value"] == 0, label

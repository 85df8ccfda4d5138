"""`scripts/bench_json.py` turns paired benchmark result lines into a BENCH file."""

import importlib.util
import json
import os
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_json.py"
spec = importlib.util.spec_from_file_location("bench_json", SCRIPT)
bench_json = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_json)


def _result(path, items, p50, when):
    metrics = {"items_per_s": items, "cycles_per_s": 10 * items, "op_p50_ms": p50,
               "ok_frac": 1.0, "setup_s": 0.4, "peak_rss_mb": 70.0}
    report = {"raw": {"items_per_s": items}, "speed_scale": 0.7,
              "environment": {"python": "3.11"}}
    result = {"correct": True, "attempted": 8, "failed": 0,
              "metrics": {k: {"value": v, "unit": "u"} for k, v in metrics.items()}}
    path.write_text("progress\nreport " + json.dumps(report) + "\n" + json.dumps(result) + "\n")
    os.utime(path, (when, when))


def test_pairs_are_summarised_in_the_better_direction(tmp_path):
    runs = {1: ((40.0, 20.0), (100.0, 7.0)), 2: ((50.0, 18.0), (45.0, 19.0)),
            3: ((44.0, 19.0), (90.0, 8.0))}
    paths = []
    for seed, (parent, change) in runs.items():
        for k, (side, (items, p50)) in enumerate((("parent", parent), ("change", change))):
            path = tmp_path / f"infer_records__{seed}__{side}.out"
            # seed 2 runs the change first
            _result(path, items, p50, 1000 * seed + (1 - k if seed == 2 else k))
            paths.append(path)
    out = tmp_path / "BENCH_x.json"
    assert bench_json.main(["--label", "x", "--claim", "c", "--parent", "p", "--change", "q",
                            "--out", str(out), *map(str, paths)]) == 0
    doc = json.loads(out.read_text())
    (workload,) = doc["workloads"]
    assert workload["seeds"] == [1, 2, 3]
    items, p50 = workload["summary"]["items_per_s"], workload["summary"]["op_p50_ms"]
    assert items["change_wins"] == 2 and p50["change_wins"] == 2
    assert items["parent_q1_median_q3"] == [42.0, 44.0, 47.0]
    assert items["ratio_of_medians"] == pytest.approx(90.0 / 44.0)
    assert [run["change"]["first"] for run in workload["runs"]] == [False, True, False]
    assert doc["git_revisions"] == {"parent": "p", "change": "q"}


def test_unpaired_or_misnamed_results_are_refused(tmp_path):
    lone = tmp_path / "oracle_check__7__parent.out"
    _result(lone, 1.0, 1.0, 1.0)
    with pytest.raises(SystemExit):
        bench_json.main(["--label", "x", "--claim", "c", "--parent", "p", "--change", "q",
                         "--out", str(tmp_path / "o.json"), str(lone)])
    odd = tmp_path / "oracle_check-7-parent.out"
    _result(odd, 1.0, 1.0, 1.0)
    with pytest.raises(SystemExit):
        bench_json.main(["--label", "x", "--claim", "c", "--parent", "p", "--change", "q",
                         "--out", str(tmp_path / "o.json"), str(odd)])

"""The in-process A/B harness, `scripts/ab_inprocess.py`, on a tiny setting:
HEAD against itself, two ops per workload, a two-row RSS batch and a two-trajectory
fresh-process simulate."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_the_harness_reports_every_workload_and_both_sides():
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ab_inprocess.py"), "--parent", "HEAD",
         "--change", "HEAD", "--ops", "2", "--rows", "2", "--rss-rows", "2", "--rss-cycles", "2",
         "--sim-trajectories", "2"],
        capture_output=True, text=True, check=True, timeout=300)
    lines = out.stdout.splitlines()
    for name in ("simulate", "infer", "fixed_infer", "traced_batch", "untraced_batch",
                 "eject_batch", "noiseless_batch", "noiseless_random_batch",
                 "noiseless_greedy_batch", "oracle"):
        line = next(text for text in lines if text.startswith(f"{name}: "))
        assert "summed time ratio" in line and "median op ratio" in line
    mix = [text for text in lines if text.startswith("noiseless mix (")]
    assert len(mix) == 1
    assert ("noiseless_batch + noiseless_random_batch + noiseless_greedy_batch"
            in mix[0]) and "summed time ratio" in mix[0]
    assert float(mix[0].rsplit(" ", 1)[1]) > 0
    for side in ("parent", "change"):
        assert any(text.startswith(f"rss {side}: ") and "MB" in text for text in lines)
        assert sum(bool(re.fullmatch(rf"simulate {side}: \d+\.\d\d s, \d+\.\d MB peak RSS over "
                                     r"a traced 2-trajectory simulate in a fresh process", text))
                   for text in lines) == 1
    # the same revision on both sides writes the same files: two traces, the log, the summary
    assert "simulate files: 4 written, identical on the two sides" in lines


def test_the_harness_times_only_the_named_workloads():
    """``--workloads`` times the named workloads alone, and the noiseless mix's line
    needs all three noiseless workloads; an unknown name is a usage error."""
    tiny = [sys.executable, str(ROOT / "scripts" / "ab_inprocess.py"), "--parent", "HEAD",
            "--change", "HEAD", "--ops", "2", "--rows", "2", "--rss-rows", "2",
            "--rss-cycles", "2", "--sim-trajectories", "2"]
    out = subprocess.run([*tiny, "--workloads", "noiseless_batch,traced_batch"],
                         capture_output=True, text=True, check=True, timeout=300)
    timed = [text.split(":")[0] for text in out.stdout.splitlines() if "summed time ratio" in text]
    assert timed == ["traced_batch", "noiseless_batch"]  # in the harness's order, no mix line
    bad = subprocess.run([*tiny, "--workloads", "simulate,nope"], capture_output=True, text=True,
                         timeout=300)
    assert bad.returncode == 2 and "unknown workloads nope" in bad.stderr

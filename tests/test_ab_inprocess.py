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

"""The in-process A/B harness, `scripts/ab_inprocess.py`, on a tiny setting:
HEAD against itself, one op per workload, a two-row RSS batch."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_the_harness_reports_every_workload_and_both_sides():
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ab_inprocess.py"), "--parent", "HEAD",
         "--change", "HEAD", "--ops", "2", "--rows", "2", "--rss-rows", "2", "--rss-cycles", "2"],
        capture_output=True, text=True, check=True, timeout=300)
    lines = out.stdout.splitlines()
    for name in ("simulate", "traced_batch", "untraced_batch", "noiseless_batch",
                 "noiseless_random_batch", "noiseless_greedy_batch"):
        line = next(text for text in lines if text.startswith(f"{name}: "))
        assert "summed time ratio" in line and "median op ratio" in line
    for side in ("parent", "change"):
        assert any(text.startswith(f"rss {side}: ") and "MB" in text for text in lines)

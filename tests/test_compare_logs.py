"""The log comparison, `scripts/compare_logs.py`, on a tiny setting: HEAD
against itself, the noiseless golden cases and one random batch."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_a_revision_against_itself_is_byte_identical():
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "compare_logs.py"), "--parent", "HEAD",
         "--change", "HEAD", "--random-batches", "1"],
        capture_output=True, text=True, check=True, timeout=300)
    lines = out.stdout.splitlines()[1:]
    assert any(line.startswith("fixed-int: ") for line in lines)
    assert lines[-1].startswith("random sweep: 4 logs, 4 byte-identical, 4 identical")
    for line in lines:
        logs = line.split(": ")[1].split(" logs")[0]
        assert f"{logs} byte-identical, {logs} identical" in line and line.endswith("|dp| 0")

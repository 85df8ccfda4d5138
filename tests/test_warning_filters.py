"""The tier-1 warning filters, run on a throwaway test file in a pytest
subprocess with this repository's configuration: a failing property test is
reported and the session goes on, and a DeprecationWarning that is not the
one third-party message the configuration ignores still fails its test."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = '''
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st


def deprecated():
    warnings.warn("deprecated() is deprecated", DeprecationWarning)


@settings(database=None, derandomize=True)
@given(st.integers(0, 10))
def test_a_failing_property(x):
    assert x < 5


def test_b_own_deprecation():
    deprecated()


def test_c_later_test():
    pass
'''


def test_a_failing_property_test_does_not_end_the_session(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE)
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "--rootdir",
         str(tmp_path), "-p", "no:cacheprovider", "-rA", str(tmp_path / "test_probe.py")],
        capture_output=True, text=True, cwd=tmp_path, timeout=300)
    assert "INTERNALERROR" not in out.stdout + out.stderr
    assert "FAILED test_probe.py::test_a_failing_property" in out.stdout
    assert "FAILED test_probe.py::test_b_own_deprecation - DeprecationWarning" in out.stdout
    assert "PASSED test_probe.py::test_c_later_test" in out.stdout
    assert "2 failed, 1 passed" in out.stdout

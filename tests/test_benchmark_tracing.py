"""The benchmark's traced names still exist in the program.

`benchmark/tracing.py` wraps each (module, attribute) pair of its `TRACED`
table when `benchmark/run.py --trace` runs; a renamed or deleted function
would break that run, so this checks every pair resolves.
"""

import importlib
import importlib.util
from functools import reduce
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def _traced():
    spec = importlib.util.spec_from_file_location("_benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("label, module, attr", [row[:3] for row in _traced()])
def test_traced_name_resolves(label, module, attr):
    target = reduce(getattr, attr.split("."), importlib.import_module(f"rydqnd.{module}"))
    assert callable(target), label

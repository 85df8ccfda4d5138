"""The benchmark's traced names still exist in the program.

`benchmark/tracing.py` wraps each (module, attribute) pair of its `TRACED`
table when `benchmark/run.py --trace` runs; a renamed or deleted function
would break that run, so this checks every pair resolves, and that importing
the CLI alone loads every module the table names.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from functools import reduce
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "benchmark" / "tracing.py"


def _traced():
    spec = importlib.util.spec_from_file_location("_benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("label, module, attr", [row[:3] for row in _traced()])
def test_traced_name_resolves(label, module, attr):
    target = reduce(getattr, attr.split("."), importlib.import_module(f"rydqnd.{module}"))
    assert callable(target), label


# Run in a fresh interpreter: `import rydqnd.cli` alone, then the tracer's install.
_INSTALL_PROBE = """
import importlib.util, sys
import rydqnd.cli
spec = importlib.util.spec_from_file_location("tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
missing = sorted({m for _, m, *_ in tracing.TRACED if "rydqnd." + m not in sys.modules})
assert not missing, missing
assert callable(sys.modules["rydqnd.dynamics"].expm)
assert callable(sys.modules["rydqnd.cli"].expm)
tracing.Tracer().install()
print("ok")
"""


def test_cli_import_alone_loads_every_traced_module():
    # `Tracer.install` looks the traced modules up in sys.modules after a
    # workload's warm-up, which may not touch dense_oracle or call expm; so
    # `import rydqnd.cli` alone must bring in every traced module and both
    # `expm` bindings.
    out = _probe(_INSTALL_PROBE, str(TRACING))
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"


def _probe(code: str, *args: str) -> subprocess.CompletedProcess:
    """code run in a fresh interpreter with src and benchmark first on PYTHONPATH."""
    paths = (str(ROOT / "src"), str(ROOT / "benchmark"), os.environ.get("PYTHONPATH"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True)


def test_the_untraced_benchmark_imports():
    # workloads builds its schedules and imports from rydqnd when it is
    # imported, and selftest imports every benchmark module: an API change
    # that breaks the benchmark fails here first
    out = _probe("import workloads, selftest; print('ok')")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"

"""What `import rydqnd` exports: the names the commands run.

The one-state references below are defined in their own modules, where the
benchmark harness and the tests read them; the package does not export them.
`SequentialInference` stays exported as the one streaming interface for an
outcome-by-outcome observation phase.
"""

import importlib
import subprocess
import sys

import pytest

import rydqnd

EXPORTS = {
    "BasisLabel", "DomainError", "FockDistribution", "ImpossibleOutcomeError",
    "InconsistentRecordError", "IntegratorError", "MeasurementRecord", "NOISELESS_PURE",
    "NOISY_FIXED_N", "NO_RYDBERG", "NoiseParams", "OUTCOMES", "Posterior",
    "PreconditionError", "ProtocolParams", "PureCollectiveState", "RYDBERG", "ResourceError",
    "Schedule", "ScheduleExhaustedError", "SequentialInference", "TrajectoryLog",
    "build_block", "detection_time", "enumerate_basis", "expected_fidelity",
    "fisher_closed_form", "optimize_schedule_global", "optimize_schedule_local",
    "posterior_trace", "run_batch", "steady_state_populations",
}
REFERENCES = [
    ("dynamics", name) for name in (
        "SymmetricBlockState", "eject_block", "evolve_blocks", "evolve_pure", "measure_block",
        "measure_pure", "project_blocks", "retrieval_fidelity", "sector_probabilities",
        "symmetric_state_blocks")
] + [("inference", "ConditionalState"), ("inference", "log_likelihood_noiseless"),
     ("engine", "run_protocol"), ("symbasis", "trace_vector")]


def test_the_package_exports_the_names_its_commands_run():
    assert len(rydqnd.__all__) == len(EXPORTS) == 32
    assert set(rydqnd.__all__) == EXPORTS
    for name in rydqnd.__all__:
        getattr(rydqnd, name)


@pytest.mark.parametrize("module, name", REFERENCES, ids=[name for _, name in REFERENCES])
def test_a_one_state_reference_resolves_in_its_module_alone(module, name):
    assert not hasattr(rydqnd, name)
    assert callable(getattr(importlib.import_module(f"rydqnd.{module}"), name))


def test_importing_the_package_loads_its_core_modules_only():
    out = subprocess.run(
        [sys.executable, "-c", "import sys, rydqnd; print(*sorted(m for m in sys.modules if "
         "m.startswith(('rydqnd', 'scipy', 'numpy.random'))))"],
        capture_output=True, text=True, check=True).stdout
    assert out.split() == ["rydqnd"] + [f"rydqnd.{m}" for m in (
        "analysis", "dynamics", "engine", "errors", "inference", "records", "symbasis")]

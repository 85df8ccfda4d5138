"""Simulator and inference toolkit for nondestructive photon counting in a
driven Rydberg atom array.

Photon number is stored in collective atomic states; a shared drive couples
each number state to a singly-excited Rydberg state at a sqrt(n)-enhanced Rabi
frequency, so a record of binary Rydberg-presence measurements identifies n.
The package provides exact symmetric-block dynamics with Rydberg dephasing, a
brute-force dense-matrix oracle for validation, Bayesian record inference,
Fisher-information analysis, schedule optimization, and a seeded Monte Carlo
protocol engine with a command-line interface.
"""

from .errors import (
    DomainError,
    ImpossibleOutcomeError,
    InconsistentRecordError,
    IntegratorError,
    PreconditionError,
    ResourceError,
    ScheduleExhaustedError,
)
from .records import (
    NO_RYDBERG,
    OUTCOMES,
    RYDBERG,
    FockDistribution,
    MeasurementRecord,
    Posterior,
)
from .symbasis import BasisLabel, build_block, enumerate_basis
from .dynamics import PureCollectiveState
from .inference import NoiseParams, SequentialInference, posterior_trace
from .analysis import (
    detection_time,
    expected_fidelity,
    fisher_closed_form,
    optimize_schedule_global,
    optimize_schedule_local,
    steady_state_populations,
)
from .engine import NOISELESS_PURE, NOISY_FIXED_N, ProtocolParams, Schedule, TrajectoryLog, run_batch

__version__ = "0.1.0"

__all__ = [
    "BasisLabel",
    "DomainError",
    "FockDistribution",
    "ImpossibleOutcomeError",
    "InconsistentRecordError",
    "IntegratorError",
    "MeasurementRecord",
    "NOISELESS_PURE",
    "NOISY_FIXED_N",
    "NO_RYDBERG",
    "NoiseParams",
    "OUTCOMES",
    "Posterior",
    "PreconditionError",
    "ProtocolParams",
    "PureCollectiveState",
    "RYDBERG",
    "ResourceError",
    "Schedule",
    "ScheduleExhaustedError",
    "SequentialInference",
    "TrajectoryLog",
    "build_block",
    "detection_time",
    "enumerate_basis",
    "expected_fidelity",
    "fisher_closed_form",
    "optimize_schedule_global",
    "optimize_schedule_local",
    "posterior_trace",
    "run_batch",
    "steady_state_populations",
]

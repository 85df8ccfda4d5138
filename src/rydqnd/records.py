"""Shared data records: measurement outcomes, records, Fock distributions."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from sys import float_info

import numpy as np

from .errors import DomainError

RYDBERG = "Rydberg"
NO_RYDBERG = "NoRydberg"
OUTCOMES = (NO_RYDBERG, RYDBERG)


def is_rydberg(outcome: str) -> bool:
    """Whether outcome is RYDBERG; a DomainError unless it is one of `OUTCOMES`."""
    if outcome not in OUTCOMES:
        raise DomainError(f"unknown outcome {outcome!r}")
    return outcome == RYDBERG


def _probability_vector(p, vector: str, entries: str) -> np.ndarray:
    """p as floats clipped at 0; a DomainError unless p is a probability vector."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise DomainError(f"{vector} must be a non-empty vector")
    if not np.isfinite(p).all():
        raise DomainError(f"{entries} must be finite")
    if np.any(p < -1e-15):
        raise DomainError(f"{entries} must be non-negative")
    if abs(p.sum() - 1.0) > 1e-12:
        raise DomainError(f"{entries} must sum to 1, got {p.sum()}")
    return np.clip(p, 0.0, None)


@dataclass
class MeasurementRecord:
    """Ordered list of (drive time, outcome) pairs; cycle 0 convention is NoRydberg."""

    entries: list[tuple[float, str]] = field(default_factory=list)

    def __post_init__(self):
        for i, (tau, outcome) in enumerate(self.entries):
            if not 0 <= tau <= float_info.max:  # a JSON integer past it converts to no float
                raise DomainError(f"entry {i}: drive time must be finite and non-negative")
            if outcome not in OUTCOMES:
                raise DomainError(f"entry {i}: unknown outcome {outcome!r}")

    def __len__(self) -> int:
        return len(self.entries)

    def append(self, tau: float, outcome: str) -> None:
        if not 0 <= tau <= float_info.max or outcome not in OUTCOMES:
            raise DomainError("invalid record entry")
        self.entries.append((tau, outcome))

    def to_json(self) -> str:
        doc = {"entries": [{"tau_s": tau, "outcome": m} for tau, m in self.entries]}
        return json.dumps(doc, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "MeasurementRecord":
        doc = json.loads(text)
        entries = [(e["tau_s"], e["outcome"]) for e in doc["entries"]]
        for i, (tau, _) in enumerate(entries):  # a JSON true or string is no drive time
            if type(tau) not in (int, float):
                raise DomainError(f"entry {i}: drive time must be a number, got {tau!r}")
        return MeasurementRecord(entries)


@dataclass
class FockDistribution:
    """Candidate initial photon-number distribution (p_0, ..., p_nmax)."""

    p: np.ndarray

    def __post_init__(self):
        self.p = _probability_vector(self.p, "distribution", "probabilities")

    @staticmethod
    def delta(n: int, n_max: int) -> "FockDistribution":
        if not 0 <= n <= n_max:
            raise DomainError(f"photon number {n} is outside 0..{n_max}")
        p = np.zeros(n_max + 1)
        p[n] = 1.0
        return FockDistribution(p)

    @property
    def n_max(self) -> int:
        return self.p.size - 1

    def support(self) -> list[int]:
        return [int(n) for n in np.nonzero(self.p)[0]]

    def tolist(self) -> list[float]:
        return self.p.tolist()


@dataclass
class Posterior:
    """Normalized weights over a list of candidate distributions."""

    weights: np.ndarray

    def __post_init__(self):
        self.weights = _probability_vector(self.weights, "posterior weights", "posterior weights")

    @staticmethod
    def uniform(k: int) -> "Posterior":
        return Posterior(np.full(k, 1.0 / k))

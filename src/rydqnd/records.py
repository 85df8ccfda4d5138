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
        self.p = np.asarray(self.p, dtype=float)
        if self.p.ndim != 1 or self.p.size == 0:
            raise DomainError("distribution must be a non-empty vector")
        if not np.isfinite(self.p).all():
            raise DomainError("probabilities must be finite")
        if np.any(self.p < -1e-15):
            raise DomainError("probabilities must be non-negative")
        if abs(self.p.sum() - 1.0) > 1e-12:
            raise DomainError(f"probabilities must sum to 1, got {self.p.sum()}")
        self.p = np.clip(self.p, 0.0, None)

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
        self.weights = np.asarray(self.weights, dtype=float)
        if not np.isfinite(self.weights).all():
            raise DomainError("posterior weights must be finite")
        if np.any(self.weights < -1e-15):
            raise DomainError("posterior weights must be non-negative")
        if abs(self.weights.sum() - 1.0) > 1e-12:
            raise DomainError("posterior weights must sum to 1")
        self.weights = np.clip(self.weights, 0.0, None)

    @staticmethod
    def uniform(k: int) -> "Posterior":
        return Posterior(np.full(k, 1.0 / k))

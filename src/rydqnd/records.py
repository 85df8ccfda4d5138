"""Shared data records: measurement outcomes, records, Fock distributions."""

from __future__ import annotations

import json
from dataclasses import dataclass
from numbers import Real
from operator import itemgetter
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


class MeasurementRecord:
    """A record's cycles as read-only columns: ``taus``, the drive times (float64), and
    ``rydberg``, True for a RYDBERG outcome; ``entries`` are its (drive time, outcome)
    pairs.  Cycle 0 convention is NoRydberg."""

    def __init__(self, entries=()):
        self.taus, self.rydberg = _entry_columns(*(tuple(zip(*entries)) or ((), ())))

    @staticmethod
    def split(taus, rydberg, ends) -> list["MeasurementRecord"]:
        """The records of cycles [0, ends[0]), [ends[0], ends[1]), ... of drive-time and
        Rydberg-flag columns: views of one copy, checked in one pass."""
        taus, rydberg = _columns(taus, rydberg)
        pieces = [MeasurementRecord.__new__(MeasurementRecord) for _ in ends]
        for piece, start, stop in zip(pieces, [0, *ends], ends):
            piece.taus, piece.rydberg = taus[start:stop], rydberg[start:stop]
        return pieces

    @property
    def entries(self) -> list[tuple[float, str]]:
        return list(zip(self.taus.tolist(), map(OUTCOMES.__getitem__, self.rydberg.tolist())))

    def __len__(self) -> int:
        return self.taus.size

    def append(self, tau: float, outcome: str) -> None:
        self.taus, self.rydberg = _columns([*self.taus.tolist(), tau],
                                           [*self.rydberg.tolist(), is_rydberg(outcome)])

    def to_json(self) -> str:
        return json.dumps({"entries": [{"tau_s": t, "outcome": m} for t, m in self.entries]},
                          sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "MeasurementRecord":
        entries = map(itemgetter("tau_s", "outcome"), json.loads(text)["entries"])
        taus, outcomes = tuple(zip(*entries)) or ((), ())
        if not set(map(type, taus)) <= {int, float}:  # a JSON true or string is no drive time
            i, tau = next((i, t) for i, t in enumerate(taus) if type(t) not in (int, float))
            raise DomainError(f"entry {i}: drive time must be a number, got {tau!r}")
        record = MeasurementRecord.__new__(MeasurementRecord)
        record.taus, record.rydberg = _entry_columns(taus, outcomes)
        return record


def _entry_columns(taus: tuple, outcomes: tuple) -> tuple[np.ndarray, np.ndarray]:
    """`_columns` of the entries' drive times and outcome names."""
    named = np.fromiter(outcomes, object, len(outcomes))
    rydberg = named == RYDBERG
    return _columns(taus, rydberg, rydberg | (named == NO_RYDBERG), outcomes)


def _columns(taus, rydberg, known=True, outcomes=()) -> tuple[np.ndarray, np.ndarray]:
    """Read-only float64 drive times and bool Rydberg flags, else a DomainError naming the
    first entry whose drive time is not finite and non-negative or, that failing, whose
    outcome is not known.  An integer past int64 stays a Python int, compared exactly."""
    taus, rydberg = np.array(taus), np.array(rydberg, dtype=bool)
    timed = _timed(taus)
    if not (timed & known).all():
        i = int(np.argmin(timed & known))
        raise DomainError(f"entry {i}: drive time must be finite and non-negative" if not timed[i]
                          else f"entry {i}: unknown outcome {outcomes[i]!r}")
    taus = taus.astype(float, copy=False)  # an integer past float range converts to no float
    taus.flags.writeable = rydberg.flags.writeable = False
    return taus, rydberg


def _timed(taus: np.ndarray) -> np.ndarray:
    """Whether each drive time of taus is a finite non-negative number, compared exactly (an
    integer past float range is refused, not converted).  An object or string array is
    library input: an entry that is no real number (a string, None) is not timed."""
    if taus.dtype.kind not in "OSU":
        return (taus >= 0) & (taus <= float_info.max)
    real = np.array([t if isinstance(t, Real) else -1 for t in taus.ravel().tolist()], dtype=object)
    with np.errstate(invalid="ignore"):  # NaN beside an integer past int64
        return ((real >= 0) & (real <= float_info.max)).reshape(taus.shape)


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

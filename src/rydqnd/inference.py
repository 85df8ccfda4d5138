"""Measurement-record likelihoods, Bayesian posteriors and MLE readout.

The noiseless likelihood is the closed-form product of cos^2/sin^2 factors
keyed on whether consecutive outcomes repeat (the record starts from a
NoRydberg convention).  The noisy likelihood propagates a conditional j=0
block state per photon number and multiplies the conditional outcome
probabilities; it reduces to the noiseless form when gamma = 0 and the
measurement window is instantaneous.  Products are accumulated in the log
domain so long records do not underflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import evolve_blocks, eject_block, project_blocks, sector_probabilities, symmetric_state_blocks
from .errors import DomainError, ImpossibleOutcomeError, InconsistentRecordError
from .records import FockDistribution, MeasurementRecord, NO_RYDBERG, Posterior, RYDBERG


@dataclass(frozen=True)
class NoiseParams:
    """Calibrated noise configuration; gamma is a known parameter, never inferred."""

    gamma: float
    tau_eit: float
    N: int
    eject: bool = False

    def __post_init__(self):
        if not (0 <= self.gamma < math.inf and 0 <= self.tau_eit < math.inf and self.N >= 1):
            raise DomainError("gamma and tau_eit must be finite and non-negative, and N >= 1")


def _noiseless_factors(ns, omega: float, taus: np.ndarray, repeat: np.ndarray,
                       shift: np.ndarray) -> np.ndarray:
    """Pr(outcome | n) of noiseless cycles, shape (len(taus), len(ns)).

    Cycle t drove for taus[t] after shift[t] ejections: cos^2 of the
    sqrt(n - shift) * omega * tau phase where repeat[t] (the outcome equals
    the reference outcome), sin^2 where it changed.  The square is libm's
    pow, as Python's ``x ** 2`` computes it.
    """
    m = np.maximum(np.asarray(ns)[None, :] - np.asarray(shift)[:, None], 0)
    phase = np.sqrt(m) * omega * np.asarray(taus, dtype=float)[:, None]
    trig = np.where(np.asarray(repeat)[:, None], np.cos(phase), np.sin(phase))
    return np.float_power(trig, 2.0)


def _noiseless_log_table(record: MeasurementRecord, ns: list[int], omega: float,
                         eject: bool = False) -> np.ndarray:
    """log Pr(first t outcomes | n) for t = 0..T, shape (T + 1, len(ns))."""
    rydberg = np.array([outcome == RYDBERG for _, outcome in record.entries], dtype=bool)
    taus = np.array([tau for tau, _ in record.entries], dtype=float)
    # ejection removes a photon per Rydberg outcome and resets the reference outcome
    shift = (np.cumsum(rydberg) - rydberg) * eject
    prev = np.concatenate(([False], rydberg))[:-1] & (not eject)
    with np.errstate(divide="ignore"):
        log_f = np.log(_noiseless_factors(ns, omega, taus, rydberg == prev, shift))
    return np.vstack((np.zeros((1, len(ns))), np.cumsum(log_f, axis=0)))


def log_likelihood_noiseless(record: MeasurementRecord, n: int, omega: float) -> float:
    """log Pr(M_T | n) for the noiseless protocol."""
    if n < 0:
        raise DomainError("photon number must be non-negative")
    return float(_noiseless_log_table(record, [n], omega)[-1, 0])


def likelihood_noiseless(record: MeasurementRecord, n: int, omega: float) -> float:
    return math.exp(log_likelihood_noiseless(record, n, omega))


class ConditionalState:
    """Conditional block state of a fixed-n hypothesis along a record prefix.

    Feeding entries one at a time keeps posterior updates incremental: each
    prefix is propagated exactly once regardless of how many cycles follow.
    """

    def __init__(self, n: int, omega: float, noise: NoiseParams):
        if not 0 <= n <= noise.N:
            raise DomainError(f"need 0 <= n <= N, got n={n}, N={noise.N}")
        self.omega = omega
        self.noise = noise
        # probabilities live in j=0; ejection output is also purely j=0
        self.blocks = [symmetric_state_blocks(n, noise.N)[0]]
        self.log_l = 0.0
        self.dead = False

    def _windowed(self, tau: float):
        """The blocks after a drive of length tau and the measurement window."""
        blocks = evolve_blocks(self.blocks, tau, self.omega, self.noise.gamma, drive_on=True)
        if self.noise.tau_eit > 0:
            blocks = evolve_blocks(blocks, self.noise.tau_eit, 0.0, self.noise.gamma, drive_on=False)
        return blocks

    def update(self, tau: float, outcome: str) -> float:
        """Advance one observation cycle; returns log of the conditional probability."""
        if self.dead:
            return -math.inf
        try:
            p, blocks = project_blocks(self._windowed(tau), outcome)
        except ImpossibleOutcomeError:
            self.dead = True
            self.log_l = -math.inf
            return -math.inf
        if self.noise.eject and outcome == RYDBERG:
            # from a j=0-only input, ejection fills only j=0 as well
            blocks = eject_block(blocks)[:1]
        self.blocks = blocks
        step = math.log(p)
        self.log_l += step
        return step

    def outcome_probabilities(self, tau: float) -> tuple[float, float]:
        """(p_NoRydberg, p_Rydberg) for the next cycle without committing to it."""
        if self.dead:
            raise ImpossibleOutcomeError("conditional state already has zero likelihood")
        return sector_probabilities(self._windowed(tau))


def _log_likelihood_table(record: MeasurementRecord, ns: list[int], omega: float,
                          noise: NoiseParams | None, eject: bool = False) -> np.ndarray:
    """log Pr(first t outcomes | n), shape (T + 1, len(ns)); with noise one
    conditional state per n, and ``noise.eject`` sets ejection."""
    if noise is None:
        return _noiseless_log_table(record, ns, omega, eject)
    likelihoods = NoisyLikelihoods(ns, omega, noise)
    table = np.zeros((len(record) + 1, len(ns)))
    for t, (tau, outcome) in enumerate(record.entries, start=1):
        likelihoods.update(np.array([tau], dtype=float), np.array([outcome == RYDBERG]))
        table[t] = likelihoods.log_l[0]
    return table


def log_likelihood_noisy(record: MeasurementRecord, n: int, omega: float,
                         noise: NoiseParams) -> float:
    return float(_log_likelihood_table(record, [n], omega, noise)[-1, 0])


def marginal_likelihood(record: MeasurementRecord, dist: FockDistribution, omega: float,
                        noise: NoiseParams | None = None) -> float:
    """Pr(M_T | P) = sum_n p_n Pr(M_T | n)."""
    logs = _log_likelihood_table(record, dist.support(), omega, noise)[-1]
    return float(dist.p[dist.support()] @ np.exp(logs))


def posterior_trace(record: MeasurementRecord, candidates: list[FockDistribution],
                    prior: Posterior, omega: float, noise: NoiseParams | None = None,
                    eject: bool = False) -> np.ndarray:
    """Posterior over the candidates after every prefix of the record, shape (T + 1, K).

    Each row leaves the log domain scaled by its largest finite likelihood, so
    long records do not underflow.
    """
    mixture = Mixture(candidates, prior)
    log_l = _log_likelihood_table(record, mixture.ns, omega, noise, eject)
    top = np.max(log_l, axis=1, keepdims=True)
    top[~np.isfinite(top)] = 0.0
    weights = np.exp(log_l - top) @ (mixture.p * mixture.prior[:, None]).T
    total = weights.sum(axis=1, keepdims=True)
    if np.any(total <= 0.0):
        raise InconsistentRecordError("record has zero likelihood under every candidate "
                                      f"from cycle {np.argmax(total <= 0.0)}")
    return weights / total


def posterior(record: MeasurementRecord, candidates: list[FockDistribution],
              prior: Posterior, omega: float,
              noise: NoiseParams | None = None) -> Posterior:
    """Bayes update of the prior over candidate distributions."""
    return Posterior(posterior_trace(record, candidates, prior, omega, noise)[-1])


def mle(post: Posterior) -> int:
    """Index of the maximal posterior weight; ties break to the lowest index."""
    return int(np.argmax(post.weights))


def _libm(fn, x: np.ndarray) -> np.ndarray:
    """A ``math`` function applied element by element.  numpy's vectorised exp
    and log differ from libm's by an ulp on some arguments; this does not."""
    return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)


class Mixture:
    """Candidate distributions weighted by a prior: the photon numbers ns in
    their supports, sorted, and p[k, i] = Pr(ns[i] | candidate k), shape (K, len(ns))."""

    def __init__(self, candidates: list[FockDistribution], prior: Posterior):
        if not candidates:
            raise DomainError("need at least one candidate distribution")
        if prior.weights.size != len(candidates):
            raise DomainError("prior size does not match the candidate list")
        self.ns = sorted({n for c in candidates for n in c.support()})
        self.p = np.array([[c.p[n] if n <= c.n_max else 0.0 for n in self.ns]
                           for c in candidates])
        self.prior = prior.weights.astype(float)

    def posterior(self, log_l: np.ndarray) -> np.ndarray:
        """Posterior over the candidates for each row of log Pr(record | n), shape (B, K).

        Each row leaves the log domain scaled by its largest likelihood.  Sums
        accumulate left to right, as the scalar code sums, so a row's weights
        are the same to the last bit; the zero terms outside a candidate's
        support add exactly nothing.
        """
        top = log_l.max(axis=1, keepdims=True)
        top[top == -math.inf] = 0.0  # every likelihood zero: the total check fails
        scaled = _libm(math.exp, log_l - top)
        terms = self.p * scaled[:, None, :]
        weights = self.prior * np.add.accumulate(terms, axis=2)[:, :, -1]
        total = np.add.accumulate(weights, axis=1)[:, -1]
        if not (total > 0.0).all():
            raise InconsistentRecordError("record has zero likelihood under every candidate")
        return weights / total[:, None]


class NoiselessLikelihoods:
    """log Pr(record | n) of B noiseless records growing together, shape (B, len(ns)).

    Row r keeps its last outcome (the reference for the cos^2/sin^2 choice,
    NoRydberg with ejection) and its ejection count (the photon shift).
    """

    def __init__(self, ns: list[int], omega: float, eject: bool = False, rows: int = 1):
        self.ns = np.asarray(ns)
        self.omega = omega
        self.eject = eject
        self.log_l = np.zeros((rows, len(ns)))
        self._last = np.zeros(rows, dtype=bool)
        self._shift = np.zeros(rows, dtype=int)

    def update(self, taus: np.ndarray, rydberg: np.ndarray) -> None:
        """One cycle for every row: drive times and outcomes (True for Rydberg)."""
        factor = _noiseless_factors(self.ns, self.omega, taus, rydberg == self._last,
                                    self._shift)
        log_f = _libm(math.log, np.where(factor > 0.0, factor, 1.0))
        self.log_l = self.log_l + np.where(factor > 0.0, log_f, -math.inf)
        if self.eject:
            self._shift = self._shift + rydberg
        else:
            self._last = rydberg

    def keep(self, rows: np.ndarray) -> None:
        """Drop the rows not selected by the boolean mask."""
        self.log_l, self._last, self._shift = (self.log_l[rows], self._last[rows],
                                               self._shift[rows])


class NoisyLikelihoods:
    """log Pr(record | n) of B noisy records growing together, shape (B, len(ns)),
    from one `ConditionalState` per (row, n); ``noise.eject`` sets ejection."""

    def __init__(self, ns: list[int], omega: float, noise: NoiseParams, rows: int = 1):
        self._states = [[ConditionalState(n, omega, noise) for n in ns] for _ in range(rows)]
        self.log_l = np.zeros((rows, len(ns)))

    def update(self, taus: np.ndarray, rydberg: np.ndarray) -> None:
        """One cycle for every row: drive times and outcomes (True for Rydberg)."""
        for r, (tau, ryd) in enumerate(zip(taus.tolist(), rydberg.tolist())):
            outcome = RYDBERG if ryd else NO_RYDBERG
            for i, state in enumerate(self._states[r]):
                state.update(tau, outcome)
                self.log_l[r, i] = state.log_l

    def keep(self, rows: np.ndarray) -> None:
        """Drop the rows not selected by the boolean mask."""
        self._states = [states for states, kept in zip(self._states, rows.tolist()) if kept]
        self.log_l = self.log_l[rows]


def record_likelihoods(ns: list[int], omega: float, noise: NoiseParams | None = None,
                       eject: bool = False, rows: int = 1):
    """`NoiselessLikelihoods`, or with noise `NoisyLikelihoods` (``noise.eject`` sets ejection)."""
    return (NoiselessLikelihoods(ns, omega, eject, rows) if noise is None
            else NoisyLikelihoods(ns, omega, noise, rows))


class SequentialInference:
    """Incremental posterior over candidate distributions along a growing record."""

    def __init__(self, candidates: list[FockDistribution], prior: Posterior,
                 omega: float, noise: NoiseParams | None = None, eject: bool = False):
        self._mix = Mixture(candidates, prior)
        self._likelihoods = record_likelihoods(self._mix.ns, omega, noise, eject)
        self._record = MeasurementRecord()

    def update(self, tau: float, outcome: str) -> Posterior:
        self._record.append(tau, outcome)
        self._likelihoods.update(np.array([tau], dtype=float),
                                 np.array([outcome == RYDBERG]))
        return self.posterior()

    def posterior(self) -> Posterior:
        return Posterior(self._mix.posterior(self._likelihoods.log_l)[0])

    @property
    def record(self) -> MeasurementRecord:
        return self._record

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
        if self.gamma < 0 or self.tau_eit < 0:
            raise DomainError("gamma and tau_eit must be non-negative")


def _noiseless_log_table(record: MeasurementRecord, ns: list[int], omega: float,
                         eject: bool = False) -> np.ndarray:
    """log Pr(first t outcomes | n) for t = 0..T, shape (T + 1, len(ns))."""
    rydberg = np.array([outcome == RYDBERG for _, outcome in record.entries], dtype=bool)
    taus = np.array([tau for tau, _ in record.entries], dtype=float)
    # ejection removes a photon per Rydberg outcome and resets the reference outcome
    shift = (np.cumsum(rydberg) - rydberg) * eject
    prev = np.concatenate(([False], rydberg))[:-1] & (not eject)
    phase = np.sqrt(np.maximum(np.asarray(ns) - shift[:, None], 0)) * omega * taus[:, None]
    factor = np.where((rydberg == prev)[:, None], np.cos(phase) ** 2, np.sin(phase) ** 2)
    with np.errstate(divide="ignore"):
        log_f = np.log(factor)
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

    def update(self, tau: float, outcome: str) -> float:
        """Advance one observation cycle; returns log of the conditional probability."""
        if self.dead:
            return -math.inf
        blocks = evolve_blocks(self.blocks, tau, self.omega, self.noise.gamma, drive_on=True)
        if self.noise.tau_eit > 0:
            blocks = evolve_blocks(blocks, self.noise.tau_eit, 0.0, self.noise.gamma, drive_on=False)
        try:
            p, blocks = project_blocks(blocks, outcome)
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
        blocks = evolve_blocks(self.blocks, tau, self.omega, self.noise.gamma, drive_on=True)
        if self.noise.tau_eit > 0:
            blocks = evolve_blocks(blocks, self.noise.tau_eit, 0.0, self.noise.gamma, drive_on=False)
        return sector_probabilities(blocks)


def _log_likelihood_table(record: MeasurementRecord, ns: list[int], omega: float,
                          noise: NoiseParams | None, eject: bool = False) -> np.ndarray:
    """log Pr(first t outcomes | n), shape (T + 1, len(ns)); with noise one
    conditional state per n, and ``noise.eject`` sets ejection."""
    if noise is None:
        return _noiseless_log_table(record, ns, omega, eject)
    table = np.full((len(record) + 1, len(ns)), -np.inf)
    table[0] = 0.0
    for i, n in enumerate(ns):
        state = ConditionalState(n, omega, noise)
        for t, (tau, outcome) in enumerate(record.entries, start=1):
            if state.update(tau, outcome) == -math.inf:
                break
            table[t, i] = state.log_l
    return table


def log_likelihood_noisy(record: MeasurementRecord, n: int, omega: float,
                         noise: NoiseParams) -> float:
    return float(_log_likelihood_table(record, [n], omega, noise)[-1, 0])


def likelihood_noisy(record: MeasurementRecord, n: int, omega: float, gamma: float,
                     tau_eit: float, N: int, eject: bool = False) -> float:
    return math.exp(log_likelihood_noisy(record, n, omega,
                                         NoiseParams(gamma, tau_eit, N, eject)))


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
    if not candidates:
        raise DomainError("need at least one candidate distribution")
    if prior.weights.size != len(candidates):
        raise DomainError("prior size does not match the candidate list")
    ns = sorted({n for c in candidates for n in c.support()})
    log_l = _log_likelihood_table(record, ns, omega, noise, eject)
    mix = np.array([[c.p[n] if n <= c.n_max else 0.0 for c in candidates] for n in ns])
    top = np.max(log_l, axis=1, keepdims=True)
    top[~np.isfinite(top)] = 0.0
    weights = np.exp(log_l - top) @ (mix * prior.weights)
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


class SequentialInference:
    """Incremental posterior over candidate distributions along a growing record."""

    def __init__(self, candidates: list[FockDistribution], prior: Posterior,
                 omega: float, noise: NoiseParams | None = None, eject: bool = False):
        if prior.weights.size != len(candidates):
            raise DomainError("prior size does not match the candidate list")
        self.candidates = candidates
        self.prior = prior
        self.omega = omega
        self.noise = noise
        self.eject = noise.eject if noise is not None else eject
        self.ns = sorted({n for c in candidates for n in c.support()})
        self._cond = ({n: ConditionalState(n, omega, noise) for n in self.ns}
                      if noise is not None else None)
        self._record = MeasurementRecord()
        self._log_l = {n: 0.0 for n in self.ns}
        self._mix = [(float(w), [(n, float(c.p[n])) for n in c.support()])
                     for w, c in zip(prior.weights, candidates)]
        self._shift = 0  # photons ejected so far (noiseless bookkeeping)

    def update(self, tau: float, outcome: str) -> Posterior:
        self._record.append(tau, outcome)
        if self._cond is not None:
            for n in self.ns:
                self._cond[n].update(tau, outcome)
                self._log_l[n] = self._cond[n].log_l
        else:
            prev = (NO_RYDBERG if self.eject or len(self._record) == 1
                    else self._record.entries[-2][1])
            for n in self.ns:
                m = max(n - self._shift, 0)
                omega_m = math.sqrt(m) * self.omega
                factor = (math.cos(omega_m * tau) ** 2 if outcome == prev
                          else math.sin(omega_m * tau) ** 2)
                self._log_l[n] = (-math.inf if factor <= 0.0
                                  else self._log_l[n] + math.log(factor))
            if self.eject and outcome == RYDBERG:
                self._shift += 1
        return self.posterior()

    def posterior(self) -> Posterior:
        top = max(self._log_l.values())
        scaled = {n: math.exp(log_l - top) for n, log_l in self._log_l.items()}
        weights = [w * sum(p * scaled[n] for n, p in mix) for w, mix in self._mix]
        total = sum(weights)
        if not total > 0.0:  # nan when every likelihood is zero (top = -inf)
            raise InconsistentRecordError("record has zero likelihood under every candidate")
        return Posterior(np.array(weights) / total)

    @property
    def record(self) -> MeasurementRecord:
        return self._record

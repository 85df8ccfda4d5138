"""Independent numpy reference for noiseless record posteriors.

A noiseless cycle with drive time tau repeats the previous outcome with
probability cos^2(sqrt(n) * omega * tau) and flips it otherwise; the record
starts from a NoRydberg convention.  Log-likelihoods are accumulated with
cumsum and normalised with log-sum-exp, so long records never underflow.
"""

from __future__ import annotations

import numpy as np


def noiseless_log_likelihoods(taus, rydberg, ns, omega: float) -> np.ndarray:
    """log Pr(first t outcomes | n) for t = 0..T, shape (len(ns), T + 1)."""
    taus = np.asarray(taus, dtype=float)
    rydberg = np.asarray(rydberg, dtype=bool)
    prev = np.concatenate(([False], rydberg[:-1]))
    phase = np.sqrt(np.asarray(ns, dtype=float))[:, None] * omega * taus[None, :]
    factor = np.where(rydberg == prev, np.cos(phase) ** 2, np.sin(phase) ** 2)
    with np.errstate(divide="ignore"):
        log_f = np.log(factor)
    return np.concatenate((np.zeros((len(ns), 1)), np.cumsum(log_f, axis=1)), axis=1)


def noiseless_posterior_trace(taus, rydberg, ns, omega: float, prior=None) -> np.ndarray:
    """Posterior over candidates n after every prefix, shape (T + 1, len(ns))."""
    log_l = noiseless_log_likelihoods(taus, rydberg, ns, omega)
    log_prior = np.log(np.full(len(ns), 1.0 / len(ns)) if prior is None
                       else np.asarray(prior, dtype=float))
    log_w = log_l + log_prior[:, None]
    top = log_w.max(axis=0)
    w = np.exp(log_w - top)
    return (w / w.sum(axis=0)).T


def sample_noiseless(rng: np.random.Generator, taus, n: int, omega: float) -> np.ndarray:
    """Outcomes (True = Rydberg) of a noiseless record with n photons."""
    taus = np.asarray(taus, dtype=float)
    flips = rng.random(taus.size) >= np.cos(np.sqrt(n) * omega * taus) ** 2
    return np.cumsum(flips) % 2 == 1

"""The engine's posteriors are calibrated against its own draws.

A posterior computed under the model that drew the data is calibrated
(Cook, Gelman & Rubin, J. Comput. Graph. Stat. 15, 675 (2006); Talts et al.,
arXiv:1804.06788).  Each trajectory's photon number follows the prior over the
candidates: a noisy trajectory draws it from a `FockDistribution` equal to the
prior, and the noiseless cells run one batch per photon number, sized in
proportion to its prior weight (a noiseless `FockDistribution` initial is a
superposition, whose outcome law is the mixture's, not a draw).  So per cell:

- the mean final posterior of each candidate equals its prior weight (the
  posterior is a martingale and ``max_cycles`` bounds the stopping time);
- the count of trajectories whose most probable candidate is wrong equals
  the sum of 1 - p_max over them, in expectation;
- each cycle's predicted Pr(Rydberg | past) matches how often Rydberg comes:
  a chi-squared over the deciles of the prediction.

The draws come from `dynamics.BlockBatch` (noisy) or `dynamics.PureBatch`
(noiseless) and the predictions from a fresh `inference.NoisyLikelihoods` or
`NoiselessLikelihoods`, so the gate checks that each state holder draws from
the law its likelihood holder computes.  Bounds: |z| <= 4 and the
chi-squared below its 1 - 1e-4 quantile; the seeds were fixed before any
result was seen.
"""

import math

import numpy as np
import pytest
from scipy.special import chdtri

from rydqnd import engine as eng
from rydqnd.inference import record_likelihoods
from rydqnd.records import FockDistribution, Posterior

OMEGA = 2 * math.pi * 2.5e6
PRIOR = np.array([0.1, 0.2, 0.3, 0.4])  # over the candidates n = 1..4
TRAJECTORIES, SEED = 1500, 1
SCHEDULES = {"fixed": eng.Schedule.fixed(0.3e-6),
             "uniform-random": eng.Schedule.uniform_random(0.05e-6, 0.4e-6)}


def _predictions(logs, params) -> tuple[np.ndarray, np.ndarray]:
    """Every cycle's predicted Pr(Rydberg | past) and whether Rydberg came: the
    posterior before the cycle weighting each candidate's Pr(outcome | record, n),
    from one likelihood holder that takes the records in lockstep, longest first."""
    order = sorted(logs, key=lambda log: -len(log.record))
    lengths = np.array([len(log.record) for log in order])
    taus, rydberg = np.zeros((2, len(order), lengths.max()))
    for k, log in enumerate(order):
        taus[k, :lengths[k]], rydberg[k, :lengths[k]] = log.record.taus, log.record.rydberg
    rydberg = rydberg.astype(bool)
    holder = record_likelihoods([1, 2, 3, 4], OMEGA, params.noise(), params.ejection_enabled,
                                np.zeros(len(order), dtype=int))
    predicted = []
    for t in range(lengths.max()):
        live = int(np.count_nonzero(lengths > t))
        holder.take(slice(live))
        log_l = holder.log_l
        holder.update(taus[:live, t], rydberg[:live, t])
        with np.errstate(invalid="ignore"):  # -inf - -inf: a candidate already ruled out
            p = np.exp(holder.log_l - log_l)  # of the outcome that came
        p_r = np.where(rydberg[:live, t, None], p, 1.0 - p)
        before = np.array([log.posteriors[t] for log in order[:live]])
        # a candidate ruled out (an ejection past its photons) has weight 0 and no prediction
        predicted.append(np.where(before > 0.0, before * np.nan_to_num(p_r), 0.0).sum(axis=1))
    return np.concatenate(predicted), np.concatenate([rydberg[lengths > t, t]
                                                      for t in range(lengths.max())])


def _check_calibration(logs, truth, params) -> None:
    """The three statistics of a cell, each trajectory's photon number in truth."""
    final = np.array([log.posteriors[-1] for log in logs])
    z = (final.mean(axis=0) - PRIOR) / (final.std(axis=0, ddof=1) / math.sqrt(len(logs)))
    assert np.abs(z).max() <= 4, f"mean final posterior: z = {z}"

    top = final.max(axis=1)
    wrong = np.count_nonzero(final.argmax(axis=1) + 1 != truth)
    z = (wrong - (1.0 - top).sum()) / math.sqrt((top * (1.0 - top)).sum())
    assert abs(z) <= 4, f"misidentified: {wrong}, expected {(1.0 - top).sum():.1f}, z = {z}"

    p, rydberg = _predictions(logs, params)
    deciles = np.minimum((p * 10).astype(int), 9)
    chi2 = bins = 0
    for d in range(10):
        at = deciles == d
        var = (p[at] * (1.0 - p[at])).sum()
        if var > 0:
            chi2, bins = chi2 + (rydberg[at].sum() - p[at].sum()) ** 2 / var, bins + 1
    assert chi2 < chdtri(bins, 1e-4), f"per-cycle chi-squared {chi2:.1f} over {bins} deciles"


@pytest.mark.parametrize("eject", [False, True], ids=["kept", "ejected"])
@pytest.mark.parametrize("kind", sorted(SCHEDULES))
def test_noisy_posteriors_are_calibrated(kind, eject):
    params = eng.ProtocolParams(omega=OMEGA, gamma=2 * math.pi * 0.3e6, tau_eit=0.3e-6, N=6,
                                n_max=4, schedule=SCHEDULES[kind], seed=SEED, max_cycles=25,
                                ejection_enabled=eject, prior=Posterior(PRIOR))
    logs = eng.run_batch(FockDistribution(np.r_[0.0, PRIOR]), params, TRAJECTORIES)
    _check_calibration(logs, [log.n_true for log in logs], params)


@pytest.mark.parametrize("eject", [False, True], ids=["kept", "ejected"])
@pytest.mark.parametrize("kind", sorted(SCHEDULES))
def test_noiseless_posteriors_are_calibrated(kind, eject):
    """One batch per photon number n = 1..4, of TRAJECTORIES * PRIOR[n - 1]
    trajectories, seeded SEED + n."""
    logs, truth = [], []
    for n, weight in enumerate(PRIOR, start=1):
        params = eng.ProtocolParams(omega=OMEGA, N=6, n_max=4, mode=eng.NOISELESS_PURE,
                                    schedule=SCHEDULES[kind], seed=SEED + n, max_cycles=25,
                                    ejection_enabled=eject, prior=Posterior(PRIOR))
        batch = eng.run_batch(n, params, round(TRAJECTORIES * weight))
        logs, truth = logs + batch, truth + [n] * len(batch)
    _check_calibration(logs, truth, params)

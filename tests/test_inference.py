"""Record likelihoods and Bayesian posterior updates."""

import itertools
import math

import numpy as np
import pytest

from rydqnd import dynamics as dyn
from rydqnd import inference as inf
from rydqnd.errors import InconsistentRecordError
from rydqnd.records import (
    NO_RYDBERG,
    RYDBERG,
    FockDistribution,
    MeasurementRecord,
    Posterior,
)

OMEGA = 1.0


def record_of(taus, outcomes):
    return MeasurementRecord(list(zip(taus, outcomes)))


# ---------------------------------------------------------------------------
# noiseless likelihood

def test_noiseless_likelihood_alternation_rule():
    # same outcome as last cycle -> cos^2, changed outcome -> sin^2,
    # with the pre-record reference outcome fixed to NoRydberg
    tau = 0.4
    n = 2
    w = math.sqrt(n) * OMEGA * tau
    rec = record_of([tau, tau, tau], [RYDBERG, RYDBERG, NO_RYDBERG])
    expect = math.sin(w) ** 2 * math.cos(w) ** 2 * math.sin(w) ** 2
    assert inf.likelihood_noiseless(rec, n, OMEGA) == pytest.approx(expect, rel=1e-12)


def test_noiseless_vacuum_explains_only_no_rydberg():
    rec = record_of([0.3], [NO_RYDBERG])
    assert inf.likelihood_noiseless(rec, 0, OMEGA) == pytest.approx(1.0)
    rec = record_of([0.3], [RYDBERG])
    assert inf.likelihood_noiseless(rec, 0, OMEGA) == 0.0
    assert inf.log_likelihood_noiseless(rec, 0, OMEGA) == -math.inf


@pytest.mark.parametrize("n", [1, 2, 3, 6])
@pytest.mark.parametrize("T", [1, 3, 6, 8])
def test_noiseless_probability_completeness(n, T):
    taus = [0.2 + 0.1 * i for i in range(T)]
    total = sum(
        inf.likelihood_noiseless(record_of(taus, seq), n, OMEGA)
        for seq in itertools.product((NO_RYDBERG, RYDBERG), repeat=T))
    assert total == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# noisy likelihood

NOISE = inf.NoiseParams(gamma=0.2, tau_eit=0.3, N=6)


@pytest.mark.parametrize("n", [1, 2, 4])
@pytest.mark.parametrize("T", [1, 4])
def test_noisy_probability_completeness(n, T):
    taus = [0.25 + 0.05 * i for i in range(T)]
    total = sum(
        math.exp(inf.log_likelihood_noisy(record_of(taus, seq), n, OMEGA, NOISE))
        for seq in itertools.product((NO_RYDBERG, RYDBERG), repeat=T))
    assert total == pytest.approx(1.0, abs=1e-10)


def test_noisy_likelihood_reduces_to_noiseless_at_zero_gamma():
    quiet = inf.NoiseParams(gamma=0.0, tau_eit=0.0, N=6)
    rec = record_of([0.3, 0.5], [RYDBERG, NO_RYDBERG])
    for n in (1, 2, 3):
        assert inf.log_likelihood_noisy(rec, n, OMEGA, quiet) == pytest.approx(
            inf.log_likelihood_noiseless(rec, n, OMEGA), abs=1e-9)


def test_conditional_state_outcome_probabilities_sum_to_one():
    state = inf.ConditionalState(2, OMEGA, NOISE)
    state.update(0.3, RYDBERG)
    p_no, p_ry = state.outcome_probabilities(0.4)
    assert p_no + p_ry == pytest.approx(1.0, abs=1e-10)
    # committing to an outcome reproduces the quoted probability
    step = state.update(0.4, NO_RYDBERG)
    assert math.exp(step) == pytest.approx(p_no, abs=1e-12)


# ---------------------------------------------------------------------------
# posterior

def test_marginal_likelihood_is_mixture_of_fixed_n_likelihoods():
    dist = FockDistribution(np.array([0.0, 0.5, 0.3, 0.2]))
    rec = record_of([0.3, 0.7], [RYDBERG, RYDBERG])
    expect = sum(dist.p[n] * inf.likelihood_noiseless(rec, n, OMEGA)
                 for n in dist.support())
    assert inf.marginal_likelihood(rec, dist, OMEGA) == pytest.approx(expect, rel=1e-12)


def test_posterior_is_bayes_rule():
    cands = [FockDistribution.delta(n, 3) for n in (1, 2, 3)]
    prior = Posterior(np.array([0.5, 0.3, 0.2]))
    rec = record_of([0.4, 0.6], [RYDBERG, NO_RYDBERG])
    post = inf.posterior(rec, cands, prior, OMEGA)
    raw = np.array([prior.weights[i] * inf.marginal_likelihood(rec, c, OMEGA)
                    for i, c in enumerate(cands)])
    assert np.allclose(post.weights, raw / raw.sum(), atol=1e-12)


def test_empty_record_returns_prior():
    cands = [FockDistribution.delta(n, 3) for n in (1, 2, 3)]
    prior = Posterior(np.array([0.2, 0.5, 0.3]))
    post = inf.posterior(MeasurementRecord(), cands, prior, OMEGA)
    assert np.allclose(post.weights, prior.weights)


def test_inconsistent_record_raises():
    cands = [FockDistribution.delta(n, 2) for n in (1, 2)]
    prior = Posterior.uniform(2)
    # a Rydberg outcome after zero drive time is impossible for every candidate
    rec = record_of([0.0], [RYDBERG])
    with pytest.raises(InconsistentRecordError):
        inf.posterior(rec, cands, prior, OMEGA)


def test_mle_breaks_ties_toward_lowest_index():
    assert inf.mle(Posterior(np.array([0.4, 0.4, 0.2]))) == 0
    assert inf.mle(Posterior(np.array([0.1, 0.2, 0.7]))) == 2


def test_posterior_is_martingale_noiseless():
    # averaged over outcome branches, the posterior on the true candidate is
    # unchanged by one more observation cycle
    cands = [FockDistribution.delta(n, 3) for n in (1, 2, 3)]
    prior = Posterior(np.array([0.3, 0.4, 0.3]))
    prefix = record_of([0.5], [RYDBERG])
    tau = 0.7
    post = inf.posterior(prefix, cands, prior, OMEGA)
    marg_prefix = sum(
        prior.weights[i] * inf.marginal_likelihood(prefix, c, OMEGA)
        for i, c in enumerate(cands))
    for k in range(3):
        avg = 0.0
        for outcome in (NO_RYDBERG, RYDBERG):
            longer = record_of([0.5, tau], [RYDBERG, outcome])
            branch = sum(
                prior.weights[i] * inf.marginal_likelihood(longer, c, OMEGA)
                for i, c in enumerate(cands))
            if branch == 0.0:
                continue
            avg += (branch / marg_prefix) * inf.posterior(
                longer, cands, prior, OMEGA).weights[k]
        assert avg == pytest.approx(post.weights[k], abs=1e-12)


# ---------------------------------------------------------------------------
# sequential updates

def test_sequential_matches_batch_posterior_noiseless():
    cands = [FockDistribution(np.array([0.0, 0.6, 0.4])),
             FockDistribution.delta(2, 2)]
    prior = Posterior(np.array([0.7, 0.3]))
    seq = inf.SequentialInference(cands, prior, OMEGA)
    rec = MeasurementRecord()
    for tau, outcome in [(0.3, RYDBERG), (0.5, RYDBERG), (0.2, NO_RYDBERG)]:
        rec.append(tau, outcome)
        post = seq.update(tau, outcome)
        batch = inf.posterior(rec, cands, prior, OMEGA)
        assert np.allclose(post.weights, batch.weights, atol=1e-12)


def test_sequential_matches_batch_posterior_noisy():
    cands = [FockDistribution.delta(n, 3) for n in (1, 2, 3)]
    prior = Posterior.uniform(3)
    seq = inf.SequentialInference(cands, prior, OMEGA, noise=NOISE)
    rec = MeasurementRecord()
    for tau, outcome in [(0.3, RYDBERG), (0.4, NO_RYDBERG), (0.6, RYDBERG)]:
        rec.append(tau, outcome)
        post = seq.update(tau, outcome)
        batch = inf.posterior(rec, cands, prior, OMEGA, noise=NOISE)
        assert np.allclose(post.weights, batch.weights, atol=1e-12)


def test_sequential_ejection_tracks_reduced_photon_number():
    # after ejecting the Rydberg excitation, the same hypothesis continues
    # with one photon fewer; the reference outcome resets to NoRydberg
    cands = [FockDistribution.delta(n, 3) for n in (1, 2, 3)]
    prior = Posterior.uniform(3)
    seq = inf.SequentialInference(cands, prior, OMEGA, eject=True)
    seq.update(0.4, RYDBERG)
    post = seq.update(0.6, RYDBERG)
    # manual: first factor sin^2(sqrt(n) w t1), second sin^2(sqrt(n-1) w t2)
    raw = []
    for n in (1, 2, 3):
        f1 = math.sin(math.sqrt(n) * OMEGA * 0.4) ** 2
        f2 = math.sin(math.sqrt(n - 1) * OMEGA * 0.6) ** 2
        raw.append(f1 * f2 / 3.0)
    raw = np.array(raw)
    assert np.allclose(post.weights, raw / raw.sum(), atol=1e-12)


def test_ejecting_update_keeps_only_the_j0_block():
    # ejection from a j=0-only state fills only j=0, so the conditional state
    # drops the empty j>0 blocks; the reference propagates all of them
    noise = inf.NoiseParams(gamma=0.3, tau_eit=0.2, N=10, eject=True)
    state = inf.ConditionalState(4, OMEGA, noise)
    blocks = dyn.symmetric_state_blocks(4, 10)[:1]
    entries = [(0.9, RYDBERG), (0.5, NO_RYDBERG), (1.1, RYDBERG), (0.7, NO_RYDBERG)]
    for tau, outcome in entries:
        step = state.update(tau, outcome)
        assert len(state.blocks) == 1
        blocks = dyn.evolve_blocks(blocks, tau, OMEGA, noise.gamma)
        blocks = dyn.evolve_blocks(blocks, noise.tau_eit, 0.0, noise.gamma, drive_on=False)
        p, blocks = dyn.project_blocks(blocks, outcome)
        if outcome == RYDBERG:
            blocks = dyn.eject_block(blocks)
            assert len(blocks) > 1
        assert step == pytest.approx(math.log(p), abs=1e-12)

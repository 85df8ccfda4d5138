"""Record likelihoods and Bayesian posterior updates."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rydqnd import cli
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


# ---------------------------------------------------------------------------
# posterior traces

def test_long_noiseless_record_does_not_underflow(tmp_path):
    # every factor of n = 1 is 1/2, so its likelihood is 2^-1500; exponentiating
    # before normalising used to report this valid record as inconsistent
    tau = math.pi / (4 * OMEGA)
    rng = np.random.default_rng(1500)
    rydberg = np.cumsum(rng.random(1500) < 0.5) % 2 == 1
    rec = record_of([tau] * 1500, [RYDBERG if r else NO_RYDBERG for r in rydberg])
    logs = [inf.log_likelihood_noiseless(rec, n, OMEGA) for n in (1, 2, 3, 4)]
    assert logs[0] == pytest.approx(1500 * math.log(0.5), rel=1e-12)
    assert all(-60000 < v < -1000 for v in logs)
    cands = [FockDistribution.delta(n, 4) for n in (1, 2, 3, 4)]
    prior = Posterior.uniform(4)
    trace = inf.posterior_trace(rec, cands, prior, OMEGA)
    post = inf.posterior(rec, cands, prior, OMEGA)
    seq = inf.SequentialInference(cands, prior, OMEGA)
    for row, (t, outcome) in zip(trace[1:], rec.entries):
        assert np.allclose(seq.update(t, outcome).weights, row, rtol=0, atol=1e-12)
    assert np.allclose(post.weights, trace[-1], rtol=0, atol=1e-12)
    assert trace[-1][0] == pytest.approx(1.0, abs=1e-12)
    assert trace[-1][1] == pytest.approx(math.exp(logs[1] - logs[0]), rel=1e-9)

    path = tmp_path / "rec.json"
    path.write_text(rec.to_json())
    out = tmp_path / "post.json"
    assert cli.main(["infer", str(path), "--angular", "--omega-mhz", "1e-6",
                     "--gamma-mhz", "0", "--candidates", "1..4",
                     "--out", str(out)]) == cli.EXIT_OK
    doc = json.loads(out.read_text())
    assert np.allclose(doc["trace"], trace, rtol=0, atol=1e-12)
    assert doc["mle_index"] == 0


@st.composite
def inference_cases(draw):
    """Short records with N <= 6, noiseless or noisy, with and without ejection."""
    N = draw(st.integers(4, 6))
    ns = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3, unique=True))
    cands = [FockDistribution.delta(n, 3) for n in ns]
    if draw(st.booleans()):
        cands.append(FockDistribution(np.array([0.0, 0.5, 0.3, 0.2])))
    raw = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=len(cands),
                                 max_size=len(cands))))
    prior = Posterior(raw / raw.sum())
    eject = draw(st.booleans())
    noise = None
    if draw(st.booleans()):
        noise = inf.NoiseParams(draw(st.floats(0.05, 1.0)), draw(st.floats(0.0, 0.5)),
                                N, eject=eject)
    entries = draw(st.lists(st.tuples(st.floats(0.05, 2.0),
                                      st.sampled_from((NO_RYDBERG, RYDBERG))), max_size=6))
    return MeasurementRecord(entries), cands, prior, noise, eject


@given(inference_cases())
def test_posterior_trace_matches_sequential_inference(case):
    rec, cands, prior, noise, eject = case
    seq = inf.SequentialInference(cands, prior, OMEGA, noise=noise, eject=eject)
    rows = [prior.weights]
    try:
        rows += [seq.update(t, outcome).weights for t, outcome in rec.entries]
    except InconsistentRecordError:
        with pytest.raises(InconsistentRecordError):
            inf.posterior_trace(rec, cands, prior, OMEGA, noise=noise, eject=eject)
        return
    trace = inf.posterior_trace(rec, cands, prior, OMEGA, noise=noise, eject=eject)
    assert trace.shape == (len(rec) + 1, len(cands))
    assert np.allclose(trace.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    assert np.allclose(trace, rows, rtol=0, atol=1e-12)


@given(inference_cases())
def test_posterior_trace_of_empty_record_is_the_prior(case):
    _, cands, prior, noise, eject = case
    trace = inf.posterior_trace(MeasurementRecord(), cands, prior, OMEGA,
                                noise=noise, eject=eject)
    assert trace.shape == (1, len(cands))
    assert np.allclose(trace[0], prior.weights, rtol=0, atol=1e-15)


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.tuples(st.floats(0.05, 2.0), st.booleans()), max_size=5))
def test_record_that_becomes_impossible_is_inconsistent(tmp_path, prefix):
    # a changed outcome after zero drive time has probability sin^2(0) = 0
    entries = [(t, RYDBERG if r else NO_RYDBERG) for t, r in prefix]
    last = entries[-1][1] if entries else NO_RYDBERG
    cands = [FockDistribution.delta(n, 4) for n in (1, 2, 3, 4)]
    prior = Posterior.uniform(4)
    inf.posterior_trace(MeasurementRecord(list(entries)), cands, prior, OMEGA)
    entries.append((0.0, RYDBERG if last == NO_RYDBERG else NO_RYDBERG))
    rec = MeasurementRecord(entries)
    with pytest.raises(InconsistentRecordError):
        inf.posterior_trace(rec, cands, prior, OMEGA)
    path = tmp_path / "rec.json"
    path.write_text(rec.to_json())
    assert cli.main(["infer", str(path), "--angular", "--omega-mhz", "1e-6",
                     "--gamma-mhz", "0", "--candidates", "1..4",
                     "--out", str(tmp_path / "post.json")]) == cli.EXIT_INCONSISTENT


def test_noisy_ejection_down_to_the_empty_array(tmp_path):
    # n = N = 2: two Rydberg outcomes eject (2, 2) -> (1, 1) -> (0, 0), the vacuum
    rec = record_of([2e-7, 2e-7], [RYDBERG, RYDBERG])
    path = tmp_path / "rec.json"
    path.write_text(rec.to_json())
    out = tmp_path / "post.json"
    assert cli.main(["infer", str(path), "--gamma-mhz", "0.3", "--tau-eit-us", "0.1",
                     "--n-atoms", "2", "--candidates", "1..2", "--eject",
                     "--out", str(out)]) == cli.EXIT_OK
    doc = json.loads(out.read_text())
    assert np.allclose(np.sum(doc["trace"], axis=1), 1.0, rtol=0, atol=1e-12)
    omega = 2 * math.pi * 2.5e6
    state = inf.ConditionalState(2, omega, inf.NoiseParams(2 * math.pi * 0.3e6, 1e-7, 2,
                                                           eject=True))
    for tau, outcome in rec.entries:
        assert state.update(tau, outcome) > -math.inf
    assert (state.blocks[0].n, state.blocks[0].N) == (0, 0)
    p_s, p_r = state.outcome_probabilities(2e-7)
    assert p_s == pytest.approx(1.0, abs=1e-12) and p_r == 0.0


def test_eject_flag_and_noise_eject_agree():
    """Ejection is on whichever spelling asks for it: the eject argument beside
    a noise model without ejection gives what a noise model with it gives."""
    omega = 2 * math.pi * 2.5e6
    quiet = inf.NoiseParams(2 * math.pi * 0.3e6, 0.3e-6, 10)
    ejecting = inf.NoiseParams(2 * math.pi * 0.3e6, 0.3e-6, 10, eject=True)
    rec = record_of([2.1e-7, 2.1e-7, 2.1e-7], [RYDBERG, RYDBERG, NO_RYDBERG])
    cands = [FockDistribution.delta(n, 4) for n in (1, 2, 3, 4)]
    prior = Posterior.uniform(4)
    want = inf.posterior_trace(rec, cands, prior, omega, noise=ejecting)
    assert not np.allclose(want, inf.posterior_trace(rec, cands, prior, omega, noise=quiet))
    assert np.array_equal(inf.posterior_trace(rec, cands, prior, omega, noise=quiet,
                                              eject=True), want)
    for noise, eject in ((quiet, True), (ejecting, False), (ejecting, True)):
        seq = inf.SequentialInference(cands, prior, omega, noise=noise, eject=eject)
        rows = [seq.update(tau, outcome).weights for tau, outcome in rec.entries]
        assert np.allclose(rows, want[1:], rtol=0, atol=1e-12)
        likelihoods = inf.record_likelihoods([1, 2, 3, 4], omega, noise, eject)
        assert likelihoods.noise.eject

"""Physics that the units cannot change: metamorphic properties of the engine and the
likelihood holders, which rest on the dynamics and not on pinned bytes.

The dynamics depend on time only through sqrt(n) Omega tau, gamma tau and gamma tau_EIT.
So multiplying Omega and gamma by c and dividing tau, tau_EIT and the schedule's times by
c (rescaling) keeps every outcome, posterior, fidelity and traced probability:

* noiseless, every schedule kind, at c = 2 and 8: bit for bit, each drive and trace time
  exactly 1/c of the original (a power of two scales every product exactly);
* noiseless, fixed and uniform-random, at any c: the same records, posteriors and traced
  probabilities within 6e-14;
* noisy, fixed and uniform-random, at any c: the same records, posteriors within 3e-13,
  traced probabilities within 1e-13, cycle and traced fidelities within 6e-13.

A one-cycle Pr(Rydberg) at (n, tau) equals the one at (m, tau sqrt(n / m)) within 2e-13,
in the noiseless holder and in the noisy holder at gamma = 0 and no window (the sqrt(n)
law).  The bounds are about ten times the worst first seen; over 2,000 random examples
of each property the worst were 1.1e-14 (noiseless posteriors), 3.4e-14, 1.4e-14 and
1.1e-13 (noisy posteriors, traced probabilities and fidelities) and 1.6e-14 (sqrt(n) law).
Adaptive-greedy is left out at a c that is not a power of two: grid times whose
fidelities tie within 1e-16 let rounding pick either, and the records part there.

Three more, each bound again about ten times the worst of a 2,000-example run:

* permuting the candidates and the prior alike permutes the posteriors of the engine and
  of `posterior_trace`, noiseless and noisy, with and without ejection, and keeps the
  records, within 3e-15 (worst 3.3e-16 for both);
* the closed-form `log_likelihood_noiseless` of a one-cycle record at (n, tau) equals the
  one at (m, tau sqrt(n / m)) within 1e-13 as a probability (worst 1.0e-14);
* `analysis.detection_time` scales by 1/c under (Omega, gamma) -> (c Omega, c gamma) in
  every regime, within 6e-15 relative (worst 5.6e-16).
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rydqnd import analysis
from rydqnd import engine as eng
from rydqnd import inference as inf
from rydqnd.records import NO_RYDBERG, RYDBERG, FockDistribution, MeasurementRecord, Posterior

OMEGA = 2 * math.pi * 2.5e6
GAMMA = 2 * math.pi * 0.3e6
TAU_EIT = 0.3e-6
INITIAL = st.sampled_from([1, 2, 3, FockDistribution(np.array([0.0, 0.5, 0.3, 0.2]))])
SCALES = st.floats(0.25, 16.0) | st.sampled_from([0.5, 2.0, 8.0])
# about ten times the worst of a 2,000-example run of each property (module docstring)
PERMUTED_ENGINE, PERMUTED_TRACE, CLOSED_FORM_SQRT_N, DETECTION_TIME = 3e-15, 3e-15, 1e-13, 6e-15


def _run(initial, c: float, kind: str, noisy: bool, eject: bool, seed: int):
    """A traced batch of three trajectories at rates times c and times divided by c."""
    schedule = {"fixed": lambda: eng.Schedule.fixed(0.21e-6 / c),
                "uniform-random": lambda: eng.Schedule.uniform_random(0.05e-6 / c, 0.4e-6 / c),
                "adaptive-greedy": lambda: eng.Schedule.adaptive_greedy(grid_points=12)}[kind]()
    params = eng.ProtocolParams(
        omega=OMEGA * c, gamma=GAMMA * c if noisy else 0.0, tau_eit=TAU_EIT / c if noisy else 0.0,
        N=6, n_max=3, mode=eng.NOISY_FIXED_N if noisy else eng.NOISELESS_PURE,
        schedule=schedule, seed=seed, max_cycles=20, ejection_enabled=eject, trace_points=2)
    return eng.run_batch(initial, params, 3)


def _rescaled(initial, c, kind, noisy, eject, seed, exact, posterior=0.0, probability=0.0,
              fidelity=0.0):
    """The batch at c against the batch at 1: the same records and trace rows, times 1/c of
    the original (exactly if exact, else within 1e-14 relative), posteriors, traced
    probabilities and fidelities within the given bounds (bit for bit if exact)."""
    for one, scaled in zip(*(_run(initial, k, kind, noisy, eject, seed) for k in (1.0, c))):
        assert scaled.record.rydberg.tolist() == one.record.rydberg.tolist()
        assert (scaled.ejections, scaled.converged, scaled.final_candidate) == \
            (one.ejections, one.converged, one.final_candidate)
        assert scaled.trace.codes.tolist() == one.trace.codes.tolist()
        times = [(log.record.taus, log.trace.values[0]) for log in (one, scaled)]
        for original, shrunk in zip(*times):
            if exact:
                assert (shrunk * c).tolist() == original.tolist()
            else:
                assert np.allclose(shrunk * c, original, rtol=1e-14, atol=0.0)
        for a, b, bound in ((one.posteriors, scaled.posteriors, posterior),
                            (one.trace.values[1:3], scaled.trace.values[1:3], probability),
                            (one.fidelities, scaled.fidelities, fidelity),
                            (one.trace.values[3], scaled.trace.values[3], fidelity)):
            if exact:
                assert a.tobytes() == b.tobytes()
            else:
                assert np.abs(a - b).max(initial=0.0) <= bound


@settings(max_examples=20)
@given(initial=INITIAL, c=st.sampled_from([2.0, 8.0]),
       kind=st.sampled_from(["fixed", "uniform-random", "adaptive-greedy"]),
       eject=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_noiseless_rescaling_by_a_power_of_two_is_bit_exact(initial, c, kind, eject, seed):
    _rescaled(initial, c, kind, False, eject, seed, exact=True)


@settings(max_examples=20)
@given(initial=INITIAL, c=SCALES, kind=st.sampled_from(["fixed", "uniform-random"]),
       eject=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_noiseless_rescaling_keeps_the_records(initial, c, kind, eject, seed):
    _rescaled(initial, c, kind, False, eject, seed, exact=False, posterior=6e-14,
              probability=6e-14)


@settings(max_examples=20)
@given(initial=INITIAL, c=SCALES, kind=st.sampled_from(["fixed", "uniform-random"]),
       eject=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_noisy_rescaling_keeps_the_records(initial, c, kind, eject, seed):
    _rescaled(initial, c, kind, True, eject, seed, exact=False, posterior=3e-13,
              probability=1e-13, fidelity=6e-13)


@settings(max_examples=60)
@given(n=st.integers(1, 6), m=st.integers(1, 6), tau=st.floats(0.0, 1.5e-6),
       noisy=st.booleans())
def test_one_cycle_rydberg_probability_follows_the_sqrt_n_law(n, m, tau, noisy):
    """Pr(Rydberg) after one drive depends on sqrt(n) Omega tau alone."""
    p, noise = [], inf.NoiseParams(0.0, 0.0, 6) if noisy else None
    for k, t in ((n, tau), (m, tau * math.sqrt(n / m))):
        holder = inf.record_likelihoods([k], OMEGA, noise)
        holder.update(np.array([t]), np.array([True]))
        p.append(math.exp(holder.log_l[0, 0]))
    assert abs(p[0] - p[1]) <= 2e-13


def _permutation_errors(seed: int, noisy: bool, eject: bool, kind: str) -> tuple[float, float]:
    """A traced-off batch of three trajectories and the `posterior_trace` of each of its
    records, under K = 2..4 random candidates and prior and under a random permutation of
    both: the largest |difference| of the permuted run's engine posteriors and of its
    `posterior_trace` from the original's, their columns permuted alike.  The records must
    be the same: neither the states nor the draws depend on the candidates' order."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 5))
    weights = rng.random((k, 4)) * (rng.random((k, 4)) < 0.6)
    weights[np.arange(k), rng.integers(0, 4, k)] += 0.1  # every candidate holds some n
    cands = [FockDistribution(w / w.sum()) for w in weights]
    prior, perm = rng.dirichlet(np.ones(k)), rng.permutation(k)
    schedule = (eng.Schedule.fixed(0.21e-6) if kind == "fixed"
                else eng.Schedule.uniform_random(0.05e-6, 0.4e-6))
    noise = inf.NoiseParams(GAMMA, TAU_EIT, 6) if noisy else None
    runs, traces = [], []
    for order in (np.arange(k), perm):
        candidates, weights = [cands[i] for i in order], Posterior(prior[order])
        params = eng.ProtocolParams(
            omega=OMEGA, gamma=GAMMA if noisy else 0.0, tau_eit=TAU_EIT if noisy else 0.0, N=6,
            n_max=3, mode=eng.NOISY_FIXED_N if noisy else eng.NOISELESS_PURE, schedule=schedule,
            seed=seed, max_cycles=12, ejection_enabled=eject, candidates=candidates, prior=weights)
        runs.append(eng.run_batch(cands[0], params, 3))  # the first candidate: a consistent record
        traces.append([inf.posterior_trace(log.record, candidates, weights, OMEGA, noise, eject)
                       for log in runs[0]])
    engine = trace = 0.0
    for one, permuted, one_trace, permuted_trace in zip(*runs, *traces):
        assert permuted.record.rydberg.tolist() == one.record.rydberg.tolist()
        assert permuted.record.taus.tolist() == one.record.taus.tolist()
        engine = max(engine, np.abs(permuted.posteriors - one.posteriors[:, perm]).max())
        trace = max(trace, np.abs(permuted_trace - one_trace[:, perm]).max())
    return engine, trace


@settings(max_examples=12)
@given(seed=st.integers(0, 2**32 - 1), noisy=st.booleans(), eject=st.booleans(),
       kind=st.sampled_from(["fixed", "uniform-random"]))
def test_permuting_the_candidates_and_prior_permutes_the_posteriors(seed, noisy, eject, kind):
    """The posterior is a function of the set of (candidate, prior weight) pairs: the
    engine's and `posterior_trace`'s, noiseless and noisy, with and without ejection."""
    engine, trace = _permutation_errors(seed, noisy, eject, kind)
    assert engine <= PERMUTED_ENGINE and trace <= PERMUTED_TRACE


def _closed_form_sqrt_n_error(n: int, m: int, tau: float, rydberg: bool) -> float:
    """|Pr(record | n) - Pr(record' | m)| of `log_likelihood_noiseless` for a one-cycle
    record at tau and one at tau sqrt(n / m), the same outcome."""
    outcome = RYDBERG if rydberg else NO_RYDBERG
    p = [math.exp(inf.log_likelihood_noiseless(MeasurementRecord([(t, outcome)]), k, OMEGA))
         for k, t in ((n, tau), (m, tau * math.sqrt(n / m)))]
    return abs(p[0] - p[1])


@settings(max_examples=30)
@given(n=st.integers(1, 6), m=st.integers(1, 6), tau=st.floats(0.0, 1.5e-6),
       rydberg=st.booleans())
def test_the_closed_form_likelihood_follows_the_sqrt_n_law(n, m, tau, rydberg):
    """The closed-form noiseless likelihood of one cycle depends on sqrt(n) Omega tau alone."""
    assert _closed_form_sqrt_n_error(n, m, tau, rydberg) <= CLOSED_FORM_SQRT_N


def _detection_time_error(regime: str, n: float, omega: float, ratio: float, c: float) -> float:
    """The relative |c t_*(c Omega, c gamma) - t_*(Omega, gamma)| of `analysis.detection_time`,
    gamma = ratio * Omega."""
    gamma = ratio * omega
    t = analysis.detection_time(regime, n, omega, gamma)
    return abs(c * analysis.detection_time(regime, n, c * omega, c * gamma) / t - 1.0)


@settings(max_examples=40)
@given(regime=st.sampled_from(analysis.REGIMES), n=st.integers(1, 10) | st.floats(0.1, 100.0),
       omega=st.floats(1e3, 1e9), ratio=st.floats(0.01, 100.0), c=SCALES)
def test_detection_times_scale_as_one_over_c(regime, n, omega, ratio, c):
    """Rescaling Omega and gamma by c divides every regime's detection time by c."""
    assert _detection_time_error(regime, n, omega, ratio, c) <= DETECTION_TIME

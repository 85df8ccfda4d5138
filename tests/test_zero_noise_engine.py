"""Two engines, one physics: the noisy engine at gamma = 0 and tau_EIT = 0 is the
noiseless engine.

The two share no per-cycle code: block propagators, projections and the block
ejection on one side (`dynamics.BlockBatch`, `inference.NoisyLikelihoods`);
cos^2/sin^2 odds, Born weights and the holder's shift rule on the other
(`dynamics.PureBatch`, `inference.NoiselessLikelihoods`).  Run with the same seed,
photon number, candidates, schedule and ejection, they give the same records;
their posteriors, and their traced probabilities, agree within POSTERIOR_BOUND,
and every noisy fidelity lies within FIDELITY_BOUND of 1 (a noiseless row's is 1).
The bounds are about ten times the worst seen over 400 random runs, a hundred
of each schedule kind (9.8e-14 and 4.8e-13).

Two things part the records where the physics does not, and the property checks
that nothing else does, comparing the runs up to that cycle:

* a measurement draw within TIE of its Rydberg odds may fall on either side of
  the two engines' odds.  A uniform draw does so with probability 2e-12 per
  cycle, and an example has at most 36 cycles: about once in 10^10 examples.
* the adaptive-greedy schedule drives for the first grid time of the largest
  expected fidelity.  Where grid times tie within TIE (one candidate alone, or
  candidates whose sqrt(n) periods overlap on the grid), the engines may pick
  different ones.  The property then checks that both picks tie.
"""

import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from rydqnd import analysis as ana
from rydqnd import engine as eng
from rydqnd import inference as inf
from rydqnd.records import FockDistribution, is_rydberg

OMEGA = 2 * math.pi * 2.5e6
POSTERIOR_BOUND, FIDELITY_BOUND, TIE = 1e-12, 1e-11, 1e-12
# an odd grid on (0, 4 pi / omega] never holds both a time and the time 2 pi / omega later
ROWS, CYCLES, GRID = 3, 12, 15


@st.composite
def runs(draw):
    """(n_true, params): N atoms, Fock candidates of up to three photon numbers
    (n_true among them), a drive-time schedule of every kind, ejection on or off,
    traced or not; the noise fields at 0, so either mode takes them."""
    N = draw(st.integers(1, 6))
    ns = sorted(draw(st.sets(st.integers(0, N), min_size=1, max_size=3)))
    taus = st.floats(0.0, 0.5e-6)
    lo, hi = sorted(draw(st.lists(taus, min_size=2, max_size=2)))
    schedule = {"fixed": lambda: eng.Schedule.fixed(hi),
                "uniform-random": lambda: eng.Schedule.uniform_random(lo, hi),
                "precomputed-list": lambda: eng.Schedule.precomputed(
                    draw(st.lists(taus, min_size=CYCLES, max_size=CYCLES))),
                "adaptive-greedy": lambda: eng.Schedule.adaptive_greedy(GRID),
                }[draw(st.sampled_from(sorted(eng.Schedule.KINDS)))]()
    params = eng.ProtocolParams(
        omega=OMEGA, N=N, n_max=max(1, ns[-1]), schedule=schedule, max_cycles=CYCLES,
        seed=draw(st.integers(0, 99)), ejection_enabled=draw(st.booleans()),
        candidates=[FockDistribution.delta(n, N) for n in ns],
        trace_points=draw(st.sampled_from([0, 2])))
    return draw(st.sampled_from(ns)), params


def _measurement_draws(params: eng.ProtocolParams) -> np.ndarray:
    """Each row's measurement draws, (rows, cycles): the last draw of each cycle
    of its spawned stream, as `engine.run_batch` takes them."""
    per_cycle = 1 + params.schedule.draws
    seeds = np.random.SeedSequence(params.seed).spawn(ROWS)
    return np.array([np.random.default_rng(s).random(per_cycle * CYCLES)[per_cycle - 1::per_cycle]
                     for s in seeds])


def _parting(noisy, clean, n_true, params, draws) -> int:
    """The first cycle where the two records part, checking that a greedy tie or a
    draw within TIE of its odds parts them; the records' length where they do not."""
    a, b = noisy.record.entries, clean.record.entries
    c = next((k for k, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    if c == len(a) == len(b):
        return c
    assert c < min(len(a), len(b)), "one record stopped where the other went on"
    (tau_a, out_a), (tau_b, out_b) = a[c], b[c]
    if tau_a != tau_b:  # only the greedy schedule's ties move a drive time
        assert params.schedule.kind == "adaptive-greedy"
        grid = np.sort(ana.default_tau_grid(OMEGA, GRID))
        fid = ana._fidelity_over_grid([t for t, _ in b[:c]], grid, params.candidates,
                                      params.prior, OMEGA, None, params.ejection_enabled)
        picked = fid[np.searchsorted(grid, [tau_a, tau_b])]
        assert (picked >= fid.max() - TIE).all()
        return c
    log_l = inf._log_likelihood_table(clean.record, [n_true], OMEGA, None, params.ejection_enabled)
    p = math.exp(log_l[c + 1, 0] - log_l[c, 0])  # the noiseless odds of b's outcome
    assert abs(draws[c] - (p if is_rydberg(out_b) else 1.0 - p)) <= TIE
    return c


@given(runs())
def test_noisy_engine_at_zero_noise_is_the_noiseless_engine(run):
    n_true, params = run
    noisy = eng.run_batch(n_true, eng.ProtocolParams(**{**vars(params), "mode": eng.NOISY_FIXED_N}),
                          ROWS)
    clean = eng.run_batch(n_true, eng.ProtocolParams(**{**vars(params), "mode": eng.NOISELESS_PURE}),
                          ROWS)
    for a, b, draws in zip(noisy, clean, _measurement_draws(params)):
        c = _parting(a, b, n_true, params, draws)
        assert np.abs(a.posteriors[:c + 1] - b.posteriors[:c + 1]).max() <= POSTERIOR_BOUND
        assert np.abs(a.fidelities[:c] - 1.0).max(initial=0.0) <= FIDELITY_BOUND
        assert b.fidelities.tolist() == [1.0] * len(b.fidelities)
        if c == len(b.record):  # whole records: their traces side by side
            assert a.trace.codes.tolist() == b.trace.codes.tolist()
            assert a.trace.values[0].tolist() == b.trace.values[0].tolist()  # the times
            assert np.abs(a.trace.values[1:3] - b.trace.values[1:3]).max(initial=0.0) <= POSTERIOR_BOUND
            assert np.abs(a.trace.values[3] - 1.0).max(initial=0.0) <= FIDELITY_BOUND
        noise = inf.NoiseParams(0.0, 0.0, params.N)
        traces = [inf.posterior_trace(b.record, params.candidates, params.prior, OMEGA, model,
                                      params.ejection_enabled) for model in (noise, None)]
        assert np.abs(traces[0] - traces[1]).max() <= POSTERIOR_BOUND

"""The engine's posteriors are `inference.posterior_trace` of its own records.

`engine._run` updates each trajectory's posterior cycle by cycle, from the
likelihood holder its noiseless states read too; `posterior_trace`, the
posterior `infer` writes, runs over a whole record at once.  Both end in
`Mixture.posterior` over the same likelihoods, so a noiseless log's posteriors
equal the trace of its record bit for bit, whatever photon numbers the state
and the candidates hold.  A noisy run in `posterior_trace` restarts from the
fresh |S_n><S_n| after a NoRydberg outcome or an ejection, where the engine
carries the projected state, a few ulps away, so there they agree within
1e-15.  The engine logs the prior as given before the first cycle, so the
rows compared start after it.
"""

import math

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st

from rydqnd import engine as eng
from rydqnd import inference as inf
from rydqnd.errors import InconsistentRecordError
from rydqnd.records import FockDistribution, Posterior


@st.composite
def batches(draw, noisy: bool):
    """(initial state, params) of a random batch: a Born state with or without
    vacuum weight; Fock candidates of a subset of 0..N, which may reach past the
    state's photon numbers and miss some of them, and in some cases a mixture
    candidate; a uniform or a random prior; fixed or uniform-random drive times;
    ejection on or off."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_max = draw(st.integers(1, 3 if noisy else 6))
    N = n_max + draw(st.integers(0, 2))
    p = rng.random(n_max + 1) * (rng.random(n_max + 1) < 0.7)
    p[0] *= draw(st.booleans())  # vacuum weight or none
    p[n_max] += 0.1
    ns = draw(st.lists(st.integers(0, N), min_size=1, max_size=4, unique=True))
    cands = [FockDistribution.delta(n, N) for n in sorted(ns)]
    if draw(st.booleans()):  # a mixture candidate
        q = rng.random(N + 1) * (rng.random(N + 1) < 0.6)
        q[rng.integers(N + 1)] += 0.1
        cands.append(FockDistribution(q / q.sum()))
    prior = rng.dirichlet(np.ones(len(cands))) if draw(st.booleans()) else np.ones(len(cands))
    scale = 1e-6 if noisy else 1.0
    lo, hi = sorted(draw(st.lists(st.floats(0.03, 0.5 if noisy else 2.0), min_size=2,
                                  max_size=2)))
    schedule = draw(st.sampled_from([eng.Schedule.fixed(hi * scale),
                                     eng.Schedule.uniform_random(lo * scale, hi * scale)]))
    if noisy:  # the paper's rates, with and without a measurement window
        rates = dict(omega=2 * math.pi * 2.5e6, gamma=2 * math.pi * 0.3e6, mode=eng.NOISY_FIXED_N,
                     tau_eit=draw(st.sampled_from([0.0, 0.3e-6])), max_cycles=8)
    else:
        rates = dict(omega=1.0, mode=eng.NOISELESS_PURE, max_cycles=40)
    params = eng.ProtocolParams(N=N, n_max=n_max, schedule=schedule, seed=draw(st.integers(0, 99)),
                                ejection_enabled=draw(st.booleans()), candidates=cands,
                                prior=Posterior(prior / prior.sum()), **rates)
    return FockDistribution(p / p.sum()), params


def _posteriors(initial, params):
    """Each log's posteriors after every cycle, and `posterior_trace` of its record."""
    try:
        logs = eng.run_batch(initial, params, 3)
    except InconsistentRecordError:  # every candidate ruled out: no posterior to compare
        assume(False)
    cands, prior = params.resolved_candidates()
    for log in logs:
        trace = inf.posterior_trace(log.record, cands, prior, params.omega, params.noise(),
                                    params.ejection_enabled)
        yield np.array(log.posteriors[1:]).reshape(-1, len(cands)), trace[1:]


@given(batches(noisy=False))
def test_noiseless_engine_posteriors_are_the_infer_posteriors_bit_for_bit(batch):
    for engine_rows, infer_rows in _posteriors(*batch):
        assert engine_rows.tolist() == infer_rows.tolist()


@given(batches(noisy=True))
def test_noisy_engine_posteriors_are_the_infer_posteriors_within_1e_15(batch):
    for engine_rows, infer_rows in _posteriors(*batch):
        assert np.abs(engine_rows - infer_rows).max(initial=0.0) <= 1e-15

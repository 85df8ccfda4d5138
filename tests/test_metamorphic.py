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
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rydqnd import engine as eng
from rydqnd import inference as inf
from rydqnd.records import FockDistribution

OMEGA = 2 * math.pi * 2.5e6
GAMMA = 2 * math.pi * 0.3e6
TAU_EIT = 0.3e-6
INITIAL = st.sampled_from([1, 2, 3, FockDistribution(np.array([0.0, 0.5, 0.3, 0.2]))])
SCALES = st.floats(0.25, 16.0) | st.sampled_from([0.5, 2.0, 8.0])


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

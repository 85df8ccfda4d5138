"""Golden trajectory logs: `TrajectoryLog.to_json()` bytes are pinned.

Each case runs one seeded batch and compares the sha256 of its logs, joined
by newlines, with a digest captured from the per-trajectory engine (one
trajectory at a time through `PureCollectiveState`, `evolve_pure`,
`measure_pure` and `SequentialInference`).  Any change to a record, a
posterior bit, a trace row or the stopping cycle changes the digest.  The
digests hold where they were captured (x86-64 Linux, glibc libm, numpy 2.4):
the posteriors carry libm's exp, log and pow to the last bit.

Five noiseless digests come from the Born-weight holder instead:
`fixed-born-eject-trace`, `random-born-trace`, `greedy-amps-eject-trace`,
`wide-random-eject-trace` and `wide-fixed-trace`.  `dynamics.PureBatch`
reads a row's trace populations from the closed-form odds weighted by its
Born weights, not from rotated amplitudes, and over several occupied photon
numbers the two round differently (by at most 5.6e-16 in these cases;
`scripts/compare_logs.py`).  Every other field of those logs, and every byte
of the other cases, is what the per-trajectory engine wrote.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rydqnd import analysis as an
from rydqnd import engine as eng
from rydqnd.records import FockDistribution, Posterior

OMEGA = 2 * math.pi * 2.5e6
GAMMA = 2 * math.pi * 0.3e6
TAU_EIT = 0.3e-6
BORN = FockDistribution(np.array([0.0, 0.5, 0.3, 0.2]))
# a superposition with vacuum weight and complex phases
AMPS = np.array([0.3, 0.6j, -0.5, 0.0])
AMPS = AMPS / np.linalg.norm(AMPS)
MIXTURES = [FockDistribution.delta(1, 3), FockDistribution(np.array([0.0, 0.0, 0.6, 0.4])),
            FockDistribution.delta(3, 3)]
WIDE = FockDistribution(np.array([0.0] + [0.1] * 9 + [0.1]))  # n = 1..10


def _noiseless(**overrides):
    base = dict(omega=1.0, gamma=0.0, tau_eit=0.0, N=6, n_max=3, mode=eng.NOISELESS_PURE,
                schedule=eng.Schedule.fixed(1.596), seed=11, max_cycles=60)
    base.update(overrides)
    return eng.ProtocolParams(**base)


def _noisy(**overrides):
    base = dict(omega=OMEGA, gamma=GAMMA, tau_eit=TAU_EIT, N=6, n_max=3,
                mode=eng.NOISY_FIXED_N, schedule=eng.Schedule.fixed(0.21e-6), seed=5,
                max_cycles=12)
    base.update(overrides)
    return eng.ProtocolParams(**base)


# name -> (initial state, params, batch size)
CASES = {
    "fixed-int": (2, _noiseless(), 5),
    "fixed-born-eject-trace": (BORN, _noiseless(ejection_enabled=True, trace_points=3), 5),
    "random-born-trace": (BORN, _noiseless(schedule=eng.Schedule.uniform_random(0.1, 1.2),
                                           trace_points=3), 6),
    "random-amps-eject": (AMPS, _noiseless(schedule=eng.Schedule.uniform_random(0.1, 1.2),
                                           ejection_enabled=True, seed=3), 8),
    "random-mixtures-prior": (BORN, _noiseless(
        schedule=eng.Schedule.uniform_random(0.2, 2.0), candidates=MIXTURES,
        prior=Posterior(np.array([0.2, 0.5, 0.3])), seed=8), 8),
    "precomputed-int-eject-trace": (3, _noiseless(
        schedule=eng.Schedule.precomputed([0.4 + 0.37 * k for k in range(40)]),
        ejection_enabled=True, trace_points=3, max_cycles=40), 4),
    "greedy-born": (BORN, _noiseless(schedule=eng.Schedule.adaptive_greedy(grid_points=50),
                                     max_cycles=9), 6),
    "greedy-amps-eject-trace": (AMPS, _noiseless(
        schedule=eng.Schedule.adaptive_greedy(grid_points=50), ejection_enabled=True,
        trace_points=3, max_cycles=7), 4),
    "unconverged-int-trace": (1, _noiseless(omega=OMEGA, schedule=eng.Schedule.fixed(0.1e-6),
                                            threshold=1.1, max_cycles=15, trace_points=3), 2),
    "wide-random-eject-trace": (WIDE, _noiseless(
        N=12, n_max=10, schedule=eng.Schedule.uniform_random(0.05, 0.6),
        ejection_enabled=True, trace_points=2, max_cycles=200, seed=21), 6),
    "wide-fixed-trace": (WIDE, _noiseless(N=12, n_max=10, schedule=eng.Schedule.fixed(0.9),
                                          trace_points=3, max_cycles=200, seed=22), 3),
    "noisy-fixed-trace": (2, _noisy(trace_points=2), 2),
    "noisy-random-born-eject": (BORN, _noisy(
        schedule=eng.Schedule.uniform_random(0.05e-6, 0.4e-6), ejection_enabled=True), 3),
    "noisy-greedy": (3, _noisy(schedule=eng.Schedule.adaptive_greedy(grid_points=12),
                               max_cycles=3), 2),
    # the ideal twin ejects between fidelity sub-steps; one row ejects to the vacuum
    "noisy-int-eject-trace": (3, _noisy(ejection_enabled=True, trace_points=2, seed=10), 3),
    "noisy-mixtures-prior": (BORN, _noisy(candidates=MIXTURES,
                                          prior=Posterior(np.array([0.2, 0.5, 0.3]))), 3),
    # no measurement window, so no measure-phase trace rows
    "noisy-unconverged-no-window-trace": (2, _noisy(threshold=1.1, tau_eit=0.0,
                                                    trace_points=2, max_cycles=6), 2),
    "noisy-random-born-trace": (BORN, _noisy(
        schedule=eng.Schedule.uniform_random(0.05e-6, 0.4e-6), trace_points=2), 3),
}

DIGESTS = {
    "fixed-born-eject-trace": "5a0d1369ef47d7292e845c6ff6334c6c11db653e09e37f788099d12ef4c239a1",
    "fixed-int": "47c0db1be299f53fb1293af96b05bf024a45f8b8df4796474083f0f8c4c62a8f",
    "greedy-amps-eject-trace": "01f48c3f09ca005284d6ff0eaf15b1a0e876af4187925531b749f3aeff63a877",
    "greedy-born": "55d6aa036b913774e4b0891ad475cfa7832a27d0346ad951351dd57b7f0a279e",
    "noisy-fixed-trace": "0fd139e618e1f74fe5e5d38c60a35d5c2830c9db25a65a2acea724bfa5eba2f0",
    "noisy-greedy": "81022ab44372ff451cb0dbf39a6d51e361fbb8ccdbd8ed8d194359dc5116c774",
    "noisy-int-eject-trace": "0eff37cde8f756e82cb9cdf30a8d8ce9240420278c98cd9a5d4c332cea4a6a53",
    "noisy-mixtures-prior": "c7777bc53fe87d07afd87c187b0b14a37c29f9d5b382d0bab8382d4def8fd57a",
    "noisy-random-born-eject": "421916438c0f1642fc11740dc51ea0be2882c481100d5239eefe57eb2db64fcc",
    "noisy-random-born-trace": "1777b1071da9706502dcdf98b172500395e9651ccffcbd296f8c8063f5d130db",
    "noisy-unconverged-no-window-trace": "91f1308100df400f79a14069e5c5599db5647d95364ab0e314868b76d16301e8",
    "precomputed-int-eject-trace": "369f11a27372302fa7996bb326c1aeaba03cf92e4e48c6b94d205ddce4a1a6b1",
    "random-amps-eject": "3a6e8cd8d13bfba19f9d3ca5e0edddaba89213114c699c4c0d95fea3f6156f49",
    "random-born-trace": "569cdbc2ef312cc8b81fa7d21abf91e83ec54f42b77cf7c5c12125e05b1a62c4",
    "random-mixtures-prior": "d4e008b1ed9db0cb7b67b2ebfc34c2a268f870ef7530f0ba37787a880470f425",
    "unconverged-int-trace": "7d89701162387660b06deed19598c6c866fb01fd8003a74378b1f997bdaaf49e",
    "wide-fixed-trace": "fae85c26144b32ab582b1da64bf0f6ebb85c6f51dc92789a971d8505072622c7",
    "wide-random-eject-trace": "4f4093fd40f5fef771d285935e4e859b20ee28ae5ec3fa78377b873c13de1b34",
}


def test_greedy_eject_batch_follows_the_ejecting_local_schedule():
    # the shared greedy drive times plan for the ejections the batch performs
    initial, params, batch = CASES["greedy-amps-eject-trace"]
    cands, prior = params.resolved_candidates()
    grid = an.default_tau_grid(params.omega, params.schedule.grid_points)
    plan = an.optimize_schedule_local(params.max_cycles, cands, prior, grid, params.omega,
                                      eject=True).taus
    for log in eng.run_batch(initial, params, batch):
        taus = [tau for tau, _ in log.record.entries]
        assert taus == plan[:len(taus)]


def _digest(logs) -> str:
    return hashlib.sha256("\n".join(log.to_json() for log in logs).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_batch_logs_match_golden_digest(name):
    initial, params, batch = CASES[name]
    assert _digest(eng.run_batch(initial, params, batch)) == DIGESTS[name]


@given(st.sampled_from(sorted(CASES)),
       st.integers(1, 4), st.integers(0, 4))
@example("noisy-greedy", 2, 3)
def test_batch_logs_do_not_depend_on_partition(name, small, extra):
    """run_batch(B1) is a prefix of run_batch(B2), and log i is run_protocol with key (i,)."""
    initial, params, _ = CASES[name]
    big = [log.to_json() for log in eng.run_batch(initial, params, small + extra)]
    assert [log.to_json() for log in eng.run_batch(initial, params, small)] == big[:small]
    i = small - 1
    assert eng.run_protocol(initial, params, seed_key=(i,)).to_json() == big[i]

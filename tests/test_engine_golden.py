"""Golden trajectory logs: `TrajectoryLog.to_json()` bytes are pinned.

Each case runs one seeded batch and compares the sha256 of its logs, joined
by newlines, with a digest captured from the per-trajectory engine (one
trajectory at a time through `PureCollectiveState`, `evolve_pure`,
`measure_pure` and `SequentialInference`).  Any change to a record, a
posterior bit, a trace row or the stopping cycle changes the digest.  The
digests hold where they were captured (x86-64 Linux with AVX-512, numpy
2.4): the posteriors carry numpy's vectorised exp and log to the last bit.

Some digests were re-pinned since, each after `scripts/compare_logs.py`
showed that only rounding moved (the comparisons are in `comparisons/`):

* Born-weight noiseless rows: `fixed-born-eject-trace`, `random-born-trace`,
  `greedy-amps-eject-trace`, `wide-random-eject-trace` and
  `wide-fixed-trace`.  `dynamics.PureBatch` reads a row's trace populations
  from the closed-form odds weighted by its Born weights, not from rotated
  amplitudes (by at most 5.6e-16 in these cases).
* numpy's square, exp, log and sums in place of libm's pow, exp and log and
  left-to-right sums: `fixed-born-eject-trace`, `fixed-int`,
  `noisy-fixed-trace`, `noisy-mixtures-prior`, `noisy-random-born-eject`,
  `noisy-random-born-trace`, `noisy-unconverged-no-window-trace`,
  `random-amps-eject`, `random-born-trace`, `random-mixtures-prior`,
  `unconverged-int-trace`, `wide-fixed-trace` and
  `wide-random-eject-trace`.  Posteriors moved by at most 3.3e-16 and trace
  populations by 1.1e-16; no outcome and no drive time changed.
* noiseless states read from the likelihood holder: `fixed-born-eject-trace`,
  `greedy-amps-eject-trace`, `random-born-trace`, `wide-fixed-trace` and
  `wide-random-eject-trace`.  `dynamics.PureBatch` weights the odds by the
  stored Born weights times the record likelihoods, each row scaled by its
  largest log weight, instead of Born weights renormalised at every outcome;
  only trace populations moved (by at most 2.4e-15), every posterior, outcome,
  drive time and stopping cycle is unchanged.
* the one-product fidelity read: every noisy case.  `dynamics._overlaps` reads
  each row's fidelity in one product, weighted in complex arithmetic, and
  `dynamics.BlockBatch` collapses each twin without a global phase; only
  fidelities moved (by at most 1.1e-16, trace fidelities by 3.3e-16).
* one operator per noisy cycle: every noisy case but `noisy-random-born-eject`,
  whose bytes stayed.  Both noisy holders advance a cycle by K = W U(tau), the
  window composed into the drive, and `dynamics.BlockBatch` applies a shared
  drive time's operators as one block-diagonal product per sector group;
  posteriors moved by at most 2.2e-16, fidelities and trace values by
  2.2e-16, and no record changed (`comparisons/31_one_cycle_operator.txt`).
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
    # drive times of 0 among the entries: those cycles drive no row, so their trace
    # rows are the window's and the collapse's alone; rows eject between them
    "noisy-precomputed-zero-eject-trace": (3, _noisy(
        schedule=eng.Schedule.precomputed([0.21e-6, 0.0, 0.35e-6, 0.0, 0.0, 0.12e-6] * 2),
        ejection_enabled=True, trace_points=2, seed=7), 3),
    "precomputed-born-zero-trace": (BORN, _noiseless(
        schedule=eng.Schedule.precomputed([0.4, 0.0, 1.1, 0.0, 0.0, 1.596] * 5),
        trace_points=3, max_cycles=30), 4),
}

DIGESTS = {
    "fixed-born-eject-trace": "0e30899bee88fc690753a9c3cdc9f7850f11f0d0add92010950187130fdca3bd",
    "fixed-int": "fe6d56f581d4b4124b72ced0592611730a479b5fd3ef829bce6d3399efb87adf",
    "greedy-amps-eject-trace": "5ce46c832ac67c8052c936adf28a0188bf14bb19b9c2991e2c18753b32e61d8a",
    "greedy-born": "55d6aa036b913774e4b0891ad475cfa7832a27d0346ad951351dd57b7f0a279e",
    "noisy-fixed-trace": "45c3aec1b0ea0db28742e5a9782654f37959846fdd6e0a68642072c5c04bc616",
    "noisy-greedy": "991a1ec537501302df5a54b7e6b02002abfac8986ad6bc0da3f936909af20601",
    "noisy-int-eject-trace": "9c8170bcf40d3ff38e68b9dc7257f8d4e59941ac4266a683fd78f232247bf6a6",
    "noisy-mixtures-prior": "0fc273c31f2c09264a6ff74e327c1643cf8cf3e6d19657dff5ba6bf34cf5d6bc",
    "noisy-precomputed-zero-eject-trace":
        "543159904a17d2217e806d057c27284d320a550d90c90990bbe884c75506c546",
    "noisy-random-born-eject": "fdc5c9004dfad98e8d5959b448612fcd3449a7246e3eb79502c017ec355259d6",
    "noisy-random-born-trace": "266eacc1446a8972b4bbdc617d6da9e80ae5ef1b65e240a99e45019e18a3a972",
    "noisy-unconverged-no-window-trace": "21f873163b9654d3d2df48287c8406e47d017498ce26e9cdeac7a33758be60e9",
    "precomputed-born-zero-trace": "335d2da23bb2036a0412ea25456e8bb181578a4b0028ba8c4f95bbfb58d065c8",
    "precomputed-int-eject-trace": "369f11a27372302fa7996bb326c1aeaba03cf92e4e48c6b94d205ddce4a1a6b1",
    "random-amps-eject": "37c07916debc2c9da2269ef26c7ce67c5b5e637b367b8c79815f9479bbc85d8b",
    "random-born-trace": "e7633fc6b56b9df70b0202fe8fe3cf51ab5f34990088f9811795be15b67e54c6",
    "random-mixtures-prior": "7aa7c4bd483d15564e78557234c05b15533d618470fde96570c3c0e91df91dbf",
    "unconverged-int-trace": "ab559532009e5213479dc894f55dacfd2b0f9300db328c6b6fb6fc504ad7948c",
    "wide-fixed-trace": "4f924f835397e099ddfd0b1c7da04d2904c949e3dc4fc112b534b25879958e5a",
    "wide-random-eject-trace": "37d32ea6d1e9d780e36c639cbb1c17e0d1803a3232c370c1f6256c243bac7e9d",
}


def test_greedy_eject_batch_follows_the_ejecting_local_schedule():
    # the shared greedy drive times plan for the ejections the batch performs
    initial, params, batch = CASES["greedy-amps-eject-trace"]
    cands, prior = params.candidates, params.prior
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

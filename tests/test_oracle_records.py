"""Measurement-conditioned records checked against the dense oracle.

A record cycle drives for tau, dephases through the drive-off measurement
window tau_EIT, projects onto the observed sector and, with ejection, removes
the atom that carried the Rydberg excitation.  The dense chain repeats those
steps on the product basis (`evolve_dense`, `evolve_dense` at omega = 0,
`project_dense`, `eject_dense`), sharing no code with the symmetric-block
kernels of `inference.NoisyLikelihoods`, which the noisy engine and `infer` run.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rydqnd import dense_oracle as do
from rydqnd import engine as eng
from rydqnd import inference as inf
from rydqnd.errors import ImpossibleOutcomeError
from rydqnd.records import NO_RYDBERG, RYDBERG

import refs

OMEGA = 1.0
BOUND = 1e-8  # the dense oracle's own trace bound


@st.composite
def record_configs(draw):
    """(N, n_true, gamma, tau_eit, eject, taus): N <= 5, at most 8 cycles.

    With ejection the true photon number stays below N, so the dense array
    keeps at least one atom after every ejection.
    """
    eject = draw(st.booleans())
    N = draw(st.integers(2, 5))
    n_true = draw(st.integers(1, N - 1 if eject else N))
    gamma = draw(st.floats(0.3, 1.0)) * OMEGA
    tau_eit = draw(st.floats(0.0, 0.7)) / OMEGA
    taus = draw(st.lists(st.floats(0.1, 2.0), min_size=1, max_size=8))
    return N, n_true, gamma, tau_eit, eject, [tau / OMEGA for tau in taus]


def _dense_window(state, tau, gamma, tau_eit):
    """The dense state after a drive of length tau and the measurement window."""
    return do.evolve_dense(do.evolve_dense(state, tau, OMEGA, gamma), tau_eit, 0.0, gamma)


def _dense_collapse(windowed, n, outcome, eject):
    """Projection onto the outcome, then ejection: (probability, state, n)."""
    p, state = refs.project_dense(windowed, outcome)
    if eject and outcome == RYDBERG:
        return p, refs.eject_dense(state), n - 1
    return p, state, n


def _dense_cycle(state, n, tau, outcome, gamma, tau_eit, eject):
    """One record cycle of the dense chain: (probability, state, n)."""
    return _dense_collapse(_dense_window(state, tau, gamma, tau_eit), n, outcome, eject)


def _dense_start(n, N):
    return do.pure_state(do.build_symmetric_ket(n, N), N)


@settings(max_examples=40)
@given(record_configs(), st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8))
def test_conditional_likelihoods_match_dense_chain(config, uniforms):
    """log Pr(record prefix | n) of every candidate n agrees with the dense
    chain after every cycle, on records sampled from the dense true state."""
    N, n_true, gamma, tau_eit, eject, taus = config
    noise = inf.NoiseParams(gamma, tau_eit, N)
    state, n = _dense_start(n_true, N), n_true
    record = []
    for tau, u in zip(taus, uniforms):
        windowed = _dense_window(state, tau, gamma, tau_eit)
        p_rydberg = do.sector_populations_dense(windowed.N, windowed.rho)[1]
        outcome = RYDBERG if u < p_rydberg else NO_RYDBERG
        record.append((tau, outcome))
        _, state, n = _dense_collapse(windowed, n, outcome, eject)

    for n_cand in range(0, N if eject else N + 1):
        row = inf.NoisyLikelihoods([n_cand], OMEGA, noise, eject)
        dense, n = _dense_start(n_cand, N), n_cand
        log_dense = 0.0
        for t, (tau, outcome) in enumerate(record):
            row.update(np.array([tau]), np.array([outcome == RYDBERG]))
            log_l = row.log_l[0, 0]
            try:
                p, dense, n = _dense_cycle(dense, n, tau, outcome, gamma, tau_eit, eject)
            except ImpossibleOutcomeError:
                assert log_l == -math.inf, f"n={n_cand}, cycle {t}"
                break
            log_dense += math.log(p)
            assert abs(log_l - log_dense) <= BOUND, (
                f"n={n_cand}, cycle {t}: {log_l!r} vs dense {log_dense!r}")


@settings(max_examples=40)
@given(record_configs(), st.integers(0, 2**16))
def test_noisy_engine_fidelity_matches_dense_overlap(config, seed):
    """The noisy engine's per-cycle retrieval fidelity equals <psi|rho|psi>
    of the dense chain replaying its record.  The ideal twin collapses onto
    one collective ket per cycle: |R_n> after a kept Rydberg outcome,
    otherwise |S_n> of the atoms left."""
    N, n_true, gamma, tau_eit, eject, taus = config
    params = eng.ProtocolParams(
        omega=OMEGA, gamma=gamma, tau_eit=tau_eit, N=N, n_max=N,
        schedule=eng.Schedule.precomputed(taus), seed=seed, max_cycles=len(taus),
        ejection_enabled=eject, threshold=2.0)  # never reached: all cycles run
    log = eng.run_protocol(n_true, params)
    assert len(log.record) == len(taus)
    state, n = _dense_start(n_true, N), n_true
    for t, ((tau, outcome), fid) in enumerate(zip(log.record.entries, log.fidelities)):
        _, state, n = _dense_cycle(state, n, tau, outcome, gamma, tau_eit, eject)
        ket = (refs.build_rydberg_ket(n, state.N) if outcome == RYDBERG and not eject
               else do.build_symmetric_ket(n, state.N))
        overlap = float(np.vdot(ket, state.rho @ ket).real)
        assert abs(fid - overlap) <= BOUND, f"cycle {t}: {fid!r} vs dense {overlap!r}"

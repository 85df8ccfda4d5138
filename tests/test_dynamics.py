"""Block-state dynamics: evolution, measurement, ejection, fidelity."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.linalg import expm

from rydqnd import dense_oracle as do
from rydqnd import dynamics as dyn
from rydqnd.symbasis import build_block, sector
from rydqnd.errors import DomainError, ImpossibleOutcomeError, PreconditionError
from rydqnd.records import NO_RYDBERG, RYDBERG


# ---------------------------------------------------------------------------
# pure (noiseless) states

def test_pure_rabi_law():
    omega = 1.7
    for n in range(1, 6):
        state = dyn.PureCollectiveState.from_stored_amplitudes(
            np.eye(6)[n].astype(complex))
        for t in np.linspace(0.0, 3.0, 7):
            evolved = dyn.evolve_pure(state, float(t), omega)
            p_r = float(np.sum(np.abs(evolved.b) ** 2))
            assert p_r == pytest.approx(
                math.sin(math.sqrt(n) * omega * t) ** 2, abs=1e-12)


def test_pure_measurement_collapses_and_renormalizes():
    amps = np.sqrt(np.array([0.0, 0.5, 0.5]))
    state = dyn.PureCollectiveState.from_stored_amplitudes(amps.astype(complex))
    state = dyn.evolve_pure(state, 0.6, 1.0)
    out_lo, kept_lo, p_lo = dyn.measure_pure(state, 1e-12)
    out_hi, kept_hi, p_hi = dyn.measure_pure(state, 1.0 - 1e-12)
    # low draws map to the Rydberg branch, high draws to its complement
    assert (out_lo, out_hi) == (RYDBERG, NO_RYDBERG)
    assert p_lo + p_hi == pytest.approx(1.0, abs=1e-12)
    assert kept_lo.norm() == pytest.approx(1.0, abs=1e-12)
    assert kept_hi.norm() == pytest.approx(1.0, abs=1e-12)


def test_vacuum_never_reports_rydberg():
    state = dyn.PureCollectiveState.from_stored_amplitudes(np.array([1.0, 0.0], complex))
    evolved = dyn.evolve_pure(state, 1.0, 1.0)
    outcome, _, p = dyn.measure_pure(evolved, 0.999999)
    assert outcome == NO_RYDBERG and p == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# block states vs the dense oracle

DENSE_CASES = [(1, 2), (1, 3), (2, 4), (2, 5), (3, 5)]


@pytest.mark.parametrize("n,N", DENSE_CASES)
@pytest.mark.parametrize("gamma", [0.0, 0.1, 1.0])
def test_sector_populations_match_dense(n, N, gamma):
    omega = 1.0
    blocks = dyn.symmetric_state_blocks(n, N)
    dense = do.pure_state(do.build_symmetric_ket(n, N), N)
    for t in np.linspace(0.0, 5.0, 11):
        eb = dyn.evolve_blocks(blocks, float(t), omega, gamma)
        ed = do.evolve_dense(dense, float(t), omega, gamma)
        pb = dyn.sector_probabilities(eb)
        pd = do.sector_populations_dense(ed)
        assert pb[0] == pytest.approx(pd[0], abs=1e-8)
        assert pb[1] == pytest.approx(pd[1], abs=1e-8)


def test_initial_block_state_has_unit_trace_and_no_rydberg():
    blocks = dyn.symmetric_state_blocks(3, 6)
    p_s, p_r = dyn.sector_probabilities(blocks)
    assert p_s == pytest.approx(1.0, abs=1e-12)
    assert p_r == pytest.approx(0.0, abs=1e-12)


def test_large_array_state_has_unit_trace():
    # multinomial counts here reach ~1e364, beyond float range
    blocks = dyn.symmetric_state_blocks(200, 700)
    assert len(blocks) == 201
    assert sum(b.trace() for b in blocks) == pytest.approx(1.0, abs=1e-12)
    assert dyn.sector_probabilities(blocks) == pytest.approx((1.0, 0.0), abs=1e-12)


def test_projection_matches_dense_oracle():
    n, N, omega, gamma = 2, 4, 1.0, 0.3
    blocks = dyn.evolve_blocks(dyn.symmetric_state_blocks(n, N), 0.7, omega, gamma)
    dense = do.evolve_dense(do.pure_state(do.build_symmetric_ket(n, N), N),
                            0.7, omega, gamma)
    for outcome in (NO_RYDBERG, RYDBERG):
        p_b, kept_b = dyn.project_blocks(blocks, outcome)
        p_d, kept_d = do.project_dense(dense, outcome)
        assert p_b == pytest.approx(p_d, abs=1e-8)
        for t in (0.3, 0.9):
            pb = dyn.sector_probabilities(dyn.evolve_blocks(kept_b, t, omega, gamma))
            pd = do.sector_populations_dense(do.evolve_dense(kept_d, t, omega, gamma))
            assert pb[1] == pytest.approx(pd[1], abs=1e-8)


def test_measurement_window_dephases_before_projection():
    n, N, omega, gamma = 2, 4, 1.0, 0.5
    tau_eit = 0.8
    blocks = dyn.evolve_blocks(dyn.symmetric_state_blocks(n, N), 0.5, omega, gamma)
    # the window applies drive-off dephasing, so outcome probabilities match
    # the state evolved without drive for tau_eit
    windowed = dyn.evolve_blocks(blocks, tau_eit, 0.0, gamma, drive_on=False)
    expect = dyn.sector_probabilities(windowed)
    outcome, _, p = dyn.measure_block(blocks, tau_eit, gamma, draw=1e-12)
    assert outcome == RYDBERG
    assert p == pytest.approx(expect[1], abs=1e-12)


def test_impossible_block_outcome_rejected():
    blocks = dyn.symmetric_state_blocks(2, 4)
    with pytest.raises(ImpossibleOutcomeError):
        dyn.project_blocks(blocks, RYDBERG)


def test_ejection_matches_dense_partial_trace():
    n, N, omega, gamma = 2, 4, 1.0, 0.3
    blocks = dyn.evolve_blocks(dyn.symmetric_state_blocks(n, N), 0.9, omega, gamma)
    dense = do.evolve_dense(do.pure_state(do.build_symmetric_ket(n, N), N),
                            0.9, omega, gamma)
    _, kept_b = dyn.project_blocks(blocks, RYDBERG)
    _, kept_d = do.project_dense(dense, RYDBERG)
    ejected_b = dyn.eject_block(kept_b)
    ejected_d = do.eject_dense(kept_d)
    assert ejected_b[0].n == n - 1 and ejected_b[0].N == N - 1
    for t in (0.0, 0.4, 1.1):
        pb = dyn.sector_probabilities(dyn.evolve_blocks(ejected_b, t, omega, gamma))
        pd = do.sector_populations_dense(do.evolve_dense(ejected_d, t, omega, gamma))
        assert pb[1] == pytest.approx(pd[1], abs=1e-8)


def test_ejection_requires_rydberg_sector():
    blocks = dyn.symmetric_state_blocks(2, 4)
    with pytest.raises(PreconditionError):
        dyn.eject_block(blocks)


def test_retrieval_fidelity_tracks_ideal_evolution():
    n, N, omega = 2, 5, 1.0
    blocks = dyn.symmetric_state_blocks(n, N)
    ideal = dyn.PureCollectiveState.from_stored_amplitudes(
        np.eye(n + 1)[n].astype(complex))
    assert dyn.retrieval_fidelity(blocks, ideal) == pytest.approx(1.0, abs=1e-12)
    # noiseless evolution stays on the ideal trajectory
    for t in (0.3, 0.8):
        eb = dyn.evolve_blocks(blocks, t, omega, 0.0)
        ei = dyn.evolve_pure(ideal, t, omega)
        assert dyn.retrieval_fidelity(eb, ei) == pytest.approx(1.0, abs=1e-9)
    # dephasing pulls the state off of it
    noisy = dyn.evolve_blocks(blocks, 0.8, omega, 0.5)
    assert dyn.retrieval_fidelity(noisy, dyn.evolve_pure(ideal, 0.8, omega)) < 0.99


def test_fidelity_rejects_mismatched_photon_number():
    blocks = dyn.symmetric_state_blocks(2, 5)
    wrong = dyn.PureCollectiveState.from_stored_amplitudes(
        np.eye(4)[3].astype(complex))
    with pytest.raises(DomainError):
        dyn.retrieval_fidelity(blocks, wrong)


def test_realignment_returns_rydberg_state_to_storage():
    n, N, omega = 2, 5, 1.0
    # drive to the fully excited point, then re-align back onto storage
    blocks = dyn.evolve_blocks(dyn.symmetric_state_blocks(n, N),
                               math.pi / (2 * math.sqrt(n) * omega), omega, 0.0)
    assert dyn.sector_probabilities(blocks)[1] == pytest.approx(1.0, abs=1e-9)
    realigned = dyn.realign_for_retrieval(blocks, omega)
    assert dyn.sector_probabilities(realigned)[0] == pytest.approx(1.0, abs=1e-9)


@given(st.integers(1, 4), st.integers(5, 10), st.integers(0, 4),
       st.floats(0.0, 8.0), st.floats(0.0, 30.0))
@example(1, 10, 1, 0.0, 7.3)  # gamma = 0: degenerate generator, expm fallback
@example(1, 10, 1, 4.0, 7.3)  # critical damping: defective generator, expm fallback
@example(1, 10, 1, 3.99999, 1.0)  # cond(V) ~ 1e6: the eigenbasis alone errs by ~2e-11
@example(4, 10, 4, 7.999, 11.0)
def test_propagator_matches_expm(n, N, j, gamma_over_omega, tau_omega):
    omega = 2.0
    j = min(j, len(sector(n, N).blocks) - 1)
    gamma, tau = gamma_over_omega * omega, tau_omega / omega
    prop = dyn._propagator(n, N, j, omega, gamma, tau)
    ref = expm(build_block(n, N, j, omega, gamma).generator() * tau)
    assert np.max(np.abs(prop - ref)) <= 1e-12

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

import refs


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
    assert refs.norm(kept_lo) == pytest.approx(1.0, abs=1e-12)
    assert refs.norm(kept_hi) == pytest.approx(1.0, abs=1e-12)


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
        pd = do.sector_populations_dense(N, ed.rho)
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
        p_d, kept_d = refs.project_dense(dense, outcome)
        assert p_b == pytest.approx(p_d, abs=1e-8)
        for t in (0.3, 0.9):
            pb = dyn.sector_probabilities(dyn.evolve_blocks(kept_b, t, omega, gamma))
            pd = do.sector_populations_dense(N, do.evolve_dense(kept_d, t, omega, gamma).rho)
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
    _, kept_d = refs.project_dense(dense, RYDBERG)
    ejected_b = dyn.eject_block(kept_b)
    ejected_d = refs.eject_dense(kept_d)
    assert ejected_b[0].n == n - 1 and ejected_b[0].N == N - 1
    for t in (0.0, 0.4, 1.1):
        pb = dyn.sector_probabilities(dyn.evolve_blocks(ejected_b, t, omega, gamma))
        pd = do.sector_populations_dense(
            N - 1, do.evolve_dense(ejected_d, t, omega, gamma).rho)
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


def _partial_state():
    """A (3, 7) state with all four j blocks filled, its Rydberg projection and its twin."""
    blocks = dyn.evolve_blocks(dyn.symmetric_state_blocks(3, 7), 0.9, 1.0, 0.4)
    twin = dyn.evolve_pure(dyn.PureCollectiveState.from_stored_amplitudes(
        np.eye(4)[3].astype(complex)), 0.9, 1.0)
    return blocks, dyn.project_blocks(blocks, RYDBERG)[1], twin


def _zeroed(blk):
    return dyn.SymmetricBlockState(blk.n, blk.N, blk.j, 0 * blk.x)


def test_fidelity_of_some_blocks_reads_each_block_by_its_j():
    """A block list may hold any of the sector's blocks in any order: each
    block is read through its own j, as the side-by-side read of its blocks
    placed by j, within rounding of its dyads' overlaps summed block by block;
    a missing block counts as empty."""
    blocks, _, twin = _partial_state()
    sec = sector(3, 7)
    a, b = complex(twin.a[3]), complex(twin.b[3])
    weights = np.array([abs(a) ** 2, abs(b) ** 2, a * b.conjugate(), b * a.conjugate()])
    for pick in ([1], [0, 2], [2, 3], [0, 1, 2, 3]):
        some = [blocks[j] for j in pick]
        x = np.zeros((1, sec.spans[-1].stop), dtype=complex)
        for blk in some:
            x[0, sec.spans[blk.j]] = blk.x
        read = dyn.retrieval_fidelity(some, twin)
        assert read == dyn._overlaps(sec, x, twin.a[3:], twin.b[3:])[0]
        by_block = sum(complex(np.vdot(weights @ blk.block.dyads, blk.x)) for blk in some)
        assert abs(read - min(max(by_block.real, 0.0), 1.0)) <= 4.5e-16
        assert dyn.retrieval_fidelity(some[::-1], twin) == dyn.retrieval_fidelity(some, twin)
        filled = [blk if blk.j in pick else _zeroed(blk) for blk in blocks]
        assert dyn.retrieval_fidelity(filled, twin) == dyn.retrieval_fidelity(some, twin)


@st.composite
def side_by_side_reads(draw):
    """(sector, rows, a, b, phase): up to five rows of side-by-side block vectors of a
    sector with n <= 4, N <= 8, each |S_n> driven and then dephased for times of its
    own, a random twin (a, b) per row and a global phase."""
    n = draw(st.integers(1, 4))
    N = draw(st.integers(n, 8))
    gamma = draw(st.sampled_from([0.0, 0.4, 2.0]))
    rows, a, b = [], [], []
    for _ in range(draw(st.integers(1, 5))):
        blocks = dyn.evolve_blocks(dyn.symmetric_state_blocks(n, N), draw(st.floats(0.0, 3.0)),
                                   1.0, gamma)
        blocks = dyn.evolve_blocks(blocks, draw(st.floats(0.0, 1.0)), 0.0, gamma, drive_on=False)
        rows.append(dyn._side_by_side(blocks)[1][0])
        mix, phase_a, phase_b = (draw(st.floats(-math.pi, math.pi)) for _ in range(3))
        a.append(math.cos(mix) * np.exp(1j * phase_a))
        b.append(math.sin(mix) * np.exp(1j * phase_b))
    return sector(n, N), np.array(rows), np.array(a), np.array(b), draw(st.floats(-math.pi, math.pi))


@given(side_by_side_reads())
def test_overlaps_read_each_row_alone_whatever_the_twin_phase(read):
    """`_overlaps` reads rows together as it reads each alone, bit for bit, and a
    twin's global phase moves its fidelity by rounding only: a twin may collapse
    onto exactly |S_n> or |R_n>."""
    sec, x, a, b, phase = read
    together = dyn._overlaps(sec, x, a, b)
    alone = [dyn._overlaps(sec, x[r:r + 1], a[r:r + 1], b[r:r + 1])[0] for r in range(len(x))]
    assert together.tolist() == alone
    turned = np.exp(1j * phase)
    assert np.abs(dyn._overlaps(sec, x, a * turned, b * turned) - together).max() <= 1e-15


def test_ejection_of_some_blocks_reads_each_block_by_its_j():
    """Ejection maps block j's rr onto the ss of block j of (n - 1, N - 1),
    whatever blocks the list holds and in whatever order; a missing block
    ejects as an empty one, and j = 0 must be there."""
    _, kept, _ = _partial_state()
    whole = dyn.eject_block(kept)
    assert [blk.j for blk in whole] == [0, 1, 2] and whole[0].N == 6
    for pick in ([0], [0, 2], [0, 1, 3], [0, 1, 2, 3]):
        some = [kept[j] for j in pick]
        filled = [blk if blk.j in pick else _zeroed(blk) for blk in kept]
        expected = [blk.x.tolist() for blk in dyn.eject_block(filled)]
        assert [blk.x.tolist() for blk in dyn.eject_block(some)] == expected
        assert [blk.x.tolist() for blk in dyn.eject_block(some[::-1])] == expected
    with pytest.raises(PreconditionError):
        dyn.eject_block(kept[1:])


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
    realigned = refs.realign_for_retrieval(blocks, omega)
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
    prop = dyn._propagator(n, N, j, omega, gamma, (tau,))[0]
    ref = expm(build_block(n, N, j, omega, gamma) * tau)
    assert np.max(np.abs(prop - ref)) <= 1e-12


@pytest.mark.parametrize("n, N, j, gamma", [
    (1, 2, 0, 0.0), (1, 3, 0, 0.0),  # oracle-check's expm-fallback cells
    (1, 10, 1, 8.0),  # critical damping: a defective generator
])
@pytest.mark.parametrize("shape", [(1000,), (3, 7)])
def test_an_expm_fallback_stack_is_each_time_exponentiated_alone(n, N, j, gamma, shape):
    """Where the eigenvectors are ill-conditioned, `_build_propagators` hands the whole
    stack of generator-times-time to one `expm` call: each propagator is, to the bit, the
    `expm` of its time alone, for 1-d and 2-d times."""
    omega = 2.0
    gen, horizon, eig = dyn._eigensystem(n, N, j, omega, gamma)
    assert eig is None
    taus = np.random.default_rng(7).uniform(0.0, min(horizon, 30.0 / omega), shape)
    taus.flat[0] = 0.0
    stack = dyn._build_propagators(n, N, j, omega, gamma, taus)
    assert stack.shape == shape + gen.shape
    assert stack.tobytes() == np.array([expm(gen * t) for t in taus.ravel().tolist()]).tobytes()


TIMES = st.sampled_from([0.0, 0.35, 1.2]) | st.floats(0.0, 3.0)


@given(st.integers(1, 3), st.integers(0, 3), st.sampled_from([0.0, 1.3, 4.0]), st.booleans(),
       st.lists(TIMES, min_size=1, max_size=5), st.lists(TIMES, max_size=3))
@example(1, 1, 0.0, False, [0.0, 0.7, 2.5], [0.7])  # gamma = 0: degenerate drive, expm fallback
@example(2, 0, 1.3, True, [0.35, 0.0], [1.2, 0.35])  # a measurement-window stack
def test_a_shared_time_has_one_propagator_in_every_stack(n, j, gamma, window, taus, company):
    """`_propagator` builds a time's propagator the same to the bit in every stack
    that holds it: alone, and reversed among other times."""
    N, omega = 6, 0.0 if window else 2.0
    j = min(j, len(sector(n, N).blocks) - 1)
    stack = dyn._propagator(n, N, j, omega, gamma, tuple(taus))
    other = dyn._propagator(n, N, j, omega, gamma, tuple(company + taus[::-1]))[::-1]
    for k, tau in enumerate(taus):
        alone = dyn._propagator(n, N, j, omega, gamma, (tau,))[0].tobytes()
        assert stack[k].tobytes() == alone == other[k].tobytes()


def test_an_ill_conditioned_block_is_decomposed_once(monkeypatch):
    """The critically damped block (1, 10, 1) at gamma = 4 Omega has no
    well-conditioned eigenbasis; its horizon comes from the same `eig` call
    that found that out, so one drive decomposes the block once."""
    for cached in vars(dyn).values():
        if hasattr(cached, "cache_clear"):
            cached.cache_clear()
    calls = []
    eig = np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda a: calls.append(a.shape) or eig(a))
    omega = 2.0
    state = dyn.symmetric_state_blocks(1, 10)[1]
    dyn.evolve_block(state, 7.3 / omega, omega, 4.0 * omega)
    assert calls == [(state.block.dim, state.block.dim)]


@pytest.mark.parametrize("a, b, message", [
    ([[1.0, 0.0]], [[0.0, 0.0]], "1-d and of equal length"),
    ([1.0, 0.0], [0.0, 0.0, 0.0], "1-d and of equal length"),
    ([0.0, 0.6], [0.8, 0.0], "b_0 must be 0"),
], ids=["two-d", "unequal", "rydberg-vacuum"])
def test_pure_state_refuses_malformed_amplitudes(a, b, message):
    with pytest.raises(DomainError, match=message):
        dyn.PureCollectiveState(np.array(a), np.array(b))

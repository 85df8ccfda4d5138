"""The noiseless engine's states, `dynamics.PureBatch`, against the one-state chain.

A row is a noiseless trajectory held as its stored Born weights and its drive
time since its last outcome, read through a `NoiselessLikelihoods` holder
(``record``) that keeps the row's record likelihoods, last outcome and
ejections: `measure` draws and steps ``record`` with the drawn outcome's
factors, the collapse, as in the engine.  The reference is the explicit chain
of one-state kernels per row on its amplitudes: `evolve_pure` for the drive
and its traced sub-steps, `measure_pure` for the outcome, and, after a Rydberg
outcome with ejection, the amplitudes shifted one photon number down and
renormalised.  Outcomes agree exactly; probabilities and readouts agree within
2e-15, as the closed form and the rotated amplitudes round differently.  A
holder whose photon numbers reach past the state's, as the engine's union with
the candidates does, draws the same outcomes.  Over long records the readouts
drift from the chain as the record's |log L| grows, about 1e-16 per cycle.
"""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rydqnd import dynamics as dyn
from rydqnd import engine as eng
from rydqnd import inference as inf
from rydqnd.errors import PreconditionError
from rydqnd.records import RYDBERG

OMEGA = 1.0
TOL = 2e-15


def _ejected(state: dyn.PureCollectiveState) -> dyn.PureCollectiveState:
    """The Rydberg amplitudes b_n moved to a_(n-1), renormalised."""
    a = np.append(state.b[1:], 0.0)
    return dyn.PureCollectiveState.from_stored_amplitudes(a / np.sqrt(np.sum(np.abs(a) ** 2)))


def _p_rydberg(state: dyn.PureCollectiveState) -> float:
    return float(np.sum(np.abs(state.b) ** 2))


def _close(batch_out, p_rydberg):
    """Batch readouts (3, rows) against the chain's p_Rydberg of each row."""
    expected = np.array([[1.0 - p for p in p_rydberg], p_rydberg, [1.0] * len(p_rydberg)])
    assert np.abs(np.asarray(batch_out) - expected).max(initial=0.0) <= TOL


@st.composite
def runs(draw):
    """(amplitudes, rows, eject, points, cycles): a cycle is (drive times,
    draws, rows leaving after it)."""
    n_max = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = rng.normal(size=n_max + 1) + 1j * rng.normal(size=n_max + 1)
    amps[0] *= draw(st.booleans())  # vacuum weight or none
    amps[n_max] = amps[n_max] or 1.0
    rows = draw(st.integers(1, 5))
    eject = draw(st.booleans())
    points = draw(st.sampled_from([0, 2, 3]))
    random_tau = draw(st.booleans())
    cycles = []
    for _ in range(draw(st.integers(1, 10))):
        tau = st.floats(0.0, 3.0)
        taus = (draw(st.lists(tau, min_size=rows, max_size=rows)) if random_tau
                else [draw(tau)] * rows)
        draws = draw(st.lists(st.floats(1e-3, 1 - 1e-3), min_size=rows, max_size=rows))
        leave = draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
        cycles.append((taus, draws, leave))
    return amps / np.linalg.norm(amps), rows, eject, points, cycles


@given(runs())
@example((np.array([0.6, 0.0, 0.8j]), 3, True, 3,
          [([1.1] * 3, [0.001, 0.5, 0.999], [False] * 3),
           ([0.0, 0.7, 2.0], [0.3, 0.3, 0.3], [False, True, False]),
           ([0.4] * 3, [0.001] * 3, [False] * 3)]))
def test_batch_matches_the_one_state_chain(run):
    """Every row's outcomes equal its chain's; its outcome probabilities, traced
    sub-step readouts and sectors before and after the measurement lie within
    2e-15 of the chain's, while rows eject and leave the batch."""
    amps, rows, eject, points, cycles = run
    start = dyn.PureCollectiveState.from_stored_amplitudes(amps)
    record = inf.NoiselessLikelihoods(list(range(amps.size)), OMEGA, eject, [0] * rows)
    batch, chains = dyn.PureBatch(start, record), [start] * rows
    ids = list(range(rows))  # the chain of each batch row
    _close(batch.read(), [_p_rydberg(c) for c in chains])
    for taus, draws, leave in cycles:
        if not ids:
            break
        taus_now = np.array([taus[i] for i in ids])
        steps = None
        if points:
            driven = np.flatnonzero(taus_now > 0)
            steps = np.linspace(taus_now[driven] / points, taus_now[driven], points, axis=-1)
            in_drive = [[_p_rydberg(dyn.evolve_pure(chains[ids[r]], t, OMEGA)) for t in steps[k]]
                        for k, r in enumerate(driven.tolist())]
        assert batch.drive(taus_now, steps) is None
        for r, t in enumerate(taus_now.tolist()):
            chains[ids[r]] = dyn.evolve_pure(chains[ids[r]], t, OMEGA)
        rydberg, probs, got = batch.measure(np.array([draws[i] for i in ids]))
        now = batch.read()
        assert (got is None) == (steps is None)
        if points:  # the drive's sub-steps, then the collapse
            assert got.shape == (3, len(ids), points + 1)
            assert got[:, :, -1].tolist() == now.tolist()
            got_drive = got[:, driven, :points]
        for k, expected in enumerate(in_drive if points else []):
            _close(got_drive[:, k], expected)
        expected = []
        for i in ids:
            outcome, chains[i], p = dyn.measure_pure(chains[i], draws[i])
            if eject and outcome == RYDBERG:
                chains[i] = _ejected(chains[i])
            expected.append((outcome == RYDBERG, p))
        assert rydberg.tolist() == [ryd for ryd, _ in expected]
        assert np.abs(probs - [p for _, p in expected]).max() <= TOL
        _close(now, [_p_rydberg(chains[i]) for i in ids])
        assert batch.fidelity().tolist() == [1.0] * len(ids)
        stay = np.array([not leave[i] for i in ids])
        batch.take(stay)
        record.take(stay)
        ids = [i for i, s in zip(ids, stay.tolist()) if s]


@given(runs(), st.integers(1, 3))
def test_photon_numbers_the_state_does_not_hold_change_no_outcome(run, extra):
    """A holder over the state's occupied photon numbers and `extra` more past its
    largest (columns with w0 = 0, as the engine's union with the candidates has)
    draws the outcomes of a holder over the state's own photon numbers, and reads
    within 2e-15 of it."""
    amps, rows, eject, points, cycles = run
    start = dyn.PureCollectiveState.from_stored_amplitudes(amps)
    wide = [*np.flatnonzero(amps).tolist(), *range(amps.size, amps.size + extra)]
    records = [inf.NoiselessLikelihoods(ns, OMEGA, eject, [0] * rows)
               for ns in (list(range(amps.size)), wide)]
    own, union = (dyn.PureBatch(start, record) for record in records)
    _close(union.read(), own.read()[1])
    alive = np.ones(rows, dtype=bool)
    for taus, draws, leave in cycles:
        if not alive.any():
            break
        taus_now, draws_now = np.array(taus)[alive], np.array(draws)[alive]
        steps = None
        if points:
            driven = taus_now[taus_now > 0]
            steps = np.linspace(driven / points, driven, points, axis=-1)
        outcomes = []
        for batch, record in zip((own, union), records):
            batch.drive(taus_now, steps)
            rydberg, probs, got = batch.measure(draws_now)
            drive = None if got is None else got[:, taus_now > 0, :-1]
            outcomes.append((rydberg, probs, drive, batch.read()))
        (ryd, p, drive, now), (ryd_u, p_u, drive_u, now_u) = outcomes
        assert ryd.tolist() == ryd_u.tolist()
        assert np.abs(p - p_u).max() <= TOL
        _close(now_u, now[1])
        for k in range(drive.shape[1] if points else 0):
            _close(drive_u[:, k], drive[1, k])
        stay = ~np.array(leave)[alive]
        for batch, record in zip((own, union), records):
            batch.take(stay)
            record.take(stay)
        alive[alive] = stay


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_traced_readouts_stay_on_the_chain_over_a_thousand_cycles(seed):
    """A wide state (n = 1..10, equal Born weights) that never converges, traced
    at two sub-steps per drive over 1,000 uniform-random cycles: every drive
    row's p_Rydberg lies within 1e-13 of the chain replayed over the logged
    record (the largest gap is 6.7e-16 at 10 cycles, 4.8e-15 at 200 and 1.2e-14
    at 1,000 over these seeds)."""
    amps = np.sqrt(np.append(0.0, np.full(10, 0.1)))
    params = eng.ProtocolParams(omega=OMEGA, N=10, n_max=10, mode=eng.NOISELESS_PURE,
                                schedule=eng.Schedule.uniform_random(0.05, 0.6), seed=seed,
                                max_cycles=1000, threshold=2.0, trace_points=2)
    for log in eng.run_batch(amps, params, 4):
        chain = dyn.PureCollectiveState.from_stored_amplitudes(amps)
        replay = []
        for tau, outcome in log.record.entries:
            replay += [_p_rydberg(dyn.evolve_pure(chain, t, OMEGA))
                       for t in np.linspace(tau / 2, tau, 2)]
            chain = dyn.evolve_pure(chain, tau, OMEGA)
            drawn, chain, _ = dyn.measure_pure(chain, 0.0 if outcome == RYDBERG else 1.0)
            assert drawn == outcome
        drive = [row["p_rydberg"] for row in log.trace if row["phase"] == "drive"]
        assert len(drive) == len(replay) == 2 * params.max_cycles
        assert np.abs(np.array(drive) - replay).max() <= 1e-13

def test_batch_refuses_a_state_with_rydberg_amplitude():
    state = dyn.PureCollectiveState(np.array([0.0, 0.6, 0.0]), np.array([0.0, 0.0, 0.8]))
    with pytest.raises(PreconditionError):
        dyn.PureBatch(state, inf.NoiselessLikelihoods([0, 1, 2], OMEGA, shift=[0, 0]))


def test_batch_refuses_a_record_without_a_photon_number_the_state_holds():
    state = dyn.PureCollectiveState.from_stored_amplitudes(np.array([0.0, 0.6, 0.8]))
    with pytest.raises(PreconditionError, match="photon numbers"):
        dyn.PureBatch(state, inf.NoiselessLikelihoods([0, 1], OMEGA))
    dyn.PureBatch(state, inf.NoiselessLikelihoods([1, 2, 5], OMEGA))  # w0 = 0 at 0 and 5

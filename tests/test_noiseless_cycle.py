"""An untraced noiseless cycle checks and evaluates its odds once.

`dynamics.PureBatch.measure` reads both outcomes of every row's phase in one
`_noiseless_factors` call and keeps the drawn outcome's factors; the engine
hands them to the likelihood holder's `_step`, and `drive` is the cycle's one
drive-time check.  The step leaves the holder, bit for bit, where `update` of
the same drive times and outcomes (which checks and evaluates them again)
leaves a copy.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rydqnd import dynamics as dyn
from rydqnd import engine as eng
from rydqnd import inference as inf
from rydqnd.records import FockDistribution

OMEGA = 1.0
BORN = FockDistribution(np.array([0.0, 0.5, 0.3, 0.2]))
SCHEDULES = {"fixed": eng.Schedule.fixed(1.596),
             "uniform-random": eng.Schedule.uniform_random(0.1, 1.2),
             "precomputed": eng.Schedule.precomputed([0.4, 1.596, 0.9, 2.2] * 10)}


@pytest.mark.parametrize("eject", [False, True])
@pytest.mark.parametrize("schedule", sorted(SCHEDULES))
def test_untraced_noiseless_cycle_checks_and_evaluates_once(monkeypatch, schedule, eject):
    calls = {"_noiseless_factors": 0, "_check_times": 0}
    for name in calls:
        original = getattr(dyn, name)

        def counted(*args, original=original, name=name):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(dyn, name, counted)
    params = eng.ProtocolParams(omega=OMEGA, N=6, n_max=3, mode=eng.NOISELESS_PURE,
                                schedule=SCHEDULES[schedule], seed=3, max_cycles=40,
                                ejection_enabled=eject)
    logs = eng.run_batch(BORN, params, 6)
    cycles = max(len(log.record) for log in logs)
    assert cycles > 1
    assert calls == {"_noiseless_factors": cycles, "_check_times": cycles}


@st.composite
def holders(draw):
    """(photon numbers, eject, shifts, last flags, log-likelihoods, cycles): each
    cycle is (drive times, draws) of every row.  Every row keeps its largest
    photon number's entry finite, so its Born weights are not all zero."""
    ns = sorted(draw(st.sets(st.integers(0, 6), min_size=1, max_size=4)))
    rows = draw(st.integers(1, 4))
    eject = draw(st.booleans())
    shift = draw(st.lists(st.integers(0, ns[-1]), min_size=rows, max_size=rows))
    last = draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
    entry = st.one_of(st.floats(-40.0, 0.0), st.just(-math.inf))
    log_l = np.array(draw(st.lists(entry, min_size=rows * len(ns), max_size=rows * len(ns))))
    log_l = log_l.reshape(rows, len(ns))
    log_l[:, -1] = draw(st.lists(st.floats(-40.0, 0.0), min_size=rows, max_size=rows))
    taus = st.lists(st.floats(0.0, 5.0), min_size=rows, max_size=rows)
    draws = st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=rows, max_size=rows)
    cycles = draw(st.lists(st.tuples(taus, draws), min_size=1, max_size=3))
    return ns, eject, shift, last, log_l, cycles


@given(holders())
@example(([0, 1, 3], True, [0, 1, 3], [True, False, False],
          np.array([[-math.inf, -2.0, 0.0], [0.0, -math.inf, -1.0], [-5.0, -5.0, -0.5]]),
          [([0.0, 1.1, 2.0], [0.999, 0.0, 0.5]), ([0.7, 0.0, 0.3], [0.2, 0.2, 0.2])]))
def test_measure_and_step_equal_update_bit_for_bit(holder):
    """After the engine's measure and `_step`, the holder's log_l, last and shift
    are those of a copy advanced by `update(taus, rydberg)`, to the bit, and
    entries at -inf (drawn so, or past the row's shift) stay there."""
    ns, eject, shift, last, log_l, cycles = holder
    records = [inf.NoiselessLikelihoods(ns, OMEGA, eject, shift) for _ in range(2)]
    for record in records:
        record.log_l = np.where(record.log_l > -math.inf, log_l, -math.inf)
        record.last = np.array(last)
    stepped, updated = records
    amps = np.zeros(ns[-1] + 1)
    amps[ns] = np.arange(1, len(ns) + 1)
    batch = dyn.PureBatch(dyn.PureCollectiveState.from_stored_amplitudes(
        amps / np.linalg.norm(amps)), stepped)
    for taus, draws in cycles:
        taus = np.array(taus)
        batch.drive(taus)
        dead = stepped.log_l == -math.inf
        rydberg, _ = batch.measure(np.array(draws))
        stepped._step(batch.drawn, rydberg)
        updated.update(taus, rydberg)
        assert stepped.log_l.tobytes() == updated.log_l.tobytes()
        assert stepped.last.tolist() == updated.last.tolist()
        assert stepped.shift.tolist() == updated.shift.tolist()
        assert (stepped.log_l[dead] == -math.inf).all()

"""`MeasurementRecord` as columns against the per-entry rules it replaces.

A record keeps its drive times (float64) and outcomes (bool, True for Rydberg) as
two read-only columns and checks them in one pass.  On any list of entries it
refuses exactly what the per-entry check refused, with the same message naming
the same first bad entry; otherwise its columns and `entries` agree,
`from_json(to_json())` gives the columns back bit for bit and `append` builds
what the longer list builds.  Integer drive times become floats, so `to_json`
writes ``0.0`` for a drive time given as ``0``.
"""

import json
import math
import re
from sys import float_info

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rydqnd import engine as eng
from rydqnd.errors import DomainError
from rydqnd.records import NO_RYDBERG, OUTCOMES, RYDBERG, FockDistribution, MeasurementRecord

TAUS = st.one_of(
    st.floats(),
    st.sampled_from([0, -0.0, 0.0, 5e-324, 1.5e-310, 2.2250738585072014e-308, 1e308,
                     float_info.max, 2e-7, math.inf, math.nan]),
    st.integers(-3, 2**70),  # JSON integers, some past int64
    st.integers(int(float_info.max) - 2**960, 10**400))  # at and past float range
OUTCOME = st.sampled_from(OUTCOMES) | st.sampled_from(["rydberg", "", "Rydberg "])
ENTRIES = st.lists(st.tuples(TAUS, OUTCOME), max_size=8)


def _refusal(entries) -> str | None:
    """The message of the per-entry check, drive time first: None if it accepts."""
    for i, (tau, outcome) in enumerate(entries):
        if not 0 <= tau <= float_info.max:
            return f"entry {i}: drive time must be finite and non-negative"
        if outcome not in OUTCOMES:
            return f"entry {i}: unknown outcome {outcome!r}"
    return None


def _columns(record) -> tuple[bytes, bytes]:
    return record.taus.tobytes(), record.rydberg.tobytes()


@given(entries=ENTRIES)
@example(entries=[(0, RYDBERG), (-0.0, NO_RYDBERG), (5e-324, RYDBERG), (1e308, NO_RYDBERG)])
@example(entries=[(2e-7, "rydberg"), (10**400, RYDBERG)])
@example(entries=[(int(float_info.max) + 1, RYDBERG)])  # rounds to a float, yet past range
def test_columns_refuse_what_entries_refused_and_keep_what_they_kept(entries):
    refusal = _refusal(entries)
    if refusal is not None:
        with pytest.raises(DomainError, match=f"^{re.escape(refusal)}$"):
            MeasurementRecord(entries)
        return
    record = MeasurementRecord(entries)
    assert record.taus.dtype == np.float64 and record.rydberg.dtype == bool
    assert _columns(record) == (np.array([float(t) for t, _ in entries]).tobytes(),
                                np.array([m == RYDBERG for _, m in entries], dtype=bool).tobytes())
    assert record.entries == [(float(t), m) for t, m in entries]
    assert [math.copysign(1, t) for t, _ in record.entries] == [math.copysign(1, t)
                                                                for t in record.taus]
    assert _columns(MeasurementRecord.from_json(record.to_json())) == _columns(record)


@given(entries=ENTRIES, data=st.data())
def test_append_builds_what_the_longer_list_builds(entries, data):
    """Each entry appended to a record of the ones before it: refused (the record
    unchanged) exactly where the longer list is refused, an unknown outcome as
    `is_rydberg` words it, else with the longer list's message."""
    start = data.draw(st.integers(0, len(entries)))
    if _refusal(entries[:start]) is not None:
        return
    record = MeasurementRecord(entries[:start])
    for k in range(start, len(entries)):
        before = _columns(record)
        refusal = _refusal(entries[:k + 1])
        if refusal is not None:
            outcome = entries[k][1]
            if outcome not in OUTCOMES:
                refusal = f"unknown outcome {outcome!r}"
            with pytest.raises(DomainError, match=f"^{re.escape(refusal)}$"):
                record.append(*entries[k])
            assert _columns(record) == before
            return
        record.append(*entries[k])
        assert _columns(record) == _columns(MeasurementRecord(entries[:k + 1]))


@given(entries=ENTRIES)
def test_a_record_file_reads_as_its_entries_build(entries):
    """The JSON text of the entries (integers past float range as integer text, NaN
    and Infinity as json spells them) reads as `MeasurementRecord(entries)` builds."""
    text = json.dumps({"entries": [{"tau_s": t, "outcome": m} for t, m in entries]})
    refusal = _refusal(entries)
    if refusal is not None:
        with pytest.raises(DomainError, match=f"^{re.escape(refusal)}$"):
            MeasurementRecord.from_json(text)
    else:
        assert _columns(MeasurementRecord.from_json(text)) == _columns(MeasurementRecord(entries))


def test_an_integer_drive_time_is_written_as_a_float():
    assert MeasurementRecord([(0, RYDBERG)]).to_json() == (
        '{"entries": [{"outcome": "Rydberg", "tau_s": 0.0}]}')
    assert len(MeasurementRecord()) == 0 and MeasurementRecord().entries == []


def test_the_columns_are_read_only():
    record = MeasurementRecord([(2e-7, RYDBERG)])
    record.append(3e-7, NO_RYDBERG)
    for column in (record.taus, record.rydberg):
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 0


# a noiseless and a noisy batch, traced, with ejection: every log field an array
BATCHES = {
    "noiseless": (FockDistribution(np.array([0.0, 0.5, 0.3, 0.2])), eng.ProtocolParams(
        omega=1.0, N=6, n_max=3, mode=eng.NOISELESS_PURE,
        schedule=eng.Schedule.uniform_random(0.1, 1.2), seed=3, ejection_enabled=True,
        trace_points=2)),
    "noisy": (2, eng.ProtocolParams(omega=2 * math.pi * 2.5e6, gamma=2 * math.pi * 0.3e6,
                                    tau_eit=0.3e-6, N=5, n_max=3,
                                    schedule=eng.Schedule.fixed(0.21e-6), seed=3,
                                    ejection_enabled=True, max_cycles=30, trace_points=2)),
}


def _arrays(log) -> list[np.ndarray]:
    return [log.record.taus, log.record.rydberg, log.posteriors, log.fidelities,
            log.trace.values, log.trace.codes]


@pytest.mark.parametrize("name", sorted(BATCHES))
def test_log_views_are_read_only_and_share_no_memory(name):
    """A log's record, posteriors and fidelities are read-only views of its batch's
    cycle table, and no two logs of a batch share memory."""
    initial, params = BATCHES[name]
    logs = eng.run_batch(initial, params, 6)
    for log in logs:
        for column in (log.record.taus, log.posteriors, log.fidelities):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0.5
        assert log.posteriors.shape == (len(log.record) + 1, len(params.candidates))
        assert log.fidelities.shape == (len(log.record),)
        assert log.posteriors[0].tolist() == params.prior.weights.tolist()
        assert type(log.final_candidate) is int and type(log.converged) is bool
        assert type(log.ejections) is int
    for i, log in enumerate(logs):
        for other in logs[i + 1:]:
            assert not any(np.shares_memory(a, b) for a in _arrays(log) for b in _arrays(other))

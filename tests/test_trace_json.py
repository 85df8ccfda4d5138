"""The trajectory writer of `rydqnd simulate` against the `json` module.

`TrajectoryLog.to_json` hands every field but the trace to `json.dumps` and
formats each trace row with one `%`-format string.  On any log it writes the
string `json.dumps(..., sort_keys=True)` writes for the whole document: the
same key order, separators and numbers (signed zeros, subnormals, 1e308,
infinities and NaN in json's own spelling).  So does `engine.json_lines` for
each log of a chunk whose traces `engine.spell` spells together, where one
trace holds -0.0 and another 0.0, or two hold NaNs of different payloads.
"""

import json
import struct
from dataclasses import fields, replace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rydqnd import engine as eng
from rydqnd.records import MeasurementRecord, NO_RYDBERG, RYDBERG

import refs

# a NaN with the sign bit and a payload: its bits differ from float("nan")'s
NAN_PAYLOAD = struct.unpack("<d", struct.pack("<Q", 0xFFF8000000000001))[0]
SPECIAL = [-0.0, 0.0, 5e-324, 1.5e-310, 2.2250738585072014e-308, 1e308, 1.7976931348623157e308,
           -1e308, float("inf"), float("-inf"), float("nan"), NAN_PAYLOAD, 1.0, 0.1, -2.5e-7]
numbers = st.sampled_from(SPECIAL) | st.floats()


@st.composite
def traces(draw):
    """Trace rows of one posterior width, some sharing one posterior list
    (as the rows of one cycle do) and some holding their own; maybe none."""
    width = draw(st.integers(1, 6))
    posteriors = st.lists(numbers, min_size=width, max_size=width)
    shared = draw(st.lists(posteriors, min_size=1, max_size=3))
    trace = []
    for _ in range(draw(st.integers(0, 12))):
        own = draw(st.booleans())
        post = draw(posteriors) if own else shared[draw(st.integers(0, len(shared) - 1))]
        trace.append({"time_s": draw(numbers),
                      "phase": draw(st.sampled_from(["init", "drive", "measure", "collapse"])),
                      "p_no_rydberg": draw(numbers), "p_rydberg": draw(numbers),
                      "fidelity": draw(numbers), "posterior": post})
    return trace


LOG = eng.TrajectoryLog(
    record=MeasurementRecord([(2.1e-07, NO_RYDBERG), (2.1e-07, RYDBERG)]),
    posteriors=np.array([[0.25] * 4, [0.5, 0.5, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]),
    fidelities=np.array([0.99, 0.97]), trace=refs.trace_from_rows([]), ejections=0, n_true=2, final_candidate=1,
    converged=True, seed_key=[0], params={"N": 10, "seed": 3, "tau_eit_s": 3e-07})


def _through_json_module(log) -> str:
    doc = {f.name: getattr(log, f.name) for f in fields(log)}
    doc.update(posteriors=log.posteriors.tolist(), fidelities=log.fidelities.tolist())
    doc["trace"] = list(log.trace)
    doc["record"] = [{"tau_s": t, "outcome": m} for t, m in log.record.entries]
    return json.dumps(doc, sort_keys=True)


# two traces that share special numbers: -0.0 in one and 0.0 in the other, NaNs of two
# payloads, and the infinities
SHARING = [[{"time_s": -0.0, "phase": "drive", "p_no_rydberg": float("nan"),
             "p_rydberg": float("inf"), "fidelity": 0.0, "posterior": [1.0, -0.0]}],
           [{"time_s": 0.0, "phase": "measure", "p_no_rydberg": NAN_PAYLOAD,
             "p_rydberg": float("-inf"), "fidelity": -0.0, "posterior": [0.0, float("nan")]}] * 2]


@settings(max_examples=100)  # cheap examples, so more of them
@given(chunk=st.lists(traces(), min_size=1, max_size=4))
@example(chunk=[[]])
@example(chunk=[[{"time_s": t, "phase": "collapse", "p_no_rydberg": -0.0, "p_rydberg": 5e-324,
                  "fidelity": float("nan"), "posterior": post}
                 for t, post in [(0.0, [1e308, float("inf")]), (1e308, [-0.0, float("-inf")])] * 2]])
@example(chunk=SHARING)
def test_trajectory_json_matches_the_json_module(chunk):
    """Each log alone (`to_json`) and the chunk's logs spelled together (`json_lines`)."""
    logs = [replace(LOG, trace=refs.trace_from_rows(trace), seed_key=[i])
            for i, trace in enumerate(chunk)]
    expected = [_through_json_module(log) for log in logs]
    assert [log.to_json() for log in logs] == expected
    assert list(eng.json_lines(logs, *eng.spell([log.trace for log in logs], "json"))) == expected

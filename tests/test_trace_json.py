"""The trajectory writer of `rydqnd simulate` against the `json` module.

`TrajectoryLog.to_json` hands every field but the trace to `json.dumps` and
formats each trace row with one `%`-format string.  On any log it writes the
string `json.dumps(..., sort_keys=True)` writes for the whole document: the
same key order, separators and numbers (signed zeros, subnormals, 1e308,
infinities and NaN in json's own spelling).
"""

import json
from dataclasses import fields, replace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rydqnd import engine as eng
from rydqnd.records import MeasurementRecord, NO_RYDBERG, RYDBERG

import refs

SPECIAL = [-0.0, 0.0, 5e-324, 1.5e-310, 2.2250738585072014e-308, 1e308, 1.7976931348623157e308,
           -1e308, float("inf"), float("-inf"), float("nan"), 1.0, 0.1, -2.5e-7]
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


@settings(max_examples=100)  # cheap examples, so more of them
@given(trace=traces())
@example(trace=[])
@example(trace=[{"time_s": t, "phase": "collapse", "p_no_rydberg": -0.0, "p_rydberg": 5e-324,
                 "fidelity": float("nan"), "posterior": post}
                for t, post in [(0.0, [1e308, float("inf")]), (1e308, [-0.0, float("-inf")])] * 2])
def test_trajectory_json_matches_the_json_module(trace):
    log = replace(LOG, trace=refs.trace_from_rows(trace))
    assert log.to_json() == _through_json_module(log)

"""The trace writer of `rydqnd simulate` against the `csv` module.

`cli._trace_csvs` formats each trace row with one `%`-format string.  On any
rows, it writes the string that `cli._table_output` writes through
`csv.DictWriter` from one dict of `f"{x:.12e}"` strings per row: the same
comment lines, header row, numbers (signed zeros, subnormals, infinities and
NaN included) and CRLF row endings: for a trace spelled alone, and for each
trace of a chunk that `engine.spell` spells together, where one trace holds
-0.0 and another 0.0, or two hold NaNs of different payloads.
"""

import struct

from hypothesis import example, given, settings
from hypothesis import strategies as st

from rydqnd import cli, engine

import refs


def _through_csv_module(config, trace, path) -> str:
    """A trace file as `_table_output` writes it through `csv.DictWriter`, from
    one dict of `f"{x:.12e}"` strings per row."""
    rows = [{"time_s": f"{row['time_s']:.12e}", "phase": row["phase"],
             **{key: f"{row[key]:.12e}" for key in ("p_no_rydberg", "p_rydberg", "fidelity")},
             **{f"w_{c}": f"{w:.12e}" for c, w in enumerate(row["posterior"])}}
            for row in trace]
    cli._table_output({"schema": cli.TRACE_SCHEMA, "config": config}, rows, str(path))
    return path.read_bytes().decode()


# a NaN with the sign bit and a payload: its bits differ from float("nan")'s
NAN_PAYLOAD = struct.unpack("<d", struct.pack("<Q", 0xFFF8000000000001))[0]
SPECIAL = [-0.0, 0.0, 5e-324, 1.5e-310, 2.2250738585072014e-308, 1e308, 1.7976931348623157e308,
           -1e308, float("inf"), float("-inf"), float("nan"), NAN_PAYLOAD, 1.0, 0.1, -2.5e-7]
numbers = st.sampled_from(SPECIAL) | st.floats()


@st.composite
def traces(draw):
    """Trace rows of one posterior width, some sharing one posterior list
    (as the rows of one cycle do) and some holding their own."""
    width = draw(st.integers(1, 6))
    posteriors = st.lists(numbers, min_size=width, max_size=width)
    shared = draw(st.lists(posteriors, min_size=1, max_size=3))
    trace = []
    for _ in range(draw(st.integers(1, 12))):
        own = draw(st.booleans())
        post = draw(posteriors) if own else shared[draw(st.integers(0, len(shared) - 1))]
        trace.append({"time_s": draw(numbers),
                      "phase": draw(st.sampled_from(["init", "drive", "measure", "collapse"])),
                      "p_no_rydberg": draw(numbers), "p_rydberg": draw(numbers),
                      "fidelity": draw(numbers), "posterior": post})
    return trace


CONFIG = {"N": 10, "candidates": [[0.0, 1.0], [0.0, 0.0, 1.0]], "seed": 3, "tau_eit_s": 3e-07}


def _spelled_together(traces) -> list[str]:
    """The traces' files, their values spelled together as `cli.cmd_simulate` spells a chunk."""
    return list(cli._trace_csvs(CONFIG, traces, *engine.spell(traces, "%.12e")))


# two traces that share special numbers: -0.0 in one and 0.0 in the other, NaNs of two
# payloads, and the infinities
SHARING = [[{"time_s": -0.0, "phase": "drive", "p_no_rydberg": float("nan"),
             "p_rydberg": float("inf"), "fidelity": 0.0, "posterior": [1.0, -0.0]}],
           [{"time_s": 0.0, "phase": "measure", "p_no_rydberg": NAN_PAYLOAD,
             "p_rydberg": float("-inf"), "fidelity": -0.0, "posterior": [0.0, float("nan")]}] * 2]


@settings(max_examples=100)  # cheap examples, so more of them
@given(chunk=st.lists(traces(), min_size=1, max_size=4))
@example(chunk=[[{"time_s": t, "phase": "measure", "p_no_rydberg": -0.0, "p_rydberg": 5e-324,
                  "fidelity": float("nan"), "posterior": post}
                 for t, post in [(0.0, [1e308, float("inf")]), (1e-7, [-0.0, float("-inf")])] * 2]])
@example(chunk=SHARING)
def test_trace_writer_matches_the_csv_module(tmp_path_factory, chunk):
    """Each trace spelled alone, and the chunk's traces spelled together."""
    path = tmp_path_factory.getbasetemp() / "trace.csv"
    expected = [_through_csv_module(CONFIG, trace, path) for trace in chunk]
    built = [refs.trace_from_rows(trace) for trace in chunk]
    assert [_spelled_together([trace])[0] for trace in built] == expected
    assert _spelled_together(built) == expected

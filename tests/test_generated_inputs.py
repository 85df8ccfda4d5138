"""Generated inputs through `cli.main`, in-process.

`infer` record files, `--candidates-file` files (for `infer` and `simulate`) and
`simulate --config` files hold JSON values of every type in every field:
integers past float range and past Python's digit limit for integer text, NaN and
Infinity literals, missing and extra keys.  `oracle-check` takes generated
`--corrupt-cell` text at 1 to 3 time points or past `MAX_TIME_POINTS`, and
`analyze` generated `--n` text, `--cycles` and `--grid-points`, each in range or
past its guards; `simulate` and `infer` take each count and rate flag at and past
its documented bounds, one flag at a time, with the exact exit code where the
flag's rule alone decides it.  Whatever the input, a call exits 0, 2, 3 or 5 (or
4, a failed oracle check); a refusal prints exactly one `error:` line, no
traceback and no output file; and a second call gives the same exit code and the
same bytes.
"""

import argparse
import contextlib
import io
import json
import math
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rydqnd import cli

# integer text past Python's 4,300-digit conversion limit: json.loads raises a bare ValueError
HUGE = "9" * 4_400
HUGE_MARK = "<huge-integer>"

LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-10, 10),
    st.integers(min_value=2**1024, max_value=10**400).flatmap(  # past float range
        lambda k: st.sampled_from([k, -k])),
    st.floats(allow_nan=True, allow_infinity=True),  # NaN and Infinity as JSON literals
    st.text(max_size=6), st.sampled_from(["1..3", "Rydberg", "NoRydberg", HUGE_MARK]))
ANY = st.recursive(LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=8)


@st.composite
def _object(draw, fields: dict):
    """A JSON object over `fields` (name -> plausible values): every field plausible,
    one or every field any JSON value or some fields missing, with perhaps extra keys;
    or no object at all."""
    shape = draw(st.sampled_from(["plausible", "one wild", "all wild", "partial", "no object"]))
    if shape == "no object":
        return draw(ANY)
    doc = {key: draw(ANY if shape == "all wild" else plausible)
           for key, plausible in fields.items()}
    if shape == "one wild":
        doc[draw(st.sampled_from(sorted(fields)))] = draw(ANY)
    elif shape == "partial":
        doc = {key: value for key, value in doc.items() if draw(st.booleans())}
    return {**draw(st.dictionaries(st.text(max_size=6), ANY, max_size=2)), **doc}


def _text(doc) -> str:
    return json.dumps(doc).replace(json.dumps(HUGE_MARK), HUGE)


PROBABILITIES = st.one_of(
    st.integers(0, 3).map(lambda n: [0] * n + [1]),  # a delta
    st.sampled_from([[0.5, 0.5], [0, 0.25, 0.75], [0.0, 1.0, 0.0]]),
    st.lists(st.one_of(st.floats(0, 1), st.integers(0, 1)), min_size=1, max_size=4))
ENTRY = {"tau_s": st.one_of(st.floats(0, 1e-6), st.sampled_from([0, 2e-7, 1e-300])),
         "outcome": st.sampled_from(["Rydberg", "NoRydberg"])}
RECORD = _object({"entries": st.lists(st.fixed_dictionaries(ENTRY), max_size=6)
                  | st.lists(_object(ENTRY), max_size=3)})
CANDIDATES = _object({"candidates": st.lists(PROBABILITIES, min_size=1, max_size=3),
                      "prior": st.lists(st.floats(0, 1), min_size=1, max_size=3)})


def _config() -> st.SearchStrategy:
    """simulate's options by destination name, each plausible as its default or a choice;
    of those without a default, --candidates as a range (the others name files)."""
    own = cli._parser()._subparsers._group_actions[0].choices["simulate"]
    fields = {action.dest: st.sampled_from([action.default, *(action.choices or ())])
              for action in own._actions if action.default not in (None, argparse.SUPPRESS)}
    return _object({**fields, "candidates": st.sampled_from(["1..3", "2", "1,3"])})


# the options that bound a call's work; the command line overrides a config file's values
CHEAP = ["--n-atoms", "5", "--max-cycles", "2", "--trajectories", "1", "--trace-points", "1"]


def _call(argv: list[str], out) -> tuple[int, str, str, dict]:
    """(exit code, stdout, stderr, {output file name: bytes}) of one call."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse's own refusals
            rc = exc.code
    files = ({p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir()
             else {out.name: out.read_bytes()} if out.exists() else {})
    if out.is_dir():
        shutil.rmtree(out)
    else:
        out.unlink(missing_ok=True)
    return rc, stdout.getvalue(), stderr.getvalue(), files


def _check(argv: list[str], out) -> int:
    """The exit code of argv, which holds to the contract of this module."""
    first = _call(argv, out)
    rc, _, err, files = first
    assert rc in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_INCONSISTENT, cli.EXIT_ORACLE,
                  cli.EXIT_RESOURCE), err
    assert "Traceback" not in err
    if rc not in (cli.EXIT_OK, cli.EXIT_ORACLE):  # a failed check writes its table
        assert sum("error:" in line for line in err.splitlines()) == 1, err
        assert not files
    assert _call(argv, out) == first
    return rc


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("generated")


def _write(path, doc):
    path.write_text(_text(doc))
    return str(path)


@settings(max_examples=60)
@given(record=RECORD, candidates=st.none() | CANDIDATES, noisy=st.booleans(),
       eject=st.booleans())
def test_infer_on_generated_records_and_candidates(workdir, record, candidates, noisy, eject):
    argv = ["infer", _write(workdir / "record.json", record), "--n-atoms", "5",
            "--out", str(workdir / "posterior.json")]
    if candidates is not None:
        argv += ["--candidates-file", _write(workdir / "candidates.json", candidates)]
    argv += ["--gamma-mhz", "0.3", "--tau-eit-us", "0.3"] if noisy else []
    _check(argv + (["--eject"] if eject else []), workdir / "posterior.json")


@settings(max_examples=60)
@given(config=_config(), candidates=st.none() | CANDIDATES)
def test_simulate_on_generated_configs_and_candidates(workdir, config, candidates):
    argv = ["simulate", "--config", _write(workdir / "config.json", config), *CHEAP,
            "--outdir", str(workdir / "run")]
    if candidates is not None:
        argv += ["--candidates-file", _write(workdir / "candidates.json", candidates)]
    _check(argv, workdir / "run")


CELLS = [f"{n},{N}" for N, n in cli.ORACLE_CELLS]


def _oracle_exit(points: int, cell: str | None) -> int:
    """The exit code oracle-check documents for these inputs."""
    if points < 1:
        return cli.EXIT_USAGE
    if points > cli.MAX_TIME_POINTS:
        return cli.EXIT_RESOURCE
    if cell is not None and (cell not in CELLS or points < 2):  # one point: t = 0 alone,
        return cli.EXIT_USAGE  # where a corrupted cell still agrees, so the gate refuses it
    return cli.EXIT_OK if cell is None else cli.EXIT_ORACLE


@settings(max_examples=30)
@given(cell=st.none() | st.sampled_from(CELLS) | st.text(max_size=6)
       | st.sampled_from(["02,4", " 2,4", "2,4,", "2, 4", "4,2", "9,9", "2,4\n", ""]),
       points=st.integers(1, 3) | st.integers(-2, 0)
       | st.integers(cli.MAX_TIME_POINTS + 1, 10**30))
def test_oracle_check_on_generated_cells_and_time_points(workdir, cell, points):
    out = workdir / "oracle.json"
    argv = ["oracle-check", f"--time-points={points}", "--out", str(out)]
    cell_flag = [] if cell is None else [f"--corrupt-cell={cell}"]
    assert _check(argv + cell_flag, out) == _oracle_exit(points, cell)


def _past(guard: int) -> st.SearchStrategy:
    return st.integers(guard + 1, 10**30)


PHOTON_NUMBERS = st.one_of(
    st.integers(-3, 12).map(str), st.text(max_size=6),
    st.tuples(st.integers(-3, 12), st.integers(-3, 12)).map(lambda ab: "%d..%d" % ab),
    st.lists(st.integers(-3, 12), min_size=1, max_size=4).map(lambda ns: ",".join(map(str, ns))),
    _past(cli.MAX_TABLE_ROWS).map(lambda k: f"1..{k}"))  # past the row guard


@settings(max_examples=60)
@given(analysis=st.sampled_from(["fisher", "detection-time", "steady-state",
                                 "optimize-schedule"]),
       regime=st.sampled_from(cli.analysis.REGIMES), n=PHOTON_NUMBERS,
       cycles=st.integers(-2, 3) | _past(cli.analysis.MAX_ENUMERATED_CYCLES),
       grid=st.integers(-2, 12) | st.integers(1_415, 20_000)  # past the tuple guard at T >= 2
       | _past(cli.MAX_GRID_POINTS))
def test_analyze_on_generated_photon_numbers_cycles_and_grids(workdir, analysis, regime, n,
                                                              cycles, grid):
    out = workdir / "table.json"
    _check(["analyze", analysis, f"--regime={regime}", f"--n={n}", f"--cycles={cycles}",
            f"--grid-points={grid}", "--out", str(out)], out)


# values at and past a rate's documented bounds; for the finite ones the horizon of a noisy
# drive decides between 0 and 5, and a record no candidate allows exits 3
RATES = st.floats() | st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e300, 1e308, math.inf,
                                       -math.inf, math.nan])


def _rate_exit(flag: str, value: float) -> int | None:
    """2 for a negative rate or time (one whose conversion to seconds underflows too; -0.0
    is 0), one that is not finite in SI units, where the program checks it, or a drive
    frequency of 0; None (any exit the contract allows) for the others."""
    si = value * 1e-6 if flag.endswith("-us") else value * 1e6 * (2.0 * math.pi)
    if not (0 <= value and 0 <= si < math.inf) or (flag == "--omega-mhz" and si == 0):
        return cli.EXIT_USAGE
    return None


def _count(low: int, high: int | None, over: int = cli.EXIT_USAGE):
    """Integers at and past the bounds low..high, far past too, and the documented
    exit code of a value: 2 below low, over above high, else 0."""
    values = st.integers(low - 2, low + 1) | st.integers(-10**30, low - 1)
    if high is not None:
        values |= st.integers(high - 1, high + 1) | _past(high)
    return values, lambda v: (cli.EXIT_USAGE if v < low else over
                              if high is not None and v > high else cli.EXIT_OK)


# simulate with CHEAP beside the flag: N = 5 atoms, n_true 2 and n_max 4 by default, and
# 1 x 2 x (1 + 2 x 1) rows, so --max-cycles meets the row guard at 333,333; --trajectories
# meets it at 3 beside 100,000 cycles, since each trajectory runs until it converges
ROWS = cli.MAX_CYCLE_ROWS
SIMULATE_FLAGS = {
    "--trajectories": _count(1, ROWS // 300_000, cli.EXIT_RESOURCE),
    "--max-cycles": _count(1, ROWS // 3, cli.EXIT_RESOURCE),
    "--trace-points": _count(0, cli.analysis.MAX_TRACE_POINTS, cli.EXIT_RESOURCE),
    "--n-true": _count(0, 5), "--n-max": _count(1, 5), "--n-atoms": _count(4, None),
    "--threshold": (st.floats() | st.sampled_from([-math.inf, math.inf, math.nan, 0.25, 1.0]),
                    lambda v: cli.EXIT_USAGE if math.isnan(v) else cli.EXIT_OK),
    **{flag: (RATES, None) for flag in ("--omega-mhz", "--gamma-mhz", "--tau-eit-us",
                                        "--tau-us")},
}
# infer at its defaults beside the flag: N = 10 atoms and n_max 4
INFER_FLAGS = {
    "--n-max": _count(1, 10), "--n-atoms": _count(4, None),
    **{flag: (RATES, None) for flag in ("--omega-mhz", "--gamma-mhz", "--tau-eit-us")},
}


def _pushed(flags: dict):
    """One flag and a value of it, and the exit code documented for that value (None:
    any exit the contract allows)."""
    def pair(flag):
        values, documented = flags[flag]
        return values.map(lambda v: (flag, v, _rate_exit(flag, v) if documented is None
                                     else documented(v)))
    return st.sampled_from(sorted(flags)).flatmap(pair)


@settings(max_examples=60)
@given(pushed=_pushed(SIMULATE_FLAGS), noisy=st.booleans())
def test_simulate_count_and_rate_flags_at_and_past_their_bounds(workdir, pushed, noisy):
    flag, value, expected = pushed
    out = workdir / "run"
    argv = ["simulate", *CHEAP, *([] if noisy else ["--gamma-mhz=0"]), f"{flag}={value}",
            "--outdir", str(out)]
    argv += ["--max-cycles=100000"] if flag == "--trajectories" else []
    assert _check(argv, out) == expected or expected is None


@settings(max_examples=40)
@given(pushed=_pushed(INFER_FLAGS), noisy=st.booleans())
def test_infer_count_and_rate_flags_at_and_past_their_bounds(workdir, pushed, noisy):
    flag, value, expected = pushed
    out = workdir / "posterior.json"
    record = {"entries": [{"tau_s": 2e-7, "outcome": outcome}
                          for outcome in ("NoRydberg", "Rydberg", "NoRydberg")]}
    argv = ["infer", _write(workdir / "record.json", record),
            *(["--gamma-mhz=0.3", "--tau-eit-us=0.3"] if noisy else []), f"{flag}={value}",
            "--out", str(out)]
    assert _check(argv, out) == expected or expected is None

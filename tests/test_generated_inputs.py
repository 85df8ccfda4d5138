"""Generated input files through `cli.main`, in-process.

`infer` record files, `--candidates-file` files (for `infer` and `simulate`) and
`simulate --config` files hold JSON values of every type in every field:
integers past float range and past Python's digit limit for integer text, NaN and
Infinity literals, missing and extra keys.  Whatever a file holds, a call exits
0, 2, 3 or 5; a refusal prints exactly one `error:` line, no traceback and no
output file; and a second call gives the same exit code and the same bytes.
"""

import argparse
import contextlib
import io
import json
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


def _check(argv: list[str], out) -> None:
    first = _call(argv, out)
    rc, _, err, files = first
    assert rc in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_INCONSISTENT, cli.EXIT_RESOURCE), err
    assert "Traceback" not in err
    if rc != cli.EXIT_OK:
        assert sum("error:" in line for line in err.splitlines()) == 1, err
        assert not files
    assert _call(argv, out) == first


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

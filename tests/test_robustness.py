"""Long records and large arrays end to end: each run ends in a documented exit
code, never in a traceback, an underflow reported as an inconsistent record
or a RuntimeWarning (the test configuration turns those into errors)."""

import json
import math
import re

import numpy as np
import pytest

from rydqnd import analysis as an
from rydqnd import cli, symbasis
from rydqnd import dynamics as dyn
from rydqnd import inference as inf
from rydqnd.errors import DomainError, IntegratorError, ResourceError
from rydqnd.records import FockDistribution, MeasurementRecord, Posterior, RYDBERG

# the paper's parameters, in the CLI's units
OMEGA_MHZ, GAMMA_MHZ, TAU_EIT_US, N_ATOMS = 2.5, 0.3, 0.3, 10


def _sampled_record(n, cycles, seed):
    """A noisy record sampled with the j = 0 block chain of `dynamics`."""
    rng = np.random.default_rng(seed)
    omega, gamma = 2 * math.pi * OMEGA_MHZ * 1e6, 2 * math.pi * GAMMA_MHZ * 1e6
    blocks = dyn.symmetric_state_blocks(n, N_ATOMS)[:1]
    entries = []
    for tau in rng.uniform(0.05e-6, 0.4e-6, cycles).tolist():
        blocks = dyn.evolve_blocks(blocks, tau, omega, gamma)
        outcome, blocks, _ = dyn.measure_block(blocks, TAU_EIT_US * 1e-6, gamma, rng.random())
        entries.append((tau, outcome))
    return MeasurementRecord(entries)


def _noise_flags(n_atoms=N_ATOMS):
    return ["--omega-mhz", str(OMEGA_MHZ), "--gamma-mhz", str(GAMMA_MHZ),
            "--tau-eit-us", str(TAU_EIT_US), "--n-atoms", str(n_atoms)]


def test_infer_ten_thousand_noisy_cycles(tmp_path, capsys):
    record = _sampled_record(2, 10_000, seed=17)
    path, out = tmp_path / "rec.json", tmp_path / "post.json"
    path.write_text(record.to_json())
    assert cli.main(["infer", str(path), *_noise_flags(), "--candidates", "1..4",
                     "--out", str(out)]) == cli.EXIT_OK
    assert "Traceback" not in capsys.readouterr().err
    doc = json.loads(out.read_text())
    trace = np.array(doc["trace"])
    assert trace.shape == (10_001, 4)
    assert np.all(np.isfinite(trace)) and np.allclose(trace.sum(axis=1), 1.0, atol=1e-12)
    assert doc["mle_index"] == 1  # candidate n = 2


def test_simulate_five_hundred_photons_in_a_thousand_atoms(tmp_path, capsys):
    outdir = tmp_path / "big"
    assert cli.main(["simulate", "--n-true", "500", "--n-atoms", "1000", "--max-cycles", "3",
                     "--outdir", str(outdir)]) == cli.EXIT_OK
    assert "Traceback" not in capsys.readouterr().err
    summary = json.loads((outdir / "summary.json").read_text())
    assert summary["n_trajectories"] == 1 and summary["config"]["N"] == 1000


def test_infer_near_half_filling_of_a_thousand_atoms(tmp_path, capsys):
    path = tmp_path / "rec.json"
    path.write_text(MeasurementRecord([(2e-7, RYDBERG), (1e-7, "NoRydberg"),
                                       (3e-7, RYDBERG)]).to_json())
    for eject in ([], ["--eject"]):
        out = tmp_path / "post.json"
        rc = cli.main(["infer", str(path), *_noise_flags(1000), "--candidates", "498..500",
                       *eject, "--out", str(out)])
        assert rc in (cli.EXIT_OK, cli.EXIT_RESOURCE)
        assert "Traceback" not in capsys.readouterr().err
        if rc == cli.EXIT_OK:
            weights = json.loads(out.read_text())["weights"]
            assert math.isclose(sum(weights), 1.0, abs_tol=1e-12)


def test_inference_builds_only_the_j0_blocks_it_reads(tmp_path, monkeypatch):
    """The noisy likelihood reads the j = 0 block alone, so `infer` near half
    filling of a thousand atoms builds 3 `SectorBlock`s, not the 1,500 of its
    three sectors."""
    path, out = tmp_path / "rec.json", tmp_path / "post.json"
    path.write_text(MeasurementRecord([(2e-7, RYDBERG), (1e-7, "NoRydberg")]).to_json())
    built = []
    build = symbasis._sector_block
    monkeypatch.setattr(symbasis, "_sector_block",
                        lambda n, N, j: built.append((n, N, j)) or build(n, N, j))
    for cache in (symbasis.sector, dyn._eigensystem, dyn._propagator, inf._shift_rows):
        cache.cache_clear()
    assert cli.main(["infer", str(path), *_noise_flags(1000), "--candidates", "498..500",
                     "--out", str(out)]) == cli.EXIT_OK
    assert sorted(built) == [(498, 1000, 0), (499, 1000, 0), (500, 1000, 0)]


def test_candidates_past_the_atom_count_are_refused_before_any_is_built(tmp_path, monkeypatch,
                                                                         capsys):
    """`--candidates 9..4000` at N = 10 is refused before any of its 3,992
    deltas, each 4,001 entries long, is built."""
    rec, out = tmp_path / "record.json", tmp_path / "posterior.json"
    rec.write_text(MeasurementRecord([(2e-7, RYDBERG)]).to_json())
    built = []
    delta = FockDistribution.delta
    monkeypatch.setattr(FockDistribution, "delta",
                        staticmethod(lambda n, n_max: built.append(n) or delta(n, n_max)))
    argv = ["infer", str(rec), *_noise_flags(), "--candidates", "9..4000", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_USAGE
    assert "got n=4000, N=10" in capsys.readouterr().err
    assert built == [] and not out.exists()


@pytest.mark.parametrize("argv, quantity", [
    (["analyze", "fisher", "--time-us", "1e300"], "Fisher information"),
    (["analyze", "fisher", "--omega-mhz", "1e200"], "Fisher information"),
    (["analyze", "detection-time", "--regime", "noisy-frequency", "--omega-mhz", "1e-300"],
     "detection time"),
    (["analyze", "detection-time", "--regime", "steady-state", "--gamma-mhz", "1e-320"],
     "detection time"),
    (["oracle-check", "--time-points", "2", "--omega-mhz", "1e300"], "Liouvillian trace"),
])
def test_results_past_float_range_exit_5(argv, quantity, tmp_path, capsys):
    """A closed form that overflows, or divides by a rate whose square underflows
    to 0, and an oracle Liouvillian whose trace overflows: exit 5 naming the
    quantity, with no output (an infinite t_star_s would not be valid JSON)."""
    out = tmp_path / "out.json"
    assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_RESOURCE
    assert f"{quantity} is past float range" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("gamma_mhz", ["0", str(GAMMA_MHZ)])
@pytest.mark.parametrize("tau", ["NaN", "Infinity", "-Infinity"])
def test_infer_rejects_a_drive_time_that_is_not_finite(tmp_path, capsys, tau, gamma_mhz):
    """json reads NaN and Infinity as floats; a record holding one is a usage
    error at any dephasing rate, not NaN weights (which are not JSON) or an
    inconsistent record."""
    rec, out = tmp_path / "record.json", tmp_path / "posterior.json"
    rec.write_text('{"entries": [{"tau_s": 2e-07, "outcome": "NoRydberg"}, '
                   '{"tau_s": %s, "outcome": "Rydberg"}]}' % tau)
    flags = [*_noise_flags(), "--gamma-mhz", gamma_mhz, "--candidates", "1..4"]
    assert cli.main(["infer", str(rec), *flags, "--out", str(out)]) == cli.EXIT_USAGE
    assert "entry 1: drive time must be finite" in capsys.readouterr().err
    assert not out.exists()


# a JSON integer past float range: json reads it as a Python int, which no float holds
PAST_FLOAT_RANGE = "1" + "0" * 400


@pytest.mark.parametrize("gamma_mhz", ["0", str(GAMMA_MHZ)])
def test_infer_refuses_a_drive_time_past_float_range(tmp_path, capsys, gamma_mhz):
    """Exit 2 with one error line naming the file and the entry, at any
    dephasing rate, not an OverflowError where the drive times become floats."""
    rec, out = tmp_path / "record.json", tmp_path / "posterior.json"
    rec.write_text('{"entries": [{"tau_s": 2e-07, "outcome": "NoRydberg"}, '
                   '{"tau_s": %s, "outcome": "Rydberg"}]}' % PAST_FLOAT_RANGE)
    flags = [*_noise_flags(), "--gamma-mhz", gamma_mhz, "--candidates", "1..4"]
    assert cli.main(["infer", str(rec), *flags, "--out", str(out)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {rec}: entry 1: drive time must be finite")
    assert err.count("\n") == 1 and not out.exists()


@pytest.mark.parametrize("doc, what", [
    ('{"candidates": [[0, 1], [0, %s, 0]]}' % PAST_FLOAT_RANGE, "candidate 1"),
    ('{"candidates": [[0, 1], [0, 0, 1]], "prior": [%s, 0]}' % PAST_FLOAT_RANGE, "the prior"),
], ids=["candidate", "prior"])
@pytest.mark.parametrize("command", ["infer", "simulate"])
def test_a_probability_past_float_range_exits_2_naming_its_list(tmp_path, capsys, doc, what,
                                                                 command):
    cands, rec, out = tmp_path / "cands.json", tmp_path / "record.json", tmp_path / "out"
    cands.write_text(doc)
    rec.write_text(MeasurementRecord([(2e-7, RYDBERG)]).to_json())
    argv = (["infer", str(rec), "--out", str(out)] if command == "infer" else
            ["simulate", "--max-cycles", "3", "--trajectories", "1", "--outdir", str(out)])
    assert cli.main([*argv, "--candidates-file", str(cands)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cands}: {what}: ")
    assert err.count("\n") == 1 and not out.exists()


@pytest.mark.parametrize("tau", [math.nan, math.inf, -1e-7,
                                 pytest.param(10**400, id="int-past-float-range")])
def test_records_refuse_drive_times_that_are_not_finite_and_non_negative(tau):
    with pytest.raises(DomainError):
        MeasurementRecord([(tau, RYDBERG)])
    record = MeasurementRecord([(1e-7, RYDBERG)])
    with pytest.raises(DomainError):
        record.append(tau, RYDBERG)
    assert len(record) == 1


@pytest.mark.parametrize("p", [[0.0, math.nan], [math.nan, 1.0], [math.inf, -math.inf, 1.0]])
def test_probabilities_refuse_entries_that_are_not_finite(p):
    """A NaN satisfies neither the sign check nor the sum check by itself."""
    with pytest.raises(DomainError, match="finite"):
        FockDistribution(np.array(p))
    with pytest.raises(DomainError, match="finite"):
        Posterior(np.array(p))


@pytest.mark.parametrize("doc", [
    '{"candidates": [[0, NaN], [0, 0, 1]]}',
    '{"candidates": [[0, 1], [0, 0, 1]], "prior": [NaN, 1]}',
], ids=["candidate", "prior"])
@pytest.mark.parametrize("command", ["infer", "simulate"])
def test_a_nan_in_the_candidates_file_exits_2(tmp_path, capsys, doc, command):
    """json reads NaN as a float; a NaN weight would reach posterior.json as
    NaN (not JSON), or fail a record as having zero likelihood."""
    cands, rec, out = tmp_path / "cands.json", tmp_path / "record.json", tmp_path / "out"
    cands.write_text(doc)
    rec.write_text(MeasurementRecord([(2e-7, RYDBERG)]).to_json())
    argv = (["infer", str(rec), "--out", str(out)] if command == "infer" else
            ["simulate", "--max-cycles", "3", "--trajectories", "1", "--outdir", str(out)])
    assert cli.main([*argv, "--candidates-file", str(cands)]) == cli.EXIT_USAGE
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_refuses_a_drive_past_the_propagator_horizon(tmp_path, capsys):
    """A one-second drive at N = 10 would move the trace past the 1e-9 the
    drift check allows (the stationary eigenvalue is rounding, not 0): exit 5,
    naming the drive time."""
    argv = ["simulate", "--n-true", "2", "--trajectories", "1", "--tau-us", "1e6",
            "--max-cycles", "2", "--trace-points", "0", "--outdir", str(tmp_path)]
    assert cli.main(argv) == cli.EXIT_RESOURCE
    assert "drive time 1.0 s is too long" in capsys.readouterr().err


def test_traced_simulate_names_the_drive_time_past_the_horizon(tmp_path, capsys):
    """With sub-step tracing (the default 8 points) the error names the drive
    time, the longest sub-step, not the first sub-step past the horizon."""
    argv = ["simulate", "--n-true", "2", "--trajectories", "1", "--tau-us", "1e6",
            "--max-cycles", "2", "--outdir", str(tmp_path)]
    assert cli.main(argv) == cli.EXIT_RESOURCE
    assert "drive time 1.0 s is too long" in capsys.readouterr().err


@pytest.mark.parametrize("gamma_mhz", ["0", str(GAMMA_MHZ)])
def test_trace_points_past_the_guard_exit_5_before_any_array_is_built(gamma_mhz, tmp_path,
                                                                      capsys):
    """One more sub-step than `MAX_TRACE_POINTS` is refused with exit 5, naming
    the value, before the output directory or any state exists."""
    points = an.MAX_TRACE_POINTS + 1
    argv = ["simulate", "--gamma-mhz", gamma_mhz, "--trajectories", "1", "--max-cycles", "1",
            "--trace-points", str(points), "--outdir", str(tmp_path / "out")]
    assert cli.main(argv) == cli.EXIT_RESOURCE
    assert f"trace_points {points} exceeds" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_infer_refuses_a_drive_past_the_propagator_horizon(tmp_path, capsys):
    rec = tmp_path / "record.json"
    rec.write_text(MeasurementRecord([(2e-7, RYDBERG), (1e300, RYDBERG)]).to_json())
    argv = ["infer", str(rec), *_noise_flags(), "--candidates", "1..4",
            "--out", str(tmp_path / "posterior.json")]
    assert cli.main(argv) == cli.EXIT_RESOURCE
    assert "drive time 1e+300 s is too long" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["infer", "simulate"])
def test_a_window_past_the_propagator_horizon_is_named_as_the_window(command, tmp_path, capsys):
    """The measurement window is propagated with the drive off; past the horizon it
    exits 5 naming the window, not a drive time, and writes nothing."""
    rec, out = tmp_path / "record.json", tmp_path / "out"
    rec.write_text(MeasurementRecord([(2e-7, RYDBERG)]).to_json())
    argv = (["infer", str(rec), "--out", str(out), *_noise_flags()] if command == "infer" else
            ["simulate", "--trajectories", "1", "--max-cycles", "3", "--outdir", str(out)])
    assert cli.main([*argv, "--tau-eit-us", "1e300"]) == cli.EXIT_RESOURCE
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: measurement window 1e+294 s is too long for a "
                                "propagator to keep the trace"]
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["infer", "RECORD", "--n-atoms", "30000", "--n-max", "30000"],
    ["infer", "RECORD", "--n-atoms", "30000", "--candidates", "1..30000"],
    ["simulate", "--gamma-mhz", "0", "--n-atoms", "30000", "--n-max", "30000"],
], ids=["infer-n-max", "infer-candidates", "simulate"])
def test_a_candidate_table_past_the_guard_exits_5_before_it_is_built(argv, tmp_path, capsys,
                                                                     monkeypatch):
    """30,000 delta candidates of 30,001 entries each would be 7 GB of floats: exit 5
    with one error line, before any delta is built or any file written."""
    monkeypatch.setattr(FockDistribution, "delta",
                        lambda *args: pytest.fail("a delta candidate was built"))
    rec, out = tmp_path / "record.json", tmp_path / "out"
    rec.write_text(MeasurementRecord([(2e-7, RYDBERG)]).to_json())
    argv = [str(rec) if a == "RECORD" else a for a in argv]
    argv += ["--out", str(out)] if argv[0] == "infer" else ["--outdir", str(out)]
    assert cli.main(argv) == cli.EXIT_RESOURCE
    assert capsys.readouterr().err.splitlines() == [
        f"error: 30000 candidates of 30001 entries exceed the guard of "
        f"{cli.MAX_CANDIDATE_ENTRIES} entries"]
    assert not out.exists()


@pytest.mark.parametrize("n", ["1..100000000", "5..100000000000000000000000"])
def test_analyze_rows_past_the_guard_exit_5_before_any_row_is_built(n, tmp_path, capsys,
                                                                     monkeypatch):
    """`--n` wider than `MAX_TABLE_ROWS` exits 5 with one error line, before any
    row is computed (a range past sys.maxsize values too) or the table written."""
    monkeypatch.setattr(an, "steady_state_populations",
                        lambda *args: pytest.fail("a row was computed"))
    out = tmp_path / "table.json"
    assert cli.main(["analyze", "steady-state", "--n", n, "--out", str(out)]) \
        == cli.EXIT_RESOURCE
    lo, hi = (int(v) for v in n.split(".."))
    assert capsys.readouterr().err.splitlines() == [
        f"error: --n {n} gives {hi - lo + 1} rows, more than the guard of {cli.MAX_TABLE_ROWS}"]
    assert not out.exists()


def test_schedule_grid_past_the_guard_exits_5_before_the_grid_is_built(tmp_path, capsys,
                                                                       monkeypatch):
    """`optimize-schedule --grid-points` past `MAX_GRID_POINTS` exits 5 with one
    error line, before the grid is built or the table written: at 10^7 points the
    grid odds ran out of memory."""
    monkeypatch.setattr(an, "default_tau_grid", lambda *args: pytest.fail("the grid was built"))
    out = tmp_path / "schedule.json"
    points = cli.MAX_GRID_POINTS + 1
    argv = ["analyze", "optimize-schedule", "--grid-points", str(points), "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_RESOURCE
    assert capsys.readouterr().err.splitlines() == [
        f"error: --grid-points {points} exceeds the guard of {cli.MAX_GRID_POINTS}"]
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("gamma_mhz, trajectories, points", [
    ("0", 1, 0), (str(GAMMA_MHZ), 1, 0), (str(GAMMA_MHZ), 4, 8)])
def test_simulate_rows_past_the_guard_exit_5_before_the_run(gamma_mhz, trajectories, points,
                                                            tmp_path, capsys, monkeypatch):
    """One cycle more than `MAX_CYCLE_ROWS` allows, trajectories x cycles x (1 + 2
    x trace points), exits 5 with one error line, before any trajectory is run or
    any file written: a run that never converges keeps every cycle to the end."""
    monkeypatch.setattr(cli, "run_batch", lambda *args: pytest.fail("the batch was run"))
    cycles = cli.MAX_CYCLE_ROWS // (trajectories * (1 + 2 * points)) + 1
    rows = trajectories * cycles * (1 + 2 * points)
    out = tmp_path / "out"
    argv = ["simulate", "--gamma-mhz", gamma_mhz, "--trajectories", str(trajectories),
            "--max-cycles", str(cycles), "--trace-points", str(points), "--threshold", "2",
            "--outdir", str(out)]
    assert cli.main(argv) == cli.EXIT_RESOURCE
    assert capsys.readouterr().err.splitlines() == [
        f"error: --trajectories {trajectories} x --max-cycles {cycles} x (1 + 2 x "
        f"--trace-points {points}) gives {rows} rows, more than the guard of "
        f"{cli.MAX_CYCLE_ROWS}"]
    assert not out.exists()


@pytest.mark.parametrize("gamma_mhz", ["0", str(GAMMA_MHZ)])
def test_simulate_refuses_a_drive_phase_past_float_range(gamma_mhz, tmp_path, capsys):
    """sqrt(n) * omega * tau overflows to inf, whose cos and sin are NaN: exit 5
    naming the drive time, before any NaN reaches a state or a likelihood."""
    argv = ["simulate", "--gamma-mhz", gamma_mhz, "--tau-us", "1e308", "--trajectories", "1",
            "--max-cycles", "3", "--trace-points", "0", "--outdir", str(tmp_path / "out")]
    assert cli.main(argv) == cli.EXIT_RESOURCE
    assert "puts the drive phase past float range" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_noiseless_infer_refuses_a_drive_phase_past_float_range(tmp_path, capsys):
    rec, out = tmp_path / "record.json", tmp_path / "posterior.json"
    rec.write_text(MeasurementRecord([(2e-7, "NoRydberg"), (1e303, RYDBERG)]).to_json())
    argv = ["infer", str(rec), "--gamma-mhz", "0", "--candidates", "1..4", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_RESOURCE
    assert "drive time 1e+303 s puts the drive phase" in capsys.readouterr().err
    assert not out.exists()


def test_a_nan_norm_fails_the_norm_check():
    with pytest.raises(DomainError):
        dyn._check_norm(np.array([1.0, math.nan]))


def test_a_nan_trace_fails_the_drift_check():
    with pytest.raises(IntegratorError):
        dyn._check_drift(np.array([1.0, math.nan]), np.ones(2))
    block = dyn.symmetric_state_blocks(2, 4)[0]
    with pytest.raises(IntegratorError):  # one block's state, as the batch kernels refuse it
        dyn.evolve_block(dyn.SymmetricBlockState(2, 4, 0, np.full_like(block.x, math.nan)),
                         1e-7, 1.0, 0.3)


def test_a_nan_amplitude_fails_the_pure_state_norm_check():
    with pytest.raises(DomainError):
        dyn.PureCollectiveState(np.array([math.nan, 0.0]), np.zeros(2))


def test_sequential_inference_refuses_an_unknown_outcome():
    seq = inf.SequentialInference([FockDistribution.delta(1, 1)], Posterior.uniform(1), 1.0)
    with pytest.raises(DomainError):
        seq.update(0.5, "Rydberg?")


@pytest.mark.parametrize("outcome", ["rydberg", "Rydberg?", ""])
def test_the_one_row_updates_refuse_an_unknown_outcome(outcome):
    """An outcome other than the two names is no NoRydberg outcome."""
    with pytest.raises(DomainError, match=f"^{re.escape(f'unknown outcome {outcome!r}')}$"):
        inf.ConditionalState(2, 1.0, _NOISE).update(0.2, outcome)
    with pytest.raises(DomainError, match=f"^{re.escape(f'unknown outcome {outcome!r}')}$"):
        dyn.project_blocks(dyn.symmetric_state_blocks(2, 4), outcome)


@pytest.mark.parametrize("weights, message", [
    (np.full((2, 2), 0.25), "posterior weights must be a non-empty vector"),
    (np.array([]), "posterior weights must be a non-empty vector"),
    (np.array([0.5, 0.4]), "posterior weights must sum to 1, got 0.9"),
], ids=["matrix", "empty", "sum"])
def test_posterior_weights_are_checked_as_a_probability_vector(weights, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        Posterior(weights)


_NOISE = inf.NoiseParams(0.3, 0.2, 4)
_DELTAS = [FockDistribution.delta(n, 3) for n in (1, 2, 3)], Posterior.uniform(3)
# each kernel entry point that takes a drive time or a window, given that time
_ENTRY_POINTS = {
    "evolve_pure": lambda tau: dyn.evolve_pure(
        dyn.PureCollectiveState.from_stored_amplitudes(np.array([0.0, 0.6, 0.8])), tau, 1.0),
    "evolve_blocks": lambda tau: dyn.evolve_blocks(dyn.symmetric_state_blocks(2, 4), tau,
                                                   1.0, 0.3),
    "measure_block": lambda tau: dyn.measure_block(dyn.symmetric_state_blocks(2, 4), tau,
                                                   0.3, 0.5),
    "BlockBatch.drive": lambda tau: dyn.BlockBatch([2, 2], 1.0, _NOISE).drive(
        np.array([0.5, tau])),
    "PureBatch.drive": lambda tau: dyn.PureBatch(
        dyn.PureCollectiveState.from_stored_amplitudes(np.array([0.0, 0.6, 0.8])),
        inf.NoiselessLikelihoods([0, 1, 2], 1.0, shift=[0, 0])).drive(
        np.array([0.5, tau])),
    "NoiselessLikelihoods.update": lambda tau: inf.NoiselessLikelihoods([1, 2], 1.0, shift=[0, 0]).update(
        np.array([0.5, tau]), np.array([True, False])),
    "NoisyLikelihoods.update": lambda tau: inf.NoisyLikelihoods([1, 2], 1.0, _NOISE,
                                                               shift=[0, 0]).update(
        np.array([0.5, tau]), np.array([True, False])),
    "ConditionalState.update": lambda tau: inf.ConditionalState(2, 1.0, _NOISE).update(
        tau, RYDBERG),
    "greedy_next_tau": lambda tau: an.greedy_next_tau([0.4], *_DELTAS, np.array([0.5, tau]),
                                                      1.0),
    "greedy_next_tau, noisy": lambda tau: an.greedy_next_tau(
        [0.4], *_DELTAS, np.array([0.5, tau]), 1.0, _NOISE),
    "expected_fidelity": lambda tau: an.expected_fidelity([tau], *_DELTAS, 1.0),
    "expected_fidelity, tau in the prefix": lambda tau: an.expected_fidelity([tau, 0.5],
                                                                            *_DELTAS, 1.0),
    "expected_fidelity, noisy": lambda tau: an.expected_fidelity([tau], *_DELTAS, 1.0, _NOISE),
}


@pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf, -0.5])
@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_kernels_refuse_drive_times_that_are_not_finite(entry, tau):
    with pytest.raises(DomainError, match="must be finite and non-negative"):
        _ENTRY_POINTS[entry](tau)


@pytest.mark.parametrize("entry", ["BlockBatch.drive", "PureBatch.drive",
                                   "NoiselessLikelihoods.update", "NoisyLikelihoods.update",
                                   "greedy_next_tau", "greedy_next_tau, noisy"])
def test_the_batches_and_holders_refuse_a_time_as_a_drive_time(entry):
    """The state batches, both likelihood holders and both holders' grid readers
    name a refused time by one label."""
    with pytest.raises(DomainError, match="^drive time must be finite and non-negative$"):
        _ENTRY_POINTS[entry](math.nan)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_drives_up_to_the_horizon_hold_the_trace(n):
    """The horizon lies far past any drive the protocol uses; a drive of 0.9
    of it keeps the trace within the drift bound, through the cached
    propagator of one time and the batch's per-row times, and a drive past
    it is refused before any exponential."""
    omega, gamma = 2 * math.pi * OMEGA_MHZ * 1e6, 2 * math.pi * GAMMA_MHZ * 1e6
    horizon = dyn._eigensystem(n, N_ATOMS, 0, omega, gamma)[1]
    assert 0.01 < horizon < math.inf
    blocks = dyn.symmetric_state_blocks(n, N_ATOMS)
    dyn.evolve_blocks(blocks, 0.9 * horizon, omega, gamma)
    batch = dyn.BlockBatch([n, n], omega, inf.NoiseParams(gamma, 0.0, N_ATOMS))
    batch.drive(np.array([0.5, 0.9]) * horizon)
    with pytest.raises(ResourceError):
        dyn.evolve_blocks(blocks, 1.1 * horizon, omega, gamma)
    with pytest.raises(ResourceError):
        batch.drive(np.array([0.5, 1.1]) * horizon)

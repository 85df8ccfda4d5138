"""Long records and large arrays end to end: each run ends in a documented exit
code, never in a traceback, an underflow reported as an inconsistent record
or a RuntimeWarning (the test configuration turns those into errors)."""

import json
import math

import numpy as np

from rydqnd import cli, symbasis
from rydqnd import dynamics as dyn
from rydqnd import inference as inf
from rydqnd.records import MeasurementRecord, RYDBERG

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
    for cache in (symbasis.sector, dyn._eigensystem, dyn._propagator, inf._j0_block):
        cache.cache_clear()
    assert cli.main(["infer", str(path), *_noise_flags(1000), "--candidates", "498..500",
                     "--out", str(out)]) == cli.EXIT_OK
    assert sorted(built) == [(498, 1000, 0), (499, 1000, 0), (500, 1000, 0)]

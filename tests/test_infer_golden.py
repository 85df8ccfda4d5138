"""Golden `infer` output: the bytes of `posterior.json` are pinned.

Each case runs `rydqnd infer` in-process on one fixed record and compares the
sha256 of the posterior file with a digest captured from the code that
computed it first.  The record holds a run of two Rydberg outcomes (a state
continued from its predecessor) and three Rydberg outcomes in all, so every
ejecting case keeps a candidate alive.  The `expm` case drives at gamma = 8
Omega, where the j = 0 block of n = 1 has no well-conditioned eigenbasis.
Like the engine and `simulate` digests, these hold where they were captured
(x86-64 Linux, glibc libm, numpy 2.4).
"""

import hashlib
import json

import pytest

from rydqnd import cli
from rydqnd.records import MeasurementRecord, NO_RYDBERG, RYDBERG

RECORD = MeasurementRecord([
    (2.1e-7, NO_RYDBERG), (1.3e-7, RYDBERG), (2.9e-7, RYDBERG), (0.7e-7, NO_RYDBERG),
    (3.3e-7, NO_RYDBERG), (1.9e-7, RYDBERG), (2.5e-7, NO_RYDBERG), (2.5e-7, NO_RYDBERG),
    (1.1e-7, NO_RYDBERG), (3.7e-7, NO_RYDBERG),
])
PAPER_RATES = ["--omega-mhz", "2.5", "--gamma-mhz", "0.3", "--tau-eit-us", "0.3"]
MIXTURES = {"candidates": [[0.0, 1.0], [0.0, 0.0, 0.6, 0.4], [0.0, 0.0, 0.0, 0.5, 0.5]],
            "prior": [0.2, 0.5, 0.3]}

# name -> infer flags beyond the record and --out
CASES = {
    "noiseless": [],
    "noiseless-eject": ["--eject"],
    "noisy": PAPER_RATES,
    "noisy-eject": [*PAPER_RATES, "--eject"],
    "noisy-mixture-prior": [*PAPER_RATES, "--candidates-file", "cands.json"],
    "expm-fallback": ["--angular", "--omega-mhz", "1", "--gamma-mhz", "8",
                      "--candidates", "1..2"],
}

DIGESTS = {
    "expm-fallback": "8d62b611f05705630656d3709d0d081ccc2d16fb8ccffdd574e29d8c84fac500",
    "noiseless": "7903a287f0289163fea9e5d1eda7692aa431f86c07214ebc706bced9dc9c5f32",
    "noiseless-eject": "1f7edd0dae3211623917fb73d3abbc76255b5a6b71d301912687da163364bc92",
    "noisy": "06d64cb958811bd517361b6e0c39ab50673a6a65dda85bb4a3a692ec2d06a136",
    "noisy-eject": "20cdbf9bb926d8517f82af3755a3ed4c275632b561c06ae9a0f078c952d58f6d",
    "noisy-mixture-prior": "a34fe54d904c301c1777b6426253aae811bf4d12dfdd3002a3ef3587960f4c98",
}


def _run(name, tmp_path, monkeypatch) -> str:
    monkeypatch.chdir(tmp_path)  # posterior.json names the record file as given
    (tmp_path / "record.json").write_text(RECORD.to_json())
    (tmp_path / "cands.json").write_text(json.dumps(MIXTURES))
    argv = ["infer", "record.json", *CASES[name], "--out", "posterior.json"]
    assert cli.main(argv) == cli.EXIT_OK
    return hashlib.sha256((tmp_path / "posterior.json").read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_infer_posterior_matches_golden_digest(name, tmp_path, monkeypatch):
    assert _run(name, tmp_path, monkeypatch) == DIGESTS[name]

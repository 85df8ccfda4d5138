"""Golden `oracle-check` output files: the bytes of every file are pinned.

Each case runs `rydqnd oracle-check` in-process and compares the sha256 of
its output file with a digest captured while the block side still read p_R
through the one-state `evolve_blocks`/`sector_probabilities` chain.  The
deviations are printed to the last digit, so any change in how the block or
the dense side computes a population changes a digest.  Like the engine
digests, these hold where they were captured (x86-64 Linux, glibc libm,
numpy 2.4).
"""

import hashlib

import pytest

from rydqnd import cli, dynamics

# name -> (oracle-check flags, output file name, exit code, sha256 of the file)
CASES = {
    "json-3": (["--time-points", "3"], "oracle.json", cli.EXIT_OK,
               "f45d871d96e0107f656a35af198bb846fc1274c1d81ce28edcac868c0f855cc8"),
    "json-50": (["--time-points", "50"], "oracle.json", cli.EXIT_OK,
                "40817fbc744891f974c213e4aee8733eedd0a2c115816d6bab7e67f3bfb94ddf"),
    "csv-7": (["--time-points", "7"], "oracle.csv", cli.EXIT_OK,
              "cf3bbcc576a4f880e4d0ae46e533fcf7dddf89049be57679541f987fcbf63a51"),
    "corrupt-2-4": (["--corrupt-cell", "2,4", "--time-points", "5"], "oracle.json",
                    cli.EXIT_ORACLE,
                    "57613ea08c65bc3f5247f543e7c6af133127529e54ba3d167a8db0c28f332d3d"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_oracle_check_output_bytes(name, tmp_path, capsys):
    flags, filename, code, digest = CASES[name]
    out = tmp_path / filename
    assert cli.main(["oracle-check", *flags, "--out", str(out)]) == code
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_oracle_check_reads_the_holder_kernels(tmp_path, monkeypatch):
    """The gate's block side runs the kernels `BlockBatch` runs, not the
    one-state chain: an uncorrupted run calls neither of its kernels."""
    calls = {"evolve_block": 0, "sector_probabilities": 0}
    for name in calls:
        original = getattr(dynamics, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(dynamics, name, counted)
    out = tmp_path / "oracle.json"
    assert cli.main(["oracle-check", "--time-points", "3", "--out", str(out)]) == cli.EXIT_OK
    assert calls == {"evolve_block": 0, "sector_probabilities": 0}

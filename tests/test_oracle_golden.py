"""Golden `oracle-check` output files: the bytes of every file are pinned.

Each case runs `rydqnd oracle-check` in-process and compares the sha256 of
its output file with a digest captured once the dense side evolved all fifteen
(cell, dephasing rate) pairs in one series (`comparisons/24_dense_one_series.txt`
compares them with the series per dephasing rate).
The deviations are printed to the last digit, so any change in how the block
or the dense side computes a population changes a digest.  Like the engine
digests, these hold where they were captured (x86-64 Linux, glibc libm,
numpy 2.4).
"""

import hashlib

import pytest

from rydqnd import cli, dynamics

# name -> (oracle-check flags, output file name, exit code, sha256 of the file)
CASES = {
    "json-3": (["--time-points", "3"], "oracle.json", cli.EXIT_OK,
               "3294dd3fbada222d7574f9c6af6421027d9ba6adc48f3b6932d1ad06cc220544"),
    "json-50": (["--time-points", "50"], "oracle.json", cli.EXIT_OK,
                "68a0c81e6ae0e33f31cba56c71591bbdffe8ec4c6eb32388b13ef3920202f8ae"),
    "csv-7": (["--time-points", "7"], "oracle.csv", cli.EXIT_OK,
              "79d94fbddce17f7077e96faef9e796ea7030f5f64634f2045ab0dc45ae976201"),
    "corrupt-2-4": (["--corrupt-cell", "2,4", "--time-points", "5"], "oracle.json",
                    cli.EXIT_ORACLE,
                    "b75268882424c1486496dd34637e75951af78c8fa1adcc5c5d4a2a1830730ed8"),
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

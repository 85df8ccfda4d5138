"""Golden `oracle-check` output files: the bytes of every file are pinned.

Each case runs `rydqnd oracle-check` in-process and compares the sha256 of
its output file with a digest captured once the dense side evolved the five
cells together, one series per dephasing rate
(`comparisons/23_dense_per_rate.txt` compares them with the per-cell series).
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
               "7c7e77e8d794460973b41b515d61cf256b93de6b22bd658aae0f66c57c4b4468"),
    "json-50": (["--time-points", "50"], "oracle.json", cli.EXIT_OK,
                "df03ce35798a0954b99eaf7d1b96280e5ece087389c25e51d0aa9855527e8e25"),
    "csv-7": (["--time-points", "7"], "oracle.csv", cli.EXIT_OK,
              "d1bfa2bec16294db0116c8ba7042146b1d18707c46401f2dceadec312ddce5fd"),
    "corrupt-2-4": (["--corrupt-cell", "2,4", "--time-points", "5"], "oracle.json",
                    cli.EXIT_ORACLE,
                    "bac5643c582827d0c51eeeba7c34344a73ef86911a5b1e29b4784c85c22599ca"),
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

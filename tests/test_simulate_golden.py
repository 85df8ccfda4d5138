"""Golden `simulate` output files: the bytes of every file are pinned.

Each case runs `rydqnd simulate` in-process and compares the sha256 of
`trajectories.jsonl`, of every `trace_<i>.csv` and of `summary.json` with a
digest captured before the trace writer formatted its rows itself (through
`csv.DictWriter`).  Any change to a number's formatting, a column, a header
line or a row ending changes a digest.  Like the engine digests, these hold
where they were captured (x86-64 Linux with AVX-512, numpy 2.4).  The
`trajectories.jsonl` digests of every case were re-pinned when the
posteriors took numpy's exp and log in place of libm's: posteriors moved by
at most 5.6e-17, and the trace files and summaries kept every byte.  The
files whose fidelities moved (`eject`, `mixture-candidates`, `no-trace`,
`noisy-defaults` and `uniform-random`) were re-pinned when the fidelity read
became one product per row: by at most 3.3e-16 in the logs, and in the last
printed digit of the trace CSVs' fidelity column.  The files that moved when a
noisy cycle became one composed operator, K = W U(tau), one block-diagonal
product per sector group, were re-pinned: every `trajectories.jsonl` but
`noiseless-trace-3`'s and `n-true-0`'s (by at most 3.3e-16), and the trace CSVs
of `eject` and of `uniform-random`'s second trajectory (the last printed digit
of fidelity; `comparisons/31_one_cycle_operator.txt`).
"""

import hashlib
import json

import pytest

from rydqnd import cli

# name -> simulate flags beyond the noisy defaults, --trajectories 2 and --outdir
CASES = {
    "noisy-defaults": [],
    "eject": ["--eject"],
    "uniform-random": ["--schedule", "uniform-random"],
    "no-trace": ["--trace-points", "0"],
    "noiseless-trace-3": ["--gamma-mhz", "0", "--trace-points", "3"],
    "mixture-candidates": ["--candidates-file", "{cands}"],
    "n-true-0": ["--n-true", "0"],
}
MIXTURES = {"candidates": [[0.0, 1.0], [0.0, 0.0, 0.6, 0.4], [0.0, 0.0, 0.0, 1.0]],
            "prior": [0.2, 0.5, 0.3]}

DIGESTS = {
    "eject": {
        "summary.json": "28d5a7fd1fe3c94b594b5f1cb20de41ffa9a10c7a74d316ab756bcc32e94f738",
        "trace_000.csv": "04f499759e69785cf86bc593fd707604a0cc4ab7f369e98bff57b0e1f357c0d2",
        "trace_001.csv": "a35e849c9bf5ca4891ae04e623e5a87fee1d5ffd7bc845f4c7dbf086ce79c056",
        "trajectories.jsonl": "130e5321e3aa33d2227483ecf266a3111613525add1f3c0a93ad6e00b5e24c81",
    },
    "mixture-candidates": {
        "summary.json": "40c7c73b9b67059101e8271187a24ab0719d8231d5ae17a8b97b7ba6ba0e16f5",
        "trace_000.csv": "4c9e27d5777043e1d8efe701c1921598c4ed6237858f1be79c1029f731aad19b",
        "trace_001.csv": "e44ef0a25fc4fa3948d0d11131d0b2178af1334d5a1667c4a6ecb2e40288b5c1",
        "trajectories.jsonl": "092cca696a255226517c0e3b38c2d5cf7d6a28aba08588db9d8473761c3ada18",
    },
    "n-true-0": {
        "summary.json": "076f518f711ed9eee6d8487b06226a46971a28df132c6e1f9b1049f4351338fd",
        "trace_000.csv": "661f307f7319e3bff7a1ee7a6c0ba270b20bbd000b77153cad63bbdf6580f93a",
        "trace_001.csv": "661f307f7319e3bff7a1ee7a6c0ba270b20bbd000b77153cad63bbdf6580f93a",
        "trajectories.jsonl": "4cb6ea538bc761f3952ac50c38c2d80a6cc4745f6734060252fc8628212aec70",
    },
    "no-trace": {
        "summary.json": "5ed438d042b4a9ab498ec0fc441a95b8f6343761661e2fa45006b2f0dfc308e9",
        "trajectories.jsonl": "c1f2bef8121a8e648b4fa38b9c75986b24028cd98e90e6786aadd57e0c770528",
    },
    "noiseless-trace-3": {
        "summary.json": "bb6e81a05dfc6c2d76865d666aa6a2acdef7708cd41b37186c0f1ef7ad9310d7",
        "trace_000.csv": "4aefd5f506d59e76589e44382a6b56285ab8926a99bb6b53eb8c63f45932991e",
        "trace_001.csv": "4aefd5f506d59e76589e44382a6b56285ab8926a99bb6b53eb8c63f45932991e",
        "trajectories.jsonl": "0558483c111304c4954cb57d22e2207fc02fdd30b24983e409eeb8d79b6c3429",
    },
    "noisy-defaults": {
        "summary.json": "64e215242532e33920d1211d62af15a48ebedb9b8b55f1dbdda260883271c933",
        "trace_000.csv": "af18759632baa36d7fd5a41db700daeb3bf34a507eddc98b7f408a88ad0498c0",
        "trace_001.csv": "56b32f089e0ce83f16f96ed61df6be1db1155c9d38eb1393ed41388bbcf2bec0",
        "trajectories.jsonl": "d0f1c2cd527840668480f56468fd4edb768f2b4ffc3d7bec7cd0163d8b7940c4",
    },
    "uniform-random": {
        "summary.json": "05fbd5294e6b3ec24022ea77ef23a89c8587ee6e0c7971852617d9324ee8772f",
        "trace_000.csv": "56a909e777736672de113c6507517bce2b2458c7ef8ce0d2f9cfad83ee3988e0",
        "trace_001.csv": "3819c3b170f21e0a6e7069bd5e9fb58d074a4186b5639a72681af2ae47d1846f",
        "trajectories.jsonl": "f31ca28b797f87587222a920ca6ce6d86def39547bfa26d5eaf70613415a7bb2",
    },
}


def _run(name, tmp_path) -> dict[str, str]:
    cands = tmp_path / "cands.json"
    cands.write_text(json.dumps(MIXTURES))
    outdir = tmp_path / "out"
    flags = [flag.format(cands=cands) for flag in CASES[name]]
    argv = ["simulate", "--trajectories", "2", *flags, "--outdir", str(outdir)]
    assert cli.main(argv) == cli.EXIT_OK
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(outdir.iterdir())}


@pytest.mark.parametrize("name", sorted(CASES))
def test_simulate_files_match_golden_digests(name, tmp_path):
    assert _run(name, tmp_path) == DIGESTS[name]

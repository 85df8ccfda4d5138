"""Golden `simulate` output files: the bytes of every file are pinned.

Each case runs `rydqnd simulate` in-process and compares the sha256 of
`trajectories.jsonl`, of every `trace_<i>.csv` and of `summary.json` with a
digest captured before the trace writer formatted its rows itself (through
`csv.DictWriter`).  Any change to a number's formatting, a column, a header
line or a row ending changes a digest.  Like the engine digests, these hold
where they were captured (x86-64 Linux, glibc libm, numpy 2.4).
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
        "trajectories.jsonl": "004a34a2331dbefa4d9de4c7de8a9615ebf6d2b8bd3e99d24795c2eaa9dc8be4",
    },
    "mixture-candidates": {
        "summary.json": "40c7c73b9b67059101e8271187a24ab0719d8231d5ae17a8b97b7ba6ba0e16f5",
        "trace_000.csv": "4c9e27d5777043e1d8efe701c1921598c4ed6237858f1be79c1029f731aad19b",
        "trace_001.csv": "e44ef0a25fc4fa3948d0d11131d0b2178af1334d5a1667c4a6ecb2e40288b5c1",
        "trajectories.jsonl": "ffa16bdcae5a96a4098785bcf026025ff8891a261f9b28ad249c20acb6c4fa5c",
    },
    "n-true-0": {
        "summary.json": "076f518f711ed9eee6d8487b06226a46971a28df132c6e1f9b1049f4351338fd",
        "trace_000.csv": "661f307f7319e3bff7a1ee7a6c0ba270b20bbd000b77153cad63bbdf6580f93a",
        "trace_001.csv": "661f307f7319e3bff7a1ee7a6c0ba270b20bbd000b77153cad63bbdf6580f93a",
        "trajectories.jsonl": "802652534ae1fdac5a01c9aa67ccea35975e8513804514b959e4fd5e625c45ca",
    },
    "no-trace": {
        "summary.json": "5ed438d042b4a9ab498ec0fc441a95b8f6343761661e2fa45006b2f0dfc308e9",
        "trajectories.jsonl": "202d7a3766e8ce68747e71291aa3417c17314b37331f4bc69d1ed6f8fdef82d7",
    },
    "noiseless-trace-3": {
        "summary.json": "bb6e81a05dfc6c2d76865d666aa6a2acdef7708cd41b37186c0f1ef7ad9310d7",
        "trace_000.csv": "4aefd5f506d59e76589e44382a6b56285ab8926a99bb6b53eb8c63f45932991e",
        "trace_001.csv": "4aefd5f506d59e76589e44382a6b56285ab8926a99bb6b53eb8c63f45932991e",
        "trajectories.jsonl": "c6b1aceb60304037d67a11dfedaf22a58b62a6a8bc07f700fbbcdbb35b1a3965",
    },
    "noisy-defaults": {
        "summary.json": "64e215242532e33920d1211d62af15a48ebedb9b8b55f1dbdda260883271c933",
        "trace_000.csv": "af18759632baa36d7fd5a41db700daeb3bf34a507eddc98b7f408a88ad0498c0",
        "trace_001.csv": "56b32f089e0ce83f16f96ed61df6be1db1155c9d38eb1393ed41388bbcf2bec0",
        "trajectories.jsonl": "bc0df9eda047ad9847e4c842cd1a201e58c77865fa316527474bd70892f8c0c7",
    },
    "uniform-random": {
        "summary.json": "05fbd5294e6b3ec24022ea77ef23a89c8587ee6e0c7971852617d9324ee8772f",
        "trace_000.csv": "56a909e777736672de113c6507517bce2b2458c7ef8ce0d2f9cfad83ee3988e0",
        "trace_001.csv": "3819c3b170f21e0a6e7069bd5e9fb58d074a4186b5639a72681af2ae47d1846f",
        "trajectories.jsonl": "6b7143aef063586c8287fa01f95258677917550fd1d8971211ea1334aab116f6",
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

"""Field-by-field comparison of the noiseless trajectory logs of two revisions.

    python scripts/compare_logs.py --parent REV --change REV [--random-batches B]

Exports ``src/rydqnd`` of both revisions with ``git archive`` (as
`ab_inprocess.export` does) and runs, for each side in a subprocess of its
own, the noiseless cases of ``tests/test_engine_golden.py`` and B seeded
random batches of four trajectories: n_max 1..10, Fock, Born and complex
amplitude initial states (with and without vacuum weight), fixed,
uniform-random and adaptive-greedy schedules, ejection on and off, 0, 2 or 3
trace points.  Both sides run the cases of this checkout.  It prints, per
golden case and for the random logs together, whether the ``to_json`` bytes
agree, whether every field but the trace populations (``p_no_rydberg``,
``p_rydberg``) is identical, and the largest difference in those populations.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
POPULATIONS = ("p_no_rydberg", "p_rydberg")

# one side's logs: sys.argv[1] holds the package as rydqnd, sys.argv[2] is the output file
_PROBE = """
import sys
sys.path[:0] = [sys.argv[1], {tests!r}, {scripts!r}]
import compare_logs
compare_logs.dump(sys.argv[2], int(sys.argv[3]))
"""


def _random_case(rng, eng, FockDistribution):
    """(initial state, params, batch size) of one random noiseless batch."""
    n_max = int(rng.integers(1, 11))
    amps = rng.normal(size=n_max + 1) + 1j * rng.normal(size=n_max + 1)
    amps[0] *= rng.random() < 0.5  # vacuum weight in half the cases
    amps[1:] *= rng.random(n_max) < 0.8  # some photon numbers absent
    amps[n_max] = amps[n_max] or 1.0
    amps /= np.linalg.norm(amps)
    kind = int(rng.integers(3))
    if kind == 0:
        initial = int(rng.integers(0, n_max + 1))
    elif kind == 1:
        p = np.abs(amps) ** 2
        initial = FockDistribution(p / p.sum())
    else:
        initial = amps
    lo, hi = sorted(rng.uniform(0.05, 2.0, size=2))
    schedule, cycles = [(eng.Schedule.fixed(float(hi)), 30),
                        (eng.Schedule.uniform_random(float(lo), float(hi)), 30),
                        (eng.Schedule.adaptive_greedy(int(rng.integers(8, 40))), 8)][
        int(rng.integers(3))]
    params = eng.ProtocolParams(
        omega=1.0, N=n_max + int(rng.integers(0, 3)), n_max=n_max, mode=eng.NOISELESS_PURE,
        schedule=schedule, seed=int(rng.integers(1 << 30)), max_cycles=cycles,
        ejection_enabled=bool(rng.random() < 0.5), trace_points=int(rng.choice([0, 2, 3])))
    return initial, params, 4


def dump(out: str, batches: int) -> None:
    """Write {case: [log JSON, ...]} of the golden and random noiseless cases to out."""
    import test_engine_golden as golden
    from rydqnd import engine as eng
    from rydqnd.records import FockDistribution

    cases = {name: case for name, case in golden.CASES.items()
             if case[1].mode == eng.NOISELESS_PURE}
    for k in range(batches):
        cases[f"sweep-{k}"] = _random_case(np.random.default_rng(k), eng, FockDistribution)
    docs = {name: [log.to_json() for log in eng.run_batch(*case)] for name, case in cases.items()}
    Path(out).write_text(json.dumps(docs))


def _difference(parent: str, change: str) -> tuple[bool, float]:
    """Whether two log JSONs agree in every field but the trace populations,
    and the largest difference in those."""
    a, b = json.loads(parent), json.loads(change)
    rows_a, rows_b = a.pop("trace"), b.pop("trace")
    same, delta = a == b and len(rows_a) == len(rows_b), 0.0
    for ra, rb in zip(rows_a, rows_b):
        for key in POPULATIONS:
            delta = max(delta, abs(ra.pop(key) - rb.pop(key)))
        same = same and ra == rb
    return same, delta


def compare(parent: dict, change: dict) -> list[str]:
    """One report line per golden case, and one for the random logs together."""
    lines, random = [], []
    for name in parent:
        pairs = list(zip(parent[name], change[name]))
        diffs = [_difference(p, c) for p, c in pairs]
        counts = [len(pairs), sum(p == c for p, c in pairs), sum(same for same, _ in diffs),
                  max((d for _, d in diffs), default=0.0)]
        if name.startswith("sweep-"):
            random.append(counts)
        else:
            lines.append(_line(name, *counts))
    logs, same_bytes, same_fields, delta = zip(*random) if random else ([0], [0], [0], [0.0])
    lines.append(_line("random sweep", sum(logs), sum(same_bytes), sum(same_fields), max(delta)))
    return lines


def _line(name: str, logs: int, same_bytes: int, same_fields: int, delta: float) -> str:
    return (f"{name}: {logs} logs, {same_bytes} byte-identical, {same_fields} identical but "
            f"for the trace populations, max |dp| {delta:.3g}")


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(ROOT / "scripts"))
    from ab_inprocess import export

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the base side")
    parser.add_argument("--change", required=True, help="git revision of the changed side")
    parser.add_argument("--random-batches", type=int, default=300,
                        help="random batches of four trajectories")
    args = parser.parse_args(argv)
    probe = _PROBE.format(tests=str(ROOT / "tests"), scripts=str(ROOT / "scripts"))
    docs = {}
    with tempfile.TemporaryDirectory(prefix="compare_logs_") as tmp:
        for side in ("parent", "change"):
            export(getattr(args, side), Path(tmp), side)
            src, out = Path(tmp) / side / "src", Path(tmp) / f"{side}.json"
            (Path(tmp) / f"rydqnd_{side}").rename(src / "rydqnd")
            subprocess.run([sys.executable, "-c", probe, str(src), str(out),
                            str(args.random_batches)], check=True)
            docs[side] = json.loads(out.read_text())
    print(f"parent {args.parent}, change {args.change}")
    print("\n".join(compare(docs["parent"], docs["change"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Collect paired `benchmark/run.py` results into a ``BENCH_<label>.json`` file.

    python scripts/bench_json.py --label L --claim TEXT --parent REV --change REV \\
        [--held-out-seed S] [--note TEXT]... [--extra FILE.json] RESULT...

Each RESULT file holds the standard output of one ``benchmark/run.py`` run
(``--trace 0``) and is named ``<workload>__<seed>__<side>.out``, with side
``parent`` or ``change``.  The two runs of one (workload, seed) form a pair;
the one whose file was last written first counts as the one that ran first.
For every gated end-to-end metric of ``BENCHMARK.json`` the summary gives
each side's inclusive-method quartiles and median, the ratio of the medians
and the number of pairs the change wins strictly, in the metric's better
direction.  Keys of ``--extra`` files are copied to the top level as they are.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def read_result(path: Path) -> dict:
    """The run's gated metrics and report figures, from its last two lines."""
    lines = path.read_text().strip().splitlines()
    if len(lines) < 2 or not lines[-2].startswith("report "):
        raise SystemExit(f"{path}: not the output of one benchmark/run.py run")
    result, report = json.loads(lines[-1]), json.loads(lines[-2][len("report "):])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "raw": report.get("raw"),
        "speed_scale": report.get("speed_scale"),
        "environment": report.get("environment"),
        "written": path.stat().st_mtime,
    }


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q2, q3]


def summarise(runs: list[dict], better: dict[str, str]) -> dict:
    out = {}
    for name, direction in better.items():
        sides = {side: [run[side]["metrics"][name] for run in runs] for side in SIDES}
        sign = 1 if direction == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(sides["parent"], sides["change"]))
        parent, change = quartiles(sides["parent"]), quartiles(sides["change"])
        out[name] = {"parent_q1_median_q3": parent, "change_q1_median_q3": change,
                     "ratio_of_medians": change[1] / parent[1] if parent[1] else None,
                     "change_wins": wins, "pairs": len(runs)}
    return out


def collect(paths: list[Path], better: dict[str, str]) -> list[dict]:
    pairs: dict[tuple[str, int], dict] = {}
    for path in paths:
        try:
            workload, seed, side = path.name.removesuffix(".out").split("__")
            seed = int(seed)
        except ValueError:
            raise SystemExit(f"{path}: expected <workload>__<seed>__<side>.out") from None
        if side not in SIDES:
            raise SystemExit(f"{path}: side must be one of {SIDES}")
        pairs.setdefault((workload, seed), {})[side] = read_result(path)
    workloads: dict[str, list[dict]] = {}
    for (workload, seed), pair in sorted(pairs.items()):
        if set(pair) != set(SIDES):
            raise SystemExit(f"{workload} seed {seed}: needs one parent and one change run")
        first = min(SIDES, key=lambda side: pair[side]["written"])
        run = {"seed": seed}
        for side in SIDES:
            doc = pair[side]
            run[side] = {key: doc[key] for key in
                         ("correct", "attempted", "failed", "metrics", "raw", "speed_scale")}
            run[side]["first"] = side == first
        workloads.setdefault(workload, []).append(run)
    return [{"workload": workload, "seeds": [run["seed"] for run in runs], "runs": runs,
             "summary": summarise(runs, better), "traced": False}
            for workload, runs in workloads.items()]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", nargs="+", type=Path)
    parser.add_argument("--label", required=True)
    parser.add_argument("--claim", required=True)
    parser.add_argument("--parent", required=True, help="revision of the parent commit")
    parser.add_argument("--change", required=True, help="revision of the change")
    parser.add_argument("--held-out-seed", type=int)
    parser.add_argument("--note", action="append", default=[])
    parser.add_argument("--extra", action="append", default=[], type=Path)
    parser.add_argument("--out", type=Path, help="default: BENCH_<label>.json at the root")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    workloads = collect(args.results, better)
    environment = {}  # as the first run of each side reported it
    for path in args.results:
        side = path.name.removesuffix(".out").rsplit("__", 1)[-1]
        environment.setdefault(side, read_result(path)["environment"])
    doc = {
        "label": args.label,
        "claim": args.claim,
        "git_revisions": {"parent": args.parent, "change": args.change},
        "command": ("python3 benchmark/run.py --workload W --seed S --seconds "
                    f"{spec['run_seconds']} --trace 0, run from a clean export of each revision"),
        "environment": environment,
        "order": "the side that ran first in each pair is marked 'first'",
        "metrics_note": ("gated timings are scaled to the benchmark's reference machine speed "
                         "by its calibration kernel (raw values and speed_scale kept per run); "
                         "quartiles are inclusive-method quartiles of the per-run values; "
                         "change_wins counts pairs where the change is strictly better"),
        "held_out_seed": args.held_out_seed,
        "notes": args.note,
    }
    for extra in args.extra:
        doc.update(json.loads(extra.read_text()))
    doc["workloads"] = workloads
    out = args.out or ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}: " + ", ".join(f"{w['workload']} ({len(w['runs'])} pairs)"
                                       for w in workloads))
    return 0


if __name__ == "__main__":
    sys.exit(main())

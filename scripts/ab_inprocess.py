"""In-process A/B timing of two revisions of ``rydqnd``.

    python scripts/ab_inprocess.py --parent REV --change REV [--ops N] [--rows R]
        [--rss-rows R] [--rss-cycles C]

Exports ``src/rydqnd`` of both revisions with ``git archive`` into a temporary
directory, as the packages ``rydqnd_parent`` and ``rydqnd_change`` (the package
imports itself only relatively), and imports both into this interpreter.  Each
named workload then runs its ops alternately on the two sides, the side that
goes first alternating from op to op, so machine drift hits both alike:

* ``simulate``: ``rydqnd simulate`` at its defaults with ``--trajectories 2``,
  n_true 1..4 in turn, written to a scratch directory;
* ``traced_batch`` and ``untraced_batch``: ``engine.run_batch`` of R rows at the
  simulate defaults (n_true 2), with 8 trace points and with none;
* ``noiseless_batch``, ``noiseless_random_batch`` and ``noiseless_greedy_batch``:
  ``engine.run_batch`` of R noiseless rows of the Born superposition
  (0, 0.5, 0.3, 0.2) at omega 1, candidates 1..3, with the fixed tau 1.596,
  uniform-random tau in [0.1, 1.2] and adaptive-greedy (800-point grid)
  schedules the benchmark's ``noiseless_distill`` runs in turn.

For each workload it prints the change's summed time over the parent's and the
median of the per-op ratios.  For each side it then runs one traced batch of
``--rss-rows`` rows (n_true 3, ``--rss-cycles`` cycles at most) in a subprocess
of its own and prints the growth of its peak RSS over the process's peak just
before the batch.  Run it also with one revision as both sides: the spread of
that A/A run is the noise a ratio must clear.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")

# one traced batch in a fresh process: peak RSS growth in MB on stdout
_RSS_PROBE = """
import resource, sys
sys.path.insert(0, sys.argv[1])
import importlib
pkg = sys.argv[2]
cli = importlib.import_module(pkg + ".cli")
engine = importlib.import_module(pkg + ".engine")
rows, cycles = int(sys.argv[3]), int(sys.argv[4])
params = cli._build_params(cli.build_parser().parse_args(
    ["simulate", "--n-true", "3", "--max-cycles", str(cycles)]))
engine.run_batch(3, params, 1)  # caches and lazy imports, before the baseline
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
engine.run_batch(3, params, rows)
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print((after - before) / 1024)
"""


def export(rev: str, dest: Path, name: str) -> None:
    """src/rydqnd of rev as the package dest/rydqnd_<name>."""
    blob = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src/rydqnd"],
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest / name, filter="data")
    (dest / name / "src" / "rydqnd").rename(dest / f"rydqnd_{name}")


def workloads(mods: dict, scratch: Path, rows: int) -> dict:
    """name -> {side: op(i)}, each op one unit of timed work."""
    out = {"simulate": {}, "traced_batch": {}, "untraced_batch": {}, "noiseless_batch": {},
           "noiseless_random_batch": {}, "noiseless_greedy_batch": {}}
    for side, (cli, engine) in mods.items():
        records = importlib.import_module(f"rydqnd_{side}.records")
        outdir = scratch / f"out_{side}"

        def simulate(i, cli=cli, outdir=outdir):
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["simulate", "--n-true", str(1 + i % 4), "--trajectories", "2",
                                 "--seed", str(i), "--outdir", str(outdir)])
            if code != 0:
                raise SystemExit(f"simulate exited {code}")

        def batch(points, cli=cli, engine=engine):
            params = cli._build_params(cli.build_parser().parse_args(
                ["simulate", "--n-true", "2", "--trace-points", str(points)]))

            def op(i):
                params.seed = i
                engine.run_batch(2, params, rows)
            return op

        def noiseless(schedule, engine=engine, records=records):
            born = records.FockDistribution([0.0, 0.5, 0.3, 0.2])
            params = engine.ProtocolParams(
                omega=1.0, N=6, n_max=3, mode=engine.NOISELESS_PURE,
                schedule=schedule, max_cycles=500,
                candidates=[records.FockDistribution.delta(n, 3) for n in (1, 2, 3)],
                prior=records.Posterior.uniform(3))

            def op(i):
                params.seed = i
                engine.run_batch(born, params, rows)
            return op

        out["simulate"][side] = simulate
        out["traced_batch"][side] = batch(8)
        out["untraced_batch"][side] = batch(0)
        out["noiseless_batch"][side] = noiseless(engine.Schedule.fixed(1.596))
        out["noiseless_random_batch"][side] = noiseless(engine.Schedule.uniform_random(0.1, 1.2))
        out["noiseless_greedy_batch"][side] = noiseless(engine.Schedule.adaptive_greedy())
    return out


def timed(op, i: int) -> float:
    start = time.perf_counter()
    op(i)
    return time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the base side")
    parser.add_argument("--change", required=True, help="git revision of the changed side")
    parser.add_argument("--ops", type=int, default=40, help="timed ops per workload and side")
    parser.add_argument("--rows", type=int, default=200, help="rows of a run_batch op")
    parser.add_argument("--rss-rows", type=int, default=400, help="rows of the RSS batch")
    parser.add_argument("--rss-cycles", type=int, default=60, help="its cycles at most")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="ab_inprocess_") as tmp:
        tmp = Path(tmp)
        for side in SIDES:
            export(getattr(args, side), tmp, side)
        sys.path.insert(0, str(tmp))
        mods = {side: (importlib.import_module(f"rydqnd_{side}.cli"),
                       importlib.import_module(f"rydqnd_{side}.engine")) for side in SIDES}
        print(f"parent {args.parent}, change {args.change}: {args.ops} ops per workload and side")
        for name, ops in workloads(mods, tmp, args.rows).items():
            for side in SIDES:  # warm caches and lazy imports
                ops[side](args.ops)
            times = {side: [] for side in SIDES}
            for i in range(args.ops):
                for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                    times[side].append(timed(ops[side], i))
            total = {side: sum(times[side]) for side in SIDES}
            ratios = [c / p for p, c in zip(times["parent"], times["change"])]
            print(f"{name}: parent {1e3 * total['parent'] / args.ops:.2f} ms/op, "
                  f"change {1e3 * total['change'] / args.ops:.2f} ms/op; summed time ratio "
                  f"{total['change'] / total['parent']:.3f}, median op ratio "
                  f"{statistics.median(ratios):.3f}")
        for side in SIDES:
            probe = subprocess.run(
                [sys.executable, "-c", _RSS_PROBE, str(tmp), f"rydqnd_{side}",
                 str(args.rss_rows), str(args.rss_cycles)],
                check=True, capture_output=True, text=True)
            print(f"rss {side}: {float(probe.stdout):.1f} MB peak growth over a traced "
                  f"{args.rss_rows}-row batch")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""In-process A/B timing of two revisions of ``rydqnd``.

    python scripts/ab_inprocess.py --parent REV --change REV [--ops N] [--rows R]
        [--rss-rows R] [--rss-cycles C] [--sim-trajectories T] [--workloads NAME[,NAME]]

Exports ``src/rydqnd`` of both revisions with ``git archive`` into a temporary
directory, as the packages ``rydqnd_parent`` and ``rydqnd_change`` (the package
imports itself only relatively), and imports both into this interpreter.  Each
workload named by ``--workloads`` (default all) then runs its ops alternately on
the two sides, the side that goes first alternating from op to op, so machine
drift hits both alike, each op after an untimed full garbage collection, so the
cyclic collector's work is billed to no op of a later workload:

* ``simulate``: ``rydqnd simulate`` at its defaults with ``--trajectories 2``,
  n_true 1..4 in turn, written to a scratch directory;
* ``infer``: ``rydqnd infer`` (candidates 1..4) on a noisy record of 300 cycles
  (at the simulate defaults' rates, N 10) and a noiseless one of 1,000 cycles in
  turn, drive times uniform in [0.05, 0.4] us and outcomes drawn at random; both
  sides read the same two files, written once per run with ``json``;
* ``fixed_infer``: ``rydqnd infer`` as above on a noisy record of 3,000 cycles
  that all drive for the fixed 0.21 us of the simulate defaults, where every
  entry of a likelihood update shares one drive time;
* ``traced_batch`` and ``untraced_batch``: ``engine.run_batch`` of R rows at the
  simulate defaults (n_true 2), with 8 trace points and with none;
* ``eject_batch``: ``engine.run_batch`` of R rows at the simulate defaults with
  ``--eject``, n_true 3 and no trace points, whose rows spread over several
  ejection counts;
* ``noiseless_batch``, ``noiseless_random_batch`` and ``noiseless_greedy_batch``:
  ``engine.run_batch`` of R noiseless rows of the Born superposition
  (0, 0.5, 0.3, 0.2) at omega 1, candidates 1..3, with the fixed tau 1.596,
  uniform-random tau in [0.1, 1.2] and adaptive-greedy (800-point grid)
  schedules the benchmark's ``noiseless_distill`` runs in turn;
* ``oracle``: ``rydqnd oracle-check --time-points 3``, the op of the benchmark's
  ``oracle_check``.

For each workload it prints the change's summed time over the parent's and the median of
the per-op ratios, and then, if all three noiseless workloads ran, the summed time ratio
of the three together: the mix that the benchmark's ``noiseless_distill`` items_per_s
weighs, one op of each schedule in turn.  For each side it then runs one traced batch of
``--rss-rows`` rows (n_true 3, ``--rss-cycles`` cycles at most) in a subprocess of its
own and prints the growth of its peak RSS over the process's peak just before the batch.
That batch never reaches the writer, so for each side it also runs one whole traced
``rydqnd simulate --trajectories T`` at the defaults in a fresh process, and prints its
wall time and peak RSS (``ru_maxrss``) and whether the two sides wrote the same files,
byte for byte.  Run it also with one revision as both sides: the spread of that A/A run
is the noise a ratio must clear.
"""

from __future__ import annotations

import argparse
import contextlib
import filecmp
import gc
import importlib
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from functools import partial
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
NOISELESS = ("noiseless_batch", "noiseless_random_batch", "noiseless_greedy_batch")
WORKLOADS = ("simulate", "infer", "fixed_infer", "traced_batch", "untraced_batch", "eject_batch",
             *NOISELESS, "oracle")

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

# one whole traced simulate at the defaults in a fresh process: wall time in s and peak RSS
# in MB on stdout
_SIMULATE_PROBE = """
import contextlib, resource, sys, time
sys.path.insert(0, sys.argv[1])
import importlib
cli = importlib.import_module(sys.argv[2] + ".cli")
start = time.perf_counter()
with contextlib.redirect_stdout(sys.stderr):
    code = cli.main(["simulate", "--trajectories", sys.argv[3], "--outdir", sys.argv[4]])
wall = time.perf_counter() - start
if code != 0:
    raise SystemExit(f"simulate exited {code}")
print(wall, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""


def export(rev: str, dest: Path, name: str) -> None:
    """src/rydqnd of rev as the package dest/rydqnd_<name>."""
    blob = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src/rydqnd"],
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest / name, filter="data")
    (dest / name / "src" / "rydqnd").rename(dest / f"rydqnd_{name}")


def record_files(scratch: Path) -> list[tuple[Path, list[str]]]:
    """The infer workloads' record files, each with the flags of its noise model: the
    infer workload's two, then fixed_infer's."""
    rng = np.random.default_rng(20)
    files, noisy = [], ["--gamma-mhz", "0.3", "--tau-eit-us", "0.3"]
    for name, cycles, flags in (("noisy", 300, noisy), ("noiseless", 1000, ["--gamma-mhz", "0"]),
                                ("fixed", 3000, noisy)):
        taus = np.full(cycles, 0.21e-6) if name == "fixed" else rng.uniform(0.05e-6, 0.4e-6, cycles)
        rydberg = rng.random(cycles) < 0.4
        entries = [{"tau_s": t, "outcome": "Rydberg" if r else "NoRydberg"}
                   for t, r in zip(taus.tolist(), rydberg.tolist())]
        path = scratch / f"{name}_record.json"
        path.write_text(json.dumps({"entries": entries}))
        files.append((path, flags))
    return files


def workloads(mods: dict, scratch: Path, rows: int) -> dict:
    """name -> {side: op(i)}, each op one unit of timed work."""
    out = {name: {} for name in WORKLOADS}
    *records, fixed = record_files(scratch)
    for side, (cli, engine) in mods.items():
        recs = importlib.import_module(f"rydqnd_{side}.records")
        outdir = scratch / f"out_{side}"

        def simulate(i, cli=cli, outdir=outdir):
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["simulate", "--n-true", str(1 + i % 4), "--trajectories", "2",
                                 "--seed", str(i), "--outdir", str(outdir)])
            if code != 0:
                raise SystemExit(f"simulate exited {code}")

        def infer(i, cli=cli, outdir=outdir, files=records):
            path, flags = files[i % len(files)]
            code = cli.main(["infer", str(path), *flags, "--candidates", "1..4",
                             "--out", str(outdir / "posterior.json")])
            if code != 0:
                raise SystemExit(f"infer exited {code}")

        def oracle(i, cli=cli, outdir=outdir):
            code = cli.main(["oracle-check", "--time-points", "3",
                             "--out", str(outdir / "oracle.json")])
            if code != 0:
                raise SystemExit(f"oracle-check exited {code}")

        def batch(n_true, *flags, cli=cli, engine=engine):
            params = cli._build_params(cli.build_parser().parse_args(
                ["simulate", "--n-true", str(n_true), *flags]))

            def op(i):
                params.seed = i
                engine.run_batch(n_true, params, rows)
            return op

        def noiseless(schedule, engine=engine, records=recs):
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
        out["infer"][side] = infer
        out["fixed_infer"][side] = partial(infer, files=[fixed])
        out["traced_batch"][side] = batch(2, "--trace-points", "8")
        out["untraced_batch"][side] = batch(2, "--trace-points", "0")
        out["eject_batch"][side] = batch(3, "--eject", "--trace-points", "0")
        out["noiseless_batch"][side] = noiseless(engine.Schedule.fixed(1.596))
        out["noiseless_random_batch"][side] = noiseless(engine.Schedule.uniform_random(0.1, 1.2))
        out["noiseless_greedy_batch"][side] = noiseless(engine.Schedule.adaptive_greedy())
        out["oracle"][side] = oracle
    return out


def timed(op, i: int) -> float:
    gc.collect()  # untimed, so no op pays for a full collection its predecessors built up
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
    parser.add_argument("--sim-trajectories", type=int, default=2000,
                        help="trajectories of the fresh-process simulate")
    parser.add_argument("--workloads", help="comma-separated workloads to time (default all)")
    args = parser.parse_args(argv)
    names = WORKLOADS if args.workloads is None else args.workloads.split(",")
    if unknown := sorted(set(names) - set(WORKLOADS)):
        parser.error(f"unknown workloads {', '.join(unknown)}; choose from {', '.join(WORKLOADS)}")

    with tempfile.TemporaryDirectory(prefix="ab_inprocess_") as tmp:
        tmp = Path(tmp)
        for side in SIDES:
            export(getattr(args, side), tmp, side)
        sys.path.insert(0, str(tmp))
        mods = {side: (importlib.import_module(f"rydqnd_{side}.cli"),
                       importlib.import_module(f"rydqnd_{side}.engine")) for side in SIDES}
        print(f"parent {args.parent}, change {args.change}: {args.ops} ops per workload and side")
        totals = {}
        for name, ops in workloads(mods, tmp, args.rows).items():
            if name not in names:
                continue
            for side in SIDES:  # warm caches and lazy imports
                ops[side](args.ops)
            times = {side: [] for side in SIDES}
            for i in range(args.ops):
                for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                    times[side].append(timed(ops[side], i))
            totals[name] = total = {side: sum(times[side]) for side in SIDES}
            ratios = [c / p for p, c in zip(times["parent"], times["change"])]
            print(f"{name}: parent {1e3 * total['parent'] / args.ops:.2f} ms/op, "
                  f"change {1e3 * total['change'] / args.ops:.2f} ms/op; summed time ratio "
                  f"{total['change'] / total['parent']:.3f}, median op ratio "
                  f"{statistics.median(ratios):.3f}")
        if set(NOISELESS) <= set(totals):
            mix = {side: sum(totals[name][side] for name in NOISELESS) for side in SIDES}
            print(f"noiseless mix ({' + '.join(NOISELESS)}): summed time ratio "
                  f"{mix['change'] / mix['parent']:.3f}")
        for side in SIDES:
            probe = subprocess.run(
                [sys.executable, "-c", _RSS_PROBE, str(tmp), f"rydqnd_{side}",
                 str(args.rss_rows), str(args.rss_cycles)],
                check=True, capture_output=True, text=True)
            print(f"rss {side}: {float(probe.stdout):.1f} MB peak growth over a traced "
                  f"{args.rss_rows}-row batch")
        for side in SIDES:
            probe = subprocess.run(
                [sys.executable, "-c", _SIMULATE_PROBE, str(tmp), f"rydqnd_{side}",
                 str(args.sim_trajectories), str(tmp / f"simulate_{side}")],
                check=True, capture_output=True, text=True)
            wall, rss = map(float, probe.stdout.split())
            print(f"simulate {side}: {wall:.2f} s, {rss:.1f} MB peak RSS over a traced "
                  f"{args.sim_trajectories}-trajectory simulate in a fresh process")
        files = sorted(path.name for path in (tmp / "simulate_parent").iterdir())
        _, differ, unread = filecmp.cmpfiles(tmp / "simulate_parent", tmp / "simulate_change",
                                             files, shallow=False)
        same = files == sorted(path.name for path in (tmp / "simulate_change").iterdir()) \
            and not differ and not unread
        print(f"simulate files: {len(files)} written, {'identical' if same else 'DIFFERENT'} "
              f"on the two sides")
    return 0


if __name__ == "__main__":
    sys.exit(main())

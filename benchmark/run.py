"""rydqnd benchmark: one seeded closed-loop workload per run.

    python3 benchmark/run.py --workload W --seed S --seconds T --trace 0|1

Run it from the root of a source checkout.  It builds nothing: the worker
processes import ``rydqnd`` from ``src/``.  Workloads:

* ``noisy_simulate``    -- ``rydqnd simulate`` at the CLI's noisy defaults
* ``noiseless_distill`` -- ``engine.run_batch`` distillation, three schedules
* ``infer_records``     -- ``rydqnd infer`` on generated record files
* ``oracle_check``      -- ``rydqnd oracle-check`` at three time points

Every child process is single-threaded (BLAS and OpenMP pinned to one
thread here) and runs alone; each is waited for.  With ``--trace 0`` one
worker runs the ops of about T seconds and four more measure set-up only:
the run is a fixed number of whole rounds, round(T / ROUND_S), so two runs
with the same seed issue the same ops and fail the same ones.  The last
stdout line is the JSON result with the end-to-end metrics.  With
``--trace 1`` a fixed number of rounds runs twice in fresh processes,
untraced and then traced, and the result carries the per-layer metrics and
the tracing overhead.  The line before the result is a report with the
remaining figures, the input properties and the environment.

Gated timings are scaled to a reference machine speed: this machine's speed
drifts by 10-40% over seconds to minutes, so each worker times a fixed
calibration kernel after set-up and after every op, and a time t counts
as t * CALIBRATION_REF_S / (mean kernel time).  The raw timings and the
factor are in the report.

An op counts as failed when the program raises, exits non-zero or its output
fails the check; ``correct`` is false only when an output fails its check.
Exits non-zero, printing no result, when the program or a worker cannot run.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import tomllib
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("noisy_simulate", "noiseless_distill", "infer_records", "oracle_check")
TRACE_ROUNDS = {"noisy_simulate": 2, "noiseless_distill": 2, "infer_records": 3,
                "oracle_check": 1}
ITEM = {"noisy_simulate": "trajectories", "noiseless_distill": "trajectories",
        "infer_records": "records", "oracle_check": "cells"}
# Seconds one round's ops take on the machine the benchmark was defined on.
# A timed run issues round(--seconds / ROUND_S) rounds, at least one, so at
# 20 s its ops take about 20 s there.
ROUND_S = {"noisy_simulate": 2.8, "noiseless_distill": 1.6, "infer_records": 3.0,
           "oracle_check": 4.0}
SETUP_RUNS = 5  # the timed worker's own set-up plus four set-up-only workers
DEADLINE_S = 170.0
# The worker's calibration kernel takes this long on the machine the benchmark
# was defined on (2-vCPU x86-64 VM, Python 3.11, numpy 2.4, scipy 1.17).
# Gated timings are scaled to that speed; the report keeps the raw ones.
CALIBRATION_REF_S = 0.0265
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    pass


class Runner:
    """Starts worker processes one at a time and waits for each."""

    def __init__(self, args, workdir: Path):
        self.args = args
        self.workdir = workdir
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, PYTHONHASHSEED="0",
                        **{var: "1" for var in THREAD_VARS})
        self.count = 0

    def worker(self, mode: str, *extra: str) -> dict | None:
        self.count += 1
        out = self.workdir / f"worker{self.count}.json"
        log = self.workdir / f"worker{self.count}.log"
        cmd = [sys.executable, str(HERE / "worker.py"), mode,
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--workdir", str(self.workdir), "--out", str(out), *extra]
        if self.args.tiny:
            cmd.append("--tiny")
        with open(log, "wb") as fh:
            proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT, env=self.env,
                                    cwd=ROOT)
            try:
                rc = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                raise BenchError(f"worker {mode} ran past the deadline")
            finally:  # also on interrupt: never leave a worker running
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if rc != 0:
            tail = log.read_text(errors="replace")[-2000:]
            raise BenchError(f"worker {mode} exited {rc}:\n{tail}")
        return json.loads(out.read_text()) if mode == "run" else None


def speed_scale(calibration: list[float]) -> float:
    """Factor taking times measured alongside `calibration` to the reference speed."""
    return CALIBRATION_REF_S / statistics.mean(calibration)


def end_to_end(doc: dict, setup_docs: list[dict]) -> tuple[dict, dict]:
    """(gated metrics, report-only figures) of one timed worker run.

    `setup_docs` are the outputs of every worker whose set-up counts,
    the timed one included.
    """
    ops = doc["ops"]
    good = [o for o in ops if o["ok"]]
    scale = speed_scale(doc["setup_calibration_s"] + doc["calibration_s"])
    wall = sum(o["latency_s"] for o in ops)
    items = sum(o["items"] for o in good)
    cycles = sum(o["cycles"] for o in good)
    latency_ms = 1e3 * statistics.median([o["latency_s"] for o in good]
                                         or [o["latency_s"] for o in ops])
    setup = [d["setup_s"] for d in setup_docs]
    setup_ref = [d["setup_s"] * speed_scale(d["setup_calibration_s"]) for d in setup_docs]
    metrics = {
        "items_per_s": (items / (wall * scale), "1/s"),
        "cycles_per_s": (cycles / (wall * scale), "1/s"),
        "op_p50_ms": (latency_ms * scale, "ms"),
        "ok_frac": (len(good) / len(ops), "ratio"),
        "setup_s": (statistics.median(setup_ref), "s"),
        "peak_rss_mb": (doc["peak_rss_mb"], "MB"),
    }
    decided = sum(o["decided"] for o in good)
    latencies = sorted(o["latency_s"] for o in good)
    report = {
        "speed_scale": scale,
        "raw": {"items_per_s": items / wall, "cycles_per_s": cycles / wall,
                "op_p50_ms": latency_ms, "setup_s": statistics.median(setup),
                "op_p90_ms": (1e3 * statistics.quantiles(latencies, n=10)[-1]
                              if len(latencies) >= 100 else None)},
        f"{ITEM[doc['workload']]}_per_s": items / (wall * scale),
        "failed_frac": 1 - len(good) / len(ops),
        "correct_frac": sum(o["hits"] for o in good) / decided if decided else None,
        "cycles_per_item": cycles / items if items else None,
        "ops_ok": len(good),
        "ops_attempted": len(ops),
        "timed_s": wall,
        "setup_samples_s": setup,
        "failures": dict(Counter(o["reason"] for o in ops if not o["ok"])),
        "input_properties": doc["input_properties"],
    }
    return metrics, report


def environment(version: str) -> dict:
    pyproject = ROOT / "pyproject.toml"
    git_rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        git_rev = proc.stdout.strip() if proc.returncode == 0 else None
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "git_revision": git_rev,
        "rydqnd_version": version,
        "pyproject_version": (tomllib.loads(pyproject.read_text())["project"]["version"]
                              if pyproject.exists() else None),
    }


def run(args, workdir: Path) -> tuple[dict, dict, dict]:
    """(last worker's output, report, metrics) for one benchmark run."""
    runner = Runner(args, workdir)
    if args.tiny:
        rounds = "1"
    elif args.trace:
        rounds = str(TRACE_ROUNDS[args.workload])
    else:
        rounds = str(max(1, round(args.seconds / ROUND_S[args.workload])))
    if args.workload == "infer_records":
        runner.worker("gen", "--rounds", rounds)

    if not args.trace:
        doc = runner.worker("run", "--rounds", rounds)
        setup_docs = [doc] + [runner.worker("run", "--rounds", "0")
                              for _ in range(SETUP_RUNS - 1)]
        doc["workload"] = args.workload
        metrics, report = end_to_end(doc, setup_docs)
        return doc, report, metrics

    from tracing import OVERHEAD, layer_metrics, per_layer_names
    plain = runner.worker("run", "--rounds", rounds)
    doc = runner.worker("run", "--rounds", rounds, "--trace")
    if len(plain["ops"]) != len(doc["ops"]):
        raise BenchError("traced and untraced runs issued different ops")
    spans = workdir / f"worker{runner.count}.spans.npz"
    values = layer_metrics(spans, len(doc["ops"]))
    # Raw times: the few calibration runs of these short workers would add
    # more noise than the drift between two consecutive processes.
    plain_s, traced_s = (sum(o["latency_s"] for o in d["ops"]) for d in (plain, doc))
    values[OVERHEAD] = traced_s / plain_s - 1
    metrics = {name: (values[name], unit) for name, unit in per_layer_names()}
    report = {"untraced_s": plain_s, "traced_s": traced_s, "ops": len(doc["ops"])}
    return doc, report, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest op sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    # A terminated benchmark still stops its worker and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "rydqnd" / "__init__.py").is_file():
        print(f"error: no rydqnd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        doc, report, metrics = run(args, workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = doc["ops"]
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              **report, "environment": environment(doc["rydqnd_version"])}
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": not any(o["wrong"] for o in ops),
        "attempted": len(ops),
        "failed": sum(not o["ok"] for o in ops),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

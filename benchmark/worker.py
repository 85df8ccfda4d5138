"""One benchmark process: generate inputs, or set up and run a workload's ops.

    worker.py gen --workload W --seed S --workdir D --rounds R [--tiny]
    worker.py run --workload W --seed S --workdir D --out F --rounds R [--trace] [--tiny]

``run`` times ``import rydqnd`` plus one untimed warm-up op as set-up, then
issues the ops of R rounds one after another (R = 0 measures set-up only).
Each op is timed alone: output checks run outside the timed region.  A
calibration kernel runs after set-up and after every op; its times let
``run.py`` scale timings to a reference speed.  ``--trace`` installs span
wrappers after the warm-up and writes the spans next to ``--out``.  Results
go to ``--out`` as JSON.  Run it through ``run.py``, which pins BLAS threads
and sets the paths.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
SETUP_CALIBRATIONS = 6  # kernel runs right after set-up, before the first op
# After each op the kernel runs until it has taken this share of the op's time
# (at least once), so every workload gets about as many samples per second.
# A run's mean kernel time tracks its machine speed only with many samples:
# over ten infer_records runs, one sample per round left an IQR/median spread
# of 0.16-0.20 on the scaled timings and one per op 0.02-0.04.
CALIBRATION_SHARE = 0.15


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter, small numpy/scipy and BLAS work.

    The machine's speed drifts by 10-40% over seconds to minutes, in CPU
    time as much as in wall time.  This kernel does not touch rydqnd, so its
    time, measured between the ops of a run, tracks that drift.  The mix
    matters: over 100 s in one process the kernel without its complex matmul
    part left 0.095 of log-time spread on a dense-oracle integration (0.141
    raw) and 0.082 on a small simulate (0.17 raw); with it, 0.069 and 0.070.
    """
    import numpy as np
    from scipy.linalg import expm
    a = np.linspace(-0.1, 0.1, 100).reshape(10, 10)
    z = np.exp(1j * np.arange(128 * 128).reshape(128, 128)) / 128
    t0 = time.perf_counter()
    counts = {}
    for i in range(15000):
        counts[i % 101] = counts.get(i % 101, 0) + len(str(i))
    m = a
    for _ in range(1250):
        m = np.tanh(m @ a + 0.5)
    for i in range(200):
        expm(a * (1 + i * 1e-3))
    y = z
    for _ in range(30):
        y = z @ y
        y /= np.abs(y).max()
    return time.perf_counter() - t0


def calibrate_after(latency_s: float) -> list[float]:
    """Kernel times, taken until they add up to CALIBRATION_SHARE of `latency_s`."""
    times = [calibrate()]
    while sum(times) < CALIBRATION_SHARE * latency_s:
        times.append(calibrate())
    return times


def _load(name: str, workdir: Path, seed: int, tiny: bool):
    from workloads import WORKLOADS
    return WORKLOADS[name](workdir, seed, tiny)


def _run_op(wl, op) -> dict:
    from workloads import OpFailed, WrongOutput
    wl.prepare(op)
    t0 = time.perf_counter()
    try:
        out = wl.call(op)
    except (Exception, SystemExit) as exc:  # the program raised: a failed op
        return {"op": op, "latency_s": time.perf_counter() - t0, "ok": False,
                "wrong": False, "reason": f"{type(exc).__name__}: {exc}", "result": None}
    latency = time.perf_counter() - t0
    rec = {"op": op, "latency_s": latency, "ok": True, "wrong": False, "reason": "",
           "result": None}
    try:
        rec["result"] = wl.check(op, out)
    except OpFailed as exc:
        rec.update(ok=False, reason=str(exc))
    except (WrongOutput, ValueError, KeyError, IndexError, OSError) as exc:
        rec.update(ok=False, wrong=True, reason=f"{type(exc).__name__}: {exc}")
    return rec


def cmd_run(args) -> None:
    t0 = time.perf_counter()
    import rydqnd  # first, so set-up includes its import (workloads imports it too)
    wl = _load(args.workload, args.workdir, args.seed, args.tiny)
    warm = _run_op(wl, wl.warmup_op())
    setup_s = time.perf_counter() - t0
    if not warm["ok"]:
        raise SystemExit(f"warm-up op failed: {warm['reason']}")
    wl.clear_stats()
    setup_calibration = [calibrate() for _ in range(SETUP_CALIBRATIONS)]
    calibration = []

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    records = []
    for r, ops in zip(range(args.rounds), wl.rounds()):
        wl.noting = r == 0
        for op in ops:
            if tracer is not None:
                tracer.op_id = len(records)
            records.append(_run_op(wl, op))
            calibration += calibrate_after(records[-1]["latency_s"])
    wl.finish(records)
    if tracer is not None:
        tracer.save(args.out.with_suffix(".spans.npz"))

    doc = {
        "setup_s": setup_s,
        "setup_calibration_s": setup_calibration,
        "calibration_s": calibration,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rydqnd_version": rydqnd.__version__,
        "input_properties": wl.input_properties(),
        "ops": [{"latency_s": r["latency_s"], "ok": r["ok"], "wrong": r["wrong"],
                 "reason": r["reason"],
                 **({k: getattr(r["result"], k) for k in ("items", "cycles", "decided", "hits")}
                    if r["result"] is not None else {})}
                for r in records],
    }
    args.out.write_text(json.dumps(doc))


def cmd_gen(args) -> None:
    _load(args.workload, args.workdir, args.seed, args.tiny).generate(args.rounds)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("gen", "run"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    (cmd_gen if args.mode == "gen" else cmd_run)(args)


if __name__ == "__main__":
    main()

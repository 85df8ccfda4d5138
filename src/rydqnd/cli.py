"""Command-line interface: simulate, infer, oracle-check, analyze.

Units at the command line are MHz for frequencies and microseconds for times.
By default a frequency value f means an ordinary frequency, converted
internally to the angular value 2*pi*f*1e6 rad/s; with --angular the value is
taken as already angular (in units of 1e6 rad/s) and no 2*pi is applied.
Output files always record rad/s and seconds.

A JSON config file (--config) may supply any long-option value by its
destination name (e.g. {"omega_mhz": 2.5, "seed": 7}); explicit command-line
flags override the file, which overrides built-in defaults.

Exit codes: 0 success, 2 usage error, 3 record inconsistent with all
candidates, 4 oracle check failure, 5 resource guard tripped.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
from scipy.linalg import expm

from . import __version__
from .errors import (
    DomainError,
    InconsistentRecordError,
    PreconditionError,
    ResourceError,
)
from .records import FockDistribution, MeasurementRecord, Posterior
from . import analysis, dense_oracle, dynamics, inference
from .engine import NOISELESS_PURE, NOISY_FIXED_N, ProtocolParams, Schedule, run_batch
from .symbasis import build_block

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INCONSISTENT = 3
EXIT_ORACLE = 4
EXIT_RESOURCE = 5

TRACE_SCHEMA = "rydqnd-trace-v1"
TRAJECTORY_SCHEMA = "rydqnd-trajectories-v1"
SUMMARY_SCHEMA = "rydqnd-summary-v1"
POSTERIOR_SCHEMA = "rydqnd-posterior-v1"
ORACLE_SCHEMA = "rydqnd-oracle-check-v1"
TABLE_SCHEMA = "rydqnd-table-v1"


# ---------------------------------------------------------------------------
# unit and argument helpers

def _freq_rad_s(value_mhz: float, angular: bool) -> float:
    """MHz (ordinary) or 1e6 rad/s (with --angular) to rad/s."""
    return value_mhz * 1e6 * (1.0 if angular else 2.0 * math.pi)


def _us_to_s(value_us: float) -> float:
    return value_us * 1e-6


def _parse_int_range(text: str) -> list[int]:
    """Accept '2', '1..4', or '1,2,5'."""
    if ".." in text:
        lo, hi = text.split("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(tok) for tok in text.split(",")]


def _parse_candidates(spec: str | None, path: str | None, n_max: int
                      ) -> tuple[list[FockDistribution], Posterior] | tuple[None, None]:
    """Candidates from an integer range (delta distributions) or a JSON file.

    The file format is {"candidates": [[p0, ...], ...], "prior": [w, ...]}
    where "prior" is optional (uniform if absent).
    """
    if path is not None:
        doc = json.loads(Path(path).read_text())
        cands = [FockDistribution(np.array(p)) for p in doc["candidates"]]
        prior = (Posterior(np.array(doc["prior"])) if "prior" in doc
                 else Posterior.uniform(len(cands)))
        return cands, prior
    if spec is not None:
        ns = _parse_int_range(spec)
        top = max(n_max, max(ns))
        cands = [FockDistribution.delta(n, top) for n in ns]
        return cands, Posterior.uniform(len(cands))
    return None, None


def _apply_config_file(args: argparse.Namespace, parser_defaults: dict) -> None:
    """Fill unset options from the JSON config file, then from defaults."""
    file_values: dict = {}
    if getattr(args, "config", None):
        doc = json.loads(Path(args.config).read_text())
        if not isinstance(doc, dict):
            raise DomainError("config file must hold a JSON object")
        file_values = doc
    for key, default in parser_defaults.items():
        if getattr(args, key, None) is None:
            setattr(args, key, file_values.get(key, default))


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(text)


def _table_output(doc: dict, rows: list[dict], out: str | None) -> None:
    """Emit a result table as JSON (default) or CSV when the path ends .csv.

    The JSON form nests the rows under "rows"; the CSV form carries the
    reproducibility header as leading comment lines.
    """
    if out is not None and out.endswith(".csv"):
        buf = io.StringIO()
        buf.write(f"# schema: {doc['schema']}\n")
        buf.write(f"# config: {json.dumps(doc['config'], sort_keys=True)}\n")
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
        _write_text(out, buf.getvalue())
    else:
        doc = dict(doc)
        doc["rows"] = rows
        _write_text(out, json.dumps(doc, indent=2, sort_keys=True))


# ---------------------------------------------------------------------------
# simulate

SIMULATE_DEFAULTS = {
    "omega_mhz": 2.5,
    "gamma_mhz": 0.3,
    "tau_eit_us": 0.3,
    "tau_us": 0.21,
    "schedule": "fixed",
    "tau_min_us": 0.05,
    "tau_max_us": 0.4,
    "n_true": 2,
    "n_atoms": 10,
    "n_max": 4,
    "candidates": None,
    "candidates_file": None,
    "seed": 0,
    "trajectories": 1,
    "max_cycles": 25,
    "threshold": 0.99,
    "eject": False,
    "trace_points": 8,
    "outdir": "out",
}


def _build_params(args: argparse.Namespace) -> ProtocolParams:
    angular = args.angular
    omega = _freq_rad_s(args.omega_mhz, angular)
    gamma = _freq_rad_s(args.gamma_mhz, angular)
    if args.schedule == "fixed":
        schedule = Schedule.fixed(_us_to_s(args.tau_us))
    elif args.schedule == "uniform-random":
        schedule = Schedule.uniform_random(_us_to_s(args.tau_min_us),
                                           _us_to_s(args.tau_max_us))
    elif args.schedule == "adaptive-greedy":
        schedule = Schedule.adaptive_greedy()
    else:
        raise DomainError(f"unknown schedule {args.schedule!r}")
    cands, prior = _parse_candidates(args.candidates, args.candidates_file, args.n_max)
    mode = NOISELESS_PURE if gamma == 0.0 else NOISY_FIXED_N
    return ProtocolParams(
        omega=omega,
        gamma=gamma,
        tau_eit=_us_to_s(args.tau_eit_us) if gamma > 0 else 0.0,
        N=args.n_atoms,
        n_max=args.n_max,
        mode=mode,
        schedule=schedule,
        seed=args.seed,
        max_cycles=args.max_cycles,
        ejection_enabled=args.eject,
        threshold=args.threshold,
        candidates=cands,
        prior=prior,
        trace_points=args.trace_points,
    )


def cmd_simulate(args: argparse.Namespace) -> int:
    params = _build_params(args)
    logs = run_batch(args.n_true, params, args.trajectories)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    config = params.to_dict()
    config["n_true"] = args.n_true
    config["trajectories"] = args.trajectories
    config["version"] = __version__

    # One file per trajectory first (unique names, no appends), then merged.
    header = json.dumps({"schema": TRAJECTORY_SCHEMA, "config": config},
                        sort_keys=True)
    parts = []
    for i, log in enumerate(logs):
        part = outdir / f".traj_{i:05d}.json"
        part.write_text(log.to_json())
        parts.append(part)
    merged = header + "\n" + "\n".join(p.read_text() for p in parts) + "\n"
    (outdir / "trajectories.jsonl").write_text(merged)
    for p in parts:
        p.unlink()

    if params.trace_points:
        for i, log in enumerate(logs):
            buf = io.StringIO()
            buf.write(f"# schema: {TRACE_SCHEMA}\n")
            buf.write(f"# config: {json.dumps(config, sort_keys=True)}\n")
            k = len(log.posteriors[0])
            writer = csv.writer(buf)
            writer.writerow(["time_s", "phase", "p_no_rydberg", "p_rydberg",
                             "fidelity"] + [f"w_{c}" for c in range(k)])
            for row in log.trace:
                writer.writerow([f"{row['time_s']:.12e}", row["phase"],
                                 f"{row['p_no_rydberg']:.12e}",
                                 f"{row['p_rydberg']:.12e}",
                                 f"{row['fidelity']:.12e}"]
                                + [f"{w:.12e}" for w in row["posterior"]])
            (outdir / f"trace_{i:03d}.csv").write_text(buf.getvalue())

    counts: dict[int, int] = {}
    for log in logs:
        if log.converged:
            counts[log.final_candidate] = counts.get(log.final_candidate, 0) + 1
    summary = {
        "schema": SUMMARY_SCHEMA,
        "config": config,
        "n_trajectories": len(logs),
        "n_converged": sum(log.converged for log in logs),
        "mean_cycles": sum(len(log.record) for log in logs) / len(logs),
        "final_candidate_counts": {str(k): v for k, v in sorted(counts.items())},
        "total_ejections": sum(log.ejections for log in logs),
    }
    (outdir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True))
    print(f"wrote {len(logs)} trajectories to {outdir}/trajectories.jsonl "
          f"({summary['n_converged']} converged)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# infer

INFER_DEFAULTS = {
    "omega_mhz": 2.5,
    "gamma_mhz": 0.0,
    "tau_eit_us": 0.0,
    "n_atoms": 10,
    "n_max": 4,
    "candidates": None,
    "candidates_file": None,
    "eject": False,
    "out": None,
}


def cmd_infer(args: argparse.Namespace) -> int:
    try:
        record = MeasurementRecord.from_json(Path(args.record).read_text())
    except json.JSONDecodeError as exc:
        raise DomainError(
            f"{args.record}: line {exc.lineno}: malformed record ({exc.msg})") from exc
    except (KeyError, TypeError) as exc:
        raise DomainError(f"{args.record}: line 1: missing record field {exc}") from exc

    cands, prior = _parse_candidates(args.candidates, args.candidates_file, args.n_max)
    if cands is None:
        cands = [FockDistribution.delta(n, args.n_max) for n in range(1, args.n_max + 1)]
        prior = Posterior.uniform(len(cands))

    omega = _freq_rad_s(args.omega_mhz, args.angular)
    gamma = _freq_rad_s(args.gamma_mhz, args.angular)
    noise = None
    if gamma > 0:
        noise = inference.NoiseParams(gamma, _us_to_s(args.tau_eit_us),
                                      args.n_atoms, eject=args.eject)

    trace = inference.posterior_trace(record, cands, prior, omega, noise=noise,
                                      eject=args.eject)

    config = {
        "omega_rad_s": omega,
        "gamma_rad_s": gamma,
        "tau_eit_s": _us_to_s(args.tau_eit_us),
        "N": args.n_atoms,
        "eject": args.eject,
        "candidates": [c.tolist() for c in cands],
        "prior": prior.weights.tolist(),
        "record_file": args.record,
        "version": __version__,
    }
    doc = {
        "schema": POSTERIOR_SCHEMA,
        "config": config,
        "weights": trace[-1].tolist(),
        "mle_index": int(np.argmax(trace[-1])),
        "trace": trace.tolist(),
    }
    # compact, so json uses its C encoder: long traces are slow to indent
    _write_text(args.out, json.dumps(doc, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# oracle-check

ORACLE_CELLS = ((2, 1), (3, 1), (4, 2), (5, 2), (5, 3))
ORACLE_GAMMA_FACTORS = (0.0, 0.1, 1.0)
ORACLE_TOLERANCE = 1e-6

ORACLE_DEFAULTS = {
    "omega_mhz": 2.5,
    "time_points": 50,
    "corrupt_cell": None,
    "out": None,
}


def _block_sector_populations(n: int, N: int, omega: float, gamma: float,
                              times: np.ndarray,
                              corrupt: bool) -> np.ndarray:
    """Symmetric-block p_R(t), optionally with a corrupted drive matrix.

    The corruption hook perturbs one off-diagonal drive entry in every block
    of the cell so the check demonstrably catches a wrong matrix element.
    """
    blocks = dynamics.symmetric_state_blocks(n, N)
    out = np.zeros(times.size)
    gens = []
    for blk in blocks:
        ops = build_block(blk.n, blk.N, blk.j, omega, gamma)
        gen = ops.generator()
        if corrupt and gen.shape[0] > 1:
            rows, cols = np.nonzero(ops.H)
            gen[rows[0], cols[0]] *= 1.001
        gens.append(gen)
    for k, t in enumerate(times):
        evolved = []
        for blk, gen in zip(blocks, gens):
            x = expm(gen * t) @ blk.x
            evolved.append(dynamics.SymmetricBlockState(blk.n, blk.N, blk.j, x))
        out[k] = dynamics.sector_probabilities(evolved)[1]
    return out


def cmd_oracle_check(args: argparse.Namespace) -> int:
    omega = _freq_rad_s(args.omega_mhz, args.angular)
    if not isinstance(args.time_points, int) or args.time_points < 1:
        raise DomainError(f"--time-points must be a positive integer, got {args.time_points!r}")
    corrupt_cell = None
    if args.corrupt_cell:
        try:
            n_c, N_c = (int(tok) for tok in args.corrupt_cell.split(","))
        except ValueError:
            raise DomainError(
                f"--corrupt-cell must be 'n,N', got {args.corrupt_cell!r}") from None
        if (N_c, n_c) not in ORACLE_CELLS:
            cells = ", ".join(f"{n},{N}" for N, n in ORACLE_CELLS)
            raise DomainError(
                f"--corrupt-cell {args.corrupt_cell!r} is not an oracle cell ({cells})")
        corrupt_cell = (n_c, N_c)
    rows = []
    worst = 0.0
    for N, n in ORACLE_CELLS:
        if N > 5:
            raise PreconditionError("oracle check is limited to N <= 5")
        times = np.linspace(0.0, 5.0 / omega, args.time_points)
        for factor in ORACLE_GAMMA_FACTORS:
            gamma = factor * omega
            dense = dense_oracle.pure_state(dense_oracle.build_symmetric_ket(n, N), N)
            p_dense = np.zeros(times.size)
            for k, dt in enumerate(np.diff(times, prepend=0.0)):
                dense = dense_oracle.evolve_dense(dense, dt, omega, gamma)
                p_dense[k] = dense_oracle.sector_populations_dense(dense)[1]
            p_block = _block_sector_populations(
                n, N, omega, gamma, times, corrupt=corrupt_cell == (n, N))
            dev = float(np.max(np.abs(p_block - p_dense)))
            worst = max(worst, dev)
            rows.append({"N": N, "n": n, "gamma_over_omega": factor,
                         "max_deviation": dev,
                         "pass": dev <= ORACLE_TOLERANCE})
    config = {"omega_rad_s": omega, "time_points": args.time_points,
              "tolerance": ORACLE_TOLERANCE, "corrupt_cell": args.corrupt_cell,
              "version": __version__}
    ok = all(r["pass"] for r in rows)
    doc = {"schema": ORACLE_SCHEMA, "config": config, "passed": ok,
           "worst_deviation": worst}
    _table_output(doc, rows, args.out)
    if not ok:
        failed = [r for r in rows if not r["pass"]]
        for r in failed:
            print(f"FAIL cell N={r['N']} n={r['n']} "
                  f"gamma={r['gamma_over_omega']}*omega: "
                  f"max deviation {r['max_deviation']:.3e} > {ORACLE_TOLERANCE:g}",
                  file=sys.stderr)
        return EXIT_ORACLE
    return EXIT_OK


# ---------------------------------------------------------------------------
# analyze

ANALYZE_DEFAULTS = {
    "omega_mhz": 2.5,
    "gamma_mhz": 0.3,
    "regime": "noiseless",
    "n": "1..10",
    "time_us": None,
    "toy": "appendix-c",
    "cycles": 2,
    "grid_points": None,
    "out": None,
}


def cmd_analyze(args: argparse.Namespace) -> int:
    omega = _freq_rad_s(args.omega_mhz, args.angular)
    gamma = _freq_rad_s(args.gamma_mhz, args.angular)
    config = {"omega_rad_s": omega, "gamma_rad_s": gamma,
              "subcommand": args.analysis, "version": __version__}
    doc = {"schema": TABLE_SCHEMA, "config": config}

    if args.analysis == "fisher":
        rows = []
        for n in _parse_int_range(args.n):
            t = (_us_to_s(args.time_us) if args.time_us is not None
                 else analysis.detection_time(args.regime, n, omega, gamma))
            rows.append({"regime": args.regime, "n": n, "t_s": t,
                         "fisher": analysis.fisher_closed_form(
                             args.regime, n, t, omega, gamma)})
        config["regime"] = args.regime
        _table_output(doc, rows, args.out)
        return EXIT_OK

    if args.analysis == "detection-time":
        rows = [{"regime": args.regime, "n": n,
                 "t_star_s": analysis.detection_time(args.regime, n, omega, gamma)}
                for n in _parse_int_range(args.n)]
        config["regime"] = args.regime
        _table_output(doc, rows, args.out)
        return EXIT_OK

    if args.analysis == "steady-state":
        rows = [{"n": n,
                 "p_no_rydberg": analysis.steady_state_populations(n)[0],
                 "p_rydberg": analysis.steady_state_populations(n)[1]}
                for n in _parse_int_range(args.n)]
        _table_output(doc, rows, args.out)
        return EXIT_OK

    if args.analysis == "optimize-schedule":
        if args.toy != "appendix-c":
            raise DomainError(f"unknown toy problem {args.toy!r}")
        cands, prior = analysis.appendix_toy_candidates()
        grid = analysis.default_tau_grid(omega, args.grid_points or 800)
        rows = []
        for strategy, run in (("local", analysis.optimize_schedule_local),
                              ("global", analysis.optimize_schedule_global)):
            result = run(args.cycles, cands, prior, grid, omega)
            for i, fid in enumerate(result.fidelity_trace):
                rows.append({"strategy": strategy, "T": i + 1,
                             "taus_us": ",".join(f"{t * 1e6:.6f}"
                                                 for t in result.taus[: i + 1]),
                             "fidelity_percent": 100.0 * fid})
        config["grid_points"] = int(grid.size)
        config["toy"] = args.toy
        _table_output(doc, rows, args.out)
        return EXIT_OK

    raise DomainError(f"unknown analyze subcommand {args.analysis!r}")


# ---------------------------------------------------------------------------
# parser

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file mirroring the flags")
    parser.add_argument("--angular", action="store_true",
                        help="frequency values are already angular "
                             "(1e6 rad/s); no 2*pi factor is applied")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rydqnd",
        description="Photon counting in a driven Rydberg array: simulation, "
                    "inference, and analysis tools.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run seeded protocol trajectories")
    _add_common(p)
    p.add_argument("--omega-mhz", type=float, help="drive Rabi frequency")
    p.add_argument("--gamma-mhz", type=float, help="Rydberg dephasing rate (0 = noiseless)")
    p.add_argument("--tau-eit-us", type=float, help="measurement window duration")
    p.add_argument("--schedule", choices=("fixed", "uniform-random", "adaptive-greedy"))
    p.add_argument("--tau-us", type=float, help="fixed drive time per cycle")
    p.add_argument("--tau-min-us", type=float, help="uniform-random lower bound")
    p.add_argument("--tau-max-us", type=float, help="uniform-random upper bound")
    p.add_argument("--n-true", type=int, help="true stored photon number")
    p.add_argument("--n-atoms", type=int, help="number of atoms N")
    p.add_argument("--n-max", type=int, help="largest candidate photon number")
    p.add_argument("--candidates", help="candidate n values, e.g. '1..4'")
    p.add_argument("--candidates-file", help="JSON file with candidate distributions")
    p.add_argument("--seed", type=int)
    p.add_argument("--trajectories", type=int)
    p.add_argument("--max-cycles", type=int)
    p.add_argument("--threshold", type=float, help="posterior stopping threshold")
    p.add_argument("--eject", action="store_true", default=None,
                   help="remove the Rydberg excitation after each Rydberg outcome")
    p.add_argument("--trace-points", type=int,
                   help="sub-samples per window in the trace CSV (0 disables)")
    p.add_argument("--outdir")
    p.set_defaults(func=cmd_simulate, defaults=SIMULATE_DEFAULTS)

    p = sub.add_parser("infer", help="posterior over candidates from a record file")
    _add_common(p)
    p.add_argument("record", help="measurement record JSON file")
    p.add_argument("--omega-mhz", type=float)
    p.add_argument("--gamma-mhz", type=float)
    p.add_argument("--tau-eit-us", type=float)
    p.add_argument("--n-atoms", type=int)
    p.add_argument("--n-max", type=int)
    p.add_argument("--candidates", help="candidate n values, e.g. '1..4'")
    p.add_argument("--candidates-file", help="JSON file with candidate distributions")
    p.add_argument("--eject", action="store_true", default=None)
    p.add_argument("--out", help="output file ('-' or omitted for stdout)")
    p.set_defaults(func=cmd_infer, defaults=INFER_DEFAULTS)

    p = sub.add_parser("oracle-check",
                       help="compare the block solver against the dense oracle")
    _add_common(p)
    p.add_argument("--omega-mhz", type=float)
    p.add_argument("--time-points", type=int)
    p.add_argument("--corrupt-cell",
                   help="fault-injection hook: 'n,N' cell whose drive matrix "
                        "is deliberately perturbed")
    p.add_argument("--out")
    p.set_defaults(func=cmd_oracle_check, defaults=ORACLE_DEFAULTS)

    p = sub.add_parser("analyze", help="closed-form tables and schedule optimization")
    _add_common(p)
    p.add_argument("analysis",
                   choices=("fisher", "detection-time", "steady-state",
                            "optimize-schedule"))
    p.add_argument("--omega-mhz", type=float)
    p.add_argument("--gamma-mhz", type=float)
    p.add_argument("--regime", choices=analysis.REGIMES)
    p.add_argument("--n", help="photon numbers, e.g. '5' or '1..20'")
    p.add_argument("--time-us", type=float, help="evaluation time for fisher")
    p.add_argument("--toy", help="named toy problem for optimize-schedule")
    p.add_argument("--cycles", type=int, help="schedule length T")
    p.add_argument("--grid-points", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_analyze, defaults=ANALYZE_DEFAULTS)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config_file(args, args.defaults)
        return args.func(args)
    except InconsistentRecordError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except ResourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (DomainError, PreconditionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

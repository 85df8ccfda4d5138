"""Command-line interface: simulate, infer, oracle-check, analyze.

Units at the command line are MHz for frequencies and microseconds for times.
By default a frequency value f means an ordinary frequency, converted
internally to the angular value 2*pi*f*1e6 rad/s; with --angular the value is
taken as already angular (in units of 1e6 rad/s) and no 2*pi is applied.
Output files always record rad/s and seconds.

A JSON config file (--config) may supply any long-option value by its
destination name (e.g. {"omega_mhz": 2.5, "seed": 7}); explicit command-line
flags override the file, which overrides built-in defaults.  Each file value
is converted through the declaration of the option it names (`_config_values`).

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
from collections import Counter
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    DomainError,
    InconsistentRecordError,
    IntegratorError,
    PreconditionError,
    ResourceError,
)
from .records import FockDistribution, MeasurementRecord, Posterior
from . import analysis, dense_oracle, dynamics, engine, inference
from .dynamics import expm
from .engine import NOISELESS_PURE, NOISY_FIXED_N, PHASES, ProtocolParams, Schedule, run_batch
from .symbasis import _check_block_args, build_block, sector

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

def _us_to_s(value_us: float) -> float:
    """value_us in seconds; a negative time whose product underflows stays negative."""
    return min(value_us * 1e-6, -math.ulp(0.0)) if value_us < 0 else value_us * 1e-6


def _parse_int_range(text: str) -> range | list[int]:
    """Accept '2', '1..4' (a range), or '1,2,5'; the result is never empty."""
    lo, _, hi = text.partition("..")
    try:
        values = (range(int(lo), int(hi) + 1) if hi
                  else [int(tok) for tok in text.split(",")])
    except ValueError:
        values = []
    if not values:
        raise DomainError(f"expected an integer, a list 'a,b,c' or a non-empty "
                          f"range 'a..b', got {text!r}")
    return values


def _extent(ns: range | list[int]) -> tuple[int, int]:
    """(count, largest) of `_parse_int_range`'s values, a range's without walking it."""
    return (ns.stop - ns.start, ns.stop - 1) if isinstance(ns, range) else (len(ns), max(ns))


def _read_json(path: str, what: str, parse=json.loads):
    """parse(text of the file); bad JSON, missing or misplaced fields and the DomainErrors
    of parse are DomainErrors that name the file (and a JSON syntax error's line)."""
    try:
        return parse(Path(path).read_text())
    except DomainError as exc:
        raise DomainError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DomainError(f"{path}: line {exc.lineno}: malformed {what} ({exc.msg})") from exc
    except ValueError as exc:  # json's refusal of integer text past Python's digit limit
        raise DomainError(f"{path}: malformed {what} ({str(exc).partition(';')[0]})") from exc
    except (KeyError, TypeError) as exc:
        raise DomainError(f"{path}: missing or misplaced {what} field ({exc})") from exc


def _parse_candidates(args: argparse.Namespace) -> tuple[list[FockDistribution], Posterior]:
    """Candidates from a JSON file (--candidates-file), an integer range (--candidates,
    delta distributions) or, with neither, the deltas at 1..n_max; none may put
    weight on n > N (--n-atoms), the most photons N atoms store.

    The file format is {"candidates": [[p0, ...], ...], "prior": [w, ...]}
    where "prior" is optional (uniform if absent).
    """
    spec, path, n_max, N = args.candidates, args.candidates_file, args.n_max, args.n_atoms
    if path is None:
        ns = _parse_int_range(spec) if spec is not None else range(1, n_max + 1)
        if not ns:
            raise DomainError("need --n-max >= 1")
        count, n = _extent(ns)
    else:
        def parse(text: str) -> tuple[list[FockDistribution], Posterior]:
            doc = json.loads(text)
            named = [(f"candidate {i}", c, FockDistribution) for i, c in enumerate(doc["candidates"])]
            if not named:
                raise DomainError("the candidate list is empty")
            named += [("the prior", doc["prior"], Posterior)] if "prior" in doc else []
            cands = []
            for what, p, make in named:  # each list checked and built, named if refused
                if not isinstance(p, list) or any(type(v) not in (int, float) for v in p):
                    raise DomainError(f"{what} must be a list of numbers, got {p!r}")
                try:  # an integer past float range fails the conversion
                    cands.append(make(np.array(p, dtype=float)))
                except (DomainError, OverflowError) as exc:
                    raise DomainError(f"{what}: {exc}") from exc
            prior = cands.pop() if "prior" in doc else Posterior.uniform(len(cands))
            if prior.weights.size != len(cands):
                raise DomainError("the prior's length is not the candidate count")
            _check_block_args(max(max(c.support()) for c in cands), N, 0)
            return cands, prior
        return _read_json(path, "candidates file", parse)
    _check_block_args(n, N, 0)
    # each delta holds max(n_max, n) + 1 entries, so they come after the checks
    if count * (max(n_max, n) + 1) > MAX_CANDIDATE_ENTRIES:
        raise ResourceError(f"{count} candidates of {max(n_max, n) + 1} entries exceed the "
                            f"guard of {MAX_CANDIDATE_ENTRIES} entries")
    return [FockDistribution.delta(k, max(n_max, n)) for k in ns], Posterior.uniform(count)


def _config_values(path: str, parser: argparse.ArgumentParser) -> dict:
    """The config file's values, each converted through the declaration of
    the option it names; keys that name no option of `parser` are ignored.

    A typed option takes the type of the value's text, a flag a JSON boolean and any
    other option a string; null states a default of None, and a value must be one of
    the option's choices, if it has any.
    """
    doc = _read_json(path, "config file")
    if not isinstance(doc, dict):
        raise DomainError(f"{path}: config file must hold a JSON object")
    values = {}
    for action in parser._actions:
        key, flag = action.dest, isinstance(action, argparse._StoreTrueAction)
        stores = flag or isinstance(action, argparse._StoreAction)
        if key not in doc or not (stores and action.option_strings):
            continue
        value = doc[key]
        if value is None and action.default is None:
            pass
        elif action.type is not None:
            try:
                value = action.type(str(value))
            except ValueError:
                raise DomainError(f"{path}: {key!r} must be {action.type.__name__}, "
                                  f"got {value!r}") from None
        elif not isinstance(value, bool if flag else str):
            raise DomainError(f"{path}: {key!r} must be "
                              f"{'true or false' if flag else 'a string'}, got {value!r}")
        if action.choices is not None and value not in action.choices:
            raise DomainError(f"{path}: {key!r} must be one of "
                              f"{', '.join(action.choices)}, got {value!r}")
        values[key] = value
    return values


def _rates(args: argparse.Namespace) -> tuple[float, float, float]:
    """(omega, gamma) in rad/s and tau_eit in s, from MHz (1e6 rad/s with --angular)
    and us; gamma and tau_eit are 0 where the subcommand has no such option.  Omega
    must be positive and finite, gamma and tau_eit finite and non-negative."""
    factor = 1.0 if args.angular else 2.0 * math.pi
    omega, gamma = (mhz * 1e6 * factor for mhz in (args.omega_mhz, getattr(args, "gamma_mhz", 0.0)))
    tau_eit = _us_to_s(getattr(args, "tau_eit_us", 0.0))
    if not 0 < omega < math.inf:
        raise DomainError("omega must be positive and finite")
    if not 0 <= gamma < math.inf:
        raise DomainError("gamma must be finite and non-negative")
    if not 0 <= tau_eit < math.inf:  # checked at any gamma: `infer` records it either way
        raise DomainError("tau_eit must be finite and non-negative")
    return omega, gamma, tau_eit


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
        _write_text(out, json.dumps({**doc, "rows": rows}, indent=2, sort_keys=True))


# ---------------------------------------------------------------------------
# simulate

def _build_params(args: argparse.Namespace) -> ProtocolParams:
    omega, gamma, tau_eit = _rates(args)
    if args.schedule == "fixed":
        schedule = Schedule.fixed(_us_to_s(args.tau_us))
    elif args.schedule == "uniform-random":
        schedule = Schedule.uniform_random(_us_to_s(args.tau_min_us), _us_to_s(args.tau_max_us))
    else:
        schedule = Schedule.adaptive_greedy()
    cands, prior = _parse_candidates(args)
    mode = NOISELESS_PURE if gamma == 0.0 else NOISY_FIXED_N
    return ProtocolParams(
        omega=omega,
        gamma=gamma,
        tau_eit=tau_eit if gamma > 0 else 0.0,
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


def _trace_csvs(config: dict, traces: list, columns: list):
    """Each `engine.Trace`'s file, its values from columns (`engine.spell`'s "%.12e" rows of
    each trace); each posterior row formatted once."""
    head = (f"# schema: {TRACE_SCHEMA}\n# config: {json.dumps(config, sort_keys=True)}\n"
            "time_s,phase,p_no_rydberg,p_rydberg,fidelity")
    for trace, (times, p_s, p_r, fids) in zip(traces, columns):
        weights = ["".join([",%.12e" % w for w in post]) for post in trace.posteriors.tolist()]
        yield "".join([head, *[f",w_{c}" for c in range(trace.posteriors.shape[1])], "\r\n",
                       *["%s,%s,%s,%s,%s%s\r\n" % (t, PHASES[phase], s, r, f, weights[k])
                         for t, s, r, f, phase, k in zip(times, p_s, p_r, fids,
                                                         *trace.codes.tolist())]])


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.trajectories < 1:
        raise DomainError("need --trajectories >= 1")
    params = _build_params(args)
    rows = args.trajectories * params.max_cycles * (1 + 2 * params.trace_points)
    if rows > MAX_CYCLE_ROWS:
        raise ResourceError(f"--trajectories {args.trajectories} x --max-cycles "
                            f"{params.max_cycles} x (1 + 2 x --trace-points "
                            f"{params.trace_points}) gives {rows} rows, more than the guard "
                            f"of {MAX_CYCLE_ROWS}")
    logs = run_batch(args.n_true, params, args.trajectories)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    config = {**params.to_dict(), "n_true": args.n_true, "trajectories": args.trajectories,
              "version": __version__}

    header = json.dumps({"schema": TRAJECTORY_SCHEMA, "config": config}, sort_keys=True)
    with open(outdir / "trajectories.jsonl", "w") as jsonl:
        jsonl.write(header + "\n")
        for start in range(0, len(logs), WRITE_CHUNK):  # each chunk's distinct values spelled once
            chunk = logs[start:start + WRITE_CHUNK]
            traces = [log.trace for log in chunk]
            json_columns, csv_columns = engine.spell(traces, "json", "%.12e")
            jsonl.writelines(line + "\n" for line in engine.json_lines(chunk, json_columns))
            if params.trace_points:  # every trajectory has rows then, none otherwise
                for i, text in enumerate(_trace_csvs(config, traces, csv_columns), start):
                    (outdir / f"trace_{i:03d}.csv").write_text(text)

    counts = Counter(log.final_candidate for log in logs if log.converged)
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

def cmd_infer(args: argparse.Namespace) -> int:
    omega, gamma, tau_eit = _rates(args)
    record = _read_json(args.record, "record", MeasurementRecord.from_json)
    cands, prior = _parse_candidates(args)
    # N checked at any gamma, since posterior.json records tau_eit and N either way
    noise = inference.NoiseParams(gamma, tau_eit, args.n_atoms)
    tau = float(record.taus[record.taus > 0].min(initial=math.inf))  # the smallest phase's time
    if (omega * tau) * (omega * tau) == 0.0:  # sin^2 would underflow: a zero-likelihood record
        raise ResourceError(f"--omega-mhz {args.omega_mhz} and drive time {tau} s give "
                            "a drive phase omega * tau whose square underflows to 0")
    trace = inference.posterior_trace(record, cands, prior, omega,
                                      noise=noise if gamma else None, eject=args.eject)

    config = {
        "omega_rad_s": omega,
        "gamma_rad_s": gamma,
        "tau_eit_s": noise.tau_eit,
        "N": noise.N,
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
MAX_TIME_POINTS = 1_000  # one 15-cell dense series: 0.14 MB a point (3x one per rate), 206 MB peak
# the delta candidates' K x (n + 1) entries: at K = 1,000 deltas of 1,001 entries `infer` took
# 0.7 s and 88 MB peak, a three-cycle noiseless `simulate` 2.2 s and 212 MB
MAX_CANDIDATE_ENTRIES = 1_000_000
# `analyze --n` rows: 100,000 took 1.3 s and 140 MB peak (steady-state), 1.7 s and 155 MB (fisher)
MAX_TABLE_ROWS = 100_000
# `simulate` rows, trajectories x cycles x (1 + 2 x trace points), each kept to the end: an
# untraced cycle took at most 0.9 KB of peak memory (noiseless) or 1.7 KB (noisy, 4 cycles a
# trajectory), a noisy one traced at 8 points (17 rows) 2.7-14 KB, so the guard's peak < 2 GB
MAX_CYCLE_ROWS = 1_000_000
# `simulate` trajectories spelled and written at a time: the chunk, not the batch, bounds the
# writer's strings, and its trajectories share spellings (a traced 2,000 at the defaults: 88 MB
# peak and 1.7-1.8 s at 16-64, 91 MB at 256, 138 MB as one chunk, 3.0 s one at a time)
WRITE_CHUNK = 64
# `optimize-schedule --grid-points`: 10^6 took 1.0-1.3 s and 407 MB peak, 10^7 ran out of memory
MAX_GRID_POINTS = 1_000_000

def _block_sector_populations(n: int, N: int, omega: float, gamma: float,
                              times: np.ndarray,
                              corrupt: bool) -> np.ndarray:
    """Symmetric-block p_R(t) from the kernels the simulator runs.

    p_R lives in the j = 0 block, so only that block is evolved: the fresh
    |S_n><S_n| is advanced by the block propagator of every time, with the
    simulator's trace-drift check, and read as the simulator reads its
    populations.  The corruption hook scales one off-diagonal drive entry of
    the generator and exponentiates the result, so the check demonstrably
    catches a wrong matrix element.
    """
    blk = sector(n, N).block(0)
    fresh = blk.dyads[0].astype(complex)
    if corrupt:
        gen = build_block(n, N, 0, omega, gamma)
        rows, cols = np.nonzero(blk.drive)
        gen[rows[0], cols[0]] *= 1.001
        x = expm(gen * times[:, None, None]) @ fresh
    else:
        props = dynamics._propagator(n, N, 0, omega, gamma, tuple(times.tolist()))
        x = dynamics._advance(fresh, (props,), (slice(None),), blk.trace[:, None])
    return dynamics._populations(blk.trace, x, blk.ss, blk.rr)[1]


def cmd_oracle_check(args: argparse.Namespace) -> int:
    omega = _rates(args)[0]
    if args.time_points < 1:
        raise DomainError(f"--time-points must be a positive integer, got {args.time_points!r}")
    if args.time_points > MAX_TIME_POINTS:
        raise ResourceError(f"--time-points {args.time_points} exceeds the guard of {MAX_TIME_POINTS}")
    cells = [f"{n},{N}" for N, n in ORACLE_CELLS]  # each cell by its --corrupt-cell name
    if args.corrupt_cell is not None and args.corrupt_cell not in cells:
        raise DomainError(f"--corrupt-cell {args.corrupt_cell!r} is not an oracle cell "
                          f"({', '.join(cells)})")
    if args.corrupt_cell is not None and args.time_points < 2:  # t = 0 alone: every cell agrees
        raise DomainError("--corrupt-cell needs --time-points of at least 2")
    if 5.0 / omega == math.inf:
        raise ResourceError(f"omega {omega:g} puts the horizon 5 / omega past float range")
    times = np.linspace(0.0, 5.0 / omega, args.time_points)
    pairs = [(dense_oracle.pure_state(dense_oracle.build_symmetric_ket(n, N), N), f * omega)
             for N, n in ORACLE_CELLS for f in ORACLE_GAMMA_FACTORS]  # cell-major, as the rows
    grids = iter(dense_oracle.evolve_dense_grid(pairs, times[-1], times.size, omega))  # one series
    rows, worst = [], 0.0
    for (N, n), cell in zip(ORACLE_CELLS, cells):
        for factor, (idx, blocks) in zip(ORACLE_GAMMA_FACTORS, grids):  # 3 grids a cell
            p_block = _block_sector_populations(
                n, N, omega, factor * omega, times, corrupt=cell == args.corrupt_cell)
            p_dense = dense_oracle.sector_populations_dense(N, blocks, idx)[1]
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

def cmd_analyze(args: argparse.Namespace) -> int:
    omega, gamma, _ = _rates(args)
    config = {"omega_rad_s": omega, "gamma_rad_s": gamma,
              "subcommand": args.analysis, "version": __version__}
    if args.analysis in ("fisher", "detection-time"):
        config["regime"] = args.regime
    if args.analysis != "optimize-schedule":
        ns = _parse_int_range(args.n)
        if (count := _extent(ns)[0]) > MAX_TABLE_ROWS:
            raise ResourceError(f"--n {args.n} gives {count} rows, more than the guard of "
                                f"{MAX_TABLE_ROWS}")

    if args.analysis == "fisher":
        rows = []
        for n in ns:
            t = (_us_to_s(args.time_us) if args.time_us is not None
                 else analysis.detection_time(args.regime, n, omega, gamma))
            rows.append({"regime": args.regime, "n": n, "t_s": t,
                         "fisher": analysis.fisher_closed_form(
                             args.regime, n, t, omega, gamma)})
    elif args.analysis == "detection-time":
        rows = [{"regime": args.regime, "n": n,
                 "t_star_s": analysis.detection_time(args.regime, n, omega, gamma)}
                for n in ns]
    elif args.analysis == "steady-state":
        rows = [{"n": n,
                 "p_no_rydberg": analysis.steady_state_populations(n)[0],
                 "p_rydberg": analysis.steady_state_populations(n)[1]}
                for n in ns]
    elif args.analysis == "optimize-schedule":
        if args.toy != "appendix-c":
            raise DomainError(f"unknown toy problem {args.toy!r}")
        if args.grid_points > MAX_GRID_POINTS:
            raise ResourceError(f"--grid-points {args.grid_points} exceeds the guard of "
                                f"{MAX_GRID_POINTS}")
        cands, prior = analysis.appendix_toy_candidates()
        grid = analysis.default_tau_grid(omega, args.grid_points)
        task = (args.cycles, cands, prior, grid, omega)
        best = analysis.optimize_schedule_global(*task)  # its tuple guard before the greedy search
        rows = [{"strategy": result.strategy, "T": i + 1,
                 "taus_us": ",".join(f"{t * 1e6:.6f}" for t in result.taus[: i + 1]),
                 "fidelity_percent": 100.0 * fid}
                for result in (analysis.optimize_schedule_local(*task), best)
                for i, fid in enumerate(result.fidelity_trace)]
        config["grid_points"] = int(grid.size)
        config["toy"] = args.toy
    _table_output({"schema": TABLE_SCHEMA, "config": config}, rows, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file mirroring the flags")
    parser.add_argument("--angular", action="store_true",
                        help="frequency values are already angular "
                             "(1e6 rad/s); no 2*pi factor is applied")
    parser.add_argument("--omega-mhz", type=float, default=2.5, help="drive Rabi frequency")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rydqnd",
        description="Photon counting in a driven Rydberg array: simulation, "
                    "inference, and analysis tools.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run seeded protocol trajectories")
    _add_common(p)
    p.add_argument("--gamma-mhz", type=float, default=0.3,
                   help="Rydberg dephasing rate (0 = noiseless)")
    p.add_argument("--tau-eit-us", type=float, default=0.3,
                   help="measurement window duration")
    p.add_argument("--schedule", choices=("fixed", "uniform-random", "adaptive-greedy"),
                   default="fixed", help="drive-time schedule")
    p.add_argument("--tau-us", type=float, default=0.21, help="fixed drive time per cycle")
    p.add_argument("--tau-min-us", type=float, default=0.05, help="uniform-random lower bound")
    p.add_argument("--tau-max-us", type=float, default=0.4, help="uniform-random upper bound")
    p.add_argument("--n-true", type=int, default=2, help="true stored photon number")
    p.add_argument("--n-atoms", type=int, default=10, help="number of atoms N")
    p.add_argument("--n-max", type=int, default=4, help="largest candidate photon number")
    p.add_argument("--candidates", help="candidate n values, e.g. '1..4'; None: 1..n-max")
    p.add_argument("--candidates-file", help="JSON file with candidate distributions")
    p.add_argument("--seed", type=int, default=0, help="base seed of every trajectory")
    p.add_argument("--trajectories", type=int, default=1, help="number of trajectories")
    p.add_argument("--max-cycles", type=int, default=25, help="cycles per trajectory at most")
    p.add_argument("--threshold", type=float, default=0.99,
                   help="posterior stopping threshold")
    p.add_argument("--eject", action="store_true",
                   help="remove the Rydberg excitation after each Rydberg outcome")
    p.add_argument("--trace-points", type=int, default=8,
                   help="sub-samples per window in the trace CSV (0 disables)")
    p.add_argument("--outdir", default="out", help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("infer", help="posterior over candidates from a record file")
    _add_common(p)
    p.add_argument("record", help="measurement record JSON file")
    p.add_argument("--gamma-mhz", type=float, default=0.0,
                   help="Rydberg dephasing rate (0 = noiseless)")
    p.add_argument("--tau-eit-us", type=float, default=0.0,
                   help="measurement window duration")
    p.add_argument("--n-atoms", type=int, default=10, help="number of atoms N")
    p.add_argument("--n-max", type=int, default=4, help="largest candidate photon number")
    p.add_argument("--candidates", help="candidate n values, e.g. '1..4'; None: 1..n-max")
    p.add_argument("--candidates-file", help="JSON file with candidate distributions")
    p.add_argument("--eject", action="store_true",
                   help="the record's Rydberg excitations were removed")
    p.add_argument("--out", help="output file ('-' or omitted for stdout)")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("oracle-check",
                       help="compare the block solver against the dense oracle")
    _add_common(p)
    p.add_argument("--time-points", type=int, default=50, help="time points per cell")
    p.add_argument("--corrupt-cell",
                   help="fault-injection hook: 'n,N' cell whose drive matrix "
                        "is deliberately perturbed")
    p.add_argument("--out", help="output file, CSV if it ends .csv")
    p.set_defaults(func=cmd_oracle_check)

    p = sub.add_parser("analyze", help="closed-form tables and schedule optimization")
    _add_common(p)
    p.add_argument("analysis",
                   choices=("fisher", "detection-time", "steady-state",
                            "optimize-schedule"))
    p.add_argument("--gamma-mhz", type=float, default=0.3, help="Rydberg dephasing rate")
    p.add_argument("--regime", choices=analysis.REGIMES, default="noiseless",
                   help="Fisher-information regime")
    p.add_argument("--n", default="1..10", help="photon numbers, e.g. '5' or '1..20'")
    p.add_argument("--time-us", type=float,
                   help="evaluation time for fisher; None: the detection time")
    p.add_argument("--toy", default="appendix-c",
                   help="named toy problem for optimize-schedule")
    p.add_argument("--cycles", type=int, default=2, help="schedule length T")
    p.add_argument("--grid-points", type=int, default=800, help="drive times in the grid")
    p.add_argument("--out", help="output file, CSV if it ends .csv")
    p.set_defaults(func=cmd_analyze)

    for p in sub.choices.values():
        p.formatter_class = argparse.ArgumentDefaultsHelpFormatter
    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing does not change it."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parser().parse_args(argv)
    try:
        if args.config:
            # the subcommand's own parser, over the file's values: argparse
            # fills a default only where the namespace holds no value yet
            own = next(a for a in _parser()._actions
                       if isinstance(a, argparse._SubParsersAction)).choices[args.command]
            args = own.parse_args(argv[argv.index(args.command) + 1:],
                                  argparse.Namespace(**_config_values(args.config, own)))
        return args.func(args)
    except InconsistentRecordError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except ResourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except IntegratorError as exc:  # a numerical limit: propagation outside its tolerance
        print(f"error: {exc} (residual {exc.residual})", file=sys.stderr)
        return EXIT_RESOURCE
    except (DomainError, PreconditionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads: seeded op plans, the op itself and its output check.

Each workload is a closed loop with one caller.  Ops come in rounds; every
round has the same stratified make-up (photon numbers, record lengths or
schedules), so a run of whole rounds always measures the same mix.  The
program sees only generated inputs: per-op seeds, n_true draws, the schedule
rotation and record files.

Importing this module imports ``rydqnd``; the worker puts the program's
``src`` directory on ``sys.path`` first.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from rydqnd import cli, engine
from rydqnd.dynamics import evolve_blocks, measure_block, symmetric_state_blocks
from rydqnd.records import NO_RYDBERG, RYDBERG, FockDistribution, MeasurementRecord, Posterior

import reference

# The paper's and the CLI's physics defaults.
OMEGA = 2 * math.pi * 2.5e6
GAMMA = 2 * math.pi * 0.3e6
TAU_EIT = 0.3e-6
N_ATOMS = 10
CANDIDATES = (1, 2, 3, 4)
TOL = 1e-9
NOISELESS_FAIL_CYCLES = 1900
# The warm-up op does the same work for every workload seed, so set-up time
# does not depend on the seed.
WARMUP_SEED = 0


class OpFailed(Exception):
    """The program exited non-zero for this op."""


class WrongOutput(Exception):
    """The op returned, but its output failed the benchmark's check."""


@dataclass
class OpResult:
    items: int = 0
    cycles: int = 0
    decided: int = 0  # items whose generating photon number is known
    hits: int = 0  # ... and whose MLE candidate equals it
    counts: list[int] = field(default_factory=list)  # distillation outcomes


def round_rng(seed: int, r: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1, r)))


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise WrongOutput(message)


def _check_unit(values, what: str) -> None:
    values = np.asarray(values, dtype=float)
    _check(bool(np.all((values >= -TOL) & (values <= 1 + TOL))), f"{what} outside [0, 1]")


def _check_normalised(rows, what: str) -> None:
    sums = np.asarray(rows, dtype=float).sum(axis=-1)
    _check(bool(np.all(np.abs(sums - 1.0) <= TOL)), f"{what} does not sum to 1")


class Workload:
    name = ""

    def __init__(self, workdir: Path, seed: int, tiny: bool):
        self.seed = seed
        self.tiny = tiny
        self.clear_stats()

    def clear_stats(self) -> None:
        """Forget input statistics gathered so far, e.g. by the warm-up op.

        The worker turns `noting` off after the first round: the statistics
        describe that round, and memory held by the benchmark stays small
        so it does not show in the program's peak RSS.
        """
        self.noting = True
        self.lengths: list[int] = []
        self.taus: set[float] = set()
        self.tau_count = 0

    def _note_record(self, taus) -> None:
        if not self.noting:
            return
        self.lengths.append(len(taus))
        self.taus.update(taus)
        self.tau_count += len(taus)

    def prepare(self, op) -> None:
        """Untimed clean-up before an op."""

    def finish(self, results: list) -> None:
        """Checks over the worker's op records as a whole; may mark ops failed."""

    def input_properties(self) -> dict:
        return {
            "mean_record_cycles": float(np.mean(self.lengths)) if self.lengths else 0.0,
            "distinct_tau_share": len(self.taus) / self.tau_count if self.tau_count else 0.0,
        }


class NoisySimulate(Workload):
    """`rydqnd simulate` at the CLI's noisy defaults, one n_true per op."""

    name = "noisy_simulate"

    def __init__(self, workdir, seed, tiny):
        super().__init__(workdir, seed, tiny)
        self.trajectories = 1 if tiny else 2
        self.outdir = workdir / "simulate"

    def _op(self, n: int, seed: int) -> dict:
        args = ["simulate", "--n-true", str(n), "--trajectories", str(self.trajectories),
                "--seed", str(seed), "--outdir", str(self.outdir)]
        if self.tiny:
            args += ["--max-cycles", "3"]
        return {"n": n, "args": args}

    def warmup_op(self) -> dict:
        return self._op(2, WARMUP_SEED)

    def rounds(self):
        for r in itertools.count():
            rng = round_rng(self.seed, r)
            ns = rng.permutation(CANDIDATES)
            seeds = rng.integers(0, 2**31, size=ns.size)
            yield [self._op(int(n), int(s)) for n, s in zip(ns, seeds)]

    def prepare(self, op) -> None:
        shutil.rmtree(self.outdir, ignore_errors=True)

    def call(self, op):
        return cli.main(op["args"])

    def check(self, op, rc) -> OpResult:
        if rc != 0:
            raise OpFailed(f"exit {rc}")
        lines = (self.outdir / "trajectories.jsonl").read_text().splitlines()
        header = json.loads(lines[0])
        _check(header.get("schema") == "rydqnd-trajectories-v1", "bad trajectories header")
        _check(len(lines) == 1 + self.trajectories, f"{len(lines) - 1} trajectory lines")
        res = OpResult()
        for i, line in enumerate(lines[1:]):
            log = json.loads(line)
            _check(log["n_true"] == op["n"], "trajectory n_true differs from the request")
            _check_normalised(log["posteriors"], "posterior")
            _check_unit(log["fidelities"], "fidelity")
            with open(self.outdir / f"trace_{i:03d}.csv", newline="") as fh:
                rows = list(csv.DictReader(text for text in fh if not text.startswith("#")))
            _check(len(rows) > 0, "empty trace")
            _check_unit([[float(r["p_no_rydberg"]), float(r["p_rydberg"])] for r in rows],
                        "trace probability")
            _check_unit([float(r["fidelity"]) for r in rows], "trace fidelity")
            _check_normalised([[float(v) for k, v in r.items() if k.startswith("w_")]
                               for r in rows], "trace posterior")
            taus = [e["tau_s"] for e in log["record"]]
            self._note_record(taus)
            res.items += 1
            res.cycles += len(taus)
            res.decided += 1
            res.hits += int(CANDIDATES[log["final_candidate"]] == op["n"])
        return res


class NoiselessDistill(Workload):
    """`engine.run_batch` on a photon-number superposition, rotating schedules."""

    name = "noiseless_distill"
    born = (0.5, 0.3, 0.2)
    born_ops = 5
    schedules = (
        ("fixed", engine.Schedule.fixed(1.596)),
        ("uniform-random", engine.Schedule.uniform_random(0.1, 1.2)),
        ("adaptive-greedy", engine.Schedule.adaptive_greedy()),
    )

    def __init__(self, workdir, seed, tiny):
        super().__init__(workdir, seed, tiny)
        self.batch = 12 if tiny else 200
        self.initial = FockDistribution(np.array([0.0, *self.born]))

    def _params(self, op) -> engine.ProtocolParams:
        return engine.ProtocolParams(
            omega=1.0, gamma=0.0, tau_eit=0.0, N=6, n_max=3, mode=engine.NOISELESS_PURE,
            schedule=self.schedules[op["schedule"]][1], seed=op["seed"], max_cycles=500,
            candidates=[FockDistribution.delta(n, 3) for n in (1, 2, 3)],
            prior=Posterior.uniform(3))

    def warmup_op(self) -> dict:
        return {"schedule": 0, "seed": WARMUP_SEED}

    def rounds(self):
        for r in itertools.count():
            seeds = round_rng(self.seed, r).integers(0, 2**31, size=len(self.schedules))
            yield [{"schedule": k, "seed": int(s)} for k, s in enumerate(seeds)]

    def call(self, op):
        return engine.run_batch(self.initial, self._params(op), self.batch)

    def check(self, op, logs) -> OpResult:
        _check(len(logs) == self.batch, f"{len(logs)} logs for {self.batch} trajectories")
        res = OpResult(counts=[0] * len(self.born))
        for log in logs:
            _check(log.converged, "trajectory did not reach the posterior threshold")
            _check_normalised(log.posteriors, "posterior")
            res.counts[log.final_candidate] += 1
            taus = [tau for tau, _ in log.record.entries]
            self._note_record(taus)
            res.items += 1
            res.cycles += len(taus)
        return res

    def _off_born(self, sample: list) -> str:
        """Why a sample's outcome counts are not within 3 sigma of the Born weights."""
        counts = np.sum([r["result"].counts for r in sample], axis=0)
        total = counts.sum()
        for c, p in zip(counts, self.born):
            if abs(c - total * p) > 3 * math.sqrt(total * p * (1 - p)):
                return f"counts {counts.tolist()} of {total} outside 3 sigma of {self.born}"
        return ""

    def finish(self, results) -> None:
        """Each schedule's outcome counts stay within 3 sigma of the Born weights.

        Successive ops of a schedule form samples of at least `born_ops` ops
        (1000 trajectories), a size that does not grow with throughput:
        stopping at a 0.99 posterior moves about 0.7% of counts between
        candidates, which a large enough sample would flag in a correct
        program.  A schedule fails when two successive samples, or its only
        sample, lie outside 3 sigma; one chance excursion (0.7% of samples)
        would otherwise fail about one seed in fifty.
        """
        for k, (label, _) in enumerate(self.schedules):
            mine = [r for r in results if r["op"]["schedule"] == k and r["ok"]]
            n = max(1, len(mine) // self.born_ops)
            samples = [mine[len(mine) * i // n: len(mine) * (i + 1) // n] for i in range(n)]
            off = [self._off_born(sample) if sample else "" for sample in samples]
            for i, why in enumerate(off):
                if why and (n == 1 or (i > 0 and off[i - 1])):
                    for r in samples[i] + (samples[i - 1] if i else []):
                        r.update(ok=False, wrong=True, reason=f"{label}: {why}")


class InferRecords(Workload):
    """`rydqnd infer` on pre-generated noisy and noiseless record files."""

    name = "infer_records"

    def __init__(self, workdir, seed, tiny):
        super().__init__(workdir, seed, tiny)
        self.record_dir = workdir / "records"
        self.out = workdir / "posterior.json"
        manifest = self.record_dir / "manifest.json"
        self.manifest = json.loads(manifest.read_text()) if manifest.exists() else None

    # -- input generation (run in its own process, before any timing) --------

    def _write(self, name: str, kind: str, n: int, taus, rydberg) -> dict:
        entries = [(float(t), RYDBERG if m else NO_RYDBERG) for t, m in zip(taus, rydberg)]
        path = self.record_dir / f"{name}.json"
        path.write_text(MeasurementRecord(entries).to_json())
        return {"path": str(path), "kind": kind, "n": n, "length": len(entries)}

    def _noisy(self, name: str, rng, n: int, length: int) -> dict:
        """Sampled with the engine's noisy cycle; the j=0 block alone sets the odds."""
        taus = rng.uniform(0.05e-6, 0.4e-6, length)
        blocks = symmetric_state_blocks(n, N_ATOMS)[:1]
        rydberg = []
        for tau in taus:
            blocks = evolve_blocks(blocks, float(tau), OMEGA, GAMMA, drive_on=True)
            outcome, blocks, _ = measure_block(blocks, TAU_EIT, GAMMA, rng.random())
            rydberg.append(outcome == RYDBERG)
        return self._write(name, "noisy", n, taus, rydberg)

    def _noiseless(self, name: str, rng, n: int, length: int) -> dict:
        taus = rng.uniform(0.05e-6, 0.4e-6, length)
        return self._write(name, "noiseless", n, taus,
                           reference.sample_noiseless(rng, taus, n, OMEGA))

    def _round(self, r: int) -> list[dict]:
        """Eight noisy and eight noiseless records (one each when tiny), shuffled.

        Lengths are the midpoints of eight strata, linear over 50-300 cycles
        for noisy records and logarithmic over 1e2-1e4 for noiseless ones, and
        record k has n = 1 + k mod 4, the same in every round and for every
        seed: an op's time follows its length and n, so drawing them would
        move the median latency from seed to seed.  Every round thus repeats
        the same sixteen kinds of op, and the median latency falls on a group
        of like ops instead of on one op.  The seed draws every cycle's tau
        and outcome and the order of the records.
        """
        rng = round_rng(self.seed, r)
        per_kind = 1 if self.tiny else 8

        grid = (np.arange(per_kind) + 0.5) / per_kind

        photon_numbers = [CANDIDATES[k % len(CANDIDATES)] for k in range(per_kind)]

        noisy_len = (8 + 8 * grid if self.tiny else 50 + 250 * grid).astype(int)
        clean_len = (10 ** (1 + grid) if self.tiny else 10 ** (2 + 2 * grid)).astype(int)
        records = [self._noisy(f"r{r}-noisy{k}", rng, int(n), int(noisy_len[k]))
                   for k, n in enumerate(photon_numbers)]
        records += [self._noiseless(f"r{r}-clean{k}", rng, int(n), int(clean_len[k]))
                    for k, n in enumerate(photon_numbers)]
        return [records[i] for i in rng.permutation(len(records))]

    def generate(self, rounds: int) -> None:
        """Write a warm-up record, then `rounds` rounds.

        Round r depends only on the seed and r, so a longer generation run
        extends a shorter one without changing it.
        """
        self.record_dir.mkdir(parents=True, exist_ok=True)
        warm_rng = np.random.default_rng(WARMUP_SEED)
        doc = {"warmup": self._noisy("warmup", warm_rng, 2, 4 if self.tiny else 20),
               "rounds": [self._round(r) for r in range(rounds)]}
        (self.record_dir / "manifest.json").write_text(json.dumps(doc))

    # -- ops ------------------------------------------------------------------

    def warmup_op(self) -> dict:
        return self.manifest["warmup"]

    def rounds(self):
        yield from self.manifest["rounds"]

    def prepare(self, op) -> None:
        self.out.unlink(missing_ok=True)
        if not self.noting:
            return
        record = MeasurementRecord.from_json(Path(op["path"]).read_text())
        self._note_record([tau for tau, _ in record.entries])
        if op["kind"] == "noiseless":
            self.noiseless += 1
            self.noiseless_long += int(op["length"] > NOISELESS_FAIL_CYCLES)

    def call(self, op):
        noise = (["--gamma-mhz", "0.3", "--tau-eit-us", "0.3", "--n-atoms", str(N_ATOMS)]
                 if op["kind"] == "noisy" else ["--gamma-mhz", "0"])
        return cli.main(["infer", op["path"], *noise, "--candidates", "1..4",
                         "--out", str(self.out)])

    def check(self, op, rc) -> OpResult:
        if rc != 0:
            raise OpFailed(f"exit {rc} on a {op['kind']} record of {op['length']} cycles")
        doc = json.loads(self.out.read_text())
        weights = np.asarray(doc["weights"], dtype=float)
        trace = np.asarray(doc["trace"], dtype=float)
        _check(trace.shape == (op["length"] + 1, len(CANDIDATES)), "trace has the wrong shape")
        _check_normalised(weights, "posterior")
        _check_normalised(trace, "posterior trace")
        if op["kind"] == "noiseless":
            record = MeasurementRecord.from_json(Path(op["path"]).read_text())
            taus = [tau for tau, _ in record.entries]
            rydberg = [m == RYDBERG for _, m in record.entries]
            expected = reference.noiseless_posterior_trace(taus, rydberg, CANDIDATES, OMEGA)
            deviation = float(np.max(np.abs(trace - expected)))
            _check(deviation <= TOL, f"posterior deviates from the reference by {deviation:.3e}")
        return OpResult(items=1, cycles=op["length"], decided=1,
                        hits=int(CANDIDATES[int(np.argmax(weights))] == op["n"]))

    def clear_stats(self) -> None:
        super().clear_stats()
        self.noiseless = 0
        self.noiseless_long = 0

    def input_properties(self) -> dict:
        props = super().input_properties()
        props["noiseless_over_1900_share"] = (self.noiseless_long / self.noiseless
                                              if self.noiseless else 0.0)
        return props


class OracleCheck(Workload):
    """`rydqnd oracle-check` at a reduced number of time points."""

    name = "oracle_check"
    cells = 15  # five (N, n) cells times three dephasing rates

    def __init__(self, workdir, seed, tiny):
        super().__init__(workdir, seed, tiny)
        self.points = 1 if tiny else 3
        self.out = workdir / "oracle.json"

    def warmup_op(self) -> dict:
        # A single time point (t = 0) warms imports and caches without the
        # seconds-long dense integration.
        return {"points": 1}

    def rounds(self):
        while True:
            yield [{"points": self.points}]

    def prepare(self, op) -> None:
        self.out.unlink(missing_ok=True)

    def call(self, op):
        return cli.main(["oracle-check", "--time-points", str(op["points"]),
                         "--out", str(self.out)])

    def check(self, op, rc) -> OpResult:
        if rc != 0:
            raise OpFailed(f"exit {rc}")
        doc = json.loads(self.out.read_text())
        _check(doc["passed"] is True, "oracle check did not pass")
        _check(doc["worst_deviation"] <= 1e-6, f"worst deviation {doc['worst_deviation']:.3e}")
        _check(len(doc["rows"]) == self.cells and all(r["pass"] for r in doc["rows"]),
               "oracle cells missing or failing")
        return OpResult(items=self.cells, cycles=self.cells * op["points"])

    def input_properties(self) -> dict:
        return {"time_points": self.points}


WORKLOADS = {w.name: w for w in (NoisySimulate, NoiselessDistill, InferRecords, OracleCheck)}

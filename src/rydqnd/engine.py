"""Seeded Monte Carlo simulation of full observation-stage experiments.

A trajectory interleaves driven oscillation windows with projective Rydberg
measurements, optionally ejecting the detected Rydberg atom, while a
sequential Bayesian posterior over candidate initial distributions and (in
the noisy mode) a retrieval-fidelity trace are logged.  Trajectory i of a
batch draws its generator from spawn i of the batch seed, so results do not
depend on how a batch is partitioned.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import dynamics as dyn
from .errors import DomainError, ScheduleExhaustedError
from .inference import Mixture, NoiseParams, record_likelihoods
from .records import FockDistribution, MeasurementRecord, NO_RYDBERG, Posterior, RYDBERG

NOISELESS_PURE = "noiseless-pure"
NOISY_FIXED_N = "noisy-fixed-n"


@dataclass(frozen=True)
class Schedule:
    """Drive-time strategy: fixed, uniform-random, precomputed list, or greedy."""

    kind: str
    tau: float | None = None
    tau_min: float | None = None
    tau_max: float | None = None
    taus: tuple[float, ...] | None = None
    grid_points: int = 800

    def __post_init__(self):
        times = [t for t in (self.tau, self.tau_min, self.tau_max) if t is not None]
        if not all(math.isfinite(t) and t >= 0 for t in times + list(self.taus or ())):
            raise DomainError("drive times must be finite and non-negative")
        if self.tau_min is not None and self.tau_max is not None and self.tau_min > self.tau_max:
            raise DomainError("need tau_min <= tau_max")
        if self.grid_points < 1:
            raise DomainError("need grid_points >= 1")

    @staticmethod
    def fixed(tau: float) -> "Schedule":
        return Schedule("fixed", tau=tau)

    @staticmethod
    def uniform_random(tau_min: float, tau_max: float) -> "Schedule":
        return Schedule("uniform-random", tau_min=tau_min, tau_max=tau_max)

    @staticmethod
    def precomputed(taus) -> "Schedule":
        return Schedule("precomputed-list", taus=tuple(taus))

    @staticmethod
    def adaptive_greedy(grid_points: int = 800) -> "Schedule":
        return Schedule("adaptive-greedy", grid_points=grid_points)

    def to_dict(self) -> dict:
        out = {"kind": self.kind}
        for key in ("tau", "tau_min", "tau_max"):
            val = getattr(self, key)
            if val is not None:
                out[key] = val
        if self.taus is not None:
            out["taus"] = list(self.taus)
        if self.kind == "adaptive-greedy":
            out["grid_points"] = self.grid_points
        return out


@dataclass
class ProtocolParams:
    """Everything needed to reproduce one experiment batch."""

    omega: float
    gamma: float = 0.0
    tau_eit: float = 0.0
    N: int = 10
    n_max: int = 4
    mode: str = NOISY_FIXED_N
    schedule: Schedule = field(default_factory=lambda: Schedule.fixed(0.1e-6))
    seed: int = 0
    max_cycles: int = 50
    ejection_enabled: bool = False
    threshold: float = 0.99
    candidates: list[FockDistribution] | None = None
    prior: Posterior | None = None
    trace_points: int = 0

    def __post_init__(self):
        if not 0 < self.omega < math.inf:
            raise DomainError("omega must be positive and finite")
        if not (0 <= self.gamma < math.inf and 0 <= self.tau_eit < math.inf):
            raise DomainError("gamma and tau_eit must be finite and non-negative")
        if not 1 <= self.n_max <= self.N:
            raise DomainError("need 1 <= n_max <= N")
        if self.max_cycles < 1:
            raise DomainError("need max_cycles >= 1")
        if self.trace_points < 0 or self.seed < 0:
            raise DomainError("need trace_points >= 0 and seed >= 0")
        if math.isnan(self.threshold):
            raise DomainError("threshold must be a number")
        if self.mode not in (NOISELESS_PURE, NOISY_FIXED_N):
            raise DomainError(f"unknown mode {self.mode!r}")
        n = max((max(c.support()) for c in self.resolved_candidates()[0]), default=0)
        if n > self.N:  # N atoms store at most N photons
            raise DomainError(f"need 0 <= n <= N, got n={n}, N={self.N}")

    def resolved_candidates(self) -> tuple[list[FockDistribution], Posterior]:
        cands = self.candidates
        if cands is None:
            cands = [FockDistribution.delta(n, self.n_max) for n in range(1, self.n_max + 1)]
        prior = self.prior if self.prior is not None else Posterior.uniform(len(cands))
        return cands, prior

    def noise(self) -> NoiseParams | None:
        return None if self.mode == NOISELESS_PURE else NoiseParams(self.gamma, self.tau_eit, self.N)

    def to_dict(self) -> dict:
        cands, prior = self.resolved_candidates()
        return {
            "omega_rad_s": self.omega,
            "gamma_rad_s": self.gamma,
            "tau_eit_s": self.tau_eit,
            "N": self.N,
            "n_max": self.n_max,
            "mode": self.mode,
            "schedule": self.schedule.to_dict(),
            "seed": self.seed,
            "max_cycles": self.max_cycles,
            "ejection_enabled": self.ejection_enabled,
            "threshold": self.threshold,
            "candidates": [c.tolist() for c in cands],
            "prior": prior.weights.tolist(),
            "trace_points": self.trace_points,
        }


def schedule_next_tau(schedule: Schedule, history: list[float], params: ProtocolParams) -> float:
    """Next drive time of a schedule that draws nothing, given the earlier ones."""
    if schedule.kind == "fixed":
        return float(schedule.tau)
    if schedule.kind == "precomputed-list":
        if len(history) >= len(schedule.taus):
            raise ScheduleExhaustedError(
                f"precomputed schedule has only {len(schedule.taus)} entries")
        return float(schedule.taus[len(history)])
    if schedule.kind == "adaptive-greedy":
        from .analysis import default_tau_grid, greedy_next_tau
        cands, prior = params.resolved_candidates()
        grid = default_tau_grid(params.omega, schedule.grid_points)
        return greedy_next_tau(history, cands, prior, grid, params.omega, params.noise(),
                               params.ejection_enabled)
    raise DomainError(f"schedule kind {schedule.kind!r} has no drive time every trajectory shares")


def sample_initial(dist, params: ProtocolParams) -> dyn.PureCollectiveState:
    """The stored pure state of a noiseless trajectory; N atoms store at most N photons."""
    if isinstance(dist, FockDistribution):
        amps = np.sqrt(dist.p.astype(float))
    elif np.isscalar(dist):
        amps = np.sqrt(FockDistribution.delta(int(dist), max(int(dist), params.n_max)).p)
    else:
        amps = np.asarray(dist, dtype=complex)
    n = np.flatnonzero(amps).max(initial=0)
    if n > params.N:
        raise DomainError(f"need 0 <= n <= N, got n={n}, N={params.N}")
    return dyn.PureCollectiveState.from_stored_amplitudes(amps)


def _sample_n(dist, rng: np.random.Generator) -> int:
    """The photon number of a noisy trajectory, drawn from a FockDistribution (exact for every
    logged observable: number-diagonal blocks evolve on their own), else given."""
    if isinstance(dist, FockDistribution):
        return int(rng.choice(dist.p.size, p=dist.p))
    return int(dist)


# a trace row of `TrajectoryLog.to_json`: keys sorted, the phase one of the engine's names
_TRACE_ROW = ('{"fidelity": %r, "p_no_rydberg": %r, "p_rydberg": %r, "phase": "%s", '
              '"posterior": %s, "time_s": %r}')


@dataclass
class TrajectoryLog:
    """Everything observable about one simulated experiment."""

    record: MeasurementRecord
    posteriors: list[list[float]]
    fidelities: list[float]
    trace: list[dict]
    ejections: int
    n_true: int | None
    final_candidate: int
    converged: bool
    seed_key: list[int]
    params: dict

    def to_json(self) -> str:
        """`json.dumps(..., sort_keys=True)` of the fields; "trace", last, in one %-format
        per row (`%r` is `float.__repr__`; a row whose numbers do not sum to a finite
        float goes through json), each posterior list (a cycle's rows share one) once."""
        doc = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "trace"}
        doc["record"] = [{"tau_s": t, "outcome": m} for t, m in self.record.entries]
        posts = {id(row["posterior"]): row["posterior"] for row in self.trace}
        posts = {key: "[%s]" % ", ".join(map(float.__repr__ if math.isfinite(sum(post))
                                             else json.dumps, post)) for key, post in posts.items()}
        rows = []
        for row in self.trace:
            f, s, r, t = row["fidelity"], row["p_no_rydberg"], row["p_rydberg"], row["time_s"]
            text = row["phase"], posts[id(row["posterior"])]
            total = f + s + r + t  # a float subclass (numpy's) sums to its own type
            rows.append(_TRACE_ROW % (f, s, r, *text, t) if type(total) is float
                        and math.isfinite(total) else
                        _TRACE_ROW.replace("%r", "%s") % (*map(json.dumps, (f, s, r)), *text,
                                                          json.dumps(t)))
        return '%s, "trace": [%s]}' % (json.dumps(doc, sort_keys=True)[:-1], ", ".join(rows))


def _shared_taus(params: ProtocolParams):
    """Drive time per cycle index for schedules that draw nothing, or None.

    Fixed, precomputed and adaptive-greedy drive times depend only on the
    earlier drive times, so every trajectory of a batch gets the same
    sequence; each entry is computed once, when a trajectory first needs it.
    """
    if params.schedule.kind == "uniform-random":
        return None
    table: list[float] = []

    def tau_at(cycle: int) -> float:
        while len(table) <= cycle:
            table.append(schedule_next_tau(params.schedule, table, params))
        return table[cycle]

    return tau_at


def _run(initial, params: ProtocolParams, rngs: list[np.random.Generator],
         seed_keys: list[tuple[int, ...]]) -> list[TrajectoryLog]:
    """Trajectories advanced together, trajectory i drawing from rngs[i].

    Each cycle drives, measures, collapses, ejects and updates the posterior
    of every active trajectory at once; a trajectory leaves when its
    posterior reaches the threshold.  The states are a `dynamics.PureBatch`
    in noiseless mode and a `dynamics.BlockBatch` in noisy mode.  Each generator
    yields its draws in the order of a lone trajectory: the initial photon
    number (noisy mode, Fock-distribution input only), then per cycle the
    drive time (uniform-random schedules only) and the measurement.  Cycle
    draws are taken in blocks of cycles, one block per generator at a time.
    """
    cands, prior = params.resolved_candidates()
    n_traj, points = len(rngs), params.trace_points
    mixture = Mixture(cands, prior)
    likelihoods = record_likelihoods(mixture.ns, params.omega, params.noise(),
                                     params.ejection_enabled, np.zeros(n_traj, dtype=int))
    if params.mode == NOISELESS_PURE:
        states, n_true = dyn.PureBatch(sample_initial(initial, params), n_traj), [None] * n_traj
    else:
        n_true = [_sample_n(initial, rng) for rng in rngs]
        states = dyn.BlockBatch(n_true, params.N, params.gamma, params.tau_eit)
    tau_at = _shared_taus(params)
    per_cycle = 1 if tau_at else 2  # the measurement's draw, after the drive time's
    if not tau_at:  # drawn as Generator.uniform draws them
        lo = float(params.schedule.tau_min)
        span = float(params.schedule.tau_max) - lo

    ids = np.arange(n_traj)  # trajectory of each active row
    draws, first_draw, block = np.empty((n_traj, 0)), 0, 8
    ejections, final = np.zeros((2, n_traj), dtype=int)
    converged, t_now = np.zeros(n_traj, dtype=bool), np.zeros(n_traj)
    cycles = []  # per cycle: (ids, taus, rydberg, weights, fidelities) of its rows
    segments = []  # traced phases: (phase, posterior number, trajectories, their rows)

    def trace(phase: str, who: np.ndarray, posterior: int, times: np.ndarray, read) -> None:
        """Trace rows of trajectories who at times, (rows,) or (rows, sub-steps)."""
        if len(who):
            rows = np.stack((times, *read), axis=-1).reshape(len(who), -1, 4)
            segments.append((phase, posterior, who.tolist(), rows.tolist()))

    steps = dts = None
    if points:
        trace("init", ids, 0, t_now, states.sectors())
        dts = np.linspace(states.window / points, states.window, points) if states.window else None

    for cycle in range(params.max_cycles):
        if ids.size == 0:
            break
        if per_cycle * (cycle + 1) > first_draw + draws.shape[1]:
            block = min(2 * block, params.max_cycles - cycle)
            first_draw = per_cycle * cycle
            draws = np.array([rngs[i].random(per_cycle * block) for i in ids.tolist()])
        col = per_cycle * cycle - first_draw
        taus = np.full(ids.size, tau_at(cycle)) if tau_at else lo + span * draws[:, col]

        if points:  # linspace is exact for times > 0 and ends at tau
            driven = np.flatnonzero(taus > 0)
            steps = np.linspace(taus[driven] / points, taus[driven], points, axis=-1)
        read = states.drive(taus, params.omega, steps)
        if points:
            trace("drive", ids[driven], cycle, t_now[ids[driven], None] + steps, read)
        t_now[ids] += taus
        rydberg, _, window = states.measure(draws[:, col + per_cycle - 1],
                                            params.ejection_enabled, dts)
        if window is not None:
            trace("measure", ids, cycle, t_now[ids, None] + dts, window)
        t_now[ids] += states.window
        if params.ejection_enabled:
            ejections[ids] += rydberg

        likelihoods.update(taus, rydberg)
        weights = mixture.posterior(likelihoods.log_l)
        collapse = states.sectors() if points else None
        cycles.append((ids, taus, rydberg, weights, collapse[2] if points else states.fidelity()))
        if points:
            trace("collapse", ids, cycle + 1, t_now[ids], collapse)

        final[ids] = np.argmax(weights, axis=1)
        done = weights.max(axis=1) >= params.threshold
        if np.any(done):
            converged[ids[done]] = True
            keep = ~done
            ids, draws = ids[keep], draws[keep]
            states.take(keep)
            likelihoods.take(keep)

    if not n_traj:
        return []
    who, *columns = map(np.concatenate, zip(*cycles))  # each trajectory's rows in order
    order = np.argsort(who, kind="stable")
    bounds = np.cumsum(np.bincount(who, minlength=n_traj)).tolist()
    taus, rydberg, later, fids = ([col[start:stop] for start, stop in zip([0, *bounds], bounds)]
                                  for col in (c[order].tolist() for c in columns))
    posteriors = [[prior.weights.tolist(), *w] for w in later]
    traces = [[] for _ in range(n_traj)]
    for phase, k, who, rows in segments:
        for i, values in zip(who, rows):
            post = posteriors[i][k]
            traces[i] += [{"time_s": t, "phase": phase, "p_no_rydberg": p_s, "p_rydberg": p_r,
                           "fidelity": fid, "posterior": post} for t, p_s, p_r, fid in values]
    config = params.to_dict()
    outcomes = [[RYDBERG if ryd else NO_RYDBERG for ryd in row] for row in rydberg]
    return [TrajectoryLog(record=MeasurementRecord(list(zip(taus[i], outcomes[i]))),
                          posteriors=posteriors[i], fidelities=fids[i], trace=traces[i],
                          ejections=int(ejections[i]), n_true=n_true[i],
                          final_candidate=int(final[i]), converged=bool(converged[i]),
                          seed_key=list(seed_keys[i]), params=config)
            for i in range(n_traj)]


def _seeded(params: ProtocolParams, seed_key: tuple[int, ...]) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(params.seed, spawn_key=seed_key))


def run_protocol(initial, params: ProtocolParams,
                 seed_key: tuple[int, ...] = ()) -> TrajectoryLog:
    """Simulate one experiment; deterministic given params.seed and seed_key."""
    return _run(initial, params, [_seeded(params, seed_key)], [seed_key])[0]


def run_batch(initial, params: ProtocolParams, n_trajectories: int) -> list[TrajectoryLog]:
    """Independent seeded trajectories; trajectory i uses spawn key (i,)."""
    keys = [(i,) for i in range(n_trajectories)]
    return _run(initial, params, [_seeded(params, key) for key in keys], keys)

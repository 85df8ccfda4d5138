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
from .analysis import MAX_TRACE_POINTS, default_tau_grid, greedy_next_tau
from .errors import DomainError, ResourceError, ScheduleExhaustedError
from .inference import Mixture, NoiseParams, record_likelihoods
from .records import FockDistribution, MeasurementRecord, NO_RYDBERG, Posterior, RYDBERG

NOISELESS_PURE = "noiseless-pure"
NOISY_FIXED_N = "noisy-fixed-n"


@dataclass(frozen=True)
class Schedule:
    """Drive-time strategy: fixed, uniform-random, precomputed list, or greedy."""

    # each kind, and the fields its drive times come from
    KINDS = {"fixed": ("tau",), "uniform-random": ("tau_min", "tau_max"),
             "precomputed-list": ("taus",), "adaptive-greedy": ()}

    kind: str
    tau: float | None = None
    tau_min: float | None = None
    tau_max: float | None = None
    taus: tuple[float, ...] | None = None
    grid_points: int = 800

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise DomainError(f"unknown schedule kind {self.kind!r}")
        for key in self.KINDS[self.kind]:
            if getattr(self, key) is None:
                raise DomainError(f"a {self.kind} schedule needs {key}")
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
        if self.trace_points > MAX_TRACE_POINTS:
            raise ResourceError(f"trace_points {self.trace_points} exceeds the guard of "
                                f"{MAX_TRACE_POINTS} sub-steps per phase")
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


# a trace row of `TrajectoryLog.to_json`: keys sorted, the phase one of `PHASES`
_TRACE_ROW = ('{"fidelity": %s, "p_no_rydberg": %s, "p_rydberg": %s, "phase": "%s", '
              '"posterior": %s, "time_s": %s}')
PHASES = ("init", "drive", "measure", "collapse")


class Trace:
    """A trajectory's trace rows as columns: ``values`` (4, rows) holds each row's
    time_s, p_no_rydberg, p_rydberg and fidelity, ``codes`` (2, rows) its phase (in
    `PHASES`) and posterior (in ``posteriors``).  Iterating gives the rows as dicts."""

    def __init__(self, values: np.ndarray, codes: np.ndarray, posteriors: list[list[float]]):
        self.values, self.codes, self.posteriors = values, codes, posteriors

    def __len__(self) -> int:
        return self.values.shape[1]

    def __iter__(self):
        for t, s, r, f, phase, post in zip(*self.values.tolist(), *self.codes.tolist()):
            yield {"time_s": t, "phase": PHASES[phase], "p_no_rydberg": s, "p_rydberg": r,
                   "fidelity": f, "posterior": self.posteriors[post]}


@dataclass
class TrajectoryLog:
    """Everything observable about one simulated experiment."""

    record: MeasurementRecord
    posteriors: list[list[float]]
    fidelities: list[float]
    trace: Trace
    ejections: int
    n_true: int | None
    final_candidate: int
    converged: bool
    seed_key: list[int]
    params: dict

    def to_json(self) -> str:
        """`json.dumps(..., sort_keys=True)` of the fields, the trace as its list of
        rows; "trace", last, in one %-format per row, from its columns and posterior
        lists each written by json once."""
        doc = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "trace"}
        doc["record"] = [{"tau_s": t, "outcome": m} for t, m in self.record.entries]
        posts = [json.dumps(post) for post in self.trace.posteriors]
        columns = (json.dumps(col)[1:-1].split(", ") for col in self.trace.values.tolist())
        rows = [_TRACE_ROW % (f, s, r, PHASES[phase], posts[post], t)
                for t, s, r, f, phase, post in zip(*columns, *self.trace.codes.tolist())]
        return '%s, "trace": [%s]}' % (json.dumps(doc, sort_keys=True)[:-1], ", ".join(rows))


def _run(initial, params: ProtocolParams, rngs: list[np.random.Generator],
         seed_keys: list[tuple[int, ...]]) -> list[TrajectoryLog]:
    """Trajectories advanced together, trajectory i drawing from rngs[i].

    Each cycle drives, measures, collapses, ejects and updates the posterior
    of every active trajectory at once; a trajectory leaves when its
    posterior reaches the threshold.  The states are a `dynamics.PureBatch` in
    noiseless mode, a view of the likelihood holder (which then spans the state's
    photon numbers too; the posterior reads the candidates' columns), and a
    `dynamics.BlockBatch` in noisy mode.  Each generator yields its draws in the
    order of a lone trajectory: the initial photon number (noisy mode,
    Fock-distribution input only), then per cycle the drive time (uniform-random
    schedules only) and the measurement.  Cycle draws are taken in blocks of
    cycles, one block per generator at a time.
    """
    cands, prior = params.resolved_candidates()
    n_traj, points, noise = len(rngs), params.trace_points, params.noise()
    mixture = Mixture(cands, prior)
    state = sample_initial(initial, params) if params.mode == NOISELESS_PURE else None
    ns = sorted(set(mixture.ns) | set(range(state.a.size if state is not None else 0)))
    likelihoods = record_likelihoods(ns, params.omega, noise, params.ejection_enabled,
                                     np.zeros(n_traj, dtype=int))
    cols = np.searchsorted(ns, mixture.ns)  # the candidates' photon numbers in the holder
    if state is not None:
        states, n_true = dyn.PureBatch(state, likelihoods), [None] * n_traj
    else:
        n_true = [_sample_n(initial, rng) for rng in rngs]
        states = dyn.BlockBatch(n_true, params.omega, noise, params.ejection_enabled, points)
    # fixed, precomputed and adaptive-greedy drive times depend only on the earlier
    # ones, so the trajectories share one sequence, each entry computed once
    history = None if params.schedule.kind == "uniform-random" else []
    per_cycle = 2 if history is None else 1  # the measurement's draw, after the drive time's
    if history is None:  # drawn as Generator.uniform draws them
        lo, hi = float(params.schedule.tau_min), float(params.schedule.tau_max)

    ids = np.arange(n_traj)  # trajectory of each active row
    # each active row's trajectory as errors name it: its seed key, (k,) as k
    names = np.array([str(key[0]) if len(key) == 1 else str(list(key)) for key in seed_keys])
    draws, first_draw, block = np.empty((n_traj, 0)), 0, 8
    t_now = np.zeros(n_traj)
    cycles = []  # per cycle: (ids, taus, rydberg, weights, fidelities) of its rows
    segments = []  # traced phases: (trajectories, phase, posterior number, (4, rows) values)

    def trace(phase: int, who: np.ndarray, posterior: int, times: np.ndarray, read) -> None:
        """Trace rows of phase PHASES[phase] for trajectories who at times, (rows,) or
        (rows, sub-steps), read (3, *times.shape); nothing may change times later."""
        if len(who):
            segments.append((who.repeat(times.size // len(who)), phase, posterior,
                             np.concatenate((times.reshape(1, -1), read.reshape(3, -1)))))

    steps, dts = None, states.dts
    if points:
        trace(0, ids, 0, t_now[ids], states.readouts()[2])

    for cycle in range(params.max_cycles):
        if ids.size == 0:
            break
        if per_cycle * (cycle + 1) > first_draw + draws.shape[1]:
            block = min(2 * block, params.max_cycles - cycle)
            first_draw = per_cycle * cycle
            draws = np.array([rngs[i].random(per_cycle * block) for i in ids.tolist()])
        col = per_cycle * cycle - first_draw
        if history is None:
            taus = lo + (hi - lo) * draws[:, col]
        else:
            tau = schedule_next_tau(params.schedule, history, params)
            history.append(tau)
            taus = np.full(ids.size, tau)

        if points:  # linspace is exact for times > 0 and ends at tau
            driven = np.flatnonzero(taus > 0)
            steps = np.linspace(taus[driven] / points, taus[driven], points, axis=-1)
            drive_times = t_now[ids[driven], None] + steps
        states.drive(taus, steps)
        rydberg, _ = states.measure(draws[:, col + per_cycle - 1])
        if noise is None:  # `drive` checked the drive times, `measure` drew the factors
            likelihoods._step(states.drawn, rydberg)
        else:
            likelihoods.update(taus, rydberg)
        # take keeps C order
        weights = mixture.posterior(likelihoods.log_l.take(cols, axis=1), "trajectory", names)
        if points:
            drive, window, collapse = states.readouts()
            trace(1, ids[driven], cycle, drive_times, drive)
            t_now[ids] += taus  # the trace's clock: only traced runs read it
            if window is not None:  # a window traced at ``dts``
                trace(2, ids, cycle, t_now[ids, None] + dts, window)
            t_now[ids] += states.window
            trace(3, ids, cycle + 1, t_now[ids], collapse)
        cycles.append((ids, taus, rydberg, weights, collapse[2] if points else states.fidelity()))

        done = weights.max(axis=1) >= params.threshold
        if np.any(done):
            keep = ~done
            ids, names, draws = ids[keep], names[keep], draws[keep]
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
    traces = _traces(segments, posteriors)
    config = params.to_dict()
    outcomes = [[RYDBERG if ryd else NO_RYDBERG for ryd in row] for row in rydberg]
    return [TrajectoryLog(record=MeasurementRecord(list(zip(taus[i], outcomes[i]))),
                          posteriors=posteriors[i], fidelities=fids[i], trace=traces[i],
                          ejections=sum(rydberg[i]) if params.ejection_enabled else 0,
                          n_true=n_true[i], final_candidate=int(np.argmax(later[i][-1])),
                          converged=max(later[i][-1]) >= params.threshold,
                          seed_key=list(seed_keys[i]), params=config)
            for i in range(n_traj)]


def _traces(segments: list[tuple], posteriors: list[list[list[float]]]) -> list[Trace]:
    """Each trajectory's `Trace`, a slice of the traced segments' columns sorted
    by trajectory once (stably, so each keeps the order it was traced in)."""
    if not segments:
        return [Trace(np.empty((4, 0)), np.empty((2, 0), dtype=int), [])] * len(posteriors)
    who, phases, numbers, values = zip(*segments)
    codes = np.repeat(np.array([phases, numbers]), [len(w) for w in who], axis=1)
    who = np.concatenate(who)
    order = np.argsort(who, kind="stable")
    values, codes = np.concatenate(values, axis=1)[:, order], codes[:, order]
    bounds = np.cumsum(np.bincount(who, minlength=len(posteriors))).tolist()
    return [Trace(values[:, start:stop], codes[:, start:stop], post)
            for start, stop, post in zip([0, *bounds], bounds, posteriors)]


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

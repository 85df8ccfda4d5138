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
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from . import dynamics as dyn
from .analysis import MAX_TRACE_POINTS, default_tau_grid, greedy_next_tau
from .errors import DomainError, ResourceError, ScheduleExhaustedError
from .inference import Mixture, NoiseParams, record_likelihoods
from .records import FockDistribution, MeasurementRecord, Posterior

NOISELESS_PURE = "noiseless-pure"
NOISY_FIXED_N = "noisy-fixed-n"


@dataclass(frozen=True)
class Schedule:
    """Drive-time strategy: fixed, uniform-random, precomputed list, or greedy."""

    # each kind, and the fields its drive times come from: it takes no other field
    KINDS = {"fixed": ("tau",), "uniform-random": ("tau_min", "tau_max"),
             "precomputed-list": ("taus",), "adaptive-greedy": ("grid_points",)}

    kind: str
    tau: float | None = None
    tau_min: float | None = None
    tau_max: float | None = None
    taus: tuple[float, ...] | None = None
    grid_points: int | None = None

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise DomainError(f"unknown schedule kind {self.kind!r}")
        own = self.KINDS[self.kind]
        for key in (f.name for f in fields(self)[1:]):
            if (getattr(self, key) is None) == (key in own):
                raise DomainError(f"a {self.kind} schedule "
                                  f"{'needs' if key in own else 'takes no'} {key}")
        times = [t for t in (self.tau, self.tau_min, self.tau_max) if t is not None]
        if not all(math.isfinite(t) and t >= 0 for t in times + list(self.taus or ())):
            raise DomainError("drive times must be finite and non-negative")
        if self.kind == "uniform-random" and self.tau_min > self.tau_max:
            raise DomainError("need tau_min <= tau_max")
        if self.kind == "adaptive-greedy" and self.grid_points < 1:
            raise DomainError("need grid_points >= 1")

    @property
    def draws(self) -> int:
        """The drive-time draws a cycle takes per row: 1 for uniform-random, else 0."""
        return int(self.kind == "uniform-random")

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
        own = ((key, getattr(self, key)) for key in self.KINDS[self.kind])
        return {"kind": self.kind, **{key: list(v) if key == "taus" else v for key, v in own}}


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
    candidates: list[FockDistribution] | None = None  # None: the deltas at 1..n_max
    prior: Posterior | None = None  # None: uniform
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
        if self.mode == NOISELESS_PURE and (self.gamma or self.tau_eit):  # it reads neither
            raise DomainError("noiseless-pure mode takes gamma = 0 and tau_eit = 0")
        if self.candidates is None:
            self.candidates = [FockDistribution.delta(n, self.n_max) for n in range(1, self.n_max + 1)]
        if self.prior is None:
            self.prior = Posterior.uniform(len(self.candidates))
        n = max((max(c.support()) for c in self.candidates), default=0)
        if n > self.N:  # N atoms store at most N photons
            raise DomainError(f"need 0 <= n <= N, got n={n}, N={self.N}")

    def noise(self) -> NoiseParams | None:
        return None if self.mode == NOISELESS_PURE else NoiseParams(self.gamma, self.tau_eit, self.N)

    def to_dict(self) -> dict:
        """Every field, the rates keyed with their SI units."""
        units = {"omega": "omega_rad_s", "gamma": "gamma_rad_s", "tau_eit": "tau_eit_s"}
        doc = {units.get(f.name, f.name): getattr(self, f.name) for f in fields(self)}
        return {**doc, "schedule": self.schedule.to_dict(),
                "candidates": [c.tolist() for c in self.candidates],
                "prior": self.prior.weights.tolist()}


def schedule_next_tau(schedule: Schedule, history: list[float], params: ProtocolParams,
                      draws: np.ndarray | None = None) -> float | np.ndarray:
    """The next drive time, given the earlier ones: one float every row shares, or, for
    a kind that draws (`Schedule.draws`), one per row from the rows' drive-time draws
    (uniform in [0, 1), as `Generator.uniform` takes them); the others ignore draws."""
    if schedule.kind == "fixed":
        return float(schedule.tau)
    if schedule.kind == "precomputed-list":
        if len(history) >= len(schedule.taus):
            raise ScheduleExhaustedError(
                f"precomputed schedule has only {len(schedule.taus)} entries")
        return float(schedule.taus[len(history)])
    if schedule.kind == "adaptive-greedy":
        grid = default_tau_grid(params.omega, schedule.grid_points)
        return greedy_next_tau(history, params.candidates, params.prior, grid, params.omega,
                               params.noise(), params.ejection_enabled)
    if draws is None:
        raise DomainError(f"schedule kind {schedule.kind!r} has no drive time every trajectory shares")
    lo, hi = float(schedule.tau_min), float(schedule.tau_max)
    return lo + (hi - lo) * draws


def sample_initial(dist, params: ProtocolParams) -> dyn.PureCollectiveState:
    """The stored pure state of a noiseless trajectory; N atoms store at most N photons."""
    if isinstance(dist, FockDistribution):
        amps = np.sqrt(dist.p.astype(float))
    elif np.isscalar(dist):
        n = _photon_number(dist, "a photon number must be a whole number", params.N)
        amps = np.sqrt(FockDistribution.delta(n, max(n, params.n_max)).p)
    else:
        amps = np.asarray(dist, dtype=complex)
    n = np.flatnonzero(amps).max(initial=0)
    if n > params.N:
        raise DomainError(f"need 0 <= n <= N, got n={n}, N={params.N}")
    return dyn.PureCollectiveState.from_stored_amplitudes(amps)


def _sample_n(dist, rng: np.random.Generator, N: int) -> int:
    """The photon number of a noisy trajectory, drawn from a FockDistribution (exact for every
    logged observable: number-diagonal blocks evolve on their own), else given."""
    if isinstance(dist, FockDistribution):
        return int(rng.choice(dist.p.size, p=dist.p))
    return _photon_number(dist, "noisy mode takes a photon number or a FockDistribution", N)


def _photon_number(dist, refusal: str, N: int) -> int:
    """dist as a whole photon number, else a `DomainError`: refusal, naming dist; one past
    0..N is refused before an array holds it (an integer past int64 or float range too)."""
    if not isinstance(dist, numbers.Integral) and not (isinstance(dist, numbers.Real)
                                                      and float(dist).is_integer()):
        raise DomainError(f"{refusal}, got {dist!r}")
    if not 0 <= dist <= N:
        raise DomainError(f"need 0 <= n <= N, got n={int(dist)}, N={N}")
    return int(dist)


# a trace row of `TrajectoryLog.to_json`: keys sorted, the phase one of `PHASES`
_TRACE_ROW = ('{"fidelity": %s, "p_no_rydberg": %s, "p_rydberg": %s, "phase": "%s", '
              '"posterior": %s, "time_s": %s}')
PHASES = ("init", "drive", "measure", "collapse")


class Trace:
    """A trajectory's trace rows as columns: ``values`` (4, rows) holds each row's
    time_s, p_no_rydberg, p_rydberg and fidelity, ``codes`` (2, rows) its phase (in
    `PHASES`) and posterior (a row of ``posteriors``, (posteriors, K)).  Iterating
    gives the rows as dicts."""

    def __init__(self, values: np.ndarray, codes: np.ndarray, posteriors: np.ndarray):
        self.values, self.codes, self.posteriors = values, codes, posteriors

    def __len__(self) -> int:
        return self.values.shape[1]

    def __iter__(self):
        posts = self.posteriors.tolist()
        for t, s, r, f, phase, post in zip(*self.values.tolist(), *self.codes.tolist()):
            yield {"time_s": t, "phase": PHASES[phase], "p_no_rydberg": s, "p_rydberg": r,
                   "fidelity": f, "posterior": posts[post]}


@dataclass
class TrajectoryLog:
    """Everything observable about one simulated experiment: its record, posteriors
    ((T + 1, K), the prior first) and fidelities ((T,)) are read-only views of its batch's
    cycle table."""

    record: MeasurementRecord
    posteriors: np.ndarray
    fidelities: np.ndarray
    trace: Trace
    ejections: int
    n_true: int | None
    final_candidate: int
    converged: bool
    seed_key: list[int]
    params: dict

    def to_json(self) -> str:
        """`json.dumps(..., sort_keys=True)` of the fields, the arrays as lists and the
        trace as its list of rows; "trace", last, in one %-format per row, from its
        columns and posterior rows each written by json once."""
        doc = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "trace"}
        doc.update(record=[{"tau_s": t, "outcome": m} for t, m in self.record.entries],
                   posteriors=self.posteriors.tolist(), fidelities=self.fidelities.tolist())
        posts = [json.dumps(post) for post in self.trace.posteriors.tolist()] if self.trace else []
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
    Fock-distribution input only), then per cycle the drive time (schedules that
    draw, `Schedule.draws`) and the measurement.  Cycle draws are taken in blocks of
    cycles, one block per generator at a time.
    """
    n_traj, points, noise, prior = len(rngs), params.trace_points, params.noise(), params.prior
    mixture = Mixture(params.candidates, prior)
    state = sample_initial(initial, params) if params.mode == NOISELESS_PURE else None
    ns = sorted(set(mixture.ns) | set(range(state.a.size if state is not None else 0)))
    likelihoods = record_likelihoods(ns, params.omega, noise, params.ejection_enabled,
                                     np.zeros(n_traj, dtype=int))
    cols = np.searchsorted(ns, mixture.ns)  # the candidates' photon numbers in the holder
    if state is not None:
        states, n_true = dyn.PureBatch(state, likelihoods), [None] * n_traj
    else:
        n_true = [_sample_n(initial, rng, params.N) for rng in rngs]
        states = dyn.BlockBatch(n_true, params.omega, noise, params.ejection_enabled, points)
    # a kind that draws nothing gives drive times that depend only on the earlier
    # ones, so the trajectories share one sequence, each entry computed once
    history, per_cycle = [], 1 + params.schedule.draws  # drive-time draws, then the measurement's

    ids = np.arange(n_traj)  # trajectory of each active row
    # each active row's trajectory as errors name it: its seed key, (k,) as k
    names = np.array([str(key[0]) if len(key) == 1 else str(list(key)) for key in seed_keys])
    draws, first_draw, block = np.empty((n_traj, 0)), 0, 8
    t_now = np.zeros(n_traj)
    cycles = []  # per cycle: (ids, taus, rydberg, weights, fidelities) of its rows
    segments = []  # per traced cycle, (7, columns): `Trace` values, trajectory, phase, posterior

    steps, dts = None, states.dts
    if points:
        segments.append(np.vstack((t_now, states.read(), ids, np.zeros((2, n_traj)))))
        # the phases of a cycle's columns: the drive's sub-steps, the window's, the collapse
        phases = np.repeat([1, 2, 3], [points, dts.size, 1])

    for cycle in range(params.max_cycles):
        if ids.size == 0:
            break
        if per_cycle * (cycle + 1) > first_draw + draws.shape[1]:
            block = min(2 * block, params.max_cycles - cycle)
            first_draw = per_cycle * cycle
            draws = np.array([rngs[i].random(per_cycle * block) for i in ids.tolist()])
        col = per_cycle * cycle - first_draw
        history.append(schedule_next_tau(params.schedule, history, params, draws[:, col]))
        taus = np.full(ids.size, history[-1])

        if points:  # linspace is exact for times > 0 and ends at tau
            driven = np.flatnonzero(taus > 0)
            if np.ndim(history[-1]) or history[-2:-1] != history[-1:]:  # once while tau repeats
                sub = np.linspace(taus[driven] / points, taus[driven], points, axis=-1)
            steps = sub[:driven.size]  # a shared tau's rows are all alike, and rows only leave
        states.drive(taus, steps)
        rydberg, _, read = states.measure(draws[:, col + per_cycle - 1])
        if noise is not None:  # `PureBatch.measure` stepped the noiseless holder
            likelihoods.update(taus, rydberg)
        # take keeps C order
        weights = mixture.posterior(likelihoods.log_l.take(cols, axis=1), "trajectory", names)
        if points:
            rows = np.empty((7, *read.shape[1:]))
            rows[0, driven, :points] = t_now[ids[driven], None] + steps  # the trace's clock:
            t_now[ids] += taus  # only traced runs read it
            rows[0, :, points:-1] = t_now[ids, None] + dts
            t_now[ids] += states.window
            rows[0, :, -1], rows[1:4], rows[4] = t_now[ids], read, ids[:, None]
            rows[5], rows[6] = phases, cycle + (phases == 3)  # the collapse's posterior is new
            if driven.size < ids.size:  # an undriven row has no drive sub-steps
                rows = rows[:, (taus > 0)[:, None] | (np.arange(rows.shape[2]) >= points)]
            segments.append(rows.reshape(7, -1))
        # a copy: a view would keep each cycle's whole read alive to the end of the run
        fidelity = read[2, :, -1].copy() if points else states.fidelity()
        cycles.append((ids, taus, rydberg, weights, fidelity))

        done = weights.max(axis=1) >= params.threshold
        if done.any():
            keep = ~done
            ids, names, draws = ids[keep], names[keep], draws[keep]
            states.take(keep)
            likelihoods.take(keep)

    if not n_traj:
        return []
    columns = [np.concatenate(column) for column in zip(*cycles)]
    order = np.argsort(columns[0], kind="stable")  # each trajectory's rows, in cycle order
    who, taus, rydberg, weights, fids = (column[order] for column in columns)
    ends = np.cumsum(np.bincount(who, minlength=n_traj)).tolist()
    spans, last = list(zip([0, *ends], ends)), weights[np.subtract(ends, 1)]
    # each trajectory's posteriors: the prior, then one row per cycle
    posteriors = np.insert(weights, [0, *ends[:-1]], prior.weights, axis=0)
    posteriors.flags.writeable = fids.flags.writeable = False
    posteriors = [posteriors[start + i:stop + i + 1] for i, (start, stop) in enumerate(spans)]
    ejections = np.bincount(who[rydberg], minlength=n_traj) * params.ejection_enabled
    config = params.to_dict()
    return [TrajectoryLog(record=record, posteriors=post, fidelities=fid, trace=trace,
                          ejections=ejected, n_true=n, final_candidate=candidate,
                          converged=converged, seed_key=list(key), params=config)
            for record, post, fid, trace, ejected, n, candidate, converged, key in zip(
                MeasurementRecord.split(taus, rydberg, ends), posteriors,
                [fids[start:stop] for start, stop in spans], _traces(segments, posteriors),
                ejections.tolist(), n_true, last.argmax(axis=1).tolist(),
                (last.max(axis=1) >= params.threshold).tolist(), seed_keys)]


def _traces(segments: list[np.ndarray], posteriors: list[np.ndarray]) -> list[Trace]:
    """Each trajectory's `Trace`, a slice of the traced segments' columns sorted
    by trajectory once (stably, so each keeps the order it was traced in).  It
    empties ``segments`` into one table before sorting, so they are not held
    beside the sorted copies."""
    table = np.concatenate([np.empty((7, 0)), *segments], axis=1)
    segments.clear()
    order = np.argsort(table[4], kind="stable")
    bounds = np.cumsum(np.bincount(table[4].astype(int), minlength=len(posteriors))).tolist()
    values, codes = table[:4, order], table[5:, order].astype(int)
    return [Trace(values[:, start:stop], codes[:, start:stop], post)
            for start, stop, post in zip([0, *bounds], bounds, posteriors)]


def _seeded(params: ProtocolParams, seed_key: tuple[int, ...]) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(params.seed, spawn_key=seed_key))


def run_protocol(initial, params: ProtocolParams,
                 seed_key: tuple[int, ...] = ()) -> TrajectoryLog:
    """Simulate one experiment; deterministic given params.seed and seed_key."""
    return _run(initial, params, [_seeded(params, seed_key)], [seed_key])[0]


def run_batch(initial, params: ProtocolParams, n_trajectories: int) -> list[TrajectoryLog]:
    """Independent seeded trajectories; trajectory i uses spawn key (i,), as `_seeded` does."""
    seeds = np.random.SeedSequence(params.seed).spawn(n_trajectories)  # child i has key (i,)
    return _run(initial, params, [*map(np.random.default_rng, seeds)], [s.spawn_key for s in seeds])

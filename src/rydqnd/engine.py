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

    def resolved_candidates(self) -> tuple[list[FockDistribution], Posterior]:
        cands = self.candidates
        if cands is None:
            cands = [FockDistribution.delta(n, self.n_max) for n in range(1, self.n_max + 1)]
        prior = self.prior if self.prior is not None else Posterior.uniform(len(cands))
        return cands, prior

    def noise(self) -> NoiseParams | None:
        if self.mode == NOISELESS_PURE:
            return None
        return NoiseParams(self.gamma, self.tau_eit, self.N, eject=self.ejection_enabled)

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


def schedule_next_tau(schedule: Schedule, history: list[float], params: ProtocolParams,
                      rng: np.random.Generator) -> float:
    """Next drive time under the given strategy; deterministic given the rng state."""
    if schedule.kind == "fixed":
        return float(schedule.tau)
    if schedule.kind == "uniform-random":
        return float(rng.uniform(schedule.tau_min, schedule.tau_max))
    if schedule.kind == "precomputed-list":
        if len(history) >= len(schedule.taus):
            raise ScheduleExhaustedError(
                f"precomputed schedule has only {len(schedule.taus)} entries")
        return float(schedule.taus[len(history)])
    if schedule.kind == "adaptive-greedy":
        from .analysis import default_tau_grid, greedy_next_tau
        cands, prior = params.resolved_candidates()
        grid = default_tau_grid(params.omega, schedule.grid_points)
        return greedy_next_tau(history, cands, prior, grid, params.omega, params.noise())
    raise DomainError(f"unknown schedule kind {schedule.kind!r}")


def sample_initial(dist, mode: str, rng: np.random.Generator, params: ProtocolParams):
    """Initial state for one trajectory.

    Noiseless-pure mode keeps the full amplitude vector (a FockDistribution is
    mapped to real sqrt-amplitudes).  Noisy mode samples n classically, which
    is exact for every logged observable because number-diagonal blocks evolve
    independently of cross-number coherences.
    """
    if mode == NOISELESS_PURE:
        if isinstance(dist, FockDistribution):
            amps = np.sqrt(dist.p.astype(float))
        elif np.isscalar(dist):
            amps = np.sqrt(FockDistribution.delta(int(dist), max(int(dist), params.n_max)).p)
        else:
            amps = np.asarray(dist, dtype=complex)
        state = dyn.PureCollectiveState.from_stored_amplitudes(amps)
        return state, None
    n = _sample_n(dist, rng)
    return dyn.symmetric_state_blocks(n, params.N), n


def _sample_n(dist, rng: np.random.Generator) -> int:
    """The photon number of a noisy trajectory: drawn from a FockDistribution, else given."""
    if isinstance(dist, FockDistribution):
        return int(rng.choice(dist.p.size, p=dist.p))
    return int(dist)


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
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["record"] = [{"tau_s": t, "outcome": m} for t, m in self.record.entries]
        return json.dumps(doc, sort_keys=True)


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
            table.append(schedule_next_tau(params.schedule, table, params, None))
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
                                     params.ejection_enabled, n_traj)
    if params.mode == NOISELESS_PURE:
        state, _ = sample_initial(initial, NOISELESS_PURE, None, params)
        states, n_true = dyn.PureBatch(state, n_traj), [None] * n_traj
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

    entries: list[list] = [[] for _ in range(n_traj)]
    posteriors = [[prior.weights.tolist()] for _ in range(n_traj)]
    fidelities: list[list[float]] = [[] for _ in range(n_traj)]
    traces: list[list[dict]] = [[] for _ in range(n_traj)]
    ejections = np.zeros(n_traj, dtype=int)
    converged = np.zeros(n_traj, dtype=bool)
    final = np.zeros(n_traj, dtype=int)
    t_now = np.zeros(n_traj)

    def trace_rows(phase: str, rows, times, report) -> None:
        """A trace row per entry of times: one per selected trajectory, or a
        (trajectories, sub-steps) array of them; none if no trajectory is selected."""
        if not len(times):
            return
        shape = (len(times), -1)
        for i, *row in zip(ids[rows].tolist(), times.reshape(shape).tolist(),
                           *(x.reshape(shape).tolist() for x in report)):
            for t, p_s, p_r, fid in zip(*row):
                traces[i].append({"time_s": t, "phase": phase, "p_no_rydberg": p_s,
                                  "p_rydberg": p_r, "fidelity": fid,
                                  "posterior": posteriors[i][-1]})

    if points:
        trace_rows("init", slice(None), t_now, states.sectors())

    for cycle in range(params.max_cycles):
        if ids.size == 0:
            break
        if per_cycle * (cycle + 1) > first_draw + draws.shape[1]:
            block = min(2 * block, params.max_cycles - cycle)
            first_draw = per_cycle * cycle
            draws = np.array([rngs[i].random(per_cycle * block) for i in ids.tolist()])
        col = per_cycle * cycle - first_draw
        taus = np.full(ids.size, tau_at(cycle)) if tau_at else lo + span * draws[:, col]

        if points:
            driven = np.nonzero(taus > 0)[0]
            steps = np.array([np.linspace(t / points, t, points)
                              for t in taus[driven].tolist()]).reshape(driven.size, points)
            trace_rows("drive", driven, t_now[ids[driven], None] + steps,
                       states.sectors(steps, params.omega, driven))
        states.drive(taus, params.omega)
        t_now[ids] += taus
        if points and states.window > 0:
            dts = np.linspace(states.window / points, states.window, points)
            trace_rows("measure", slice(None), t_now[ids, None] + dts,
                       states.sectors_in_window(dts))
        rydberg, _ = states.measure(draws[:, col + per_cycle - 1], params.ejection_enabled)
        t_now[ids] += states.window
        if params.ejection_enabled:
            ejections[ids] += rydberg

        likelihoods.update(taus, rydberg)
        weights = mixture.posterior(likelihoods.log_l)
        collapse = states.sectors() if points else None
        fids = collapse[2] if points else states.fidelity()
        for i, tau, ryd, w, fid in zip(ids.tolist(), taus.tolist(), rydberg.tolist(),
                                       weights.tolist(), fids.tolist()):
            entries[i].append((tau, RYDBERG if ryd else NO_RYDBERG))
            posteriors[i].append(w)
            fidelities[i].append(fid)
        if points:
            trace_rows("collapse", slice(None), t_now[ids], collapse)

        final[ids] = np.argmax(weights, axis=1)
        done = weights.max(axis=1) >= params.threshold
        if np.any(done):
            converged[ids[done]] = True
            keep = ~done
            ids, draws = ids[keep], draws[keep]
            states.keep(keep)
            likelihoods.keep(keep)

    config = params.to_dict()
    return [TrajectoryLog(record=MeasurementRecord(entries[i]), posteriors=posteriors[i],
                          fidelities=fidelities[i], trace=traces[i],
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

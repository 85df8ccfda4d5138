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
from dataclasses import dataclass, field, replace

import numpy as np

from . import dynamics as dyn
from .errors import DomainError, ScheduleExhaustedError
from .inference import Mixture, NoiseParams, NoiselessLikelihoods, SequentialInference
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
    if isinstance(dist, FockDistribution):
        n = int(rng.choice(dist.p.size, p=dist.p))
    else:
        n = int(dist)
    return dyn.symmetric_state_blocks(n, params.N), n


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
        doc = {
            "record": [{"tau_s": t, "outcome": m} for t, m in self.record.entries],
            "posteriors": self.posteriors,
            "fidelities": self.fidelities,
            "trace": self.trace,
            "ejections": self.ejections,
            "n_true": self.n_true,
            "final_candidate": self.final_candidate,
            "converged": self.converged,
            "seed_key": self.seed_key,
            "params": self.params,
        }
        return json.dumps(doc, sort_keys=True)


class _IdealReference:
    """Noiseless companion trajectory used as the retrieval-fidelity target."""

    def __init__(self, n: int):
        self.n = n
        amps = np.zeros(n + 1, dtype=complex)
        amps[n] = 1.0
        self.state = dyn.PureCollectiveState.from_stored_amplitudes(amps)

    def drive(self, tau: float, omega: float) -> None:
        if self.n > 0:
            self.state = dyn.evolve_pure(self.state, tau, omega)

    def collapse(self, outcome: str) -> None:
        n = self.n
        if n == 0:
            return
        a, b = self.state.a.copy(), self.state.b.copy()
        if outcome == RYDBERG:
            amp = b[n]
            a[:] = 0.0
            b[n] = amp / abs(amp) if abs(amp) > 1e-9 else 1.0
        else:
            amp = a[n]
            b[:] = 0.0
            a[n] = amp / abs(amp) if abs(amp) > 1e-9 else 1.0
        self.state = dyn.PureCollectiveState(a, b)

    def eject(self) -> None:
        # the ejected ideal target is the stored state with one fewer photon
        self.n -= 1
        amps = np.zeros(self.n + 1, dtype=complex)
        amps[self.n] = 1.0
        self.state = dyn.PureCollectiveState.from_stored_amplitudes(amps)


def _draws_per_cycle(schedule: Schedule) -> int:
    """Uniform draws a trajectory takes per cycle: the measurement's, and the
    drive time's under the uniform-random schedule."""
    return 2 if schedule.kind == "uniform-random" else 1


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


def _run_noiseless(initial, params: ProtocolParams, rngs: list[np.random.Generator],
                   seed_keys: list[tuple[int, ...]]) -> list[TrajectoryLog]:
    """Noiseless trajectories advanced together, trajectory i drawing from rngs[i].

    Each cycle drives, measures, collapses, ejects and updates the posterior
    of every active trajectory at once; a trajectory leaves when its
    posterior reaches the threshold.  Each generator yields its draws in the
    order of a lone trajectory: per cycle the drive time (uniform-random
    schedules only), then the measurement.  Draws are taken in blocks of
    cycles, one block per generator at a time.
    """
    cands, prior = params.resolved_candidates()
    state, _ = sample_initial(initial, NOISELESS_PURE, None, params)
    n_traj, points = len(rngs), params.trace_points
    tau_at = _shared_taus(params)
    per_cycle = _draws_per_cycle(params.schedule)
    if not tau_at:  # drawn as Generator.uniform draws them
        lo = float(params.schedule.tau_min)
        span = float(params.schedule.tau_max) - lo

    ids = np.arange(n_traj)  # trajectory of each active row
    pure = dyn.PureBatch(state, n_traj)
    mixture = Mixture(cands, prior)
    likelihoods = NoiselessLikelihoods(mixture.ns, params.omega, params.ejection_enabled,
                                       n_traj)
    draws, first_draw, block = np.empty((n_traj, 0)), 0, 8

    entries: list[list] = [[] for _ in range(n_traj)]
    posteriors = [[prior.weights.tolist()] for _ in range(n_traj)]
    traces: list[list[dict]] = [[] for _ in range(n_traj)]
    ejections = np.zeros(n_traj, dtype=int)
    converged = np.zeros(n_traj, dtype=bool)
    final = np.zeros(n_traj, dtype=int)
    t_now = np.zeros(n_traj)

    def trace_rows(phase: str, rows, times, p_r) -> None:
        for i, t, p in zip(ids[rows].tolist(), times.tolist(), p_r.tolist()):
            traces[i].append({"time_s": t, "phase": phase, "p_no_rydberg": 1.0 - p,
                              "p_rydberg": p, "fidelity": 1.0,
                              "posterior": posteriors[i][-1]})

    if points:
        trace_rows("init", slice(None), t_now, pure.sum_sq(pure.b))

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
            for k in range(points):
                trace_rows("drive", driven, t_now[ids[driven]] + steps[:, k],
                           pure.rydberg_if_driven(steps[:, k], params.omega, driven))
        pure.a, pure.b = pure.driven(taus, params.omega)
        t_now[ids] += taus
        rydberg, _ = pure.measure(draws[:, col + per_cycle - 1], params.ejection_enabled)
        if params.ejection_enabled:
            ejections[ids] += rydberg

        likelihoods.update(taus, rydberg)
        weights = mixture.posterior(likelihoods.log_l)
        for i, tau, ryd, w in zip(ids.tolist(), taus.tolist(), rydberg.tolist(),
                                  weights.tolist()):
            entries[i].append((tau, RYDBERG if ryd else NO_RYDBERG))
            posteriors[i].append(w)
        if points:
            trace_rows("collapse", slice(None), t_now[ids], pure.sum_sq(pure.b))

        final[ids] = np.argmax(weights, axis=1)
        done = weights.max(axis=1) >= params.threshold
        if np.any(done):
            converged[ids[done]] = True
            keep = ~done
            ids, draws = ids[keep], draws[keep]
            pure.keep(keep)
            likelihoods.keep(keep)

    config = params.to_dict()
    return [TrajectoryLog(record=MeasurementRecord(entries[i]), posteriors=posteriors[i],
                          fidelities=[1.0] * len(entries[i]), trace=traces[i],
                          ejections=int(ejections[i]), n_true=None,
                          final_candidate=int(final[i]), converged=bool(converged[i]),
                          seed_key=list(seed_keys[i]), params=config)
            for i in range(n_traj)]


def _run_noisy(initial, params: ProtocolParams, rng: np.random.Generator,
               seed_key: tuple[int, ...], tau_at, config: dict) -> TrajectoryLog:
    """One noisy fixed-n trajectory, with its retrieval fidelity to an ideal twin."""
    cands, prior = params.resolved_candidates()
    noise = params.noise()
    inference = SequentialInference(cands, prior, params.omega, noise,
                                    eject=params.ejection_enabled)
    state, n_true = sample_initial(initial, params.mode, rng, params)
    ideal = _IdealReference(n_true)

    posteriors: list[list[float]] = [prior.weights.tolist()]
    fidelities: list[float] = []
    trace: list[dict] = []
    taus: list[float] = []
    record = MeasurementRecord()
    ejections = 0
    t_now = 0.0
    converged = False
    post = prior

    def fid(st) -> float:
        return dyn.retrieval_fidelity(st, ideal.state) if ideal.n > 0 else 1.0

    def trace_row(st, phase: str, t: float, fidelity: float) -> dict:
        p_s, p_r = dyn.sector_probabilities(st)
        return {"time_s": t, "phase": phase, "p_no_rydberg": p_s,
                "p_rydberg": p_r, "fidelity": fidelity,
                "posterior": post.weights.tolist()}

    if params.trace_points:
        trace.append(trace_row(state, "init", t_now, fid(state)))

    for cycle in range(params.max_cycles):
        tau = (tau_at(cycle) if tau_at
               else schedule_next_tau(params.schedule, taus, params, rng))
        taus.append(tau)

        # drive window
        if params.trace_points and tau > 0:
            for dt in np.linspace(tau / params.trace_points, tau, params.trace_points):
                sub = dyn.evolve_blocks(state, dt, params.omega, params.gamma)
                sub_fid = 1.0
                if ideal.n > 0:
                    sub_fid = dyn.retrieval_fidelity(
                        sub, dyn.evolve_pure(ideal.state, dt, params.omega))
                trace.append(trace_row(sub, "drive", t_now + dt, sub_fid))
        state = dyn.evolve_blocks(state, tau, params.omega, params.gamma, drive_on=True)
        ideal.drive(tau, params.omega)
        t_now += tau

        # measurement window (dephasing only), then projection
        if params.trace_points and params.tau_eit > 0:
            for dt in np.linspace(params.tau_eit / params.trace_points,
                                  params.tau_eit, params.trace_points):
                sub = dyn.evolve_blocks(state, dt, 0.0, params.gamma, drive_on=False)
                trace.append(trace_row(sub, "measure", t_now + dt, fid(sub)))
        outcome, state, _p = dyn.measure_block(state, params.tau_eit, params.gamma,
                                               rng.random())
        t_now += params.tau_eit
        ideal.collapse(outcome)
        if params.ejection_enabled and outcome == RYDBERG:
            state = dyn.eject_block(state)
            ideal.eject()
            ejections += 1

        record.append(tau, outcome)
        post = inference.update(tau, outcome)
        posteriors.append(post.weights.tolist())
        fidelities.append(fid(state))
        if params.trace_points:
            trace.append(trace_row(state, "collapse", t_now, fid(state)))
        if float(post.weights.max()) >= params.threshold:
            converged = True
            break

    return TrajectoryLog(
        record=record,
        posteriors=posteriors,
        fidelities=fidelities,
        trace=trace,
        ejections=ejections,
        n_true=n_true,
        final_candidate=int(np.argmax(post.weights)),
        converged=converged,
        seed_key=list(seed_key),
        params=config,
    )


def _seeded(params: ProtocolParams, seed_key: tuple[int, ...]) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(params.seed, spawn_key=seed_key))


def run_protocol(initial, params: ProtocolParams,
                 seed_key: tuple[int, ...] = ()) -> TrajectoryLog:
    """Simulate one experiment; deterministic given params.seed and seed_key."""
    rng = _seeded(params, seed_key)
    if params.mode == NOISY_FIXED_N:
        return _run_noisy(initial, params, rng, seed_key, _shared_taus(params),
                          params.to_dict())
    return _run_noiseless(initial, params, [rng], [seed_key])[0]


def run_batch(initial, params: ProtocolParams, n_trajectories: int) -> list[TrajectoryLog]:
    """Independent seeded trajectories; trajectory i uses spawn key (i,)."""
    keys = [(i,) for i in range(n_trajectories)]
    rngs = [_seeded(params, key) for key in keys]
    if params.mode == NOISELESS_PURE:
        return _run_noiseless(initial, params, rngs, keys)
    tau_at, config = _shared_taus(params), params.to_dict()
    return [_run_noisy(initial, params, rng, key, tau_at, config)
            for rng, key in zip(rngs, keys)]

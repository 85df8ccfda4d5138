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
from .inference import NoiseParams, SequentialInference
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
        if self.omega <= 0:
            raise DomainError("omega must be positive")
        if self.gamma < 0 or self.tau_eit < 0:
            raise DomainError("gamma and tau_eit must be non-negative")
        if not 1 <= self.n_max <= self.N:
            raise DomainError("need 1 <= n_max <= N")
        if self.max_cycles < 1:
            raise DomainError("need max_cycles >= 1")
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


def _eject_pure(state: dyn.PureCollectiveState) -> dyn.PureCollectiveState:
    """Eject from a Rydberg-sector pure state: amplitudes shift down one photon."""
    if float(np.sum(np.abs(state.a) ** 2)) > 1e-9:
        raise DomainError("pure ejection requires a Rydberg-sector state")
    a = np.array(state.b[1:], dtype=complex)
    norm = math.sqrt(float(np.sum(np.abs(a) ** 2)))
    return dyn.PureCollectiveState(a / norm, np.zeros_like(a))


def run_protocol(initial, params: ProtocolParams,
                 rng: np.random.Generator | None = None,
                 seed_key: tuple[int, ...] = ()) -> TrajectoryLog:
    """Simulate one experiment; deterministic given params.seed (and seed_key)."""
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence(params.seed, spawn_key=seed_key))
    cands, prior = params.resolved_candidates()
    noise = params.noise()
    inference = SequentialInference(cands, prior, params.omega, noise,
                                    eject=params.ejection_enabled)
    state, n_true = sample_initial(initial, params.mode, rng, params)
    noisy = params.mode == NOISY_FIXED_N
    ideal = _IdealReference(n_true) if noisy else None

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
        return dyn.retrieval_fidelity(st, ideal.state) if noisy and ideal.n > 0 else 1.0

    def sector(st) -> tuple[float, float]:
        if noisy:
            return dyn.sector_probabilities(st)
        p_r = float(np.sum(np.abs(st.b) ** 2))
        return 1.0 - p_r, p_r

    def trace_row(st, phase: str) -> dict:
        p_s, p_r = sector(st)
        return {"time_s": t_now, "phase": phase, "p_no_rydberg": p_s,
                "p_rydberg": p_r, "fidelity": fid(st),
                "posterior": post.weights.tolist()}

    if params.trace_points:
        trace.append(trace_row(state, "init"))

    for _cycle in range(params.max_cycles):
        tau = schedule_next_tau(params.schedule, taus, params, rng)
        taus.append(tau)

        # drive window
        if params.trace_points and tau > 0:
            for dt in np.linspace(tau / params.trace_points, tau, params.trace_points):
                if noisy:
                    sub = dyn.evolve_blocks(state, dt, params.omega, params.gamma)
                    sub_fid = 1.0
                    if ideal.n > 0:
                        sub_ideal = dyn.evolve_pure(ideal.state, dt, params.omega)
                        sub_fid = dyn.retrieval_fidelity(sub, sub_ideal)
                else:
                    sub = dyn.evolve_pure(state, dt, params.omega)
                    sub_fid = 1.0
                p_s, p_r = sector(sub)
                trace.append({"time_s": t_now + dt, "phase": "drive",
                              "p_no_rydberg": p_s, "p_rydberg": p_r,
                              "fidelity": sub_fid,
                              "posterior": post.weights.tolist()})
        if noisy:
            state = dyn.evolve_blocks(state, tau, params.omega, params.gamma, drive_on=True)
            ideal.drive(tau, params.omega)
        else:
            state = dyn.evolve_pure(state, tau, params.omega)
        t_now += tau

        # measurement window (dephasing only), then projection
        if noisy:
            if params.trace_points and params.tau_eit > 0:
                for dt in np.linspace(params.tau_eit / params.trace_points,
                                      params.tau_eit, params.trace_points):
                    sub = dyn.evolve_blocks(state, dt, 0.0, params.gamma, drive_on=False)
                    trace.append({"time_s": t_now + dt, "phase": "measure",
                                  "p_no_rydberg": sector(sub)[0],
                                  "p_rydberg": sector(sub)[1], "fidelity": fid(sub),
                                  "posterior": post.weights.tolist()})
            outcome, state, _p = dyn.measure_block(state, params.tau_eit, params.gamma,
                                                   rng.random())
            t_now += params.tau_eit
            ideal.collapse(outcome)
            if params.ejection_enabled and outcome == RYDBERG:
                state = dyn.eject_block(state)
                ideal.eject()
                ejections += 1
        else:
            outcome, state, _p = dyn.measure_pure(state, rng.random())
            if params.ejection_enabled and outcome == RYDBERG:
                state = _eject_pure(state)
                ejections += 1

        record.append(tau, outcome)
        post = inference.update(tau, outcome)
        posteriors.append(post.weights.tolist())
        fidelities.append(fid(state))
        if params.trace_points:
            trace.append(trace_row(state, "collapse"))
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
        params=params.to_dict(),
    )


def run_batch(initial, params: ProtocolParams, n_trajectories: int) -> list[TrajectoryLog]:
    """Independent seeded trajectories; trajectory i uses spawn key (i,)."""
    logs = []
    for i in range(n_trajectories):
        rng = np.random.default_rng(np.random.SeedSequence(params.seed, spawn_key=(i,)))
        logs.append(run_protocol(initial, params, rng=rng, seed_key=(i,)))
    return logs

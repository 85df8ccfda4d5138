"""Seeded Monte Carlo simulation of full observation-stage experiments.

A trajectory interleaves driven oscillation windows with projective Rydberg
measurements, optionally ejecting the detected Rydberg atom, while a
sequential Bayesian posterior over candidate initial distributions and (in
the noisy mode) a retrieval-fidelity trace are logged.  Trajectory i of a
batch draws the stream of spawn key (i,) of the batch seed, so results do not
depend on how a batch is partitioned.  One pass seeds a whole batch: NumPy's
`SeedSequence` hash runs over uint32 columns, one row per spawn key, and each
row's state seeds a `PCG64` through NumPy's `ISeedSequence` interface.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, fields
from functools import lru_cache
from itertools import product

import numpy as np

from . import dynamics as dyn
from .analysis import MAX_TRACE_POINTS, default_tau_grid, greedy_next_tau
from .errors import DomainError, ResourceError, ScheduleExhaustedError
from .inference import Mixture, NoiseParams, record_likelihoods
from .records import FockDistribution, MeasurementRecord, Posterior
from .symbasis import _check_block_args

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
        dyn._check_times(times + list(self.taus or ()), "drive times")
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
        if not isinstance(self.seed, numbers.Integral):
            raise DomainError(f"seed must be a whole number, got {self.seed!r}")
        self.seed = int(self.seed)  # a NumPy integer too: the logs spell it as json
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
        _check_block_args(max((max(c.support()) for c in self.candidates), default=0), self.N, 0)

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


def initial_state(initial, params: ProtocolParams, rngs: list[np.random.Generator]):
    """(state, n_true) of a batch whose rows draw from rngs, checked before any draw.
    Noiseless: the stored `dynamics.PureCollectiveState` of a whole photon number, a
    `FockDistribution` (its weights' square roots) or amplitudes; no n_true.  Noisy: no
    state; each row's photon number, given or drawn from the `FockDistribution` (exact for
    every logged observable: number-diagonal blocks evolve on their own).  A fraction,
    noisy amplitudes, or a number or weight past N (N atoms store at most N photons; one
    past int64 before an array holds it) is a `DomainError`."""
    noiseless = params.mode == NOISELESS_PURE
    if isinstance(initial, FockDistribution):
        n, amps = max(initial.support()), np.sqrt(initial.p)
    elif np.isscalar(initial):
        if not isinstance(initial, numbers.Integral) and not (isinstance(initial, numbers.Real)
                                                             and float(initial).is_integer()):
            raise DomainError(f"a photon number must be a whole number, got {initial!r}")
        n, amps = int(initial), None
    elif noiseless:
        amps = np.asarray(initial, dtype=complex)
        n = int(np.flatnonzero(amps).max(initial=0))
    else:
        raise DomainError(f"noisy mode takes a photon number or a FockDistribution, got {initial!r}")
    _check_block_args(n, params.N, 0)
    if not noiseless:
        drawn = isinstance(initial, FockDistribution)
        return None, [int(rng.choice(initial.p.size, p=initial.p)) if drawn else n for rng in rngs]
    if amps is None:
        amps = np.eye(max(n, params.n_max) + 1)[n]
    return dyn.PureCollectiveState.from_stored_amplitudes(amps), [None] * len(rngs)


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
        trace as its list of rows: `json_lines` of this log alone."""
        return next(json_lines([self], *spell([self.trace], "json")))


def spell(traces: list[Trace], *formats: str) -> list[list]:
    """Per format, "json" (json's spelling) or a %-format, each trace's four ``values`` rows
    as lists of strings: each distinct float of the traces, told apart by its bits (so -0.0
    and 0.0, and NaN payloads, stay apart), spelled once per format and handed out by index."""
    values = np.concatenate([np.empty((4, 0)), *(trace.values for trace in traces)], axis=1)
    bits, back = np.unique(values.view(np.int64), return_inverse=True)
    floats, back = bits.view(float).tolist(), back.reshape(values.shape)
    words = (json.dumps(floats)[1:-1].split(", ") if fmt == "json" else [fmt % v for v in floats]
             for fmt in formats)
    ends = np.cumsum([len(trace) for trace in traces], dtype=int)[:-1]
    return [[part.tolist() for part in np.split(np.array(w, object)[back], ends, 1)] for w in words]


def json_lines(logs: list[TrajectoryLog], columns: list):
    """Each log as `TrajectoryLog.to_json` writes it, its trace values from columns (`spell`'s
    "json" rows of each trace): "params" encoded once per distinct dict (a batch's logs share
    one) and put in for the 0 that holds its place (the keys before it hold no strings),
    "trace" last, one %-format per row, each posterior json once."""
    params = spelled = None
    for log, (times, p_s, p_r, fids) in zip(logs, columns):
        if log.params is not params:
            params, spelled = log.params, '"params": ' + json.dumps(log.params, sort_keys=True)
        doc = {f.name: getattr(log, f.name) for f in fields(log) if f.name != "trace"}
        doc.update(params=0, record=[{"tau_s": t, "outcome": m} for t, m in log.record.entries],
                   posteriors=log.posteriors.tolist(), fidelities=log.fidelities.tolist())
        text = json.dumps(doc, sort_keys=True).replace('"params": 0', spelled, 1)
        posts = [json.dumps(post) for post in log.trace.posteriors.tolist()] if log.trace else []
        rows = [_TRACE_ROW % (f, s, r, PHASES[phase], posts[post], t) for t, s, r, f, phase, post
                in zip(times, p_s, p_r, fids, *log.trace.codes.tolist())]
        yield '%s, "trace": [%s]}' % (text[:-1], ", ".join(rows))


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
    state, n_true = initial_state(initial, params, rngs)
    ns = sorted(set(mixture.ns) | set(range(state.a.size if state is not None else 0)))
    likelihoods = record_likelihoods(ns, params.omega, noise, params.ejection_enabled,
                                     np.zeros(n_traj, dtype=int))
    cols = np.searchsorted(ns, mixture.ns)  # the candidates' photon numbers in the holder
    states = (dyn.PureBatch(state, likelihoods) if state is not None else
              dyn.BlockBatch(n_true, params.omega, noise, params.ejection_enabled, points))
    # a kind that draws nothing gives drive times that depend only on the earlier
    # ones, so the trajectories share one sequence, each entry computed once
    history, per_cycle = [], 1 + params.schedule.draws  # drive-time draws, then the measurement's

    ids = np.arange(n_traj)  # trajectory of each active row
    # each active row's trajectory as errors name it: its seed key, (k,) as k
    names = np.array([str(key[0]) if len(key) == 1 else str(list(key)) for key in seed_keys])
    draws, first_draw, block = np.empty((n_traj, 0)), 0, 8
    t_now = np.zeros(n_traj)
    cycles = []  # per cycle: (ids, taus, rydberg, weights, fidelities) of its rows
    segments = []  # per traced cycle, (4, columns) `Trace` values, (3, columns) int32 codes

    steps, dts = None, states.dts
    if points:
        segments.append((np.vstack((t_now, states.read())),
                         np.array((ids, 0 * ids, 0 * ids), np.int32)))
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
            rows, code = np.empty((4, *read.shape[1:])), np.empty((3, *read.shape[1:]), np.int32)
            rows[0, driven, :points] = t_now[ids[driven], None] + steps  # the trace's clock:
            t_now[ids] += taus  # only traced runs read it
            rows[0, :, points:-1] = t_now[ids, None] + dts
            t_now[ids] += states.window
            rows[0, :, -1], rows[1:], code[0] = t_now[ids], read, ids[:, None]
            code[1], code[2] = phases, cycle + (phases == 3)  # the collapse's posterior is new
            if driven.size < ids.size:  # an undriven row has no drive sub-steps
                kept = (taus > 0)[:, None] | (np.arange(rows.shape[2]) >= points)
                rows, code = rows[:, kept], code[:, kept]
            segments.append((rows.reshape(4, -1), code.reshape(3, -1)))
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


def _traces(segments: list[tuple], posteriors: list[np.ndarray]) -> list[Trace]:
    """Each trajectory's `Trace`, a slice of the traced segments' columns (values, and
    codes: trajectory, phase, posterior) sorted by trajectory once (stably, so each keeps
    the order it was traced in).  It empties ``segments`` into two tables before
    sorting, so they are not held beside the sorted copies."""
    table = np.concatenate([np.empty((4, 0)), *(values for values, _ in segments)], axis=1)
    coded = np.concatenate([np.empty((3, 0), np.int32), *(codes for _, codes in segments)], axis=1)
    segments.clear()
    order = np.argsort(coded[0], kind="stable")
    bounds = np.cumsum(np.bincount(coded[0], minlength=len(posteriors))).tolist()
    values, codes = table[:, order], coded[1:, order]
    return [Trace(values[:, start:stop], codes[:, start:stop], post)
            for start, stop, post in zip([0, *bounds], bounds, posteriors)]


# NumPy's `SeedSequence` hash (O'Neill's seed-sequence design for PCG, kept stable by
# NEP 19): its pool size and the constants of its two hashes and its mix, as Python ints
_POOL, _MASK = 4, 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _words(n: int) -> list[int]:
    """A non-negative integer's 32-bit words, least significant first (0 has one)."""
    return [(n >> shift) & _MASK for shift in range(0, max(n.bit_length(), 1), 32)]


def _hasher(const: int, mult: int):
    """`SeedSequence`'s hashmix over uint32 arrays: its hash constant starts at const and
    is multiplied by mult at every call."""
    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK
        value = value * const
        return value ^ value >> 16
    return hashmix


def _seed_states(seed: int, keys: np.ndarray) -> np.ndarray:
    """(rows, 4) uint64: row r is the `generate_state(4, np.uint64)` of NumPy's
    `SeedSequence` of seed with the spawn key whose 32-bit words are keys[r] ((rows,
    words) uint32), hashed over uint32 columns, all rows at once.  The seed's words are padded with zeros to the
    pool size; NumPy pads only when there is a key, but hashes a missing pool word as 0."""
    run = _words(seed)
    columns = [np.full(len(keys), word, np.uint32) for word in run + [0] * (_POOL - len(run))]
    columns += list(keys.T)
    hashmix = _hasher(_INIT_A, _MULT_A)

    def mix(x, y):
        value = x * _MIX_L - y * _MIX_R
        return value ^ value >> 16

    pool = [hashmix(word) for word in columns[:_POOL]]
    for src, dst in product(range(_POOL), repeat=2):  # every pool word into every other
        if src != dst:
            pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word, dst in product(columns[_POOL:], range(_POOL)):  # each later word into each
        pool[dst] = mix(pool[dst], hashmix(word))
    hashmix = _hasher(_INIT_B, _MULT_B)  # eight uint32 words, read as four little-endian uint64
    state = np.stack([hashmix(pool[i % _POOL]) for i in range(2 * _POOL)], axis=1)
    return state.astype("<u4").view("<u8").astype(np.uint64)


@lru_cache(maxsize=1)
def _seed_state() -> type:
    """The `ISeedSequence` that hands `np.random.PCG64` a row of `_seed_states`, the four
    uint64 words it asks for; made at first use, so numpy.random loads then, not at import."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedState(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words
    return SeedState


def _generators(seed: int, keys: np.ndarray) -> list[np.random.Generator]:
    """One generator per row of keys (as `_seed_states` takes them): the stream NumPy's
    default generator draws when seeded by the `SeedSequence` of seed and that key."""
    seed_state = _seed_state()
    return [np.random.Generator(np.random.PCG64(seed_state(row)))
            for row in _seed_states(seed, keys)]


def _key_words(seed_key: tuple[int, ...]) -> np.ndarray:
    """(1, words) uint32: a seed key's elements' `_words`, one after another, as
    `SeedSequence` reads a spawn key; an element that is not a whole number >= 0 is a
    `DomainError`."""
    if not all(isinstance(k, numbers.Integral) and k >= 0 for k in seed_key):
        raise DomainError(f"a seed key holds whole numbers >= 0, got {seed_key!r}")
    return np.array([[word for k in seed_key for word in _words(int(k))]], np.uint32)


def run_protocol(initial, params: ProtocolParams,
                 seed_key: tuple[int, ...] = ()) -> TrajectoryLog:
    """Simulate one experiment; deterministic given params.seed and seed_key."""
    return _run(initial, params, _generators(params.seed, _key_words(seed_key)), [seed_key])[0]


def run_batch(initial, params: ProtocolParams, n_trajectories: int) -> list[TrajectoryLog]:
    """Independent seeded trajectories; trajectory i uses seed key (i,), as `run_protocol`
    takes it."""
    if n_trajectories > _MASK:  # every key, and the count, one uint32 word
        raise ResourceError(f"{n_trajectories} trajectories: a batch runs fewer than 2**32")
    keys = [(i,) for i in range(n_trajectories)]
    words = np.arange(len(keys), dtype=np.uint32)[:, None]
    return _run(initial, params, _generators(params.seed, words), keys)

"""Measurement-record likelihoods, Bayesian posteriors and MLE readout.

The noiseless likelihood is the closed-form product of cos^2/sin^2 factors
keyed on whether consecutive outcomes repeat (the record starts from a
NoRydberg convention).  The noisy likelihood multiplies the conditional
outcome probabilities of the j = 0 block state of each photon number, the
only block the outcome probabilities read (Wiseman & Milburn, *Quantum
Measurement and Control*, 2010, on conditional states).  One array kernel,
`_cycle`, advances any number of such states through a cycle on the cached
eigensystems of `dynamics`; `NoisyLikelihoods` holds them for records that
grow together (the engine, sequential inference, the outcome tree of
`analysis`), and `posterior_trace` uses the renewal structure of a fixed
record: after a NoRydberg outcome, or an ejection, the state is the fresh
|S_n><S_n| of its sector again.  The noisy form reduces to the noiseless one
when gamma = 0 and the measurement window is instantaneous.  Products are
accumulated in the log domain so long records do not underflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import lru_cache

import numpy as np

from . import dynamics as dyn
from .dynamics import SymmetricBlockState
from .errors import DomainError, ImpossibleOutcomeError, InconsistentRecordError
from .records import FockDistribution, MeasurementRecord, Posterior, RYDBERG
from .symbasis import sector


@dataclass(frozen=True)
class NoiseParams:
    """Calibrated noise configuration; gamma is a known parameter, never inferred."""

    gamma: float
    tau_eit: float
    N: int
    eject: bool = False

    def __post_init__(self):
        if not (0 <= self.gamma < math.inf and 0 <= self.tau_eit < math.inf and self.N >= 1):
            raise DomainError("gamma and tau_eit must be finite and non-negative, and N >= 1")


def _noiseless_factors(ns, omega: float, taus: np.ndarray, repeat: np.ndarray,
                       shift: np.ndarray) -> np.ndarray:
    """Pr(outcome | n) of noiseless cycles, shape (len(taus), len(ns)).

    Cycle t drove for taus[t] after shift[t] ejections: cos^2 of the
    sqrt(n - shift) * omega * tau phase where repeat[t] (the outcome equals
    the reference outcome), sin^2 where it changed.  The square is libm's
    pow, as Python's ``x ** 2`` computes it.
    """
    m = np.maximum(np.asarray(ns)[None, :] - np.asarray(shift)[:, None], 0)
    phase = dyn._phases(np.sqrt(m) * omega, np.asarray(taus, dtype=float)[:, None])
    trig = np.where(np.asarray(repeat)[:, None], np.cos(phase), np.sin(phase))
    return np.float_power(trig, 2.0)


def _noiseless_log_table(record: MeasurementRecord, ns: list[int], omega: float,
                         eject: bool = False) -> np.ndarray:
    """log Pr(first t outcomes | n) for t = 0..T, shape (T + 1, len(ns))."""
    rydberg = np.array([outcome == RYDBERG for _, outcome in record.entries], dtype=bool)
    taus = np.array([tau for tau, _ in record.entries], dtype=float)
    # ejection removes a photon per Rydberg outcome and resets the reference outcome
    shift = (np.cumsum(rydberg) - rydberg) * eject
    prev = np.concatenate(([False], rydberg))[:-1] & (not eject)
    with np.errstate(divide="ignore"):
        log_f = np.log(_noiseless_factors(ns, omega, taus, rydberg == prev, shift))
    return np.vstack((np.zeros((1, len(ns))), np.cumsum(log_f, axis=0)))


def log_likelihood_noiseless(record: MeasurementRecord, n: int, omega: float) -> float:
    """log Pr(M_T | n) for the noiseless protocol."""
    if n < 0:
        raise DomainError("photon number must be non-negative")
    return float(_noiseless_log_table(record, [n], omega)[-1, 0])


def likelihood_noiseless(record: MeasurementRecord, n: int, omega: float) -> float:
    return math.exp(log_likelihood_noiseless(record, n, omega))


# The j = 0 block holds the families ss, rs, sr, rr and rs_sr, in that order;
# n = 1 lacks rs_sr and the vacuum has only ss, so padding every state to five
# entries keeps each family at one index.
_DIM, _SS, _RR = 5, 0, 3


def _padded(a: np.ndarray) -> np.ndarray:
    """A j = 0 vector or matrix padded to five families; a matrix gets ones on the
    padded diagonal, so it maps the zero padding of a state to zero."""
    if a.ndim == 1:
        out = np.zeros(_DIM, dtype=a.dtype)
        out[:a.size] = a
    else:
        out = np.eye(_DIM, dtype=a.dtype)
        out[:len(a), :len(a)] = a
    return out


@dataclass(frozen=True, eq=False)
class _J0Block:
    """The j = 0 block of one (n, N) sector at fixed rates, padded to five families.

    ``spectral`` says whether `dynamics._eigensystem` gave the drive generator
    an eigenbasis (``lam``, ``vecs``, ``inv``, padded with eigenvalue 0); where
    it did not, each drive time takes the ``expm`` of `dynamics._propagator`.
    ``window`` is the measurement window's propagator, ``fresh`` the state
    |S_n><S_n| and ``keep[m]`` the families outcome m (1 for Rydberg) keeps.
    """

    n: int
    N: int
    omega: float
    gamma: float
    trace: np.ndarray
    fresh: np.ndarray
    keep: np.ndarray
    spectral: bool
    lam: np.ndarray
    vecs: np.ndarray
    inv: np.ndarray
    window: np.ndarray

    def propagator(self, tau: float) -> np.ndarray:
        return _padded(dyn._propagator(self.n, self.N, 0, self.omega, self.gamma, tau))

    def populations(self, x: np.ndarray, grid: np.ndarray) -> np.ndarray:
        """(p_NoRydberg, p_Rydberg) of the states x were they driven for each
        time of the grid, shape (len(x), 2, G); the drive-off window leaves
        both populations as they are.  Spectrally p(tau) = sum_k e^{lam_k tau}
        (r V)_k (V^-1 x)_k, with r the population's trace row, so no
        propagator is built per drive time."""
        rows = np.zeros((2, _DIM))  # the trace rows of the ss and rr populations
        rows[0, _SS], rows[1, _RR] = self.trace[_SS], self.trace[_RR]
        dyn._check_horizon(grid, dyn._horizon(self.n, self.N, 0, self.omega, self.gamma))
        if self.spectral:
            coef = (rows @ self.vecs)[None] * (x @ self.inv.T)[:, None, :]
            raw = (coef @ np.exp(self.lam[:, None] * grid[None, :])).real
        else:
            props = np.array([self.propagator(tau) for tau in grid.tolist()])
            raw = np.einsum("pi,gij,mj->mpg", rows, props, x).real
        dyn._check_drift(raw.sum(axis=1), (x.real @ self.trace)[:, None])
        return np.maximum(raw, 0.0)


@lru_cache(maxsize=256)
def _j0_block(n: int, N: int, omega: float, gamma: float, tau_eit: float) -> _J0Block:
    blk = sector(n, N).block(0)
    _, eig = dyn._eigensystem(n, N, 0, omega, gamma)
    lam, vecs, inv = eig if eig is not None else (np.zeros(blk.dim), np.eye(1), np.eye(1))
    window = dyn._propagator(n, N, 0, 0.0, gamma, tau_eit) if tau_eit > 0 else np.eye(1)
    return _J0Block(n, N, omega, gamma, trace=_padded(blk.trace),
                    fresh=_padded(blk.dyads[0].astype(complex)),
                    keep=np.array([_padded(blk.no_rydberg), _padded(blk.rydberg)]),
                    spectral=eig is not None, lam=_padded(lam.astype(complex)),
                    vecs=_padded(vecs.astype(complex)), inv=_padded(inv.astype(complex)),
                    window=_padded(window.astype(complex)))


def _systems(n: np.ndarray, N: np.ndarray, omega: float,
             noise: NoiseParams) -> tuple[tuple[_J0Block, ...], np.ndarray]:
    """The distinct `_J0Block`s of items in the (n, N) sectors, and each item's index."""
    codes = n * (noise.N + 1) + N
    distinct = np.unique(codes)
    return tuple(_j0_block(*divmod(code, noise.N + 1), omega, noise.gamma, noise.tau_eit)
                 for code in distinct.tolist()), np.searchsorted(distinct, codes)


@lru_cache(maxsize=64)
def _table(systems: tuple[_J0Block, ...]) -> dict[str, np.ndarray]:
    """Every array field of the systems, stacked."""
    return {f.name: np.stack([getattr(s, f.name) for s in systems])
            for f in fields(_J0Block) if f.name not in ("n", "N", "omega", "gamma")}


def _stacked(systems: tuple[_J0Block, ...], inv: np.ndarray, name: str) -> np.ndarray:
    return _table(systems)[name][inv]


def _windowed(x: np.ndarray, systems: tuple[_J0Block, ...], inv: np.ndarray, taus: np.ndarray,
              noise: NoiseParams) -> np.ndarray:
    """States x after a drive of taus and the measurement window.

    An item's drive propagator is (V e^{lam tau}) V^-1, or expm where its
    block has no well-conditioned eigenbasis, applied as prop @ x; then comes
    the window's.  These are the operations of `dynamics.evolve_block`, in its
    order, so an item matches it to the bit, and so is its trace-drift check.
    """
    if (taus < 0).any():
        raise DomainError("evolution time must be non-negative")
    dyn._check_horizon(taus, np.array([dyn._horizon(s.n, s.N, 0, s.omega, s.gamma)
                                       for s in systems])[inv])
    props = dyn._spectral(*(_stacked(systems, inv, key) for key in ("lam", "vecs", "inv")), taus)
    for m in np.flatnonzero(~_stacked(systems, inv, "spectral")).tolist():
        props[m] = systems[inv[m]].propagator(float(taus[m]))
    trace = _stacked(systems, inv, "trace")[:, :, None]
    windows = (props, _stacked(systems, inv, "window")) if noise.tau_eit > 0 else (props,)
    for prop in windows:
        x = dyn._advance(x, (prop,), (slice(None),), trace)
    return x


def _collapsed(x: np.ndarray, systems: tuple[_J0Block, ...], inv: np.ndarray, N: np.ndarray,
               rydberg: np.ndarray, eject: bool) -> tuple[np.ndarray, np.ndarray]:
    """Every item projected on its outcome and, with ejection, a Rydberg one moved
    to (n - 1, N - 1): (p, states), with p = 0 where the outcome is impossible.

    As `dynamics.project_blocks` and `dynamics.eject_block` compute them: the
    kept families divided by p; then the rr coefficient times sqrt(N), moved
    to ss and divided by the trace it carries there.
    """
    p_s, p_r = dyn._populations(_stacked(systems, inv, "trace"), x, _SS, _RR)
    p = np.where(rydberg, p_r, p_s)
    live = p > 0.0
    keep = _stacked(systems, inv, "keep")[np.arange(len(x)), rydberg.astype(int)]
    out = dyn._projected(keep, x, np.where(live, p, 1.0))
    moved = live & rydberg & eject
    if moved.any():
        ss = out[moved, _RR] * np.sqrt(N[moved])
        ss_trace = [sector(s.n - 1, s.N - 1).block(0).trace[_SS] if s.n else 0.0
                    for s in systems]
        out[moved] = 0.0
        out[moved, _SS] = dyn._renormalised(ss[:, None], np.array(ss_trace)[inv[moved], None])[:, 0]
    return p, out


def _cycle(x: np.ndarray | None, n: np.ndarray, N: np.ndarray, taus: np.ndarray,
           rydberg: np.ndarray, omega: float, noise: NoiseParams
           ) -> tuple[np.ndarray, np.ndarray]:
    """One record cycle of every item: its j = 0 state x of the (n, N) sector
    (x None: the fresh |S_n><S_n|) driven for its tau, through the window and
    projected on its outcome.  Returns (p, states) as `_collapsed` does."""
    if not len(n):
        return np.zeros(0), np.zeros((0, _DIM), dtype=complex)
    systems, inv = _systems(n, N, omega, noise)
    if x is None:
        x = _stacked(systems, inv, "fresh")
    return _collapsed(_windowed(x, systems, inv, taus, noise), systems, inv, N, rydberg,
                      noise.eject)


def _noisy_log_table(record: MeasurementRecord, ns: list[int], omega: float,
                     noise: NoiseParams) -> np.ndarray:
    """log Pr(first t outcomes | n) of a noisy record, shape (T + 1, len(ns)).

    The conditional state renews itself: a NoRydberg outcome leaves only ss,
    and with ejection a Rydberg outcome leaves only the ss of (n - 1, N - 1),
    so the next cycle starts from the fresh |S_n><S_n| of its sector.  All
    cycles that start fresh (the first, and every one after such an outcome)
    take one `_cycle` together; a cycle k Rydberg outcomes into a run
    continues the state its predecessor left, and all cycles at run position
    k take one `_cycle` together.
    """
    taus = np.array([tau for tau, _ in record.entries], dtype=float)
    rydberg = np.array([outcome == RYDBERG for _, outcome in record.entries], dtype=bool)
    ns = np.asarray(ns)
    shift = (np.cumsum(rydberg) - rydberg) * noise.eject
    n = ns[None, :] - shift[:, None]
    N = np.broadcast_to((noise.N - shift)[:, None], n.shape)
    cycle = np.arange(taus.size)
    continued = np.concatenate(([False], rydberg))[:-1] & (not noise.eject)
    run = cycle - np.maximum.accumulate(np.where(continued, 0, cycle))
    log_p = np.full(n.shape, -math.inf)
    left = np.zeros(n.shape + (_DIM,), dtype=complex)  # the state each cycle leaves
    for k in range(int(run.max(initial=0)) + 1):
        if k == 0:
            ready = n >= 0  # not ejected past the vacuum
        else:  # the predecessor's outcome was possible, so it left a state
            ready = np.zeros(n.shape, dtype=bool)
            ready[1:] = log_p[:-1] > -math.inf
        t, c = np.nonzero((run == k)[:, None] & ready)
        p, x = _cycle(None if k == 0 else left[t - 1, c], n[t, c], N[t, c], taus[t],
                      rydberg[t], omega, noise)
        live = p > 0.0
        left[t[live], c[live]] = x[live]
        log_p[t[live], c[live]] = _libm(math.log, p[live])
    return np.vstack((np.zeros((1, ns.size)), np.cumsum(log_p, axis=0)))


class ConditionalState:
    """Conditional j = 0 block state of a fixed-n hypothesis along a record
    prefix: a one-row, one-candidate view of `NoisyLikelihoods`.  Feeding
    entries one at a time keeps posterior updates incremental."""

    def __init__(self, n: int, omega: float, noise: NoiseParams):
        self._row = NoisyLikelihoods([n], omega, noise)

    def update(self, tau: float, outcome: str) -> float:
        """Advance one observation cycle; returns log of the conditional probability."""
        return float(self._row.update(np.array([tau], dtype=float),
                                      np.array([outcome == RYDBERG]))[0, 0])

    def outcome_probabilities(self, tau: float) -> tuple[float, float]:
        """(p_NoRydberg, p_Rydberg) for the next cycle without committing to it."""
        if self.dead:
            raise ImpossibleOutcomeError("conditional state already has zero likelihood")
        p_s, p_r = self._row.outcome_grid(np.array([tau], dtype=float))[0, 0].tolist()
        return p_s, p_r

    @property
    def log_l(self) -> float:
        return float(self._row.log_l[0, 0])

    @property
    def dead(self) -> bool:
        return self.log_l == -math.inf

    @property
    def blocks(self) -> list[SymmetricBlockState]:
        """The state as a one-block list (ejection leaves only j = 0 filled)."""
        shift = int(self._row.shift[0])
        n, N = int(self._row.ns[0]) - shift, self._row.noise.N - shift
        return [SymmetricBlockState(n, N, 0, self._row.x[0, 0, :sector(n, N).block(0).dim])]


def _log_likelihood_table(record: MeasurementRecord, ns: list[int], omega: float,
                          noise: NoiseParams | None, eject: bool = False) -> np.ndarray:
    """log Pr(first t outcomes | n), shape (T + 1, len(ns)); ejection is on
    where ``eject`` or ``noise.eject`` says so."""
    if noise is None:
        return _noiseless_log_table(record, ns, omega, eject)
    return _noisy_log_table(record, ns, omega, replace(noise, eject=True) if eject else noise)


def log_likelihood_noisy(record: MeasurementRecord, n: int, omega: float,
                         noise: NoiseParams) -> float:
    return float(_log_likelihood_table(record, [n], omega, noise)[-1, 0])


def marginal_likelihood(record: MeasurementRecord, dist: FockDistribution, omega: float,
                        noise: NoiseParams | None = None) -> float:
    """Pr(M_T | P) = sum_n p_n Pr(M_T | n)."""
    logs = _log_likelihood_table(record, dist.support(), omega, noise)[-1]
    return float(dist.p[dist.support()] @ np.exp(logs))


def posterior_trace(record: MeasurementRecord, candidates: list[FockDistribution],
                    prior: Posterior, omega: float, noise: NoiseParams | None = None,
                    eject: bool = False) -> np.ndarray:
    """Posterior over the candidates after every prefix of the record, shape (T + 1, K).

    Each row leaves the log domain scaled by its largest finite likelihood, so
    long records do not underflow.
    """
    mixture = Mixture(candidates, prior)
    log_l = _log_likelihood_table(record, mixture.ns, omega, noise, eject)
    top = np.max(log_l, axis=1, keepdims=True)
    top[~np.isfinite(top)] = 0.0
    weights = np.exp(log_l - top) @ (mixture.p * mixture.prior[:, None]).T
    total = weights.sum(axis=1, keepdims=True)
    if np.any(total <= 0.0):
        raise InconsistentRecordError("record has zero likelihood under every candidate "
                                      f"from cycle {np.argmax(total <= 0.0)}")
    return weights / total


def posterior(record: MeasurementRecord, candidates: list[FockDistribution],
              prior: Posterior, omega: float,
              noise: NoiseParams | None = None) -> Posterior:
    """Bayes update of the prior over candidate distributions."""
    return Posterior(posterior_trace(record, candidates, prior, omega, noise)[-1])


def mle(post: Posterior) -> int:
    """Index of the maximal posterior weight; ties break to the lowest index."""
    return int(np.argmax(post.weights))


def _libm(fn, x: np.ndarray) -> np.ndarray:
    """A ``math`` function applied element by element.  numpy's vectorised exp
    and log differ from libm's by an ulp on some arguments; this does not."""
    return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)


class Mixture:
    """Candidate distributions weighted by a prior: the photon numbers ns in
    their supports, sorted, and p[k, i] = Pr(ns[i] | candidate k), shape (K, len(ns))."""

    def __init__(self, candidates: list[FockDistribution], prior: Posterior):
        if not candidates:
            raise DomainError("need at least one candidate distribution")
        if prior.weights.size != len(candidates):
            raise DomainError("prior size does not match the candidate list")
        self.ns = sorted({n for c in candidates for n in c.support()})
        self.p = np.array([[c.p[n] if n <= c.n_max else 0.0 for n in self.ns]
                           for c in candidates])
        self.prior = prior.weights.astype(float)

    def posterior(self, log_l: np.ndarray) -> np.ndarray:
        """Posterior over the candidates for each row of log Pr(record | n), shape (B, K).

        Each row leaves the log domain scaled by its largest likelihood.  Sums
        accumulate left to right, as the scalar code sums, so a row's weights
        are the same to the last bit; the zero terms outside a candidate's
        support add exactly nothing.
        """
        top = log_l.max(axis=1, keepdims=True)
        top[top == -math.inf] = 0.0  # every likelihood zero: the total check fails
        scaled = _libm(math.exp, log_l - top)
        terms = self.p * scaled[:, None, :]
        weights = self.prior * np.add.accumulate(terms, axis=2)[:, :, -1]
        total = np.add.accumulate(weights, axis=1)[:, -1]
        if not (total > 0.0).all():
            raise InconsistentRecordError("record has zero likelihood under every candidate")
        return weights / total[:, None]


class NoiselessLikelihoods:
    """log Pr(record | n) of B noiseless records growing together, shape (B, len(ns)).

    Row r keeps its last outcome (the reference for the cos^2/sin^2 choice,
    NoRydberg with ejection) and its ejection count (the photon shift).
    """

    def __init__(self, ns: list[int], omega: float, eject: bool = False, rows: int = 1):
        self.ns = np.asarray(ns)
        self.omega = omega
        self.eject = eject
        self.log_l = np.zeros((rows, len(ns)))
        self._last = np.zeros(rows, dtype=bool)
        self._shift = np.zeros(rows, dtype=int)

    def update(self, taus: np.ndarray, rydberg: np.ndarray) -> None:
        """One cycle for every row: drive times and outcomes (True for Rydberg)."""
        factor = _noiseless_factors(self.ns, self.omega, taus, rydberg == self._last,
                                    self._shift)
        log_f = _libm(math.log, np.where(factor > 0.0, factor, 1.0))
        self.log_l = self.log_l + np.where(factor > 0.0, log_f, -math.inf)
        if self.eject:
            self._shift = self._shift + rydberg
        else:
            self._last = rydberg

    def keep(self, rows: np.ndarray) -> None:
        """Drop the rows not selected by the boolean mask."""
        self.log_l, self._last, self._shift = (self.log_l[rows], self._last[rows],
                                               self._shift[rows])


class NoisyLikelihoods:
    """log Pr(record | n) of B noisy records growing together, shape (B, len(ns)),
    the noisy twin of `NoiselessLikelihoods`; ``noise.eject`` sets ejection.

    Entry (r, i) holds the conditional j = 0 state of photon number ns[i]
    along row r's record, padded to five families (``x``, shape
    (B, len(ns), 5)), in the sector (ns[i] - shift[r], N - shift[r]) after the
    row's ejections.  An entry whose record has zero likelihood stays at -inf
    and is no longer advanced.
    """

    def __init__(self, ns: list[int], omega: float, noise: NoiseParams, rows: int = 1):
        self.ns = np.asarray(ns, dtype=int)
        self.omega = omega
        self.noise = noise
        fresh = [_j0_block(n, noise.N, omega, noise.gamma, noise.tau_eit).fresh
                 for n in self.ns.tolist()]
        self.x = np.tile(np.array(fresh).reshape(1, -1, _DIM), (rows, 1, 1))
        self.log_l = np.zeros((rows, self.ns.size))
        self.shift = np.zeros(rows, dtype=int)

    def _live(self, rows=slice(None)):
        """(row, column, n, N) of every entry of the selected rows still alive."""
        r, c = np.nonzero(self.log_l[rows] > -math.inf)
        shift = self.shift[rows][r]
        return r, c, self.ns[c] - shift, self.noise.N - shift

    def update(self, taus: np.ndarray, rydberg: np.ndarray) -> np.ndarray:
        """One cycle for every row: drive times and outcomes (True for Rydberg).
        Returns log Pr(outcome | record, n), shape (B, len(ns)), added to
        ``log_l`` left to right."""
        r, c, n, N = self._live()
        p, x = _cycle(self.x[r, c], n, N, taus[r], rydberg[r], self.omega, self.noise)
        live = p > 0.0
        self.x[r[live], c[live]] = x[live]
        step = np.full(self.log_l.shape, -math.inf)
        step[r[live], c[live]] = _libm(math.log, p[live])
        self.log_l = self.log_l + step
        if self.noise.eject:
            self.shift = self.shift + rydberg
        return step

    def outcome_grid(self, grid: np.ndarray, rows=slice(None)) -> np.ndarray:
        """Pr(next outcome | record, n) of the selected rows for every drive time
        of the grid, shape (rows, len(ns), 2G): NoRydberg over the grid, then
        Rydberg; zero where the record already has zero likelihood."""
        if (grid < 0).any():
            raise DomainError("evolution time must be non-negative")
        r, c, n, N = self._live(rows)
        out = np.zeros(self.log_l[rows].shape + (2, grid.size))
        if r.size:
            systems, inv = _systems(n, N, self.omega, self.noise)
            x = self.x[rows][r, c]
            for g, system in enumerate(systems):
                at = inv == g
                out[r[at], c[at]] = system.populations(x[at], grid)
        return out.reshape(out.shape[0], out.shape[1], -1)

    def take(self, index: np.ndarray) -> None:
        """Keep the rows the index array selects, in its order; it may repeat rows."""
        self.log_l, self.x, self.shift = self.log_l[index], self.x[index], self.shift[index]

    def keep(self, rows: np.ndarray) -> None:
        """Drop the rows not selected by the boolean mask."""
        self.take(rows)


def record_likelihoods(ns: list[int], omega: float, noise: NoiseParams | None = None,
                       eject: bool = False, rows: int = 1):
    """`NoiselessLikelihoods`, or with noise `NoisyLikelihoods`; ejection is on
    where ``eject`` or ``noise.eject`` says so."""
    if noise is None:
        return NoiselessLikelihoods(ns, omega, eject, rows)
    return NoisyLikelihoods(ns, omega, replace(noise, eject=True) if eject else noise, rows)


class SequentialInference:
    """Incremental posterior over candidate distributions along a growing record."""

    def __init__(self, candidates: list[FockDistribution], prior: Posterior,
                 omega: float, noise: NoiseParams | None = None, eject: bool = False):
        self._mix = Mixture(candidates, prior)
        self._likelihoods = record_likelihoods(self._mix.ns, omega, noise, eject)
        self._record = MeasurementRecord()

    def update(self, tau: float, outcome: str) -> Posterior:
        self._record.append(tau, outcome)
        self._likelihoods.update(np.array([tau], dtype=float),
                                 np.array([outcome == RYDBERG]))
        return self.posterior()

    def posterior(self) -> Posterior:
        return Posterior(self._mix.posterior(self._likelihoods.log_l)[0])

    @property
    def record(self) -> MeasurementRecord:
        return self._record

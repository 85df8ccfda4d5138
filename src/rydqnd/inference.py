"""Measurement-record likelihoods and Bayesian posteriors.

The noiseless likelihood is the closed-form product of cos^2/sin^2 factors
keyed on whether consecutive outcomes repeat (the record starts from a
NoRydberg convention).  The noisy likelihood multiplies the conditional
outcome probabilities of the j = 0 block state of each photon number, the
only block the outcome probabilities read (Wiseman & Milburn, *Quantum
Measurement and Control*, 2010, on conditional states).
`NoisyLikelihoods` holds such states for records that grow together (the
engine, sequential inference, the outcome tree of `analysis`), each row
starting at its ejection count `shift`, and advances them all through a
cycle in stacked products, one per ejection count, read from its `_shift_rows`.
`posterior_trace` runs one over the runs of a fixed record: after a NoRydberg
outcome, or an ejection, the state is the fresh |S_n><S_n| of its sector
again, so each run is one row.  The noisy form reduces to the noiseless one
when gamma = 0 and the measurement window is instantaneous.  Products are
accumulated in the log domain so long records do not underflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from . import dynamics as dyn
from .errors import DomainError, InconsistentRecordError
from .records import FockDistribution, MeasurementRecord, Posterior, is_rydberg
from .symbasis import sector


@dataclass(frozen=True)
class NoiseParams:
    """Calibrated noise configuration; gamma is a known parameter, never inferred."""

    gamma: float
    tau_eit: float
    N: int

    def __post_init__(self):
        if not (0 <= self.gamma < math.inf and 0 <= self.tau_eit < math.inf and self.N >= 1):
            raise DomainError("gamma and tau_eit must be finite and non-negative, and N >= 1")


def log_likelihood_noiseless(record: MeasurementRecord, n: int, omega: float) -> float:
    """log Pr(M_T | n) for the noiseless protocol."""
    if n < 0:
        raise DomainError("photon number must be non-negative")
    return float(_log_likelihood_table(record, [n], omega, None)[-1, 0])


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


@lru_cache(maxsize=1024)
def _shift_rows(ns: tuple[int, ...], N: int, s: int, omega: float, gamma: float,
                tau_eit: float) -> dict[str, np.ndarray]:
    """The j = 0 blocks at fixed rates of the sectors (max(n - s, 0), N - s) that
    the photon numbers n of ns reach after s ejections, padded to five families
    and stacked: photon number ns[i] is row i.

    ``spectral`` says whether `dynamics._eigensystem` gave the drive generator
    an eigenbasis (``lam``, ``vecs``, ``inv``, padded with eigenvalue 0); where
    it did not, each drive time takes the ``expm`` of `dynamics._build_propagators`.
    ``horizon`` bounds the drive times, ``window`` is the measurement window's
    propagator W and ``wvecs`` is W V, so a cycle's K(tau) = W U(tau) is
    (W V) e^{lam tau} V^-1 (`dynamics._spectral`).  ``fresh`` is the state
    |S_n><S_n| and ``keep[:, m]`` the families outcome m (1 for Rydberg) keeps.
    """
    rows = []
    for n, N in [(max(n - s, 0), N - s) for n in ns]:
        blk = sector(n, N).block(0)
        _, horizon, eig = dyn._eigensystem(n, N, 0, omega, gamma)
        lam, vecs, inv = eig if eig is not None else (np.zeros(blk.dim), *[np.eye(blk.dim)] * 2)
        window = dyn._propagator(n, N, 0, 0.0, gamma, (tau_eit,))[0] if tau_eit > 0 else np.eye(blk.dim)
        rows.append({"n": n, "trace": _padded(blk.trace),
                     "fresh": _padded(blk.dyads[0].astype(complex)),
                     "keep": np.array([_padded(blk.no_rydberg), _padded(blk.rydberg)]),
                     "spectral": eig is not None, "horizon": horizon,
                     "lam": _padded(lam.astype(complex)), "vecs": _padded(vecs.astype(complex)),
                     "inv": _padded(inv.astype(complex)), "wvecs": _padded(window @ vecs + 0j),
                     "window": _padded(window.astype(complex))})
    return {key: np.stack([row[key] for row in rows]) for key in rows[0]}


class ConditionalState:
    """Conditional j = 0 block state of a fixed-n hypothesis along a record
    prefix: a one-row, one-candidate view of `NoisyLikelihoods`.  Feeding
    entries one at a time keeps posterior updates incremental."""

    def __init__(self, n: int, omega: float, noise: NoiseParams, eject: bool = False):
        self._row = NoisyLikelihoods([n], omega, noise, eject)

    def update(self, tau: float, outcome: str) -> float:
        """Advance one observation cycle; returns log of the conditional probability."""
        return float(self._row.update(np.array([tau], dtype=float),
                                      np.array([is_rydberg(outcome)]))[0, 0])


def _log_likelihood_table(record: MeasurementRecord, ns: list[int], omega: float,
                          noise: NoiseParams | None, eject: bool = False) -> np.ndarray:
    """log Pr(first t outcomes | n), shape (T + 1, len(ns)).

    A noisy record's conditional state renews itself: a NoRydberg outcome
    leaves only ss, and with ejection a Rydberg outcome leaves only the ss of
    (n - 1, N - 1), so every cycle that does not continue a Rydberg run starts
    from the fresh |S_n><S_n| of its sector.  Each run is a row of one
    `NoisyLikelihoods`, started at its ejection count; the rows, longest run
    first, take their k-th cycles in one update, and a row leaves when its run ends.
    """
    taus, rydberg = record.taus, record.rydberg
    # ejection removes a photon per Rydberg outcome and resets the reference outcome
    shift = (np.cumsum(rydberg) - rydberg) * eject
    # whether each cycle's predecessor was a Rydberg outcome that it continues
    continued = np.concatenate(([False], rydberg))[:-1] & (not eject)
    if noise is None:
        with np.errstate(divide="ignore"):
            log_f = np.log(dyn._noiseless_factors(_roots(ns, shift), omega, taus,
                                                  rydberg == continued))
    else:
        starts = np.flatnonzero(~continued)
        length = np.diff(np.append(starts, taus.size))
        order = np.argsort(-length, kind="stable")
        starts, length = starts[order], length[order]
        runs = NoisyLikelihoods(ns, omega, noise, eject, shift[starts])
        log_f = np.empty((taus.size, len(ns)))
        for k in range(length.max(initial=0)):
            runs.take(slice(np.count_nonzero(length > k)))
            t = starts[:len(runs.shift)] + k
            log_f[t] = runs.update(taus[t], rydberg[t])
    return np.vstack((np.zeros((1, len(ns))), np.cumsum(log_f, axis=0)))


def posterior_trace(record: MeasurementRecord, candidates: list[FockDistribution],
                    prior: Posterior, omega: float, noise: NoiseParams | None = None,
                    eject: bool = False) -> np.ndarray:
    """Posterior over the candidates after every prefix of the record, shape (T + 1, K):
    `Mixture.posterior` of each prefix's likelihoods."""
    mixture = Mixture(candidates, prior)
    return mixture.posterior(_log_likelihood_table(record, mixture.ns, omega, noise, eject),
                             "cycle")


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

    def posterior(self, log_l: np.ndarray, rows: str = "row", names=None) -> np.ndarray:
        """Posterior over the candidates for each row of log Pr(record | n), shape (B, K).

        Each row leaves the log domain scaled by its largest likelihood, so a
        constant added to a row changes only rounding; the weights are numpy
        sums over the photon numbers, then the candidates, where a -inf
        likelihood or a zero p adds exactly nothing.  A row of zero likelihood under
        every candidate is an error naming the first, as one of ``rows``: by its
        entry in ``names`` if given, else by its index.
        """
        top = log_l.max(axis=1, keepdims=True)
        top[top == -math.inf] = 0.0  # every likelihood zero: the total check fails
        weights = self.prior * (self.p * np.exp(log_l - top)[:, None, :]).sum(axis=2)
        total = weights.sum(axis=1)
        if not (total > 0.0).all():
            first = np.argmin(total > 0.0)
            raise InconsistentRecordError("record has zero likelihood under every candidate "
                                          f"from {rows} {first if names is None else names[first]}")
        return weights / total[:, None]


@lru_cache(maxsize=64)
def _noiseless_grid(ns: tuple[int, ...], omega: float, grid: bytes, shift: int) -> np.ndarray:
    """Noiseless Pr(next outcome | record, n) after shift ejections over a grid, shape
    (len(ns), 2G): cos^2 for the reference outcome repeated, then sin^2 for it changed;
    read-only, as every call with this grid and shift shares it."""
    taus = np.frombuffer(grid)
    step = dyn._noiseless_factors(_roots(ns, shift), omega, np.tile(taus, 2),
                                  np.repeat([True, False], taus.size)).T.copy()  # C order
    step.flags.writeable = False
    return step


def _roots(ns, shift) -> np.ndarray:
    """sqrt(max(n - s, 0)) of the photon numbers ns at each ejection count s of shift."""
    return np.sqrt(np.maximum(np.asarray(ns) - np.asarray(shift)[..., None], 0))


class NoiselessLikelihoods:
    """log Pr(record | n) of B noiseless records growing together, shape (B, len(ns)).

    Row r keeps whether its last outcome was Rydberg (``last``, the cos^2/sin^2 reference;
    never with ejection), its ejection count (``shift``, from shift[r]) and its `_roots`
    (``root``, renewed only when a row ejects), which `dynamics.PureBatch` reads too; an
    entry with more ejections than photons starts at -inf.  `update` checks and evaluates a
    cycle, then takes `_step`, which the engine takes alone on `PureBatch.measure`'s factors.
    """

    def __init__(self, ns: list[int], omega: float, eject: bool = False, shift=(0,)):
        self.ns, self.omega, self.eject = np.asarray(ns), omega, eject
        self.shift = np.array(shift, dtype=int)
        self.log_l = np.where(self.ns >= self.shift[:, None], 0.0, -math.inf)
        self.last, self.root = np.zeros(self.shift.size, dtype=bool), _roots(self.ns, self.shift)

    def update(self, taus: np.ndarray, rydberg: np.ndarray) -> None:
        """One cycle for every row: drive times and outcomes (True for Rydberg)."""
        dyn._check_rows(len(self.log_l), taus=taus, rydberg=rydberg)
        dyn._check_times(taus, "drive time")
        self._step(dyn._noiseless_factors(self.root, self.omega, taus, rydberg == self.last),
                   rydberg)

    def _step(self, factor: np.ndarray, rydberg: np.ndarray) -> None:
        with np.errstate(divide="ignore"):  # an impossible outcome: log 0 = -inf
            self.log_l = self.log_l + np.log(factor)
        self.last = rydberg & (not self.eject)  # the one rule: last = Rydberg unless ejecting;
        if self.eject and rydberg.any():  # an ejection shifts a photon
            self.shift = self.shift + rydberg
            self.root = _roots(self.ns, self.shift)

    def grid_reader(self, grid: np.ndarray):
        """The grid checked and keyed once, and a function of the selected rows (default
        all) giving their Pr(next outcome | record, n) for every drive time of the grid,
        shape (rows, len(ns), 2G): the row's reference outcome repeated, then changed,
        so rows differ in which outcome comes first (`analysis._fidelity_over_grid` only
        sums the two).  Shape (1, len(ns), 2G), to broadcast, where every selected row has
        one photon shift (always so without ejection)."""
        dyn._check_times(grid, "drive time")
        return partial(self._read_grid, (tuple(self.ns.tolist()), self.omega, grid.tobytes()))

    def _read_grid(self, key: tuple, rows=slice(None)) -> np.ndarray:
        shifts = self.shift[rows].tolist()
        if len(set(shifts)) <= 1:
            return _noiseless_grid(*key, shifts[0] if shifts else 0)[None]
        return np.array([_noiseless_grid(*key, shift) for shift in shifts])

    def take(self, index: np.ndarray) -> None:
        """Keep the rows an index array (in its order, repeats allowed) or a mask selects."""
        self.log_l, self.last, self.shift = self.log_l[index], self.last[index], self.shift[index]
        self.root = self.root[index]


class NoisyLikelihoods:
    """log Pr(record | n) of B noisy records growing together, shape (B, len(ns)),
    the noisy twin of `NoiselessLikelihoods`.

    Entry (r, i) holds the conditional j = 0 state of photon number ns[i]
    along row r's record, padded to five families (``x``, shape
    (B, len(ns), 5)), in the sector (ns[i] - shift[r], N - shift[r]) after the
    row's ejections; it starts from the fresh |S_n><S_n| at the given shift,
    or at -inf where ns[i] < shift[r].  An entry whose record has zero
    likelihood stays at -inf and is no longer advanced.  Its sector is row i
    of the cached `_shift_rows` of ejection count shift[r], built the first
    time a live entry sits at that count or an ejection moves one there.
    """

    def __init__(self, ns: list[int], omega: float, noise: NoiseParams, eject: bool = False,
                 shift=(0,)):
        self.ns = np.asarray(ns, dtype=int)
        self.omega = omega
        self.noise = noise
        self.eject = eject
        self.shift = np.array(shift, dtype=int)
        self.log_l = np.where(self.ns >= self.shift[:, None], 0.0, -math.inf)
        self.x = np.zeros(self.log_l.shape + (_DIM,), dtype=complex)
        self._drive = {}  # per ejection count: a drive time its entries share, and its stack
        for s, r, c in self._live():
            self.x[r, c] = self._rows(s)["fresh"][c]

    def _rows(self, s: int) -> dict[str, np.ndarray]:
        """The `_shift_rows` of this holder's photon numbers after s ejections."""
        return _shift_rows(tuple(self.ns.tolist()), self.noise.N, s, self.omega,
                           self.noise.gamma, self.noise.tau_eit)

    def _live(self, rows=slice(None)):
        """The selected rows' live entries (r, c), as (s, r, c) per ejection count s, in order."""
        r, c = np.nonzero(self.log_l[rows] > -math.inf)
        shifts = self.shift[rows]
        if r.size and (shifts == shifts[0]).all():  # one count: always so without ejection
            return [(int(shifts[0]), r, c)]
        shift = shifts[r]  # `set` hashes the rows' counts, fewer than the entries'
        return [(s, r[at], c[at]) for s in sorted(set(shifts.tolist())) if (at := shift == s).any()]

    def update(self, taus: np.ndarray, rydberg: np.ndarray) -> np.ndarray:
        """One cycle for every row: drive times and outcomes (True for Rydberg).
        Returns log Pr(outcome | record, n), shape (B, len(ns)), added to
        ``log_l`` left to right.

        A live entry takes the cycle's one operator K(tau) = W U(tau), (W V)
        e^{lam tau} V^-1 (W expm(G tau) where its block has no well-conditioned
        eigenbasis); its kept families are divided by p, and an ejected entry's
        rr coefficient times sqrt(N) moves to the ss of (n - 1, N - 1), its row
        of the next shift, divided by the trace it carries there, as
        `dynamics.project_blocks` and `eject_block` do.
        """
        dyn._check_rows(len(self.log_l), taus=taus, rydberg=rydberg)
        dyn._check_times(taus, "drive time")
        taus = taus if np.ndim(taus) else np.full(rydberg.shape, taus)  # one every row shares
        step = np.full(self.log_l.shape, -math.inf)
        for s, r, c in self._live():
            rows, N = self._rows(s), self.noise.N - s
            tau, ryd = taus[r], rydberg[r]
            # a tau all entries share, no fewer than the table's rows: each row's, held per count
            shared = len(c) >= len(rows["n"]) and (tau == tau[0]).all()
            held = self._drive.get(s, (None,)) if shared else (None,)
            if held[0] != tau[0]:  # K(tau) = W U(tau) of each row, W itself where tau is 0
                k, t = (slice(None), np.full(len(rows["n"]), tau[0])) if shared else (c, tau)
                window = rows["window"][k]
                props = dyn._spectral(rows["lam"][k], rows["wvecs"][k], rows["inv"][k], t, window)
                for m in np.flatnonzero(~rows["spectral"][k] & (t <= rows["horizon"][k])).tolist():
                    props[m] = window[m] @ _padded(dyn._build_propagators(
                        int(rows["n"][k][m]), N, 0, self.omega, self.noise.gamma, t[m:m + 1])[0])
                held = tau[0], props, (t > rows["horizon"][k]).any()
                if shared:
                    self._drive[s] = held
            if held[2]:  # a row past its horizon, left unbuilt: refused if an entry is live there
                dyn._check_horizon(tau, rows["horizon"][c])
            props = held[1].take(c, axis=0) if shared else held[1]  # `take` outpaces indexing
            trace = rows["trace"].take(c, axis=0)
            x = dyn._advance(self.x[r, c], (props,), (slice(None),), trace[:, :, None])
            p_s, p_r = dyn._populations(trace, x, _SS, _RR)
            p = np.where(ryd, p_r, p_s)
            live = p > 0.0
            x = dyn._projected(rows["keep"][c, ryd.astype(int)], x, np.where(live, p, 1.0))
            moved = live & ryd & self.eject
            if moved.any():  # a live Rydberg entry has n >= 1, so shift s + 1 holds (n - 1, N - 1)
                ss = x[moved, _RR] * np.sqrt(N)
                x[moved] = 0.0
                x[moved, _SS] = dyn._renormalised(
                    ss[:, None], self._rows(s + 1)["trace"][c[moved], _SS, None])[:, 0]
            self.x[r[live], c[live]] = x[live]
            step[r[live], c[live]] = np.log(p[live])
        self.log_l = self.log_l + step
        if self.eject:
            self.shift = self.shift + rydberg
        return step

    def grid_reader(self, grid: np.ndarray):
        """The grid checked once, and a function of the selected rows (default all)
        giving their Pr(next outcome | record, n) for every drive time of the grid,
        shape (rows, len(ns), 2G): NoRydberg over the grid, then Rydberg; zero where
        the record already has zero likelihood.  Spectrally p(tau) = sum_k e^{lam_k
        tau} (r V)_k (V^-1 x)_k, r the population's trace row (the drive-off window
        keeps it), else from the grid's cached stack, `dynamics._propagator`."""
        dyn._check_times(grid, "drive time")
        return partial(self._read_grid, grid)

    def _read_grid(self, grid: np.ndarray, rows=slice(None)) -> np.ndarray:
        out = np.zeros(self.log_l[rows].shape + (2, grid.size))
        pops = np.zeros((2, _DIM))  # the trace rows of the ss and rr populations
        for s, r, c in self._live(rows):
            table, N, x = self._rows(s), self.noise.N - s, self.x[rows][r, c]
            for k in sorted(set(c.tolist())):
                at = c == k
                trace = table["trace"][k]
                pops[0, _SS], pops[1, _RR] = trace[_SS], trace[_RR]
                dyn._check_horizon(grid, table["horizon"][k])
                if table["spectral"][k]:
                    coef = (pops @ table["vecs"][k])[None] * (x[at] @ table["inv"][k].T)[:, None, :]
                    raw = (coef @ np.exp(table["lam"][k][:, None] * grid[None, :])).real
                else:
                    props = np.array([_padded(p) for p in dyn._propagator(
                        int(table["n"][k]), N, 0, self.omega, self.noise.gamma,
                        tuple(grid.tolist()))])
                    raw = np.einsum("pi,gij,mj->mpg", pops, props, x[at]).real
                dyn._check_drift(raw.sum(axis=1), (x[at].real @ trace)[:, None])
                out[r[at], c[at]] = np.maximum(raw, 0.0)
        return out.reshape(out.shape[0], out.shape[1], -1)

    def take(self, index: np.ndarray) -> None:
        """Keep the rows an index array (in its order, repeats allowed), a mask or a
        slice selects."""
        self.log_l, self.x, self.shift = self.log_l[index], self.x[index], self.shift[index]


def record_likelihoods(ns: list[int], omega: float, noise: NoiseParams | None = None,
                       eject: bool = False, shift=(0,)):
    """`NoiselessLikelihoods`, or with noise `NoisyLikelihoods`, one row per shift."""
    if noise is None:
        return NoiselessLikelihoods(ns, omega, eject, shift)
    return NoisyLikelihoods(ns, omega, noise, eject, shift)


class SequentialInference:
    """Incremental posterior over candidate distributions along a growing record."""

    def __init__(self, candidates: list[FockDistribution], prior: Posterior,
                 omega: float, noise: NoiseParams | None = None, eject: bool = False):
        self._mix = Mixture(candidates, prior)
        self._likelihoods = record_likelihoods(self._mix.ns, omega, noise, eject)

    def update(self, tau: float, outcome: str) -> Posterior:
        self._likelihoods.update(np.array([tau], dtype=float), np.array([is_rydberg(outcome)]))
        return self.posterior()

    def posterior(self) -> Posterior:
        return Posterior(self._mix.posterior(self._likelihoods.log_l)[0])

"""Protocol-level state evolution: pure noiseless dynamics over photon-number
superpositions, and noisy fixed-n dynamics in the symmetric block basis.

Pure states carry amplitudes a_n on the stored collective states and b_n on
the single-Rydberg collective states; a noiseless cycle rotates each (a_n, b_n)
and moves no weight between photon numbers, so `PureBatch` reads a batch of
trajectories as their stored Born weights times the likelihoods of their
records, kept by `inference.NoiselessLikelihoods`.  Noisy fixed-n states
are lists of block coefficient vectors, one per conserved j sector; sector
probabilities live in the j = 0 block while retrieval fidelity needs all of
them.  `BlockBatch` holds them as arrays; `eject_block` and
`retrieval_fidelity` run its array kernels on one row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
import numpy as np

from .errors import DomainError, ImpossibleOutcomeError, IntegratorError, PreconditionError, ResourceError
from .records import NO_RYDBERG, RYDBERG
from .symbasis import Sector, SectorBlock, build_block, sector


@dataclass
class PureCollectiveState:
    """Amplitudes a_n on |S_n> and b_n on |R_n>, n = 0..n_max (b_0 fixed to 0)."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=complex)
        self.b = np.asarray(self.b, dtype=complex)
        if self.a.shape != self.b.shape or self.a.ndim != 1:
            raise DomainError("amplitude arrays must be 1-d and of equal length")
        if abs(self.b[0]) > 0:
            raise DomainError("there is no Rydberg state without excitations (b_0 must be 0)")
        _check_norm(np.sum(np.abs(self.a) ** 2) + np.sum(np.abs(self.b) ** 2))

    @staticmethod
    def from_stored_amplitudes(c: np.ndarray) -> "PureCollectiveState":
        """State right after photon storage: all amplitude on the |S_n> sectors."""
        c = np.asarray(c, dtype=complex)
        return PureCollectiveState(c, np.zeros_like(c))

    @property
    def n_max(self) -> int:
        return self.a.size - 1

    def populations(self) -> np.ndarray:
        return np.abs(self.a) ** 2 + np.abs(self.b) ** 2

    def single_n(self) -> int:
        """The unique occupied photon number, or an error if unresolved."""
        pops = self.populations()
        occupied = np.nonzero(pops > 1e-12)[0]
        if occupied.size != 1:
            raise PreconditionError(
                "photon number is not resolved; continue observing before retrieval")
        return int(occupied[0])


def _phases(rate, taus) -> np.ndarray:
    """The drive phases rate * taus; a phase past float range is a
    `ResourceError` naming its drive time."""
    with np.errstate(over="ignore"):
        theta = rate * taus
    finite = np.isfinite(theta)
    if not finite.all():
        tau = np.broadcast_to(taus, theta.shape)[~finite][0]
        raise ResourceError(f"drive time {tau} s puts the drive phase past float range")
    return theta


def _noiseless_factors(ns, omega: float, taus: np.ndarray, repeat: np.ndarray,
                       shift: np.ndarray) -> np.ndarray:
    """Pr(outcome | n) of noiseless cycles, shape repeat.shape + (len(ns),).

    Cycle t drove for taus[t] after shift[t] ejections: cos^2 of the
    sqrt(n - shift) * omega * tau phase where repeat[..., t] (the outcome
    equals the reference outcome), sin^2 where it changed, so a leading axis
    of repeat reads both outcomes of one phase.  The square is one correctly
    rounded product, so the two outcomes' factors sum to 1 within a few ulp.
    """
    m = np.maximum(np.asarray(ns)[None, :] - np.asarray(shift)[:, None], 0)
    phase = _phases(np.sqrt(m) * omega, np.asarray(taus, dtype=float)[:, None])
    trig = np.where(np.asarray(repeat)[..., None], np.cos(phase), np.sin(phase))
    return trig * trig


def _rotation(a: np.ndarray, b: np.ndarray, rate, taus) -> tuple[np.ndarray, np.ndarray]:
    """Each (a, b) pair rotated by its phase rate * taus (`_phases`)."""
    theta = _phases(rate, taus)
    c, s = np.cos(theta), np.sin(theta)
    return a * c - 1j * b * s, b * c - 1j * a * s


def _check_times(taus, what: str = "evolution time") -> None:
    """`DomainError` unless every time of taus is finite and non-negative."""
    if not ((np.asarray(taus) >= 0) & np.isfinite(taus)).all():
        raise DomainError(f"{what} must be finite and non-negative")


def _check_norm(norm_sq: np.ndarray) -> None:
    """The unit-norm check of `PureCollectiveState`, per row of squared norms; NaN fails it."""
    norm = np.sqrt(norm_sq)
    bad = ~(np.abs(norm - 1.0) <= 1e-12)
    if bad.any():
        raise DomainError(f"state norm is {norm[bad][0]}, expected 1")


class PureBatch:
    """Noiseless pure states of a batch of trajectories, one row each: a view of their
    records' likelihoods ``record`` (`inference.NoiselessLikelihoods` over photon
    numbers that include the state's).  Row r's Born weights are w0 * L[r], L =
    Pr(record | n), normalised, so every probability is sum(w0 L f) / sum(w0 L), f the
    `_noiseless_factors` of the record's last outcome and ejections, each row scaled by
    its largest log w0 + log L.  It keeps ``log_w0``, and ``elapsed``, each row's drive
    time since its last outcome, at the record's ``omega``."""

    window, dts = 0.0, None  # the projective measurement takes no time

    def __init__(self, state: PureCollectiveState, record):
        if np.any(state.b != 0):
            raise PreconditionError("a batch starts from a stored state, without Rydberg amplitude")
        w0 = np.zeros(max(state.a.size, record.ns.max(initial=0) + 1))
        w0[:state.a.size] = state.populations()
        if np.delete(w0, record.ns).any():
            raise PreconditionError("the record's photon numbers must include the state's")
        with np.errstate(divide="ignore"):
            self.log_w0 = np.log(w0[record.ns])
        self.record, self.elapsed = record, np.zeros(len(record.log_l))
        self.reads = [None, None]  # the traced drive's readouts (no window), until `readouts`

    def _read(self, rows, times: np.ndarray, odds=None) -> np.ndarray:
        """(p_NoRydberg, p_Rydberg, fidelity 1) of batch rows after times, (3, len(rows));
        odds, if given, is their Pr(Rydberg | n) after times."""
        rec = self.record
        log_w = self.log_w0 + rec.log_l[rows]
        w = np.exp(log_w - log_w.max(axis=1, keepdims=True))
        if odds is None:
            odds = _noiseless_factors(rec.ns, rec.omega, times, rec.last[rows], rec.shift[rows])
        p_r = (w * odds).sum(axis=1) / w.sum(axis=1)
        return np.stack((1.0 - p_r, p_r, np.ones(p_r.size)))

    def drive(self, taus: np.ndarray, steps: np.ndarray | None = None) -> None:
        """Drive row r for taus[r] at the record's omega: its weights stay, its drive
        time grows.  steps as in `BlockBatch.drive`; their readouts wait for `readouts`."""
        _check_times(taus, "drive time")
        if steps is not None:
            driven = np.flatnonzero(taus > 0)
            times = (self.elapsed[driven, None] + steps).ravel()
            rows = driven.repeat(steps.shape[1])
            self.reads[0] = self._read(rows, times).reshape(3, *steps.shape)
        self.elapsed = self.elapsed + taus

    def readouts(self) -> tuple:
        """(drive, window, now) as `BlockBatch.readouts` gives them; a projective
        measurement has no window."""
        (drive, window), self.reads = self.reads, [None, None]
        return drive, window, self._read(slice(None), self.elapsed)

    def fidelity(self) -> np.ndarray:  # a noiseless row is its own ideal
        return np.ones(self.elapsed.size)

    def measure(self, draws: np.ndarray):
        """Draw every row's outcome by its uniform [0, 1) draw, as `BlockBatch.measure`
        with no window, and end its drive.  One kernel call reads both outcomes: ``drawn``
        keeps each row's Pr(drawn outcome | n) for the record's ``_step``, the collapse
        before the rows are read again (``record.update`` evaluates them anew); ``eject``
        is the record's.  Returns the outcomes and their probabilities."""
        rec = self.record  # each row's phase read for both outcomes: Rydberg, then NoRydberg
        odds = _noiseless_factors(rec.ns, rec.omega, self.elapsed, [rec.last, ~rec.last], rec.shift)
        p_no, p_r, _ = self._read(slice(None), self.elapsed, odds[0])
        rydberg = draws < p_r
        self.drawn, self.elapsed = np.where(rydberg[:, None], *odds), np.zeros(self.elapsed.size)
        return rydberg, np.where(rydberg, p_r, p_no)

    def take(self, rows: np.ndarray) -> None:
        """Drop the rows not selected by the boolean mask (``record.take`` drops its own)."""
        self.elapsed = self.elapsed[rows]


def evolve_pure(state: PureCollectiveState, tau: float, omega: float) -> PureCollectiveState:
    """Drive for time tau: within each n, rotate (a_n, b_n) at sqrt(n)*Omega."""
    _check_times(tau, "drive time")
    rate = np.sqrt(np.arange(state.a.size)) * omega
    return PureCollectiveState(*_rotation(state.a, state.b, rate, tau))


def measure_pure(state: PureCollectiveState, draw: float) -> tuple[str, PureCollectiveState, float]:
    """Projective Rydberg-presence measurement sampled by a uniform [0,1) draw.

    The collapsed state keeps the measured sector's amplitudes, renormalized
    to unit norm.
    """
    p_s, p_r = (float(np.sum(np.abs(x) ** 2)) for x in (state.a, state.b))
    rydberg = draw < p_r
    p = p_r if rydberg else p_s
    kept, zero = (state.b if rydberg else state.a) / np.sqrt(p), np.zeros_like(state.a)
    collapsed = PureCollectiveState(zero, kept) if rydberg else PureCollectiveState(kept, zero)
    return (RYDBERG if rydberg else NO_RYDBERG), collapsed, p


@dataclass
class SymmetricBlockState:
    """Coefficient vector over the symmetric superket basis of one (n, N, j) block."""

    n: int
    N: int
    j: int
    x: np.ndarray
    block: SectorBlock = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=complex)
        sec = sector(self.n, self.N)
        if not 0 <= self.j <= min(self.n, self.N - self.n):
            raise DomainError(f"need 0 <= j <= {min(self.n, self.N - self.n)}, got j={self.j}")
        self.block = sec.block(self.j)
        if self.x.shape != (self.block.dim,):
            raise DomainError(
                f"coefficient vector has length {self.x.size}, block needs {self.block.dim}")

    def trace(self) -> float:
        return float((self.block.trace @ self.x).real)


BlockList = list[SymmetricBlockState]


def _as_blocks(state) -> BlockList:
    if isinstance(state, SymmetricBlockState):
        return [state]
    return list(state)


def _j0(blocks: BlockList) -> SymmetricBlockState:
    for blk in blocks:
        if blk.j == 0:
            return blk
    raise PreconditionError("measurement probabilities live in the j=0 block, which is missing")


def symmetric_state_blocks(n: int, N: int) -> BlockList:
    """Block decomposition of the freshly stored state |S_n><S_n|."""
    return [SymmetricBlockState(n, N, blk.j, blk.dyads[0]) for blk in sector(n, N).blocks]


# V exp(lam tau) V^-1 errs by up to ~cond(V) * 2e-16; past this condition number
# (degenerate gamma = 0 and critically damped generators) expm is used instead.
_EIG_COND_LIMIT = 1e3


@lru_cache(maxsize=2048)  # a drive and a window entry per block of n = N / 2 = 500
def _eigensystem(n: int, N: int, j: int, omega: float, gamma: float):
    """Block generator, its horizon and its (eigenvalues, V, V^-1), the latter
    None if V is ill-conditioned.  The horizon is how long the block's
    propagators keep its trace to 1e-10: the modes carrying it are stationary,
    but `eig` (and so `expm`) gets their rate 0 as rounding."""
    gen = build_block(n, N, j, omega, gamma)
    lam, vecs = np.linalg.eig(gen)
    carry = np.abs(sector(n, N).block(j).trace @ vecs)
    horizon = 1e-10 / np.abs(lam.real)[carry > 1e-6 * carry.max()].max(initial=1e-300)
    if np.linalg.cond(vecs) > _EIG_COND_LIMIT:
        return gen, horizon, None
    return gen, horizon, (lam, vecs, np.linalg.inv(vecs))


def _check_horizon(taus, horizon) -> None:
    """ResourceError naming the longest of taus past its block's horizon."""
    long = np.asarray(taus > horizon)
    if long.any():
        tau = np.broadcast_to(taus, long.shape)[long].max()
        raise ResourceError(f"drive time {tau} s is too long for a propagator to keep the trace")


def expm(a: np.ndarray) -> np.ndarray:
    """`scipy.linalg.expm`, imported on the first call: only this fallback and
    oracle-check need scipy, so the other commands start without it."""
    from scipy.linalg import expm as scipy_expm
    return scipy_expm(a)


def _build_propagators(n: int, N: int, j: int, omega: float, gamma: float,
                       taus: np.ndarray) -> np.ndarray:
    """The block's propagator at every time of taus, shape taus.shape + (dim, dim), uncached:
    `_spectral`, or `expm` time by time where the eigenvectors are ill-conditioned."""
    gen, horizon, eig = _eigensystem(n, N, j, omega, gamma)
    _check_horizon(taus, horizon)
    if eig is not None:
        return _spectral(*eig, taus)
    return np.array([expm(gen * t) for t in taus.ravel().tolist()]).reshape(taus.shape + gen.shape)


@lru_cache(maxsize=1024)
def _propagator(n: int, N: int, j: int, omega: float, gamma: float,
                taus: tuple[float, ...]) -> np.ndarray:
    """The block's propagators at times taus that every row shares, a read-only
    (len(taus), dim, dim) stack.  Each is built on its own, so a time's
    propagator is the same to the bit in every stack that holds it."""
    _check_horizon(np.array(taus), _eigensystem(n, N, j, omega, gamma)[1])
    props = np.array([_build_propagators(n, N, j, omega, gamma, np.asarray(t)) for t in taus])
    props.setflags(write=False)
    return props


def _spectral(lam: np.ndarray, vecs: np.ndarray, inv: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """(V e^{lam tau}) V^-1 at every time of taus, the eigensystems (V^-1 is
    inv) broadcast against the times; exactly I where tau is 0."""
    props = (vecs * np.exp(lam * taus[..., None])[..., None, :]) @ inv
    if np.count_nonzero(taus) < taus.size:  # V V^-1 is not I; count_nonzero is cheap
        props[taus == 0] = np.eye(lam.shape[-1])
    return props


def evolve_block(state: SymmetricBlockState, tau: float, omega: float, gamma: float,
                 drive_on: bool = True) -> SymmetricBlockState:
    """Propagate one block for time tau (drive optionally off, dephasing always on)."""
    _check_times(tau)
    prop = _propagator(state.n, state.N, state.j, omega if drive_on else 0.0, gamma, (tau,))[0]
    out = SymmetricBlockState(state.n, state.N, state.j, prop @ state.x)
    drift = abs(out.trace() - state.trace())
    if drift > 1e-9:
        raise IntegratorError("block propagation lost trace", residual=drift)
    return out


def evolve_blocks(blocks, tau: float, omega: float, gamma: float,
                  drive_on: bool = True) -> BlockList:
    return [evolve_block(b, tau, omega, gamma, drive_on) for b in _as_blocks(blocks)]


def sector_probabilities(blocks) -> tuple[float, float]:
    """(p_NoRydberg, p_Rydberg) read from the j=0 populations."""
    b0 = _j0(_as_blocks(blocks))
    blk = b0.block
    p_s = float(np.real(blk.trace[blk.ss] * b0.x[blk.ss]))
    p_r = 0.0 if blk.rr is None else float(np.real(blk.trace[blk.rr] * b0.x[blk.rr]))
    return max(p_s, 0.0), max(p_r, 0.0)


def project_blocks(blocks, outcome: str) -> tuple[float, BlockList]:
    """Zero the complementary sector and all cross coherences; renormalize.

    Returns the pre-projection probability of the outcome and the conditional
    state (all j blocks rescaled by the same 1/p).
    """
    blocks = _as_blocks(blocks)
    p_s, p_r = sector_probabilities(blocks)
    p = p_r if outcome == RYDBERG else p_s
    if p <= 0:
        raise ImpossibleOutcomeError(f"outcome {outcome} has zero probability")
    out = []
    for blk in blocks:
        keep = blk.block.rydberg if outcome == RYDBERG else blk.block.no_rydberg
        out.append(SymmetricBlockState(blk.n, blk.N, blk.j, np.where(keep, blk.x / p, 0.0)))
    return p, out


def measure_block(blocks, tau_eit: float, gamma: float, draw: float
                  ) -> tuple[str, BlockList, float]:
    """Drive-off dephasing window of length tau_eit, then projective measurement."""
    _check_times(tau_eit, "measurement window")
    blocks = _as_blocks(blocks)
    if tau_eit > 0:
        blocks = evolve_blocks(blocks, tau_eit, 0.0, gamma, drive_on=False)
    p_s, p_r = sector_probabilities(blocks)
    total = p_s + p_r
    outcome = RYDBERG if draw * total < p_r else NO_RYDBERG
    p, collapsed = project_blocks(blocks, outcome)
    return outcome, collapsed, p


def _side_by_side(blocks: BlockList) -> tuple[Sector, np.ndarray]:
    """The sector of a block list and its coefficient vectors side by side, as
    one row: each block in the columns of its j, zero where a j is missing."""
    sec = sector(blocks[0].n, blocks[0].N)
    x = np.zeros((1, sec.spans[-1].stop), dtype=complex)
    for blk in blocks:
        x[0, sec.spans[blk.j]] = blk.x
    return sec, x


def eject_block(blocks) -> BlockList:
    """Remove the detected Rydberg atom: (n, N) Rydberg sector -> (n-1, N-1).

    Each rr coefficient maps onto the ss label of the corresponding j block
    (see `Sector.ejection`); all within-Rydberg coherence labels are
    annihilated.  The blocks may be any of the sector's, in any order.
    """
    blocks = _as_blocks(blocks)
    _j0(blocks)
    sec, x = _side_by_side(blocks)
    y, target = _ejected(sec, x)[0], sec.ejection[0]
    return [SymmetricBlockState(target.n, target.N, blk.j, y[span].copy())
            for blk, span in zip(target.blocks, target.spans)]


def retrieval_fidelity(blocks, ideal: PureCollectiveState) -> float:
    """Overlap <psi_ideal| rho |psi_ideal> of the block state with a fixed-n pure state."""
    blocks = _as_blocks(blocks)
    n = blocks[0].n
    n_ideal = ideal.single_n()
    if n_ideal != n:
        raise DomainError(f"ideal state has n={n_ideal}, block state has n={n}")
    sec, x = _side_by_side(blocks)
    return float(_overlaps(sec, x, ideal.a[n:n + 1], ideal.b[n:n + 1])[0])


def _propagators(n: int, N: int, j: int, omega: float, gamma: float,
                 taus: np.ndarray) -> np.ndarray:
    """The block's propagator at every time of taus, shape taus.shape + (dim,
    dim).  A 0-d or 1-d taus holds times every row shares; a fixed schedule
    repeats them, so `_propagator` caches them.  Per-row times are built uncached."""
    if taus.ndim >= 2:
        return _build_propagators(n, N, j, omega, gamma, taus)
    props = _propagator(n, N, j, omega, gamma, tuple(taus.ravel().tolist()))
    return props.reshape(taus.shape + props.shape[1:])


def _check_drift(after: np.ndarray, before: np.ndarray) -> None:
    """The trace-drift bound of `evolve_block`, for arrays of traces."""
    drift = np.abs(after - before)
    bad = ~(drift <= 1e-9)  # NaN fails it
    if bad.any():
        raise IntegratorError("block propagation lost trace", residual=float(drift[bad].max()))


def _advance(x: np.ndarray, props, spans, traces: np.ndarray) -> np.ndarray:
    """x with the columns spans[k] of every row advanced as props[k] @ x,
    each propagator broadcast against the rows of x.  Column k of traces
    reads span k's trace; where one moves by more than 1e-9, `IntegratorError`."""
    out = [(prop @ x[..., span, None])[..., 0] for prop, span in zip(props, spans)]
    out = out[0] if len(out) == 1 else np.concatenate(out, axis=-1)

    def traced(y):
        return (y.real[..., None, :] @ traces)[..., 0, :]

    _check_drift(traced(out), traced(x))
    return out


def _populations(trace: np.ndarray, x: np.ndarray, ss: int, rr: int | None
                 ) -> tuple[np.ndarray, np.ndarray]:
    """(p_NoRydberg, p_Rydberg) of every row of j = 0 block coefficients x:
    the populations of families ss and rr (None: there is none), negative
    rounding clipped to 0."""
    p_s = np.maximum((trace[..., ss] * x[..., ss]).real, 0.0)
    if rr is None:
        return p_s, np.zeros(p_s.shape)
    return p_s, np.maximum((trace[..., rr] * x[..., rr]).real, 0.0)


def _projected(keep: np.ndarray, x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Every row of x kept on the families its outcome keeps, divided by p."""
    return np.where(keep, x / p[..., None], 0.0)


def _renormalised(ss: np.ndarray, ss_trace: np.ndarray) -> np.ndarray:
    """The ss coefficients (rows, blocks) an ejection leaves, divided by the
    trace they carry, summed over the blocks."""
    tr = (ss_trace * ss.real).sum(axis=-1)
    if not (tr > 0.0).all():
        raise PreconditionError("ejection produced a zero-trace state")
    return ss / tr[:, None]


def _overlaps(sec: Sector, x: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Retrieval fidelity <psi|rho|psi> of every row of the side-by-side block
    vectors x against psi = a_n |S_n> + b_n |R_n>: the weights of the dyads
    |S><S|, |R><R|, |S><R|, |R><S| (a squared modulus as re^2 + im^2, a
    cross term as Python's complex product computes it), a vdot per block and
    row, summed over the blocks left to right."""
    amp = np.stack((a, b))
    re, im = amp.real, amp.imag
    pre, pim = re[::-1], -im[::-1]  # each amplitude's conjugated partner
    weights = np.concatenate((re * re + im * im, re * pre - im * pim + 1j * (re * pim + im * pre))).T
    # every family lies in one dyad, so a family's weight is one product however
    # the rows of all blocks' dyads are combined
    u = (weights[:, None, :] @ sec.dyads).conj()
    fid = np.zeros(len(a), dtype=complex)
    for span in sec.spans:
        fid = fid + (u[..., span] @ x[:, span, None])[:, 0, 0]
    if (np.abs(fid.imag) > 1e-8).any():
        raise IntegratorError("fidelity came out complex", residual=float(np.abs(fid.imag).max()))
    return np.minimum(np.maximum(fid.real, 0.0), 1.0)


def _ejected(sec: Sector, x: np.ndarray) -> np.ndarray:
    """Every row of the side-by-side block vectors x after the ejection: the
    rr coefficient of block j times sqrt(N) moves to the ss of block j of
    (n - 1, N - 1), and the result is divided by its trace."""
    if sec.n < 1:
        raise PreconditionError("nothing to eject")
    if (np.abs(x[:, sec.block(0).ss]) > 1e-9).any():
        raise PreconditionError("state has weight in the NoRydberg sector; eject only after a Rydberg outcome")
    target, factor = sec.ejection
    pairs = list(zip(target.blocks, target.spans, sec.blocks, sec.spans))
    ss = [span.start + blk.ss for blk, span, _, _ in pairs]
    rr = [span.start + blk.rr for _, _, blk, span in pairs]
    out = np.zeros((len(x), target.spans[-1].stop), dtype=complex)
    out[:, ss] = _renormalised(x[:, rr] * factor, np.array([blk.trace[blk.ss] for blk, *_ in pairs]))
    return out


def _times(taus: np.ndarray) -> np.ndarray:
    """Drive times of the rows, (rows, points); where every row has the same
    times, the first row alone, and a number if it has one."""
    if (taus == taus[0]).all():
        return taus[0, 0] if taus.shape[1] == 1 else taus[0]
    return taus


class BlockBatch:
    """Noisy fixed-n states of a batch of trajectories, one row each: the noisy
    counterpart of `PureBatch`.

    Rows are grouped by their sector (n, N).  A group holds the batch indices
    of its rows and their states as one (rows, D) complex array,
    the j blocks side by side (block j in the columns ``Sector.spans[j]``);
    each block is advanced and read on its own columns.  A row's ideal
    noiseless twin is its pair of amplitudes (a_n, b_n) on |S_n> and |R_n>,
    driven, collapsed and ejected alike; the row's retrieval fidelity is its
    overlap with the twin (1 in the vacuum, whose twin stays |S_0>).  A row
    computes what the one-state kernels compute for its block list and its
    `PureCollectiveState` twin, bit for bit.  Traced sub-steps are queued per
    sector, and `readouts` reads each sector once for the whole cycle.
    Like `inference.NoisyLikelihoods` it takes ``omega``, ``noise`` (`NoiseParams`:
    gamma, the window tau_eit and N) and ``eject`` once.
    """

    def __init__(self, ns, omega: float, noise, eject: bool = False, points: int = 0):
        self.n = np.asarray(ns, dtype=int)
        self.omega, self.gamma, self.eject = omega, noise.gamma, eject
        self.window, self.dts = noise.tau_eit, None  # the dephasing-only measurement window
        if points and self.window:  # its traced sub-step times, the last the window itself
            self.dts = np.linspace(self.window / points, self.window, points)
        self.a = np.ones(self.n.size, dtype=complex)
        self.b = np.zeros(self.n.size, dtype=complex)
        self.groups = {}
        for n in sorted(set(self.n.tolist())):
            rows = np.flatnonzero(self.n == n)
            self.groups[(n, noise.N)] = (rows, np.tile(sector(n, noise.N).dyads[0], (rows.size, 1)))
        # per sector, the traced sub-steps (readout, its rows, states (M, D), twins a, b
        # (M,)) to read, and the drive's and the window's readouts they fill
        self.queued, self.reads = {}, [None, None]

    def _evolved(self, sec: Sector, x: np.ndarray, taus: np.ndarray, omega: float) -> np.ndarray:
        """The states x (rows, D) advanced for each of their times in taus, as
        `_times` gives them: (rows, points, D)."""
        props = [_propagators(sec.n, sec.N, blk.j, omega, self.gamma, taus) for blk in sec.blocks]
        return _advance(x[:, None], props, sec.spans, sec.traces)

    def fidelity(self) -> np.ndarray:  # 1 in the vacuum, which has no twin
        return self.readouts()[2][2]

    @staticmethod
    def _read(sec: Sector, x: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """(p_NoRydberg, p_Rydberg, fidelity) of states x (M, D) with twins a, b (M,)."""
        blk = sec.block(0)
        fid = np.ones(len(x)) if sec.n == 0 else _overlaps(sec, x, a, b)  # vacuum: no twin
        return np.array((*_populations(blk.trace, x, blk.ss, blk.rr), fid))

    def readouts(self) -> tuple:
        """(drive, window, now): the readouts of the sub-steps `drive` and `measure`
        queued since the last call, (3, driven rows, points) and (3, rows, points),
        None where none were queued, and (p_NoRydberg, p_Rydberg, retrieval fidelity)
        of every row now, (3, rows).  Call it before `take`.  Each
        sector's queued states and rows are read in one `_read`; a sector with
        nothing queued reads its rows in place."""
        now, (drive, window) = np.empty((3, self.n.size)), self.reads
        queued, self.queued, self.reads = self.queued, {}, [None, None]
        for key, (rows, x) in self.groups.items():
            queued.setdefault(key, []).append((now, rows, x, self.a[rows], self.b[rows]))
        for key, items in queued.items():
            outs, at, x, a, b = zip(*items)
            if len(items) == 1:  # nothing to join or split
                parts = [self._read(sector(*key), x[0], a[0], b[0])]
            else:
                read = self._read(sector(*key), *map(np.concatenate, (x, a, b)))
                ends = np.cumsum([len(z) for z in x]).tolist()
                parts = [read[:, start:stop] for start, stop in zip([0, *ends], ends)]
            for out, rows, part in zip(outs, at, parts):
                out[:, rows] = part.reshape((3, len(rows)) + out.shape[2:])
        return drive, window, now

    def drive(self, taus: np.ndarray, steps: np.ndarray | None = None) -> None:
        """Drive row r and its twin for taus[r]; a row with taus 0 is left as it is.
        steps, if given, are the sub-step times (driven rows, points) of the rows
        with taus > 0, each ending at its tau: those rows keep their last sub-step,
        and every sub-step is queued for `readouts`."""
        _check_times(taus)
        driven = np.flatnonzero(taus > 0)
        traced, steps = steps is not None, taus[driven, None] if steps is None else steps
        a, b = _rotation(self.a[driven, None], self.b[driven, None],
                         np.sqrt(self.n[driven, None]) * self.omega, steps)
        _check_norm(np.abs(a) ** 2 + np.abs(b) ** 2)  # the twins, as `evolve_pure` checks
        self.a[driven], self.b[driven] = a[:, -1], b[:, -1]
        if traced:
            self.reads[0] = np.empty((3, *steps.shape))
        for key, (rows, x) in self.groups.items():
            sec = sector(*key)
            slot = np.flatnonzero(taus[rows] > 0)
            at = np.searchsorted(driven, rows[slot])
            if slot.size:
                grid = self._evolved(sec, x[slot], _times(steps[at]), self.omega)
                x[slot] = grid[:, -1]
                if traced:  # grid and a[at], b[at] are fresh arrays
                    self.queued.setdefault(key, []).append((self.reads[0], at, grid.reshape(
                        -1, x.shape[1]), a[at].ravel(), b[at].ravel()))

    def measure(self, draws: np.ndarray):
        """`PureBatch.measure` for block states: the window (through each of ``dts``,
        if any, each queued for `readouts` under the row's sector before the
        measurement), the projection of every row and its twin; with ``eject``,
        Rydberg rows lose the detected atom and restart from the fresh twin
        |S_n-1>.  Returns the outcomes and their probabilities."""
        rydberg, probs, dts = np.zeros(self.n.size, dtype=bool), np.empty(self.n.size), self.dts
        if dts is not None:
            self.reads[1] = np.empty((3, self.n.size, dts.size))
        moved = []
        for key, (rows, x) in list(self.groups.items()):
            sec = sector(*key)
            if self.window > 0:
                grid = self._evolved(sec, x, np.asarray(self.window) if dts is None else dts, 0.0)
                x = grid[:, -1]
                if dts is not None:
                    self.queued.setdefault(key, []).append((self.reads[1], rows, grid.reshape(
                        -1, x.shape[1]), *(z[rows].repeat(dts.size) for z in (self.a, self.b))))
            blk = sec.block(0)
            p_s, p_r = _populations(blk.trace, x, blk.ss, blk.rr)
            ryd = draws[rows] * (p_s + p_r) < p_r
            p = np.where(ryd, p_r, p_s)
            if (p <= 0.0).any():
                outcome = RYDBERG if ryd[p <= 0.0][0] else NO_RYDBERG
                raise ImpossibleOutcomeError(f"outcome {outcome} has zero probability")
            x = _projected(sec.keeps[ryd.astype(int)], x, p)
            rydberg[rows], probs[rows] = ryd, p
            out = ryd & self.eject
            if not out.any():
                self.groups[(sec.n, sec.N)] = (rows, x)
                continue
            del self.groups[(sec.n, sec.N)]
            if not out.all():
                self.groups[(sec.n, sec.N)] = (rows[~out], x[~out])
            moved.append((sec, rows[out], x[out]))
        amp = np.where(rydberg, self.b, self.a)
        mag = np.hypot(amp.real, amp.imag)
        big = mag > 1e-9
        unit = np.where(big, amp / np.where(big, mag, 1.0), 1.0)
        self.a, self.b = np.where(rydberg, 0.0, unit), np.where(rydberg, unit, 0.0)
        _check_norm(np.abs(self.a) ** 2 + np.abs(self.b) ** 2)
        for sec, rows, x in moved:
            self.n[rows] -= 1
            self.a[rows], self.b[rows] = 1.0, 0.0
            key, x = (sec.n - 1, sec.N - 1), _ejected(sec, x)
            if key in self.groups:  # join the rows already in the target sector
                old_rows, old_x = self.groups[key]
                rows, x = np.concatenate((old_rows, rows)), np.concatenate((old_x, x))
            self.groups[key] = (rows, x)
        return rydberg, probs

    def take(self, rows: np.ndarray) -> None:
        """Drop the rows not selected by the boolean mask."""
        index = np.cumsum(rows) - 1
        groups = {}
        for key, (idx, x) in self.groups.items():
            sel = rows[idx]
            if sel.any():
                groups[key] = (index[idx[sel]], x[sel])
        self.groups = groups
        self.n, self.a, self.b = self.n[rows], self.a[rows], self.b[rows]

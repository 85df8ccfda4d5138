"""Protocol-level state evolution: pure noiseless dynamics over photon-number
superpositions, and noisy fixed-n dynamics in the symmetric block basis.

Pure states carry amplitudes a_n on the stored collective states and b_n on
the single-Rydberg collective states; a noiseless cycle rotates each (a_n, b_n)
and moves no weight between photon numbers, so `PureBatch` reads a batch of
trajectories as their stored Born weights times the likelihoods of their
records, kept by `inference.NoiselessLikelihoods`.  Noisy fixed-n states
are lists of block coefficient vectors, one per conserved j sector; sector
probabilities live in the j = 0 block while retrieval fidelity needs all of
them.  `BlockBatch` holds them as the rows of one array, each row's blocks side
by side; `eject_block` and `retrieval_fidelity` run its array kernels on one row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DomainError, ImpossibleOutcomeError, IntegratorError, PreconditionError, ResourceError
from .records import NO_RYDBERG, RYDBERG, _timed, is_rydberg
from .symbasis import Sector, SectorBlock, _check_block_args, build_block, sector


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


def _phases(root, omega: float, taus) -> np.ndarray:
    """The drive phases (root * omega) * taus, root the sqrt(n) of each row; a rate
    past float range is a `ResourceError` naming omega, a phase past it one naming
    its drive time."""
    with np.errstate(over="ignore", invalid="ignore"):  # an infinite rate at time 0: NaN
        rate = root * omega
        theta = rate * taus
    finite = np.isfinite(theta)
    if not finite.all():
        if not np.isfinite(rate).all():
            raise ResourceError(f"omega {omega} puts the drive rate sqrt(n) omega past float range")
        tau = np.broadcast_to(taus, theta.shape)[~finite][0]
        raise ResourceError(f"drive time {tau} s puts the drive phase past float range")
    return theta


def _noiseless_factors(root: np.ndarray, omega: float, taus: np.ndarray,
                       repeat: np.ndarray) -> np.ndarray:
    """Pr(outcome | n) of noiseless cycles, shape repeat.shape + root.shape[-1:].

    Cycle t drove for taus[t] after s ejections, root[t] (or root) holding sqrt(max(n - s, 0))
    of each photon number n: cos^2 of the root * omega * tau phase where repeat[..., t] (the
    outcome equals the reference outcome), sin^2 where it changed, so a leading axis of repeat
    reads both outcomes of one phase.  The square is one correctly rounded product, so the
    two outcomes' factors sum to 1 within a few ulp."""
    phase = _phases(root, omega, np.asarray(taus, dtype=float)[..., None])
    trig = np.where(np.asarray(repeat)[..., None], np.cos(phase), np.sin(phase))
    return trig * trig


def _rotation(a: np.ndarray, b: np.ndarray, c, s) -> tuple[np.ndarray, np.ndarray]:
    """Each (a, b) pair rotated by the phase whose cos and sin are c and s (`_phases`)."""
    return a * c - 1j * b * s, b * c - 1j * a * s


def _check_times(taus, what: str = "evolution time") -> None:
    """`DomainError` unless every time of taus is a finite non-negative number, as
    `records._columns` reads each entry (`records._timed`)."""
    if not _timed(np.asarray(taus)).all():
        raise DomainError(f"{what} must be finite and non-negative")


def _check_rows(rows: int, **inputs) -> None:
    """`DomainError` unless each input, by its name, holds one entry per row, shape (rows,);
    a drive time ``taus`` may also be one number every row shares."""
    for name, values in inputs.items():
        if (shape := np.shape(values)) != (rows,) and (name != "taus" or shape):
            raise DomainError(f"{name} has shape {shape}, not one entry for each of {rows} rows")


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
    `_noiseless_factors` of the record's last outcome and ``root``, each row scaled by
    its largest log w0 + log L.  It keeps ``log_w0``, and ``elapsed``, each row's drive
    time since its last outcome, at the record's ``omega``."""

    window, dts = 0.0, np.empty(0)  # the projective measurement takes no time

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
        self._held = None  # the last traced drive's read, a column left for the collapse

    def _p_rydberg(self, rows, odds: np.ndarray) -> np.ndarray:
        """p_Rydberg of batch rows whose Pr(Rydberg | n) is odds, odds.shape[:-1]."""
        log_w = self.log_w0 + self.record.log_l[rows]
        w = np.exp(log_w - log_w.max(axis=-1, keepdims=True))
        return (w * odds).sum(axis=-1) / w.sum(axis=-1)

    def _read(self, rows, times: np.ndarray) -> np.ndarray:
        """(p_NoRydberg, p_Rydberg, fidelity 1) of batch rows after times, (3, *times.shape):
        rows (rows, 1) reads each row at its times (rows, points)."""
        rec = self.record
        p_r = self._p_rydberg(rows, _noiseless_factors(rec.root[rows], rec.omega, times,
                                                       rec.last[rows]))
        return np.stack((1.0 - p_r, p_r, np.ones(p_r.shape)))

    def drive(self, taus, steps: np.ndarray | None = None) -> None:
        """Drive every row for taus (as in `BlockBatch.drive`) at the record's omega: its
        weights stay, its drive time grows.  steps as in `BlockBatch.drive`: what `read`
        gives at each is held for `measure`."""
        _check_rows(self.elapsed.size, taus=taus)
        _check_times(taus, "drive time")
        self._held = None if steps is None else np.zeros((3, self.elapsed.size, steps.shape[-1] + 1))
        if steps is not None:
            driven = np.flatnonzero(np.broadcast_to(taus, self.elapsed.shape) > 0)
            self._held[:, driven, :-1] = self._read(driven[:, None], self.elapsed[driven, None] + steps)
        self.elapsed = self.elapsed + taus

    def read(self) -> np.ndarray:
        """(p_NoRydberg, p_Rydberg, fidelity 1) of every row now, (3, rows)."""
        return self._read(slice(None), self.elapsed)

    def fidelity(self) -> np.ndarray:  # a noiseless row is its own ideal
        return np.ones(self.elapsed.size)

    def measure(self, draws: np.ndarray):
        """Draw every row's outcome by its uniform [0, 1) draw, as `BlockBatch.measure` with
        no window, and end its drive.  One kernel call reads both outcomes; the drawn one's
        factors are the record's ``_step``, the collapse.  Returns the outcomes, their
        probabilities and, as `BlockBatch.measure` does, the traced cycle's `read`."""
        _check_rows(self.elapsed.size, draws=draws)
        rec = self.record  # each row's phase read for both outcomes: Rydberg, then NoRydberg
        odds = _noiseless_factors(rec.root, rec.omega, self.elapsed, [rec.last, ~rec.last])
        p_r = self._p_rydberg(slice(None), odds[0])
        rydberg = draws < p_r
        rec._step(np.where(rydberg[:, None], *odds), rydberg)
        self.elapsed, read = np.zeros(self.elapsed.size), self._held
        if read is not None:
            read[:, :, -1] = self._read(slice(None), self.elapsed)
        return rydberg, np.where(rydberg, p_r, 1.0 - p_r), read

    def take(self, rows: np.ndarray) -> None:
        """Drop the rows not selected by the boolean mask (``record.take`` drops its own)."""
        self.elapsed = self.elapsed[rows]


def evolve_pure(state: PureCollectiveState, tau: float, omega: float) -> PureCollectiveState:
    """Drive for time tau: within each n, rotate (a_n, b_n) at sqrt(n)*Omega."""
    _check_times(tau, "drive time")
    theta = _phases(np.sqrt(np.arange(state.a.size)), omega, tau)
    return PureCollectiveState(*_rotation(state.a, state.b, np.cos(theta), np.sin(theta)))


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
        _check_block_args(self.n, self.N, self.j)
        self.block = sector(self.n, self.N).block(self.j)
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
    if not np.isfinite(lam).all():  # a finite generator past float range's square root
        raise ResourceError(f"omega {omega} and gamma {gamma} put the rates of block "
                            f"(n={n}, N={N}, j={j}) past float range")
    carry = np.abs(sector(n, N).block(j).trace @ vecs)
    horizon = 1e-10 / np.abs(lam.real)[carry > 1e-6 * carry.max()].max(initial=1e-300)
    if np.linalg.cond(vecs) > _EIG_COND_LIMIT:
        return gen, horizon, None
    return gen, horizon, (lam, vecs, np.linalg.inv(vecs))


def _check_horizon(taus, horizon, what: str = "drive time") -> None:
    """ResourceError naming the longest of taus, `what` they are, past its block's horizon."""
    long = np.asarray(taus > horizon)
    if long.any():
        tau = np.broadcast_to(taus, long.shape)[long].max()
        raise ResourceError(f"{what} {tau} s is too long for a propagator to keep the trace")


def expm(a: np.ndarray) -> np.ndarray:
    """`scipy.linalg.expm`, imported on the first call: only this fallback and
    oracle-check need scipy, so the other commands start without it."""
    from scipy.linalg import expm as scipy_expm
    return scipy_expm(a)


def _build_propagators(n: int, N: int, j: int, omega: float, gamma: float,
                       taus: np.ndarray) -> np.ndarray:
    """The block's propagator at every time of taus, shape taus.shape + (dim, dim), uncached:
    `_spectral`, or one `expm` of the stack of generator-times-time where the eigenvectors
    are ill-conditioned.
    A time past the block's horizon is a `ResourceError` naming it as a drive time,
    or where omega is 0 (only the measurement window has it) as the window."""
    gen, horizon, eig = _eigensystem(n, N, j, omega, gamma)
    _check_horizon(taus, horizon, "measurement window" if omega == 0 else "drive time")
    if eig is not None:
        return _spectral(*eig, taus)
    return expm(gen * taus[..., None, None])


@lru_cache(maxsize=1024)
def _propagator(n: int, N: int, j: int, omega: float, gamma: float,
                taus: tuple[float, ...]) -> np.ndarray:
    """The block's propagators at times taus that every row shares, a read-only
    (len(taus), dim, dim) stack.  Each is its own product of the stack, so a
    time's propagator is the same to the bit in every stack that holds it."""
    props = _build_propagators(n, N, j, omega, gamma, np.array(taus))
    props.setflags(write=False)
    return props


def _spectral(lam: np.ndarray, vecs: np.ndarray, inv: np.ndarray, taus: np.ndarray,
              start=None) -> np.ndarray:
    """(V e^{lam tau}) V^-1 at every time of taus, the eigensystems (V^-1 is
    inv) broadcast against the times; exactly start (default I) where tau is 0.
    With W V for V it is the composed W U(tau), and start W.  A rate times tau
    past float range leaves inf or NaN, which the trace-drift check refuses."""
    with np.errstate(over="ignore", invalid="ignore"):
        props = (vecs * np.exp(lam * taus[..., None])[..., None, :]) @ inv
    if np.count_nonzero(taus) < taus.size:  # V V^-1 is not I; count_nonzero is cheap
        zero = np.broadcast_to(taus == 0, props.shape[:-2])
        props[zero] = np.broadcast_to(np.eye(lam.shape[-1]) if start is None else start,
                                      props.shape)[zero]
    return props


def evolve_block(state: SymmetricBlockState, tau: float, omega: float, gamma: float,
                 drive_on: bool = True) -> SymmetricBlockState:
    """Propagate one block for time tau (drive optionally off, dephasing always on)."""
    _check_times(tau)
    prop = _propagator(state.n, state.N, state.j, omega if drive_on else 0.0, gamma, (tau,))[0]
    out = SymmetricBlockState(state.n, state.N, state.j, prop @ state.x)
    _check_drift(out.trace(), state.trace())
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
    blocks, rydberg = _as_blocks(blocks), is_rydberg(outcome)
    p_s, p_r = sector_probabilities(blocks)
    p = p_r if rydberg else p_s
    if p <= 0:
        raise ImpossibleOutcomeError(f"outcome {outcome} has zero probability")
    out = []
    for blk in blocks:
        keep = blk.block.rydberg if rydberg else blk.block.no_rydberg
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


def _check_drift(after: np.ndarray | float, before: np.ndarray | float) -> None:
    """`IntegratorError` where a trace (or an array of them) moved by more than 1e-9."""
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

    def traced(y):  # one product per stack of rows where traces is one matrix
        return y.real @ traces if traces.ndim == 2 else (y.real[..., None, :] @ traces)[..., 0, :]

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
    vectors x against psi = a_n |S_n> + b_n |R_n>: the row's overlaps with the
    dyads |S><S|, |R><R|, |S><R|, |R><S|, weighted by conj(|a|^2, |b|^2, a b*,
    b a*).  Each row is its own (1, D) @ (D, 4) product, so it reads the same
    to the bit whatever rows it is read with."""
    weights = np.conj([a, b, a, b]) * np.array([a, b, b, a])
    fid = (x[:, None, :] @ sec.dyads.T @ weights.T[:, :, None])[:, 0, 0]
    if (np.abs(fid.imag) > 1e-8).any():
        raise IntegratorError("fidelity came out complex", residual=float(np.abs(fid.imag).max()))
    return np.minimum(np.maximum(fid.real, 0.0), 1.0)


def _ejected(sec: Sector, x: np.ndarray) -> np.ndarray:
    """Every row of the side-by-side block vectors x after the ejection: the
    rr coefficient of block j times sqrt(N) moves to the ss of block j of
    (n - 1, N - 1), and the result is divided by its trace.  The rows keep the
    width of x, zero past the columns of (n - 1, N - 1)."""
    if sec.n < 1:
        raise PreconditionError("nothing to eject")
    if (np.abs(x[:, sec.block(0).ss]) > 1e-9).any():
        raise PreconditionError("state has weight in the NoRydberg sector; eject only after a Rydberg outcome")
    target, factor = sec.ejection
    pairs = list(zip(target.blocks, target.spans, sec.blocks, sec.spans))
    ss = [span.start + blk.ss for blk, span, _, _ in pairs]
    rr = [span.start + blk.rr for _, _, blk, span in pairs]
    out = np.zeros(x.shape, dtype=complex)
    out[:, ss] = _renormalised(x[:, rr] * factor, np.array([blk.trace[blk.ss] for blk, *_ in pairs]))
    return out


def _operators(sec: Sector, omega: float, gamma: float, taus: np.ndarray,
               steps: np.ndarray | None, ends: tuple[float, ...]) -> list[np.ndarray]:
    """Each block's operators of a cycle of sector sec at drive times taus (...), taus.shape +
    (points, dim, dim): U at each drive sub-step time of steps (..., k), if given, then
    K = W(w) U(tau) at each window time w of ends, (W V) e^{lam tau} V^-1 or W expm(G tau)
    where V is ill-conditioned, W where tau is 0; U(tau) alone with neither."""
    steps = taus[..., None] if steps is None and not ends else steps
    ops = []
    for blk in sec.blocks:
        args = sec.n, sec.N, blk.j, omega, gamma
        parts = [] if steps is None else [_build_propagators(*args, steps)]
        if ends:  # each W, the drive-off window's propagator, after U(tau)
            w, (gen, horizon, eig) = _propagator(*args[:3], 0.0, gamma, ends), _eigensystem(*args)
            _check_horizon(taus, horizon)
            parts.append(w @ expm(gen * taus[..., None, None, None]) if eig is None
                         else _spectral(eig[0], w @ eig[1], eig[2], taus[..., None], w))
        ops.append(np.concatenate(parts, axis=-3))
    return ops


# A block-diagonal stack holds D^2 entries against the blocks' sum of d_j^2, about n times
# as many: past this ratio (n > 8 or so) the blocks' own products are the faster ones, and
# at n = 500 a traced block-diagonal cycle would take gigabytes
_DIAGONAL_LIMIT = 8


@lru_cache(maxsize=16)  # a run's sectors at a fixed drive time; a stack of n = 500 is 13 MB
def _cycle(n: int, N: int, omega: float, gamma: float, tau: float,
           steps: tuple[float, ...] | None, ends: tuple[float, ...]):
    """`_operators` of sector (n, N) at a drive time every row shares, read-only, and the
    columns each advances: one block-diagonal (points, D, D) stack, so that one product
    advances a group through a cycle, or past `_DIAGONAL_LIMIT` each block's own."""
    sec = sector(n, N)
    ops = _operators(sec, omega, gamma, np.array(tau), steps and np.array(steps), ends)
    spans = sec.spans
    if (width := spans[-1].stop) ** 2 <= _DIAGONAL_LIMIT * sum(op[0].size for op in ops):
        stack = np.zeros((ops[0].shape[0], width, width), dtype=complex)
        for op, span in zip(ops, spans):
            stack[:, span, span] = op
        ops, spans = [stack], [slice(None)]
    for op in ops:
        op.setflags(write=False)
    return ops, spans


class BlockBatch:
    """Noisy fixed-n states of a batch of trajectories, one row each: the noisy
    counterpart of `PureBatch`.

    Row r of ``x`` holds the j blocks of its sector (``n[r]``, ``N[r]``) side by
    side (block j in the columns ``Sector.spans[j]``), zero past them.  ``groups``
    lists each sector with its rows.  A cycle is one instrument, outcome m leaving
    P_m K x: `drive` applies K(tau) = W(tau_EIT) U(tau), the drive and then the drive-off
    window, in one product per group (`_cycle`), and `measure` projects and reads.  A
    row's ideal noiseless twin is its pair of amplitudes (a_n, b_n) on |S_n> and |R_n>,
    driven, collapsed and ejected alike; the row's retrieval fidelity is its overlap with
    the twin (1 in the vacuum, whose twin stays |S_0>).  Like `inference.NoisyLikelihoods`
    it takes ``omega``, ``noise`` (`NoiseParams`: gamma, the window tau_eit and N) and
    ``eject`` once.
    """

    def __init__(self, ns, omega: float, noise, eject: bool = False, points: int = 0):
        self.n = np.asarray(ns, dtype=int)
        self.N = np.full(self.n.size, noise.N)
        self.omega, self.gamma, self.eject = omega, noise.gamma, eject
        self.window, self.dts = noise.tau_eit, np.empty(0)  # the dephasing-only measurement window
        if points and self.window:  # its traced sub-step times, the last the window itself
            self.dts = np.linspace(self.window / points, self.window, points)
        self._ends = tuple(self.dts.tolist()) or (float(self.window),) * bool(self.window)  # W's times
        self.a = np.ones(self.n.size, dtype=complex)
        self.b = np.zeros(self.n.size, dtype=complex)
        self._held = None  # a traced drive's read to fill, its twins and each group's states
        self._turns = None, None  # the twins' cos and sin, held while what they come from repeats
        self._regroup()
        self.x = np.zeros((self.n.size, max((sec.spans[-1].stop for sec, _ in self.groups),
                                            default=0)), dtype=complex)
        for sec, rows in self.groups:
            self.x[rows, :sec.spans[-1].stop] = sec.dyads[0]

    def _regroup(self) -> None:
        """``groups``: each sector (n, N) of the rows, with its rows."""
        keys = sorted(set(zip(self.n.tolist(), self.N.tolist())))
        self.groups = [(sector(n, N), np.flatnonzero((self.n == n) & (self.N == N)))
                       for n, N in keys]

    def _states(self, sec: Sector, rows: np.ndarray) -> np.ndarray:
        """The states of rows of sector sec, (rows, D): the columns of its blocks."""
        return self.x[rows, :sec.spans[-1].stop]

    def fidelity(self) -> np.ndarray:  # 1 in the vacuum, which has no twin
        return self.read()[2]

    @staticmethod
    def _read(sec: Sector, x: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """(p_NoRydberg, p_Rydberg, fidelity) of states x (..., D) with twins a, b (...)."""
        blk = sec.block(0)
        fid = (np.ones(a.shape) if sec.n == 0 else  # the vacuum has no twin
               _overlaps(sec, x.reshape(-1, x.shape[-1]), a.ravel(), b.ravel()).reshape(a.shape))
        return np.array((*_populations(blk.trace, x, blk.ss, blk.rr), fid))

    def read(self) -> np.ndarray:
        """(p_NoRydberg, p_Rydberg, retrieval fidelity) of every row now, (3, rows)."""
        now = np.empty((3, self.n.size))
        for sec, rows in self.groups:
            now[:, rows] = self._read(sec, self._states(sec, rows), self.a[rows], self.b[rows])
        return now

    def drive(self, taus, steps: np.ndarray | None = None) -> None:
        """Drive every row and its twin for taus, a float every row shares (the held `_cycle`
        stack, one product per group) or each row's (rows,) (one product per block), then wait
        out the window: K(tau) = W U(tau); a row with tau 0 only waits.  steps, if given, are
        the drive's sub-step times ending at tau, (points,) shared, else (driven rows, points):
        each group then holds its states and twins at every sub-step for `measure` to read."""
        _check_rows(self.n.size, taus=taus)
        _check_times(taus, "drive time")
        driven = np.flatnonzero((every := np.full(self.n.size, taus)) > 0)
        turns = every[driven, None] if steps is None else steps  # the twins' times
        if self._turns[0] != (key := (self.n[driven].tobytes(), turns.shape, turns.tobytes())):
            theta = _phases(np.sqrt(self.n[driven, None]), self.omega, turns)
            self._turns = key, (np.cos(theta), np.sin(theta))
        a, b = _rotation(self.a[driven, None], self.b[driven, None], *self._turns[1])
        _check_norm(np.abs(a) ** 2 + np.abs(b) ** 2)  # the twins, as `evolve_pure` checks
        self.a[driven], self.b[driven] = a[:, -1], b[:, -1]
        self._held = None
        if steps is not None:  # the twins at each column of the cycle's read; states per group
            k = steps.shape[-1]
            twins = np.empty((2, self.n.size, k + self.dts.size + 1), dtype=complex)
            twins[:], twins[:, driven, :k] = (self.a[:, None], self.b[:, None]), (a, b)
            self._held = np.empty((3, *twins.shape[1:])), twins, []
            if np.ndim(taus):  # each row's own, an undriven row's at time 0
                steps = np.zeros((self.n.size, k))
                steps[driven] = turns
        for sec, rows in self.groups:
            x = self._states(sec, rows)
            if np.ndim(taus):  # each row's own stacks
                ops, spans = _operators(sec, self.omega, self.gamma, taus[rows],
                                        None if steps is None else steps[rows], self._ends), sec.spans
            else:  # every row driven, or every row only waits
                ops, spans = _cycle(sec.n, sec.N, self.omega, self.gamma, float(taus), tuple(
                    steps.tolist()) if steps is not None and taus else None, self._ends)
            grid = _advance(x[:, None], ops, spans, sec.traces)
            self.x[rows, :x.shape[1]] = grid[:, -1]
            if self._held:  # an undriven row only waits; `measure` adds the collapse
                self._held[2].append(np.zeros((rows.size, twins.shape[2], x.shape[1]), dtype=complex))
                self._held[2][-1][:, -1 - grid.shape[1]:-1] = grid

    def measure(self, draws: np.ndarray):
        """`PureBatch.measure` for the block states `drive` left: every row and its twin
        projected; with ``eject``, Rydberg rows lose the detected atom and restart from the
        fresh twin |S_n-1>.  Returns the outcomes, their probabilities and, after a traced
        drive, `read` at its columns and after the collapse (an ejected row in its new
        sector), (3, rows, columns), zero at an undriven row's drive columns; None untraced."""
        _check_rows(self.n.size, draws=draws)
        rydberg, probs = np.zeros(self.n.size, dtype=bool), np.empty(self.n.size)
        read, twins, held = self._held or (None, None, None)
        for k, (sec, rows) in enumerate(self.groups):
            x, blk = self._states(sec, rows), sec.block(0)
            p_s, p_r = _populations(blk.trace, x, blk.ss, blk.rr)
            ryd = draws[rows] * (p_s + p_r) < p_r
            p = np.where(ryd, p_r, p_s)
            if (p <= 0.0).any():
                outcome = RYDBERG if ryd[p <= 0.0][0] else NO_RYDBERG
                raise ImpossibleOutcomeError(f"outcome {outcome} has zero probability")
            x = _projected(sec.keeps[ryd.astype(int)], x, p)
            if read is not None:  # the collapse
                held[k][:, -1], twins[:, rows, -1] = x, (~ryd, ryd)
                read[:, rows] = self._read(sec, held[k], *twins[:, rows])
            if self.eject and ryd.any():  # into the columns of (n - 1, N - 1), zero past them
                x[ryd] = _ejected(sec, x[ryd])
                if read is not None:  # in their new sector, with the fresh twin
                    target, twin = sec.ejection[0], np.ones(ryd.sum(), dtype=complex)
                    read[:, rows[ryd], -1] = self._read(target, x[ryd, :target.spans[-1].stop],
                                                        twin, 0 * twin)
            self.x[rows, :x.shape[1]] = x
            rydberg[rows], probs[rows] = ryd, p
        # a twin's global phase changes no <psi|rho|psi>: it collapses onto |S_n> or |R_n>,
        # and restarts from |S_n-1> where its row ejects
        kept = rydberg & (not self.eject)
        self.a, self.b = (~kept).astype(complex), kept.astype(complex)
        if self.eject and rydberg.any():
            self.n, self.N = self.n - rydberg, self.N - rydberg
            self._regroup()
        return rydberg, probs, read

    def take(self, rows: np.ndarray) -> None:
        """Drop the rows not selected by the boolean mask."""
        self.n, self.N, self.x, self.a, self.b = (z[rows] for z in (self.n, self.N, self.x,
                                                                    self.a, self.b))
        self._regroup()

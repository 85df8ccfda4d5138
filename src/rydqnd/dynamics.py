"""Protocol-level state evolution: pure noiseless dynamics over photon-number
superpositions, and noisy fixed-n dynamics in the symmetric block basis.

Pure states carry amplitudes a_n on the stored collective states and b_n on
the single-Rydberg collective states; noiseless observation cycles are exact
rotations within each n.  Noisy fixed-n states are lists of block coefficient
vectors, one per conserved j sector; sector probabilities live in the j = 0
block while retrieval fidelity needs all of them.  `PureBatch` and
`BlockBatch` hold the states of a batch of trajectories as arrays;
`eject_block` and `retrieval_fidelity` run the array kernels of `BlockBatch`
on one row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import pi, sqrt

import numpy as np
from scipy.linalg import expm

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
        if abs(self.norm() - 1.0) > 1e-12:
            raise DomainError(f"state norm is {self.norm()}, expected 1")

    @staticmethod
    def from_stored_amplitudes(c: np.ndarray) -> "PureCollectiveState":
        """State right after photon storage: all amplitude on the |S_n> sectors."""
        c = np.asarray(c, dtype=complex)
        return PureCollectiveState(c, np.zeros_like(c))

    @property
    def n_max(self) -> int:
        return self.a.size - 1

    def norm(self) -> float:
        return sqrt(float(np.sum(np.abs(self.a) ** 2) + np.sum(np.abs(self.b) ** 2)))

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


def _rotation(a: np.ndarray, b: np.ndarray, rate, taus) -> tuple[np.ndarray, np.ndarray]:
    """Each (a, b) pair rotated by its phase rate * taus (`_phases`)."""
    theta = _phases(rate, taus)
    c, s = np.cos(theta), np.sin(theta)
    return a * c - 1j * b * s, b * c - 1j * a * s


def _rotate(a: np.ndarray, b: np.ndarray, rate, taus) -> tuple[np.ndarray, np.ndarray]:
    """Rotate each (a_n, b_n) pair by rate_n * taus, n along the last axis."""
    a, b = _rotation(a, b, rate, taus)
    b[..., 0] = 0.0
    return a, b


def _check_norm(norm_sq: np.ndarray) -> None:
    """The unit-norm check of `PureCollectiveState`, for every row; NaN fails it."""
    norm = np.sqrt(norm_sq)
    bad = ~(np.abs(norm - 1.0) <= 1e-12)
    if bad.any():
        raise DomainError(f"state norm is {norm[bad][0]}, expected 1")


class PureBatch:
    """Pure collective states of a batch of noiseless trajectories, one row each.

    Amplitudes a, b have shape (rows, n_max + 1), photon number k in column
    k.  An ejection shifts a row one column left and narrows its width; the
    columns past a row's width stay zero.  A row computes what a lone
    `PureCollectiveState` computes, bit for bit.
    """

    window = 0.0  # the projective measurement takes no time

    def __init__(self, state: PureCollectiveState, rows: int):
        self.a = np.tile(state.a, (rows, 1))
        self.b = np.tile(state.b, (rows, 1))
        self.width = np.full(rows, state.a.size)
        self.ragged = False  # True once the widths may differ
        self.kept = None  # readouts of the last drive's sub-steps

    def sum_sq(self, x: np.ndarray, rows=slice(None)) -> np.ndarray:
        """Per row, sum |x_k|^2 over k < width.  Rows of one width are summed
        together, as numpy sums a vector of that length (pairwise past 8
        entries, so the length matters)."""
        sq = np.abs(x) ** 2
        if not self.ragged:
            return sq.sum(axis=1)
        width, out = self.width[rows], np.empty(len(x))
        for w in np.unique(width).tolist():
            out[width == w] = sq[width == w, :w].sum(axis=1)
        return out

    def drive(self, taus: np.ndarray, omega: float, steps: np.ndarray | None = None) -> None:
        """Drive row r for taus[r]: within each n, (a_n, b_n) rotates at
        sqrt(n) * omega.  steps as in `BlockBatch.drive`."""
        rate = np.sqrt(np.arange(self.a.shape[1])) * omega
        if steps is None:
            self.a, self.b = _rotate(self.a, self.b, rate, taus[:, None])
            return
        driven = np.flatnonzero(taus > 0)
        rows, points = driven.repeat(steps.shape[1]), steps.shape[1]
        a, b = _rotate(self.a[rows], self.b[rows], rate, steps.reshape(-1, 1))
        self.kept = self.sectors(a, b, rows).reshape(3, *steps.shape)
        self.a[driven], self.b[driven] = a[points - 1::points], b[points - 1::points]

    def fidelity(self) -> np.ndarray:
        """Retrieval fidelity of every row: a noiseless row is its own ideal."""
        return np.ones(len(self.a))

    def sectors(self, a=None, b=None, rows=slice(None)) -> np.ndarray:
        """(p_NoRydberg, p_Rydberg, retrieval fidelity) of every row, or of the
        amplitudes a, b of batch rows `rows`, shape (3, rows)."""
        a, b = (self.a, self.b) if a is None else (a, b)
        p_r = self.sum_sq(b, rows)
        _check_norm(self.sum_sq(a, rows) + p_r)
        return np.stack((1.0 - p_r, p_r, np.ones(len(p_r))))

    def measure(self, draws: np.ndarray, eject: bool = False, dts=None):
        """Project every row by its uniform [0, 1) draw, as `BlockBatch.measure` with no
        window (dts is unused): the kept sector renormalised; with `eject`, Rydberg rows
        lose a photon."""
        kept, self.kept = self.kept, None
        p_s, p_r = self.sum_sq(self.a), self.sum_sq(self.b)
        _check_norm(p_s + p_r)
        rydberg = draws < p_r
        p = np.where(rydberg, p_r, p_s)
        root = np.sqrt(p)[:, None]
        self.a = np.where(rydberg[:, None], 0.0, self.a / root)
        self.b = np.where(rydberg[:, None], self.b / root, 0.0)
        if eject and np.any(rydberg):
            self.ragged = True
            self.width[rydberg] -= 1
            self.a[rydberg, :-1] = self.b[rydberg, 1:]
            self.b[rydberg] = 0.0
            self.a[rydberg] /= np.sqrt(self.sum_sq(self.a[rydberg], rydberg))[:, None]
        _check_norm(self.sum_sq(self.a) + self.sum_sq(self.b))
        return rydberg, p, kept, None

    def keep(self, rows: np.ndarray) -> None:
        """Drop the rows not selected by the boolean mask."""
        self.a, self.b, self.width = self.a[rows], self.b[rows], self.width[rows]


def evolve_pure(state: PureCollectiveState, tau: float, omega: float) -> PureCollectiveState:
    """Drive for time tau: within each n, rotate (a_n, b_n) at sqrt(n)*Omega."""
    if tau < 0:
        raise DomainError("drive time must be non-negative")
    rate = np.sqrt(np.arange(state.a.size)) * omega
    return PureCollectiveState(*_rotate(state.a, state.b, rate, tau))


def measure_pure(state: PureCollectiveState, draw: float) -> tuple[str, PureCollectiveState, float]:
    """Projective Rydberg-presence measurement sampled by a uniform [0,1) draw.

    The collapsed state keeps the measured sector's amplitudes, renormalized
    to unit norm.
    """
    batch = PureBatch(state, 1)
    rydberg, p, _, _ = batch.measure(np.array([draw]))
    return (RYDBERG if rydberg[0] else NO_RYDBERG,
            PureCollectiveState(batch.a[0], batch.b[0]), float(p[0]))


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
    """Block generator and its (eigenvalues, V, V^-1), the latter None if V is ill-conditioned."""
    gen = build_block(n, N, j, omega, gamma).generator()
    lam, vecs = np.linalg.eig(gen)
    if np.linalg.cond(vecs) > _EIG_COND_LIMIT:
        return gen, None
    return gen, (lam, vecs, np.linalg.inv(vecs))


@lru_cache(maxsize=2048)
def _horizon(n: int, N: int, j: int, omega: float, gamma: float) -> float:
    """How long the block's propagators keep its trace to 1e-10: the modes carrying
    it are stationary, but `eig` (and so `expm`) gets their rate 0 as rounding."""
    gen, eig = _eigensystem(n, N, j, omega, gamma)
    lam, vecs = np.linalg.eig(gen) if eig is None else eig[:2]
    carry = np.abs(sector(n, N).block(j).trace @ vecs)
    return 1e-10 / np.abs(lam.real)[carry > 1e-6 * carry.max()].max(initial=1e-300)


def _check_horizon(taus, horizon) -> None:
    """ResourceError naming the first of taus past its block's `_horizon`."""
    long = np.asarray(taus > horizon)
    if long.any():
        tau = np.broadcast_to(taus, long.shape)[long][0]
        raise ResourceError(f"drive time {tau} s is too long for a propagator to keep the trace")


@lru_cache(maxsize=1024)
def _propagator(n: int, N: int, j: int, omega: float, gamma: float, tau: float) -> np.ndarray:
    _check_horizon(tau, _horizon(n, N, j, omega, gamma))
    gen, eig = _eigensystem(n, N, j, omega, gamma)
    return expm(gen * tau) if eig is None else _spectral(*eig, np.asarray(tau))


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
    if tau < 0:
        raise DomainError("evolution time must be non-negative")
    prop = _propagator(state.n, state.N, state.j, omega if drive_on else 0.0, gamma, tau)
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
    if tau_eit < 0:
        raise DomainError("measurement window must be non-negative")
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


@lru_cache(maxsize=64)
def _propagator_grid(n: int, N: int, j: int, omega: float, gamma: float,
                     taus: tuple[float, ...]) -> np.ndarray:
    grid = np.array([_propagator(n, N, j, omega, gamma, t) for t in taus])
    grid.setflags(write=False)
    return grid


def _propagators(n: int, N: int, j: int, omega: float, gamma: float,
                 taus: np.ndarray) -> np.ndarray:
    """`_propagator` at every time of taus, shape taus.shape + (dim, dim).  A
    0-d or 1-d taus holds times every row shares; a fixed schedule repeats
    them, so their propagators are cached."""
    if taus.ndim == 0:
        return _propagator(n, N, j, omega, gamma, float(taus))
    if taus.ndim == 1:
        return _propagator_grid(n, N, j, omega, gamma, tuple(taus.tolist()))
    _, eig = _eigensystem(n, N, j, omega, gamma)
    if eig is None:
        props = np.array([_propagator(n, N, j, omega, gamma, t) for t in taus.ravel().tolist()])
        return props.reshape(taus.shape + props.shape[1:])
    _check_horizon(taus, _horizon(n, N, j, omega, gamma))
    return _spectral(*eig, taus)


def _check_drift(after: np.ndarray, before: np.ndarray) -> None:
    """The trace-drift bound of `evolve_block`, for arrays of traces."""
    drift = np.abs(after - before)
    if (drift > 1e-9).any():
        raise IntegratorError("block propagation lost trace", residual=float(np.nanmax(drift)))


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
    trace they carry, summed over the blocks left to right."""
    tr = 0.0
    for k in range(ss.shape[1]):
        tr = tr + ss_trace[..., k] * ss[:, k].real
    if not (tr > 0.0).all():
        raise PreconditionError("ejection produced a zero-trace state")
    return ss / tr[:, None]


def _overlaps(sec: Sector, x: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Retrieval fidelity <psi|rho|psi> of every row of the side-by-side block
    vectors x against psi = a_n |S_n> + b_n |R_n>: the weights of the dyads
    |S><S|, |R><R|, |S><R|, |R><S| as Python's complex arithmetic and libm
    compute them, a vdot per block and row, summed over the blocks left to
    right."""
    amp = np.stack((a, b))
    re, im = amp.real, amp.imag
    pre, pim = re[::-1], -im[::-1]  # each amplitude's conjugated partner
    weights = np.empty((len(a), 4), dtype=complex)
    weights[:, :2] = np.float_power(np.hypot(re, im), 2.0).T
    weights[:, 2:].real, weights[:, 2:].imag = (re * pre - im * pim).T, (re * pim + im * pre).T
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
    """Non-negative drive times of the rows, (rows, points); where every row
    has the same times, the first row alone, and a number if it has one."""
    if (taus < 0).any():
        raise DomainError("evolution time must be non-negative")
    if (taus == taus[0]).all():
        return taus[0, 0] if taus.shape[1] == 1 else taus[0]
    return taus


def _twin_driven(n, a: np.ndarray, b: np.ndarray, omega: float, taus: np.ndarray):
    """Twin amplitudes (a_n, b_n) after a drive of taus, norm-checked as
    `evolve_pure` checks its state."""
    a, b = _rotation(a, b, np.sqrt(n) * omega, taus)
    _check_norm(np.abs(a) ** 2 + np.abs(b) ** 2)
    return a, b


class BlockBatch:
    """Noisy fixed-n states of a batch of trajectories, one row each: the noisy
    counterpart of `PureBatch`.

    Rows are grouped by their sector (n, N).  A group holds the batch indices
    of its rows, ascending, and their states as one (rows, D) complex array,
    the j blocks side by side (block j in the columns ``Sector.spans[j]``);
    each block is advanced and read on its own columns.  A row's ideal
    noiseless twin is its pair of amplitudes (a_n, b_n) on |S_n> and |R_n>,
    driven, collapsed and ejected alike; the row's retrieval fidelity is its
    overlap with the twin (1 in the vacuum, whose twin stays |S_0>).  A row
    computes what the one-state kernels compute for its block list and its
    `PureCollectiveState` twin, bit for bit.
    """

    def __init__(self, ns, N: int, gamma: float, window: float):
        self.n = np.asarray(ns, dtype=int)
        self.gamma = gamma
        self.window = window  # the dephasing-only measurement window
        self.kept = (None, {})  # (shape, sub-steps by group) of the last drive
        self.a = np.ones(self.n.size, dtype=complex)
        self.b = np.zeros(self.n.size, dtype=complex)
        self.groups = {}
        for n in np.unique(self.n).tolist():
            rows = np.flatnonzero(self.n == n)
            self.groups[(n, N)] = (rows, np.tile(sector(n, N).dyads[0], (rows.size, 1)))

    def _evolved(self, sec: Sector, x: np.ndarray, taus: np.ndarray, omega: float) -> np.ndarray:
        """The states x (rows, D) advanced for each of their times in taus, as
        `_times` gives them: (rows, points, D)."""
        props = [_propagators(sec.n, sec.N, blk.j, omega, self.gamma, taus) for blk in sec.blocks]
        return _advance(x[:, None], props, sec.spans, sec.traces)

    def fidelity(self) -> np.ndarray:  # 1 in the vacuum, which has no twin
        return self.sectors()[2]

    @staticmethod
    def _read(sec: Sector, x: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """(p_NoRydberg, p_Rydberg, fidelity) of states x (M, D) with twins a, b (M,)."""
        blk = sec.block(0)
        fid = np.ones(len(x)) if sec.n == 0 else _overlaps(sec, x, a, b)  # vacuum: no twin
        return np.array((*_populations(blk.trace, x, blk.ss, blk.rr), fid))

    def sectors(self) -> np.ndarray:
        """(p_NoRydberg, p_Rydberg, retrieval fidelity) of every row, shape (3, rows)."""
        out = np.empty((3, self.n.size))
        for key, (rows, x) in self.groups.items():
            out[:, rows] = self._read(sector(*key), x, self.a[rows], self.b[rows])
        return out

    def drive(self, taus: np.ndarray, omega: float, steps: np.ndarray | None = None) -> None:
        """Drive row r and its twin for taus[r].  steps, if given, are the sub-step
        times (driven rows, points) of the rows with taus > 0, each ending at its
        tau: those rows keep their last sub-step, and the next `measure` reads all."""
        _times(taus[:, None])  # the times are valid
        traced, steps = steps is not None, taus[:, None] if steps is None else steps
        driven = np.flatnonzero(taus > 0) if traced else np.arange(taus.size)
        a, b = _twin_driven(self.n[driven, None], self.a[driven, None], self.b[driven, None],
                            omega, steps)
        self.a[driven], self.b[driven] = a[:, -1], b[:, -1]
        self.kept = (steps.shape if traced else None, {})
        for key, (rows, x) in list(self.groups.items()):
            sec = sector(*key)
            slot = np.flatnonzero(taus[rows] > 0) if traced else np.arange(rows.size)
            at = np.searchsorted(driven, rows[slot])  # rows ascend, so do their positions
            if slot.size:
                grid = self._evolved(sec, x[slot], _times(steps[at]), omega)
                x[slot] = grid[:, -1]
                if traced:
                    self.kept[1][(sec.n, sec.N)] = (0, at, grid.reshape(-1, x.shape[1]),
                                                    a[at].ravel(), b[at].ravel())

    def measure(self, draws: np.ndarray, eject: bool = False, dts: np.ndarray | None = None):
        """`PureBatch.measure` for block states: the window (through each of dts,
        the last the window itself, if given), the projection of every row and its
        twin; with `eject`, Rydberg rows lose the detected atom and restart from
        the fresh twin |S_n-1>.  Returns the outcomes, their probabilities and the
        readouts, or None, of the last drive's sub-steps (3, driven, points) and
        the window's (3, rows, len(dts)), read in one call per group."""
        rydberg, probs = np.zeros(self.n.size, dtype=bool), np.empty(self.n.size)
        (shape, kept), self.kept, dts = self.kept, (None, {}), dts if self.window > 0 else None
        reads = [None if shape is None else np.empty((3, *shape)),
                 None if dts is None else np.empty((3, self.n.size, dts.size))]
        moved = []
        for key, (rows, x) in list(self.groups.items()):
            sec = sector(*key)
            # (0 for the drive's, 1 for the window's, their rows, flat states, twin amplitudes)
            parts = [kept[(sec.n, sec.N)]] if (sec.n, sec.N) in kept else []
            if self.window > 0:
                grid = self._evolved(sec, x, np.asarray(self.window) if dts is None else dts, 0.0)
                x = grid[:, -1]
            if dts is not None:
                parts.append((1, rows, grid.reshape(-1, x.shape[1]),
                              *(z[rows].repeat(dts.size) for z in (self.a, self.b))))
            if parts:
                which, at, xs, a, b = zip(*parts)
                read = self._read(sec, *map(np.concatenate, (xs, a, b)))
                for k, to, r in zip(which, at, np.split(read, np.cumsum(list(map(len, a)))[:-1], 1)):
                    reads[k][:, to] = r.reshape(3, len(to), -1)
            blk = sec.block(0)
            p_s, p_r = _populations(blk.trace, x, blk.ss, blk.rr)
            ryd = draws[rows] * (p_s + p_r) < p_r
            p = np.where(ryd, p_r, p_s)
            if (p <= 0.0).any():
                outcome = RYDBERG if ryd[p <= 0.0][0] else NO_RYDBERG
                raise ImpossibleOutcomeError(f"outcome {outcome} has zero probability")
            x = _projected(sec.keeps[ryd.astype(int)], x, p)
            rydberg[rows], probs[rows] = ryd, p
            out = ryd & eject
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
            self._join((sec.n - 1, sec.N - 1), rows, _ejected(sec, x))
            self.n[rows] -= 1
            self.a[rows], self.b[rows] = 1.0, 0.0
        return rydberg, probs, *reads

    def _join(self, key: tuple[int, int], rows: np.ndarray, x: np.ndarray) -> None:
        """Add rows to the group of sector key, keeping its rows ascending."""
        if key in self.groups:
            old_rows, old_x = self.groups[key]
            order = np.argsort(np.concatenate((old_rows, rows)))
            rows, x = np.concatenate((old_rows, rows))[order], np.concatenate((old_x, x))[order]
        self.groups[key] = (rows, x)

    def keep(self, rows: np.ndarray) -> None:
        """Drop the rows not selected by the boolean mask."""
        index = np.cumsum(rows) - 1
        groups = {}
        for key, (idx, x) in self.groups.items():
            sel = rows[idx]
            if sel.any():
                groups[key] = (index[idx[sel]], x[sel])
        self.groups = groups
        self.n, self.a, self.b = self.n[rows], self.a[rows], self.b[rows]


def realign_for_retrieval(state, omega: float, gamma: float = 0.0):
    """Drive for pi/(2*sqrt(n)*Omega) to rotate a Rydberg-sector state onto |S_n>."""
    if isinstance(state, PureCollectiveState):
        n = state.single_n()
        if n == 0:
            raise PreconditionError("vacuum needs no re-alignment")
        if abs(state.b[n]) ** 2 < 0.5:
            raise PreconditionError("state is not in the Rydberg sector")
        return evolve_pure(state, pi / (2 * sqrt(n) * omega), omega)
    blocks = _as_blocks(state)
    n = blocks[0].n
    if n == 0:
        raise PreconditionError("vacuum needs no re-alignment")
    return evolve_blocks(blocks, pi / (2 * sqrt(n) * omega), omega, gamma, drive_on=True)

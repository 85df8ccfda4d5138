"""Protocol-level state evolution: pure noiseless dynamics over photon-number
superpositions, and noisy fixed-n dynamics in the symmetric block basis.

Pure states carry amplitudes a_n on the stored collective states and b_n on
the single-Rydberg collective states; noiseless observation cycles are exact
rotations within each n.  Noisy fixed-n states are lists of block coefficient
vectors, one per conserved j sector; sector probabilities live in the j = 0
block while retrieval fidelity needs all of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import pi, sqrt

import numpy as np
from scipy.linalg import expm

from .errors import DomainError, ImpossibleOutcomeError, IntegratorError, PreconditionError
from .records import NO_RYDBERG, RYDBERG
from .symbasis import SectorBlock, build_block, sector


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


def _rotate(a: np.ndarray, b: np.ndarray, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotate each (a_n, b_n) pair by theta_n, n along the last axis."""
    c, s = np.cos(theta), np.sin(theta)
    a, b = a * c - 1j * b * s, b * c - 1j * a * s
    b[..., 0] = 0.0
    return a, b


def _check_norm(norm_sq: np.ndarray) -> None:
    """The unit-norm check of `PureCollectiveState`, for every row."""
    norm = np.sqrt(norm_sq)
    bad = np.abs(norm - 1.0) > 1e-12
    if np.any(bad):
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

    def driven(self, taus: np.ndarray, omega: float,
               rows=slice(None)) -> tuple[np.ndarray, np.ndarray]:
        """(a, b) of the selected rows after driving row r for taus[r]: within
        each n, (a_n, b_n) rotates at sqrt(n) * omega."""
        theta = np.sqrt(np.arange(self.a.shape[1])) * omega * taus[:, None]
        return _rotate(self.a[rows], self.b[rows], theta)

    def drive(self, taus: np.ndarray, omega: float) -> None:
        """Drive row r for taus[r]."""
        self.a, self.b = self.driven(taus, omega)

    def fidelity(self) -> np.ndarray:
        """Retrieval fidelity of every row: a noiseless row is its own ideal."""
        return np.ones(len(self.a))

    def sectors(self, taus: np.ndarray | None = None, omega: float = 0.0, rows=slice(None)
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(p_NoRydberg, p_Rydberg, retrieval fidelity) of every row, or of the
        selected rows were they driven for taus."""
        a, b = (self.a, self.b) if taus is None else self.driven(taus, omega, rows)
        p_r = self.sum_sq(b, rows)
        _check_norm(self.sum_sq(a, rows) + p_r)
        return 1.0 - p_r, p_r, np.ones(p_r.size)

    def measure(self, draws: np.ndarray, eject: bool = False
                ) -> tuple[np.ndarray, np.ndarray]:
        """Project every row by its uniform [0, 1) draw.

        Returns where the outcome is Rydberg and the outcome's probability.
        The kept sector is renormalised, and with `eject` the Rydberg rows
        lose a photon.
        """
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
        return rydberg, p

    def keep(self, rows: np.ndarray) -> None:
        """Drop the rows not selected by the boolean mask."""
        self.a, self.b, self.width = self.a[rows], self.b[rows], self.width[rows]


def evolve_pure(state: PureCollectiveState, tau: float, omega: float) -> PureCollectiveState:
    """Drive for time tau: within each n, rotate (a_n, b_n) at sqrt(n)*Omega."""
    if tau < 0:
        raise DomainError("drive time must be non-negative")
    theta = np.sqrt(np.arange(state.a.size)) * omega * tau
    return PureCollectiveState(*_rotate(state.a, state.b, theta))


def measure_pure(state: PureCollectiveState, draw: float) -> tuple[str, PureCollectiveState, float]:
    """Projective Rydberg-presence measurement sampled by a uniform [0,1) draw.

    The collapsed state keeps the measured sector's amplitudes, renormalized
    to unit norm.
    """
    batch = PureBatch(state, 1)
    rydberg, p = batch.measure(np.array([draw]))
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
        blocks = sector(self.n, self.N).blocks
        if not 0 <= self.j < len(blocks):
            raise DomainError(f"need 0 <= j <= {len(blocks) - 1}, got j={self.j}")
        self.block = blocks[self.j]
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


@lru_cache(maxsize=1024)
def _propagator(n: int, N: int, j: int, omega: float, gamma: float, tau: float) -> np.ndarray:
    gen, eig = _eigensystem(n, N, j, omega, gamma)
    if eig is None:
        return expm(gen * tau)
    lam, vecs, inv = eig
    return (vecs * np.exp(lam * tau)) @ inv


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


def eject_block(blocks) -> BlockList:
    """Remove the detected Rydberg atom: (n, N) Rydberg sector -> (n-1, N-1).

    Each rr coefficient maps onto the ss label of the corresponding j block
    (see `Sector.ejection`); all within-Rydberg coherence labels are
    annihilated.
    """
    blocks = _as_blocks(blocks)
    n, N = blocks[0].n, blocks[0].N
    if n < 1:
        raise PreconditionError("nothing to eject")
    b0 = _j0(blocks)
    if abs(b0.x[b0.block.ss]) > 1e-9:
        raise PreconditionError("state has weight in the NoRydberg sector; eject only after a Rydberg outcome")
    target, factor = sector(n, N).ejection
    xs = [np.zeros(blk.dim, dtype=complex) for blk in target.blocks]
    for src in blocks:
        if src.j < len(xs):
            xs[src.j][target.blocks[src.j].ss] = src.x[src.block.rr] * factor
    out = [SymmetricBlockState(n - 1, N - 1, j, x) for j, x in enumerate(xs)]
    tr = sum(b.trace() for b in out)
    if tr <= 0:
        raise PreconditionError("ejection produced a zero-trace state")
    for b in out:
        b.x = b.x / tr
    return out


def retrieval_fidelity(blocks, ideal: PureCollectiveState) -> float:
    """Overlap <psi_ideal| rho |psi_ideal> of the block state with a fixed-n pure state."""
    blocks = _as_blocks(blocks)
    n = blocks[0].n
    n_ideal = ideal.single_n()
    if n_ideal != n:
        raise DomainError(f"ideal state has n={n_ideal}, block state has n={n}")
    a, b = complex(ideal.a[n]), complex(ideal.b[n])
    # weights of the dyads |S><S|, |R><R|, |S><R|, |R><S| (the rows of block.dyads)
    weights = np.array([abs(a) ** 2, abs(b) ** 2, a * b.conjugate(), b * a.conjugate()])
    fid = sum(complex(np.vdot(weights @ blk.block.dyads, blk.x)) for blk in blocks)
    if abs(fid.imag) > 1e-8:
        raise IntegratorError("fidelity came out complex", residual=abs(fid.imag))
    return float(min(max(fid.real, 0.0), 1.0))


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

"""Brute-force Lindblad simulator on N three-level atoms, used as ground truth.

States live on the product basis over {g, s, r} restricted to at most one r
excitation; the perfect-blockade Hamiltonian is exactly the projection of the
collective drive onto that subspace, and the dephasing jump operators preserve
it, so nothing is lost by the restriction.  Intended for N <= 6 only.

`evolve_dense_grid` applies the exact propagator exp(L t), with L the sparse
Liouvillian on the row-major vec(rho), through scipy's `expm_multiply`: the
truncated Taylor series of Al-Mohy & Higham, "Computing the action of the
matrix exponential", SIAM J. Sci. Comput. 33, 488 (2011).  It evolves only the
basis states whose excitation number (#s + #r) occurs in an occupied row or
column of the input.  This is exact for any input matrix: the s<->r drive
conserves the excitation number and the dephasing term acts elementwise, so
an entry rho_ab only ever feeds entries in the same (exc(a), exc(b)) block,
and a block that starts at zero stays zero.  No permutation symmetry and no
eigendecomposition is used, so the oracle stays independent of the
symmetric-block solver it checks.  A list of (state, gamma) pairs evolves in one
`expm_multiply` call over the cached block-diagonal Liouvillian of their sectors, at
equally spaced times over the whole interval; each pair gets its occupied basis states
and a read-only view of its blocks of the one series, which `sector_populations_dense`
reads.  `evolve_dense` scatters the last block of a one-pair, two-point grid into a full
rho.  An evolution that would need more than `MAX_DENSE_STEPS` scaling steps (hours of
work), or whose Liouvillian or series passes float range, raises `ResourceError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, isfinite, sqrt

import numpy as np

from .errors import DomainError, IntegratorError, ResourceError

G, S, R = 0, 1, 2
MAX_DENSE_ATOMS = 6


@lru_cache(maxsize=None)
def basis_states(N: int) -> tuple[tuple[int, ...], ...]:
    """All product configurations of N atoms with at most one r excitation."""
    if N < 1:
        raise DomainError("need at least one atom")
    if N > MAX_DENSE_ATOMS:
        raise ResourceError(f"dense oracle supports N <= {MAX_DENSE_ATOMS}, got {N}")
    states: list[tuple[int, ...]] = []
    for code in range(3**N):
        cfg = []
        x = code
        for _ in range(N):
            cfg.append(x % 3)
            x //= 3
        if cfg.count(R) <= 1:
            states.append(tuple(cfg))
    return tuple(states)


@lru_cache(maxsize=None)
def _basis_index(N: int) -> dict[tuple[int, ...], int]:
    return {cfg: i for i, cfg in enumerate(basis_states(N))}


@dataclass
class DenseState:
    """Density matrix over the blockaded product basis of N atoms."""

    N: int
    rho: np.ndarray


def build_symmetric_ket(n: int, N: int) -> np.ndarray:
    """Unit-norm equal superposition of all placements of n s-excitations."""
    if not 0 <= n <= N:
        raise DomainError(f"need 0 <= n <= N, got n={n}, N={N}")
    states = basis_states(N)
    vec = np.zeros(len(states), dtype=complex)
    amp = 1.0 / sqrt(comb(N, n))
    for i, cfg in enumerate(states):
        if cfg.count(S) == n and cfg.count(R) == 0:
            vec[i] = amp
    return vec


def pure_state(vec: np.ndarray, N: int) -> DenseState:
    return DenseState(N, np.outer(vec, vec.conj()))


@lru_cache(maxsize=None)
def _drive_hamiltonian(N: int) -> np.ndarray:
    """Collective s<->r drive at unit Rabi frequency, blockade-projected."""
    states = basis_states(N)
    index = _basis_index(N)
    h = np.zeros((len(states), len(states)))
    for i, cfg in enumerate(states):
        for site, level in enumerate(cfg):
            if level == S and cfg.count(R) == 0:
                target = cfg[:site] + (R,) + cfg[site + 1:]
                k = index[target]
                h[k, i] += 1.0
                h[i, k] += 1.0
    return h


@lru_cache(maxsize=None)
def _dephasing_weights(N: int) -> np.ndarray:
    """Elementwise dissipator weights W with (d rho)_ab = gamma W_ab rho_ab."""
    states = basis_states(N)
    r_site = np.array([cfg.index(R) if R in cfg else -1 for cfg in states])
    has_r = (r_site >= 0).astype(float)
    same = (r_site[:, None] == r_site[None, :]) & (r_site[:, None] >= 0)
    return same.astype(float) - 0.5 * (has_r[:, None] + has_r[None, :])


@lru_cache(maxsize=None)
def _excitation_numbers(N: int) -> np.ndarray:
    """#s + #r of every basis state, conserved by drive and dephasing."""
    return np.array([cfg.count(S) + cfg.count(R) for cfg in basis_states(N)])


def _liouvillian(N: int, idx: tuple[int, ...], omega: float, gamma: float):
    """L = -i (h x I - I x h^T) + gamma diag(vec W) on row-major vec(rho) over idx, as CSR."""
    from scipy import sparse
    h = sparse.csr_matrix(omega * _drive_hamiltonian(N)[np.ix_(idx, idx)])
    eye = sparse.identity(len(idx))
    return (-1j * (sparse.kron(h, eye) - sparse.kron(eye, h.T))
            + sparse.diags(gamma * _dephasing_weights(N)[np.ix_(idx, idx)].ravel())).tocsr()


@lru_cache(maxsize=64)
def _joint_liouvillian(blocks: tuple[tuple[int, tuple[int, ...], float], ...], omega: float):
    """Block-diagonal CSR of the (N, idx, gamma) blocks' L, its 1-norm, trace and largest |entry|."""
    from scipy.sparse import block_diag
    L = block_diag([_liouvillian(N, idx, omega, gamma) for N, idx, gamma in blocks], format="csr")
    return L, float(abs(L).sum(axis=0).max()), sum(L.diagonal().tolist()), abs(L).max()


# expm_multiply scales L t down by at least ||L t||_1 / theta_55 steps, theta_55 = 9.9
# (Al-Mohy & Higham, Table 3.1, double precision); a longer evolution is refused.
# Every oracle-check, test and record property stays below ||L t||_1 = 60.
_THETA_55 = 9.9
MAX_DENSE_STEPS = 1000


def evolve_dense(state: DenseState, t: float, omega: float, gamma: float) -> DenseState:
    """exp(L t) applied to the occupied sectors (module docstring): the last block of
    a one-pair, two-point `evolve_dense_grid`, scattered into a full-size zero rho."""
    [(idx, blocks)] = evolve_dense_grid([(state, gamma)], t, 2, omega)
    rho = np.zeros(state.rho.shape, dtype=complex)
    rho[np.ix_(idx, idx)] = blocks[-1]
    return DenseState(state.N, rho)


def evolve_dense_grid(pairs: list[tuple[DenseState, float]], t_stop: float, points: int,
                      omega: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """exp(L t) applied to each (state, gamma) pair's occupied sectors at `points` equally
    spaced times t from 0 to t_stop (both included, as np.linspace places them), from one
    expm_multiply call over the pairs' block-diagonal Liouvillian (its blocks never couple;
    its 1-norm is the largest block's).  Each pair gets (idx, blocks): its occupied basis
    states and a read-only (points, len(idx), len(idx)) view of its columns of the series,
    outside which rho is exactly zero; every block's trace and Hermiticity are checked."""
    from scipy.sparse.linalg import expm_multiply  # first, so a one-point call loads scipy
    if points < 1:
        raise DomainError(f"need at least one time point, got {points}")
    if not all(map(isfinite, (t_stop, omega, *(gamma for _, gamma in pairs)))):
        raise DomainError("evolution time, omega and gamma must be finite")
    if t_stop < 0:
        raise DomainError("evolution time must be non-negative")
    if min((gamma for _, gamma in pairs), default=0.0) < 0:
        raise DomainError("gamma must be non-negative")
    idxs = []  # each state's basis states at an excitation number of an occupied row or column
    for state, _ in pairs:
        exc, nonzero = _excitation_numbers(state.N), state.rho != 0
        idxs.append(np.flatnonzero(np.isin(exc, exc[nonzero.any(axis=0) | nonzero.any(axis=1)])))
    vec = np.concatenate([np.zeros(0), *(state.rho[np.ix_(idx, idx)].ravel()
                                         for (state, _), idx in zip(pairs, idxs))], dtype=complex)
    vecs = np.broadcast_to(vec, (points, vec.size))  # every point the input, until evolved
    if points > 1 and t_stop > 0 and vec.size:
        liouvillian, norm, trace, largest = _joint_liouvillian(tuple(
            (state.N, tuple(idx.tolist()), gamma) for (state, gamma), idx in zip(pairs, idxs)), omega)
        if not isfinite(norm):
            raise ResourceError("dense evolution's ||L||_1 is past float range")
        norm *= t_stop
        if norm / _THETA_55 > MAX_DENSE_STEPS:
            raise ResourceError(f"dense evolution with ||L t||_1 = {norm:.3g} needs more than "
                                f"{MAX_DENSE_STEPS} expm_multiply steps")
        if not np.isfinite(trace):  # expm_multiply shifts L by it
            raise ResourceError("dense evolution's Liouvillian trace is past float range")
        if largest * t_stop > 1e-300:  # else exp(L t) = 1; scipy's step count rounds to 0
            try:  # a Liouvillian near float range overflows the series: refused, not warned
                with np.errstate(over="raise", invalid="raise"):
                    vecs = expm_multiply(liouvillian, vec, start=0.0, stop=t_stop, num=points)
            except FloatingPointError:
                raise ResourceError("dense evolution's Taylor series passes float range") from None
    vecs.flags.writeable = False
    grids = [(idx, cols.reshape(points, idx.size, idx.size)) for idx, cols in zip(idxs, np.split(
        vecs, np.cumsum([idx.size ** 2 for idx in idxs])[:-1], axis=1))]
    for (state, _), (_, blocks) in zip(pairs, grids):  # one point at a time: no temporary per grid
        for block in blocks:
            residual = max(abs(np.trace(block).real - np.trace(state.rho).real),
                           np.max(np.abs(block - block.conj().T), initial=0.0))
            if residual > 1e-8:
                raise IntegratorError("dense evolution outside tolerance", residual=residual)
    return grids


@lru_cache(maxsize=None)
def _rydberg_mask(N: int) -> np.ndarray:
    return np.array([R in cfg for cfg in basis_states(N)])


def sector_populations_dense(N: int, rho: np.ndarray, idx=slice(None)) -> tuple[np.ndarray, np.ndarray]:
    """(p_NoRydberg, p_Rydberg) of a rho over the basis of N atoms, or of each idx x idx block
    of a grid, one pair per leading index.  The diagonals go into zero diagonals over the
    whole basis and each sector's entries are summed as one contiguous row: summing over idx
    alone, or along a strided row, groups the terms otherwise and moves the last bits."""
    diag = np.zeros((*rho.shape[:-2], len(basis_states(N))))
    diag[..., idx] = np.diagonal(rho, axis1=-2, axis2=-1).real
    mask = _rydberg_mask(N)
    return diag.compress(~mask, axis=-1).sum(axis=-1), diag.compress(mask, axis=-1).sum(axis=-1)

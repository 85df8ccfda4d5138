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
symmetric-block solver it checks.  The states at equally spaced times come
from one `expm_multiply` call over the whole interval; `evolve_dense` is the
last of two.  An evolution that would need more than `MAX_DENSE_STEPS` scaling
steps raises `ResourceError` instead of running for hours.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, isfinite, sqrt

import numpy as np

from .errors import DomainError, IntegratorError, ImpossibleOutcomeError, PreconditionError, ResourceError
from .records import RYDBERG, NO_RYDBERG

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

    def copy(self) -> "DenseState":
        return DenseState(self.N, self.rho.copy())


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


def build_rydberg_ket(n: int, N: int) -> np.ndarray:
    """Collective state with n-1 s-excitations and one shared r excitation."""
    if not 1 <= n <= N:
        raise DomainError(f"need 1 <= n <= N, got n={n}, N={N}")
    states = basis_states(N)
    vec = np.zeros(len(states), dtype=complex)
    amp = 1.0 / sqrt(n * comb(N, n))
    for i, cfg in enumerate(states):
        if cfg.count(S) == n - 1 and cfg.count(R) == 1:
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


@lru_cache(maxsize=64)
def _liouvillian(N: int, idx: tuple[int, ...], omega: float, gamma: float):
    """L = -i (h x I - I x h^T) + gamma diag(vec W) on row-major vec(rho) over idx, as CSR."""
    from scipy import sparse
    h = sparse.csr_matrix(omega * _drive_hamiltonian(N)[np.ix_(idx, idx)])
    eye = sparse.identity(len(idx))
    return (-1j * (sparse.kron(h, eye) - sparse.kron(eye, h.T))
            + sparse.diags(gamma * _dephasing_weights(N)[np.ix_(idx, idx)].ravel())).tocsr()


# expm_multiply scales L t down by at least ||L t||_1 / theta_55 steps, theta_55 = 9.9
# (Al-Mohy & Higham, Table 3.1, double precision); a longer evolution is refused.
# Every oracle-check, test and record property stays below ||L t||_1 = 60.
_THETA_55 = 9.9
MAX_DENSE_STEPS = 1000


def _scattered(state: DenseState, idx: np.ndarray, vec: np.ndarray) -> DenseState:
    """vec(rho) over idx scattered into a full-size zero rho, its trace and
    Hermiticity checked against the input's."""
    rho = np.zeros(state.rho.shape, dtype=complex)
    rho[np.ix_(idx, idx)] = vec.reshape(idx.size, idx.size)
    residual = max(abs(np.trace(rho).real - np.trace(state.rho).real),
                   np.max(np.abs(rho - rho.conj().T)))
    if residual > 1e-8:
        raise IntegratorError("dense evolution outside tolerance", residual=residual)
    return DenseState(state.N, rho)


def evolve_dense(state: DenseState, t: float, omega: float, gamma: float) -> DenseState:
    """exp(L t) applied to the occupied sectors (module docstring): the last
    state of a two-point `evolve_dense_grid`."""
    return evolve_dense_grid(state, t, 2, omega, gamma)[-1]


def evolve_dense_grid(state: DenseState, t_stop: float, points: int, omega: float,
                      gamma: float) -> list[DenseState]:
    """exp(L t) applied to the occupied sectors at `points` equally spaced
    times t from 0 to t_stop (both included, as np.linspace places them), from
    one expm_multiply call over the whole grid; every other entry of a result
    is exactly zero, and each result's trace and Hermiticity are checked."""
    # before the early returns, so a one-point call (oracle-check's warm-up) loads scipy
    from scipy.sparse.linalg import expm_multiply
    if points < 1:
        raise DomainError(f"need at least one time point, got {points}")
    if not all(map(isfinite, (t_stop, omega, gamma))):
        raise DomainError("evolution time, omega and gamma must be finite")
    if t_stop < 0:
        raise DomainError("evolution time must be non-negative")
    if points == 1 or t_stop == 0:
        return [state.copy() for _ in range(points)]
    exc = _excitation_numbers(state.N)
    nonzero = state.rho != 0
    idx = np.flatnonzero(np.isin(exc, exc[nonzero.any(axis=0) | nonzero.any(axis=1)]))
    liouvillian = _liouvillian(state.N, tuple(idx.tolist()), omega, gamma)
    norm = float(abs(liouvillian).sum(axis=0).max()) * t_stop
    if norm / _THETA_55 > MAX_DENSE_STEPS:
        raise ResourceError(f"dense evolution with ||L t||_1 = {norm:.3g} needs more than "
                            f"{MAX_DENSE_STEPS} expm_multiply steps")
    if not np.isfinite(sum(liouvillian.diagonal().tolist())):  # expm_multiply shifts L by it
        raise ResourceError("dense evolution's Liouvillian trace is past float range")
    if abs(liouvillian).max() * t_stop <= 1e-300:  # exp(L t) = 1; scipy's step count rounds to 0
        return [state.copy() for _ in range(points)]
    vec = state.rho[np.ix_(idx, idx)].ravel().astype(complex)
    vecs = expm_multiply(liouvillian, vec, start=0.0, stop=t_stop, num=points, endpoint=True)
    return [_scattered(state, idx, v) for v in vecs]


@lru_cache(maxsize=None)
def _rydberg_mask(N: int) -> np.ndarray:
    return np.array([R in cfg for cfg in basis_states(N)])


def sector_populations_dense(state: DenseState) -> tuple[float, float]:
    """(p_NoRydberg, p_Rydberg) of a dense state."""
    mask = _rydberg_mask(state.N)
    diag = np.real(np.diag(state.rho))
    p_r = float(diag[mask].sum())
    p_s = float(diag[~mask].sum())
    return p_s, p_r


def project_dense(state: DenseState, outcome: str) -> tuple[float, DenseState]:
    """Project onto one measurement sector; returns (probability, state)."""
    mask = _rydberg_mask(state.N)
    keep = mask if outcome == RYDBERG else ~mask
    if outcome not in (RYDBERG, NO_RYDBERG):
        raise DomainError(f"unknown outcome {outcome!r}")
    p = float(np.real(np.diag(state.rho))[keep].sum())
    if p <= 0:
        raise ImpossibleOutcomeError(f"outcome {outcome} has zero probability")
    sel = np.outer(keep, keep)
    rho = np.where(sel, state.rho, 0.0) / p
    return p, DenseState(state.N, rho)


def eject_dense(state: DenseState) -> DenseState:
    """Remove the atom carrying the Rydberg excitation (measure-and-discard).

    Implements sum_i Tr_i[P_i rho P_i] with P_i projecting atom i onto r.
    Requires the input to live entirely in the Rydberg sector.
    """
    N = state.N
    if N < 2:
        raise DomainError("cannot eject from a single-atom array")
    mask = _rydberg_mask(N)
    off_sector = float(np.abs(np.diag(state.rho))[~mask].sum())
    if off_sector > 1e-10:
        raise PreconditionError("state has weight outside the Rydberg sector")
    states = basis_states(N)
    out_index = _basis_index(N - 1)
    dim_out = len(basis_states(N - 1))
    rho_out = np.zeros((dim_out, dim_out), dtype=complex)
    for a, cfg_a in enumerate(states):
        if R not in cfg_a:
            continue
        i = cfg_a.index(R)
        red_a = out_index[cfg_a[:i] + cfg_a[i + 1:]]
        for b, cfg_b in enumerate(states):
            if R not in cfg_b or cfg_b.index(R) != i:
                continue
            red_b = out_index[cfg_b[:i] + cfg_b[i + 1:]]
            rho_out[red_a, red_b] += state.rho[a, b]
    tr = np.trace(rho_out).real
    if tr <= 0:
        raise PreconditionError("ejection produced a zero-trace state")
    return DenseState(N - 1, rho_out / tr)

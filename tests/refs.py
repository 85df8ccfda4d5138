"""Reference definitions that only the tests call.

No command runs these, so they live beside the tests instead of in the
package.  They are the closed-form noiseless likelihood and its mixture, the
noisy one-candidate likelihood, the dense side of the oracle record gate
(`build_rydberg_ket`, `project_dense`, `eject_dense`, sharing no code with the
symmetric-block solver), the finite-difference Fisher information the closed
forms are checked against, and small helpers that build or read package
types.  Each keeps the code it had in the package.
"""

from __future__ import annotations

import math
from math import comb, pi, sqrt
from typing import Callable

import numpy as np

from rydqnd import dynamics as dyn
from rydqnd.dense_oracle import R, S, DenseState, _basis_index, _rydberg_mask, basis_states
from rydqnd.engine import PHASES, Trace
from rydqnd.errors import DomainError, ImpossibleOutcomeError, PreconditionError
from rydqnd.inference import NoiseParams, _log_likelihood_table, log_likelihood_noiseless
from rydqnd.records import NO_RYDBERG, RYDBERG, FockDistribution, MeasurementRecord, Posterior
from rydqnd.symbasis import BasisLabel, _sqrt_ratio


# ---------------------------------------------------------------------------
# dynamics

def norm(state: dyn.PureCollectiveState) -> float:
    return sqrt(float(np.sum(np.abs(state.a) ** 2) + np.sum(np.abs(state.b) ** 2)))


def realign_for_retrieval(state, omega: float, gamma: float = 0.0):
    """Drive for pi/(2*sqrt(n)*Omega) to rotate a Rydberg-sector state onto |S_n>."""
    if isinstance(state, dyn.PureCollectiveState):
        n = state.single_n()
        if n == 0:
            raise PreconditionError("vacuum needs no re-alignment")
        if abs(state.b[n]) ** 2 < 0.5:
            raise PreconditionError("state is not in the Rydberg sector")
        return dyn.evolve_pure(state, pi / (2 * sqrt(n) * omega), omega)
    blocks = dyn._as_blocks(state)
    n = blocks[0].n
    if n == 0:
        raise PreconditionError("vacuum needs no re-alignment")
    return dyn.evolve_blocks(blocks, pi / (2 * sqrt(n) * omega), omega, gamma, drive_on=True)


# ---------------------------------------------------------------------------
# inference

def likelihood_noiseless(record: MeasurementRecord, n: int, omega: float) -> float:
    return math.exp(log_likelihood_noiseless(record, n, omega))


def log_likelihood_noisy(record: MeasurementRecord, n: int, omega: float,
                         noise: NoiseParams) -> float:
    return float(_log_likelihood_table(record, [n], omega, noise)[-1, 0])


def marginal_likelihood(record: MeasurementRecord, dist: FockDistribution, omega: float,
                        noise: NoiseParams | None = None, eject: bool = False) -> float:
    """Pr(M_T | P) = sum_n p_n Pr(M_T | n)."""
    logs = _log_likelihood_table(record, dist.support(), omega, noise, eject)[-1]
    return float(dist.p[dist.support()] @ np.exp(logs))


def mle(post: Posterior) -> int:
    """Index of the maximal posterior weight; ties break to the lowest index."""
    return int(np.argmax(post.weights))


# ---------------------------------------------------------------------------
# dense_oracle: the dense side of the oracle record gate

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


# ---------------------------------------------------------------------------
# analysis

def fisher_numeric(f_same: Callable[[float, float], float],
                   f_diff: Callable[[float, float], float],
                   n: float, t: float, step: float | None = None) -> float:
    """Two-outcome Fisher information with a central finite difference in n.

    ``f_same``/``f_diff`` are the probabilities of repeating/flipping the
    previous outcome as functions of (t, n); n is treated as continuous.
    """
    h = step if step is not None else 1e-4 * n
    ps, pd = f_same(t, n), f_diff(t, n)
    if not (0.0 <= ps <= 1.0 and 0.0 <= pd <= 1.0):
        raise DomainError("signal probabilities must lie in [0, 1]")
    if abs(ps + pd - 1.0) > 1e-9:
        raise DomainError("signal probabilities must sum to 1")
    total = 0.0
    for f, p in ((f_same, ps), (f_diff, pd)):
        if p == 0.0:
            continue
        hi, lo = f(t, n + h), f(t, n - h)
        if hi <= 0.0 or lo <= 0.0:
            raise DomainError("signal vanishes at the finite-difference stencil")
        dlog = (math.log(hi) - math.log(lo)) / (2 * h)
        total += p * dlog**2
    return total


# ---------------------------------------------------------------------------
# engine

def trace_from_rows(rows: list[dict]) -> Trace:
    """The columns of row dicts, each row's posterior its own row."""
    values = [[row[key] for key in ("time_s", "p_no_rydberg", "p_rydberg", "fidelity")]
              for row in rows]
    codes = [[PHASES.index(row["phase"]), k] for k, row in enumerate(rows)]
    posteriors = np.array([row["posterior"] for row in rows] or np.empty((0, 0)), dtype=float)
    return Trace(np.array(values, dtype=float).reshape(-1, 4).T,
                 np.array(codes, dtype=int).reshape(-1, 2).T, posteriors)


# ---------------------------------------------------------------------------
# symbasis

def normalization(label: BasisLabel) -> float:
    """Normalization constant making the summed operator string a unit superket.

    Distinct site assignments are orthonormal under the trace inner product,
    so the constant is 1/sqrt(multinomial count).  The count is computed in
    exact integer arithmetic.
    """
    return _sqrt_ratio(1, label.assignment_count())

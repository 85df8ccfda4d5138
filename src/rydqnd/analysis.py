"""Fisher-information and detection-time calculators, the expected-MLE
fidelity functional, and greedy/exhaustive drive-schedule optimizers.

Detection time is defined by unit accumulated Fisher information about the
photon number.  Three signal regimes are covered: the noiseless oscillation
frequency, the dephasing-limited oscillation frequency, and the steady-state
sector populations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dynamics import _check_times
from .errors import DomainError, ResourceError
from .inference import Mixture, NoiseParams, record_likelihoods
from .records import FockDistribution, Posterior

REGIMES = ("noiseless", "noisy-frequency", "steady-state")

MAX_ENUMERATED_CYCLES = 20
MAX_TRACE_POINTS = 1_000  # each traced row costs about 7 KB of memory per point
MAX_GLOBAL_TUPLES = 2_000_000


def _check_regime(regime: str, gamma: float, n: float) -> None:
    if regime not in REGIMES:
        raise DomainError(f"unknown regime {regime!r}; expected one of {REGIMES}")
    if regime != "noiseless" and gamma <= 0:
        raise DomainError(f"regime {regime!r} requires gamma > 0")
    if not n > 0:
        raise DomainError(f"photon number must be positive, got {n}")


def _in_range(what: str, formula: Callable[[], float]) -> float:
    """formula(), or `ResourceError` naming what where it overflows or divides by 0."""
    try:
        value = formula()
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not math.isfinite(value):
        raise ResourceError(f"{what} is past float range")
    return value


def fisher_closed_form(regime: str, n: float, t: float, omega: float, gamma: float = 0.0) -> float:
    """Closed-form Fisher information about n accumulated by time t."""
    _check_regime(regime, gamma, n)
    _check_times(t, "time")
    return _in_range("Fisher information", {
        "noiseless": lambda: t**2 * omega**2 / n,
        "noisy-frequency": lambda: t * omega**2 / (gamma * n),
        "steady-state": lambda: t * gamma / (n * (1 + n) ** 2)}[regime])


def detection_time(regime: str, n: float, omega: float, gamma: float = 0.0) -> float:
    """Time t_* at which the accumulated Fisher information reaches 1."""
    _check_regime(regime, gamma, n)
    return _in_range("detection time", {
        "noiseless": lambda: math.sqrt(n) / omega,
        "noisy-frequency": lambda: gamma * n / omega**2,
        "steady-state": lambda: n * (1 + n) ** 2 / gamma}[regime])


def steady_state_populations(n: int) -> tuple[float, float]:
    """Long-time (p_NoRydberg, p_Rydberg) of the dephased driven array."""
    if n < 1:
        raise DomainError("steady-state signal requires n >= 1")
    return 1.0 / (n + 1), n / (n + 1)


def default_tau_grid(omega: float, points: int = 800) -> np.ndarray:
    """Uniform grid on (0, 4*pi/Omega]; resolves the toy optima to 4 digits.

    The discrimination optimum for the two-candidate toy sits near 2*pi/Omega,
    outside a single drive period, so the grid spans several periods.
    """
    if points < 1:
        raise DomainError(f"need at least one grid point, got {points}")
    upper = 4 * math.pi / omega
    if upper == math.inf:
        raise ResourceError(f"omega {omega:g} puts the grid's end 4 pi / omega past float range")
    return np.linspace(upper / points, upper, points)


def appendix_toy_candidates() -> tuple[list[FockDistribution], Posterior]:
    """Two-candidate discrimination task used as the optimizer testbed."""
    p1 = FockDistribution(np.array([0, 1, 1, 0, 1, 0]) / 3.0)
    p2 = FockDistribution.delta(3, 5)
    return [p1, p2], Posterior.uniform(2)


@dataclass
class ScheduleResult:
    taus: list[float]
    fidelity_trace: list[float]
    strategy: str


def _outcome_tree(prefix: Sequence[float], ns: list[int], omega: float,
                  noise: NoiseParams | None, eject: bool):
    """Pr(record | n) of the 2^T records of the drive times in prefix, shape
    (2^T, len(ns)), and the `record_likelihoods` holder of those records.
    Level t splits each record into its NoRydberg and Rydberg continuations."""
    tree = record_likelihoods(ns, omega, noise, eject)
    for tau in prefix:
        rows = 2 * len(tree.log_l)
        tree.take(np.arange(rows) // 2)
        tree.update(np.full(rows, float(tau)), np.arange(rows) % 2 == 1)
    return np.exp(tree.log_l), tree


def _fidelity_over_grid(prefix: Sequence[float], grid: np.ndarray,
                        candidates: list[FockDistribution], prior: Posterior, omega: float,
                        noise: NoiseParams | None, eject: bool = False) -> np.ndarray:
    """F_{T+1}(tau) over the grid for the schedules prefix + [tau]: the sum of
    max_k w_k sum_n p_kn Pr(record | n) Pr(m | record, n, tau) over the leaves of
    the prefix's outcome tree, a chunk at a time, and both next outcomes m; its callers
    check the grid and the enumeration guard (`_schedule_grid`)."""
    mixture = Mixture(candidates, prior)
    ns, weights = mixture.ns, mixture.prior[:, None] * mixture.p
    like, tree = _outcome_tree(prefix, ns, omega, noise, eject)
    chunk = max(1, (1 << 18) // (2 * grid.size * (len(ns) + len(candidates))))
    out = np.zeros(2 * grid.size)
    read = tree.grid_reader(grid)
    for start in range(0, like.shape[0], chunk):
        rows = slice(start, start + chunk)
        # Pr(candidate k, record continued by m after tau), shape (rows, K, 2G)
        joint = (like[rows, None, :] * weights) @ read(rows)
        out += joint.max(axis=1).sum(axis=0)
    return out.reshape(2, grid.size).sum(axis=0)


def expected_fidelity(taus: Sequence[float], candidates: list[FockDistribution],
                      prior: Posterior, omega: float,
                      noise: NoiseParams | None = None, eject: bool = False) -> float:
    """Expected MLE success probability over all outcome sequences.

    Sums max_alpha Pr(M_T | P_alpha) Pr(P_alpha) over the 2^T records that the
    schedule can produce.
    """
    if len(candidates) == 1:
        return 1.0
    if len(taus) == 0:
        return float(np.max(prior.weights))
    grid = _schedule_grid(len(taus), [taus[-1]])
    return float(_fidelity_over_grid(taus[:-1], grid, candidates, prior, omega, noise, eject)[0])


def _schedule_grid(T: int, grid) -> np.ndarray:
    """The sorted grid of a schedule of T cycles, the grid and T checked by one rule."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1:
        raise DomainError(f"tau grid must be one-dimensional, got shape {grid.shape}")
    if grid.size == 0:
        raise DomainError("tau grid must be non-empty")
    if T < 1:
        raise DomainError(f"schedule length must be at least 1, got {T}")
    if T > MAX_ENUMERATED_CYCLES:  # refused before the first step, not at the last
        raise ResourceError(f"2^{T} outcome sequences exceed the enumeration guard")
    return np.sort(grid)


def optimize_schedule_local(T: int, candidates: list[FockDistribution], prior: Posterior,
                            grid: np.ndarray, omega: float, noise: NoiseParams | None = None,
                            eject: bool = False) -> ScheduleResult:
    """Greedy strategy: pick each tau_i to maximize F_i given tau_1..tau_{i-1}.

    Ties resolve to the smallest grid time.
    """
    grid = _schedule_grid(T, grid)
    taus: list[float] = []
    trace: list[float] = []
    for _ in range(T):
        taus.append(greedy_next_tau(taus, candidates, prior, grid, omega, noise, eject))
        trace.append(expected_fidelity(taus, candidates, prior, omega, noise, eject))
    return ScheduleResult(taus, trace, "local")


def greedy_next_tau(prefix: Sequence[float], candidates: list[FockDistribution],
                    prior: Posterior, grid: np.ndarray, omega: float,
                    noise: NoiseParams | None = None, eject: bool = False) -> float:
    """Single step of the local strategy, for adaptive scheduling."""
    grid = _schedule_grid(len(prefix) + 1, grid)
    fidelity = _fidelity_over_grid(prefix, grid, candidates, prior, omega, noise, eject)
    return float(grid[np.argmax(fidelity)])


def optimize_schedule_global(T: int, candidates: list[FockDistribution], prior: Posterior,
                             grid: np.ndarray, omega: float, noise: NoiseParams | None = None,
                             eject: bool = False) -> ScheduleResult:
    """Exhaustive maximization of F_T over grid^T drive-time tuples."""
    grid = _schedule_grid(T, grid)
    if grid.size**T > MAX_GLOBAL_TUPLES:
        raise ResourceError(f"{grid.size}^{T} schedule tuples exceed the exhaustive-search guard")
    # F_T over the grid^T lattice, one grid of last drive times per prefix
    total = np.concatenate([
        _fidelity_over_grid(prefix, grid, candidates, prior, omega, noise, eject)
        for prefix in itertools.product(grid.tolist(), repeat=T - 1)])
    tied = np.nonzero(total >= total.max() - 1e-12)[0]
    # Permutations of one tuple often tie in F_T; report the ordering whose
    # intermediate fidelities F_1, ..., F_{T-1} are largest.
    tuples = [[float(grid[i]) for i in np.unravel_index(k, (grid.size,) * T)] for k in tied]
    best_taus = max(tuples, key=lambda taus: tuple(
        expected_fidelity(taus[: i + 1], candidates, prior, omega, noise, eject)
        for i in range(T - 1)))
    trace = [expected_fidelity(best_taus[: i + 1], candidates, prior, omega, noise, eject)
             for i in range(T)]
    return ScheduleResult(best_taus, trace, "global")

"""Fisher information, detection times, and schedule optimization."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rydqnd import analysis as an
from rydqnd import inference as inf
from rydqnd.errors import DomainError, ResourceError
from rydqnd.records import FockDistribution, MeasurementRecord, NO_RYDBERG, Posterior, RYDBERG

import refs

OMEGA = 2 * math.pi * 2.5e6
GAMMA = 2 * math.pi * 0.3e6


# ---------------------------------------------------------------------------
# closed forms

def test_detection_time_closed_forms():
    for n in range(1, 11):
        assert an.detection_time("noiseless", n, OMEGA) == pytest.approx(
            math.sqrt(n) / OMEGA, rel=1e-15)
        assert an.detection_time("noisy-frequency", n, OMEGA, GAMMA) == pytest.approx(
            GAMMA * n / OMEGA ** 2, rel=1e-15)
        assert an.detection_time("steady-state", n, OMEGA, GAMMA) == pytest.approx(
            n * (1 + n) ** 2 / GAMMA, rel=1e-15)


def test_fisher_closed_forms_reach_one_at_detection_time():
    for regime in an.REGIMES:
        for n in (1, 3, 7):
            t_star = an.detection_time(regime, n, OMEGA, GAMMA)
            assert an.fisher_closed_form(regime, n, t_star, OMEGA, GAMMA) == (
                pytest.approx(1.0, rel=1e-12))


def test_fisher_closed_forms_scale_linearly_or_quadratically_in_time():
    n = 4
    t = 1e-7
    # noiseless information grows quadratically, dissipative regimes linearly
    assert an.fisher_closed_form("noiseless", n, 2 * t, OMEGA) == pytest.approx(
        4 * an.fisher_closed_form("noiseless", n, t, OMEGA), rel=1e-12)
    for regime in ("noisy-frequency", "steady-state"):
        assert an.fisher_closed_form(regime, n, 2 * t, OMEGA, GAMMA) == pytest.approx(
            2 * an.fisher_closed_form(regime, n, t, OMEGA, GAMMA), rel=1e-12)


def test_unknown_regime_rejected():
    with pytest.raises(DomainError):
        an.detection_time("other", 1, OMEGA)
    with pytest.raises(DomainError):
        an.fisher_closed_form("noisy-frequency", 1, 1e-7, OMEGA, 0.0)


@pytest.mark.parametrize("regime", ["noisy-frequency", "steady-state"])
def test_the_dissipative_fisher_forms_need_gamma(regime):
    """gamma defaults to 0, which the dissipative regimes refuse."""
    with pytest.raises(DomainError, match="requires gamma > 0"):
        an.fisher_closed_form(regime, 2, 1e-7, OMEGA)


@pytest.mark.parametrize("t", [math.nan, math.inf, -1e-7])
def test_fisher_rejects_times_that_are_not_finite_and_non_negative(t):
    with pytest.raises(DomainError):
        an.fisher_closed_form("noiseless", 2, t, OMEGA)


@pytest.mark.parametrize("n", range(1, 11))
def test_numeric_fisher_matches_noiseless_closed_form(n):
    t = 0.5 * math.sqrt(n) / OMEGA
    numeric = refs.fisher_numeric(
        lambda tt, nn: math.cos(math.sqrt(nn) * OMEGA * tt) ** 2,
        lambda tt, nn: math.sin(math.sqrt(nn) * OMEGA * tt) ** 2,
        n, t)
    closed = an.fisher_closed_form("noiseless", n, t, OMEGA)
    assert numeric == pytest.approx(closed, rel=1e-2)


def test_steady_state_populations():
    for n in (1, 2, 5, 9):
        p_s, p_r = an.steady_state_populations(n)
        assert p_s == pytest.approx(1.0 / (n + 1), rel=1e-15)
        assert p_r == pytest.approx(n / (n + 1), rel=1e-15)
        assert p_s + p_r == pytest.approx(1.0, rel=1e-15)


# ---------------------------------------------------------------------------
# expected identification fidelity and schedule optimization

def _two_candidates():
    c1 = FockDistribution(np.array([0.0, 0.5, 0.5]))
    c2 = FockDistribution.delta(2, 2)
    return [c1, c2], Posterior.uniform(2)


def test_expected_fidelity_bounds_and_growth():
    cands, prior = _two_candidates()
    omega = 1.0
    f1 = an.expected_fidelity([0.7], cands, prior, omega)
    f2 = an.expected_fidelity([0.7, 0.9], cands, prior, omega)
    assert 0.5 <= f1 <= 1.0
    assert f2 >= f1 - 1e-12


def test_expected_fidelity_empty_schedule_is_prior_best_guess():
    cands, prior = _two_candidates()
    assert an.expected_fidelity([], cands, prior, 1.0) == pytest.approx(0.5)


def test_expected_fidelity_of_one_candidate_is_one():
    cands = [FockDistribution(np.array([0.0, 0.5, 0.5]))]
    assert an.expected_fidelity([0.7, 0.9], cands, Posterior.uniform(1), 1.0) == 1.0


def test_local_optimizer_is_greedy_prefix_of_itself():
    cands, prior = _two_candidates()
    grid = an.default_tau_grid(1.0, 60)
    r1 = an.optimize_schedule_local(1, cands, prior, grid, 1.0)
    r2 = an.optimize_schedule_local(2, cands, prior, grid, 1.0)
    assert r2.taus[0] == r1.taus[0]
    assert r2.fidelity_trace[0] == pytest.approx(r1.fidelity_trace[0], abs=1e-12)


def test_global_optimizer_never_loses_to_local():
    cands, prior = _two_candidates()
    grid = an.default_tau_grid(1.0, 60)
    local = an.optimize_schedule_local(2, cands, prior, grid, 1.0)
    glob = an.optimize_schedule_global(2, cands, prior, grid, 1.0)
    assert glob.fidelity_trace[-1] >= local.fidelity_trace[-1] - 1e-12


def test_global_optimizer_agrees_with_loop_fallback_under_noise():
    from rydqnd.inference import NoiseParams
    cands, prior = _two_candidates()
    grid = np.linspace(0.3, 2.4, 8)
    noise = NoiseParams(gamma=0.1, tau_eit=0.2, N=4)
    quiet = an.optimize_schedule_global(2, cands, prior, grid, 1.0)
    noisy = an.optimize_schedule_global(2, cands, prior, grid, 1.0, noise)
    assert quiet.strategy == noisy.strategy == "global"
    assert len(noisy.taus) == 2
    assert 0.0 < noisy.fidelity_trace[-1] <= 1.0


def test_toy_problem_reproduction():
    cands, prior = an.appendix_toy_candidates()
    omega = 1.0
    grid = an.default_tau_grid(omega)
    local = an.optimize_schedule_local(2, cands, prior, grid, omega)
    glob = an.optimize_schedule_global(2, cands, prior, grid, omega)
    assert 100 * local.fidelity_trace[0] == pytest.approx(96.59, abs=0.10)
    assert 100 * local.fidelity_trace[1] == pytest.approx(99.84, abs=0.10)
    assert 100 * glob.fidelity_trace[0] == pytest.approx(96.52, abs=0.10)
    assert 100 * glob.fidelity_trace[1] == pytest.approx(99.89, abs=0.10)
    # crossover: greedy wins the first cycle, global the second
    assert local.fidelity_trace[0] > glob.fidelity_trace[0]
    assert glob.fidelity_trace[1] > local.fidelity_trace[1]


def test_enumeration_guards():
    cands, prior = _two_candidates()
    with pytest.raises(ResourceError):
        an.expected_fidelity([0.1] * (an.MAX_ENUMERATED_CYCLES + 1), cands, prior, 1.0)
    big_grid = np.linspace(0.1, 1.0, 2000)
    with pytest.raises(ResourceError):
        an.optimize_schedule_global(2, cands, prior, big_grid, 1.0)


_GRID_ENTRIES = {
    "optimize_schedule_local": lambda grid: an.optimize_schedule_local(
        2, *_two_candidates(), grid, 1.0),
    "optimize_schedule_global": lambda grid: an.optimize_schedule_global(
        2, *_two_candidates(), grid, 1.0),
    "greedy_next_tau": lambda grid: an.greedy_next_tau([0.3], *_two_candidates(), grid, 1.0),
    "greedy_next_tau, noisy": lambda grid: an.greedy_next_tau(
        [0.3], *_two_candidates(), grid, 1.0, inf.NoiseParams(0.1, 0.2, 4)),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("grid, message", [
    (np.array([]), "tau grid must be non-empty"),
    (np.array([[0.1, 0.2]]), r"tau grid must be one-dimensional, got shape \(1, 2\)"),
], ids=["empty", "2-d"])
@pytest.mark.parametrize("entry", sorted(_GRID_ENTRIES))
def test_every_schedule_optimiser_checks_its_grid_by_one_rule(entry, grid, message):
    """The greedy step takes the optimisers' grid rule: an empty grid was a
    ZeroDivisionError there, a 2-d one an IndexError."""
    with pytest.raises(DomainError, match=message):
        _GRID_ENTRIES[entry](grid)


@pytest.mark.filterwarnings("error")
def test_expected_fidelity_checks_its_last_drive_time_as_a_grid():
    with pytest.raises(DomainError, match=r"one-dimensional, got shape \(1, 2\)"):
        an.expected_fidelity([0.3, [0.1, 0.2]], *_two_candidates(), 1.0)


def test_default_tau_grid_excludes_zero():
    grid = an.default_tau_grid(2.0, 100)
    assert grid.size == 100
    assert grid[0] > 0.0
    assert grid[-1] == pytest.approx(4 * math.pi / 2.0, rel=1e-12)


# ---------------------------------------------------------------------------
# the outcome-tree kernel against a brute-force sum over records

POOL = [FockDistribution.delta(1, 3), FockDistribution.delta(2, 3), FockDistribution.delta(3, 3),
        FockDistribution(np.array([0.0, 0.5, 0.3, 0.2])),
        FockDistribution(np.array([0.2, 0.0, 0.5, 0.3]))]


@st.composite
def fidelity_cases(draw, max_cycles):
    """2-3 candidates (mixtures and vacuum weight included), a non-uniform prior,
    drive times, noiseless or noisy (N 3-5) dynamics, and ejection on or off."""
    cands = draw(st.lists(st.sampled_from(POOL), min_size=2, max_size=3, unique_by=id))
    raw = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=len(cands),
                                 max_size=len(cands))))
    noise = None
    if draw(st.booleans()):
        noise = inf.NoiseParams(draw(st.floats(0.05, 1.0)), draw(st.floats(0.0, 0.5)),
                                draw(st.integers(3, 5)))
    taus = draw(st.lists(st.floats(0.05, 2.0), max_size=max_cycles))
    return taus, cands, Posterior(raw / raw.sum()), noise, draw(st.booleans())


def _brute_force_fidelity(taus, cands, prior, noise, eject):
    total = 0.0
    for outcomes in itertools.product((NO_RYDBERG, RYDBERG), repeat=len(taus)):
        record = MeasurementRecord(list(zip(taus, outcomes)))
        total += max(w * refs.marginal_likelihood(record, c, 1.0, noise, eject)
                     for c, w in zip(cands, prior.weights))
    return total


@given(fidelity_cases(max_cycles=4))
def test_expected_fidelity_matches_brute_force_sum_over_records(case):
    taus, cands, prior, noise, eject = case
    assert an.expected_fidelity(taus, cands, prior, 1.0, noise, eject) == pytest.approx(
        _brute_force_fidelity(taus, cands, prior, noise, eject), rel=0, abs=1e-12)


@given(fidelity_cases(max_cycles=3), st.lists(st.floats(0.05, 2.0), min_size=1, max_size=5))
def test_grid_entries_are_expected_fidelities(case, grid):
    prefix, cands, prior, noise, eject = case
    vals = an._fidelity_over_grid(prefix, np.array(grid), cands, prior, 1.0, noise, eject)
    expect = [an.expected_fidelity(prefix + [tau], cands, prior, 1.0, noise, eject)
              for tau in grid]
    assert np.allclose(vals, expect, rtol=0, atol=1e-12)


@given(st.lists(st.floats(0.05, 2.0), max_size=5), st.booleans())
def test_noiseless_tree_leaves_are_the_likelihoods_of_their_records(taus, eject):
    """Leaf r of the tree is the record whose outcomes are the bits of r, the
    first outcome the highest bit; and the next outcome's table, repeated or
    changed, sums to 1 for every photon shift of the leaves."""
    ns = [0, 1, 2, 3]
    like, tree = an._outcome_tree(taus, ns, 1.0, None, eject)
    assert like.shape == (2 ** len(taus), len(ns))
    for r, log_l in enumerate(tree.log_l):
        bits = [(r >> (len(taus) - 1 - t)) & 1 for t in range(len(taus))]
        record = MeasurementRecord([(tau, RYDBERG if bit else NO_RYDBERG)
                                    for tau, bit in zip(taus, bits)])
        table = inf._log_likelihood_table(record, ns, 1.0, None, eject)
        np.testing.assert_allclose(log_l, table[-1], rtol=1e-12, atol=0)
    grid = np.array([0.0, 0.3, 1.7, 40.0])
    step = tree.grid_reader(grid)()
    assert step.shape[1:] == (len(ns), 2 * grid.size)
    assert step.shape[0] == (like.shape[0] if eject and taus else 1)  # one shared shift
    np.testing.assert_allclose(step.reshape(-1, len(ns), 2, grid.size).sum(axis=2), 1.0,
                               rtol=0, atol=1e-15)


def test_grid_step_over_many_chunks_of_leaves():
    # 2^9 leaves times an 800-point grid do not fit in one chunk
    cands, prior = POOL[:3], Posterior(np.array([0.5, 0.3, 0.2]))
    prefix = [0.3 + 0.17 * k for k in range(9)]
    grid = an.default_tau_grid(1.0)
    vals = an._fidelity_over_grid(prefix, grid, cands, prior, 1.0, None)
    for i in (0, 123, 799):
        assert vals[i] == pytest.approx(
            an.expected_fidelity(prefix + [grid[i]], cands, prior, 1.0), rel=0, abs=1e-12)


def test_greedy_step_past_the_enumeration_guard_raises_at_once():
    cands, prior = _two_candidates()
    grid = an.default_tau_grid(1.0)
    noise = inf.NoiseParams(gamma=0.1, tau_eit=0.2, N=4)
    for quiet_or_noisy in (None, noise):
        with pytest.raises(ResourceError):
            an.greedy_next_tau([0.3] * an.MAX_ENUMERATED_CYCLES, cands, prior, grid, 1.0,
                               quiet_or_noisy)


@pytest.mark.parametrize("optimize", [an.optimize_schedule_local, an.optimize_schedule_global])
@pytest.mark.parametrize("T", [0, -1])
def test_optimizers_reject_empty_schedules(optimize, T):
    cands, prior = _two_candidates()
    with pytest.raises(DomainError):
        optimize(T, cands, prior, an.default_tau_grid(1.0, 10), 1.0)


@pytest.mark.parametrize("points", [0, -5])
def test_default_tau_grid_needs_a_point(points):
    with pytest.raises(DomainError):
        an.default_tau_grid(1.0, points)

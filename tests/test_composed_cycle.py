"""One operator per noisy cycle, K(tau) = W(tau_EIT) U(tau), against the drive and the
window applied one after the other.

Both noisy holders advance a cycle with the composed operator: the likelihood
holder `inference.NoisyLikelihoods` as (W V) e^{lam tau} V^-1 on its padded j = 0
rows, and `dynamics.BlockBatch` as one block-diagonal product per sector group (a
shared drive time, but in a large sector) or one per block (each row's own).  The
reference is the one-state chain that drives (`evolve_blocks`) and then waits out the
window with the drive off, before `project_blocks` and `eject_block`.  The two differ
only in rounding: every outcome probability and block coefficient agrees within 1e-14
while each outcome so far had probability 0.05 or more (a conditional state divides
rounding by its outcome's probability), through drive times of 0, no window (K = U),
blocks without an eigenbasis (`expm`) and ejections down several counts; a
2,000-example run of each property saw at most 3.3e-16.  A drive time or a window
past its block's horizon is still refused by its own `ResourceError`.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rydqnd import dynamics as dyn
from rydqnd import inference as inf
from rydqnd.errors import ResourceError
from rydqnd.records import NO_RYDBERG, RYDBERG
from rydqnd.symbasis import sector

OMEGA = 1.0
BOUND = 1e-14
# At n = 1 the j = 0 generator has no well-conditioned eigenbasis at gamma = 0 and at the
# exceptional point gamma = 8 omega: those blocks take the expm path.
NO_EIGENBASIS = (0.0, 8.0)


def _drive_then_window(blocks, tau, gamma, tau_eit):
    blocks = dyn.evolve_blocks(blocks, tau, OMEGA, gamma)
    return dyn.evolve_blocks(blocks, tau_eit, 0.0, gamma, drive_on=False) if tau_eit else blocks


@st.composite
def records(draw):
    """(N, gamma, tau_eit, eject, rows): up to 3 records of one length <= 10, with drive
    times of 0 among them."""
    N = draw(st.integers(1, 6))
    gamma = draw(st.sampled_from(NO_EIGENBASIS) | st.floats(0.1, 3.0))
    tau_eit = draw(st.sampled_from([0.0]) | st.floats(0.05, 0.7))
    T = draw(st.integers(1, 10))
    cycle = st.tuples(st.sampled_from([0.0]) | st.floats(0.05, 2.0), st.booleans())
    rows = draw(st.lists(st.lists(cycle, min_size=T, max_size=T), min_size=1, max_size=3))
    return N, gamma, tau_eit, draw(st.booleans()), rows


def _chain(n, N, gamma, tau_eit, eject, cycles):
    """Pr(outcome | past, n) of every cycle and the last j = 0 block, driven then windowed,
    up to the first outcome rarer than 0.05 (its conditional state divides rounding by its
    probability; the block is then None)."""
    blocks, probs = dyn.symmetric_state_blocks(n, N)[:1], []
    for tau, rydberg in cycles:
        blocks = _drive_then_window(blocks, tau, gamma, tau_eit)
        p_s, p_r = dyn.sector_probabilities(blocks)
        probs.append(p_r if rydberg else p_s)
        if probs[-1] < 0.05:
            return probs, None
        _, blocks = dyn.project_blocks(blocks, RYDBERG if rydberg else NO_RYDBERG)
        if eject and rydberg:
            blocks = dyn.eject_block(blocks)[:1]
    return probs, blocks[0]


@settings(max_examples=80)
@given(records())
@example((3, 0.4, 0.3, True, [[(0.9, True), (0.0, False), (1.1, True), (0.7, True)]] * 2))
@example((1, 0.0, 0.3, False, [[(0.5, False), (0.0, False), (0.8, True)]]))  # expm, tau 0
@example((1, 8.0, 0.0, False, [[(0.6, True), (0.6, True), (1.3, False)]]))  # expm, K = U
@example((4, 0.3, 0.2, True, [[(1.4, True), (1.2, True), (1.5, True), (0.9, False)]]))
def test_the_likelihood_holder_composes_the_cycle(batch):
    """Every candidate's outcome probability in every cycle and its final j = 0 state."""
    N, gamma, tau_eit, eject, rows = batch
    ns = list(range(N + 1))
    holder = inf.NoisyLikelihoods(ns, OMEGA, inf.NoiseParams(gamma, tau_eit, N), eject,
                                  shift=[0] * len(rows))
    steps = np.exp([holder.update(np.array([row[t][0] for row in rows]),
                                  np.array([row[t][1] for row in rows]))
                    for t in range(len(rows[0]))])
    for r, row in enumerate(rows):
        for i, n in enumerate(ns):
            if n < sum(ryd for _, ryd in row[:-1]) * eject:
                continue  # ejected past its photons: the chain has no state to drive
            probs, block = _chain(n, N, gamma, tau_eit, eject, row)
            assert np.abs(steps[:len(probs), r, i] - probs).max() <= BOUND
            if block is not None:
                assert np.abs(holder.x[r, i, :block.x.size] - block.x).max() <= BOUND


@st.composite
def batches(draw):
    """(N, ns, gamma, tau_eit, eject, shared, cycles): up to 4 rows, a cycle's drive
    times one float or each row's own, 0 among them, and each row's draw."""
    N = draw(st.integers(1, 5))
    ns = draw(st.lists(st.integers(0, N), min_size=1, max_size=4))
    gamma = draw(st.sampled_from(NO_EIGENBASIS) | st.floats(0.1, 3.0))
    tau_eit = draw(st.sampled_from([0.0]) | st.floats(0.05, 0.7))
    shared, tau = draw(st.booleans()), st.sampled_from([0.0]) | st.floats(0.05, 2.0)
    cycles = []
    for _ in range(draw(st.integers(1, 5))):
        taus = draw(tau) if shared else draw(st.lists(tau, min_size=len(ns), max_size=len(ns)))
        cycles.append((taus, draw(st.lists(st.floats(0.05, 0.95), min_size=len(ns),
                                           max_size=len(ns)))))
    return N, ns, gamma, tau_eit, draw(st.booleans()), shared, cycles


@settings(max_examples=80)
@given(batches())
@example((3, [1, 2, 3], 0.4, 0.3, True, True, [(0.7, [0.9, 0.9, 0.9]), (0.0, [0.5] * 3),
                                                (1.2, [0.9, 0.9, 0.9])]))
@example((2, [1, 2, 1], 8.0, 0.2, True, False, [([0.6, 0.0, 1.1], [0.9, 0.5, 0.2])] * 3))
@example((1, [1, 1], 0.0, 0.0, False, False, [([0.4, 1.3], [0.3, 0.7])] * 2))  # K = U, expm
def test_the_block_batch_composes_the_cycle(batch):
    """Every row's outcome, outcome probability and block coefficients after each cycle,
    a shared drive time through one block-diagonal product, each row's own per block."""
    N, ns, gamma, tau_eit, eject, shared, cycles = batch
    holder = dyn.BlockBatch(ns, OMEGA, inf.NoiseParams(gamma, tau_eit, N), eject)
    rows = [dyn.symmetric_state_blocks(n, N) for n in ns]
    for taus, draws in cycles:
        holder.drive(taus if shared else np.array(taus))
        each = [taus] * len(ns) if shared else taus
        rows = [_drive_then_window(blocks, tau, gamma, tau_eit) for blocks, tau in zip(rows, each)]
        p_r = np.array([dyn.sector_probabilities(blocks)[1] for blocks in rows])
        if (np.abs(np.array(draws) - p_r) < 1e-9).any():
            return  # a draw on an outcome's edge could pick another outcome on either side
        rydberg, probs, _ = holder.measure(np.array(draws))
        expected = [dyn.measure_block(blocks, 0.0, gamma, d) for blocks, d in zip(rows, draws)]
        assert rydberg.tolist() == [outcome == RYDBERG for outcome, _, _ in expected]
        assert np.abs(probs - [p for _, _, p in expected]).max() <= BOUND
        rows = [dyn.eject_block(blocks) if eject and outcome == RYDBERG else blocks
                for outcome, blocks, _ in expected]
        for r, blocks in enumerate(rows):
            n, N_r = int(holder.n[r]), int(holder.N[r])
            assert (n, N_r) == (blocks[0].n, blocks[0].N)
            _, x = dyn._side_by_side(blocks)
            assert np.abs(holder.x[r, :x.shape[1]] - x[0]).max() <= BOUND


def test_a_large_sector_keeps_its_blocks_apart():
    """A shared drive time's cycle is one block-diagonal stack while its D^2 entries stay
    within `dynamics._DIAGONAL_LIMIT` times the blocks' own, and each block's own stack past
    that (a traced block-diagonal cycle at n = 500 of N = 1000 would hold gigabytes); either
    way a batch's rows follow the drive-then-window chain."""
    steps, ends = (0.35, 0.7), (0.15, 0.3)  # four points a cycle
    for (n, N), diagonal in (((4, 10), True), ((10, 20), False)):
        sec = sector(n, N)
        ops, spans = dyn._cycle(n, N, OMEGA, 0.4, 0.7, steps, ends)
        assert len(ops) == (1 if diagonal else len(sec.blocks))
        assert list(spans) == ([slice(None)] if diagonal else list(sec.spans))
        assert sum(op.size for op in ops) <= 4 * dyn._DIAGONAL_LIMIT * sum(
            blk.dim ** 2 for blk in sec.blocks)
        holder = dyn.BlockBatch([n, n], OMEGA, inf.NoiseParams(0.4, 0.3, N))
        holder.drive(0.7)
        _, x = dyn._side_by_side(_drive_then_window(dyn.symmetric_state_blocks(n, N), 0.7, 0.4, 0.3))
        assert np.abs(holder.x[:, :x.shape[1]] - x).max() <= BOUND


def test_a_drive_time_or_a_window_past_the_horizon_is_refused_by_name():
    """Both holders refuse a drive time past the block's horizon as a drive time, and a
    window past it as the measurement window, whichever way the cycle is composed."""
    omega, gamma, N = 2 * math.pi * 2.5e6, 2 * math.pi * 0.3e6, 10
    horizon = dyn._eigensystem(2, N, 0, omega, gamma)[1]
    long, noise = 2 * horizon, inf.NoiseParams(gamma, 0.3e-6, N)
    for taus in (long, np.array([0.2e-6, long])):
        with pytest.raises(ResourceError, match="^drive time .* too long"):
            dyn.BlockBatch([2, 2], omega, noise).drive(taus)
    with pytest.raises(ResourceError, match="^drive time .* too long"):
        inf.NoisyLikelihoods([2], omega, noise).update(np.array([long]), np.array([False]))
    window = inf.NoiseParams(gamma, 2 * dyn._eigensystem(2, N, 0, 0.0, gamma)[1], N)
    for taus in (0.2e-6, np.array([0.2e-6, 0.0])):
        with pytest.raises(ResourceError, match="^measurement window .* too long"):
            dyn.BlockBatch([2, 2], omega, window).drive(taus)
    with pytest.raises(ResourceError, match="^measurement window .* too long"):
        inf.NoisyLikelihoods([2], omega, window)

"""The array kernel behind noisy likelihoods, against the one-state block chain.

`inference.NoisyLikelihoods` advances every (record, photon number) entry of
a batch with stacked matrix products.  The reference here is the explicit
chain of one-state kernels per entry: the drive and the measurement window as
one operator per cycle, K = W U(tau), composed as the holder composes it
(`refs.cycle_blocks`), then `project_blocks`, and `eject_block` after a
Rydberg outcome with ejection.  The two agree to the bit.  The renewal table behind `posterior_trace` and the spectral readout
behind the greedy step agree with them to 1e-12.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rydqnd import dynamics as dyn
from rydqnd import engine as eng
from rydqnd import inference as inf
from rydqnd.errors import ImpossibleOutcomeError, InconsistentRecordError
from rydqnd.records import FockDistribution, MeasurementRecord, NO_RYDBERG, Posterior, RYDBERG

import refs

OMEGA = 1.0
# At n = 1 the j = 0 generator has no well-conditioned eigenbasis at gamma = 0
# and at the exceptional point gamma = 8 omega: those take the expm path.
NO_EIGENBASIS = (0.0, 8.0)


def _chain(n, N, gamma, tau_eit, eject, cycles):
    """log Pr(prefix | n) after every cycle, and the last j = 0 block, by the
    one-state kernels of `dynamics`."""
    blocks = dyn.symmetric_state_blocks(n, N)[:1]
    log_l, logs = 0.0, []
    for tau, rydberg in cycles:
        if log_l > -math.inf:
            blocks = refs.cycle_blocks(blocks, tau, OMEGA, gamma, tau_eit)
            try:
                p, blocks = dyn.project_blocks(blocks, RYDBERG if rydberg else NO_RYDBERG)
            except ImpossibleOutcomeError:
                log_l = -math.inf
            else:
                if eject and rydberg:
                    blocks = dyn.eject_block(blocks)[:1]
                log_l += float(np.log(p))
        logs.append(log_l)
    return logs, blocks[0]


@st.composite
def batches(draw):
    """(N, gamma, tau_eit, eject, rows): up to 3 records of one length <= 12."""
    N = draw(st.integers(1, 6))
    gamma = draw(st.sampled_from(NO_EIGENBASIS) | st.floats(0.1, 3.0))
    tau_eit = draw(st.sampled_from([0.0]) | st.floats(0.05, 0.7))
    eject = draw(st.booleans())
    T = draw(st.integers(1, 12))
    cycle = st.tuples(st.floats(0.05, 2.0), st.booleans())
    rows = draw(st.lists(st.lists(cycle, min_size=T, max_size=T), min_size=1, max_size=3))
    return N, gamma, tau_eit, eject, rows


@given(batches())
@example((2, 0.3, 0.2, True, [[(0.9, True), (1.1, True), (0.4, False)]]))  # down to the vacuum
@example((3, 8.0, 0.0, False, [[(0.7, True), (0.5, True), (1.3, False)],
                               [(0.2, False), (1.9, True), (0.6, True)]]))
@example((1, 0.0, 0.3, False, [[(0.5, False), (0.8, True)]]))
@example((1, 0.0, 0.0, True, [[(0.5, True), (0.8, True)]]))  # more ejections than photons
# every row shares each tau, which repeats, changes and comes back, before and after
# the rows eject: each shift's held stack is built, reused and rebuilt
@example((3, 0.4, 0.2, True, [[(0.5, True), (0.5, False), (0.9, False), (0.5, False), (0.5, True),
                               (0.5, False)],
                              [(0.5, True), (0.5, False), (0.9, False), (0.5, False), (0.5, True),
                               (0.5, True)]]))
@example((2, 0.0, 0.3, True, [[(0.7, True), (0.7, False), (1.3, False), (0.7, False), (0.7, True)],
                              [(0.7, True), (0.7, False), (1.3, False), (0.7, False), (0.7, False)]]))
@example((2, 8.0, 0.0, False, [[(0.6, False), (0.6, True), (1.1, True), (0.6, True), (0.6, False)],
                               [(0.6, True), (0.6, True), (1.1, False), (0.6, False), (0.6, True)]]))
def test_holder_matches_the_one_state_chain_to_the_bit(batch):
    """Every candidate 0..N of every row: the same log-likelihood after every
    cycle and the same final state, bit for bit; a candidate that meets an
    impossible outcome stays at -inf (n = 0 at its first Rydberg outcome)."""
    N, gamma, tau_eit, eject, rows = batch
    noise = inf.NoiseParams(gamma, tau_eit, N)
    ns = list(range(N + 1))
    holder = inf.NoisyLikelihoods(ns, OMEGA, noise, eject, shift=[0] * len(rows))
    chains = [[_chain(n, N, gamma, tau_eit, eject, row) for n in ns] for row in rows]
    for t in range(len(rows[0])):
        holder.update(np.array([row[t][0] for row in rows]),
                      np.array([row[t][1] for row in rows]))
        expected = [[logs[t] for logs, _ in row] for row in chains]
        assert holder.log_l.tolist() == expected, f"cycle {t}"
    for r, row in enumerate(chains):
        for i, (logs, block) in enumerate(row):
            if logs[-1] > -math.inf:
                assert holder.x[r, i, :block.x.size].tolist() == block.x.tolist()
                assert not holder.x[r, i, block.x.size:].any()


@given(batches())
@example((2, 0.3, 0.2, True, [[(0.9, True), (1.1, True), (0.4, False)]]))
@example((4, 8.0, 0.1, False, [[(0.7, True)] * 6 + [(0.3, False)] + [(1.2, True)] * 3]))
# the runs share each tau, which changes and comes back while runs leave the holder
@example((3, 0.5, 0.2, False, [[(0.6, True), (0.6, True), (0.6, False), (1.1, True), (0.6, True),
                                (0.6, True), (0.6, False), (0.6, True), (1.1, True)]]))
def test_renewal_table_matches_the_holder(batch):
    """The renewal table of a record equals the holder's log-likelihoods after
    every cycle to 1e-12, with the same impossible cycles."""
    N, gamma, tau_eit, eject, rows = batch
    noise = inf.NoiseParams(gamma, tau_eit, N)
    ns = list(range(N + 1))
    for row in rows:
        record = MeasurementRecord([(tau, RYDBERG if ryd else NO_RYDBERG) for tau, ryd in row])
        table = inf._log_likelihood_table(record, ns, OMEGA, noise, eject)
        holder = inf.NoisyLikelihoods(ns, OMEGA, noise, eject)
        assert table[0].tolist() == [0.0] * len(ns)
        for t, (tau, ryd) in enumerate(row, start=1):
            holder.update(np.array([tau]), np.array([ryd]))
            live = holder.log_l[0] > -math.inf
            assert (table[t] > -math.inf).tolist() == live.tolist(), f"cycle {t}"
            assert np.abs(table[t][live] - holder.log_l[0][live]).max(initial=0.0) <= 1e-12


@given(batches(), st.lists(st.floats(0.0, 3.0), min_size=1, max_size=5))
def test_spectral_readout_matches_the_windowed_chain(batch, grid):
    """Pr(next outcome | record, n) over a grid of drive times, read off the
    eigensystem, equals the sector probabilities after the drive and the
    window to 1e-12; it is zero for a candidate the record ruled out."""
    N, gamma, tau_eit, eject, rows = batch
    noise = inf.NoiseParams(gamma, tau_eit, N)
    ns = list(range(N + 1))
    holder = inf.NoisyLikelihoods(ns, OMEGA, noise, eject, shift=[0] * len(rows))
    for t in range(len(rows[0])):
        holder.update(np.array([row[t][0] for row in rows]),
                      np.array([row[t][1] for row in rows]))
    grid = np.array(grid)
    readout = holder.grid_reader(grid)().reshape(len(rows), len(ns), 2, grid.size)
    for r, row in enumerate(rows):
        for i, n in enumerate(ns):
            logs, block = _chain(n, N, gamma, tau_eit, eject, row)
            for g, tau in enumerate(grid.tolist()):
                if logs[-1] == -math.inf:
                    assert readout[r, i, :, g].tolist() == [0.0, 0.0]
                    continue
                blocks = dyn.evolve_blocks([block], tau, OMEGA, gamma)
                if tau_eit > 0:
                    blocks = dyn.evolve_blocks(blocks, tau_eit, 0.0, gamma, drive_on=False)
                expected = dyn.sector_probabilities(blocks)
                assert readout[r, i, :, g] == pytest.approx(expected, abs=1e-12)


def test_take_splits_rows_like_separate_holders():
    noise = inf.NoiseParams(0.4, 0.2, 4)
    tree = inf.NoisyLikelihoods([1, 2, 3], OMEGA, noise, eject=True)
    tree.update(np.array([0.7]), np.array([True]))
    tree.take(np.array([0, 0]))
    tree.update(np.array([0.5, 0.5]), np.array([False, True]))
    for rydberg, log_l in zip((False, True), tree.log_l):
        lone = inf.NoisyLikelihoods([1, 2, 3], OMEGA, noise, eject=True)
        lone.update(np.array([0.7]), np.array([True]))
        lone.update(np.array([0.5]), np.array([rydberg]))
        assert log_l.tolist() == lone.log_l[0].tolist()


# 40 cycles with Rydberg runs of two and three outcomes; the first five, with
# three Rydberg outcomes, for ejection from at most four photons
_KEYED_ENTRIES = [(0.3 + 0.1 * (t % 7), RYDBERG if t % 10 in (0, 1, 3, 6, 7, 8) else NO_RYDBERG)
                  for t in range(40)]
_KEYED_RUNS = {
    "posterior_trace": lambda noise, eject: inf.posterior_trace(
        MeasurementRecord(_KEYED_ENTRIES[:5] if eject else _KEYED_ENTRIES),
        [FockDistribution.delta(n, 4) for n in (1, 2, 3, 4)], Posterior.uniform(4), OMEGA,
        noise, eject),
    "run_batch": lambda noise, eject: eng.run_batch(3, eng.ProtocolParams(
        omega=OMEGA, gamma=noise.gamma, tau_eit=noise.tau_eit, N=noise.N, n_max=4,
        mode=eng.NOISY_FIXED_N, schedule=eng.Schedule.fixed(0.6), seed=5, max_cycles=30,
        threshold=1.1, ejection_enabled=eject), 3),
}


@pytest.mark.parametrize("eject", [False, True])
@pytest.mark.parametrize("run", sorted(_KEYED_RUNS))
def test_the_holder_builds_each_shift_rows_once(monkeypatch, run, eject):
    """Without ejection no entry leaves its sector, so the holder builds one
    `_shift_rows` however many cycles it runs; with ejection, at most one per
    ejection count a live row reaches or ejects into."""
    reached, update = set(), inf.NoisyLikelihoods.update
    monkeypatch.setattr(inf.NoisyLikelihoods, "update", lambda self, taus, ryd: (
        reached.update(self.shift.tolist(), (self.shift + ryd * self.eject).tolist())
        or update(self, taus, ryd)))
    inf._shift_rows.cache_clear()
    _KEYED_RUNS[run](inf.NoiseParams(0.3, 0.2, 6), eject)
    builds = inf._shift_rows.cache_info().misses
    if eject:
        assert max(reached) >= 1 and 1 <= builds <= len(reached)
    else:
        assert reached == {0} and builds == 1


def test_the_ejecting_holder_builds_one_shift_per_ejection_count_it_reaches():
    """Each ejection builds the rows of the next shift once, in the update that
    first moves an entry there, until no live entry is left to eject: photon
    number ns[i] after s ejections is row i of shift s."""
    noise = inf.NoiseParams(0.3, 0.2, 6)
    inf._shift_rows.cache_clear()
    holder = inf.NoisyLikelihoods([1, 2, 3, 4], OMEGA, noise, eject=True)
    builds = [inf._shift_rows.cache_info().misses]
    for _ in range(6):
        holder.update(np.array([0.7]), np.array([True]))
        builds.append(inf._shift_rows.cache_info().misses)
    assert builds == [1, 2, 3, 4, 5, 5, 5] and holder.shift.tolist() == [6]
    for s in range(5):
        rows = inf._shift_rows((1, 2, 3, 4), 6, s, OMEGA, 0.3, 0.2)
        assert rows["n"].tolist() == [max(n - s, 0) for n in (1, 2, 3, 4)]


def test_a_holder_started_past_ejections_builds_only_its_own_shift():
    """Rows that start after two ejections read the rows of shift 2 alone: no
    smaller shift is built, and none larger before an ejection reaches it."""
    inf._shift_rows.cache_clear()
    holder = inf.NoisyLikelihoods([1, 2, 3, 4], OMEGA, inf.NoiseParams(0.3, 0.2, 6), eject=True,
                                  shift=(2, 2))
    assert holder.log_l.tolist() == [[-math.inf, 0.0, 0.0, 0.0]] * 2
    assert inf._shift_rows.cache_info().misses == 1
    inf._shift_rows((1, 2, 3, 4), 6, 2, OMEGA, 0.3, 0.2)
    assert inf._shift_rows.cache_info().misses == 1


def test_zero_drive_cannot_give_a_rydberg_outcome():
    """A record entry with tau = 0 after a NoRydberg outcome (or at the start)
    leaves every candidate's fresh state in ss exactly: a Rydberg outcome there
    has likelihood 0 under every candidate, and a NoRydberg outcome changes the
    posterior only by rounding."""
    cands = [FockDistribution.delta(n, 3) for n in (1, 2, 3)]
    noise = inf.NoiseParams(gamma=0.3, tau_eit=0.4, N=10)
    prior = Posterior.uniform(3)
    with pytest.raises(InconsistentRecordError, match="from cycle 2"):
        inf.posterior_trace(MeasurementRecord([(1.1, NO_RYDBERG), (0.0, RYDBERG)]), cands,
                            prior, OMEGA, noise)
    trace = inf.posterior_trace(MeasurementRecord([(0.0, NO_RYDBERG), (1.1, RYDBERG)]), cands,
                                prior, OMEGA, noise)
    np.testing.assert_allclose(trace[1], prior.weights, rtol=0, atol=1e-15)
    alone = inf.posterior_trace(MeasurementRecord([(1.1, RYDBERG)]), cands, prior, OMEGA, noise)
    np.testing.assert_allclose(trace[2], alone[1], rtol=0, atol=1e-15)

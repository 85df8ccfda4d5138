"""The noisy engine's array holder, `dynamics.BlockBatch`, against the one-state chain.

Each row of the holder is a noisy fixed-n trajectory with an ideal noiseless
twin.  The reference is the explicit chain of one-state kernels per row:
`evolve_blocks` and `evolve_pure` for the drive and its traced sub-steps,
`evolve_blocks` with the drive off for the measurement window, `measure_block`
for the outcome, the twin collapsed onto exactly |S_n> or |R_n>,
`eject_block` and a fresh twin after a Rydberg outcome with ejection, and
`retrieval_fidelity` against the twin.  The two agree to the bit.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rydqnd import dynamics as dyn
from rydqnd import engine as eng
from rydqnd import inference as inf
from rydqnd.errors import ImpossibleOutcomeError, PreconditionError
from rydqnd.records import RYDBERG, FockDistribution
from rydqnd.symbasis import sector

OMEGA = 1.0
# Six j = 0 blocks at gamma / omega just beside an exceptional point, where the
# eigenvector matrix of the drive generator has cond(V) = 990, just inside
# `dynamics._EIG_COND_LIMIT`: (n, N, gamma / omega).
NEAR_EXCEPTIONAL = [(1, 10, 7.999983675151847), (1, 10, 8.000016324881468),
                    (2, 10, 9.203220384188413), (2, 10, 9.203274153428714),
                    (3, 10, 10.223818580454845), (3, 10, 10.223893618431836)]


class _Row:
    """One trajectory advanced by the one-state kernels."""

    def __init__(self, n, N, gamma, window):
        self.blocks = dyn.symmetric_state_blocks(n, N)
        self.twin = self._fresh(n)
        self.gamma, self.window = gamma, window

    @staticmethod
    def _fresh(n):
        if n == 0:
            return None
        amps = np.zeros(n + 1, dtype=complex)
        amps[n] = 1.0
        return dyn.PureCollectiveState.from_stored_amplitudes(amps)

    @staticmethod
    def read(blocks, twin):
        p_s, p_r = dyn.sector_probabilities(blocks)
        return p_s, p_r, 1.0 if twin is None else dyn.retrieval_fidelity(blocks, twin)

    def driven(self, tau):
        twin = None if self.twin is None else dyn.evolve_pure(self.twin, tau, OMEGA)
        return dyn.evolve_blocks(self.blocks, tau, OMEGA, self.gamma), twin

    def in_window(self, dt):
        return dyn.evolve_blocks(self.blocks, dt, 0.0, self.gamma, drive_on=False), self.twin

    def measure(self, draw, eject):
        outcome, self.blocks, p = dyn.measure_block(self.blocks, self.window, self.gamma, draw)
        rydberg = outcome == RYDBERG
        if self.twin is not None:
            n, a, b = self.twin.n_max, self.twin.a.copy(), self.twin.b.copy()
            kept, dropped = (b, a) if rydberg else (a, b)
            dropped[:] = 0.0
            kept[n] = 1.0
            self.twin = dyn.PureCollectiveState(a, b)
        if eject and rydberg:
            self.blocks = dyn.eject_block(self.blocks)
            self.twin = self._fresh(self.blocks[0].n)
        return rydberg, p


def _row_blocks(batch, r):
    """The sector of batch row r and its block coefficient vectors; zero past them."""
    n, N, row = int(batch.n[r]), int(batch.N[r]), batch.x[r]
    spans = sector(n, N).spans
    assert not row[spans[-1].stop:].any()
    return n, N, [row[span].tolist() for span in spans]


def _same(batch_out, chain_out):
    assert [x.tolist() for x in batch_out] == [[c[k] for c in chain_out] for k in range(3)]


@st.composite
def runs(draw):
    """(N, ns, gamma, window, eject, points, cycles): up to 5 rows of mixed n;
    a cycle is (drive times, draws, rows leaving after it)."""
    N = draw(st.integers(1, 5))
    ns = draw(st.lists(st.integers(0, N), min_size=1, max_size=5))
    gamma = draw(st.sampled_from([0.0, 8.0]) | st.floats(0.1, 3.0))
    window = draw(st.sampled_from([0.0]) | st.floats(0.05, 0.7))
    eject = draw(st.booleans())
    points = draw(st.sampled_from([0, 2, 3]))
    random_tau = draw(st.booleans())
    cycles = []
    for _ in range(draw(st.integers(1, 6))):
        tau = st.floats(0.0, 2.0)
        taus = (draw(st.lists(tau, min_size=len(ns), max_size=len(ns))) if random_tau
                else [draw(tau)] * len(ns))
        # a draw within ~1e-16 of 0 or 1 could pick an outcome of rounding-noise
        # probability, whose state both sides reject (see the next test)
        draws = draw(st.lists(st.floats(1e-3, 1 - 1e-3), min_size=len(ns), max_size=len(ns)))
        leave = draw(st.lists(st.booleans(), min_size=len(ns), max_size=len(ns)))
        cycles.append((taus, draws, leave))
    return N, ns, gamma, window, eject, points, cycles


@settings(max_examples=60)
@given(runs())
@example((1, [1, 1], 0.3, 0.2, True, 2, [([0.9, 1.4], [0.001, 0.99], [False, False]),
                                         ([0.5, 0.5], [0.5, 0.5], [False, False])]))
@example((3, [1, 2, 0, 3, 1], 8.0, 0.4, True, 3,
          [([0.7] * 5, [0.1, 0.2, 0.3, 0.4, 0.5], [False, True, False, False, False]),
           ([0.7] * 5, [0.001] * 5, [False] * 5),
           ([0.7] * 5, [0.9, 0.9, 0.9, 0.9, 0.9], [False] * 5)]))
@example((2, [2, 1], 0.0, 0.3, False, 0, [([0.4, 1.1], [0.2, 0.7], [False, False])]))
# every row shares each tau, which repeats, changes (to 0 too) and comes back, after rows
# eject and after rows leave: the held block stacks and twin phases are reused and rebuilt
@example((3, [1, 2, 3, 2], 0.5, 0.3, True, 3,
          [([0.6] * 4, [0.3, 0.6, 0.2, 0.9], [False] * 4),
           ([0.6] * 4, [0.5] * 4, [False, False, True, False]),
           ([1.2] * 4, [0.5] * 4, [False] * 4),
           ([0.0] * 4, [0.5] * 4, [False] * 4),
           ([0.6] * 4, [0.5] * 4, [False] * 4),
           ([0.6] * 4, [0.5] * 4, [False] * 4)]))
@example((2, [2, 2, 1], 8.0, 0.0, False, 0,
          [([0.8] * 3, [0.4, 0.6, 0.5], [False] * 3),
           ([0.8] * 3, [0.4, 0.6, 0.5], [True, False, False]),
           ([0.3] * 3, [0.4, 0.6, 0.5], [False] * 3),
           ([0.8] * 3, [0.4, 0.6, 0.5], [False] * 3),
           ([0.8] * 3, [0.4, 0.6, 0.5], [False] * 3)]))
def test_batch_matches_the_one_state_chain_to_the_bit(run):
    """Every row's sector probabilities, fidelities (initial, traced drive and
    window sub-steps, after the collapse), outcomes, outcome probabilities and
    block coefficients equal its one-state chain's, bit for bit, while rows
    eject into other groups (down to the (0, 0) vacuum) and leave the batch
    (in odd cycles before the rows that stay are read).  A traced drive or
    window keeps the state of its last sub-step, and that state is the
    chain's after the whole drive or window.  A traced cycle's reads come
    from `measure`, the collapse's too."""
    N, ns, gamma, window, eject, points, cycles = run
    batch = dyn.BlockBatch(ns, OMEGA, inf.NoiseParams(gamma, window, N), eject, points)
    chains = [_Row(n, N, gamma, window) for n in ns]
    ids = list(range(len(ns)))  # the chain of each batch row
    _same(batch.read(), [_Row.read(c.blocks, c.twin) for c in chains])
    for cycle, (taus, draws, leave) in enumerate(cycles):
        if not ids:
            break
        active = [chains[i] for i in ids]
        taus_now = np.array([taus[i] for i in ids])
        steps = dts = None
        if points:
            driven = np.flatnonzero(taus_now > 0)
            steps = np.array([np.linspace(t / points, t, points)
                              for t in taus_now[driven].tolist()]).reshape(driven.size, points)
            in_drive = [[_Row.read(*active[r].driven(t)) for t in steps[k].tolist()]
                        for k, r in enumerate(driven.tolist())]
        assert batch.drive(taus_now, steps) is None
        for c, t in zip(active, taus_now.tolist()):
            c.blocks, c.twin = c.driven(t)
        if points and window > 0:
            dts = np.linspace(window / points, window, points)
            in_window = [[_Row.read(*c.in_window(dt)) for dt in dts.tolist()] for c in active]
        rydberg, probs, got = batch.measure(np.array([draws[i] for i in ids]))
        assert (got is None) == (steps is None)
        if points:  # the drive's sub-steps, the window's, the collapse
            assert got.shape == (3, len(ids), points + (0 if dts is None else points) + 1)
            got_drive, got_window = got[:, driven, :points], got[:, :, points:-1]
            for k, expected in enumerate(in_drive):
                _same([x[k] for x in got_drive], expected)
        if dts is not None:
            for r, expected in enumerate(in_window):
                _same([x[r] for x in got_window], expected)
        expected = [c.measure(draws[i], eject) for i, c in zip(ids, active)]
        assert rydberg.tolist() == [ryd for ryd, _ in expected]
        assert probs.tolist() == [p for _, p in expected]
        if points:
            _same(got[:, :, -1], [_Row.read(c.blocks, c.twin) for c in active])
        stay = np.array([not leave[i] for i in ids])
        early = cycle % 2 == 1  # the leaving rows go between `measure` and `read`
        if early:
            batch.take(stay)
        read = [c for c, s in zip(active, stay.tolist()) if s or not early]
        _same(batch.read(), [_Row.read(c.blocks, c.twin) for c in read])
        assert batch.fidelity().tolist() == batch.read()[2].tolist()
        for r, c in enumerate(read):
            n, N_r, xs = _row_blocks(batch, r)
            assert (n, N_r) == (c.blocks[0].n, c.blocks[0].N)
            assert xs == [blk.x.tolist() for blk in c.blocks]
        if not early:
            batch.take(stay)
        ids = [i for i, s in zip(ids, stay.tolist()) if s]


@settings(max_examples=60)
@given(st.integers(1, 5).flatmap(lambda N: st.tuples(st.integers(0, N), st.just(N))),
       st.sampled_from([0.0, 0.5, 8.0]), st.lists(st.integers(1, 3), min_size=1, max_size=4),
       st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_a_read_of_rows_together_is_the_reads_of_its_parts(cell, gamma, parts, points, seed):
    """`BlockBatch._read` of states and twins stacked along the rows equals the reads
    of its parts, and of a (rows, points, D) grid each sub-step read alone, bit for
    bit: `_populations` is elementwise and `_overlaps` one product per row.  So a
    traced cycle's drive, window and collapsed rows can be read in one call."""
    (n, N), rng = cell, np.random.default_rng(seed)
    sec, rows = sector(n, N), sum(parts)
    taus = rng.uniform(0.0, 2.0, (rows, points))
    props = [dyn._build_propagators(n, N, blk.j, OMEGA, gamma, taus) for blk in sec.blocks]
    grid = dyn._advance(sec.dyads[:1].astype(complex)[None], props, sec.spans, sec.traces)
    theta, phi = rng.uniform(0.0, 2 * math.pi, (2, rows, points))
    a, b = np.cos(theta) + 0j, np.sin(theta) * np.exp(1j * phi)
    whole = dyn.BlockBatch._read(sec, grid, a, b)
    assert whole.shape == (3, rows, points)
    for k in range(points):
        assert dyn.BlockBatch._read(sec, grid[:, k], a[:, k], b[:, k]).tobytes() == \
            whole[:, :, k].copy().tobytes()
    ends = np.cumsum(parts)[:-1]
    one = [dyn.BlockBatch._read(sec, *part)
           for part in zip(*(np.split(w[:, -1], ends) for w in (grid, a, b)))]
    assert np.concatenate(one, axis=1).tobytes() == whole[:, :, -1].copy().tobytes()


def _raised(call):
    try:
        call()
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc)
    return None


def test_batch_raises_what_the_chain_raises():
    """Where the one-state chain fails, the batch fails with the same error,
    and where it goes on, so does the batch: a draw of 0 after a zero drive
    time; a state of zero trace, which has no possible outcome; an ejection
    from a state with weight left in ss."""
    batch, row = dyn.BlockBatch([1], OMEGA, inf.NoiseParams(0.125, 0.0, 1)), _Row(1, 1, 0.125, 0.0)
    batch.drive(np.zeros(1))
    row.blocks, row.twin = row.driven(0.0)
    batch.measure(np.zeros(1))
    row.measure(0.0, False)
    assert _raised(batch.read) is _raised(lambda: _Row.read(row.blocks, row.twin))

    batch, row = dyn.BlockBatch([2], OMEGA, inf.NoiseParams(0.5, 0.1, 3)), _Row(2, 3, 0.5, 0.1)
    batch.x[:] = 0.0
    row.blocks = [dyn.SymmetricBlockState(2, 3, blk.j, 0 * blk.x) for blk in row.blocks]
    assert _raised(lambda: batch.measure(np.full(1, 0.5))) is ImpossibleOutcomeError
    assert _raised(lambda: row.measure(0.5, False)) is ImpossibleOutcomeError

    fresh = sector(2, 3).dyads[:1]
    assert _raised(lambda: dyn._ejected(sector(2, 3), fresh)) is PreconditionError
    assert _raised(lambda: dyn.eject_block(dyn.symmetric_state_blocks(2, 3))) is PreconditionError


@pytest.mark.parametrize("gamma", [0.125, 1.0])
def test_zero_drive_is_the_identity(gamma):
    """A drive of 0 leaves a fresh |S_1> in ss exactly: p_Rydberg is 0, not
    the rounding of V V^-1, so a draw of 0.0 gives NoRydberg and the
    retrieval fidelity stays real."""
    _, _, eig = dyn._eigensystem(1, 1, 0, OMEGA, gamma)
    assert eig is not None
    prop = dyn._propagator(1, 1, 0, OMEGA, gamma, (0.0,))[0]
    assert np.array_equal(prop, np.eye(len(prop)))
    batch = dyn.BlockBatch([1], OMEGA, inf.NoiseParams(gamma, 0.0, 1))
    batch.drive(np.zeros(1))
    assert batch.read()[1].tolist() == [0.0]
    rydberg, p, _ = batch.measure(np.zeros(1))
    assert rydberg.tolist() == [False] and p.tolist() == [1.0]
    assert batch.read()[1].tolist() == [0.0]
    assert batch.fidelity().tolist() == [1.0]


@pytest.mark.parametrize("n, N, gamma", NEAR_EXCEPTIONAL)
def test_eigenbasis_just_inside_the_limit_keeps_the_trace_for_ten_thousand_cycles(n, N, gamma):
    """Ten thousand drives of random length through the eigendecomposed
    propagator (V e^{lam tau}) V^-1, where cond(V) is just under the limit:
    no step loses more than the 1e-9 the drift check allows, nor does the
    whole evolution."""
    _, _, eig = dyn._eigensystem(n, N, 0, OMEGA, gamma)
    assert eig is not None and 900 < np.linalg.cond(eig[1]) < dyn._EIG_COND_LIMIT
    blk = sector(n, N).block(0)
    taus = np.random.default_rng(n).uniform(0.05, 2.0, (10_000, 1))
    props = dyn._build_propagators(n, N, 0, OMEGA, gamma, taus)
    x = blk.dyads[0].astype(complex)[None, None]
    start, worst = (x.real @ blk.trace).item(), 0.0
    for prop in props:
        x = dyn._advance(x, (prop,), (slice(None),), blk.trace[:, None])
        worst = max(worst, abs((x.real @ blk.trace).item() - start))
    assert worst <= 1e-9


def test_noisy_engine_calls_no_one_state_kernel(monkeypatch):
    """A traced noisy batch with ejection, mixed photon numbers and random
    drive times runs on `BlockBatch` alone: no one-state block kernel, no
    `retrieval_fidelity` and no `PureCollectiveState` twin."""
    calls = {}

    def counting(name):
        original = getattr(dyn, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(dyn, name, wrapper)

    names = ["evolve_block", "evolve_blocks", "retrieval_fidelity", "PureCollectiveState",
             "SymmetricBlockState", "evolve_pure", "measure_block", "eject_block",
             "sector_probabilities", "symmetric_state_blocks"]
    for name in names:
        counting(name)
    params = eng.ProtocolParams(omega=2 * math.pi * 2.5e6, gamma=2 * math.pi * 0.3e6,
                                tau_eit=0.3e-6, N=6, n_max=3, mode=eng.NOISY_FIXED_N,
                                schedule=eng.Schedule.uniform_random(0.05e-6, 0.4e-6),
                                seed=4, max_cycles=15, ejection_enabled=True, trace_points=3)
    logs = eng.run_batch(FockDistribution(np.array([0.0, 0.5, 0.3, 0.2])), params, 4)
    assert sum(log.ejections for log in logs) > 0
    assert calls == {}
    # the counters see calls through the module, as the engine would make them
    dyn.evolve_pure(dyn.PureCollectiveState(np.array([0, 1]), np.array([0, 0])), 0.1, OMEGA)
    dyn.symmetric_state_blocks(1, 2)
    assert set(calls) == {"evolve_pure", "PureCollectiveState", "symmetric_state_blocks",
                          "SymmetricBlockState"}

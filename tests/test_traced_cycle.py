"""A traced cycle evolves each phase once.

The drive's sub-step times end at the drive time and the window's at the
window, so the state a phase leaves is its last sub-step's: a traced noisy
batch makes one drive product and one window product per block of every
group per cycle.  A traced noiseless batch reads its odds once per phase:
one noiseless-kernel call for the drive's sub-steps, and in `measure` one for
the measurement and one for the collapse.  The logs stay those the golden
digests pin.
"""

import math

import numpy as np
import pytest
from test_engine_golden import CASES, DIGESTS, _digest

from rydqnd import dynamics as dyn
from rydqnd import engine as eng
from rydqnd.symbasis import sector


def _counted(monkeypatch, cls, name, seen, what):
    """Wrap cls.name to append what(self) to seen on every call."""
    original = getattr(cls, name)

    def wrapper(self, *args, **kwargs):
        seen.append(what(self))
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, wrapper)


def _groups(batch) -> tuple[int, int]:
    """The batch's groups, and their blocks."""
    return len(batch.groups), sum(len(sec.blocks) for sec, _ in batch.groups)


@pytest.mark.parametrize("name", ["noisy-fixed-trace", "noisy-int-eject-trace",
                                  "noisy-random-born-trace", "noisy-unconverged-no-window-trace"])
def test_traced_noisy_cycle_makes_one_product_per_block_and_phase(monkeypatch, name):
    initial, params, batch = CASES[name]
    products, drives, windows = [], [], []
    advance = dyn._advance

    def counted(x, props, spans, traces):
        if x.ndim == 3:  # a batch's (rows, 1, D) states; the likelihood kernel's are 2-d
            products.append(len(props))
        return advance(x, props, spans, traces)

    monkeypatch.setattr(dyn, "_advance", counted)
    _counted(monkeypatch, dyn.BlockBatch, "drive", drives, _groups)
    _counted(monkeypatch, dyn.BlockBatch, "measure", windows,
             lambda b: _groups(b) if b.window > 0 else (0, 0))
    logs = eng.run_batch(initial, params, batch)
    assert _digest(logs) == DIGESTS[name]
    assert len(drives) == max(len(log.record) for log in logs)
    # every drive time is positive here, so every group drives in every cycle:
    # one `_advance` per group and phase, one product in it per block
    expected = [sum(z) for z in zip(*drives, *windows)]
    assert [len(products), sum(products)] == expected


@pytest.mark.parametrize("name", ["random-born-trace", "fixed-born-eject-trace",
                                  "precomputed-int-eject-trace", "unconverged-int-trace"])
def test_traced_noiseless_cycle_reads_the_odds_once_per_phase(monkeypatch, name):
    initial, params, batch = CASES[name]
    calls, per_call = [], []  # kernel calls so far; (method, kernel calls in it)
    factors = dyn._noiseless_factors
    monkeypatch.setattr(dyn, "_noiseless_factors",
                        lambda *args: calls.append(1) or factors(*args))
    for method in ("drive", "measure", "read"):
        original = getattr(dyn.PureBatch, method)

        def counted(self, *args, original=original, method=method, **kwargs):
            before = len(calls)
            out = original(self, *args, **kwargs)
            per_call.append((method, len(calls) - before))
            return out

        monkeypatch.setattr(dyn.PureBatch, method, counted)
    logs = eng.run_batch(initial, params, batch)
    assert _digest(logs) == DIGESTS[name]
    cycles = max(len(log.record) for log in logs)
    # the initial trace reads the rows; a cycle's measure reads them once more, collapsed
    assert per_call[0] == ("read", 1)
    assert per_call[1:] == [("drive", 1), ("measure", 2)] * cycles


@pytest.mark.parametrize("points", [0, 8])
@pytest.mark.parametrize("taus, runs", [((0.21e-6,) * 12, 1),
                                        ((0.21e-6,) * 4 + (0.3e-6,) * 4 + (0.21e-6,) * 4, 3)],
                         ids=["fixed", "changed-and-back"])
def test_a_repeated_drive_time_builds_its_operators_once(monkeypatch, points, taus, runs):
    """A noisy batch whose rows share each drive time and stay, at the CLI's noisy rates:
    the likelihood holder makes its stacked `_spectral` call once per run of one drive
    time (one ejection count here), `BlockBatch` computes its twins' phases once per run
    and reads each block's drive stack once per run and its window stack once, not once
    per cycle.  A warm-up run first fills the holder's cached tables, whose window
    propagators would add `_propagator` calls of their own."""
    omega = 2 * math.pi * 2.5e6
    params = eng.ProtocolParams(omega=omega, gamma=0.12 * omega, tau_eit=0.3e-6, N=10,
                                schedule=eng.Schedule.precomputed(taus), max_cycles=len(taus),
                                threshold=2.0, trace_points=points)
    eng.run_batch(2, params, 2)
    spectral, phases, stacks = [], [], []
    for name, seen, mine in (("_spectral", spectral, lambda lam, *_: lam.ndim == 2),
                             ("_phases", phases, lambda *_: True),
                             ("_propagator", stacks, lambda *_: True)):
        def counted(*args, original=getattr(dyn, name), seen=seen, mine=mine):
            if mine(*args):
                seen.append(args)
            return original(*args)

        monkeypatch.setattr(dyn, name, counted)
    logs = eng.run_batch(2, params, 2)
    assert [len(log.record) for log in logs] == [len(taus)] * 2
    assert (len(spectral), len(phases)) == (runs, runs)
    blocks = len(sector(2, 10).blocks)
    assert len(stacks) == (runs + 1) * blocks  # each run's drive stacks, one window stack


def test_rows_with_their_own_drive_times_build_per_row_stacks(monkeypatch):
    """A traced uniform-random batch whose rows eject into different sectors: two or more
    driven rows never share a drive time, so `BlockBatch.drive` builds every group's
    stacks per row, a group of one row too, and reads no `_propagator` stack."""
    params = eng.ProtocolParams(omega=2 * math.pi * 2.5e6, gamma=0.3e6, tau_eit=0.3e-6, N=6,
                                n_max=3, schedule=eng.Schedule.uniform_random(0.05e-6, 0.4e-6),
                                ejection_enabled=True, trace_points=2, max_cycles=12, seed=5)
    several, cached, per_row, lone = [], [], [], []  # `several`: the drive under way has 2+ rows
    drive, build, propagator = dyn.BlockBatch.drive, dyn._build_propagators, dyn._propagator

    def counted_drive(self, taus, steps=None):
        several.append(np.count_nonzero(taus > 0) > 1)
        lone.append(several[-1] and any(rows.size == 1 and taus[rows[0]] > 0
                                        for _, rows in self.groups))
        try:
            return drive(self, taus, steps)
        finally:
            several.pop()

    def counted_build(*args):
        if several and several[-1] and args[5].ndim == 2:
            per_row.append(args[5].shape)
        return build(*args)

    monkeypatch.setattr(dyn.BlockBatch, "drive", counted_drive)
    monkeypatch.setattr(dyn, "_build_propagators", counted_build)
    monkeypatch.setattr(dyn, "_propagator", lambda *args: (
        cached.append(args) if several and several[-1] else None) or propagator(*args))
    logs = eng.run_batch(3, params, 4)
    assert any(log.ejections for log in logs) and any(lone)
    assert per_row and cached == []

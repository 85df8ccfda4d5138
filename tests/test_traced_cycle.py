"""A traced cycle evolves each phase once.

The drive's sub-step times end at the drive time and the window's at the
window, so the state a cycle leaves is its last sub-step's: a traced noisy
batch advances each group once per cycle, through the drive's sub-steps and
then the window's, each of these W(w) U(tau).  A traced noiseless batch reads its odds once per phase:
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
def test_traced_noisy_cycle_makes_one_product_per_group(monkeypatch, name):
    """Every cycle advances each sector group once, through the drive's sub-steps and
    the window's, with one drift check: one block-diagonal product where the rows share
    their drive time, one product per block where each row has its own (uniform-random)."""
    initial, params, batch = CASES[name]
    products, drives = [], []
    advance = dyn._advance

    def counted(x, props, spans, traces):
        if x.ndim == 3:  # a batch's (rows, 1, D) states; the likelihood kernel's are 2-d
            products.append(len(props))
        return advance(x, props, spans, traces)

    monkeypatch.setattr(dyn, "_advance", counted)
    _counted(monkeypatch, dyn.BlockBatch, "drive", drives, _groups)
    logs = eng.run_batch(initial, params, batch)
    assert _digest(logs) == DIGESTS[name]
    assert len(drives) == max(len(log.record) for log in logs)
    # every drive time is positive here, so every group drives in every cycle
    own = params.schedule.draws  # each row's own drive time: one product per block
    assert [len(products), sum(products)] == [sum(g for g, _ in drives),
                                              sum(b if own else g for g, b in drives)]


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
    and builds each drive time's block-diagonal cycle stack (`_cycle`, the window in it)
    once, not once per cycle.  A warm-up run first fills the holder's cached tables, and
    the cycle stacks it cached are then dropped."""
    omega = 2 * math.pi * 2.5e6
    params = eng.ProtocolParams(omega=omega, gamma=0.12 * omega, tau_eit=0.3e-6, N=10,
                                schedule=eng.Schedule.precomputed(taus), max_cycles=len(taus),
                                threshold=2.0, trace_points=points)
    eng.run_batch(2, params, 2)
    dyn._cycle.cache_clear()
    spectral, phases, stacks = [], [], []
    for name, seen, mine in (("_spectral", spectral, lambda lam, *_: lam.ndim == 2),
                             ("_phases", phases, lambda *_: True),
                             ("_operators", stacks, lambda *_: True)):
        def counted(*args, original=getattr(dyn, name), seen=seen, mine=mine):
            if mine(*args):
                seen.append(args)
            return original(*args)

        monkeypatch.setattr(dyn, name, counted)
    logs = eng.run_batch(2, params, 2)
    assert [len(log.record) for log in logs] == [len(taus)] * 2
    assert (len(spectral), len(phases)) == (runs, runs)
    assert len(stacks) == len(set(taus))  # one sector, each drive time's stack once


def test_rows_with_their_own_drive_times_build_per_row_stacks(monkeypatch):
    """A traced uniform-random batch whose rows eject into different sectors: the engine
    hands `BlockBatch.drive` each row's own drive time as an array, so every group builds
    its rows' stacks per row and block (`_operators` of a 1-d array of times), a group of
    one row too, and no shared block-diagonal `_cycle` stack is read."""
    params = eng.ProtocolParams(omega=2 * math.pi * 2.5e6, gamma=0.3e6, tau_eit=0.3e-6, N=6,
                                n_max=3, schedule=eng.Schedule.uniform_random(0.05e-6, 0.4e-6),
                                ejection_enabled=True, trace_points=2, max_cycles=12, seed=5)
    per_row, shared, lone = [], [], []
    drive, operators, cycle = dyn.BlockBatch.drive, dyn._operators, dyn._cycle

    def counted_drive(self, taus, steps=None):
        lone.append(any(rows.size == 1 for _, rows in self.groups) and len(self.groups) > 1)
        return drive(self, taus, steps)

    monkeypatch.setattr(dyn.BlockBatch, "drive", counted_drive)
    monkeypatch.setattr(dyn, "_operators", lambda sec, omega, gamma, taus, *rest: (
        per_row.append(np.shape(taus)) or operators(sec, omega, gamma, taus, *rest)))
    monkeypatch.setattr(dyn, "_cycle", lambda *args: shared.append(args) or cycle(*args))
    logs = eng.run_batch(3, params, 4)
    assert any(log.ejections for log in logs) and any(lone)
    assert per_row and all(len(shape) == 1 for shape in per_row) and shared == []

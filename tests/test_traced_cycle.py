"""A traced cycle evolves each phase once.

The drive's sub-step times end at the drive time and the window's at the
window, so the state a phase leaves is its last sub-step's: a traced noisy
batch makes one drive product and one window product per block of every
group per cycle.  A traced noiseless batch reads its odds once per phase:
one noiseless-kernel call for the drive's sub-steps, and in `measure` one for
the measurement and one for the collapse.  The logs stay those the golden
digests pin.
"""

import pytest
from test_engine_golden import CASES, DIGESTS, _digest

from rydqnd import dynamics as dyn
from rydqnd import engine as eng


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

"""A traced cycle evolves each phase once.

The drive's sub-step times end at the drive time and the window's at the
window, so the state a phase leaves is its last sub-step's: a traced noisy
batch makes one drive product and one window product per block of every
group per cycle, and a traced noiseless batch one rotation per cycle.  The
logs stay those the golden digests pin.
"""

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
    return len(batch.groups), sum(len(sector(*key).blocks) for key in batch.groups)


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
def test_traced_noiseless_cycle_makes_one_rotation(monkeypatch, name):
    initial, params, batch = CASES[name]
    rotations, drives = [], []
    rotate = dyn._rotate
    monkeypatch.setattr(dyn, "_rotate", lambda *args: rotations.append(1) or rotate(*args))
    _counted(monkeypatch, dyn.PureBatch, "drive", drives, lambda b: None)
    logs = eng.run_batch(initial, params, batch)
    assert _digest(logs) == DIGESTS[name]
    assert len(rotations) == len(drives) == max(len(log.record) for log in logs)

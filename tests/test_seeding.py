"""Batch seeding: `engine._seed_states` and `engine._generators` against NumPy's own
`SeedSequence`, and the refusals of seeds and seed keys it cannot take."""

import json
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rydqnd import engine as eng
from rydqnd.errors import DomainError

SEEDS = [0, 2**32 - 1, 2**32, 2**64, 2**128 + 1]
KEYS = [(), (0,), (2**32 - 1,), (2**32,), (7, 2)]
# a fresh interpreter's environment that imports this package
SRC = str(Path(eng.__file__).resolve().parents[1])
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)}


def _matches_numpy(seed: int, key: tuple[int, ...]) -> None:
    """The state words and the first draws of the generator seeded for key are NumPy's."""
    reference = np.random.SeedSequence(seed, spawn_key=key)
    words = eng._key_words(key)
    state = eng._seed_states(seed, words)
    assert state.dtype == np.uint64 and state.shape == (1, 4)
    assert state[0].tolist() == reference.generate_state(4, np.uint64).tolist()
    [rng], expected = eng._generators(seed, words), np.random.default_rng(reference)
    assert rng.random(6).tolist() == expected.random(6).tolist()
    assert rng.integers(0, 2**63, 4).tolist() == expected.integers(0, 2**63, 4).tolist()


@pytest.mark.parametrize("seed, key", product(SEEDS, KEYS))
def test_seeding_matches_numpy_at_word_boundaries(seed, key):
    _matches_numpy(seed, key)


@settings(max_examples=200)
@given(st.integers(0, 2**160), st.lists(st.integers(0, 2**64), max_size=3).map(tuple))
def test_seeding_matches_numpy(seed, key):
    _matches_numpy(seed, key)


@pytest.mark.parametrize("seed", [1.5, 2.0, np.float64(3.0), "3", None])
def test_a_seed_that_is_not_a_whole_number_is_refused_at_construction(seed):
    with pytest.raises(DomainError, match="seed must be a whole number"):
        eng.ProtocolParams(omega=1.0, seed=seed)


def test_a_numpy_integer_seed_runs_and_its_logs_spell_it_as_an_int():
    params = eng.ProtocolParams(omega=1.0, mode=eng.NOISELESS_PURE, seed=np.int64(5))
    assert type(params.seed) is int
    [log] = eng.run_batch(1, params, 1)
    assert json.loads(log.to_json())["params"]["seed"] == 5


@pytest.mark.parametrize("key", [(-1,), (1.5,), (2, -3), ("1",), (np.float64(1.0),)])
def test_a_seed_key_element_that_is_not_a_whole_number_is_refused(key):
    params = eng.ProtocolParams(omega=1.0, mode=eng.NOISELESS_PURE)
    with pytest.raises(DomainError, match="a seed key holds whole numbers >= 0"):
        eng.run_protocol(1, params, key)


# run in a process of its own whose address space is capped, so a batch that is not
# refused fails there on its first large allocation instead of filling the machine
_COUNT_PROBE = """
import resource, tracemalloc
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
import numpy as np
from rydqnd import engine as eng
from rydqnd.errors import ResourceError
params = eng.ProtocolParams(omega=1.0, mode=eng.NOISELESS_PURE)
tracemalloc.start()
try:
    eng.run_batch(1, params, 2**32)
except ResourceError as exc:
    print("refused", tracemalloc.get_traced_memory()[1], exc)
"""


def test_a_batch_of_2_to_the_32_trajectories_is_refused_before_any_array():
    """Keys past one 32-bit word are refused before any array or key list is built."""
    probe = subprocess.run([sys.executable, "-c", _COUNT_PROBE], env=ENV, capture_output=True,
                           text=True, timeout=120)
    assert probe.returncode == 0, probe.stderr
    word, peak, *_ = probe.stdout.split()
    assert word == "refused" and int(peak) < 100_000, probe.stdout


def test_numpy_random_loads_at_the_first_seeding_not_at_import():
    """`import rydqnd` leaves numpy.random unloaded (about 10 ms of every cold start, and
    `infer` never draws); the first seeding loads it."""
    probe = subprocess.run([sys.executable, "-c", "import sys, rydqnd; "
                            "loaded = 'numpy.random' in sys.modules; "
                            "rydqnd.engine._generators(0, rydqnd.engine._key_words(())); "
                            "print(loaded, 'numpy.random' in sys.modules)"],
                           env=ENV, capture_output=True, text=True, check=True)
    assert probe.stdout.split() == ["False", "True"]

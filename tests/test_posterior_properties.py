"""Invariants of the noiseless odds kernel, of the drive-rate roots its holder
keeps, and of the candidate posterior, which compute with numpy's vectorised
square, exp and sums."""

import copy
import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from rydqnd import dynamics as dyn
from rydqnd.inference import Mixture, NoiselessLikelihoods, _roots
from rydqnd.records import FockDistribution, Posterior

EPS = np.finfo(float).eps


@given(st.lists(st.integers(0, 12), min_size=1, max_size=6, unique=True),
       st.floats(0.01, 10.0),
       st.lists(st.tuples(st.floats(0.0, 1e3), st.integers(0, 3)), min_size=1, max_size=8))
def test_the_two_outcomes_odds_sum_to_one(ns, omega, cycles):
    taus, shift = (np.array(column) for column in zip(*cycles))
    both = np.array([[True] * len(cycles), [False] * len(cycles)])
    factors = dyn._noiseless_factors(_roots(ns, shift), omega, taus, both)
    assert factors.shape == (2, len(cycles), len(ns))
    assert (factors >= 0.0).all()
    assert np.abs(factors.sum(axis=0) - 1.0).max() <= 2 * EPS


def _kernel(ns, shift, omega, taus, repeat):
    """The noiseless odds recomputed from the photon numbers and ejection counts."""
    m = np.maximum(np.asarray(ns)[None, :] - np.asarray(shift)[:, None], 0)
    phase = np.sqrt(m) * omega * np.asarray(taus, dtype=float)[:, None]
    trig = np.where(np.asarray(repeat)[..., None], np.cos(phase), np.sin(phase))
    return trig * trig


def _times(data, rows: int) -> np.ndarray:
    return np.array(data.draw(st.lists(st.floats(0.0, 5.0), min_size=rows, max_size=rows)))


@given(st.lists(st.integers(0, 8), min_size=1, max_size=5, unique=True), st.booleans(),
       st.lists(st.integers(0, 4), min_size=1, max_size=4), st.floats(0.01, 10.0), st.data())
def test_the_holders_roots_follow_its_updates_and_takes(ns, eject, shift, omega, data):
    """After any sequence of updates (ejecting or not) and takes (index arrays with
    repeats, or masks), ``root`` is sqrt(max(n - shift, 0)) of every row, and the
    kernel on it gives the recomputed odds of both outcomes, bit for bit."""
    holder = NoiselessLikelihoods(sorted(ns), omega, eject, shift)
    for _ in range(data.draw(st.integers(1, 8))):
        rows = len(holder.shift)
        flags = st.lists(st.booleans(), min_size=rows, max_size=rows)
        step = data.draw(st.sampled_from(["update", "index", "mask"]))
        if step == "update":
            holder.update(_times(data, rows), np.array(data.draw(flags), dtype=bool))
        elif step == "index":
            index = data.draw(st.lists(st.integers(0, rows - 1), max_size=5)) if rows else []
            holder.take(np.array(index, dtype=int))
        else:
            holder.take(np.array(data.draw(flags), dtype=bool))
        expected = np.sqrt(np.maximum(holder.ns[None, :] - holder.shift[:, None], 0))
        assert holder.root.shape == expected.shape
        assert holder.root.tobytes() == expected.tobytes()
        taus, both = _times(data, len(holder.shift)), np.array([holder.last, ~holder.last])
        got = dyn._noiseless_factors(holder.root, omega, taus, both)
        assert got.tobytes() == _kernel(holder.ns, holder.shift, omega, taus, both).tobytes()


@st.composite
def mixtures(draw):
    """(Mixture, log Pr(record | n) of up to 4 rows as multiples of 2^-10 in
    [-40, 0]): sums of those and an integer are exact, so a shift of a row
    is exact too."""
    n_max = draw(st.integers(0, 9))
    cands = []
    for _ in range(draw(st.integers(1, 5))):
        p = np.array(draw(st.lists(st.integers(0, 4), min_size=n_max + 1, max_size=n_max + 1)),
                     dtype=float)
        p[draw(st.integers(0, n_max))] += 1.0
        cands.append(FockDistribution(p / p.sum()))
    prior = np.array(draw(st.lists(st.integers(1, 9), min_size=len(cands),
                                   max_size=len(cands))), dtype=float)
    mix = Mixture(cands, Posterior(prior / prior.sum()))
    rows = draw(st.integers(1, 4))
    log_l = draw(st.lists(st.integers(-40 * 1024, 0), min_size=rows * len(mix.ns),
                          max_size=rows * len(mix.ns)))
    return mix, np.array(log_l, dtype=float).reshape(rows, len(mix.ns)) / 1024


@given(mixtures())
def test_posterior_rows_are_normalised(case):
    mix, log_l = case
    post = mix.posterior(log_l)
    assert post.shape == (len(log_l), len(mix.prior))
    assert (post >= 0.0).all()
    assert np.abs(post.sum(axis=1) - 1.0).max() <= 1e-15


@given(mixtures(), st.integers(-50, 50))
def test_a_constant_added_to_a_row_leaves_its_posterior(case, constant):
    mix, log_l = case
    shifted = log_l.copy()
    shifted[0] += constant
    assert np.abs(mix.posterior(shifted) - mix.posterior(log_l)).max() <= 1e-15


@given(mixtures(), st.data())
def test_an_impossible_photon_number_contributes_nothing(case, data):
    """A -inf likelihood gives the posterior a candidate would have with no
    weight on that photon number, bit for bit, and no NaN."""
    mix, log_l = case
    dead = data.draw(st.sets(st.integers(0, len(mix.ns) - 1), max_size=len(mix.ns) - 1))
    cols = sorted(dead)
    impossible = log_l.copy()
    impossible[:, cols] = -math.inf
    # the same rows with those photon numbers outside every candidate's support,
    # at a likelihood below each row's largest live one
    cut = copy.copy(mix)
    cut.p = mix.p.copy()
    cut.p[:, cols] = 0.0
    outside = log_l.copy()
    outside[:, cols] = np.delete(log_l, cols, axis=1).min(axis=1, keepdims=True)
    post = mix.posterior(impossible)
    assert not np.isnan(post).any()
    assert post.tolist() == cut.posterior(outside).tolist()

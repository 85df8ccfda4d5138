"""Invariants of the noiseless odds kernel and of the candidate posterior,
which compute with numpy's vectorised square, exp and sums."""

import copy
import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from rydqnd import dynamics as dyn
from rydqnd.inference import Mixture
from rydqnd.records import FockDistribution, Posterior

EPS = np.finfo(float).eps


@given(st.lists(st.integers(0, 12), min_size=1, max_size=6, unique=True),
       st.floats(0.01, 10.0),
       st.lists(st.tuples(st.floats(0.0, 1e3), st.integers(0, 3)), min_size=1, max_size=8))
def test_the_two_outcomes_odds_sum_to_one(ns, omega, cycles):
    taus, shift = (np.array(column) for column in zip(*cycles))
    both = np.array([[True] * len(cycles), [False] * len(cycles)])
    factors = dyn._noiseless_factors(ns, omega, taus, both, shift)
    assert factors.shape == (2, len(cycles), len(ns))
    assert (factors >= 0.0).all()
    assert np.abs(factors.sum(axis=0) - 1.0).max() <= 2 * EPS


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

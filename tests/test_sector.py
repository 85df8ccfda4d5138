"""The cached per-(n, N) sector structure and the dynamics built on it.

The sector's arrays are checked against the per-label formulas they replace
(assignment counts, normalization constants, the drive table and the family
sets of each measurement outcome) on every block with N <= 12; the dynamics
invariants are property tests over random (n, N, tau, gamma).
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rydqnd import dynamics as dyn
from rydqnd import inference as inf
from rydqnd import symbasis as sb
from rydqnd.errors import ResourceError
from rydqnd.records import NO_RYDBERG, RYDBERG

import refs

ALL_BLOCKS = [(n, N, j) for N in range(1, 13) for n in range(N + 1)
              for j in range(min(n, N - n) + 1)]

# normalization of each dyad over comb(N, n): SS, RR, SR, RS
DYAD_REFERENCE = (({"ss"}, lambda n: 1.0),
                  ({"rr", "rs_sr", "rg_gr", "rs_gr", "sr_rg"}, lambda n: float(n)),
                  ({"sr", "gr"}, lambda n: math.sqrt(n)),
                  ({"rs", "rg"}, lambda n: math.sqrt(n)))


def test_j0_blocks_fit_the_padded_family_layout():
    # `inference` pads every j = 0 block to five families at fixed indices
    # (`_DIM`, `_SS`, `_RR`, `_padded`), so each block's families must be a
    # prefix of that order (the vacuum has only ss, and n = 1 has no rs_sr)
    for N in range(1, 13):
        for n in range(N + 1):
            blk = sb.sector(n, N).block(0)
            kinds = tuple(lab.kind for lab in blk.labels)
            assert kinds == ("ss", "rs", "sr", "rr", "rs_sr")[:len(kinds)], (n, N)
            assert blk.dim <= inf._DIM and blk.ss == inf._SS
            assert blk.rr in (None, inf._RR)


def test_sector_matches_per_label_formulas_for_every_small_block():
    for n, N, j in ALL_BLOCKS:
        blk = sb.sector(n, N).blocks[j]
        labels = sb.enumerate_basis(n, N, j)
        kinds = [lab.kind for lab in labels]
        assert blk.j == j and list(blk.labels) == labels
        norms = np.array([refs.normalization(lab) for lab in labels])
        trace = [lab.assignment_count() * refs.normalization(lab) if lab.is_diagonal() else 0.0
                 for lab in labels]
        np.testing.assert_allclose(blk.trace, trace, rtol=1e-14)
        drive = np.zeros((len(labels), len(labels)))
        for row, col, coeff in sb._H_TABLE:
            if row in kinds and col in kinds:
                r, c = kinds.index(row), kinds.index(col)
                drive[r, c] = coeff(n, j) * norms[r] / norms[c]
        np.testing.assert_allclose(blk.drive, drive, rtol=1e-14, atol=0.0)
        np.testing.assert_array_equal(blk.rydberg, [k in sb._RYDBERG_KINDS for k in kinds])
        np.testing.assert_array_equal(blk.no_rydberg, [k in sb._NO_RYDBERG_KINDS for k in kinds])
        assert kinds[blk.ss] == "ss"
        assert (blk.rr is None) == ("rr" not in kinds)
        for row, (fams, pairs) in zip(blk.dyads, DYAD_REFERENCE):
            ref = [math.sqrt(lab.assignment_count()) / (pairs(n) * math.comb(N, n))
                   if lab.kind in fams else 0.0 for lab in labels]
            np.testing.assert_allclose(row, ref, rtol=1e-14, atol=0.0)


def test_sector_is_built_once_and_read_only():
    sec = sb.sector(3, 8)
    assert sb.sector(3, 8) is sec
    with pytest.raises(ValueError):
        sec.blocks[0].trace[0] = 1.0
    target, factor = sec.ejection
    assert (target.n, target.N) == (2, 7) and factor == pytest.approx(math.sqrt(8))


def test_entries_outside_float_range_raise_resource_error():
    # comb(5000, 600) ~ 1e800, so 1/sqrt(count) underflows
    with pytest.raises(ResourceError):
        refs.normalization(sb.BasisLabel("ss", 0, 600, 5000))
    with pytest.raises(ResourceError):
        sb._sqrt_ratio(10 ** 700, 1)


@st.composite
def noisy_cases(draw):
    N = draw(st.integers(2, 12))
    n = draw(st.integers(1, N))
    tau = draw(st.floats(0.0, 5.0))
    gamma = draw(st.floats(0.0, 2.0))
    tau_eit = draw(st.floats(0.0, 1.0))
    return n, N, tau, gamma, tau_eit


@given(noisy_cases())
def test_noisy_cycle_invariants(case):
    n, N, tau, gamma, tau_eit = case
    omega = 1.0
    blocks = dyn.evolve_blocks(dyn.symmetric_state_blocks(n, N), tau, omega, gamma)
    assert sum(b.trace() for b in blocks) == pytest.approx(1.0, abs=1e-9)
    ideal = dyn.evolve_pure(dyn.PureCollectiveState.from_stored_amplitudes(
        np.eye(n + 1)[n].astype(complex)), tau, omega)
    assert 0.0 <= dyn.retrieval_fidelity(blocks, ideal) <= 1.0
    windowed = dyn.evolve_blocks(blocks, tau_eit, 0.0, gamma, drive_on=False)
    p_s, p_r = dyn.sector_probabilities(windowed)
    assert p_s + p_r == pytest.approx(sum(b.trace() for b in windowed), abs=1e-9)
    for outcome, p in ((NO_RYDBERG, p_s), (RYDBERG, p_r)):
        if p > 1e-6:
            p_kept, kept = dyn.project_blocks(windowed, outcome)
            assert p_kept == p
            assert sum(b.trace() for b in kept) == pytest.approx(1.0, abs=1e-9)

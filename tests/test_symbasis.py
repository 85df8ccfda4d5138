"""Symmetric operator basis: enumeration, normalization, block matrices.

The block matrices are validated against an explicit dense construction: each
basis label is expanded into its symmetrized operator matrix on the product
space, and the drive/dephasing generator is evaluated element by element in
that basis.
"""

import itertools
import math

import numpy as np
import pytest

from rydqnd import dense_oracle as do
from rydqnd import symbasis as sb
from rydqnd.errors import DomainError

import refs


def superket_matrix(label: sb.BasisLabel) -> np.ndarray:
    """Dense matrix of the normalized symmetrized operator superket."""
    N = label.N
    index = do._basis_index(N)
    level = {"g": do.G, "s": do.S, "r": do.R}
    oplist: list[tuple[int, int]] = []
    for name, mult in label.site_operators().items():
        oplist.extend([(level[name[0]], level[name[1]])] * mult)
    dim = len(do.basis_states(N))
    M = np.zeros((dim, dim), dtype=complex)
    for perm in set(itertools.permutations(oplist)):
        ket = tuple(p[0] for p in perm)
        bra = tuple(p[1] for p in perm)
        M[index[ket], index[bra]] += 1.0
    return refs.normalization(label) * M


def dense_generator(n: int, N: int, j: int):
    """Generator matrix elements from the dense construction (Omega=gamma=1)."""
    labels = sb.enumerate_basis(n, N, j)
    kets = [superket_matrix(lab) for lab in labels]
    h = do._drive_hamiltonian(N)
    w = do._dephasing_weights(N)
    dim = len(labels)
    A_h = np.zeros((dim, dim), dtype=complex)
    A_d = np.zeros((dim, dim), dtype=complex)
    for c, M in enumerate(kets):
        Lh = -1j * (h @ M - M @ h)
        Ld = w * M
        for r, Mr in enumerate(kets):
            A_h[r, c] = np.trace(Mr.conj().T @ Lh)
            A_d[r, c] = np.trace(Mr.conj().T @ Ld)
    return labels, kets, A_h, A_d


BLOCK_CASES = [(n, N, j)
               for (n, N) in [(1, 2), (1, 3), (2, 4), (2, 5), (3, 5), (3, 6)]
               for j in range(0, min(n, N - n) + 1)]


@pytest.mark.parametrize("n,N,j", BLOCK_CASES)
def test_superkets_are_orthonormal(n, N, j):
    _, kets, _, _ = dense_generator(n, N, j)
    gram = np.array([[np.trace(a.conj().T @ b) for b in kets] for a in kets])
    assert np.max(np.abs(gram - np.eye(len(kets)))) < 1e-12


@pytest.mark.parametrize("n,N,j", BLOCK_CASES)
def test_block_matrices_match_dense_construction(n, N, j):
    _, _, A_h, A_d = dense_generator(n, N, j)
    blk = sb.sector(n, N).block(j)
    assert np.max(np.abs(A_h - 1j * blk.drive)) < 1e-9
    assert np.max(np.abs(A_d - np.diag(blk.dephasing))) < 1e-12


def test_enumeration_keeps_listing_order_and_existence():
    labels = sb.enumerate_basis(2, 5, 0)
    kinds = [lab.kind for lab in labels]
    assert kinds == [k for k in sb.FAMILIES if k in set(kinds)]
    # j = 0 has no gs/sg site factors, so families needing j >= 1 are absent
    assert "rg" not in kinds and "rg_gr" not in kinds
    # all returned labels exist and none are double-counted
    assert len(set(labels)) == len(labels)
    for lab in labels:
        assert lab.exists()


def test_single_photon_block_is_the_two_level_system():
    labels = sb.enumerate_basis(1, 1, 0)
    assert [lab.kind for lab in labels] == ["ss", "rs", "sr", "rr"]


def test_normalization_is_inverse_sqrt_of_assignment_count():
    lab = sb.BasisLabel("ss", 0, 2, 5)
    # 2 ss factors and 3 gg factors over 5 sites: C(5,2) = 10 assignments
    assert lab.assignment_count() == 10
    assert refs.normalization(lab) == pytest.approx(1.0 / math.sqrt(10.0), rel=1e-15)


def test_unknown_family_kind_rejected():
    with pytest.raises(DomainError, match="unknown family kind"):
        sb.BasisLabel("sg", 0, 2, 5).site_operators()


def test_dissipator_diagonal_values():
    blk = sb.sector(3, 6).block(1)
    by_kind = {lab.kind: blk.dephasing[i] for i, lab in enumerate(blk.labels)}
    assert set(by_kind) == set(sb.FAMILIES)
    assert by_kind["ss"] == 0.0
    assert by_kind["rr"] == 0.0
    for kind in ("rs", "sr", "rg", "gr"):
        assert by_kind[kind] == -0.5
    for kind in ("rs_gr", "sr_rg", "rs_sr", "rg_gr"):
        assert by_kind[kind] == -1.0


def test_trace_vector_is_left_null_vector_of_the_generator():
    v = sb.trace_vector(2, 5, 0)
    for gamma in (0.0, 0.3, 1.0):
        assert np.max(np.abs(v @ sb.build_block(2, 5, 0, omega=1.0, gamma=gamma))) < 1e-12


def test_trace_vector_weights_diagonal_families_only():
    v = sb.trace_vector(2, 5, 0)
    for i, lab in enumerate(sb.sector(2, 5).block(0).labels):
        if lab.kind in ("ss", "rr"):
            assert v[i] > 0.0
        else:
            assert v[i] == 0.0


def test_generator_combines_drive_and_dephasing():
    gen = sb.build_block(1, 3, 1, omega=0.7, gamma=0.2)
    blk = sb.sector(1, 3).block(1)
    assert np.allclose(gen, 0.7j * blk.drive + 0.2 * np.diag(blk.dephasing))


def test_invalid_block_arguments_rejected():
    with pytest.raises(DomainError):
        sb.build_block(-1, 4, 0, omega=1.0, gamma=0.0)
    with pytest.raises(DomainError):
        sb.build_block(3, 2, 0, omega=1.0, gamma=0.0)
    with pytest.raises(DomainError):
        sb.build_block(2, 4, 5, omega=1.0, gamma=0.0)
    for omega, gamma in ((-1.0, 0.0), (1.0, -0.1)):
        with pytest.raises(DomainError, match="non-negative"):
            sb.build_block(2, 4, 0, omega=omega, gamma=gamma)

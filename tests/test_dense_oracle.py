"""Dense brute-force reference solver on the blockaded product space."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from rydqnd import dense_oracle as do
from rydqnd.errors import ImpossibleOutcomeError, ResourceError
from rydqnd.records import NO_RYDBERG, RYDBERG


def test_basis_dimension_counts_blockaded_states():
    for N in (1, 2, 3, 4, 5):
        states = do.basis_states(N)
        assert len(states) == 2 ** N + N * 2 ** (N - 1)
        assert all(s.count(do.R) <= 1 for s in states)
        assert len(set(states)) == len(states)


def test_atom_count_guard():
    with pytest.raises(ResourceError):
        do.basis_states(do.MAX_DENSE_ATOMS + 1)


def test_collective_kets_are_normalized_and_orthogonal():
    for n, N in [(1, 3), (2, 4), (3, 5)]:
        s = do.build_symmetric_ket(n, N)
        r = do.build_rydberg_ket(n, N)
        assert np.vdot(s, s) == pytest.approx(1.0, abs=1e-12)
        assert np.vdot(r, r) == pytest.approx(1.0, abs=1e-12)
        assert abs(np.vdot(s, r)) < 1e-12


def test_drive_couples_collective_states_at_enhanced_rate():
    # matrix element <R_n| H |S_n> = sqrt(n) at unit drive amplitude
    for n, N in [(1, 2), (2, 4), (3, 5)]:
        h = do._drive_hamiltonian(N)
        s = do.build_symmetric_ket(n, N)
        r = do.build_rydberg_ket(n, N)
        assert np.vdot(r, h @ s) == pytest.approx(math.sqrt(n), abs=1e-12)


def test_noiseless_rabi_oscillation():
    omega = 1.3
    n, N = 2, 4
    state = do.pure_state(do.build_symmetric_ket(n, N), N)
    for t in np.linspace(0.0, 2.0, 7):
        evolved = do.evolve_dense(state, float(t), omega, 0.0)
        _, p_r = do.sector_populations_dense(evolved)
        assert p_r == pytest.approx(math.sin(math.sqrt(n) * omega * t) ** 2, abs=1e-9)


def test_evolution_preserves_trace_and_hermiticity():
    n, N = 2, 4
    state = do.pure_state(do.build_symmetric_ket(n, N), N)
    evolved = do.evolve_dense(state, 3.0, 1.0, 0.7)
    assert np.trace(evolved.rho).real == pytest.approx(1.0, abs=1e-9)
    assert np.max(np.abs(evolved.rho - evolved.rho.conj().T)) < 1e-9
    eigs = np.linalg.eigvalsh(evolved.rho)
    assert eigs.min() > -1e-9


def test_dephasing_decays_cross_sector_coherence():
    n, N = 1, 3
    vec = (do.build_symmetric_ket(n, N) + do.build_rydberg_ket(n, N)) / math.sqrt(2)
    state = do.pure_state(vec, N)
    gamma = 2.0
    evolved = do.evolve_dense(state, 1.5, 0.0, gamma)
    s = do.build_symmetric_ket(n, N)
    r = do.build_rydberg_ket(n, N)
    coh = np.vdot(s, evolved.rho @ r)
    # coherence between 0- and 1-Rydberg sectors decays at gamma/2
    assert abs(coh) == pytest.approx(0.5 * math.exp(-gamma * 1.5 / 2.0), abs=1e-8)


def test_projection_normalizes_and_partitions():
    n, N = 2, 4
    state = do.evolve_dense(
        do.pure_state(do.build_symmetric_ket(n, N), N), 0.4, 1.0, 0.3)
    p_no, kept_no = do.project_dense(state, NO_RYDBERG)
    p_ry, kept_ry = do.project_dense(state, RYDBERG)
    assert p_no + p_ry == pytest.approx(1.0, abs=1e-10)
    assert np.trace(kept_no.rho).real == pytest.approx(1.0, abs=1e-10)
    assert np.trace(kept_ry.rho).real == pytest.approx(1.0, abs=1e-10)
    assert do.sector_populations_dense(kept_ry)[1] == pytest.approx(1.0, abs=1e-12)


def test_impossible_projection_rejected():
    n, N = 1, 2
    state = do.pure_state(do.build_symmetric_ket(n, N), N)
    with pytest.raises(ImpossibleOutcomeError):
        do.project_dense(state, RYDBERG)


def test_ejection_removes_one_atom_and_preserves_trace():
    n, N = 2, 4
    state = do.pure_state(do.build_rydberg_ket(n, N), N)
    smaller = do.eject_dense(state)
    assert smaller.N == N - 1
    assert np.trace(smaller.rho).real == pytest.approx(1.0, abs=1e-12)
    # a pure collective Rydberg state ejects onto the (n-1)-excitation state
    target = do.pure_state(do.build_symmetric_ket(n - 1, N - 1), N - 1)
    fid = np.trace(target.rho @ smaller.rho).real
    assert fid == pytest.approx(1.0, abs=1e-12)


def test_equal_diagonals_stay_equal_despite_cross_coherences():
    # two mixtures with identical diagonals but different cross-number
    # coherences must stay diagonal-identical under drive and dephasing
    N = 4
    s1 = do.build_symmetric_ket(1, N)
    s2 = do.build_symmetric_ket(2, N)
    rho_a = 0.5 * (np.outer(s1, s1.conj()) + np.outer(s2, s2.conj()))
    plus = (s1 + s2) / math.sqrt(2)
    rho_b = np.outer(plus, plus.conj())  # same diagonal, full coherence
    a = do.DenseState(N, rho_a)
    b = do.DenseState(N, rho_b)
    assert np.max(np.abs(np.diag(rho_a) - np.diag(rho_b))) < 1e-12
    assert np.max(np.abs(rho_a - rho_b)) > 1e-3
    for t in np.linspace(0.0, 3.0, 5):
        ea = do.evolve_dense(a, float(t), 1.0, 0.2)
        eb = do.evolve_dense(b, float(t), 1.0, 0.2)
        assert np.max(np.abs(np.diag(ea.rho) - np.diag(eb.rho))) < 1e-8


# ---------------------------------------------------------------------------
# excitation-number restriction

def _full_master_equation(rho0, N, t, omega, gamma):
    """Reference: the master equation on the whole blockaded basis, built from
    the textbook drive and dephasing terms rather than the oracle's matrices."""
    states = do.basis_states(N)
    dim = len(states)
    h = np.zeros((dim, dim))
    for a, cfg_a in enumerate(states):
        for b, cfg_b in enumerate(states):
            diff = [(x, y) for x, y in zip(cfg_a, cfg_b) if x != y]
            if len(diff) == 1 and set(diff[0]) == {do.S, do.R}:
                h[a, b] = omega
    projectors = [np.diag([float(cfg[i] == do.R) for cfg in states]) for i in range(N)]

    def rhs(_t, y):
        rho = y.reshape(dim, dim)
        out = -1j * (h @ rho - rho @ h)
        for p in projectors:
            out += gamma * (p @ rho @ p - 0.5 * (p @ rho + rho @ p))
        return out.ravel()

    sol = solve_ivp(rhs, (0.0, t), rho0.ravel().astype(complex),
                    method="DOP853", rtol=1e-10, atol=1e-12)
    assert sol.success
    return sol.y[:, -1].reshape(dim, dim)


def test_restricted_evolution_matches_full_master_equation():
    # a state mixing excitation numbers 0, 1 and 2 with cross coherences;
    # the three-excitation sector (sss, ssr, ...) is unoccupied
    N = 3
    exc = np.array([cfg.count(do.S) + cfg.count(do.R) for cfg in do.basis_states(N)])
    rng = np.random.default_rng(5)
    kets = []
    for _ in range(2):
        vec = np.where(exc < 3, rng.normal(size=exc.size) + 1j * rng.normal(size=exc.size), 0)
        kets.append(vec / np.linalg.norm(vec))
    rho0 = 0.7 * np.outer(kets[0], kets[0].conj()) + 0.3 * np.outer(kets[1], kets[1].conj())
    assert len(rho0) == 20
    omega, gamma, t = 1.3, 0.6, 2.5
    evolved = do.evolve_dense(do.DenseState(N, rho0), t, omega, gamma)
    reference = _full_master_equation(rho0, N, t, omega, gamma)
    assert np.max(np.abs(evolved.rho - reference)) < 1e-9
    outside = exc == 3
    assert np.all(evolved.rho[outside, :] == 0)
    assert np.all(evolved.rho[:, outside] == 0)


@st.composite
def symmetric_mixtures(draw):
    """Random mixtures of superpositions of the collective S_n and R_n kets."""
    N = draw(st.integers(1, 4))
    kets = [do.build_symmetric_ket(n, N) for n in range(N + 1)]
    kets += [do.build_rydberg_ket(n, N) for n in range(1, N + 1)]
    unit = st.floats(-1.0, 1.0)
    rho = np.zeros((len(kets[0]), len(kets[0])), dtype=complex)
    for _ in range(draw(st.integers(1, 3))):
        amps = [complex(draw(unit), draw(unit)) for _ in kets]
        vec = sum(a * k for a, k in zip(amps, kets))
        norm = np.linalg.norm(vec)
        if norm < 1e-3:
            continue
        rho += draw(st.floats(0.1, 1.0)) * np.outer(vec, vec.conj()) / norm ** 2
    if np.trace(rho).real == 0:
        rho = np.outer(kets[0], kets[0].conj())
    rho /= np.trace(rho).real
    return do.DenseState(N, rho)


@given(symmetric_mixtures(), st.floats(0.0, 2.0), st.floats(0.0, 2.0),
       st.floats(0.2, 2.0), st.floats(0.0, 1.0))
def test_dense_evolution_invariants(state, t1, t2, omega, gamma):
    once = do.evolve_dense(state, t1 + t2, omega, gamma)
    assert np.trace(once.rho).real == pytest.approx(1.0, abs=1e-9)
    assert np.max(np.abs(once.rho - once.rho.conj().T)) < 1e-9
    assert np.linalg.eigvalsh(once.rho).min() > -1e-9
    chained = do.evolve_dense(do.evolve_dense(state, t1, omega, gamma), t2, omega, gamma)
    assert np.max(np.abs(chained.rho - once.rho)) < 1e-9

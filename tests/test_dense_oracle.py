"""Dense brute-force reference solver on the blockaded product space."""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from rydqnd import dense_oracle as do
from rydqnd.errors import DomainError, ImpossibleOutcomeError, IntegratorError, ResourceError
from rydqnd.records import NO_RYDBERG, RYDBERG

import refs


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
        r = refs.build_rydberg_ket(n, N)
        assert np.vdot(s, s) == pytest.approx(1.0, abs=1e-12)
        assert np.vdot(r, r) == pytest.approx(1.0, abs=1e-12)
        assert abs(np.vdot(s, r)) < 1e-12


def test_drive_couples_collective_states_at_enhanced_rate():
    # matrix element <R_n| H |S_n> = sqrt(n) at unit drive amplitude
    for n, N in [(1, 2), (2, 4), (3, 5)]:
        h = do._drive_hamiltonian(N)
        s = do.build_symmetric_ket(n, N)
        r = refs.build_rydberg_ket(n, N)
        assert np.vdot(r, h @ s) == pytest.approx(math.sqrt(n), abs=1e-12)


def test_noiseless_rabi_oscillation():
    omega = 1.3
    n, N = 2, 4
    state = do.pure_state(do.build_symmetric_ket(n, N), N)
    for t in np.linspace(0.0, 2.0, 7):
        evolved = do.evolve_dense(state, float(t), omega, 0.0)
        _, p_r = do.sector_populations_dense(N, evolved.rho)
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
    vec = (do.build_symmetric_ket(n, N) + refs.build_rydberg_ket(n, N)) / math.sqrt(2)
    state = do.pure_state(vec, N)
    gamma = 2.0
    evolved = do.evolve_dense(state, 1.5, 0.0, gamma)
    s = do.build_symmetric_ket(n, N)
    r = refs.build_rydberg_ket(n, N)
    coh = np.vdot(s, evolved.rho @ r)
    # coherence between 0- and 1-Rydberg sectors decays at gamma/2
    assert abs(coh) == pytest.approx(0.5 * math.exp(-gamma * 1.5 / 2.0), abs=1e-8)


def test_projection_normalizes_and_partitions():
    n, N = 2, 4
    state = do.evolve_dense(
        do.pure_state(do.build_symmetric_ket(n, N), N), 0.4, 1.0, 0.3)
    p_no, kept_no = refs.project_dense(state, NO_RYDBERG)
    p_ry, kept_ry = refs.project_dense(state, RYDBERG)
    assert p_no + p_ry == pytest.approx(1.0, abs=1e-10)
    assert np.trace(kept_no.rho).real == pytest.approx(1.0, abs=1e-10)
    assert np.trace(kept_ry.rho).real == pytest.approx(1.0, abs=1e-10)
    assert do.sector_populations_dense(N, kept_ry.rho)[1] == pytest.approx(1.0, abs=1e-12)


def test_impossible_projection_rejected():
    n, N = 1, 2
    state = do.pure_state(do.build_symmetric_ket(n, N), N)
    with pytest.raises(ImpossibleOutcomeError):
        refs.project_dense(state, RYDBERG)


def test_ejection_removes_one_atom_and_preserves_trace():
    n, N = 2, 4
    state = do.pure_state(refs.build_rydberg_ket(n, N), N)
    smaller = refs.eject_dense(state)
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
def symmetric_mixtures(draw, max_atoms=4):
    """Random mixtures of superpositions of the collective S_n and R_n kets."""
    N = draw(st.integers(1, max_atoms))
    kets = [do.build_symmetric_ket(n, N) for n in range(N + 1)]
    kets += [refs.build_rydberg_ket(n, N) for n in range(1, N + 1)]
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


# ---------------------------------------------------------------------------
# input guards and import cost

@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("arg", ["t", "omega", "gamma"])
def test_non_finite_evolution_inputs_rejected(arg, value):
    state = do.pure_state(do.build_symmetric_ket(1, 2), 2)
    for t in (0.0, 0.5):
        kwargs = {"t": t, "omega": 1.0, "gamma": 0.3, arg: value}
        with pytest.raises(DomainError):
            do.evolve_dense(state, **kwargs)


def test_vanishing_time_step_leaves_state_unchanged():
    # a subnormal L*t: exp(L t) is the identity in double precision
    state = do.evolve_dense(do.pure_state(do.build_symmetric_ket(2, 3), 3), 0.7, 1.0, 0.4)
    for omega in (0.0, 1.0):
        evolved = do.evolve_dense(state, 5e-324, omega, 0.4)
        assert np.max(np.abs(evolved.rho - state.rho)) < 1e-15


# Run in a fresh interpreter by the test below: prints, after each step, the
# scipy modules loaded so far.
_SCIPY_PROBE = """
import json, sys
from pathlib import Path

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import rydqnd.cli as cli
from rydqnd import dynamics
from rydqnd.symbasis import build_block

seen = {"import": scipy_modules()}
tmp = Path(sys.argv[1])
record = json.dumps({"entries": [{"tau_s": 2.1e-7, "outcome": m}
                                 for m in ("Rydberg", "NoRydberg", "Rydberg")]})
(tmp / "rec.json").write_text(record)
steps = {
    "simulate-noisy": ["simulate", "--max-cycles", "3", "--outdir", str(tmp / "noisy")],
    "simulate-noiseless": ["simulate", "--gamma-mhz", "0", "--outdir", str(tmp / "pure")],
    "infer-noisy": ["infer", str(tmp / "rec.json"), "--gamma-mhz", "0.3",
                    "--tau-eit-us", "0.3", "--out", str(tmp / "noisy.json")],
    "infer-noiseless": ["infer", str(tmp / "rec.json"), "--out", str(tmp / "pure.json")],
    "analyze-fisher": ["analyze", "fisher", "--out", str(tmp / "fisher.json")],
}
for name, argv in steps.items():
    assert cli.main(argv) == 0, name
    seen[name] = scipy_modules()

omega, tau = 2.0, 7.3 / 2.0  # critical damping: the expm fallback
prop = dynamics._propagator(1, 10, 1, omega, 4.0 * omega, (tau,))[0]
seen["fallback"] = scipy_modules()
import scipy.linalg
ref = scipy.linalg.expm(build_block(1, 10, 1, omega, 4.0 * omega) * tau)
seen["fallback_equal"] = bool((prop == ref).all())

assert cli.main(["oracle-check", "--time-points", "1", "--out", str(tmp / "o.json")]) == 0
seen["oracle-check"] = scipy_modules()
print(json.dumps(seen))
"""


def test_cli_loads_scipy_only_for_oracle_check_and_expm_fallback(tmp_path):
    # simulate, infer and analyze start and run without scipy; the expm
    # fallback and oracle-check load what they use.  One fresh interpreter.
    src = str(Path(do.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, str(tmp_path)], env=env,
                         capture_output=True, text=True, check=True)
    seen = json.loads(out.stdout.splitlines()[-1])
    for step in ("import", "simulate-noisy", "simulate-noiseless", "infer-noisy",
                 "infer-noiseless", "analyze-fisher"):
        assert seen[step] == [], step
    assert "scipy.linalg" in seen["fallback"]
    assert "scipy.sparse.linalg" not in seen["fallback"]
    assert seen["fallback_equal"]
    assert "scipy.sparse.linalg" in seen["oracle-check"]
    assert not any(m.startswith("scipy.integrate") for m in seen["oracle-check"])


def test_unbounded_evolution_raises_resource_error_quickly():
    # ||L t||_1 ~ 1e12 would take ~1e11 expm_multiply steps; the guard refuses it
    state = do.pure_state(do.build_symmetric_ket(1, 2), 2)
    start = time.perf_counter()
    with pytest.raises(ResourceError):
        do.evolve_dense(state, 1e12, 1.0, 0.3)
    with pytest.raises(ResourceError):
        do.evolve_dense_grid([(state, 0.3)], 1e12, 3, 1.0)
    assert time.perf_counter() - start < 1.0


def test_step_guard_sits_far_above_the_oracle_check_horizon():
    # the largest oracle-check ||L T||_1: N = 5, gamma = omega, T = 5 / omega
    N = 5
    full = tuple(range(len(do.basis_states(N))))
    norm = float(abs(do._liouvillian(N, full, 1.0, 1.0)).sum(axis=0).max()) * 5.0
    assert 100 * norm / 9.9 < do.MAX_DENSE_STEPS
    state = do.pure_state(do.build_symmetric_ket(3, N), N)
    assert np.trace(do.evolve_dense(state, 5.0, 1.0, 1.0).rho).real == pytest.approx(1.0)


def _full_rho(state, idx, block):
    """An idx x idx block in a full-size zero rho of the state's shape."""
    rho = np.zeros(state.rho.shape, dtype=complex)
    rho[np.ix_(idx, idx)] = block
    return rho


@given(symmetric_mixtures(), st.floats(0.1, 3.0), st.integers(1, 6),
       st.floats(0.2, 2.0), st.floats(0.0, 1.0))
def test_grid_evolution_matches_single_evolutions(state, t_stop, points, omega, gamma):
    """A one-pair grid is a read-only (points, len(idx), len(idx)) array whose blocks,
    scattered into a full rho, are `evolve_dense` at each time; `evolve_dense` is the
    scattered last block of a two-point grid."""
    [(idx, blocks)] = do.evolve_dense_grid([(state, gamma)], t_stop, points, omega)
    assert blocks.shape == (points, idx.size, idx.size)
    assert not blocks.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        blocks[0, 0, 0] = 0.0
    for t, block in zip(np.linspace(0.0, t_stop, points), blocks):
        single = do.evolve_dense(state, float(t), omega, gamma)
        assert np.max(np.abs(_full_rho(state, idx, block) - single.rho)) < 1e-12
    [(idx, blocks)] = do.evolve_dense_grid([(state, gamma)], t_stop, 2, omega)
    assert np.array_equal(do.evolve_dense(state, t_stop, omega, gamma).rho,
                          _full_rho(state, idx, blocks[-1]))


def test_grid_evolution_rejects_bad_inputs():
    state = do.pure_state(do.build_symmetric_ket(1, 2), 2)
    for args in ((1.0, 0, 1.0), (-1.0, 3, 1.0), (math.nan, 3, 1.0)):
        with pytest.raises(DomainError):
            do.evolve_dense_grid([(state, 0.3)], *args)


@pytest.mark.parametrize("points", [1, 3])
def test_grid_evolution_refuses_a_negative_gamma(points):
    # a negative dephasing rate is not a Lindblad evolution: refused as symbasis refuses it,
    # alone or beside a valid rate, before any series runs
    state = do.pure_state(do.build_symmetric_ket(1, 2), 2)
    for pairs in ([(state, -300.0)], [(state, -1e-300)], [(state, 0.3), (state, -300.0)]):
        with pytest.raises(DomainError, match="gamma must be non-negative"):
            do.evolve_dense_grid(pairs, 1.0, points, 1.0)


@pytest.mark.parametrize("points", [1, 3])
def test_an_empty_stack_evolves_to_no_grids(points):
    assert do.evolve_dense_grid([], 1.0, points, 1.0) == []


def test_vanishing_grid_leaves_state_unchanged():
    # as `evolve_dense` with a subnormal L*t: every block is the input's, read-only
    state = do.evolve_dense(do.pure_state(do.build_symmetric_ket(2, 3), 3), 0.7, 1.0, 0.4)
    [(idx, blocks)] = do.evolve_dense_grid([(state, 0.4)], 5e-324, 3, 1.0)
    assert blocks.shape == (3, idx.size, idx.size)
    assert not blocks.flags.writeable
    for block in blocks:
        assert np.max(np.abs(_full_rho(state, idx, block) - state.rho)) < 1e-15


@st.composite
def stacks(draw):
    """1-4 states, each at 1-3 dephasing rates: the same state at several rates, as
    oracle-check stacks its cells."""
    return [(state, gamma)
            for state in draw(st.lists(symmetric_mixtures(max_atoms=5), min_size=1, max_size=4))
            for gamma in draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3))]


@given(stacks(), st.randoms(), st.floats(0.1, 3.0), st.integers(1, 5), st.floats(0.2, 2.0))
def test_stacked_grids_match_one_state_grids(pairs, random, t_stop, points, omega):
    """Each pair's grid from one list call, in the given order and permuted, is its own
    one-pair grid: the stacked blocks never couple.  Every grid is a read-only view of
    the one series."""
    alone = [do.evolve_dense_grid([pair], t_stop, points, omega)[0] for pair in pairs]
    order = random.sample(range(len(pairs)), len(pairs))
    for indices in (range(len(pairs)), order):
        stacked = do.evolve_dense_grid([pairs[i] for i in indices], t_stop, points, omega)
        assert len(stacked) == len(pairs)
        for i, (idx, blocks) in zip(indices, stacked):
            own_idx, own = alone[i]
            assert np.array_equal(idx, own_idx)
            assert blocks.shape == own.shape == (points, idx.size, idx.size)
            assert not blocks.flags.writeable and blocks.base is stacked[0][1].base
            assert np.max(np.abs(blocks - own)) < 1e-13


def test_one_state_past_a_guard_refuses_the_whole_stack():
    """A one-atom ground state has a zero Liouvillian and evolves alone under any
    drive; stacked with a state whose ||L t||_1 needs too many steps, or whose
    ||L||_1 passes float range, the whole call is refused, at one gamma for every
    pair or at several."""
    ground = do.pure_state(do.build_symmetric_ket(0, 1), 1)
    driven = do.pure_state(do.build_symmetric_ket(2, 5), 5)
    for t_stop, omega, refusal in ((1e6, 1.0, "expm_multiply steps"),
                                   (1.0, 1e308, r"\|\|L\|\|_1 is past float range")):
        assert len(do.evolve_dense_grid([(ground, 0.3)], t_stop, 3, omega)[0][1]) == 3
        for stack in ([ground, driven], [driven, ground], [ground, ground, driven]):
            mixed = [(0.0, 0.3, 1.0)[i % 3] for i in range(len(stack))]
            for gammas in ([0.3] * len(stack), mixed):
                with pytest.raises(ResourceError, match=refusal):
                    do.evolve_dense_grid(list(zip(stack, gammas)), t_stop, 3, omega)
    # the same state at two rates: within the step guard at the first, past it at the second
    assert len(do.evolve_dense_grid([(driven, 0.3)], 1.0, 3, 1.0)[0][1]) == 3
    for gammas in ([0.3, 1e5], [1e5, 0.3]):
        with pytest.raises(ResourceError, match="expm_multiply steps"):
            do.evolve_dense_grid([(driven, gamma) for gamma in gammas], 1.0, 3, 1.0)


@pytest.mark.parametrize("fault, residual", [("trace", 0.1), ("hermiticity", 1e-6)])
def test_a_series_outside_tolerance_is_refused_with_its_residual(fault, residual, monkeypatch):
    """A series whose last point loses a tenth of the trace, or whose first block is not
    Hermitian there by 1e-6, is refused as an integrator fault naming that residual."""
    import scipy.sparse.linalg
    exact = scipy.sparse.linalg.expm_multiply

    def faulty(*args, **kwargs):
        vecs = exact(*args, **kwargs)
        if fault == "trace":
            vecs[-1] *= 1.0 - residual
        else:
            vecs[-1, 1] += residual  # entry (0, 1) of the first block, but not (1, 0)
        return vecs

    monkeypatch.setattr(scipy.sparse.linalg, "expm_multiply", faulty)
    state = do.pure_state(do.build_symmetric_ket(1, 2), 2)
    with pytest.raises(IntegratorError, match="dense evolution outside tolerance") as err:
        do.evolve_dense_grid([(state, 0.0), (state, 0.3)], 1.0, 3, 1.0)
    assert err.value.residual == pytest.approx(residual, rel=1e-6)


def test_one_state_taylor_series_past_float_range_is_refused():
    """A drive whose Liouvillian and trace are finite, but whose Taylor series
    overflows, is refused as a resource limit, not warned about."""
    state = do.pure_state(do.build_symmetric_ket(1, 2), 2)
    omega = 2 * math.pi * 3e306
    with pytest.raises(ResourceError, match="Taylor series passes float range"):
        do.evolve_dense(state, 5 / omega, omega, 0.0)

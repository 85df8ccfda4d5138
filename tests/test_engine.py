"""Protocol engine: scheduling, trajectory simulation, determinism."""

import hashlib
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from rydqnd import engine as eng
from rydqnd.errors import DomainError, InconsistentRecordError, ScheduleExhaustedError
from rydqnd.records import NO_RYDBERG, RYDBERG, FockDistribution, Posterior

OMEGA = 2 * math.pi * 2.5e6
GAMMA = 2 * math.pi * 0.3e6
TAU_EIT = 0.3e-6


def noisy_params(**overrides):
    base = dict(omega=OMEGA, gamma=GAMMA, tau_eit=TAU_EIT, N=10, n_max=4,
                mode=eng.NOISY_FIXED_N, schedule=eng.Schedule.fixed(0.21e-6),
                seed=0, max_cycles=25)
    base.update(overrides)
    return eng.ProtocolParams(**base)


def noiseless_params(**overrides):
    base = dict(omega=OMEGA, gamma=0.0, tau_eit=0.0, N=10, n_max=3,
                mode=eng.NOISELESS_PURE, schedule=eng.Schedule.fixed(0.1e-6),
                seed=0, max_cycles=40)
    base.update(overrides)
    return eng.ProtocolParams(**base)


# ---------------------------------------------------------------------------
# schedules

def test_fixed_schedule_repeats_tau():
    params = noisy_params()
    for hist in ([], [1e-7], [1e-7] * 5):
        assert eng.schedule_next_tau(params.schedule, hist, params) == 0.21e-6


def test_uniform_random_schedule_stays_in_bounds():
    sched = eng.Schedule.uniform_random(0.05e-6, 0.4e-6)
    params = noisy_params(schedule=sched, seed=3, max_cycles=1)
    draws = [log.record.entries[0][0] for log in eng.run_batch(2, params, 100)]
    assert all(0.05e-6 <= t <= 0.4e-6 for t in draws)
    assert len(set(draws)) > 90


def test_precomputed_schedule_exhausts():
    sched = eng.Schedule.precomputed([1e-7, 2e-7])
    params = noisy_params(schedule=sched)
    assert eng.schedule_next_tau(sched, [], params) == 1e-7
    assert eng.schedule_next_tau(sched, [1e-7], params) == 2e-7
    with pytest.raises(ScheduleExhaustedError):
        eng.schedule_next_tau(sched, [1e-7, 2e-7], params)


def test_unknown_schedule_kind_rejected():
    """An unknown kind is refused where the schedule is made; a uniform-random
    schedule has no drive time every trajectory shares."""
    with pytest.raises(DomainError, match="unknown schedule kind 'bogus'"):
        eng.Schedule("bogus")
    with pytest.raises(DomainError):
        eng.schedule_next_tau(eng.Schedule.uniform_random(0.05e-6, 0.4e-6), [], noisy_params())


@pytest.mark.parametrize("kind, given, missing", [
    ("fixed", {}, "tau"), ("uniform-random", {}, "tau_min"),
    ("uniform-random", {"tau_min": 1e-7}, "tau_max"), ("precomputed-list", {}, "taus"),
    ("adaptive-greedy", {}, "grid_points")],
    ids=["fixed", "uniform-random", "uniform-random-no-max", "precomputed-list",
         "adaptive-greedy"])
def test_schedule_without_its_drive_times_rejected(kind, given, missing):
    """A kind without the fields its drive times come from is a `DomainError`
    naming the missing field, before any cycle runs."""
    with pytest.raises(DomainError, match=f"a {kind} schedule needs {missing}$"):
        eng.Schedule(kind, **given)


# every schedule field, with a value its own kind would take
_FIELDS = {"tau": 2e-7, "tau_min": 1e-7, "tau_max": 3e-7, "taus": (1e-7, 2e-7), "grid_points": 10}


@pytest.mark.parametrize("kind, foreign", [
    (kind, key) for kind, own in eng.Schedule.KINDS.items() for key in _FIELDS if key not in own])
def test_schedule_refuses_a_field_foreign_to_its_kind(kind, foreign):
    """A kind takes only the fields its drive times come from: a foreign one is a
    `DomainError` naming the kind and the field, even one that would pass its checks
    (a fixed schedule's tau_min above its tau_max, say)."""
    own = {key: _FIELDS[key] for key in eng.Schedule.KINDS[kind]}
    eng.Schedule(kind, **own)
    with pytest.raises(DomainError, match=f"^a {kind} schedule takes no {foreign}$"):
        eng.Schedule(kind, **own, **{foreign: _FIELDS[foreign]})


@pytest.mark.parametrize("sched", [
    eng.Schedule.fixed(2e-7), eng.Schedule.uniform_random(1e-7, 3e-7),
    eng.Schedule.precomputed([1e-7, 2e-7]), eng.Schedule.adaptive_greedy(12)],
    ids=lambda sched: sched.kind)
def test_schedule_to_dict_holds_exactly_its_kinds_fields(sched):
    own = {key: getattr(sched, key) for key in eng.Schedule.KINDS[sched.kind]}
    expected = {"kind": sched.kind, **{key: list(v) if key == "taus" else v
                                       for key, v in own.items()}}
    assert sched.to_dict() == expected


def test_uniform_random_drive_times_come_from_the_rows_draws():
    """`schedule_next_tau` gives a uniform-random schedule's drive times from the
    rows' draws as `Generator.uniform` would, bit for bit; it draws 1 per row per cycle
    and the other kinds none."""
    sched = eng.Schedule.uniform_random(0.05e-6, 0.4e-6)
    draws = np.random.default_rng(5).random(1000)
    taus = eng.schedule_next_tau(sched, [], noisy_params(schedule=sched), draws)
    lo, hi = 0.05e-6, 0.4e-6
    assert taus.tobytes() == (lo + (hi - lo) * draws).tobytes()
    assert taus.tobytes() == np.random.default_rng(5).uniform(lo, hi, 1000).tobytes()
    assert [s.draws for s in (sched, eng.Schedule.fixed(1e-7), eng.Schedule.precomputed([1e-7]),
                              eng.Schedule.adaptive_greedy())] == [1, 0, 0, 0]


def test_invalid_params_rejected():
    with pytest.raises(DomainError):
        noisy_params(omega=0.0)
    with pytest.raises(DomainError):
        noisy_params(n_max=0)
    with pytest.raises(DomainError):
        noisy_params(mode="other")


@pytest.mark.parametrize("rates", [dict(gamma=5.0), dict(tau_eit=0.3),
                                   dict(gamma=5.0, tau_eit=0.3)])
def test_noiseless_mode_refuses_the_rates_it_does_not_read(rates):
    """A noiseless run would log rates that none of its posteriors depends on."""
    with pytest.raises(DomainError, match="^noiseless-pure mode takes gamma = 0 and tau_eit = 0$"):
        noiseless_params(**rates)


@pytest.mark.parametrize("mode", [eng.NOISELESS_PURE, eng.NOISY_FIXED_N])
def test_candidates_past_the_atom_count_rejected(mode):
    """N atoms store at most N photons: a candidate with weight on n > N is
    refused in both modes, in the CLI's wording, before any cycle runs."""
    cands = [FockDistribution.delta(1, 3), FockDistribution.delta(3, 3)]
    with pytest.raises(DomainError, match=r"need 0 <= n <= N, got n=3, N=2"):
        eng.run_batch(1, eng.ProtocolParams(omega=1.0, N=2, n_max=2, mode=mode,
                                             schedule=eng.Schedule.fixed(0.7),
                                             candidates=cands, max_cycles=20), 2)


@pytest.mark.parametrize("make, initial, message", [
    (noisy_params, np.array([0.0, 1.0, 0.0]),
     r"^noisy mode takes a photon number or a FockDistribution, got array\(\[0\., 1\., 0\.\]\)$"),
    (noisy_params, 2.5, r"^a photon number must be a whole number, got 2\.5$"),
    (noiseless_params, 2.5, r"^a photon number must be a whole number, got 2\.5$"),
], ids=["noisy-amplitudes", "noisy-fraction", "noiseless-fraction"])
def test_an_initial_state_its_mode_cannot_take_is_refused(make, initial, message):
    """Noisy mode takes a photon number or a `FockDistribution`, not amplitudes, and
    neither mode truncates a fractional photon number: `run_batch` and `run_protocol`
    refuse both with a `DomainError` naming the value."""
    params = make(max_cycles=3)
    with pytest.raises(DomainError, match=message):
        eng.run_batch(initial, params, 2)
    with pytest.raises(DomainError, match=message):
        eng.run_protocol(initial, params)


# ---------------------------------------------------------------------------
# the one initial-state path: every kind in both modes, through both entry points

FOCK = FockDistribution(np.array([0.0, 0.5, 0.3, 0.2]))
AMPLITUDES = np.array([0.0, 0.6, 0.8j])
MODES = {"noiseless": eng.NOISELESS_PURE, "noisy": eng.NOISY_FIXED_N}
# sha256 of the logs of `run_batch(initial, params, 3)` and of `run_protocol(initial, params,
# (4, 1))` under `_initial_params`, captured before the two modes shared one initial path
INITIAL_DIGESTS = {
    ("noiseless", "whole"): ("8354b71040b794f457ba562f1c4ad3f5bd17f651911d301e4ab18304b74cf11c",
                             "1b6135da9cd33646bb3bd455fbfa972609f4ae2836d9eaea2e5eb4a7bcd3a1d4"),
    ("noiseless", "fock"): ("dd00400c72e730e9cd452eb08fea5f0efd0970ee1a09887f03b900660ce75d27",
                            "a79130f7ef4e46764eecf2447d3d1f4cdd4cce1f564bb218132f171f6f897337"),
    ("noiseless", "amplitudes"): ("aea97aa74c6ee7f25f907244940537e38b40a41eec9b440eecda0af5d44df310",
                                  "b1792895d63e14d5067a2af00f5f7600a310a4cc0e49034d1f4c2e7f4cf58854"),
    ("noisy", "whole"): ("b5f34b1e2ec6e9f1f20ca8830eab7b9c6c1b8cb65ac0be80faad836b64e05f1b",
                         "978568fcc452115b986ad5ba8160106a220521931e560fdd9bb48399a5c34436"),
    ("noisy", "fock"): ("34ad115d23afeed6b04b92700ac3df7c9b283412651a12c8d91040cb8628db05",
                        "3566d646c801358135192f4edae6483de7a431f6b34fdfa019d7c26fcb0f49c4"),
}
INITIALS = {"whole": 2, "integral-float": 2.0, "fock": FOCK, "amplitudes": AMPLITUDES,
            "fraction": 2.5, "past-N": 4, "past-int64": 2**70,
            "fock-past-N": FockDistribution(np.array([0.0, 0.5, 0.0, 0.0, 0.5]))}
# each refused kind's one message, per mode (an entry of neither runs)
REFUSALS = {
    ("noisy", "amplitudes"): f"noisy mode takes a photon number or a FockDistribution, "
                             f"got {AMPLITUDES!r}",
    **{(mode, "fraction"): "a photon number must be a whole number, got 2.5" for mode in MODES},
    **{(mode, "past-N"): "need 0 <= n <= N, got n=4, N=3" for mode in MODES},
    **{(mode, "past-int64"): f"need 0 <= n <= N, got n={2**70}, N=3" for mode in MODES},
    **{(mode, "fock-past-N"): "need 0 <= n <= N, got n=4, N=3" for mode in MODES},
}


def _initial_params(mode: str, **overrides) -> eng.ProtocolParams:
    noisy = MODES[mode] == eng.NOISY_FIXED_N
    base = dict(omega=OMEGA, gamma=GAMMA if noisy else 0.0, tau_eit=TAU_EIT if noisy else 0.0,
                N=3, n_max=3, mode=MODES[mode], schedule=eng.Schedule.uniform_random(0.05e-6, 0.4e-6),
                seed=3, max_cycles=6, trace_points=2)
    base.update(overrides)
    return eng.ProtocolParams(**base)


def _digest(logs) -> str:
    return hashlib.sha256("\n".join(log.to_json() for log in logs).encode()).hexdigest()


class _Untouched:
    """A generator that fails any draw: a refusal raised through it came before the draws."""

    def __getattr__(self, name):
        raise AssertionError(f"a draw ({name}) before the initial state was read")


def _undrawn(monkeypatch) -> None:
    """Make every batch's generators fail on their first draw."""
    monkeypatch.setattr(eng, "_generators", lambda seed, keys: [_Untouched() for _ in keys])


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("kind", INITIALS)
def test_each_initial_kind_runs_the_earlier_bytes_or_is_refused_before_any_draw(
        monkeypatch, mode, kind):
    """One path reads the initial state in both modes, through `run_batch` (3 trajectories,
    and none) and `run_protocol`: a refused kind raises its rule's one message before any
    generator draws, whatever the batch size; an accepted one gives the logs it gave when
    each mode had its own path (an integral float those of its whole number)."""
    initial, params = INITIALS[kind], _initial_params(mode)
    refusal = REFUSALS.get((mode, kind))
    if refusal is None:
        digests = INITIAL_DIGESTS[mode, "whole" if kind == "integral-float" else kind]
        assert _digest(eng.run_batch(initial, params, 3)) == digests[0]
        assert _digest([eng.run_protocol(initial, params, (4, 1))]) == digests[1]
        assert eng.run_batch(initial, params, 0) == []
        return
    _undrawn(monkeypatch)
    for run in (lambda: eng.run_batch(initial, params, 3), lambda: eng.run_batch(initial, params, 0),
                lambda: eng.run_protocol(initial, params, (4, 1))):
        with pytest.raises(DomainError, match=f"^{re.escape(refusal)}$"):
            run()


def test_noisy_rows_draw_their_photon_numbers_from_their_own_streams():
    """A noisy `FockDistribution` row draws its photon number first, by `Generator.choice`
    on the stream of its spawn key, as a lone trajectory does."""
    params = _initial_params("noisy")
    drawn = [log.n_true for log in eng.run_batch(FOCK, params, 8)]
    assert drawn == [int(np.random.default_rng(np.random.SeedSequence(3, spawn_key=(i,)))
                         .choice(4, p=FOCK.p)) for i in range(8)]
    assert drawn == [2, 1, 1, 1, 2, 3, 1, 3]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", range(20))
def test_a_weight_past_n_is_refused_on_every_seed_before_any_draw(monkeypatch, mode, seed):
    """N = 2 atoms and weight on n = 3: refused on every seed in both modes before any
    generator draws.  When the noisy mode checked N only on each row's drawn photon
    number, seeds 5, 9, 15 and 18 drew n <= 2 for their one row and ran."""
    _undrawn(monkeypatch)
    params = _initial_params(mode, N=2, n_max=2, seed=seed)
    with pytest.raises(DomainError, match=r"^need 0 <= n <= N, got n=3, N=2$"):
        eng.run_batch(FockDistribution(np.array([0.0, 0.5, 0.0, 0.5])), params, 1)


@pytest.mark.parametrize("field", ["trace_points", "seed"])
def test_negative_trace_points_and_seed_rejected(field):
    with pytest.raises(DomainError):
        noisy_params(**{field: -1})


@pytest.mark.parametrize("n", [-1, -5, 4])
def test_delta_rejects_photon_numbers_outside_its_range(n):
    # numpy's negative indexing would otherwise put the delta at n_max + 1 + n
    with pytest.raises(DomainError):
        FockDistribution.delta(n, 3)


# ---------------------------------------------------------------------------
# trajectories

def test_noisy_trajectory_structure():
    params = noisy_params(trace_points=4)
    log = eng.run_protocol(2, params)
    T = len(log.record)
    # posteriors[0] is the prior, then one entry per observation cycle
    assert len(log.posteriors) == T + 1
    assert len(log.fidelities) == T
    assert log.n_true == 2
    assert all(e[1] in (NO_RYDBERG, RYDBERG) for e in log.record.entries)
    for weights in log.posteriors:
        assert sum(weights) == pytest.approx(1.0, abs=1e-9)
    if log.converged:
        assert max(log.posteriors[-1]) >= params.threshold
    phases = {row["phase"] for row in log.trace}
    assert phases == {"init", "drive", "measure", "collapse"}


def test_noiseless_trajectory_has_unit_fidelity():
    params = noiseless_params()
    log = eng.run_protocol(1, params)
    assert all(f == 1.0 for f in log.fidelities)
    assert log.converged


def test_threshold_stops_the_run():
    params = noisy_params(threshold=0.5, max_cycles=25)
    log = eng.run_protocol(2, params)
    assert log.converged
    assert max(log.posteriors[-1]) >= 0.5
    assert len(log.record) < 25


@pytest.mark.parametrize("make", [noisy_params, noiseless_params])
def test_a_posterior_of_exactly_the_threshold_stops_the_run(make):
    """At tau = pi / (2 Omega) one photon gives a Rydberg outcome and the
    vacuum cannot, so the posterior over delta_0 and delta_1 is exactly [0, 1]:
    at threshold 1.0 every trajectory stops after one cycle, converged."""
    cands = [FockDistribution.delta(0, 1), FockDistribution.delta(1, 1)]
    params = make(gamma=0.0, tau_eit=0.0, n_max=1, candidates=cands, threshold=1.0,
                  schedule=eng.Schedule.fixed(math.pi / (2 * OMEGA)))
    for log in eng.run_batch(1, params, 8):
        assert log.posteriors[-1].tolist() == [0.0, 1.0]
        assert len(log.record) == 1 and log.converged


def test_determinism_of_serialized_logs():
    params = noisy_params(seed=13, trace_points=3)
    a = eng.run_protocol(2, params).to_json()
    b = eng.run_protocol(2, params).to_json()
    assert a == b
    # different seed gives a different record with near-certainty
    c = eng.run_protocol(2, noisy_params(seed=14, trace_points=3)).to_json()
    assert a != c


def test_batch_uses_independent_spawned_streams():
    params = noisy_params(seed=5)
    logs = eng.run_batch(2, params, 4)
    assert [log.seed_key for log in logs] == [[i] for i in range(4)]
    jsons = {log.to_json() for log in logs}
    assert len(jsons) == 4
    # re-running the batch reproduces it exactly
    again = eng.run_batch(2, params, 4)
    assert [log.to_json() for log in again] == [log.to_json() for log in logs]


@pytest.mark.parametrize("seed", [0, 5, 2**32 + 7, 2**160 + 1])
@pytest.mark.parametrize("n_trajectories", [1, 3, 200])
def test_batch_generators_draw_the_streams_of_their_spawn_keys(monkeypatch, seed,
                                                                n_trajectories):
    """Generator i of a batch draws what NumPy's own `SeedSequence` gives for spawn key
    (i,): the batch's streams are those of per-trajectory seeding, whatever the batch size."""
    taken = {}
    monkeypatch.setattr(eng, "_run", lambda initial, params, rngs, keys:
                        taken.update(rngs=rngs, keys=keys) or [])
    params = noiseless_params(seed=seed)
    eng.run_batch(2, params, n_trajectories)
    assert [tuple(key) for key in taken["keys"]] == [(i,) for i in range(n_trajectories)]
    for i, rng in enumerate(taken["rngs"]):
        expected = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        assert rng.random(8).tolist() == expected.random(8).tolist()
        assert rng.integers(0, 2**63, 4).tolist() == expected.integers(0, 2**63, 4).tolist()


def test_ejection_decrements_photon_number():
    params = noisy_params(ejection_enabled=True, seed=2, max_cycles=15,
                          threshold=1.1)  # never stop early
    log = eng.run_protocol(2, params)
    rydberg_count = sum(1 for _, m in log.record.entries if m == RYDBERG)
    assert log.ejections == rydberg_count
    assert log.ejections > 0


def test_noiseless_distribution_sampling_uses_amplitudes():
    dist = FockDistribution(np.array([0.0, 0.5, 0.5]))
    params = noiseless_params(n_max=2)
    state, n_true = eng.initial_state(dist, params, [])
    assert np.allclose(np.abs(state.a) ** 2, dist.p)


def test_noisy_distribution_sampling_is_classical():
    dist = FockDistribution(np.array([0.0, 0.3, 0.7]))
    params = noisy_params(seed=1, max_cycles=1)
    draws = [log.n_true for log in eng.run_batch(dist, params, 300)]
    freq = np.bincount(draws, minlength=3) / 300
    assert abs(freq[1] - 0.3) < 3 * math.sqrt(0.3 * 0.7 / 300)


def test_trajectory_log_round_trips_through_json():
    params = noisy_params(seed=7)
    log = eng.run_protocol(2, params)
    doc = json.loads(log.to_json())
    assert doc["n_true"] == 2
    assert doc["converged"] == log.converged
    assert len(doc["record"]) == len(log.record)
    assert doc["params"]["omega_rad_s"] == OMEGA


def test_adaptive_greedy_schedule_runs():
    params = noiseless_params(schedule=eng.Schedule.adaptive_greedy(grid_points=50),
                              max_cycles=6, n_max=3)
    log = eng.run_protocol(2, params)
    assert len(log.record) >= 1
    taus = {tau for tau, _ in log.record.entries}
    assert all(t > 0 for t in taus)


@pytest.mark.parametrize("schedule", [eng.Schedule.fixed(0.0), eng.Schedule.uniform_random(0.0, 0.0)])
@pytest.mark.parametrize("make", [noisy_params, noiseless_params])
def test_traced_run_with_zero_drive_time_writes_no_drive_rows(make, schedule):
    """A drive of length zero has no sub-steps to trace: the run goes on and
    logs the other phases."""
    logs = eng.run_batch(2, make(schedule=schedule, trace_points=8, max_cycles=5), 2)
    for log in logs:
        assert len(log.record) == 5 and all(tau == 0.0 for tau, _ in log.record.entries)
        phases = [row["phase"] for row in log.trace]
        assert "drive" not in phases and phases.count("collapse") == 5


def test_one_sub_step_grid_per_shared_drive_time_is_the_per_row_grid():
    """A drive time every row shares gets one `linspace` grid, broadcast over the
    rows; it has the bytes of the per-row `linspace(..., axis=-1)` grid."""
    rng = np.random.default_rng(5)
    for _ in range(5000):
        tau = float(10.0 ** rng.uniform(-12, 2))
        points = int(rng.integers(1, 40))
        rows = np.full(3, tau)
        per_row = np.linspace(rows / points, rows, points, axis=-1)
        shared = np.broadcast_to(np.linspace(tau / points, tau, points), per_row.shape)
        assert per_row.tobytes() == shared.tobytes()


def test_an_inconsistent_record_names_its_trajectory():
    """With ejection, a third Rydberg outcome has zero likelihood under candidates
    of at most two photons.  Trajectory 0 converges on the vacuum-or-two mixture
    after two NoRydberg outcomes and leaves the batch; trajectory 2 then gives its
    third Rydberg outcome in cycle 3, as the batch's row 1, and the error names
    trajectory 2."""
    cands = [FockDistribution.delta(2, 2), FockDistribution(np.array([0.5, 0.0, 0.5]))]
    params = eng.ProtocolParams(omega=1.0, N=6, n_max=3, mode=eng.NOISELESS_PURE,
                                schedule=eng.Schedule.fixed(1.2), seed=11, max_cycles=80,
                                ejection_enabled=True, candidates=cands)
    initial = FockDistribution.delta(3, 3)
    first = eng.run_protocol(initial, params, (0,))
    assert first.converged and len(first.record) == 2
    failing = eng.run_protocol(initial, replace(params, max_cycles=2), (2,))
    assert [outcome for _, outcome in failing.record.entries] == [RYDBERG, RYDBERG]
    with pytest.raises(InconsistentRecordError, match="from trajectory 2$"):
        eng.run_batch(initial, params, 8)
    # a lone trajectory is named by its seed key too
    with pytest.raises(InconsistentRecordError, match="from trajectory 2$"):
        eng.run_protocol(initial, params, (2,))
    with pytest.raises(InconsistentRecordError, match=r"from trajectory \[7, 2\]$"):
        eng.run_protocol(initial, params, (7, 2))

import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qbattery.thermo as thermo
from qbattery import (
    BatteryState,
    SystemParams,
    charging_power,
    energy,
    ergotropy,
    ergotropy_ratio,
    fock_state,
    passive_state,
    run_protocol,
    snapshot,
    thermal_state,
)

PARAMS = SystemParams(n_levels=100, g=0.04, delta=0.02, beta=0.05)


def test_energy_trivials():
    assert energy(fock_state(0, 10), PARAMS) == 0.0
    assert energy(fock_state(7, 10), PARAMS) == pytest.approx(7 * PARAMS.omega_b)
    thermal = thermal_state(PARAMS)
    assert energy(thermal, PARAMS) == pytest.approx(19.19099230 * PARAMS.omega_b, rel=1e-8)


def test_passive_state_simple_sort():
    state = BatteryState.diagonal([0.2, 0.8])
    passive = passive_state(state)
    assert np.allclose(passive.populations, [0.8, 0.2])


def test_passive_state_of_fock_is_vacuum():
    passive = passive_state(fock_state(6, 10))
    assert passive.populations[0] == pytest.approx(1.0)


def test_passive_state_idempotent():
    rng = np.random.default_rng(0)
    raw = rng.uniform(size=30)
    state = BatteryState.diagonal(raw / raw.sum())
    once = passive_state(state)
    twice = passive_state(once)
    assert np.abs(once.populations - twice.populations).max() < 1e-15


def test_passive_state_diagonalizes_general_states():
    rho = np.array([[0.5, 0.25], [0.25, 0.5]], dtype=complex)
    passive = passive_state(BatteryState.from_matrix(rho))
    assert np.allclose(passive.populations, [0.75, 0.25])


def test_passive_is_energy_minimizing_over_permutations():
    # brute force over every permutation of a small population vector
    rng = np.random.default_rng(1)
    params = SystemParams(n_levels=5, g=0.04)
    raw = rng.uniform(size=6)
    pops = raw / raw.sum()
    passive_energy = energy(passive_state(BatteryState.diagonal(pops)), params)
    for perm in itertools.permutations(range(6)):
        permuted = energy(BatteryState.diagonal(pops[list(perm)]), params)
        assert permuted >= passive_energy - 1e-12


def test_thermal_state_is_its_own_passive_state():
    thermal = thermal_state(PARAMS)
    assert np.abs(
        passive_state(thermal).populations - thermal.populations
    ).max() < 1e-15


def test_ergotropy_of_thermal_state_is_zero():
    assert ergotropy(thermal_state(PARAMS), PARAMS) == pytest.approx(0.0, abs=1e-12)


def test_ergotropy_of_fock_equals_energy():
    state = fock_state(9, 20)
    assert ergotropy(state, PARAMS) == pytest.approx(energy(state, PARAMS), abs=1e-12)


def test_ergotropy_brute_force_permutation_oracle():
    # on a diagonal state the passive energy is the minimum over every
    # permutation of the populations, so ergotropy has an exhaustive oracle
    rng = np.random.default_rng(2)
    params = SystemParams(n_levels=7, g=0.04)
    levels = np.arange(8)
    for _ in range(5):
        raw = rng.uniform(size=8)
        pops = raw / raw.sum()
        state = BatteryState.diagonal(pops)
        value = ergotropy(state, params)
        assert 0.0 <= value <= energy(state, params) + 1e-12
        brute_min = min(
            params.omega_b * float(levels @ pops[list(perm)])
            for perm in itertools.permutations(range(8))
        )
        assert value == pytest.approx(energy(state, params) - brute_min, abs=1e-12)


def test_passive_energy_is_permutation_invariant():
    rng = np.random.default_rng(3)
    params = SystemParams(n_levels=8, g=0.04)
    raw = rng.uniform(size=9)
    pops = raw / raw.sum()
    base = energy(passive_state(BatteryState.diagonal(pops)), params)
    for _ in range(10):
        shuffled = rng.permutation(pops)
        assert energy(
            passive_state(BatteryState.diagonal(shuffled)), params
        ) == pytest.approx(base, abs=1e-12)


def test_ergotropy_ratio_conventions():
    assert ergotropy_ratio(fock_state(0, 5), PARAMS) == 0.0
    assert ergotropy_ratio(fock_state(3, 5), PARAMS) == pytest.approx(1.0)


def test_snapshot_power_field():
    state = fock_state(2, 5)
    snap = snapshot(state, PARAMS)
    assert snap.power is None
    snap = snapshot(state, PARAMS, previous_energy=0.0, tau=2.0)
    assert snap.power == pytest.approx(energy(state, PARAMS) / 2.0)


def test_snapshot_matches_the_functions_with_one_passive_state(monkeypatch):
    rho = np.array([[0.5, 0.2j, 0.0], [-0.2j, 0.3, 0.1], [0.0, 0.1, 0.2]])
    states = (fock_state(0, 5), fock_state(3, 5), thermal_state(PARAMS), BatteryState.from_matrix(rho))
    calls = []
    passive = thermo.passive_state
    monkeypatch.setattr(thermo, "passive_state", lambda s: calls.append(s) or passive(s))
    for state in states:
        calls.clear()
        snap = snapshot(state, PARAMS)
        reads = snap.ergotropy, snap.ratio, snap.ergotropy, snap.ratio
        assert len(calls) == 1
        assert reads[:2] == reads[2:] == (ergotropy(state, PARAMS), ergotropy_ratio(state, PARAMS))


def test_charging_power_matches_recorded_snapshots():
    trajectory = run_protocol(thermal_state(PARAMS), PARAMS, "power_on", 10, "analytic")
    for m in (1, 5, 10):
        assert charging_power(trajectory, m) == pytest.approx(
            trajectory.rounds[m - 1].thermo.power, abs=1e-12
        )
    with pytest.raises(IndexError):
        charging_power(trajectory, 0)
    with pytest.raises(IndexError):
        charging_power(trajectory, 11)


def test_charging_power_scales_with_sqrt_mean():
    # once the distribution has narrowed (a few rounds in), each round
    # gains ~1 quantum, so the power tracks omega_b * 2 g sqrt(nbar + 1) / pi
    trajectory = run_protocol(thermal_state(PARAMS), PARAMS, "power_on", 40, "analytic")
    from qbattery import mean_occupation

    state = trajectory.initial_state
    for m in range(1, 41):
        nbar = mean_occupation(state)
        predicted = PARAMS.omega_b * 2 * PARAMS.g * np.sqrt(nbar + 1.0) / np.pi
        if m >= 5:
            assert charging_power(trajectory, m) == pytest.approx(predicted, rel=0.1)
        state = trajectory.rounds[m - 1].post_state


def test_zero_energy_change_means_zero_power():
    from qbattery import RoundRecord, Trajectory

    state = fock_state(3, 5)
    rec = RoundRecord(state, 0.5, 2.0, "power_on", snapshot(state, PARAMS, energy(state, PARAMS), 2.0))
    trajectory = Trajectory(
        rounds=(rec,), cumulative_probability=0.5, scheme="power_on",
        params=PARAMS, initial_state=state,
    )
    assert charging_power(trajectory, 1) == pytest.approx(0.0, abs=1e-15)


@functools.lru_cache(maxsize=None)
def level_permutations(dim):
    """Every assignment of dim eigenvalues to the dim levels, one per row."""
    return np.array(list(itertools.permutations(range(dim))), dtype=np.int8)


@st.composite
def ergotropy_cases(draw):
    """(state, params) with N <= 8: a diagonal state, a general state, or
    a general state whose lowest eigenvalue is dust below zero, which
    ``from_matrix`` accepts within PSD_ATOL and ``passive_state`` clips."""
    params = SystemParams(n_levels=draw(st.integers(1, 8)), g=0.04, delta=draw(st.floats(-0.5, 0.5)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["diagonal", "general", "dusty"]))
    dim = params.dim
    if kind == "diagonal":
        p = rng.uniform(size=dim) ** 3
        return BatteryState.diagonal(p / p.sum()), params
    # a rank below dim gives zero eigenvalues, as post-measurement states have
    shape = (dim, draw(st.integers(1, dim)))
    a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    vals, vecs = np.linalg.eigh(a @ a.conj().T)
    vals /= vals.sum()
    if kind == "dusty":
        # below NEGATIVE_DUST, so the passive state is built only through
        # passive_state's clip, which moves its energy by at most
        # N omega_b |vals[0]| < 1e-12
        vals[0] = -rng.uniform(2e-14, 5e-14)
        vals[1:] *= (1.0 - vals[0]) / vals[1:].sum()
    return BatteryState.from_matrix((vecs * vals) @ vecs.conj().T), params


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(ergotropy_cases())
def test_ergotropy_matches_a_search_over_level_permutations_property(case):
    # the passive state minimizes the energy over all unitaries, which for a
    # fixed spectrum means over all assignments of eigenvalues to levels
    state, params = case
    spectrum = np.linalg.eigvalsh(state.matrix)
    levels = params.omega_b * np.arange(params.dim)
    passive_energy = (spectrum[level_permutations(params.dim)] @ levels).min()
    brute = max(energy(state, params) - passive_energy, 0.0)
    assert ergotropy(state, params) == pytest.approx(brute, abs=1e-12)

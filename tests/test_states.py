import math

import numpy as np
import pytest

from qbattery import (
    BatteryState,
    ChargerSpec,
    SystemParams,
    diagonal_fidelity,
    fano_ratio,
    fock_state,
    gaussian_reference,
    mean_occupation,
    occupation_variance,
    thermal_populations,
    thermal_state,
)

PARAMS = SystemParams(n_levels=100, g=0.04, delta=0.02, beta=0.05)


def test_system_params_validation():
    with pytest.raises(ValueError):
        SystemParams(n_levels=0, g=0.04)
    with pytest.raises(ValueError):
        SystemParams(n_levels=10, g=-0.1)
    with pytest.raises(ValueError):
        SystemParams(n_levels=10, g=0.04, beta=-1.0)
    with pytest.raises(ValueError):
        SystemParams(n_levels=10, g=0.04, delta=1.0)  # omega_b would vanish
    for field, bad in [("g", math.nan), ("g", math.inf), ("delta", math.nan), ("delta", -math.inf),
                       ("omega_c", math.inf), ("omega_c", math.nan), ("beta", math.nan)]:
        with pytest.raises(ValueError, match=field):
            SystemParams(**{"n_levels": 10, "g": 0.04, field: bad})
    assert SystemParams(n_levels=10, g=0.04, beta=math.inf).beta == math.inf


def test_delta_relation_holds_by_construction():
    p = SystemParams(n_levels=5, g=0.1, delta=0.03, omega_c=1.0)
    assert p.delta == pytest.approx(p.omega_c - p.omega_b, abs=1e-15)


def test_charger_spec_validation():
    ChargerSpec(q=0.5, theta=1.0, c=0.3)
    with pytest.raises(ValueError):
        ChargerSpec(q=-0.1, theta=0.0)
    with pytest.raises(ValueError):
        ChargerSpec(q=0.5, theta=4.0)
    with pytest.raises(ValueError):
        ChargerSpec(q=0.5, theta=1.0, c=2.0)


def test_charger_density_matrix_is_a_state():
    spec = ChargerSpec(q=0.3, theta=0.7, c=1.0)
    rho = spec.density_matrix()
    assert np.trace(rho).real == pytest.approx(1.0)
    assert np.linalg.eigvalsh(rho).min() >= -1e-15


def test_thermal_ground_state_limit():
    p = SystemParams(n_levels=20, g=0.04, beta=math.inf)
    pops = thermal_populations(p)
    expected = np.zeros(21)
    expected[0] = 1.0
    assert np.array_equal(pops, expected)


def test_thermal_infinite_temperature_limit():
    p = SystemParams(n_levels=20, g=0.04, beta=0.0)
    pops = thermal_populations(p)
    assert np.allclose(pops, 1.0 / 21.0, atol=1e-15)


def test_thermal_matches_closed_form():
    # Independent evaluation of the truncated Gibbs formula, term by term.
    pops = thermal_populations(PARAMS)
    x = PARAMS.beta * PARAMS.omega_b
    norm = 1.0 - math.exp(-x * (PARAMS.n_levels + 1))
    for n in (0, 1, 17, 50, 100):
        expected = (math.exp(-x * n) - math.exp(-x * (n + 1))) / norm
        assert pops[n] == pytest.approx(expected, rel=1e-13)
    assert pops.sum() == pytest.approx(1.0, abs=1e-12)


def test_thermal_strictly_decreasing_and_monotone_in_beta():
    pops = thermal_populations(PARAMS)
    assert (np.diff(pops) < 0).all()
    ground = [
        thermal_populations(SystemParams(n_levels=50, g=0.04, beta=b))[0]
        for b in (0.01, 0.05, 0.2, 1.0, 5.0)
    ]
    assert (np.diff(ground) > 0).all()


def test_thermal_mean_paper_scale():
    # beta = 0.05, N = 100: mean sits near 19 ladder quanta
    mean = mean_occupation(thermal_state(PARAMS))
    brute = sum(n * p for n, p in enumerate(thermal_populations(PARAMS)))
    assert mean == pytest.approx(brute, abs=1e-12)
    assert mean == pytest.approx(19.190992301817747, abs=1e-10)


def test_mean_occupation_trivials():
    assert mean_occupation(fock_state(0, 10)) == 0.0
    assert mean_occupation(fock_state(7, 10)) == pytest.approx(7.0)


def test_occupation_variance():
    assert occupation_variance(fock_state(5, 10)) == pytest.approx(0.0, abs=1e-12)
    two_point = BatteryState.diagonal([0.5, 0.5])
    assert occupation_variance(two_point) == pytest.approx(0.25)


def test_occupation_variance_keeps_its_digits_at_high_mean():
    # p(1-p) on levels 80 and 81: sum n^2 p - mean^2 loses ~1e-10 relative
    pops = np.zeros(101)
    pops[[80, 81]] = [0.01, 0.99]
    state = BatteryState.diagonal(pops)
    assert occupation_variance(state) == pytest.approx(0.01 * 0.99, rel=1e-14)


def test_fano_ratio():
    assert fano_ratio(fock_state(3, 10)) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        fano_ratio(fock_state(0, 10))
    # thermal distributions sit near mean + 1 (super-Poissonian)
    p = SystemParams(n_levels=100, g=0.04, beta=0.1)
    state = thermal_state(p)
    mean = mean_occupation(state)
    assert fano_ratio(state) == pytest.approx(mean + 1.0, rel=0.02)


def test_diagonal_fidelity():
    a = thermal_state(PARAMS)
    assert diagonal_fidelity(a, a) == pytest.approx(1.0, abs=1e-12)
    assert diagonal_fidelity(fock_state(2, 10), fock_state(7, 10)) == 0.0
    b = fock_state(50, 100)
    assert diagonal_fidelity(a, b) == pytest.approx(diagonal_fidelity(b, a), abs=1e-15)
    general = BatteryState.from_matrix(
        np.array([[0.5, 0.2], [0.2, 0.5]], dtype=complex)
    )
    with pytest.raises(ValueError):
        diagonal_fidelity(general, fock_state(0, 1))


def test_diagonal_fidelity_is_one_only_for_identical_states():
    a = thermal_state(PARAMS)
    shifted = np.roll(a.populations, 1)
    b = BatteryState.diagonal(shifted)
    assert diagonal_fidelity(a, b) < 1.0 - 1e-6


def test_gaussian_reference_moments():
    state = gaussian_reference(mean=50.0, variance=6.5, n_levels=100)
    # direct moment sums, independent of the diagnostics helpers
    n = np.arange(101)
    p = state.populations
    mean = float(n @ p)
    var = float(n * n @ p) - mean**2
    assert mean == pytest.approx(50.0, rel=1e-6)
    assert var == pytest.approx(6.5, rel=1e-6)


def test_gaussian_reference_symmetry_and_delta_limit():
    sym = gaussian_reference(mean=50.0, variance=1000.0, n_levels=100)
    assert mean_occupation(sym) == pytest.approx(50.0, abs=1e-10)
    spike = gaussian_reference(mean=50.0, variance=1e-6, n_levels=100)
    assert spike.populations[50] == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        gaussian_reference(mean=50.0, variance=0.0, n_levels=100)
    with pytest.raises(ValueError):
        gaussian_reference(mean=200.0, variance=1.0, n_levels=100)


def test_battery_state_validation():
    with pytest.raises(ValueError):
        BatteryState.diagonal([0.5, 0.6])          # not normalized
    with pytest.raises(ValueError):
        BatteryState.diagonal([1.1, -0.1])         # real negative weight
    # rounding dust is clamped and renormalized
    state = BatteryState.diagonal([1.0 + 1e-15, -1e-15])
    assert state.populations[1] == 0.0
    from qbattery.states import SUM_ATOL

    assert abs(state.populations.sum() - 1.0) <= SUM_ATOL


def test_battery_state_is_immutable():
    state = fock_state(1, 5)
    with pytest.raises(ValueError):
        state.populations[0] = 0.5


def test_from_matrix_roundtrip_and_diagonal_snap():
    rho = np.diag([0.25, 0.25, 0.5]).astype(complex)
    rho[0, 1] = rho[1, 0] = 0.1
    state = BatteryState.from_matrix(rho)
    assert not state.is_diagonal
    assert np.allclose(state.matrix, rho)
    snapped = BatteryState.from_matrix(np.diag([0.5, 0.5]).astype(complex))
    assert snapped.is_diagonal
    with pytest.raises(ValueError):
        BatteryState.from_matrix(np.array([[0.5, 0.4], [0.1, 0.5]]))  # not Hermitian


def test_from_matrix_rejects_unphysical_spectra():
    rho = np.diag([1.2, -0.2]).astype(complex)
    rho[0, 1] = rho[1, 0] = 0.3
    with pytest.raises(ValueError):
        BatteryState.from_matrix(rho)

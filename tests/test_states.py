import math
import re
from collections import Counter
from pathlib import Path

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
    # numpy integers count as integers; a bool or a float does not
    assert SystemParams(n_levels=np.int64(10), g=0.04).dim == 11
    for bad in (2.5, 2.0, True, np.float64(3.0)):
        with pytest.raises(ValueError, match="n_levels must be an integer >= 1"):
            SystemParams(n_levels=bad, g=0.04)
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


def overflowing_coherence():
    # a NaN element fails the Hermiticity check first; this finite one
    # becomes inf + NaN j when symmetrized and reaches the positivity test
    with np.errstate(over="ignore", invalid="ignore"):
        return BatteryState.from_matrix([[0.5, 1e308], [1e308, 0.5]])


@pytest.mark.parametrize("build", [
    lambda: BatteryState.diagonal([math.nan, 0.5]),
    lambda: BatteryState.from_matrix([[0.5, math.nan], [math.nan, 0.5]]),
    overflowing_coherence,
    lambda: gaussian_reference(5.0, math.nan, 10),
    lambda: gaussian_reference(5.0, math.inf, 10),
], ids=["population", "hermiticity", "positivity", "variance", "infinite-variance"])
def test_nan_fails_every_tolerance_check(build):
    # a check written "x > tol: raise" lets NaN through; an infinite
    # variance would flatten the profile to the uniform distribution
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("populations", [
    [1.0 + 1e-15, -1e-15], [-0.0, 0.25, 0.75], [0.5, -0.0, 0.5], [0.3, 0.7], [-1e-15, 0.0, -0.0, 1.0 + 1e-15],
])
def test_battery_state_normalizes_like_clipping(populations):
    # the populations are those of np.clip and a fresh sum, bit for bit:
    # dust and -0.0 become +0.0, and the caller's array is left writable
    given = np.array(populations)
    clipped = np.clip(given, 0.0, None)
    state = BatteryState.diagonal(given)
    assert state.populations.tobytes() == (clipped / clipped.sum()).tobytes()
    assert not np.signbit(state.populations).any()
    assert given.flags.writeable


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


@pytest.mark.parametrize("shape", [(2, 3), (1, 2, 2), (4,), (1, 1), (0, 0)])
def test_from_matrix_rejects_a_non_square_input(shape):
    with pytest.raises(ValueError, match=r"density matrix must be square and at least 2 x 2, got shape"):
        BatteryState.from_matrix(np.full(shape, 0.5))


def test_from_matrix_rejects_unphysical_spectra():
    rho = np.diag([1.2, -0.2]).astype(complex)
    rho[0, 1] = rho[1, 0] = 0.3
    with pytest.raises(ValueError):
        BatteryState.from_matrix(rho)


def random_density_matrix(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def test_general_state_is_diagonalized_on_the_first_read_of_its_spectrum(linalg_calls):
    rho = random_density_matrix(np.random.default_rng(11), 6)
    linalg_calls.clear()
    state = BatteryState.from_matrix(rho)
    assert linalg_calls == Counter(cholesky=1)
    spectrum = state.spectrum
    assert linalg_calls == Counter(cholesky=1, eigvalsh=1)
    assert state.spectrum is spectrum
    assert linalg_calls == Counter(cholesky=1, eigvalsh=1)
    assert spectrum.tobytes() == np.linalg.eigvalsh(state.matrix).tobytes()
    with pytest.raises(ValueError, match="read-only"):
        state.spectrum[0] = 0.0
    diagonal = thermal_state(PARAMS)
    assert diagonal.spectrum is diagonal.populations


@pytest.mark.parametrize("lowest, passes", [(-5e-11, True), (-2e-10, False)])
def test_general_state_positivity_is_decided_at_the_tolerance(lowest, passes):
    vals, vecs = np.linalg.eigh(random_density_matrix(np.random.default_rng(14), 5))
    vals[0] = lowest
    vals[1:] *= (1.0 - lowest) / vals[1:].sum()
    rho = (vecs * vals) @ vecs.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    if passes:
        assert BatteryState.from_matrix(rho).spectrum.min() == pytest.approx(lowest, abs=1e-15)
    else:
        with pytest.raises(ValueError, match=r"min eig -2\.000e-10"):
            BatteryState.from_matrix(rho)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, complex(0.0, math.nan), complex(math.inf, 1.0)])
def test_a_non_finite_element_anywhere_fails_the_positivity_test(value):
    from qbattery.states import PSD_ATOL, _psd_violation

    # the Cholesky factor of such a matrix can come back without an
    # error; its diagonal must still show the element
    rho = random_density_matrix(np.random.default_rng(15), 5)
    assert _psd_violation(rho, PSD_ATOL) is None
    for i, j in np.ndindex(rho.shape):
        bad = rho.copy()
        bad[i, j], bad[j, i] = value, np.conj(value)
        assert _psd_violation(bad, PSD_ATOL) is not None


def test_a_rebuilt_state_never_reads_a_stale_spectrum():
    rng = np.random.default_rng(12)
    # one eigenvalue just below zero, within PSD_ATOL, so the state is accepted as it is
    vals, vecs = np.linalg.eigh(random_density_matrix(rng, 5))
    vals[0] = -5e-11
    dusty = (vecs * (vals / vals.sum())) @ vecs.conj().T
    states = [BatteryState.from_matrix(m)
              for m in (random_density_matrix(rng, 5), random_density_matrix(rng, 5), dusty)]
    # halving the coherences mixes the state with its diagonal: still a
    # state, with the same populations and another spectrum
    rebuilt = [BatteryState.from_matrix(0.5 * (state.matrix + np.diag(state.populations))) for state in states]
    # a copy diagonalizes its own matrix
    copies = [BatteryState.from_matrix(s.matrix) for s in states + rebuilt]
    for state in states + rebuilt + copies:
        np.testing.assert_allclose(state.spectrum, np.linalg.eigvalsh(state.matrix), atol=1e-14)
    for state, other in zip(states, rebuilt):
        assert not np.allclose(other.spectrum, state.spectrum)


def test_the_runtime_checks_table_gives_each_tolerance_its_value():
    # docs/outputs.md's table fails here when a constant moves without it
    import qbattery.propagator as propagator
    import qbattery.states as states

    docs = (Path(__file__).resolve().parents[1] / "docs" / "outputs.md").read_text()
    rows = re.findall(r"^\| `(\w+)` \| (\S+) \|", docs.split("## Runtime checks")[1], flags=re.M)
    assert [name for name, _ in rows] == [
        "HERM_ATOL", "PSD_ATOL", "INPUT_SUM_ATOL", "SUM_ATOL", "NEGATIVE_DUST", "DIAG_ATOL", "ZERO_PROBABILITY_ATOL",
    ]
    for name, value in rows:
        assert float(value) == getattr(propagator if name == "ZERO_PROBABILITY_ATOL" else states, name), name

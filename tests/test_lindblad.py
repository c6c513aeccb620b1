import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from qbattery import (
    POWER_OFF,
    POWER_ON,
    BatteryState,
    ChargerSpec,
    DissipationParams,
    SystemParams,
    dissipative_protocol,
    integrate,
    mean_occupation,
    run_protocol,
    thermal_state,
)
from qbattery.states import PSD_ATOL, _psd_violation
from qbattery.validate import (
    _rhs_factory,
    check_gamma_zero_reduction,
    damped_superoperator,
    exact_damped_evolution,
    joint_hamiltonian,
    joint_unitary,
    lindblad_rhs,
    project_qubit,
)

SMALL = SystemParams(n_levels=10, g=0.04, delta=0.02, beta=0.1)
NO_DAMPING = DissipationParams(0.0, 0.0, 0.0, 0.0)


def random_joint_state(params, seed=0):
    rng = np.random.default_rng(seed)
    dim = 2 * params.dim
    mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = mat @ mat.conj().T
    return rho / np.trace(rho)


def test_rhs_reduces_to_commutator_without_damping():
    rho = random_joint_state(SMALL)
    h = joint_hamiltonian(SMALL)
    expected = -1j * (h @ rho - rho @ h)
    assert np.abs(lindblad_rhs(rho, SMALL, NO_DAMPING) - expected).max() < 1e-14


def test_rhs_is_traceless_and_hermiticity_preserving():
    diss = DissipationParams(1e-3, 2e-3, 0.4, 0.3)
    for seed in range(3):
        rho = random_joint_state(SMALL, seed)
        out = lindblad_rhs(rho, SMALL, diss)
        assert abs(np.trace(out)) < 1e-12
        assert np.abs(out - out.conj().T).max() < 1e-12


def test_rhs_dimension_mismatch():
    with pytest.raises(ValueError):
        lindblad_rhs(np.eye(5, dtype=complex), SMALL, NO_DAMPING)


def test_detailed_balance_fixed_point():
    # decoupled, resonant: a geometric battery profile with ratio
    # nbar/(nbar+1) and a matching thermal qubit is stationary
    params = SystemParams(n_levels=10, g=0.0, delta=0.0)
    nbar, nbar_c = 0.8, 0.3
    diss = DissipationParams(1e-2, 1e-2, nbar, nbar_c)
    ratio = nbar / (nbar + 1.0)
    pops = ratio ** np.arange(params.dim)
    pops /= pops.sum()
    # qubit stationary state: p_e / p_g = nbar_c / (nbar_c + 1)
    pe = nbar_c / (2.0 * nbar_c + 1.0)
    qubit = np.diag([1.0 - pe, pe]).astype(complex)
    rho = np.kron(qubit, np.diag(pops).astype(complex))
    assert np.abs(lindblad_rhs(rho, params, diss)).max() < 1e-10


def test_integrate_zero_interval_is_identity():
    rho = random_joint_state(SMALL)
    assert np.array_equal(integrate(rho, 0.0, SMALL, NO_DAMPING), rho)


def test_integrate_rejects_a_state_with_no_occupied_element():
    # the tolerance scale used to divide by the size of an empty support
    params = SystemParams(n_levels=3, g=0.04)
    with pytest.raises(ValueError, match="no occupied element"):
        integrate(np.zeros((8, 8)), 1.0, params, DissipationParams(1e-3, 0, 0, 0))


def test_a_purely_imaginary_coherence_occupies_its_gap():
    rho0 = np.diag(np.full(2 * SMALL.dim, 1.0 / (2 * SMALL.dim))).astype(complex)
    rho0[0, SMALL.dim] = 1e-3j  # <g,0| rho |e,0>, gap -1, with no real part
    rho0[SMALL.dim, 0] = -1e-3j
    evolved = integrate(rho0, 1e-6, SMALL, NO_DAMPING)
    assert abs(evolved[0, SMALL.dim] - 1e-3j) < 1e-8
    assert abs(evolved[SMALL.dim, 0] + 1e-3j) < 1e-8


def test_integrate_gamma_zero_matches_unitary_conjugation():
    params = SMALL
    rho = np.kron(
        np.diag([0.0, 1.0]).astype(complex), thermal_state(params).matrix
    )
    evolved = integrate(rho, 8.0, params, NO_DAMPING)
    u = joint_unitary(params, 8.0)
    exact = u @ rho @ u.conj().T
    assert np.abs(evolved - exact).max() < 1e-8


def test_gamma_zero_reduction_check():
    result = check_gamma_zero_reduction()
    assert result.passed, result.line()


def test_integrated_state_stays_physical():
    diss = DissipationParams(1e-3, 1e-3, 0.5, 0.4)
    rho = np.kron(
        np.diag([0.0, 1.0]).astype(complex), thermal_state(SMALL).matrix
    )
    out = integrate(rho, 12.0, SMALL, diss)
    assert np.abs(out - out.conj().T).max() < 1e-10
    assert abs(np.trace(out).real - 1.0) < 1e-8
    assert np.linalg.eigvalsh(out).min() > -1e-8


def test_decoupled_battery_relaxes_to_bath_occupation():
    params = SystemParams(n_levels=10, g=0.0, delta=0.0, beta=0.5)
    nbar = 1.2
    diss = DissipationParams(0.05, 0.0, nbar, 0.0)
    rho = np.kron(np.diag([1.0, 0.0]).astype(complex), thermal_state(params).matrix)
    dim = params.dim
    # stationary profile on the truncated ladder: geometric with ratio
    # nbar/(nbar+1); its mean sits slightly below nbar
    profile = (nbar / (nbar + 1.0)) ** np.arange(dim)
    target = float(np.arange(dim) @ profile) / profile.sum()
    previous_gap = abs(mean_occupation(thermal_state(params)) - target)
    for horizon in (50.0, 200.0, 800.0):
        out = integrate(rho, horizon, params, diss)
        battery = out.reshape(2, dim, 2, dim)[0, :, 0, :] + out.reshape(2, dim, 2, dim)[1, :, 1, :]
        mean = float(np.arange(dim) @ np.real(np.diag(battery)))
        gap = abs(mean - target)
        assert gap < previous_gap + 1e-9
        previous_gap = gap
    assert previous_gap < 1e-3


def test_dissipation_params_validation():
    with pytest.raises(ValueError):
        DissipationParams(-1e-3, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        DissipationParams(0.0, 0.0, -0.1, 0.0)
    # a NaN rate would fail every rate > 0 test and drop its channel
    for i in range(4):
        for bad in (math.nan, math.inf):
            values = [1e-3, 1e-3, 0.5, 0.5]
            values[i] = bad
            with pytest.raises(ValueError, match="finite"):
                DissipationParams(*values)


@pytest.mark.parametrize("scheme, policy, match", [
    ("power_on", "fixed", "fixed policy needs fixed_tau"),
    ("power_off", "analytic", "applies to the power_on scheme"),
])
def test_both_protocols_reject_the_same_interval_policy_misuse(scheme, policy, match):
    state = thermal_state(SMALL)
    with pytest.raises(ValueError, match=match):
        run_protocol(state, SMALL, scheme, 2, policy)
    with pytest.raises(ValueError, match=match):
        dissipative_protocol(state, SMALL, NO_DAMPING, scheme, 2, policy)


@pytest.mark.parametrize("charger", [None, ChargerSpec(q=0.3, theta=1.2, c=1.0)])
def test_both_protocols_reject_an_unknown_scheme_before_any_round(no_rounds, charger):
    # without a charger the closed protocol used to take the general round,
    # and with one it ran round 1 before the record rejected the scheme
    state = thermal_state(SMALL)
    with pytest.raises(ValueError, match="scheme must be one of"):
        run_protocol(state, SMALL, "bogus", 2, "fixed", charger=charger, fixed_tau=8.0)
    with pytest.raises(ValueError, match="scheme must be one of"):
        dissipative_protocol(state, SMALL, NO_DAMPING, "bogus", 2, "fixed", charger=charger, fixed_tau=8.0)


@pytest.mark.parametrize("policy", ["numeric", "power_off_compromise", "bogus"])
def test_the_damped_protocol_rejects_a_policy_outside_its_set_before_any_round(no_rounds, policy):
    with pytest.raises(ValueError, match=r"policy must be one of \('analytic', 'fixed', 'schedule'\)"):
        dissipative_protocol(thermal_state(SMALL), SMALL, NO_DAMPING, "power_on", 2, policy)


def test_thermal_dissipation_defaults():
    diss = DissipationParams.thermal(SMALL, gamma_b=1e-4)
    assert diss.gamma_c == 1e-4
    assert diss.nbar_th == pytest.approx(mean_occupation(thermal_state(SMALL)))
    expected_c = 1.0 / (math.exp(SMALL.beta * SMALL.omega_b) + 1.0)
    assert diss.nbar_th_c == pytest.approx(expected_c)
    cold = SystemParams(n_levels=10, g=0.04, beta=math.inf)
    assert DissipationParams.thermal(cold, 1e-4).nbar_th_c == 0.0
    assert DissipationParams.thermal(cold, 1e-4).nbar_th == 0.0


@pytest.mark.parametrize("beta, omega_c", [(1000.0, 1.0), (0.1, 1e300), (700.0, 1.02), (0.1, 1.02)])
def test_cold_qubit_bath_occupation_is_its_float_limit(beta, omega_c):
    # math.exp used to overflow past beta * omega_b = 709.78, an exit 3 in the CLI
    params = SystemParams(n_levels=10, g=0.04, delta=0.02, omega_c=omega_c, beta=beta)
    x = beta * params.omega_b
    expected = 1.0 / (math.exp(x) + 1.0) if x < 709.0 else 0.0
    assert DissipationParams.thermal(params, 1e-4).nbar_th_c == expected


def test_dissipative_protocol_reduces_to_closed_system():
    closed = run_protocol(thermal_state(SMALL), SMALL, "power_on", 5, "analytic")
    damped = dissipative_protocol(
        thermal_state(SMALL), SMALL, NO_DAMPING, "power_on", 5, "analytic",
    )
    for a, b in zip(closed.rounds, damped.rounds):
        assert b.thermo.energy == pytest.approx(a.thermo.energy, abs=1e-8)
        assert b.probability == pytest.approx(a.probability, abs=1e-8)
        assert b.tau == pytest.approx(a.tau, abs=1e-6)
    assert damped.cumulative_probability == pytest.approx(
        closed.cumulative_probability, abs=1e-7
    )


def test_dissipative_protocol_deviation_grows_with_damping():
    closed = run_protocol(thermal_state(SMALL), SMALL, "power_on", 5, "analytic")
    reference = closed.rounds[-1].thermo.energy
    deviations = []
    for gamma in (1e-5, 1e-4, 1e-3):
        diss = DissipationParams.thermal(SMALL, gamma_b=gamma)
        damped = dissipative_protocol(
            thermal_state(SMALL), SMALL, diss, "power_on", 5, "analytic"
        )
        deviations.append(abs(damped.rounds[-1].thermo.energy - reference))
    assert deviations[0] > 0.0
    assert deviations[0] < deviations[1] < deviations[2]


def test_dissipative_protocol_with_fixed_schedule():
    closed = run_protocol(thermal_state(SMALL), SMALL, "power_on", 3, "analytic")
    damped = dissipative_protocol(
        thermal_state(SMALL), SMALL, NO_DAMPING, "power_on", 3, "schedule",
        tau_schedule=list(closed.taus()),
    )
    assert np.allclose(damped.taus(), closed.taus())
    with pytest.raises(ValueError):
        dissipative_protocol(
            thermal_state(SMALL), SMALL, NO_DAMPING, "power_on", 3, "schedule"
        )


def test_dissipative_protocol_power_off_scheme():
    closed = run_protocol(
        thermal_state(SMALL), SMALL, "power_off", 3, "power_off_compromise"
    )
    damped = dissipative_protocol(
        thermal_state(SMALL), SMALL, NO_DAMPING, "power_off", 3, "schedule",
        tau_schedule=list(closed.taus()),
    )
    for a, b in zip(closed.rounds, damped.rounds):
        assert b.thermo.energy == pytest.approx(a.thermo.energy, abs=1e-7)


def dense_superoperator(params, diss):
    """Columns: the dense right-hand side applied to each basis matrix."""
    dim = 2 * params.dim
    rhs = _rhs_factory(params, diss)
    basis = np.eye(dim * dim, dtype=complex).reshape(dim * dim, dim, dim)
    return np.stack([rhs(e).ravel() for e in basis], axis=1)


def random_battery(rng, dim, general):
    if not general:
        raw = rng.uniform(size=dim)
        return BatteryState.diagonal(raw / raw.sum())
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return BatteryState.from_matrix(rho / np.trace(rho).real)


def random_sector_cases():
    """50 seeded (params, diss, tau, rho0): a random joint state, then
    product states of random chargers, with or without coherence, and
    random diagonal or general batteries."""
    rng = np.random.default_rng(7)
    for case in range(50):
        params = SystemParams(
            n_levels=int(rng.integers(1, 13)),
            g=float(rng.uniform(0.01, 0.2)),
            delta=float(rng.uniform(-0.1, 0.1)),
        )
        diss = DissipationParams(*rng.uniform([0.0, 0.0, 0.0, 0.0], [1e-2, 1e-2, 2.0, 1.0]))
        tau = float(rng.uniform(0.5, 30.0))
        if case == 0:
            rho0 = random_joint_state(params, seed=case)
        else:
            coherent = bool(rng.integers(2))
            charger = ChargerSpec(q=float(rng.uniform()), theta=float(rng.uniform(0.0, np.pi)),
                                  c=float(rng.uniform()) if coherent else 0.0)
            battery = random_battery(rng, params.dim, general=bool(rng.integers(2)))
            rho0 = np.kron(charger.density_matrix(), battery.matrix)
        yield params, diss, tau, rho0


def test_integrate_matches_superoperator_exponential_on_random_sectors():
    import qbattery.lindblad as lindblad

    # beyond the seeded cases: an interval that takes 14 Taylor steps of
    # degree 55, and an undamped one
    long_case = (SystemParams(n_levels=12, g=0.2, delta=-0.1), DissipationParams(1e-2, 1e-2, 2.0, 1.0), 60.0)
    undamped = (SystemParams(n_levels=6, g=0.1, delta=0.05), NO_DAMPING, 20.0)
    every_gap = lindblad._band(long_case[0], long_case[1], tuple(range(-13, 14)))
    assert lindblad._taylor_steps(every_gap.norm * long_case[2])[1] >= 3
    extra = [(params, diss, tau, random_joint_state(params, seed=1)) for params, diss, tau in (long_case, undamped)]
    for case, (params, diss, tau, rho0) in enumerate([*random_sector_cases(), *extra]):
        k = np.add.outer(np.arange(2), np.arange(params.dim)).ravel()
        gaps = np.subtract.outer(k, k)
        outside = ~np.isin(gaps, gaps[rho0 != 0])
        assert np.all(lindblad_rhs(rho0, params, diss)[outside] == 0.0)

        exact = exact_damped_evolution(rho0, params, diss, tau)
        evolved = integrate(rho0, tau, params, diss)
        assert np.abs(evolved - exact).max() < 1e-12, case
        assert np.all(evolved[outside] == 0.0)


def test_sparse_superoperator_is_the_dense_right_hand_side_on_random_sectors():
    # ties the exact reference of every damped check to the textbook
    # right-hand side, applied to each basis matrix
    for case, (params, diss, _, _) in enumerate(random_sector_cases()):
        sparse_form = damped_superoperator(params, diss).toarray()
        assert np.abs(sparse_form - dense_superoperator(params, diss)).max() <= 1e-15, case


def test_dissipative_protocol_builds_the_generator_once(monkeypatch):
    import qbattery.lindblad as lindblad

    integrated = []
    step = lindblad.integrate
    monkeypatch.setattr(lindblad, "integrate", lambda *a, **k: integrated.append(a) or step(*a, **k))
    diss = DissipationParams.thermal(SMALL, 1e-3)
    lindblad._liouvillian.cache_clear()
    lindblad._band.cache_clear()
    damped = dissipative_protocol(thermal_state(SMALL), SMALL, diss, "power_on", 3, "analytic")
    assert len(damped.rounds) == len(integrated) == 3
    assert lindblad._liouvillian.cache_info().misses == 1
    # a later standalone integrate on the same parameters reuses it
    integrate(random_joint_state(SMALL), 1.0, SMALL, diss)
    assert lindblad._liouvillian.cache_info().misses == 1


DAMPED = DissipationParams(gamma_b=3e-3, gamma_c=2e-3, nbar_th=0.7, nbar_th_c=0.2)


def test_generators_for_other_parameters_are_never_shared():
    import qbattery.lindblad as lindblad

    rho0 = random_joint_state(SMALL)
    # only g, only one rate, only one occupation differs from (SMALL, DAMPED)
    for params, diss in [(replace(SMALL, g=0.05), DAMPED), (SMALL, replace(DAMPED, gamma_c=5e-3)),
                         (SMALL, replace(DAMPED, nbar_th=0.0))]:
        lindblad._liouvillian.cache_clear()
        lindblad._band.cache_clear()
        cold = integrate(rho0, 5.0, params, diss)
        lindblad._liouvillian.cache_clear()
        lindblad._band.cache_clear()
        integrate(rho0, 5.0, SMALL, DAMPED)
        after_other = integrate(rho0, 5.0, params, diss)
        warm = integrate(rho0, 5.0, params, diss)
        assert cold.tobytes() == after_other.tobytes() == warm.tobytes()
        assert lindblad._liouvillian.cache_info().misses == 2
        cached = lindblad._liouvillian(params, diss)
        fresh = lindblad._liouvillian.__wrapped__(params, diss)
        assert cached is not lindblad._liouvillian(SMALL, DAMPED)
        assert len(cached) == len(fresh)
        for pair, fresh_pair in zip(cached, fresh):
            for factor, expected in zip(pair, fresh_pair):
                assert (factor != expected).nnz == 0


def test_cached_generator_factors_are_read_only():
    import qbattery.lindblad as lindblad

    for pair in lindblad._liouvillian(SMALL, DAMPED):
        for factor in pair:
            for array in (factor.data, factor.indices, factor.indptr):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = array[0]


def test_restricted_generator_on_every_element_is_the_dense_superoperator():
    import qbattery.lindblad as lindblad

    dim = 2 * SMALL.dim
    full = lindblad._restricted(lindblad._liouvillian(SMALL, DAMPED), np.arange(dim * dim))
    assert np.abs(full.toarray() - dense_superoperator(SMALL, DAMPED)).max() < 1e-15


def test_restricted_generator_rejects_a_support_it_leaves():
    import qbattery.lindblad as lindblad

    # |g,0><g,1| is carried to |g,0><e,0|, which has the same gap but is left out
    with pytest.raises(ValueError):
        lindblad._restricted(lindblad._liouvillian(SMALL, NO_DAMPING), np.array([1]))


def occupied_gaps(rho):
    k = np.add.outer(np.arange(2), np.arange(rho.shape[0] // 2)).ravel()
    return tuple(np.unique(np.subtract.outer(k, k)[rho != 0]).tolist())


def test_dissipative_protocol_assembles_the_restricted_generator_once(monkeypatch):
    import qbattery.lindblad as lindblad

    assembled = []
    assemble = lindblad._restricted
    monkeypatch.setattr(lindblad, "_restricted", lambda *a: assembled.append(a) or assemble(*a))
    lindblad._band.cache_clear()
    diss = DissipationParams.thermal(SMALL, 1e-3)
    damped = dissipative_protocol(thermal_state(SMALL), SMALL, diss, "power_on", 3, "analytic")
    assert damped.n_rounds == 3 and len(assembled) == 1


@pytest.mark.parametrize("params, diss, wide", [
    (replace(SMALL, g=0.05), DAMPED, False),
    (SMALL, replace(DAMPED, gamma_c=5e-3), False),
    (SMALL, replace(DAMPED, nbar_th=0.0), False),
    (SMALL, DAMPED, True),
])
def test_restricted_generators_for_other_parameters_or_supports_are_never_shared(params, diss, wide):
    import qbattery.lindblad as lindblad

    # only g, only one rate, only one occupation or only the support
    # differs from (SMALL, DAMPED) on the gap-0 sector
    sector = sector_state(np.random.default_rng(2), SMALL)
    rho0 = random_joint_state(SMALL) if wide else sector
    lindblad._band.cache_clear()
    cold = integrate(rho0, 5.0, params, diss)
    lindblad._band.cache_clear()
    integrate(sector, 5.0, SMALL, DAMPED)
    after_other = integrate(rho0, 5.0, params, diss)
    warm = integrate(rho0, 5.0, params, diss)
    assert cold.tobytes() == after_other.tobytes() == warm.tobytes()
    assert lindblad._band.cache_info().misses == 2
    band = lindblad._band(params, diss, occupied_gaps(rho0))
    assert lindblad._band.cache_info().misses == 2
    assert band is not lindblad._band(SMALL, DAMPED, (0,))
    fresh = lindblad._band.__wrapped__(params, diss, occupied_gaps(rho0))
    for array, expected in zip(band[:3], fresh[:3]):
        np.testing.assert_array_equal(array, expected)
    assert (band.generator != fresh.generator).nnz == 0


@pytest.mark.parametrize("gaps", [(0,), (-1, 0, 1)])
def test_cached_band_maps_are_read_only_and_index_the_transpose_and_diagonal(gaps):
    import qbattery.lindblad as lindblad

    band = lindblad._band(SMALL, DAMPED, gaps)
    n = 2 * SMALL.dim
    row, col = np.divmod(band.index, n)
    k = np.add.outer(np.arange(2), np.arange(SMALL.dim)).ravel()
    np.testing.assert_array_equal(band.index, np.flatnonzero(np.isin(np.subtract.outer(k, k), gaps)))
    np.testing.assert_array_equal(band.index[band.partner], col * n + row)
    np.testing.assert_array_equal(band.index[band.diag], np.arange(n) * (n + 1))
    generator = band.generator
    for array in band[:3] + (generator.data, generator.indices, generator.indptr):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[0]


def widened(rho0):
    """``rho0`` with a Hermitian gap-1 pair far below every tolerance, so
    that a Cholesky factor checks it instead of the excitation blocks."""
    rho0 = rho0.copy()
    rho0[0, SMALL.dim] = rho0[SMALL.dim, 0] = 1e-30
    return rho0


def integrate_warnings(rho0):
    with pytest.warns(UserWarning) as record:
        integrate(rho0, 1e-6, SMALL, NO_DAMPING)
    return [str(w.message) for w in record]


def test_a_non_hermitian_input_warns_of_hermiticity_drift():
    rho0 = np.diag(np.full(2 * SMALL.dim, 1.0 / (2 * SMALL.dim))).astype(complex)
    sector = rho0.copy()
    sector[3, SMALL.dim + 2] = 1e-6  # <g,3| rho |e,2>, gap 0, without its transpose
    wide = rho0.copy()
    wide[0, SMALL.dim] = 1e-6  # <g,0| rho |e,0>, gap -1, without its transpose
    expected = ["Hermiticity drift 1.00e-06 exceeds 1e-10"]
    assert integrate_warnings(sector) == integrate_warnings(wide) == expected


def test_an_input_of_trace_one_and_a_half_warns_of_trace_drift():
    rho0 = np.diag(np.full(2 * SMALL.dim, 1.5 / (2 * SMALL.dim))).astype(complex)
    expected = ["trace drift 5.00e-01 exceeds 1e-09"]
    assert integrate_warnings(rho0) == integrate_warnings(widened(rho0)) == expected


@pytest.mark.parametrize("sector, element", [(False, (1, 2)), (True, (0, 0)), (True, (1, 1))])
def test_a_nan_element_fails_the_positivity_check(sector, element):
    import qbattery.lindblad as lindblad

    # a 4x4 joint state at N=1, checked by the route integrate takes for
    # its support; the dense route's Cholesky factor of a NaN matrix
    # comes back NaN without an error
    rho = np.diag([0.25] * 4).astype(complex)
    rho[element] = rho[element[::-1]] = math.nan
    lo = lindblad._sector_lowest_eigenvalue(rho, 2) if sector else _psd_violation(rho, PSD_ATOL)
    assert math.isnan(lo)


@pytest.mark.parametrize("wide", [False, True])
def test_a_nan_solution_warns_of_every_drift(monkeypatch, wide):
    # solve_ivp refuses a non-finite initial state, so the NaN is put into
    # its result; each drift check is phrased so that NaN fails it
    import qbattery.lindblad as lindblad

    solve_ivp = lindblad.solve_ivp

    def nan_solve(*args, **kwargs):
        sol = solve_ivp(*args, **kwargs)
        sol.y[0, -1] = math.nan  # element <g,0| rho |g,0>
        return sol

    monkeypatch.setattr(lindblad, "solve_ivp", nan_solve)
    rho0 = np.diag(np.full(2 * SMALL.dim, 1.0 / (2 * SMALL.dim))).astype(complex)
    assert integrate_warnings(widened(rho0) if wide else rho0) == [
        "Hermiticity drift nan exceeds 1e-10", "trace drift nan exceeds 1e-09", "positivity violation nan beyond 1e-10",
    ]


@pytest.mark.parametrize("spec", [POWER_ON, POWER_OFF, ChargerSpec(q=0.3, theta=1.2, c=1.0)])
def test_block_projection_matches_the_dense_oracle(spec):
    import qbattery.lindblad as lindblad

    phi = spec.measured_state().astype(complex)
    for seed in range(5):
        rho = random_joint_state(SMALL, seed)
        battery, prob = lindblad._project_qubit(rho, phi, SMALL.dim)
        dense, dense_prob = project_qubit(rho, phi, SMALL.dim)
        assert np.abs(battery - dense).max() < 1e-15
        assert abs(prob - dense_prob) < 1e-15


def test_integrate_warns_on_a_negative_eigenvalue():
    populations = np.zeros(2 * SMALL.dim)
    populations[:2] = [1.01, -0.01]
    with pytest.warns(UserWarning, match=r"positivity violation -1\.00e-02"):
        integrate(np.diag(populations), 0.1, SMALL, NO_DAMPING)


@pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf, -1.0])
def test_integrate_rejects_an_interval_that_is_not_finite_and_nonnegative(tau):
    with pytest.raises(ValueError, match="tau must be >= 0 and finite"):
        integrate(random_joint_state(SMALL), tau, SMALL, DAMPED)


def sector_state(rng, params):
    """A random joint state whose occupied elements all have excitation gap 0."""
    rho = random_joint_state(params, seed=int(rng.integers(2**32)))
    k = np.add.outer(np.arange(2), np.arange(params.dim)).ravel()
    rho[np.subtract.outer(k, k) != 0] = 0.0
    return rho / np.trace(rho).real


def gap_state(rng, params, gaps):
    """A random joint state whose occupied elements have the excitation
    gaps ``gaps``, made positive by a dominant diagonal."""
    rho = random_joint_state(params, seed=int(rng.integers(2**32)))
    k = np.add.outer(np.arange(2), np.arange(params.dim)).ravel()
    rho[~np.isin(np.subtract.outer(k, k), gaps)] = 0.0
    rho += np.abs(rho).sum(axis=1).max() * np.eye(rho.shape[0])
    return rho / np.trace(rho).real


def test_integrate_derives_the_occupied_gaps_of_the_full_gap_map(monkeypatch):
    # the gaps that integrate reads off the occupied elements, and the
    # band index built from them, against k_row - k_col of every element
    import qbattery.lindblad as lindblad

    requested = []
    band = lindblad._band
    monkeypatch.setattr(lindblad, "_band", lambda *args: requested.append(args[2]) or band(*args))
    rng = np.random.default_rng(27)
    for n_levels in (1, 2, 10, 40):
        params = SystemParams(n_levels=n_levels, g=0.04, delta=0.02, beta=0.1)
        k = np.add.outer(np.arange(2), np.arange(params.dim)).ravel()
        gap_map = np.subtract.outer(k, k)
        for _ in range(3):
            wide = int(rng.integers(1, params.dim + 1))
            for rho0 in (sector_state(rng, params), gap_state(rng, params, (-wide, 0, wide)),
                         random_joint_state(params, seed=int(rng.integers(2**32)))):
                integrate(rho0, 1.0, params, DAMPED)
                occupied = np.unique(gap_map[rho0 != 0])
                gaps = tuple(np.union1d(occupied, -occupied).tolist())
                assert requested[-1] == gaps
                index = band(params, DAMPED, gaps).index
                np.testing.assert_array_equal(index, np.flatnonzero(np.isin(gap_map, gaps)))


def test_sector_lowest_eigenvalue_matches_the_dense_spectrum():
    import qbattery.lindblad as lindblad

    rng = np.random.default_rng(5)
    for n_levels in (1, 2, 3, 10, 40):
        params = SystemParams(n_levels=n_levels, g=0.04)
        for _ in range(10):
            rho = sector_state(rng, params)
            # shift one block so that the lowest eigenvalue can lie anywhere
            rho -= np.diag(rng.uniform(0.0, 0.2) * (np.arange(rho.shape[0]) == rng.integers(rho.shape[0])))
            lo = lindblad._sector_lowest_eigenvalue(rho, params.dim)
            assert lo == pytest.approx(np.linalg.eigvalsh(rho).min(), abs=1e-15)


def negative_block_state(params, depth=1e-6):
    """A gap-0 joint state whose block {|g,3>, |e,2>} has eigenvalue -``depth``."""
    dim = params.dim
    rho = np.zeros((2 * dim, 2 * dim), dtype=complex)
    g3, e2 = 3, dim + 2
    rho[g3, g3] = rho[e2, e2] = 0.05
    rho[g3, e2] = 0.05 + depth
    rho[e2, g3] = np.conj(rho[g3, e2])
    rest = [i for i in range(2 * dim) if i not in (g3, e2)]
    rho[rest, rest] = 0.9 / len(rest)
    return rho


def test_a_negative_excitation_block_warns_like_the_cholesky_route(linalg_calls):
    rho0 = negative_block_state(SMALL)
    with pytest.warns(UserWarning) as blockwise:
        integrate(rho0, 1e-6, SMALL, NO_DAMPING)
    assert linalg_calls == Counter()
    # a gap-1 element far below the tolerances widens the support, so the
    # same spectrum is checked by the Cholesky factor instead
    rho0[0, SMALL.dim] = rho0[SMALL.dim, 0] = 1e-30
    with pytest.warns(UserWarning) as dense:
        integrate(rho0, 1e-6, SMALL, NO_DAMPING)
    assert linalg_calls == Counter(cholesky=1, eigvalsh=1)
    messages = [str(w.message) for w in blockwise], [str(w.message) for w in dense]
    assert messages[0] == messages[1] == ["positivity violation -1.00e-06 beyond 1e-10"]


@pytest.mark.parametrize("support", [np.copy, widened], ids=["gap 0", "wide"])
def test_integrate_warns_of_drifts_that_a_battery_state_rejects(support):
    # an eigenvalue below -PSD_ATOL and a trace off by more than
    # INPUT_SUM_ATOL are warned of on either positivity route
    negative = support(negative_block_state(SMALL, depth=1e-9))
    assert integrate_warnings(negative) == ["positivity violation -1.00e-09 beyond 1e-10"]
    heavy = np.diag(np.full(2 * SMALL.dim, (1.0 + 5e-9) / (2 * SMALL.dim))).astype(complex)
    assert integrate_warnings(support(heavy)) == ["trace drift 5.00e-09 exceeds 1e-09"]


COHERENT = ChargerSpec(q=0.3, theta=1.2, c=1.0)


def test_a_general_round_is_diagonalized_once(linalg_calls):
    # each post state's positivity is one Cholesky factor; its spectrum
    # is computed when the ergotropy is first read, and kept
    params = SystemParams(n_levels=100, g=0.04, delta=0.02, beta=0.1)
    closed = run_protocol(thermal_state(params), params, "general", 20, "fixed", charger=COHERENT, fixed_tau=8.0)
    assert linalg_calls == Counter(cholesky=20)
    for _ in range(2):
        ratios = [rec.thermo.ratio for rec in closed.rounds]
        assert linalg_calls == Counter(cholesky=20, eigvalsh=20)
    assert all(0.0 < ratio < 1.0 for ratio in ratios)


def test_a_damped_general_round_is_diagonalized_once(linalg_calls):
    # one Cholesky factor in integrate's wide-support check and one in
    # the post state's, then one eigvalsh on the first ergotropy read, kept
    params = SystemParams(n_levels=20, g=0.04, delta=0.02, beta=0.1)
    diss = DissipationParams.thermal(params, gamma_b=1e-3)
    damped = dissipative_protocol(thermal_state(params), params, diss, "general", 1, "fixed",
                                  charger=COHERENT, fixed_tau=8.0)
    assert not damped.rounds[0].post_state.is_diagonal
    assert linalg_calls == Counter(cholesky=2)
    for _ in range(2):
        assert damped.rounds[0].thermo.ergotropy > 0.0
        assert linalg_calls == Counter(cholesky=2, eigvalsh=1)


def test_a_damped_general_run_stays_on_its_excitation_gaps():
    # the coherent charger's gaps -1, 0, 1 widen the battery's coherences
    # by two levels a round; every element beyond them stays exactly zero
    params = SystemParams(n_levels=30, g=0.04, delta=0.02, beta=0.1)
    diss = DissipationParams.thermal(params, gamma_b=1e-3)
    damped = dissipative_protocol(thermal_state(params), params, diss, "general", 18, "fixed",
                                  charger=replace(COHERENT, c=0.95), fixed_tau=8.0)
    level = np.arange(params.dim)
    distance = np.abs(np.subtract.outer(level, level))
    widest = [distance[rec.post_state.matrix != 0].max() for rec in damped.rounds]
    assert widest == [min(2 * m, params.n_levels) for m in range(1, 19)]


@pytest.mark.parametrize("build", ["from_matrix", "negative_zero", "general_round", "damped_general_round"])
def test_a_general_state_keeps_one_read_only_matrix(build):
    # the matrix its positivity was checked on, read without a rebuild,
    # equal bit for bit to its populations plus its two triangles
    params = SystemParams(n_levels=20, g=0.04, delta=0.02, beta=0.1)
    if build == "from_matrix":
        state = random_battery(np.random.default_rng(16), params.dim, general=True)
    elif build == "negative_zero":
        state = BatteryState.from_matrix([[0.5, 0.1, -0.0], [0.1, 0.3, 0.0], [-0.0, 0.0, 0.2]])
    elif build == "general_round":
        state = run_protocol(thermal_state(params), params, "general", 1, "fixed", charger=COHERENT,
                             fixed_tau=8.0).rounds[0].post_state
    else:
        diss = DissipationParams.thermal(params, gamma_b=1e-3)
        state = dissipative_protocol(thermal_state(params), params, diss, "general", 1, "fixed",
                                     charger=COHERENT, fixed_tau=8.0).rounds[0].post_state
    matrix = state.matrix
    assert not state.is_diagonal and state.matrix is matrix
    with pytest.raises(ValueError, match="read-only"):
        matrix[0, 1] = 0.0
    upper = np.triu(matrix, k=1)
    assert matrix.tobytes() == (np.diag(state.populations) + upper + upper.conj().T).tobytes()


@pytest.mark.parametrize("scheme, tau", [("power_on", 8.0), ("power_off", 30.0)])
def test_damped_power_on_and_power_off_rounds_are_never_diagonalized(linalg_calls, scheme, tau):
    params = SystemParams(n_levels=20, g=0.04, delta=0.02, beta=0.1)
    diss = DissipationParams.thermal(params, gamma_b=1e-3)
    damped = dissipative_protocol(thermal_state(params), params, diss, scheme, 2, "fixed", fixed_tau=tau)
    assert damped.n_rounds == 2 and all(state.is_diagonal for state in damped.states())
    assert linalg_calls == Counter()

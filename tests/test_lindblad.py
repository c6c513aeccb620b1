import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from qbattery import (
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
from qbattery.validate import (
    _rhs_factory,
    check_gamma_zero_reduction,
    joint_hamiltonian,
    joint_unitary,
    lindblad_rhs,
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


def test_integrate_gamma_zero_matches_unitary_conjugation():
    params = SMALL
    rho = np.kron(
        np.diag([0.0, 1.0]).astype(complex), thermal_state(params).matrix
    )
    evolved = integrate(rho, 8.0, params, NO_DAMPING, rtol=1e-10, atol=1e-12)
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


def test_thermal_dissipation_defaults():
    diss = DissipationParams.thermal(SMALL, gamma_b=1e-4)
    assert diss.gamma_c == 1e-4
    assert diss.nbar_th == pytest.approx(mean_occupation(thermal_state(SMALL)))
    expected_c = 1.0 / (math.exp(SMALL.beta * SMALL.omega_b) + 1.0)
    assert diss.nbar_th_c == pytest.approx(expected_c)
    cold = SystemParams(n_levels=10, g=0.04, beta=math.inf)
    assert DissipationParams.thermal(cold, 1e-4).nbar_th_c == 0.0
    assert DissipationParams.thermal(cold, 1e-4).nbar_th == 0.0


def test_dissipative_protocol_reduces_to_closed_system():
    closed = run_protocol(thermal_state(SMALL), SMALL, "power_on", 5, "analytic")
    damped = dissipative_protocol(
        thermal_state(SMALL), SMALL, NO_DAMPING, "power_on", 5, "analytic",
        rtol=1e-10, atol=1e-12,
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
        tau_schedule=list(closed.taus()), rtol=1e-10, atol=1e-12,
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
        tau_schedule=list(closed.taus()), rtol=1e-10, atol=1e-12,
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


def test_integrate_matches_superoperator_exponential_on_random_sectors():
    rng = np.random.default_rng(7)
    for case in range(50):
        params = SystemParams(
            n_levels=int(rng.integers(1, 13)),
            g=float(rng.uniform(0.01, 0.2)),
            delta=float(rng.uniform(-0.1, 0.1)),
        )
        diss = DissipationParams(*rng.uniform([0.0, 0.0, 0.0, 0.0], [1e-2, 1e-2, 2.0, 1.0]))
        tau = float(rng.uniform(0.5, 30.0))
        dim = 2 * params.dim
        if case == 0:
            rho0 = random_joint_state(params, seed=case)
        else:
            coherent = bool(rng.integers(2))
            charger = ChargerSpec(q=float(rng.uniform()), theta=float(rng.uniform(0.0, np.pi)),
                                  c=float(rng.uniform()) if coherent else 0.0)
            battery = random_battery(rng, params.dim, general=bool(rng.integers(2)))
            rho0 = np.kron(charger.density_matrix(), battery.matrix)
        k = np.add.outer(np.arange(2), np.arange(params.dim)).ravel()
        gaps = np.subtract.outer(k, k)
        outside = ~np.isin(gaps, gaps[rho0 != 0])
        assert np.all(lindblad_rhs(rho0, params, diss)[outside] == 0.0)

        exact = (expm(dense_superoperator(params, diss) * tau) @ rho0.ravel()).reshape(dim, dim)
        evolved = integrate(rho0, tau, params, diss, rtol=1e-10, atol=1e-12)
        assert np.abs(evolved - exact).max() < 1e-8, case
        assert np.all(evolved[outside] == 0.0)


def test_dissipative_protocol_builds_the_generator_once(monkeypatch):
    import qbattery.lindblad as lindblad

    integrated = []
    step = lindblad.integrate
    monkeypatch.setattr(lindblad, "integrate", lambda *a, **k: integrated.append(a) or step(*a, **k))
    diss = DissipationParams.thermal(SMALL, 1e-3)
    lindblad._liouvillian.cache_clear()
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
        cold = integrate(rho0, 5.0, params, diss)
        lindblad._liouvillian.cache_clear()
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


def test_integrate_warns_on_a_negative_eigenvalue():
    populations = np.zeros(2 * SMALL.dim)
    populations[:2] = [1.01, -0.01]
    with pytest.warns(UserWarning, match=r"positivity violation -1\.00e-02"):
        integrate(np.diag(populations), 0.1, SMALL, NO_DAMPING)

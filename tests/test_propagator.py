import math

import numpy as np
import pytest
from scipy.linalg import expm

from qbattery import (
    BatteryState,
    SystemParams,
    ZeroProbabilityError,
    fock_state,
    mean_occupation,
    rabi_frequency,
    thermal_state,
)
from qbattery.propagator import KRAUS_KINDS, _amplitude_vectors, _diagonal_map, _map_weights
from qbattery.validate import (
    block_oracle_deviation,
    check_block_unitarity,
    completeness_deviation,
    joint_hamiltonian,
    joint_unitary,
    kraus_set,
    povm_apply,
)

BASE = SystemParams(n_levels=100, g=0.04, delta=0.02, beta=0.1)


def random_params(rng, n_levels=100):
    return SystemParams(
        n_levels=n_levels,
        g=float(rng.uniform(1e-3, 0.2)),
        delta=float(rng.uniform(-0.1, 0.1)),
    )


def test_rabi_frequency_values():
    assert rabi_frequency(BASE, 0) == pytest.approx(0.01)  # |delta| / 2
    resonant = SystemParams(n_levels=100, g=0.04, delta=0.0)
    assert rabi_frequency(resonant, 0) == 0.0
    assert rabi_frequency(BASE, 1) == pytest.approx(0.04123105625617661, abs=1e-15)
    assert rabi_frequency(resonant, 25) == pytest.approx(0.2, abs=1e-15)


def block(params, n, tau):
    """Stay and swap amplitudes of block n, which do not depend on N."""
    stay, swap = _amplitude_vectors(params, tau)
    return complex(stay[n]), complex(swap[n])


def test_block_coefficients_identity_at_zero_interval():
    stay, swap = block(BASE, 7, 0.0)
    assert stay == pytest.approx(1.0)
    assert swap == pytest.approx(0.0)


def test_block_coefficients_quarter_period_full_swap():
    params = SystemParams(n_levels=100, g=0.04, delta=0.0)
    n = 9
    tau = math.pi / (2 * params.g * math.sqrt(n))
    stay, swap = block(params, n, tau)
    assert abs(swap) ** 2 == pytest.approx(1.0, abs=1e-12)
    assert abs(stay) == pytest.approx(0.0, abs=1e-12)


def test_block_unitarity_random_sample():
    rng = np.random.default_rng(42)
    for _ in range(2000):
        params = random_params(rng)
        n = int(rng.integers(1, 101))
        tau = float(rng.uniform(0.0, 60.0))
        stay, swap = block(params, n, tau)
        assert abs(abs(stay) ** 2 + abs(swap) ** 2 - 1.0) < 1e-12


def test_block_amplitudes_match_matrix_exponential():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(300):
        params = random_params(rng)
        n = int(rng.integers(1, 101))
        tau = float(rng.uniform(0.0, 60.0))
        worst = max(worst, block_oracle_deviation(params, n, tau))
    assert worst < 1e-10


def test_joint_unitary_is_unitary():
    u = joint_unitary(BASE, 8.0)
    dim = 2 * BASE.dim
    assert np.abs(u.conj().T @ u - np.eye(dim)).max() < 1e-12


def test_joint_unitary_identity_at_zero_interval():
    u = joint_unitary(BASE, 0.0)
    assert np.abs(u - np.eye(2 * BASE.dim)).max() < 1e-14


def test_joint_unitary_matches_dense_exponential():
    for g, delta, tau in ((0.04, 0.02, 8.0), (0.07, -0.03, 15.0), (0.04, 0.0, 39.27)):
        params = SystemParams(n_levels=20, g=g, delta=delta)
        dense = expm(-1j * joint_hamiltonian(params) * tau)
        assert np.abs(dense - joint_unitary(params, tau)).max() < 1e-10


def test_joint_unitary_swap_element_is_block_coefficient():
    rng = np.random.default_rng(11)
    for _ in range(20):
        params = random_params(rng, n_levels=30)
        tau = float(rng.uniform(0.0, 40.0))
        u = joint_unitary(params, tau)
        dim = params.dim
        for n in (1, 7, 30):
            # <g, n| U |e, n-1>
            assert u[n, dim + n - 1] == pytest.approx(block(params, n, tau)[1], abs=1e-14)


def test_kraus_completeness_paper_parameters():
    for g, delta, tau, n_levels in (
        (0.04, 0.02, 8.0, 100),
        (0.04, 0.0, 8.0, 100),
        (0.04, 0.02, 39.27, 100),
        (0.1, -0.05, 3.0, 40),
    ):
        params = SystemParams(n_levels=n_levels, g=g, delta=delta)
        assert completeness_deviation(kraus_set(params, tau)) < 1e-12


def test_block_unitarity_check_runs_clean():
    result = check_block_unitarity(n_samples=2000, seed=5)
    assert result.passed, result.line()


def test_decoupled_limit():
    params = SystemParams(n_levels=10, g=0.0, delta=0.02)
    ks = kraus_set(params, 8.0)
    assert np.abs(ks.eg).max() == 0.0
    assert np.abs(ks.ge).max() == 0.0
    # both diagonal operators reduce to pure phases
    assert np.allclose(np.abs(np.diag(ks.gg)), 1.0, atol=1e-14)
    assert np.allclose(np.abs(np.diag(ks.ee)), 1.0, atol=1e-14)


def test_kraus_shift_structure():
    ks = kraus_set(BASE, 8.0)
    dim = BASE.dim
    assert np.abs(ks.eg - np.diag(np.diag(ks.eg, -1), -1)).max() == 0.0
    assert np.abs(ks.ge - np.diag(np.diag(ks.ge, 1), 1)).max() == 0.0
    assert np.abs(ks.gg - np.diag(np.diag(ks.gg))).max() == 0.0
    assert np.abs(ks.ee - np.diag(np.diag(ks.ee))).max() == 0.0
    assert np.abs(np.diag(ks.gg)[0]) == pytest.approx(1.0, abs=1e-14)
    assert np.abs(np.diag(ks.ee)[dim - 1]) == pytest.approx(1.0, abs=1e-14)


def test_povm_eg_on_vacuum():
    ks = kraus_set(BASE, 8.0)
    vac = fock_state(0, BASE.n_levels)
    post, prob = povm_apply("eg", vac, ks)
    swap1 = block(BASE, 1, 8.0)[1]
    assert prob == pytest.approx(abs(swap1) ** 2, abs=1e-14)
    assert post.populations[1] == pytest.approx(1.0, abs=1e-14)


def test_povm_eg_full_swap_at_quarter_period():
    params = SystemParams(n_levels=10, g=0.04, delta=0.0)
    tau = math.pi / (2 * params.g)
    post, prob = povm_apply("eg", fock_state(0, 10), kraus_set(params, tau))
    assert prob == pytest.approx(1.0, abs=1e-12)
    assert post.populations[1] == pytest.approx(1.0, abs=1e-12)


def test_povm_gg_identity_at_zero_interval():
    ks = kraus_set(BASE, 0.0)
    state = thermal_state(BASE)
    post, prob = povm_apply("gg", state, ks)
    assert prob == pytest.approx(1.0, abs=1e-14)
    assert np.abs(post.populations - state.populations).max() < 1e-14


def test_povm_outcome_probabilities_resolve_unity():
    rng = np.random.default_rng(9)
    ks = kraus_set(BASE, 8.0)
    for _ in range(5):
        raw = rng.uniform(size=BASE.dim)
        state = BatteryState.diagonal(raw / raw.sum())
        for pair in (("eg", "ee"), ("gg", "ge")):
            total = sum(povm_apply(kind, state, ks)[1] for kind in pair)
            assert total == pytest.approx(1.0, abs=1e-12)


def test_povm_support_shifts():
    ks = kraus_set(BASE, 8.0)
    state = thermal_state(BASE)
    up, _ = povm_apply("eg", state, ks)
    assert up.populations[0] == 0.0
    down, _ = povm_apply("ge", state, ks)
    assert down.populations[-1] == 0.0


def test_povm_diagonal_and_matrix_paths_agree():
    # same map, two routes: the production closed-form weights vs the
    # dense R rho R^dagger oracle
    ks = kraus_set(BASE, 8.0)
    state = thermal_state(BASE)
    for kind in KRAUS_KINDS:
        out = _diagonal_map(kind, _map_weights(BASE, 8.0, kind), state.populations)
        p_fast = float(out.sum())
        fast = BatteryState.diagonal(out / p_fast)
        slow, p_slow = povm_apply(kind, state, ks)
        assert p_fast == pytest.approx(p_slow, abs=1e-12)
        assert np.abs(fast.populations - slow.populations).max() < 1e-10
        assert mean_occupation(fast) == pytest.approx(mean_occupation(slow), abs=1e-10)


def test_povm_on_a_state_with_coherences():
    from qbattery import ChargerSpec, general_round

    # build a genuinely non-diagonal battery state with a coherent charger
    seed_round = general_round(
        thermal_state(BASE), ChargerSpec(q=0.5, theta=1.0, c=1.0), BASE, 8.0
    )
    state = seed_round.post_state
    assert not state.is_diagonal
    ks = kraus_set(BASE, 5.0)
    post, prob = povm_apply("eg", state, ks)
    direct = ks.eg @ state.matrix @ ks.eg.conj().T
    assert prob == pytest.approx(float(np.trace(direct).real), abs=1e-12)
    assert np.abs(post.matrix - direct / prob).max() < 1e-12
    assert np.linalg.eigvalsh(post.matrix).min() > -1e-10
    # outcome completeness holds for coherent states too
    total = prob + povm_apply("ee", state, ks)[1]
    assert total == pytest.approx(1.0, abs=1e-12)


def test_povm_zero_probability_error():
    ks = kraus_set(BASE, 8.0)
    with pytest.raises(ZeroProbabilityError):
        povm_apply("ge", fock_state(0, BASE.n_levels), ks)


def test_povm_rejects_unknown_kind():
    ks = kraus_set(BASE, 8.0)
    with pytest.raises(ValueError):
        povm_apply("xx", thermal_state(BASE), ks)

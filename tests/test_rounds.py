import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qbattery import (
    POWER_OFF,
    POWER_ON,
    BatteryState,
    ChargerSpec,
    SystemParams,
    ZeroProbabilityError,
    charge_discharge_populations,
    coherence_population,
    fock_state,
    general_round,
    mean_occupation,
    power_off_round,
    power_on_round,
    thermal_state,
)

BASE = SystemParams(n_levels=100, g=0.04, delta=0.02, beta=0.1)
RESONANT = SystemParams(n_levels=10, g=0.04, delta=0.0)


def unnormalized_diagonal(state, charger, params, tau):
    charge, discharge = charge_discharge_populations(state, charger, params, tau)
    return charge + discharge + coherence_population(state, charger, params, tau)


def test_power_on_vacuum_full_swap():
    tau = math.pi / (2 * RESONANT.g)
    rec = power_on_round(fock_state(0, 10), RESONANT, tau)
    assert rec.probability == pytest.approx(1.0, abs=1e-12)
    assert rec.post_state.populations[1] == pytest.approx(1.0, abs=1e-12)


def test_power_on_support_floor_rises():
    rec = power_on_round(thermal_state(BASE), BASE, 8.0)
    assert rec.post_state.populations[0] == 0.0
    assert rec.post_state.is_diagonal


def test_power_on_zero_probability_at_full_period():
    # a full swap period returns the excitation to the qubit
    tau = math.pi / RESONANT.g
    with pytest.raises(ZeroProbabilityError):
        power_on_round(fock_state(0, 10), RESONANT, tau)


def test_power_on_repeated_rounds_build_fock_ladder():
    state = fock_state(0, 10)
    for m in range(1, 6):
        tau = math.pi / (2 * RESONANT.g * math.sqrt(m))
        rec = power_on_round(state, RESONANT, tau)
        state = rec.post_state
        assert rec.probability == pytest.approx(1.0, abs=1e-12)
        assert state.populations[m] == pytest.approx(1.0, abs=1e-12)


def test_power_off_vacuum_raises():
    with pytest.raises(ZeroProbabilityError):
        power_off_round(fock_state(0, BASE.n_levels), BASE, 8.0)


def test_round_rejects_mismatched_ladder():
    with pytest.raises(ValueError):
        power_on_round(fock_state(0, 10), BASE, 8.0)


def test_power_off_full_swap_down():
    n = 4
    tau = math.pi / (2 * RESONANT.g * math.sqrt(n))
    rec = power_off_round(fock_state(n, 10), RESONANT, tau)
    assert rec.probability == pytest.approx(1.0, abs=1e-12)
    assert rec.post_state.populations[n - 1] == pytest.approx(1.0, abs=1e-12)


def test_power_off_top_level_emptied():
    rec = power_off_round(thermal_state(BASE), BASE, 8.0)
    assert rec.post_state.populations[-1] == 0.0


def test_power_off_can_raise_the_mean():
    state = thermal_state(SystemParams(n_levels=100, g=0.04, delta=0.02, beta=0.05))
    rec = power_off_round(state, BASE, 2.0)
    assert mean_occupation(rec.post_state) > mean_occupation(state)


def test_round_probability_equals_unnormalized_trace():
    state = thermal_state(BASE)
    for builder, tau in ((power_on_round, 8.0), (power_off_round, 5.0)):
        rec = builder(state, BASE, tau)
        charger = POWER_ON if rec.scheme == "power_on" else POWER_OFF
        total = unnormalized_diagonal(state, charger, BASE, tau).sum()
        assert rec.probability == pytest.approx(total, abs=1e-12)


def test_general_round_matches_power_on_path():
    state = thermal_state(BASE)
    fast = power_on_round(state, BASE, 8.0)
    slow = general_round(state, POWER_ON, BASE, 8.0)
    assert slow.probability == pytest.approx(fast.probability, abs=1e-12)
    assert np.abs(slow.post_state.populations - fast.post_state.populations).max() < 1e-12
    assert slow.post_state.is_diagonal


def test_general_round_matches_channel_application():
    # two code paths, one map: the banded round against the dense
    # Kraus-operator oracle
    from qbattery.validate import kraus_set, povm_apply

    state = thermal_state(BASE)
    ks = kraus_set(BASE, 8.0)
    for charger, kind in ((POWER_ON, "eg"), (POWER_OFF, "ge")):
        joint = general_round(state, charger, BASE, 8.0)
        channel, prob = povm_apply(kind, state, ks)
        assert joint.probability == pytest.approx(prob, abs=1e-12)
        assert np.abs(joint.post_state.populations - channel.populations).max() < 1e-12


def test_single_round_charging_window():
    # the single power-on measurement charges for every interval up to
    # the crossing near tau = 8.6, and cools just past it
    params = SystemParams(n_levels=100, g=0.04, delta=0.02, beta=0.05)
    state = thermal_state(params)
    baseline = mean_occupation(state)
    for tau in np.arange(0.5, 8.51, 0.5):
        post = power_on_round(state, params, float(tau)).post_state
        assert mean_occupation(post) > baseline
    assert mean_occupation(power_on_round(state, params, 9.0).post_state) < baseline
    crossings = []
    taus = np.linspace(8.0, 9.5, 151)
    above = [
        mean_occupation(power_on_round(state, params, float(t)).post_state) > baseline
        for t in taus
    ]
    flips = [taus[i] for i in range(len(taus) - 1) if above[i] and not above[i + 1]]
    assert flips and 8.3 < flips[0] < 9.2


def test_general_round_matches_power_off_path():
    state = thermal_state(BASE)
    fast = power_off_round(state, BASE, 5.0)
    slow = general_round(state, POWER_OFF, BASE, 5.0)
    assert slow.probability == pytest.approx(fast.probability, abs=1e-12)
    assert np.abs(slow.post_state.populations - fast.post_state.populations).max() < 1e-12


def test_general_round_pure_hold_cools():
    # ground-prepared qubit measured in the ground state: cooling corner
    state = thermal_state(BASE)
    rec = general_round(state, ChargerSpec(q=1.0, theta=0.0), BASE, 8.0)
    assert mean_occupation(rec.post_state) <= mean_occupation(state)


def test_general_round_orthogonal_projection_has_zero_probability():
    # no dynamics and an orthogonal measurement direction
    state = thermal_state(BASE)
    with pytest.raises(ZeroProbabilityError):
        general_round(state, ChargerSpec(q=1.0, theta=math.pi), BASE, 0.0)


def test_general_round_rejects_a_negative_interval():
    with pytest.raises(ValueError, match="tau must be >= 0"):
        general_round(thermal_state(BASE), ChargerSpec(q=0.3, theta=1.1), BASE, -1.0)


def test_general_round_probability_is_trace():
    state = thermal_state(BASE)
    charger = ChargerSpec(q=0.3, theta=1.1, c=0.7)
    rec = general_round(state, charger, BASE, 8.0)
    total = unnormalized_diagonal(state, charger, BASE, 8.0).sum()
    assert rec.probability == pytest.approx(total, abs=1e-12)


def test_coherence_population_trivial_zeros():
    state = thermal_state(BASE)
    zero_c = coherence_population(state, ChargerSpec(q=0.5, theta=1.0, c=0.0), BASE, 8.0)
    assert np.abs(zero_c).max() == 0.0
    for theta in (0.0, math.pi):
        vec = coherence_population(state, ChargerSpec(q=0.5, theta=theta, c=1.0), BASE, 8.0)
        assert np.abs(vec).max() < 1e-15


def test_coherence_population_near_resonant_approximation():
    # slowly varying block frequencies: the coherence part tracks the
    # no-exchange hold map scaled by c sqrt(q(1-q)) sin(theta)
    params = SystemParams(n_levels=400, g=0.005, delta=0.0, beta=0.02)
    charger = ChargerSpec(q=0.5, theta=math.pi / 2, c=1.0)
    state = thermal_state(params)
    vec = coherence_population(state, charger, params, 2.0)
    charge, discharge = charge_discharge_populations(
        state, ChargerSpec(q=1.0, theta=0.0), params, 2.0
    )
    hold = discharge  # pure q=1, theta=0 round is exactly the hold map
    scale = charger.c * math.sqrt(charger.q * (1 - charger.q)) * math.sin(charger.theta)
    bulk = slice(0, 200)  # away from the truncation edge
    assert np.abs(vec[bulk] - scale * hold[bulk]).max() < 2e-3 * scale


def test_diagonal_decomposition_matches_oracle():
    rng = np.random.default_rng(21)
    params = SystemParams(n_levels=40, g=0.04, delta=0.02, beta=0.1)
    state = thermal_state(params)
    for _ in range(8):
        charger = ChargerSpec(
            q=float(rng.uniform()), theta=float(rng.uniform(0, math.pi)),
            c=float(rng.uniform()),
        )
        rec = general_round(state, charger, params, 8.0)
        parts = unnormalized_diagonal(state, charger, params, 8.0)
        oracle = rec.post_state.populations * rec.probability
        assert np.abs(oracle - parts).max() < 1e-10


def test_corner_ratio_signs():
    # single measurement at tau=8: the two swap corners charge, the two
    # hold corners discharge
    state = thermal_state(BASE)
    nbar = mean_occupation(state)

    def ratio(q, theta):
        rec = general_round(state, ChargerSpec(q=q, theta=theta), BASE, 8.0)
        return mean_occupation(rec.post_state) / nbar

    assert ratio(0.0, 0.0) > 1.0
    assert ratio(1.0, math.pi) > 1.0
    assert ratio(1.0, 0.0) < 1.0
    assert ratio(0.0, math.pi) < 1.0


def test_round_record_validation():
    state = fock_state(1, 5)
    with pytest.raises(ValueError):
        from qbattery import RoundRecord

        RoundRecord(state, 0.0, 1.0, "power_on")
    with pytest.raises(ValueError):
        from qbattery import RoundRecord

        RoundRecord(state, 0.5, 1.0, "bogus")


def random_state(rng, dim, diagonal):
    if diagonal:
        p = rng.uniform(size=dim)
        return BatteryState.diagonal(p / p.sum())
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return BatteryState.from_matrix(rho / np.trace(rho).real)


def test_general_round_matches_dense_oracle_randomized():
    # Kraus contraction against embedding, joint propagator and projection
    from qbattery.validate import ORACLE_ATOL, general_round_oracle_deviation

    rng = np.random.default_rng(2022)
    worst = 0.0
    for i in range(100):
        params = SystemParams(
            n_levels=int(rng.integers(1, 31)),
            g=float(rng.uniform(1e-3, 0.2)),
            delta=float(rng.uniform(-0.1, 0.1)),
        )
        charger = ChargerSpec(
            q=float(rng.uniform()), theta=float(rng.uniform(0, math.pi)), c=float(rng.uniform()),
        )
        state = random_state(rng, params.dim, diagonal=i % 2 == 0)
        tau = float(rng.uniform(0.0, 60.0))
        try:
            deviation = general_round_oracle_deviation(state, charger, params, tau)
        except ZeroProbabilityError:
            continue
        worst = max(worst, deviation)
    assert worst < ORACLE_ATOL


# derandomized and bounded so the suite stays deterministic and fast
PROPERTY = settings(derandomize=True, max_examples=150, deadline=None, database=None)


@st.composite
def round_cases(draw):
    """(state, charger, params, tau) with N <= 30 and a diagonal or general state."""
    params = SystemParams(
        n_levels=draw(st.integers(1, 30)),
        g=draw(st.floats(1e-3, 0.2)),
        delta=draw(st.floats(-0.1, 0.1)),
    )
    charger = ChargerSpec(
        q=draw(st.floats(0.0, 1.0)), theta=draw(st.floats(0.0, math.pi)), c=draw(st.floats(0.0, 1.0)),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    state = random_state(rng, params.dim, diagonal=draw(st.booleans()))
    return state, charger, params, draw(st.floats(0.0, 60.0))


@PROPERTY
@given(round_cases())
def test_general_round_matches_dense_oracle_property(case):
    from qbattery.validate import ORACLE_ATOL, general_round_oracle_deviation

    try:
        deviation = general_round_oracle_deviation(*case)
    except ZeroProbabilityError:
        assume(False)
    assert deviation < ORACLE_ATOL


@PROPERTY
@given(round_cases())
def test_outcome_probabilities_of_each_preparation_sum_to_one(case):
    from qbattery.validate import kraus_set, povm_apply

    state, _, params, tau = case
    ks = kraus_set(params, tau)

    def probability(kind):
        try:
            return povm_apply(kind, state, ks)[1]
        except ZeroProbabilityError:
            return 0.0  # below ZERO_PROBABILITY_ATOL

    for pair in (("eg", "ee"), ("gg", "ge")):
        assert sum(probability(kind) for kind in pair) == pytest.approx(1.0, abs=1e-12)


def test_interval_grids_match_scalar_calls():
    from qbattery import round_probability
    from qbattery.scheduler import power_off_objective

    params = SystemParams(n_levels=100, g=0.04, delta=0.02, beta=0.05)
    state = thermal_state(params)
    taus = np.linspace(0.0, 2.0 * math.pi / params.g, 401)
    rtol = 8 * np.finfo(float).eps
    for scheme in ("power_on", "power_off"):
        grid = round_probability(state, params, scheme, taus)
        scalar = [round_probability(state, params, scheme, float(t)) for t in taus]
        np.testing.assert_allclose(grid, scalar, rtol=rtol, atol=0.0)
    for objective in ("per_round", "cumulative"):
        grid = power_off_objective(state, params, taus, 0.3, 10.0, objective)
        scalar = [power_off_objective(state, params, float(t), 0.3, 10.0, objective) for t in taus]
        assert np.isneginf(grid[0]) and np.isneginf(scalar[0])  # tau = 0: no outcome
        np.testing.assert_allclose(grid, scalar, rtol=rtol, atol=0.0)


def test_closed_form_sweep_matches_general_round():
    from qbattery.rounds import _mean_ratios

    rng = np.random.default_rng(5)
    state = thermal_state(BASE)
    q, theta, c = rng.uniform(size=40), rng.uniform(0, math.pi, size=40), rng.uniform(size=40)
    q[:4], theta[:4], c[:4] = (0.0, 1.0, 0.0, 1.0), (0.0, math.pi, math.pi, 0.0), 0.0
    ratios = _mean_ratios(state.populations, BASE, 8.0, q, theta, c)
    for i in range(q.size):
        charger = ChargerSpec(q=float(q[i]), theta=float(theta[i]), c=float(c[i]))
        rec = general_round(state, charger, BASE, 8.0)
        expected = mean_occupation(rec.post_state) / mean_occupation(state)
        assert ratios[i] == pytest.approx(expected, rel=1e-12)

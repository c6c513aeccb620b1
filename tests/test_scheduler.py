import math

import numpy as np
import pytest

from qbattery import (
    BatteryState,
    NoChargingError,
    SystemParams,
    fock_state,
    mean_occupation,
    occupation_variance,
    round_probability,
    run_protocol,
    sample_protocol,
    tau_opt_analytic,
    tau_opt_numeric,
    tau_opt_power_off,
    thermal_state,
)
from qbattery.scheduler import power_off_objective

WARM = SystemParams(n_levels=100, g=0.04, delta=0.02, beta=0.05)
RESONANT = SystemParams(n_levels=100, g=0.04, delta=0.0)


def test_tau_analytic_vacuum():
    tau = tau_opt_analytic(fock_state(0, 100), WARM)
    assert tau == pytest.approx(math.pi / 0.08, abs=1e-12)


def test_tau_analytic_decreases_with_mean():
    taus = [
        tau_opt_analytic(fock_state(n, 100), WARM) for n in (0, 5, 20, 60)
    ]
    assert all(a > b for a, b in zip(taus, taus[1:]))


def test_tau_analytic_near_first_probability_peak():
    # thermal start around 19 quanta: quarter-period interval lands by
    # the single-measurement probability peak near tau = 8-9
    tau = tau_opt_analytic(thermal_state(WARM), WARM)
    assert 8.0 < tau < 9.5


def test_tau_numeric_matches_analytic_on_vacuum():
    # from the vacuum the round probability is a single sine square, so
    # both rules give the exact quarter period
    expected = math.pi / (2 * RESONANT.g)
    tau = tau_opt_numeric(fock_state(0, 100), RESONANT)
    assert tau == pytest.approx(expected, rel=1e-6)


def test_tau_numeric_dominates_analytic():
    for beta in (0.01, 0.05, 0.1, 1.0):
        params = SystemParams(n_levels=100, g=0.04, delta=0.02, beta=beta)
        state = thermal_state(params)
        p_numeric = round_probability(
            state, params, "power_on", tau_opt_numeric(state, params)
        )
        p_analytic = round_probability(
            state, params, "power_on", tau_opt_analytic(state, params)
        )
        assert p_numeric >= p_analytic - 1e-12


def test_tau_numeric_and_analytic_track_across_temperatures():
    # the closed-form rule stays within a few percent of the bare
    # maximizer over three decades of inverse temperature
    for beta in (0.01, 0.1, 1.0):
        params = SystemParams(n_levels=100, g=0.04, delta=0.02, beta=beta)
        state = thermal_state(params)
        for _ in range(20):
            t_num = tau_opt_numeric(state, params)
            t_ana = tau_opt_analytic(state, params)
            assert abs(t_num - t_ana) / t_ana < 0.12
            from qbattery import power_on_round

            state = power_on_round(state, params, t_num).post_state


def test_power_off_objective_sign_structure():
    state = thermal_state(WARM)
    charging = power_off_objective(state, WARM, 2.0)    # ratio > 1 at short tau
    discharging = power_off_objective(state, WARM, 12.0)  # ratio < 1 past the peak
    assert charging > 0.0 > discharging


def test_power_off_argmax_invariant_under_balance_rescaling():
    # with the probability factor frozen, changing x only rescales the
    # logarithm, so the argmax over tau cannot move
    state = thermal_state(WARM)
    taus = np.linspace(0.5, 10.0, 60)
    levels = np.arange(state.populations.size)
    from qbattery.propagator import _amplitude_vectors

    ratios = []
    for t in taus:
        _, swap = _amplitude_vectors(WARM, float(t))
        w = np.abs(swap) ** 2
        out = np.zeros_like(state.populations)
        out[:-1] = w[1:] * state.populations[1:]
        ratios.append(float(levels @ out) / out.sum() / mean_occupation(state))
    ratios = np.array(ratios)

    def argmax_for(x, p_frozen=0.5):
        return int(np.argmax(np.exp(x * p_frozen) * np.log(ratios) / np.log(x)))

    assert argmax_for(5.0) == argmax_for(10.0) == argmax_for(40.0)


def test_tau_opt_power_off_raises_on_vacuum():
    with pytest.raises(NoChargingError):
        tau_opt_power_off(fock_state(0, 100), WARM)


def test_tau_opt_power_off_charges():
    state = thermal_state(WARM)
    tau = tau_opt_power_off(state, WARM)
    from qbattery import power_off_round

    rec = power_off_round(state, WARM, tau)
    assert mean_occupation(rec.post_state) > mean_occupation(state)


def test_run_protocol_vacuum_resonant_builds_fock_states():
    trajectory = run_protocol(fock_state(0, 100), RESONANT, "power_on", 12, "analytic")
    assert trajectory.cumulative_probability == pytest.approx(1.0, abs=1e-10)
    for m, rec in enumerate(trajectory.rounds, start=1):
        assert rec.post_state.populations[m] == pytest.approx(1.0, abs=1e-10)
        assert occupation_variance(rec.post_state) == pytest.approx(0.0, abs=1e-10)


def test_run_protocol_cumulative_probability_is_round_product():
    trajectory = run_protocol(thermal_state(WARM), WARM, "power_on", 15, "analytic")
    product = np.prod(trajectory.probabilities())
    assert trajectory.cumulative_probability == pytest.approx(product, rel=1e-12)
    partial = np.cumprod(trajectory.probabilities())
    assert (np.diff(partial) <= 0).all()


def test_run_protocol_energy_monotone_after_warmup():
    trajectory = run_protocol(thermal_state(WARM), WARM, "power_on", 60, "analytic")
    energies = trajectory.energies()
    assert (np.diff(energies)[1:] > 0).all()
    beta_mod = SystemParams(n_levels=100, g=0.04, delta=0.02, beta=0.1)
    trajectory = run_protocol(thermal_state(beta_mod), beta_mod, "power_on", 60, "analytic")
    assert (np.diff(trajectory.energies()) > 0).all()


def test_run_protocol_unit_energy_gain_per_round():
    trajectory = run_protocol(thermal_state(WARM), WARM, "power_on", 50, "analytic")
    means = [mean_occupation(trajectory.initial_state)] + [
        mean_occupation(r.post_state) for r in trajectory.rounds
    ]
    gains = np.diff(means)
    assert (gains[4:] >= 0.9).all() and (gains[4:] <= 1.0).all()


def test_run_protocol_interval_sequence_settles():
    trajectory = run_protocol(thermal_state(WARM), WARM, "power_on", 40, "analytic")
    taus = trajectory.taus()
    rel_change = np.abs(np.diff(taus)) / taus[:-1]
    assert (rel_change[19:] < 0.02).all()


def test_run_protocol_power_off_compromise():
    trajectory = run_protocol(thermal_state(WARM), WARM, "power_off", 20, "power_off_compromise")
    assert not trajectory.truncated
    means = [mean_occupation(r.post_state) for r in trajectory.rounds]
    assert means[-1] > mean_occupation(trajectory.initial_state)
    assert 0.001 < trajectory.cumulative_probability < 0.1


def test_run_protocol_power_off_cumulative_objective_truncates():
    # folding the cumulative probability into the exponent drives the
    # objective toward pure ratio greed, which narrows the distribution
    # until no interval charges; the trajectory flags the stall
    trajectory = run_protocol(
        thermal_state(WARM), WARM, "power_off", 20, "power_off_compromise",
        objective="cumulative",
    )
    assert trajectory.truncated
    assert trajectory.n_rounds < 20
    assert trajectory.truncation_reason is not None


def test_run_protocol_general_scheme_needs_charger():
    with pytest.raises(ValueError):
        run_protocol(thermal_state(WARM), WARM, "general", 3, "fixed", fixed_tau=8.0)


def test_run_protocol_general_scheme_with_coherent_charger():
    from qbattery import ChargerSpec

    charger = ChargerSpec(q=0.5, theta=0.4, c=1.0)
    trajectory = run_protocol(
        thermal_state(WARM), WARM, "general", 3, "fixed",
        charger=charger, fixed_tau=8.0,
    )
    assert trajectory.n_rounds == 3
    assert 0 < trajectory.cumulative_probability <= 1


def test_run_protocol_policy_scheme_mismatches():
    state = thermal_state(WARM)
    with pytest.raises(ValueError):
        run_protocol(state, WARM, "power_off", 3, "analytic")
    with pytest.raises(ValueError):
        run_protocol(state, WARM, "power_on", 3, "power_off_compromise")
    with pytest.raises(ValueError):
        run_protocol(state, WARM, "power_on", 3, "fixed")  # no fixed_tau
    with pytest.raises(ValueError):
        run_protocol(state, WARM, "power_on", 0, "analytic")


def test_run_protocol_truncates_on_zero_probability():
    # tau = pi/(g sqrt(2)) swaps round 1 partially but makes round 2 a
    # full period of the second block, so its outcome never occurs
    trajectory = run_protocol(
        fock_state(0, 100), RESONANT, "power_on", 5, "fixed",
        fixed_tau=math.pi / (RESONANT.g * math.sqrt(2.0)),
    )
    assert trajectory.truncated
    assert trajectory.n_rounds == 1
    assert "round 2" in trajectory.truncation_reason


def test_run_protocol_raises_when_first_round_impossible():
    with pytest.raises(NoChargingError):
        run_protocol(
            fock_state(0, 100), RESONANT, "power_on", 5, "fixed",
            fixed_tau=math.pi / RESONANT.g,
        )


def test_sample_protocol_deterministic():
    t1, attempts1 = sample_protocol(
        thermal_state(WARM), WARM, "power_on", 5, "analytic", seed=7
    )
    t2, attempts2 = sample_protocol(
        thermal_state(WARM), WARM, "power_on", 5, "analytic", seed=7
    )
    assert attempts1 == attempts2
    assert np.array_equal(t1.probabilities(), t2.probabilities())
    t3, attempts3 = sample_protocol(
        thermal_state(WARM), WARM, "power_on", 5, "analytic", seed=8
    )
    assert attempts3 >= 1


def test_sample_protocol_draws_attempts_geometrically():
    # one geometric draw with the cumulative success probability
    trajectory = run_protocol(thermal_state(WARM), WARM, "power_on", 5, "analytic")
    _, attempts = sample_protocol(thermal_state(WARM), WARM, "power_on", 5, "analytic", seed=7)
    expected = np.random.default_rng(7).geometric(trajectory.cumulative_probability)
    assert attempts == expected


@pytest.mark.parametrize("round_probability", [1e-200, 1e-15, 0.5])
def test_sample_protocol_raises_past_max_attempts(monkeypatch, round_probability):
    # 1e-200 squared underflows to a zero cumulative probability, which
    # rng.geometric rejects; 1e-15 squared saturates its draw
    from qbattery import RoundRecord, Trajectory, scheduler

    state = fock_state(1, 5)
    params = SystemParams(n_levels=5, g=0.04)
    rounds = tuple(RoundRecord(state, round_probability, 1.0, "power_on") for _ in range(2))
    trajectory = Trajectory(rounds, round_probability**2, "power_on", params, state)
    monkeypatch.setattr(scheduler, "run_protocol", lambda *args, **kwargs: trajectory)
    with pytest.raises(RuntimeError):
        # seed 0 draws 3 attempts at p = 0.25
        sample_protocol(state, params, "power_on", 2, seed=0, max_attempts=2)

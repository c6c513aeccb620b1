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


def test_tau_analytic_reads_the_populations_of_a_coherent_state():
    psi = np.zeros(WARM.dim)
    psi[[0, 3]] = 1.0 / math.sqrt(2.0)
    state = BatteryState.from_matrix(np.outer(psi, psi))
    assert not state.is_diagonal
    assert tau_opt_analytic(state, WARM) == tau_opt_analytic(BatteryState.diagonal(state.populations), WARM)


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


def test_truncated_follows_the_truncation_reason():
    import dataclasses

    from qbattery.scheduler import Trajectory

    run = run_protocol(thermal_state(WARM), WARM, "power_on", 2, "analytic")
    assert not run.truncated and run.truncation_reason is None
    cut = dataclasses.replace(run, truncation_reason="round 3: stalled")
    assert cut.truncated
    assert not dataclasses.replace(cut, truncation_reason=None).truncated
    # the flag is no longer a field that could disagree with the reason
    with pytest.raises(TypeError):
        Trajectory(run.rounds, run.cumulative_probability, run.scheme, run.params, run.initial_state,
                   truncated=True)


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


@pytest.mark.parametrize("objective", ["bogus", "Cumulative", "per-round"])
def test_compromise_rejects_an_unknown_objective(no_rounds, objective):
    # every objective but "cumulative" used to score as "per_round"
    state = thermal_state(WARM)
    match = r"objective must be one of \('per_round', 'cumulative'\)"
    with pytest.raises(ValueError, match=match):
        power_off_objective(state, WARM, 2.0, objective=objective)
    with pytest.raises(ValueError, match=match):
        tau_opt_power_off(state, WARM, objective=objective)
    # the protocol checks it before round 1
    with pytest.raises(ValueError, match=match):
        run_protocol(state, WARM, "power_off", 3, "power_off_compromise", objective=objective)


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


def _fresh_tau(state, params, scheme, tau_max, grid_points, cumulative=1.0, objective="per_round"):
    """The optimizers' interval, scored from weights built afresh by
    ``_map_weights`` on every call rather than from the cached grid."""
    from qbattery.scheduler import _golden_max

    if scheme == "power_on":
        f = lambda t: round_probability(state, params, scheme, t)
    else:
        f = lambda t: power_off_objective(state, params, t, cumulative, 10.0, objective)
    taus = np.linspace(0.0, 2.0 * math.pi / params.g if tau_max is None else tau_max, grid_points + 1)[1:]
    values = f(taus)
    if scheme == "power_off" and not (values > 0.0).any():
        return None
    i = int(values.argmax())
    lo = taus[i - 1] if i > 0 else taus[i] / 2.0
    hi = taus[i + 1] if i + 1 < taus.size else taus[i]
    return _golden_max(f, lo, hi, 1e-6)


def _optimized_tau(state, params, scheme, tau_max, grid_points, cumulative=1.0, objective="per_round"):
    if scheme == "power_on":
        return tau_opt_numeric(state, params, scheme, tau_max, grid_points)
    try:
        return tau_opt_power_off(state, params, cumulative, 10.0, tau_max, grid_points, objective)
    except NoChargingError:
        return None


def test_cached_grid_gives_bit_identical_intervals_randomized():
    # few ladders and grids against many couplings, so that a cache key
    # missing a field would hand one case another case's weights
    rng = np.random.default_rng(11)
    for _ in range(60):
        params = SystemParams(
            n_levels=int(rng.choice([5, 30, 100, 400])),
            g=float(rng.choice([0.03, 0.04, 0.05])),
            delta=float(rng.choice([0.0, 0.02, -0.03])),
            beta=float(rng.uniform(0.02, 1.0)),
        )
        state = thermal_state(params)
        if rng.uniform() < 0.5:
            state = BatteryState.diagonal(rng.dirichlet(np.ones(params.dim)))
        case = (
            state, params, str(rng.choice(["power_on", "power_off"])),
            rng.choice([None, 80.0, 250.0]), int(rng.choice([1, 2, 50, 400])),
            float(rng.uniform(0.05, 1.0)), str(rng.choice(["per_round", "cumulative"])),
        )
        expected = _fresh_tau(*case)
        # the second call reads the grid the first one cached
        assert _optimized_tau(*case) == expected
        assert _optimized_tau(*case) == expected


def test_refinement_prepares_each_state_once(monkeypatch):
    # the ladder and the shifted populations are set up once per call, not
    # once per golden-section point: the counts stay put while the number
    # of points changes with the grid
    import qbattery.propagator as propagator
    import qbattery.rounds as rounds
    import qbattery.scheduler as scheduler

    counts = {"maps": 0, "points": 0}
    original_map, original_golden = propagator._diagonal_map, scheduler._golden_max

    def counted_map(*args):
        counts["maps"] += 1
        return original_map(*args)

    def counted_golden(f, lo, hi, *args):
        def point(tau):
            counts["points"] += 1
            return f(tau)
        return original_golden(point, lo, hi, *args)

    for module in (propagator, rounds, scheduler):
        monkeypatch.setattr(module, "_diagonal_map", counted_map)
    monkeypatch.setattr(scheduler, "_golden_max", counted_golden)
    state = thermal_state(WARM)
    for optimize in (
        lambda tau_max, points: tau_opt_numeric(state, WARM, "power_on", tau_max, points),
        lambda tau_max, points: tau_opt_power_off(state, WARM, tau_max=tau_max, grid_points=points),
    ):
        seen = set()
        for grid in ((None, 400), (150.0, 37)):
            optimize(*grid)  # fills the grid cache
            ladder = propagator._ladder.cache_info()
            counts.update(maps=0, points=0)
            optimize(*grid)
            after = propagator._ladder.cache_info()
            lookups = after.hits + after.misses - ladder.hits - ladder.misses
            assert counts["points"] > 10
            assert (lookups, counts["maps"]) == (1, 1)
            seen.add(counts["points"])
        assert len(seen) == 2


def test_cached_arrays_are_read_only():
    from qbattery.propagator import _ladder
    from qbattery.scheduler import _grid_weights, _tau_grid

    taus, weights = _grid_weights(WARM, "eg", 150.0, 400)
    for array in (taus, weights, *_ladder(WARM, 1)):
        with pytest.raises(ValueError, match="read-only"):
            array[..., 0] = 0
    # a round scored from the grid gets a fresh product
    before = weights.copy()
    _, out = _tau_grid(thermal_state(WARM), WARM, "power_on", 150.0, 400)
    assert out.flags.writeable and not np.shares_memory(out, weights)
    np.testing.assert_array_equal(weights, before)


@pytest.mark.parametrize("other", [
    SystemParams(n_levels=100, g=0.05, delta=0.02, beta=0.05),
    SystemParams(n_levels=60, g=0.04, delta=0.02, beta=0.05),
])
def test_params_differing_in_g_or_ladder_never_share_weights(other):
    from qbattery.propagator import _map_weights
    from qbattery.scheduler import _grid_weights

    def closed_form(params, taus):
        n = np.arange(params.dim)
        omega = np.sqrt(params.g**2 * n + params.delta**2 / 4.0)
        return params.g**2 * n * (np.sin(omega * taus[:, None]) / omega) ** 2

    grids = {}
    for params in (WARM, other, WARM, other):
        taus, weights = _grid_weights(params, "eg", 120.0, 50)
        np.testing.assert_allclose(weights, closed_form(params, taus), rtol=1e-12, atol=1e-300)
        np.testing.assert_array_equal(weights, _map_weights(params, taus, "eg"))
        grids.setdefault(params, weights)
        assert grids[params] is weights
    assert grids[WARM] is not grids[other]


def test_round_between_optimizations_leaves_the_cache_unchanged():
    from qbattery import power_on_round
    from qbattery.propagator import _ladder
    from qbattery.scheduler import _grid_weights

    state = thermal_state(WARM)
    tau = tau_opt_numeric(state, WARM)
    taus, weights = _grid_weights(WARM, "eg", 2.0 * math.pi / WARM.g, 400)
    ladder = _ladder(WARM, 0)
    saved = [a.copy() for a in (taus, weights, *ladder)]
    grid_info, ladder_info = _grid_weights.cache_info(), _ladder.cache_info()
    post = power_on_round(state, WARM, tau).post_state
    assert _grid_weights.cache_info() == grid_info
    assert _ladder.cache_info().misses == ladder_info.misses
    for array, copy in zip((taus, weights, *ladder), saved):
        np.testing.assert_array_equal(array, copy)
    assert tau_opt_numeric(post, WARM) == _fresh_tau(post, WARM, "power_on", None, 400)
    assert _grid_weights.cache_info().hits == grid_info.hits + 1


@pytest.mark.parametrize("tau", [-8.0, math.nan, math.inf, np.array([1.0, -1.0]), np.array([2.0, math.nan])])
def test_objectives_reject_an_invalid_interval(tau):
    state = thermal_state(WARM)
    for objective in (lambda t: round_probability(state, WARM, "power_on", t),
                      lambda t: round_probability(state, WARM, "power_off", t),
                      lambda t: power_off_objective(state, WARM, t)):
        with pytest.raises(ValueError, match="tau must be >= 0 and finite"):
            objective(tau)


@pytest.mark.parametrize("tau_max, grid_points, match", [
    (-5.0, 400, "tau_max"), (0.0, 400, "tau_max"), (math.inf, 400, "tau_max"),
    (math.nan, 400, "tau_max"), (None, 0, "grid_points"), (None, -3, "grid_points"),
])
def test_invalid_interval_grid_is_rejected(tau_max, grid_points, match):
    state = thermal_state(WARM)
    with pytest.raises(ValueError, match=match):
        tau_opt_numeric(state, WARM, "power_on", tau_max, grid_points)
    # not a NoChargingError: the grid is at fault, not the state
    with pytest.raises(ValueError, match=match):
        tau_opt_power_off(state, WARM, tau_max=tau_max, grid_points=grid_points)
    with pytest.raises(ValueError, match=match):
        run_protocol(state, WARM, "power_on", 3, "numeric", tau_max=tau_max, grid_points=grid_points)


@pytest.mark.parametrize("tau", [-2.0, -1e-300, math.inf, math.nan])
def test_drive_rejects_an_invalid_interval(tau):
    from qbattery import DissipationParams, dissipative_protocol

    state = thermal_state(WARM)
    for scheme in ("power_on", "power_off"):
        with pytest.raises(ValueError, match="round 1: interval"):
            run_protocol(state, WARM, scheme, 3, "fixed", fixed_tau=tau)
    small = SystemParams(n_levels=4, g=0.04, delta=0.02, beta=0.5)
    diss = DissipationParams.thermal(small, gamma_b=1e-3)
    with pytest.raises(ValueError, match="round 1: interval"):
        dissipative_protocol(thermal_state(small), small, diss, "power_on", 2, "fixed", fixed_tau=tau)
    with pytest.raises(ValueError, match="round 2: interval"):
        dissipative_protocol(thermal_state(small), small, diss, "power_on", 2, "schedule",
                             tau_schedule=[8.0, tau])

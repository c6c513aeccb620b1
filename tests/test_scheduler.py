import dataclasses
import math

import numpy as np
import pytest

from qbattery import (
    BatteryState,
    NoChargingError,
    SystemParams,
    energy,
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
from qbattery.scheduler import OBJECTIVES, power_off_objective

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


def energies(trajectory):
    """Energy after each round, preceded by the initial energy."""
    return np.array([energy(trajectory.initial_state, trajectory.params)]
                    + [r.thermo.energy for r in trajectory.rounds])


def test_run_protocol_energy_monotone_after_warmup():
    trajectory = run_protocol(thermal_state(WARM), WARM, "power_on", 60, "analytic")
    assert (np.diff(energies(trajectory))[1:] > 0).all()
    beta_mod = SystemParams(n_levels=100, g=0.04, delta=0.02, beta=0.1)
    trajectory = run_protocol(thermal_state(beta_mod), beta_mod, "power_on", 60, "analytic")
    assert (np.diff(energies(trajectory)) > 0).all()


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


GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_walk(f, lo, hi, comparisons=None):
    """Golden-section search on [lo, hi] comparing exact values of ``f``
    only, the search the refinement must reproduce; each comparison
    (c, d, f(c) > f(d)) is appended to ``comparisons``."""
    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    scale = max(abs(lo), abs(hi), 1e-12)
    while (b - a) > 1e-6 * scale:
        if comparisons is not None:
            comparisons.append((c, d, fc > fd))
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _fresh_tau(state, params, scheme, tau_max, grid_points, cumulative=1.0, objective="per_round"):
    """The optimizers' interval, scored from weights built afresh by
    ``_map_weights`` on every call rather than from the cached grid, and
    refined by the exact golden-section search."""
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
    return _golden_walk(f, lo, hi)


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


@pytest.mark.parametrize("n_levels", [5, 30, 100, 400])
def test_tied_grid_peaks_break_to_the_first_interval(n_levels):
    # the ground state and Fock states have periodic round probabilities
    # with exactly equal peaks; the grid's matrix product must pick the
    # same first maximum as the fresh row sums
    for delta in (0.0, 0.02):
        params = SystemParams(n_levels=n_levels, g=0.04, delta=delta, beta=math.inf)
        for state in (thermal_state(params), *(fock_state(k, n_levels) for k in (1, 3, n_levels // 2))):
            for tau_max in (None, 80.0):
                for grid_points in (1, 2, 50, 400):
                    for scheme, objective in (("power_on", "per_round"), ("power_off", "per_round"),
                                              ("power_off", "cumulative")):
                        case = (state, params, scheme, tau_max, grid_points, 0.5, objective)
                        assert _optimized_tau(*case) == _fresh_tau(*case)


@pytest.mark.parametrize("optimize", [
    lambda state, params: tau_opt_numeric(state, params),
    lambda state, params: tau_opt_power_off(state, params),
], ids=["numeric", "power_off"])
def test_warm_optimization_allocates_no_grid(optimize):
    # one 400 x 401 grid of populations is 1.28 MB; a warm optimization
    # scores the cached weights without allocating anything of that size
    import tracemalloc

    params = SystemParams(n_levels=400, g=0.04, delta=0.02, beta=0.05)
    state = thermal_state(params)
    optimize(state, params)  # fills the grid cache
    tracemalloc.start()
    try:
        optimize(state, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 1024


def test_refinement_prepares_each_state_once(monkeypatch):
    # the populations are shifted once per call, for the grid and the
    # refinement alike, and the ladder is looked up once, not once per
    # exact point; the Taylor model leaves the default grid's probability
    # refinement a few exact points, and the coarse grid, where the model
    # is refused, and the compromise score compare exact points throughout
    import qbattery.propagator as propagator
    import qbattery.scheduler as scheduler

    counts = {"shifts": 0, "points": 0}
    original_shifted, original_weights = propagator._shifted, scheduler._ladder_weights

    def counted_shifted(*args):
        counts["shifts"] += 1
        return original_shifted(*args)

    def counted_weights(*args):
        counts["points"] += 1
        return original_weights(*args)

    for module in (propagator, scheduler):
        monkeypatch.setattr(module, "_shifted", counted_shifted)
    monkeypatch.setattr(scheduler, "_ladder_weights", counted_weights)
    state = thermal_state(WARM)
    for name, optimize in (
        ("numeric", lambda tau_max, points: tau_opt_numeric(state, WARM, "power_on", tau_max, points)),
        ("compromise", lambda tau_max, points: tau_opt_power_off(state, WARM, tau_max=tau_max, grid_points=points)),
    ):
        points = {}
        for grid in ((None, 400), (150.0, 37)):
            optimize(*grid)  # fills the grid cache
            ladder = propagator._ladder.cache_info()
            counts.update(shifts=0, points=0)
            optimize(*grid)
            after = propagator._ladder.cache_info()
            lookups = after.hits + after.misses - ladder.hits - ladder.misses
            assert (lookups, counts["shifts"]) == (1, 1)
            points[grid] = counts["points"]
        assert points[(None, 400)] <= 6, name
        assert points[(150.0, 37)] > 10, name


def _seeded_states(params, rng):
    """Thermal states at three temperatures, the Fock states 1, 3 and N/2,
    whose periodic probabilities give exact ties, and two random states."""
    thermal = [thermal_state(dataclasses.replace(params, beta=beta)) for beta in (0.1, 0.05, math.inf)]
    fock = [fock_state(k, params.n_levels) for k in (1, 3, params.n_levels // 2)]
    return thermal + fock + [BatteryState.diagonal(rng.dirichlet(np.ones(params.dim))) for _ in range(2)]


@pytest.mark.parametrize("n_levels", [5, 30, 100, 400])
def test_every_model_decision_matches_the_exact_comparison(monkeypatch, n_levels):
    # each refinement is run twice: by the exact golden-section walk, whose
    # every comparison the model must reproduce wherever its bound lets it
    # decide, and by the certified search, which must return the same
    # interval while scoring only a few exact points
    import qbattery.scheduler as scheduler

    original = scheduler._golden_max
    evaluations, decided, compared = {"numeric": [], "compromise": []}, [0], [0]
    objective = ["numeric"]

    def checked(lo, hi, exact, model=None, per_width=0.0):
        assert model is not None
        comparisons = []
        tau = _golden_walk(exact, lo, hi, comparisons)
        for c, d, c_wins in comparisons:
            (fc, ec), (fd, ed) = model(c), model(d)
            if abs(fc - fd) > ec + ed + per_width * abs(d - c):
                decided[0] += 1
                assert (fc > fd) == c_wins, (lo, hi, c, d)
        compared[0] += len(comparisons)
        points = []
        assert original(lo, hi, lambda t: points.append(t) or exact(t), model, per_width) == tau
        evaluations[objective[0]].append(len(points))
        return tau

    monkeypatch.setattr(scheduler, "_golden_max", checked)
    rng = np.random.default_rng(n_levels)
    for delta in (0.0, 0.02):
        params = SystemParams(n_levels=n_levels, g=0.04, delta=delta)
        for state in _seeded_states(params, rng):
            objective[0] = "numeric"
            assert tau_opt_numeric(state, params) == _fresh_tau(state, params, "power_on", None, 400)
            tau_opt_numeric(state, params, "power_off")  # checked against the exact walk alone
            objective[0] = "compromise"
            for name in OBJECTIVES:
                case = (state, params, "power_off", None, 400, 0.5, name)
                assert _optimized_tau(*case) == _fresh_tau(*case)
    assert decided[0] > 0.8 * compared[0]
    # an exact-tie state costs up to 16 points; a refinement of the exact search scores 26
    assert np.mean(evaluations["numeric"]) <= 3.0
    assert np.mean(evaluations["compromise"]) <= 5.0


@pytest.mark.parametrize("tiny", [5e-324, 1e-310, 1e-300])
def test_subnormal_populations_refine_as_the_exact_search(tiny):
    # populations near and below the smallest normal float, where rounding
    # errors are absolute rather than relative, still refine to the exact
    # search's interval
    params = SystemParams(n_levels=30, g=0.04, delta=0.02)
    for level in (1, 3):
        populations = np.zeros(params.dim)
        populations[[0, level]] = 1.0, tiny
        state = BatteryState.diagonal(populations)
        for scheme, objective in (("power_on", "per_round"), ("power_off", "per_round"), ("power_off", "cumulative")):
            case = (state, params, scheme, None, 400, 0.5, objective)
            with np.errstate(over="ignore"):
                assert _optimized_tau(*case) == _fresh_tau(*case)


@pytest.mark.parametrize("scheme", ["power_on", "power_off"])
def test_coarse_grid_refuses_the_model(monkeypatch, scheme):
    # on grid (150, 37) the bracket's half width h gives x = 2 O_N h > 1,
    # where the Taylor model is refused and every comparison is exact
    import qbattery.scheduler as scheduler

    original, models = scheduler._golden_max, []

    def recorded(lo, hi, exact, model=None, per_width=0.0):
        models.append(model)
        return original(lo, hi, exact, model, per_width)

    monkeypatch.setattr(scheduler, "_golden_max", recorded)
    state = thermal_state(WARM)
    for grid in ((150.0, 37), (None, 400)):
        models.clear()
        if scheme == "power_on":
            assert tau_opt_numeric(state, WARM, scheme, *grid) == _fresh_tau(state, WARM, scheme, *grid)
        else:
            assert tau_opt_power_off(state, WARM, tau_max=grid[0], grid_points=grid[1]) == _fresh_tau(
                state, WARM, scheme, *grid)
        assert (models[0] is None) == (grid == (150.0, 37))


def test_cached_arrays_are_read_only():
    from qbattery.propagator import _ladder, _shifted
    from qbattery.scheduler import _grid_weights, _tau_grid

    taus, weights = _grid_weights(WARM, "eg", 150.0, 400)
    for array in (taus, weights, *_ladder(WARM, 1)):
        with pytest.raises(ValueError, match="read-only"):
            array[..., 0] = 0
    # the sums scored from the grid are a fresh array
    before = weights.copy()
    _, out = _tau_grid(WARM, "eg", 150.0, 400, _shifted("eg", thermal_state(WARM).populations))
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


def _mp_probability(ladder, shifted, tau):
    """sum_n g^2 n shifted_n (sin(O_n tau) / O_n)^2 at the current mpmath
    precision, from the float ladder constants, populations and interval
    taken as exact: the function the float score and the Taylor model
    both approximate."""
    from mpmath import mpf, sin

    omega, divisor, _, g2n = ladder
    tau = mpf(tau)
    total = mpf(0)
    for o, d, w, p in zip(omega.tolist(), divisor.tolist(), g2n.tolist(), shifted.tolist()):
        if w and p:
            s = sin(mpf(o) * tau) / mpf(d) if o else tau
            total += mpf(w) * mpf(p) * s * s
    return total


def _bound_cases():
    """(params, kind, ladder, shifted) for N = 100 and 400, a thermal and
    a random state, and both closed-form kinds of the optimizers."""
    from qbattery.propagator import _kind_ladder, _shifted

    rng = np.random.default_rng(51)
    for n_levels in (100, 400):
        params = SystemParams(n_levels=n_levels, g=0.04, delta=0.02, beta=0.05)
        for state in (thermal_state(params), BatteryState.diagonal(rng.dirichlet(np.ones(params.dim)))):
            for kind in ("eg", "ge"):
                yield params, kind, _kind_ladder(params, kind), _shifted(kind, state.populations)


def test_exact_score_error_within_its_stated_term():
    # the derivation in _interval_model's docstring, restated: a float
    # exact point errs by at most u (tau S_1 / 2 + (6 + 4 _FUNCTION_ULPS +
    # _pairwise_depth(N + 1)) S_0), with S_i = sum_n B_n (2 O_n)^i / i!,
    # B_n = g^2 n shifted_n / O_n^2, here without the _SAFETY factor
    mpmath = pytest.importorskip("mpmath")
    import qbattery.scheduler as scheduler

    worst = 0.0
    taus = np.concatenate([np.linspace(0.0, 157.0, 9)[1:], np.random.default_rng(7).uniform(100.0, 157.0, 4)])
    with mpmath.workdps(50):
        for params, kind, ladder, shifted in _bound_cases():
            omega, divisor, _, g2n = ladder
            amp = g2n * shifted / divisor**2
            s0, s1 = amp.sum(), (2.0 * omega * amp).sum()
            units = 6 + 4 * scheduler._FUNCTION_ULPS + scheduler._pairwise_depth(params.dim)
            for tau in taus.tolist():
                value = float(scheduler._scores(params, kind, ladder, shifted, tau))
                error = abs(mpmath.mpf(value) - _mp_probability(ladder, shifted, tau))
                bound = scheduler._UNIT * (0.5 * tau * s1 + units * s0)
                worst = max(worst, float(error) / bound)
    assert worst <= 1.0


def test_taylor_model_error_within_its_reported_point_bound(monkeypatch):
    # at degree 8 the Taylor remainder dominates the model's bound; each
    # point's model value, the gap P(tau) - P(tau0) from the bracket
    # centre, must match the 50-digit gap within the bound the model
    # reports for the point, (e - _GAP_FLOOR / 2) / _SAFETY
    mpmath = pytest.importorskip("mpmath")
    import qbattery.scheduler as scheduler

    degree = 8
    monkeypatch.setattr(scheduler, "TAYLOR_DEGREE", degree)
    monkeypatch.setattr(scheduler, "_COS_SIGN", np.array([(-0.5, 0.0, 0.5, 0.0)[k % 4] for k in range(degree + 1)]))
    monkeypatch.setattr(scheduler, "_SIN_SIGN", np.array([(0.0, 0.5, 0.0, -0.5)[k % 4] for k in range(degree + 1)]))
    scheduler._taylor_table.cache_clear()
    worst = 0.0
    try:
        with mpmath.workdps(50):
            for params, kind, ladder, shifted in _bound_cases():
                taus = np.linspace(0.0, 2.0 * math.pi / params.g, 401)[1:]
                for i in (1, 57, 160, 289, 398):
                    lo, hi = float(taus[i - 1]), float(taus[i + 1])
                    model, _ = scheduler._interval_model(params, kind, ladder, shifted, lo, hi, None)
                    assert model is not None
                    centre = 0.5 * (lo + hi)
                    start = _mp_probability(ladder, shifted, centre)
                    c, d = hi - GOLDEN * (hi - lo), lo + GOLDEN * (hi - lo)
                    for tau in (lo, c, 0.25 * (3.0 * lo + hi), d, hi):
                        value, e = model(tau)
                        error = abs(mpmath.mpf(value) - (_mp_probability(ladder, shifted, tau) - start))
                        worst = max(worst, float(error) / ((e - 0.5 * scheduler._GAP_FLOOR) / scheduler._SAFETY))
    finally:
        scheduler._taylor_table.cache_clear()
    assert worst <= 1.0

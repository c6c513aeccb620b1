"""Acceptance gate: one test per published criterion, each printing a
PASS/FAIL line with the measured values (run with ``pytest -s`` to see
them all).

Four sub-criteria encode targets that the model itself forbids; they are
implemented faithfully and marked as strict expected failures, with the
blocking arithmetic in the xfail reason.
"""

import itertools
import math
import time

import numpy as np
import pytest

from qbattery import (
    BatteryState,
    ChargerSpec,
    DissipationParams,
    SystemParams,
    charging_power,
    diagonal_fidelity,
    dissipative_protocol,
    ergotropy,
    energy,
    fano_ratio,
    fock_state,
    gaussian_reference,
    general_round,
    mean_occupation,
    occupation_variance,
    passive_state,
    power_on_round,
    round_probability,
    run_protocol,
    tau_opt_numeric,
    thermal_state,
)
from qbattery.lindblad import integrate
from qbattery.validate import (
    check_block_oracle,
    check_block_unitarity,
    check_gamma_zero_reduction,
    check_kraus_completeness,
    kraus_set,
    povm_apply,
)

G, DELTA, N = 0.04, 0.02, 100


def params_at(beta):
    return SystemParams(n_levels=N, g=G, delta=DELTA, beta=beta)


def report(tag, passed, detail):
    print(f"CRITERION {tag}: {'PASS' if passed else 'FAIL'} ({detail})")
    return passed


@pytest.fixture(scope="module")
def warm_trajectory():
    p = params_at(0.1)
    return p, run_protocol(thermal_state(p), p, "power_on", 80, "analytic")


@pytest.fixture(scope="module")
def hot_trajectory():
    p = params_at(0.03)
    return p, run_protocol(thermal_state(p), p, "power_on", 80, "analytic")


def test_criterion_01_block_amplitudes_match_matrix_exponential_oracle():
    start = time.monotonic()
    result = check_block_oracle(n_samples=1000, seed=12345)
    elapsed = time.monotonic() - start
    ok = result.passed and elapsed < 10.0
    assert report(
        "01", ok,
        f"max deviation {result.max_deviation:.2e} over 1000 random draws, "
        f"tol 1e-10, {elapsed:.1f}s",
    )


def test_criterion_02_completeness_and_unitarity():
    unitarity = check_block_unitarity(n_samples=10_000, seed=999)
    completeness = check_kraus_completeness()
    ok = unitarity.passed and completeness.passed
    assert report(
        "02", ok,
        f"unitarity {unitarity.max_deviation:.2e}, completeness "
        f"{completeness.max_deviation:.2e}, tol 1e-12",
    )


def test_criterion_03_zero_temperature_concentration():
    p = params_at(math.inf)
    start = time.monotonic()
    trajectory = run_protocol(thermal_state(p), p, "power_on", 80, "analytic")
    elapsed = time.monotonic() - start
    worst_var = max(occupation_variance(r.post_state) for r in trajectory.rounds)
    concentrated = all(
        r.post_state.populations[m] == pytest.approx(1.0, abs=1e-12)
        for m, r in enumerate(trajectory.rounds, start=1)
    )
    ok = concentrated and worst_var == 0.0 and elapsed < 5.0
    assert report(
        "03a", ok,
        f"exact one-level concentration every round, worst variance {worst_var}, "
        f"{elapsed:.1f}s",
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "each round's success is bounded by g^2 m / (g^2 m + delta^2/4); at "
        "g=0.04, delta=0.02 the 80-round product is at most 0.7355 for any "
        "interval choice (the quarter-period policy reaches 0.7326), so the "
        "0.90 floor is unreachable off resonance; at delta=0 the product is "
        "exactly 1"
    ),
)
def test_criterion_03_zero_temperature_success_probability():
    p = params_at(math.inf)
    trajectory = run_protocol(thermal_state(p), p, "power_on", 80, "analytic")
    measured = trajectory.cumulative_probability
    report("03b", measured > 0.90, f"cumulative probability {measured:.4f}, target > 0.90")
    assert measured > 0.90


def test_criterion_04_moderate_temperature_ratios_and_probability(warm_trajectory):
    p, trajectory = warm_trajectory
    start = time.monotonic()
    r60 = trajectory.rounds[59].thermo.ratio
    r80 = trajectory.rounds[79].thermo.ratio
    cum80 = trajectory.cumulative_probability
    elapsed = time.monotonic() - start
    ok = (
        abs(r60 - 0.94) <= 0.02
        and abs(r80 - 0.96) <= 0.02
        and abs(cum80 - 0.28) <= 0.05
        and elapsed < 10.0
    )
    assert report(
        "04", ok,
        f"ergotropy/energy {r60:.4f}@60 (0.94+-0.02), {r80:.4f}@80 (0.96+-0.02), "
        f"cumulative {cum80:.4f}@80 (0.28+-0.05)",
    )


def test_criterion_05_high_temperature_probability_decay_and_power_decline(hot_trajectory):
    p, trajectory = hot_trajectory
    cums = np.cumprod(trajectory.probabilities())
    cum60, cum80 = cums[59], cums[79]
    powers = np.array([charging_power(trajectory, m) for m in range(1, 81)])
    diffs = np.diff(powers)
    sign_changes = [
        m + 2 for m in range(len(diffs) - 1) if diffs[m] > 0 >= diffs[m + 1]
    ]
    in_window = [m for m in sign_changes if 55 <= m <= 70]
    ok = abs(cum60 - 0.20) <= 0.05 and abs(cum80 - 0.05) <= 0.05 and bool(in_window)
    assert report(
        "05", ok,
        f"cumulative {cum60:.3f}@60 (0.20+-0.05) -> {cum80:.3f}@80 (0.05+-0.05), "
        f"power first-difference sign change at m={in_window or sign_changes}",
    )


def test_criterion_06_fano_sequence(warm_trajectory):
    p, trajectory = warm_trajectory
    targets = {5: 1.37, 20: 0.33, 50: 0.13, 80: 0.08}
    measured = {m: fano_ratio(trajectory.rounds[m - 1].post_state) for m in targets}
    ok = all(abs(measured[m] - t) <= 0.10 * t for m, t in targets.items())
    assert report(
        "06a", ok,
        ", ".join(f"f({m})={measured[m]:.3f} ({t}+-10%)" for m, t in targets.items()),
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "after 50 rounds the distribution is itself near-Gaussian, so its "
        "overlap with the moment-matched Gaussian computes to 0.9975; a "
        "moment-matched reference cannot sit at 0.82 (that value would need "
        "a gross shape mismatch the map does not produce)"
    ),
)
def test_criterion_06_gaussian_fidelity(warm_trajectory):
    p, trajectory = warm_trajectory
    state = trajectory.rounds[49].post_state
    reference = gaussian_reference(
        mean_occupation(state), occupation_variance(state), N
    )
    fidelity = diagonal_fidelity(state, reference)
    report("06b", abs(fidelity - 0.82) <= 0.03, f"fidelity {fidelity:.4f}, target 0.82+-0.03")
    assert abs(fidelity - 0.82) <= 0.03


def test_criterion_07_single_measurement_peak_location_and_energy_gain():
    p = params_at(0.05)
    state = thermal_state(p)
    tau_star = tau_opt_numeric(state, p, "power_on")
    post = power_on_round(state, p, tau_star).post_state
    e_before = mean_occupation(state)
    e_after = mean_occupation(post)
    ok = 7.0 <= tau_star <= 10.0 and abs(e_after - 20.0) <= 0.5 and 18.5 <= e_before <= 19.5
    assert report(
        "07a", ok,
        f"argmax tau {tau_star:.2f} in [7, 10], energy {e_before:.2f} -> "
        f"{e_after:.2f} ladder quanta (target 19 -> 20 +- 0.5)",
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the maximized single-measurement probability evaluates to 0.659 for "
        "this thermal start (and stays within 0.656..0.661 under every "
        "nearby parameter reading), so the 0.68 floor is out of reach"
    ),
)
def test_criterion_07_single_measurement_peak_height():
    p = params_at(0.05)
    state = thermal_state(p)
    tau_star = tau_opt_numeric(state, p, "power_on")
    peak = round_probability(state, p, "power_on", tau_star)
    report("07b", peak > 0.68, f"peak probability {peak:.4f}, target > 0.68")
    assert peak > 0.68


def test_criterion_08_power_on_comparator():
    p = params_at(0.05)
    trajectory = run_protocol(thermal_state(p), p, "power_on", 20, "analytic")
    state = trajectory.rounds[-1].post_state
    mean = mean_occupation(state)
    var = occupation_variance(state)
    cum = trajectory.cumulative_probability
    ok = 34 <= mean <= 40 and 18 <= var <= 30 and 0.20 <= cum <= 0.32
    assert report(
        "08a", ok,
        f"power-on m=20: mean {mean:.1f} [34, 40], variance {var:.1f} [18, 30], "
        f"cumulative {cum:.3f} [0.20, 0.32]",
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "a variance near 100 at m=20 is incompatible with a cumulative "
        "probability above 0.005 under this map: a distribution that broad "
        "caps every round's success near 0.7, so twenty rounds multiply to "
        "under 1e-3. The per-round compromise objective reaches m=20 with "
        "mean 47.4, variance 25.2, cumulative 0.0075; folding the cumulative "
        "probability into the exponent instead degenerates to ratio greed "
        "and stalls near m=15"
    ),
)
def test_criterion_08_power_off_windows():
    p = params_at(0.05)
    outcomes = {}
    for objective in ("per_round", "cumulative"):
        trajectory = run_protocol(
            thermal_state(p), p, "power_off", 20, "power_off_compromise",
            x=10.0, objective=objective,
        )
        state = trajectory.rounds[-1].post_state
        outcomes[objective] = (
            trajectory.n_rounds,
            mean_occupation(state),
            occupation_variance(state),
            trajectory.cumulative_probability,
        )
        print(
            f"  power-off[{objective}]: rounds={outcomes[objective][0]} "
            f"mean={outcomes[objective][1]:.1f} var={outcomes[objective][2]:.1f} "
            f"cum={outcomes[objective][3]:.4f}"
        )

    def hits(rounds, mean, var, cum):
        return rounds == 20 and 37 <= mean <= 45 and 80 <= var <= 120 and 0.005 <= cum <= 0.03

    ok = any(hits(*vals) for vals in outcomes.values())
    report(
        "08b", ok,
        "power-off m=20 windows mean [37, 45], variance [80, 120], cumulative [0.005, 0.03]",
    )
    assert ok


def test_criterion_09_initial_coherence_weakens_charging():
    p = params_at(0.1)
    state = thermal_state(p)
    baseline = mean_occupation(state)
    tau = 8.0

    def ratio(q, theta, c):
        rec = general_round(state, ChargerSpec(q=q, theta=theta, c=c), p, tau)
        return mean_occupation(rec.post_state) / baseline

    # the coherence weight c*sqrt(q(1-q))*sin(theta) vanishes on the
    # boundary, so each corner's character is probed just inside it
    inset = 0.1
    charging = [(inset, inset * math.pi), (1 - inset, (1 - inset) * math.pi)]
    discharging = [(1 - inset, inset * math.pi), (inset, (1 - inset) * math.pi)]
    lines = []
    ok = True
    for q, theta in charging:
        r0, r1 = ratio(q, theta, 0.0), ratio(q, theta, 1.0)
        ok &= r1 < r0 and r0 > 1.0
        lines.append(f"charging ({q:.1f},{theta:.2f}): {r0:.4f} -> {r1:.4f}")
    for q, theta in discharging:
        r0, r1 = ratio(q, theta, 0.0), ratio(q, theta, 1.0)
        ok &= r1 < r0 and r0 < 1.0
        lines.append(f"discharging ({q:.1f},{theta:.2f}): {r0:.4f} -> {r1:.4f}")
    assert report("09", ok, "; ".join(lines))


def test_criterion_10_open_system_robustness():
    start = time.monotonic()
    reduction = check_gamma_zero_reduction(n_levels=20, beta=0.1, tau=8.0)
    p = params_at(0.1)
    closed = run_protocol(thermal_state(p), p, "power_on", 20, "analytic")
    reference = closed.rounds[-1].thermo.energy
    deviations = []
    for gamma in (1e-5, 1e-4, 1e-3):
        diss = DissipationParams.thermal(p, gamma_b=gamma)
        damped = dissipative_protocol(
            thermal_state(p), p, diss, "power_on", 20, "analytic"
        )
        deviations.append(abs(damped.rounds[-1].thermo.energy - reference))
    elapsed = time.monotonic() - start
    relative = deviations[1] / reference
    ok = (
        reduction.passed
        and deviations[0] > 0.0
        and deviations[0] < deviations[1] < deviations[2]
        and relative < 0.15
        and elapsed < 600.0
    )
    assert report(
        "10", ok,
        f"gamma=0 reduction {reduction.max_deviation:.1e} (tol {reduction.tolerance:.0e}); energy "
        f"deviations {deviations[0]:.2e} < {deviations[1]:.2e} < {deviations[2]:.2e}; "
        f"gamma=1e-4 relative deviation {relative:.3f} < 0.15; {elapsed:.0f}s",
    )


def test_criterion_11_property_suites():
    start = time.monotonic()
    checks = []

    unitarity = check_block_unitarity(n_samples=10_000, seed=77)
    checks.append(("block unitarity 1e4 draws", unitarity.passed))

    # exhaustive permutation oracle for ergotropy on a 9-level ladder
    rng = np.random.default_rng(5)
    small = SystemParams(n_levels=8, g=G)
    raw = rng.uniform(size=9)
    pops = raw / raw.sum()
    state = BatteryState.diagonal(pops)
    levels = np.arange(9)
    brute_min = min(
        float(levels @ pops[list(perm)]) for perm in itertools.permutations(range(9))
    )
    oracle = energy(state, small) - small.omega_b * brute_min
    checks.append(
        ("ergotropy vs permutation oracle", abs(ergotropy(state, small) - oracle) < 1e-12)
    )

    twice = passive_state(passive_state(state))
    checks.append(
        ("passive idempotence",
         np.abs(twice.populations - passive_state(state).populations).max() < 1e-15)
    )

    mid = SystemParams(n_levels=10, g=G, delta=DELTA, beta=0.1)
    diss = DissipationParams(1e-3, 1e-3, 0.5, 0.4)
    rho = np.kron(np.diag([0.0, 1.0]).astype(complex), thermal_state(mid).matrix)
    out = integrate(rho, 10.0, mid, diss)
    checks.append(
        ("integrated state physical",
         np.abs(out - out.conj().T).max() < 1e-10
         and abs(np.trace(out).real - 1.0) < 1e-8
         and np.linalg.eigvalsh(out).min() > -1e-8)
    )

    p = params_at(0.1)
    ks = kraus_set(p, 8.0)
    state = thermal_state(p)
    norm_ok = True
    for pair in (("eg", "ee"), ("gg", "ge")):
        total = sum(povm_apply(kind, state, ks)[1] for kind in pair)
        norm_ok &= abs(total - 1.0) < 1e-12
    checks.append(("outcome probabilities resolve unity", norm_ok))

    elapsed = time.monotonic() - start
    ok = all(passed for _, passed in checks) and elapsed < 60.0
    assert report(
        "11", ok,
        "; ".join(f"{name}: {'ok' if passed else 'FAIL'}" for name, passed in checks)
        + f"; {elapsed:.0f}s",
    )

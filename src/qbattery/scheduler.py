"""Measurement-interval selection and multi-round protocol drivers.

Interval policies:

* ``analytic`` -- quarter period of the mean-population block,
  tau = pi / (2 g sqrt(nbar + 1)), updated from the current state.
* ``numeric`` -- grid search plus golden-section refinement of the
  round's measurement probability.
* ``power_off_compromise`` -- maximizes exp(x * P) * log_x(r), trading
  the charging ratio r of the round against its success probability.
* ``fixed`` -- a constant interval supplied by the caller.
* ``schedule`` -- one given interval per round (damped protocol only).

Protocols condition on the desired outcome every round (post-selection)
and track the cumulative success probability; ``sample_protocol`` adds a
seeded restart-on-failure simulation for demonstrations.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .propagator import ZeroProbabilityError, _kind_ladder, _ladder_weights, _map_weights, _shifted
from .rounds import (RoundRecord, _kind, _named_populations, _scheme_charger, general_round, power_off_round,
                     power_on_round)
from .states import BatteryState, ChargerSpec, SettingError, SystemParams, mean_occupation
from .thermo import energy, snapshot

POLICIES = ("analytic", "numeric", "power_off_compromise", "fixed")
DAMPED_POLICIES = ("analytic", "fixed", "schedule")
OBJECTIVES = ("per_round", "cumulative")

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class NoChargingError(RuntimeError):
    """No interval on the search grid raises the mean population."""


@dataclass(frozen=True)
class Trajectory:
    """Ordered round records with their cumulative success probability."""

    rounds: tuple[RoundRecord, ...]
    cumulative_probability: float
    scheme: str
    params: SystemParams
    initial_state: BatteryState
    truncation_reason: str | None = None

    def __post_init__(self):
        if not self.rounds:
            raise ValueError("a trajectory needs at least one round")
        prod = 1.0
        for r in self.rounds:
            prod *= r.probability
        if abs(prod - self.cumulative_probability) > 1e-12 * max(1.0, prod):
            raise ValueError("cumulative probability is not the product of the rounds")

    @property
    def truncated(self) -> bool:
        return self.truncation_reason is not None

    @property
    def n_rounds(self) -> int:
        return len(self.rounds)

    def states(self) -> list[BatteryState]:
        return [r.post_state for r in self.rounds]

    def taus(self) -> np.ndarray:
        return np.array([r.tau for r in self.rounds])

    def probabilities(self) -> np.ndarray:
        return np.array([r.probability for r in self.rounds])

    def energies(self) -> np.ndarray:
        """Energy after each round, preceded by the initial energy."""
        e0 = energy(self.initial_state, self.params)
        return np.array([e0] + [r.thermo.energy for r in self.rounds])


def _golden_max(f, lo: float, hi: float, rel_tol: float = 1e-6) -> float:
    """Golden-section maximization of a unimodal scalar function."""
    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    scale = max(abs(lo), abs(hi), 1e-12)
    while (b - a) > rel_tol * scale:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _tau_grid(params: SystemParams, kind: str, tau_max: float | None, grid_points: int,
              columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Uniform grid on (0, tau_max] and, at each interval, the sums of the
    populations after a map of ``kind``: ``columns`` holds ``_shifted``
    populations, shape (N+1,) or (N+1, k) for k weightings of them, and
    the result has shape (grid_points,) or (grid_points, k). The default
    span covers the first few swap lobes of every relevant block. The map
    weights depend on the ladder, g, delta and the grid but not on the
    state, so they are built once per grid and each call is a single
    matrix product with the columns."""
    if tau_max is None:
        tau_max = 2.0 * math.pi / params.g
    if not grid_points >= 1:
        raise ValueError(f"grid_points must be >= 1, got {grid_points}")
    if not (math.isfinite(tau_max) and tau_max > 0.0):
        raise ValueError(f"tau_max must be finite and > 0, got {tau_max}")
    taus, weights = _grid_weights(params, kind, tau_max, grid_points)
    return taus, weights @ columns


@functools.lru_cache(maxsize=8)
def _grid_weights(params: SystemParams, kind: str, tau_max: float,
                  grid_points: int) -> tuple[np.ndarray, np.ndarray]:
    """The grid and its read-only map weights for ``_tau_grid``; one N=400
    grid holds 1.3 MB."""
    taus = np.linspace(0.0, tau_max, grid_points + 1)[1:]
    weights = _map_weights(params, taus, kind)
    taus.flags.writeable = False
    weights.flags.writeable = False
    return taus, weights


def round_probability(
    state: BatteryState, params: SystemParams, scheme: str, tau: float | np.ndarray
) -> float | np.ndarray:
    """Measurement probability of one power-on or power-off round.

    A 1-D array of intervals gives one probability per interval.
    """
    prob = _named_populations(state.populations, params, tau, scheme).sum(axis=-1)
    return float(prob) if prob.ndim == 0 else prob


def tau_opt_analytic(state: BatteryState, params: SystemParams) -> float:
    """Quarter period of the block at the current mean population.

    tau = pi / (2 g sqrt(nbar + 1)); the detuning correction enters only
    at second order and is dropped. Strictly decreasing in nbar. The mean
    is that of the populations, so a state with coherences (a damped
    round's output, say) gets the interval of its diagonal.
    """
    return math.pi / (2.0 * params.g * math.sqrt(mean_occupation(state) + 1.0))


def tau_opt_numeric(
    state: BatteryState,
    params: SystemParams,
    scheme: str = "power_on",
    tau_max: float | None = None,
    grid_points: int = 400,
) -> float:
    """Interval maximizing the round's measurement probability.

    Grid argmax refined by golden-section search between the two
    neighboring grid points.
    """
    kind = _kind(scheme)
    shifted = _shifted(kind, state.populations)
    taus, prob = _tau_grid(params, kind, tau_max, grid_points, shifted)
    return _refine(params, kind, shifted, taus, int(prob.argmax()), np.add.reduce)


def power_off_objective(
    state: BatteryState,
    params: SystemParams,
    tau: float | np.ndarray,
    cumulative_p: float = 1.0,
    x: float = 10.0,
    objective: str = "per_round",
) -> float | np.ndarray:
    """exp(x * P) * log_x(r) for one candidate power-off interval.

    r is the normalized post-round mean over the current mean; P is
    either the round's own probability or the cumulative product
    including it. Positive only for intervals that actually charge. A
    1-D array of intervals gives one value per interval.
    """
    out = _named_populations(state.populations, params, tau, "power_off")
    moments = _row_moments(out, np.arange(state.populations.size))
    with np.errstate(divide="ignore", invalid="ignore"):
        value = _compromise(state, cumulative_p, x, objective)(*moments)
    return float(value) if value.ndim == 0 else value


def _check_compromise(x: float, objective: str) -> None:
    if x <= 1.0:
        raise SettingError(f"the balance index x must exceed 1, got {x}")
    if objective not in OBJECTIVES:
        raise SettingError(f"objective must be one of {OBJECTIVES}, got {objective!r}")


def _compromise(state: BatteryState, cumulative_p: float, x: float, objective: str):
    """``power_off_objective`` as a function of the probability and the
    unnormalized first moment of the post-round populations, scalars or
    one per interval. The mean and log x are fixed for the state, so they
    are prepared once for all the intervals an optimization scores; call
    the function under ``np.errstate(divide="ignore", invalid="ignore")``."""
    _check_compromise(x, objective)
    mean = mean_occupation(state)
    log_x = np.log(x)

    def score(prob, moment):
        weight = cumulative_p * prob if objective == "cumulative" else prob
        ratio = moment / prob / mean
        value = np.exp(x * weight) * np.log(ratio) / log_x
        # no outcome, or everything landed on level 0
        return np.where((prob > 0.0) & (ratio > 0.0), value, -np.inf)

    return score


def _row_moments(out: np.ndarray, levels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Probability and unnormalized first moment of the post-round
    populations ``out`` on ``levels`` as row sums, overwriting ``out``:
    the order in which a single interval is scored, so that
    ``power_off_objective`` and the refinement agree bit for bit."""
    prob = out.sum(axis=-1)
    out *= levels
    return prob, out.sum(axis=-1)


def tau_opt_power_off(
    state: BatteryState,
    params: SystemParams,
    cumulative_p: float = 1.0,
    x: float = 10.0,
    tau_max: float | None = None,
    grid_points: int = 400,
    objective: str = "per_round",
) -> float:
    """Compromise interval for a power-off round.

    Maximizes exp(x * P) * log_x(r) on the grid and refines the best
    point. Raises NoChargingError when no grid interval has r > 1, which
    happens once the distribution is too narrow for any downward-shifted
    reweighting to raise the mean.
    """
    if mean_occupation(state) <= 0.0:
        raise NoChargingError("state has no excited population to work with")
    score = _compromise(state, cumulative_p, x, objective)
    kind = _kind("power_off")
    shifted = _shifted(kind, state.populations)
    levels = np.arange(shifted.size)
    # the probability and the first moment at every interval in one product
    taus, sums = _tau_grid(params, kind, tau_max, grid_points, np.array([shifted, levels * shifted]).T)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = score(sums[:, 0], sums[:, 1])
        if not (vals > 0.0).any():
            raise NoChargingError("no candidate interval raises the mean population")
        return _refine(params, kind, shifted, taus, int(vals.argmax()),
                       lambda out: score(*_row_moments(out, levels)))


def _refine(params: SystemParams, kind: str, shifted: np.ndarray, taus: np.ndarray, i: int, score) -> float:
    """Golden-section refinement of grid point ``i`` between its two
    neighbors, maximizing ``score`` of the unnormalized populations after
    the map of ``kind`` on the ``_shifted`` populations ``shifted``.

    The ladder does not depend on the interval, so it is looked up once;
    each point then runs the ufuncs of ``_map_weights`` and
    ``_diagonal_map`` and a row sum, and scores bit for bit the value that
    ``round_probability`` or ``power_off_objective`` returns. The bracket
    lies inside the checked grid, so the points skip the interval check.
    """
    lo = taus[i - 1] if i > 0 else taus[i] / 2.0
    hi = taus[i + 1] if i + 1 < taus.size else taus[i]
    ladder = _kind_ladder(params, kind)

    def at(tau):
        out = _ladder_weights(params, ladder, tau, kind)
        out *= shifted
        return score(out)

    return _golden_max(at, lo, hi)


def _interval_chooser(policy: str, scheme: str, params: SystemParams, n_rounds: int,
                      policies: tuple[str, ...] = POLICIES, *, fixed_tau=None, x=10.0,
                      objective="per_round", tau_max=None, grid_points=400, tau_schedule=None):
    """``choose_tau(state, cumulative, m)``, round m's interval under
    ``policy`` in a run of ``n_rounds`` rounds of ``scheme``. Raises
    SettingError for a policy outside ``policies`` or without a rule for the
    scheme, or a missing policy input; interval values are checked in use."""
    if n_rounds < 1:
        raise SettingError(f"n_rounds must be >= 1, got {n_rounds}")
    if policy not in policies:
        raise SettingError(f"policy must be one of {policies}, got {policy!r}")
    if policy == "fixed":
        if fixed_tau is None:
            raise SettingError("fixed policy needs fixed_tau")
        return lambda state, cumulative, m: fixed_tau
    if policy == "schedule":
        if tau_schedule is None or len(tau_schedule) < n_rounds:
            raise SettingError("schedule policy needs a tau per round")
        return lambda state, cumulative, m: float(tau_schedule[m - 1])
    if policy == "analytic":
        if scheme != "power_on":
            raise SettingError("the analytic interval formula applies to the power_on scheme")
        return lambda state, cumulative, m: tau_opt_analytic(state, params)
    if policy == "numeric":
        _kind(scheme)  # the optimizer scores the closed form of a named scheme
        return lambda state, cumulative, m: tau_opt_numeric(state, params, scheme, tau_max, grid_points)
    if scheme != "power_off":
        raise SettingError("the compromise objective applies to the power_off scheme")
    _check_compromise(x, objective)
    return lambda state, cumulative, m: tau_opt_power_off(state, params, cumulative, x, tau_max,
                                                          grid_points, objective)


def _drive(initial: BatteryState, params: SystemParams, scheme: str, n_rounds: int, choose_tau, take_round,
           no_rounds_error: type[Exception]) -> Trajectory:
    """The round loop shared by the closed and the damped protocols.

    ``choose_tau(state, cumulative, m)`` picks round m's interval and
    ``take_round(state, tau)`` returns its RoundRecord. A zero-probability
    outcome or a power-off stall truncates the trajectory, flagged with
    the failing round; if round 1 fails, ``no_rounds_error`` is raised.
    """
    state = initial
    records: list[RoundRecord] = []
    cumulative = 1.0
    reason = None
    prev_energy = energy(initial, params)
    for m in range(1, n_rounds + 1):
        try:
            tau = choose_tau(state, cumulative, m)
            if not (math.isfinite(tau) and tau >= 0.0):
                raise ValueError(f"round {m}: interval {tau!r} must be finite and >= 0")
            rec = take_round(state, tau)
        except (ZeroProbabilityError, NoChargingError) as err:
            reason = f"round {m}: {err}"
            break
        thermo = snapshot(rec.post_state, params, prev_energy, rec.tau)
        records.append(RoundRecord(rec.post_state, rec.probability, rec.tau, scheme, thermo))
        cumulative *= rec.probability
        prev_energy = thermo.energy
        state = rec.post_state
    if not records:
        raise no_rounds_error(f"protocol produced no rounds ({reason})")
    return Trajectory(
        rounds=tuple(records),
        cumulative_probability=cumulative,
        scheme=scheme,
        params=params,
        initial_state=initial,
        truncation_reason=reason,
    )


def run_protocol(
    initial: BatteryState,
    params: SystemParams,
    scheme: str,
    n_rounds: int,
    interval_policy: str = "analytic",
    *,
    charger: ChargerSpec | None = None,
    fixed_tau: float | None = None,
    x: float = 10.0,
    objective: str = "per_round",
    tau_max: float | None = None,
    grid_points: int = 400,
) -> Trajectory:
    """Drive ``n_rounds`` post-selected rounds under one interval policy.

    ``scheme`` is one of ``SCHEMES`` (``general`` needs ``charger``) and
    ``interval_policy`` one of ``POLICIES``; a mistake in either, or in
    the policy's inputs, raises SettingError before any round runs.

    Each record carries the post state, outcome probability, interval,
    and an energy/ergotropy snapshot. A zero-probability outcome or a
    power-off stall truncates the trajectory (flagged with the failing
    round, not raised) since partial trajectories are still useful data;
    a failure in the very first round raises NoChargingError instead.
    """
    charger = _scheme_charger(scheme, charger)
    choose_tau = _interval_chooser(interval_policy, scheme, params, n_rounds, fixed_tau=fixed_tau, x=x,
                                   objective=objective, tau_max=tau_max, grid_points=grid_points)

    def take_round(state, tau):
        if scheme == "general":
            return general_round(state, charger, params, tau)
        return (power_on_round if scheme == "power_on" else power_off_round)(state, params, tau)

    return _drive(initial, params, scheme, n_rounds, choose_tau, take_round, NoChargingError)


def sample_protocol(
    initial: BatteryState,
    params: SystemParams,
    scheme: str,
    n_rounds: int,
    interval_policy: str = "analytic",
    seed: int = 0,
    max_attempts: int = 100_000,
    **kwargs,
) -> tuple[Trajectory, int]:
    """Simulate the feedback loop: restart from scratch on a failed outcome.

    The reference trajectory (states, intervals, probabilities) is the
    deterministic post-selected one; sampling only decides how many
    attempts a run takes. An attempt passes every measurement with the
    cumulative probability, so the attempt count is one geometric draw.
    Returns the trajectory and that count. Deterministic for a given
    seed; raises RuntimeError past ``max_attempts``.
    """
    trajectory = run_protocol(initial, params, scheme, n_rounds, interval_policy, **kwargs)
    p = trajectory.cumulative_probability
    # rng.geometric rejects p = 0 and saturates for tiny p
    attempts = int(np.random.default_rng(seed).geometric(p)) if p > 0.0 else max_attempts + 1
    if attempts > max_attempts:
        raise RuntimeError(f"no successful run within {max_attempts} attempts")
    return trajectory, attempts

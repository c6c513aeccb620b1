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

The refinement of both optimizing policies decides its comparisons from
a certified Taylor model of the score and evaluates the exact score only
on near-ties, so its interval is bit for bit that of the exact search.

Protocols condition on the desired outcome every round (post-selection)
and track the cumulative success probability; ``sample_protocol`` adds a
seeded restart-on-failure simulation for demonstrations.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .propagator import (ZeroProbabilityError, _check_interval, _kind_ladder, _ladder_weights, _map_weights,
                         _shifted)
from .rounds import (RoundRecord, _check_ladder, _kind, _scheme_charger, general_round, power_off_round,
                     power_on_round)
from .states import BatteryState, ChargerSpec, SettingError, SystemParams, mean_occupation
from .thermo import energy, snapshot

POLICIES = ("analytic", "numeric", "power_off_compromise", "fixed")
DAMPED_POLICIES = ("analytic", "fixed", "schedule")
OBJECTIVES = ("per_round", "cumulative")

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
GOLDEN_REL_TOL = 1e-6  # the refinement stops at this width relative to the bracket's far end


class NoChargingError(RuntimeError):
    """No interval on the search grid raises the mean population."""


def _integer(value) -> bool:
    """An int or a numpy integer, not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _real(value) -> bool:
    """An ``_integer``, a float or a numpy float."""
    return _integer(value) or isinstance(value, (float, np.floating))


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


def _golden_max(lo: float, hi: float, exact, model=None, per_width: float = 0.0) -> float:
    """Golden-section maximization of a unimodal scalar function ``exact``
    on [lo, hi].

    ``model(tau)``, if given, returns an estimate of ``exact(tau)``, up to
    a constant common to all points, and a bound e(tau) on its share of
    the error of a gap: points c and d are compared from the model when
    |model gap| > e(c) + e(d) + ``per_width`` |c - d|, and from ``exact`` at
    both otherwise. Either way each comparison has the outcome of
    ``exact(c) > exact(d)``, so the points walked and the returned
    midpoint are those of the exact search.
    """
    def point(tau):
        return model(tau) if model is not None else (exact(tau), 0.0)

    known = {}  # exact values by point: a run of near-ties shares one point per comparison

    def exact_at(tau):
        if tau not in known:
            known[tau] = exact(tau)
        return known[tau]

    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    (fc, ec), (fd, ed) = point(c), point(d)
    scale = max(abs(lo), abs(hi), 1e-12)
    while (b - a) > GOLDEN_REL_TOL * scale:
        if model is None or abs(fc - fd) > ec + ed + per_width * abs(d - c):
            c_wins = fc > fd
        else:
            c_wins = exact_at(c) > exact_at(d)
        if c_wins:
            b, d, fd, ed = d, c, fc, ec
            c = b - GOLDEN * (b - a)
            fc, ec = point(c)
        else:
            a, c, fc, ec = c, d, fd, ed
            d = a + GOLDEN * (b - a)
            fd, ed = point(d)
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
        if params.g == 0.0:
            raise SettingError("the default optimizer span 2 pi / g needs g != 0; give tau_max")
        tau_max = 2.0 * math.pi / params.g
    if not _integer(grid_points):
        raise ValueError(f"grid_points must be an integer, got {grid_points!r}")
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
    kind = _kind(scheme)
    _check_ladder(state, params)
    _check_interval(tau)
    prob = _scores(params, kind, _kind_ladder(params, kind), _shifted(kind, state.populations), tau)
    return float(prob) if prob.ndim == 0 else prob


def tau_opt_analytic(state: BatteryState, params: SystemParams) -> float:
    """Quarter period of the block at the current mean population.

    tau = pi / (2 g sqrt(nbar + 1)); the detuning correction enters only
    at second order and is dropped. Strictly decreasing in nbar. The mean
    is that of the populations, so a state with coherences (a damped
    round's output, say) gets the interval of its diagonal. At g = 0 there
    is none, a SettingError.
    """
    if params.g == 0.0:
        raise SettingError("the analytic interval pi / (2 g sqrt(nbar + 1)) needs g != 0")
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
    _check_ladder(state, params)
    shifted = _shifted(kind, state.populations)
    taus, prob = _tau_grid(params, kind, tau_max, grid_points, shifted)
    return _refine(params, kind, shifted, taus, int(prob.argmax()))


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
    kind = _kind("power_off")
    _check_ladder(state, params)
    _check_interval(tau)
    ladder, shifted = _kind_ladder(params, kind), _shifted(kind, state.populations)
    score = _compromise(state, cumulative_p, x, objective)
    with np.errstate(divide="ignore", invalid="ignore"):
        value = _scores(params, kind, ladder, shifted, tau, score)
    return float(value) if value.ndim == 0 else value


def _check_compromise(x: float, objective: str) -> None:
    if not (_real(x) and math.isfinite(x) and x > 1.0):
        raise SettingError(f"the balance index x must be finite and exceed 1, got {x!r}")
    if objective not in OBJECTIVES:
        raise SettingError(f"objective must be one of {OBJECTIVES}, got {objective!r}")


@dataclass(frozen=True)
class _Compromise:
    """``power_off_objective`` as a function of the probability P and the
    unnormalized first moment M of the post-round populations, scalars or
    one per interval: exp(x w P) log(M / (P mean)) / log x, with w the
    cumulative probability before the round for the cumulative objective
    and 1 for the per-round one. The mean and log x are fixed for the
    state, so they are prepared once for all the intervals an optimization
    scores. ``_scores`` applies it to the exact sums of one interval or of
    many, and ``tau_opt_power_off`` to the grid's; call it under
    ``np.errstate(divide="ignore", invalid="ignore")``."""

    weight: float
    x: float
    mean: float
    log_x: float

    def __call__(self, prob, moment):
        weight = self.weight * prob
        ratio = moment / prob / self.mean
        value = np.exp(self.x * weight) * np.log(ratio) / self.log_x
        # no outcome, or everything landed on level 0
        return np.where((prob > 0.0) & (ratio > 0.0), value, -np.inf)


def _compromise(state: BatteryState, cumulative_p: float, x: float, objective: str) -> _Compromise:
    _check_compromise(x, objective)
    return _Compromise(cumulative_p if objective == "cumulative" else 1.0, x, mean_occupation(state), np.log(x))


def _scores(params: SystemParams, kind: str, ladder: tuple, shifted: np.ndarray, tau,
            compromise: _Compromise | None = None):
    """The exact score behind ``round_probability``, ``power_off_objective``
    and the refinement: the probability after the map of ``kind``, the
    row sum of ``_ladder_weights`` times the ``_shifted`` populations
    ``shifted``, or given ``compromise`` that score of the probability and
    the first moment. The interval is the caller's to check; a 1-D array
    of intervals gives one score per interval."""
    out = _ladder_weights(params, ladder, tau, kind)
    out *= shifted
    prob = out.sum(axis=-1)
    if compromise is None:
        return prob
    out *= np.arange(shifted.size)
    return compromise(prob, out.sum(axis=-1))


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
    _check_ladder(state, params)
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
        return _refine(params, kind, shifted, taus, int(vals.argmax()), score)


def _refine(params: SystemParams, kind: str, shifted: np.ndarray, taus: np.ndarray, i: int,
            compromise: _Compromise | None = None) -> float:
    """Golden-section refinement of grid point ``i`` between its two
    neighbors. It maximizes the ``_scores`` of ``kind`` on the ``_shifted``
    populations ``shifted``: the probability or, given ``compromise``,
    that score of the probability and first moment.

    The ladder does not depend on the interval, so it is looked up once.
    An exact point is ``_scores`` itself, the function behind
    ``round_probability`` and ``power_off_objective``, so it scores their
    value bit for bit. The bracket lies inside the checked grid, so the
    points skip the interval check. Comparisons are decided from the
    certified Taylor model of ``_interval_model`` where it can, so most
    refinements score only a few exact points; the returned interval is
    the exact search's.
    """
    lo = float(taus[i - 1] if i > 0 else taus[i] / 2.0)
    hi = float(taus[i + 1] if i + 1 < taus.size else taus[i])
    ladder = _kind_ladder(params, kind)
    exact = functools.partial(_scores, params, kind, ladder, shifted, compromise=compromise)
    return _golden_max(lo, hi, exact, *_interval_model(params, kind, ladder, shifted, lo, hi, compromise))


# The refinement's Taylor models: their degree K, the accuracy
# assumed of numpy's and the math module's float64 sin, cos, exp and log
# in units in the last place (an ulp of y is at most 2u|y|), and the
# factor that widens every error bound.
TAYLOR_DEGREE = 18
_FUNCTION_ULPS = 4
_SAFETY = 10.0
_UNIT = 2.0**-53  # unit roundoff u of float64
# Added to every gap bound and to the compromise's bounds on P and M: it
# covers any rounding in the subnormal range.
_GAP_FLOOR = 1e-300
# The weights of B cos and B sin in Taylor coefficient k, by k mod 4:
# d^k/ds^k cos(phi + s) = cos(phi + k pi/2).
_COS_SIGN = np.array([(-0.5, 0.0, 0.5, 0.0)[k % 4] for k in range(TAYLOR_DEGREE + 1)])
_SIN_SIGN = np.array([(0.0, 0.5, 0.0, -0.5)[k % 4] for k in range(TAYLOR_DEGREE + 1)])


@functools.lru_cache(maxsize=8)
def _taylor_table(params: SystemParams, kind: str) -> np.ndarray:
    """Read-only (K + 2, N + 1) table of (2 O_n)^k / k!, k = 0..K + 1, on
    ``kind``'s ladder; row k carries a relative rounding error of at most
    2k units. 61 KB at N = 400."""
    two_omega = 2.0 * _kind_ladder(params, kind)[0]
    table = np.empty((TAYLOR_DEGREE + 2, two_omega.size))
    table[0] = 1.0
    for k in range(1, TAYLOR_DEGREE + 2):
        np.multiply(table[k - 1], two_omega, out=table[k])
        table[k] /= k
    table.flags.writeable = False
    return table


def _pairwise_depth(n: int) -> int:
    """Most roundings any term of numpy's pairwise sum of n terms goes
    through: blocks of at most 128 terms, summed by 8 accumulators of up
    to 16 terms, joined in 3 levels, and up to 7 left-over terms; one level
    per halving above 128, and one where the reduction's first element
    joins."""
    return 27 + max(0, math.ceil(math.log2(n / 128.0)) + 1)


def _interval_model(params: SystemParams, kind: str, ladder: tuple, shifted: np.ndarray, lo: float, hi: float,
                    compromise: _Compromise | None):
    """``(model, per_width)`` for ``_golden_max``: the refinement's score
    from Taylor models about the bracket centre tau0, with error bounds
    that also cover the exact points' own errors. No model, and every
    comparison exact, when x = 2 O_N h, with h the bracket's half width,
    exceeds 1.

    The probability is P(tau) = sum_n B_n (1 - cos 2 O_n tau) / 2 with B_n
    = g^2 n shifted_n / O_n^2 on ``kind``'s ladder, and the first moment M
    the same sum with n B_n. About tau0, P's Taylor coefficients are

        c_k = -1/2 sum_n B_n (2 O_n)^k / k! cos(2 O_n tau0 + k pi/2),

    so one product of ``_taylor_table`` with B cos(2 O tau0), B sin(2 O
    tau0) and B gives the coefficients up to degree K and the sums S_i =
    sum_n B_n (2 O_n)^i / i! that bound the errors; with n B_n it gives
    the same for M. c_1 and 2 c_2 are P'(tau0) and P''(tau0). With u the
    unit roundoff, a point's model value carries

    * the Taylor remainder, S_{K+1} h^{K+1} / 2, below u S_0 / 2 at x <= 1;
    * Horner's rounding, gamma_{2K+1} S_0 (e^x - 1) / 2 (Higham, Accuracy
      and Stability of Numerical Algorithms, 2nd ed., 5.1), and that of
      tau - tau0, u h S_1 e^x / 2;

    and the exact point's value its own error: u hi S_1 / 2 from rounding
    the argument O_n tau, ``_FUNCTION_ULPS`` ulp of sin, six products, and
    the pairwise sum, which rounds each term ``_pairwise_depth`` times.
    The coefficients' errors come from the rounded phase 2 O_n tau0 (u 2
    O_n tau0), from the amplitudes, the table, cos and sin and the
    products (6 + 2K + 2 ``_FUNCTION_ULPS`` units) and from the matrix
    product's sums (N + 1 units, in any order).

    The probability's comparisons need only gaps, so c_0 is left out, and
    the coefficients' errors, common to both points, enter a gap as dc_i
    (t_c^i - t_d^i), at most i h^(i-1) |c - d| |dc_i|; summed, ``per_width``
    |c - d|. The compromise score needs the values of P and M, so P(tau0)
    and M(tau0) are summed pairwise from B (1 - cos 2 O tau0) and each
    point's bounds on the errors of P and M include the coefficients'
    share, at most sum_i |dc_i| h^i (``_compromise_model``). Every bound is
    widened by ``_SAFETY``.
    """
    omega, divisor, _, g2n = ladder
    if compromise is None and not shifted[g2n != 0.0].any():
        # P is 0 at every interval: each exact point scores 0 and loses every comparison
        return (lambda tau: (0.0, -1.0)), 0.0
    half_width = 0.5 * (hi - lo)
    x = 2.0 * omega[-1] * half_width
    if not x <= 1.0:
        return None, 0.0
    k, n, u = TAYLOR_DEGREE, shifted.size, _UNIT
    centre = 0.5 * (lo + hi)
    amp = g2n * shifted / divisor**2
    amps = (amp,) if compromise is None else (amp, np.arange(n) * amp)
    phase = 2.0 * omega * centre
    cos, sin = np.cos(phase), np.sin(phase)
    columns = np.array([col for b in amps for col in (b * cos, b * sin, b)])
    sums = _taylor_table(params, kind) @ columns.T
    coeffs = _COS_SIGN[:, None] * sums[:-1, 0::3] + _SIN_SIGN[:, None] * sums[:-1, 1::3]
    horner = coeffs[:0:-1].tolist()  # rows c_k .. c_1, one column per amplitude
    moments = sums[:, 2::3].T.tolist()  # S_0 .. S_{K+1} per amplitude
    growth = math.exp(x)
    depth = _pairwise_depth(n)
    coefficient_units = 6 + 2 * k + 2 * _FUNCTION_ULPS + n + 1
    point = [0.5 * s[k + 1] * half_width ** (k + 1)
             + (2 * k + 1) * u * 0.5 * s[0] * (growth - 1.0)
             + u * half_width * 0.5 * s[1] * growth
             + u * (0.5 * hi * s[1] + (6 + 4 * _FUNCTION_ULPS + depth) * s[0]) for s in moments]
    if compromise is None:
        fixed = _SAFETY * point[0] + 0.5 * _GAP_FLOOR
        s = moments[0]
        per_width = _SAFETY * u * growth * (0.5 * coefficient_units * s[1] + centre * s[2])
        poly = [row[0] for row in horner]

        def model(tau):
            t = tau - centre
            value = 0.0
            for ck in poly:
                value = value * t + ck
            return value * t, fixed

        return model, per_width
    starts = [0.5 * float(np.add.reduce(b - columns[3 * j])) for j, b in enumerate(amps)]
    errors = [e + 0.5 * u * (centre * s[1] + (2 * _FUNCTION_ULPS + 16) * s[0]) + (depth + 1) * u * s[0]
              + 0.5 * u * (growth - 1.0) * (coefficient_units * s[0] + centre * s[1]) + _GAP_FLOOR
              for e, s in zip(point, moments)]
    return _compromise_model(compromise, centre, starts, horner, errors), 0.0


def _compromise_model(compromise: _Compromise, centre: float, starts: list, horner: list, errors: list):
    """``model(tau)`` of ``_interval_model`` for the compromise score: P and
    M from their values ``starts`` at the centre and their coefficients
    ``horner`` (rows c_k .. c_1 of P and M), and ``errors``, the bounds dP
    and dM on the error of P and M at any point, model and exact point
    together.

    With P_lo = P - dP and M_lo = M - dM both > 0, the log ratio is off by
    at most dL = dP / P_lo + dM / M_lo and exp(x w P) by at most E |x w|
    dP, with E = exp(x w P + |x w| dP); the two evaluations of the score
    round exp, log, the ratio and the products by at most u (4 + (36 + 4
    |x w| (P + dP)) |log r|) E / log x. A point whose P or M could be 0
    gets an infinite bound.
    """
    (p_start, m_start), (d_prob, d_moment) = starts, errors
    wx, mean, log_x = compromise.x * compromise.weight, compromise.mean, float(compromise.log_x)

    def model(tau):
        t = tau - centre
        vp = vm = 0.0
        for cp, cm in horner:
            vp = vp * t + cp
            vm = vm * t + cm
        prob, moment = p_start + vp * t, m_start + vm * t
        low_p, low_m, exponent = prob - d_prob, moment - d_moment, wx * prob + abs(wx) * d_prob
        if not (low_p > 0.0 and low_m > 0.0 and exponent < 700.0):
            return 0.0, math.inf
        log_ratio = math.log(moment / prob / mean)
        d_log = d_prob / low_p + d_moment / low_m
        rounding = _UNIT * (4.0 + (36.0 + 4.0 * abs(wx) * (prob + d_prob)) * abs(log_ratio))
        bound = math.exp(exponent) / log_x * (abs(wx) * d_prob * (abs(log_ratio) + d_log) + d_log + rounding)
        return math.exp(wx * prob) * log_ratio / log_x, _SAFETY * bound

    return model


def _interval_chooser(policy: str, scheme: str, params: SystemParams, n_rounds: int,
                      policies: tuple[str, ...] = POLICIES, *, fixed_tau=None, x=10.0,
                      objective="per_round", tau_max=None, grid_points=400, tau_schedule=None):
    """``choose_tau(state, cumulative, m)``, round m's interval under
    ``policy`` in a run of ``n_rounds`` rounds of ``scheme``. Raises
    SettingError for a policy outside ``policies`` or without a rule for the
    scheme, or a missing policy input or one of the wrong kind; interval
    values are checked in use."""
    if not _integer(n_rounds):
        raise SettingError(f"n_rounds must be an integer, got {n_rounds!r}")
    if n_rounds < 1:
        raise SettingError(f"n_rounds must be >= 1, got {n_rounds}")
    if policy not in policies:
        raise SettingError(f"policy must be one of {policies}, got {policy!r}")
    if policy == "fixed":
        if fixed_tau is None:
            raise SettingError("fixed policy needs fixed_tau")
        if not _real(fixed_tau):
            raise SettingError(f"fixed_tau must be a number, got {fixed_tau!r}")
        tau = float(fixed_tau)  # so that 8 and 8.0 record the same interval
        return lambda state, cumulative, m: tau
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
    _check_ladder(initial, params)
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

"""Every setting the library rejects before any work raises SettingError,
a ValueError; an invalid interval value, state or outcome does not."""

import re

import numpy as np
import pytest

from qbattery import (
    BatteryState,
    ChargerSpec,
    NoChargingError,
    SettingError,
    SystemParams,
    Trajectory,
    ZeroProbabilityError,
    charge_discharge_populations,
    coherence_population,
    diagonal_fidelity,
    fock_state,
    general_round,
    power_off_round,
    power_on_round,
    round_probability,
    run_protocol,
    tau_opt_analytic,
    tau_opt_numeric,
    tau_opt_power_off,
    thermal_state,
)
from qbattery.lindblad import DissipationParams, dissipative_protocol, integrate
from qbattery.scheduler import power_off_objective
from qbattery.validate import block_oracle_deviation, kraus_set

SMALL = SystemParams(n_levels=8, g=0.04, delta=0.02, beta=0.1)
NO_DAMPING = DissipationParams(0.0, 0.0, 0.0, 0.0)
COHERENT = ChargerSpec(q=0.3, theta=1.2, c=1.0)
STATE = thermal_state(SMALL)
UNCOUPLED = SystemParams(n_levels=8, g=0.0, delta=0.02, beta=0.1)
ELSEWHERE = thermal_state(SystemParams(n_levels=5, g=0.04, delta=0.02, beta=0.1))  # on another ladder
PLUS = BatteryState.from_matrix(np.full((SMALL.dim, SMALL.dim), 1.0 / SMALL.dim))  # a state with coherences

SETTING_MISTAKES = {
    "n_levels=0": lambda: SystemParams(n_levels=0, g=0.04),
    "n_levels=2.5": lambda: SystemParams(n_levels=2.5, g=0.04),
    "n_levels=True": lambda: SystemParams(n_levels=True, g=0.04),
    "beta<0": lambda: SystemParams(n_levels=8, g=0.04, beta=-2.0),
    "g=nan": lambda: SystemParams(n_levels=8, g=float("nan")),
    "q=2": lambda: ChargerSpec(q=2.0, theta=0.0),
    "c=2": lambda: ChargerSpec(q=0.5, theta=0.0, c=2.0),
    "gamma_b=-1": lambda: DissipationParams.thermal(SMALL, gamma_b=-1.0),
    "nbar_th=inf": lambda: DissipationParams(1e-3, 1e-3, float("inf"), 0.0),
    "unknown scheme": lambda: run_protocol(STATE, SMALL, "bogus", 2, "fixed", fixed_tau=1.0),
    "general without charger": lambda: run_protocol(STATE, SMALL, "general", 2, "fixed", fixed_tau=1.0),
    "no closed form for general": lambda: round_probability(STATE, SMALL, "general", 1.0),
    "n_rounds=0": lambda: run_protocol(STATE, SMALL, "power_on", 0, "analytic"),
    # a bool or a float is not a round count
    "n_rounds=True": lambda: run_protocol(STATE, SMALL, "power_on", True, "analytic"),
    "n_rounds=2.5": lambda: run_protocol(STATE, SMALL, "power_on", 2.5, "analytic"),
    "damped n_rounds=True": lambda: dissipative_protocol(STATE, SMALL, NO_DAMPING, "power_on", True, "fixed",
                                                         fixed_tau=1.0),
    "damped n_rounds=2.5": lambda: dissipative_protocol(STATE, SMALL, NO_DAMPING, "power_on", 2.5, "fixed",
                                                        fixed_tau=1.0),
    "unknown policy": lambda: run_protocol(STATE, SMALL, "power_on", 2, "bogus"),
    "fixed without fixed_tau": lambda: run_protocol(STATE, SMALL, "power_on", 2, "fixed"),
    # nor a bool or a string an interval
    "fixed_tau='8'": lambda: run_protocol(STATE, SMALL, "power_on", 2, "fixed", fixed_tau="8"),
    "fixed_tau=True": lambda: run_protocol(STATE, SMALL, "power_on", 2, "fixed", fixed_tau=True),
    "damped fixed_tau='8'": lambda: dissipative_protocol(STATE, SMALL, NO_DAMPING, "power_on", 2, "fixed",
                                                         fixed_tau="8"),
    "general under analytic": lambda: run_protocol(STATE, SMALL, "general", 2, "analytic", charger=COHERENT),
    "numeric of general": lambda: run_protocol(STATE, SMALL, "general", 2, "numeric", charger=COHERENT),
    "x=0.5": lambda: run_protocol(STATE, SMALL, "power_off", 2, "power_off_compromise", x=0.5),
    "x=nan": lambda: run_protocol(STATE, SMALL, "power_off", 2, "power_off_compromise", x=float("nan")),
    "x=inf": lambda: run_protocol(STATE, SMALL, "power_off", 2, "power_off_compromise", x=float("inf")),
    "x='10'": lambda: run_protocol(STATE, SMALL, "power_off", 2, "power_off_compromise", x="10"),
    "unknown objective": lambda: run_protocol(STATE, SMALL, "power_off", 2, "power_off_compromise",
                                              objective="bogus"),
    "general compromise": lambda: run_protocol(STATE, SMALL, "general", 2, "power_off_compromise",
                                               charger=COHERENT),
    "numeric damped policy": lambda: dissipative_protocol(STATE, SMALL, NO_DAMPING, "power_on", 2, "numeric"),
    "damped unknown scheme": lambda: dissipative_protocol(STATE, SMALL, NO_DAMPING, "bogus", 2, "fixed",
                                                          fixed_tau=1.0),
    "schedule too short": lambda: dissipative_protocol(STATE, SMALL, NO_DAMPING, "power_off", 2, "schedule",
                                                       tau_schedule=[1.0]),
    # g = 0 has no analytic interval and no default optimizer span 2 pi / g
    "analytic at g=0": lambda: run_protocol(STATE, UNCOUPLED, "power_on", 2, "analytic"),
    "analytic interval at g=0": lambda: tau_opt_analytic(STATE, UNCOUPLED),
    "default span at g=0": lambda: tau_opt_numeric(STATE, UNCOUPLED),
    "damped analytic at g=0": lambda: dissipative_protocol(STATE, UNCOUPLED, NO_DAMPING, "power_on", 2),
}


@pytest.mark.parametrize("case", SETTING_MISTAKES)
def test_a_setting_mistake_raises_setting_error_before_any_round(no_rounds, case):
    with pytest.raises(SettingError) as excinfo:
        SETTING_MISTAKES[case]()
    assert excinfo.type is SettingError and isinstance(excinfo.value, ValueError)


NOT_SETTINGS = {
    "fixed_tau=-2": (ValueError, lambda: run_protocol(STATE, SMALL, "power_on", 2, "fixed", fixed_tau=-2.0)),
    "tau_max=-5": (ValueError, lambda: tau_opt_numeric(STATE, SMALL, tau_max=-5.0)),
    "grid_points=0": (ValueError, lambda: tau_opt_numeric(STATE, SMALL, grid_points=0)),
    # a grid size that is not an integer is an invalid grid, as 0 is
    "grid_points=True": (ValueError, lambda: tau_opt_numeric(STATE, SMALL, grid_points=True)),
    "grid_points=2.5": (ValueError, lambda: run_protocol(STATE, SMALL, "power_off", 2, "power_off_compromise",
                                                         grid_points=2.5)),
    "negative round interval": (ValueError, lambda: power_on_round(STATE, SMALL, -1.0)),
    "unnormalized state": (ValueError, lambda: BatteryState(np.array([0.5, 0.6]))),
    "non-square matrix": (ValueError, lambda: BatteryState.from_matrix(np.full((2, 3), 1 / 6))),
    "stack of matrices": (ValueError, lambda: BatteryState.from_matrix(np.full((1, 2, 2), 0.25))),
    "zero-probability round": (ZeroProbabilityError, lambda: power_off_round(fock_state(0, 8), SMALL, 1.0)),
    "zero-probability first round": (NoChargingError, lambda: run_protocol(fock_state(0, 8), SMALL, "power_off", 2,
                                                                           "fixed", fixed_tau=1.0)),
    "damped zero-probability first round": (
        ZeroProbabilityError,
        lambda: dissipative_protocol(fock_state(0, 8), SMALL, NO_DAMPING, "power_off", 2, "fixed", fixed_tau=1.0),
    ),
}


@pytest.mark.parametrize("case", NOT_SETTINGS)
def test_interval_state_and_outcome_errors_are_not_setting_errors(case):
    error, call = NOT_SETTINGS[case]
    with pytest.raises(error) as excinfo:
        call()
    assert not isinstance(excinfo.value, SettingError)


# every entry point that takes a state and params checks their ladder
# before any work; the closed rounds check it too
LADDER_MISMATCHES = {
    "analytic run": lambda: run_protocol(ELSEWHERE, SMALL, "power_on", 2, "analytic"),
    "fixed general run": lambda: run_protocol(ELSEWHERE, SMALL, "general", 2, "fixed", charger=COHERENT,
                                              fixed_tau=1.0),
    "numeric run": lambda: run_protocol(ELSEWHERE, SMALL, "power_on", 2, "numeric"),
    "compromise run": lambda: run_protocol(ELSEWHERE, SMALL, "power_off", 2, "power_off_compromise"),
    "damped power-on run": lambda: dissipative_protocol(ELSEWHERE, SMALL, NO_DAMPING, "power_on", 2, "fixed",
                                                        fixed_tau=1.0),
    "damped general run": lambda: dissipative_protocol(ELSEWHERE, SMALL, NO_DAMPING, "general", 2, "fixed",
                                                       charger=COHERENT, fixed_tau=1.0),
    "round probability": lambda: round_probability(ELSEWHERE, SMALL, "power_on", 1.0),
    "power-off objective": lambda: power_off_objective(ELSEWHERE, SMALL, 1.0),
    "numeric interval": lambda: tau_opt_numeric(ELSEWHERE, SMALL),
    "compromise interval": lambda: tau_opt_power_off(ELSEWHERE, SMALL),
}

# (error, message, call) for a wrong input that is neither a setting nor
# an interval value: a shape, a kind of state, a ladder or an index
INPUT_ERRORS = {
    "integrate on a wrong shape": (ValueError, "expected a 18x18 matrix, got (4, 4)",
                                   lambda: integrate(np.eye(4) / 4, 1.0, SMALL, NO_DAMPING)),
    "named round of a general state": (ValueError, "power_on_round requires a diagonal state",
                                       lambda: power_on_round(PLUS, SMALL, 1.0)),
    "general round on another ladder": (ValueError, "state and params disagree on the ladder size",
                                        lambda: general_round(fock_state(0, 5), COHERENT, SMALL, 1.0)),
    **{f"{case} on another ladder": (ValueError, "state and params disagree on the ladder size", call)
       for case, call in LADDER_MISMATCHES.items()},
    "coherence of a general state": (ValueError, "coherence_population requires a diagonal state",
                                     lambda: coherence_population(PLUS, COHERENT, SMALL, 1.0)),
    "charge and discharge of a general state": (ValueError, "requires a diagonal state",
                                                lambda: charge_discharge_populations(PLUS, COHERENT, SMALL, 1.0)),
    "empty trajectory": (ValueError, "a trajectory needs at least one round",
                         lambda: Trajectory((), 1.0, "power_on", SMALL, STATE)),
    "cumulative probability off the product": (
        ValueError, "cumulative probability is not the product of the rounds",
        lambda: Trajectory((power_on_round(STATE, SMALL, 8.0),), 0.5, "power_on", SMALL, STATE),
    ),
    "populations that are not a vector": (ValueError, "populations must be a vector of length >= 2",
                                          lambda: BatteryState(np.full((2, 2), 0.25))),
    "Fock state off the ladder": (ValueError, "level 9 outside 0..8", lambda: fock_state(9, 8)),
    "fidelity across ladders": (ValueError, "states live on different ladders",
                                lambda: diagonal_fidelity(STATE, fock_state(0, 5))),
    "Kraus set at a negative interval": (ValueError, "tau must be >= 0, got -1.0", lambda: kraus_set(SMALL, -1.0)),
    "block off the ladder": (ValueError, "blocks are indexed by 1 <= n <= 8, got 0",
                             lambda: block_oracle_deviation(SMALL, 0, 1.0)),
}


@pytest.mark.parametrize("case", INPUT_ERRORS)
def test_a_wrong_input_raises_its_own_error(case):
    error, message, call = INPUT_ERRORS[case]
    with pytest.raises(error, match=re.escape(message)) as excinfo:
        call()
    assert excinfo.type is error

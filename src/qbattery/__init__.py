"""Measurement-fueled charging of a finite-ladder quantum battery.

A stream of disposable charger qubits is coupled one at a time to an
(N+1)-level battery; after each joint evolution window the qubit is
projectively measured, which steers the battery populations. Preparing
the qubit excited and measuring it in the ground state pumps one
quantum per round into the battery (power-on); preparing it in the
ground state and measuring it excited charges the battery with work
injected by the measurement itself (power-off).

The package provides the closed-form block amplitudes and the banded
Kraus maps they induce, single rounds for arbitrary qubit preparation
and measurement angle, measurement-interval schedulers, ergotropy
diagnostics, a Lindblad integrator for damped rounds, and a CLI that
emits CSV artifacts for each standard experiment. The dense Kraus
operators, joint propagator and Lindblad right-hand side are oracles in
``qbattery.validate``.
"""

from .lindblad import DissipationParams, dissipative_protocol, integrate
from .propagator import ZeroProbabilityError, rabi_frequency
from .rounds import (
    RoundRecord,
    charge_discharge_populations,
    coherence_population,
    general_round,
    power_off_round,
    power_on_round,
)
from .scheduler import (
    NoChargingError,
    Trajectory,
    round_probability,
    run_protocol,
    sample_protocol,
    tau_opt_analytic,
    tau_opt_numeric,
    tau_opt_power_off,
)
from .states import (
    POWER_OFF,
    POWER_ON,
    BatteryState,
    ChargerSpec,
    SystemParams,
    diagonal_fidelity,
    fano_ratio,
    fock_state,
    gaussian_reference,
    mean_occupation,
    occupation_variance,
    thermal_populations,
    thermal_state,
)
from .thermo import (
    ThermoSnapshot,
    charging_power,
    energy,
    ergotropy,
    ergotropy_ratio,
    passive_state,
    snapshot,
)

__version__ = "0.1.0"

__all__ = [
    "BatteryState",
    "ChargerSpec",
    "DissipationParams",
    "NoChargingError",
    "POWER_OFF",
    "POWER_ON",
    "RoundRecord",
    "SystemParams",
    "ThermoSnapshot",
    "Trajectory",
    "ZeroProbabilityError",
    "charge_discharge_populations",
    "charging_power",
    "coherence_population",
    "diagonal_fidelity",
    "dissipative_protocol",
    "energy",
    "ergotropy",
    "ergotropy_ratio",
    "fano_ratio",
    "fock_state",
    "gaussian_reference",
    "general_round",
    "integrate",
    "mean_occupation",
    "occupation_variance",
    "passive_state",
    "power_off_round",
    "power_on_round",
    "rabi_frequency",
    "round_probability",
    "run_protocol",
    "sample_protocol",
    "snapshot",
    "tau_opt_analytic",
    "tau_opt_numeric",
    "tau_opt_power_off",
    "thermal_populations",
    "thermal_state",
]

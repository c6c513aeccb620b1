"""Energetic diagnostics: energy, passive state, ergotropy, charging power."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .states import BatteryState, SystemParams, mean_occupation


def energy(state: BatteryState, params: SystemParams) -> float:
    """Mean battery energy omega_b * sum_n n p_n (off-diagonals carry none)."""
    return params.omega_b * mean_occupation(state)


def passive_state(state: BatteryState) -> BatteryState:
    """State with the same spectrum but eigenvalues sorted against energy.

    The largest eigenvalue sits on the lowest level, so no cyclic
    unitary can extract work from the result (Allahverdyan, Balian &
    Nieuwenhuizen, EPL 67, 565 (2004)). Only the eigenvalues survive,
    and they are read from ``state.spectrum``: a diagonal state is not
    diagonalized, and a general state is diagonalized on the first read
    of its spectrum (here or elsewhere) and never again. Idempotent.
    """
    return BatteryState.diagonal(np.sort(np.clip(state.spectrum, 0.0, None))[::-1])


def ergotropy(state: BatteryState, params: SystemParams) -> float:
    """Maximum unitarily extractable energy, E(state) - E(passive state)."""
    value = energy(state, params) - energy(passive_state(state), params)
    return max(value, 0.0)


def ergotropy_ratio(state: BatteryState, params: SystemParams) -> float:
    """Ergotropy over energy; reported as 0 for a zero-energy state."""
    return _ratio(ergotropy(state, params), energy(state, params))


def _ratio(ergotropy_value: float, energy_value: float) -> float:
    """The ratio rule shared by ``ergotropy_ratio`` and ``snapshot``."""
    return ergotropy_value / energy_value if energy_value > 0.0 else 0.0


@dataclass(frozen=True)
class ThermoSnapshot:
    """Per-round energetics; ``power`` is None for the initial state.

    ``energy`` and ``power`` are computed when the snapshot is taken.
    ``ergotropy`` and ``ratio`` are computed from ``state`` on first read
    and kept, so a general state whose ergotropy nobody reads is never
    diagonalized, and one that is read is diagonalized once.
    """

    energy: float
    power: float | None
    state: BatteryState = field(repr=False)
    params: SystemParams = field(repr=False)

    @functools.cached_property
    def ergotropy(self) -> float:
        return ergotropy(self.state, self.params)

    @functools.cached_property
    def ratio(self) -> float:
        return _ratio(self.ergotropy, self.energy)


def snapshot(
    state: BatteryState,
    params: SystemParams,
    previous_energy: float | None = None,
    tau: float | None = None,
) -> ThermoSnapshot:
    """Bundle energy, ergotropy, their ratio, and the power of the round
    that produced ``state`` (energy gained per unit interaction time).
    The energy and power are computed here; the ergotropy and ratio on
    first read (see ``ThermoSnapshot``)."""
    e = energy(state, params)
    power = None
    if previous_energy is not None and tau is not None and tau > 0:
        power = (e - previous_energy) / tau
    return ThermoSnapshot(energy=e, power=power, state=state, params=params)


def charging_power(trajectory, m: int) -> float:
    """Energy gained in round m per unit interval, (E_m - E_{m-1}) / tau_m,
    as recorded in the round's snapshot."""
    records = trajectory.rounds
    if not 1 <= m <= len(records):
        raise IndexError(f"round {m} outside 1..{len(records)}")
    return records[m - 1].thermo.power

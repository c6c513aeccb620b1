"""Single evolution-and-measurement rounds.

The two named schemes act on diagonal states through the closed-form
population map of one Kraus operator: power-on prepares the qubit
excited and measures it in the ground state (population climbs one
level), power-off prepares it in the ground state and measures it
excited (population steps down, but renormalization can still raise the
mean). The general (q, theta, c) round contracts the charger's
preparation with the two Kraus operators of its measured state, each a
diagonal plus one off-diagonal band of block amplitudes, so it handles
charger coherence and non-diagonal battery states in O(N^2) without the
joint qubit-battery space. For diagonal states its populations split
into the four single-operator maps and a coherence part, which the
closed-form single-round ratio over a whole (q, theta, c) grid reuses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .propagator import (
    KRAUS_KINDS,
    ZERO_PROBABILITY_ATOL,
    ZeroProbabilityError,
    _amplitude_vectors,
    _diagonal_map,
    _map_weights,
)
from .states import POWER_OFF, POWER_ON, BatteryState, ChargerSpec, SettingError, SystemParams
from .thermo import ThermoSnapshot

SCHEMES = ("power_on", "power_off", "general")


@dataclass(frozen=True)
class RoundRecord:
    """Outcome of one round: post state, outcome probability, interval."""

    post_state: BatteryState
    probability: float
    tau: float
    scheme: str
    thermo: ThermoSnapshot | None = None

    def __post_init__(self):
        if not 0.0 < self.probability <= 1.0 + 1e-12:
            raise ValueError(f"round probability {self.probability} outside (0, 1]")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")


class _Scheme(NamedTuple):
    kind: str  # the Kraus operator of the population map
    outcome: str  # the post-selected qubit outcome
    charger: ChargerSpec  # the same round as a general charger


_NAMED_SCHEMES = {"power_on": _Scheme("eg", "ground-state", POWER_ON),
                  "power_off": _Scheme("ge", "excited-state", POWER_OFF)}


def _scheme_charger(scheme: str, charger: ChargerSpec | None) -> ChargerSpec:
    """The charger a round of ``scheme`` runs with, a named scheme's own or
    ``charger``; raises SettingError for any other scheme or a missing charger."""
    if scheme in _NAMED_SCHEMES:
        return _NAMED_SCHEMES[scheme].charger
    if scheme != "general":
        raise SettingError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    if charger is None:
        raise SettingError("the general scheme needs a ChargerSpec")
    return charger


def _kind(scheme: str) -> str:
    """The Kraus kind of a named scheme; raises SettingError for any other."""
    if scheme not in _NAMED_SCHEMES:
        raise SettingError(f"no closed-form probability for scheme {scheme!r}")
    return _NAMED_SCHEMES[scheme].kind


def _check_ladder(state: BatteryState, params: SystemParams) -> None:
    """Raise ValueError unless ``state`` lives on the ladder of ``params``."""
    if state.populations.size != params.dim:
        raise ValueError("state and params disagree on the ladder size")


def _named_round(state: BatteryState, params: SystemParams, tau: float, scheme: str) -> RoundRecord:
    if not state.is_diagonal:
        raise ValueError(f"{scheme}_round requires a diagonal state")
    _check_ladder(state, params)
    kind = _kind(scheme)
    out = _diagonal_map(kind, _map_weights(params, tau, kind), state.populations)
    prob = float(out.sum())
    if prob < ZERO_PROBABILITY_ATOL:
        raise ZeroProbabilityError(f"{_NAMED_SCHEMES[scheme].outcome} outcome has probability {prob:.3e}")
    return RoundRecord(BatteryState.diagonal(out / prob), prob, tau, scheme)


def power_on_round(state: BatteryState, params: SystemParams, tau: float) -> RoundRecord:
    """One charging round with an excited qubit measured in |g>.

    p_n <- |swap_n|^2 p_{n-1}, renormalized; the support floor rises by
    exactly one level, and any population already on the top level is
    lost to the discarded outcome.
    """
    return _named_round(state, params, tau, "power_on")


def power_off_round(state: BatteryState, params: SystemParams, tau: float) -> RoundRecord:
    """One round with a ground-state qubit measured in |e>.

    p_n <- |swap_{n+1}|^2 p_{n+1}: the work injected by the measurement
    excites the qubit while the battery populations shift down one level
    with an n-dependent weight. Because the (largest) ground population
    is removed before renormalizing, the mean can still rise. A state
    with no population above level 0 cannot trigger the outcome.
    """
    return _named_round(state, params, tau, "power_off")


def _measured_kraus(phi: np.ndarray, params: SystemParams, tau: float) -> tuple:
    """M_g = phi_g gg + phi_e ge and M_e = phi_g eg + phi_e ee as
    (diagonal, off-diagonal band, band above the diagonal) triples: M_g
    is upper bidiagonal with swap_{n+1} at [n, n+1], M_e lower bidiagonal
    with swap_n at [n, n-1]. The uncoupled top level |e, N> evolves only
    by the detuning phase, which fills ee's last diagonal entry."""
    stay, swap = _amplitude_vectors(params, tau)
    phase = np.exp(-0.5j * params.delta * tau)
    hold = np.append(phase * np.conj(stay[1:]), np.exp(-1j * params.delta * tau))
    return (
        (phi[0] * phase * stay, phi[1] * swap[1:], True),
        (phi[1] * hold, phi[0] * swap[1:], False),
    )


def _band_product(m: tuple, x: np.ndarray) -> np.ndarray:
    """M @ x for one ``_measured_kraus`` triple, by row shifts of x."""
    diagonal, band, above = m
    out = diagonal[:, None] * x
    if above:
        out[:-1] += band[:, None] * x[1:]
    else:
        out[1:] += band[:, None] * x[:-1]
    return out


def general_round(
    state: BatteryState,
    charger: ChargerSpec,
    params: SystemParams,
    tau: float,
) -> RoundRecord:
    """One round for an arbitrary charger preparation and measurement angle.

    With the measured state phi = cos(theta/2)|g> + sin(theta/2)|e> and
    M_i = sum_j phi_j* <j|U|i>, the unnormalized post state is
    sum_{i,i'} rho_c[i,i'] M_i rho M_i'^+ for the charger density matrix
    rho_c, the same as evolving the joint state, projecting the qubit and
    tracing it out; the probability is its trace.
    """
    _check_ladder(state, params)
    m = _measured_kraus(charger.measured_state(), params, tau)
    rho = state.matrix
    applied = [_band_product(mi, rho) for mi in m]
    rho_c = charger.density_matrix()
    # mixed[i'] = sum_i rho_c[i, i'] M_i rho, and mixed M^+ = (M mixed^+)^+
    battery = sum(
        _band_product(m[j], (rho_c[0, j] * applied[0] + rho_c[1, j] * applied[1]).conj().T).conj().T
        for j in (0, 1)
    )
    prob = float(np.trace(battery).real)
    if prob < ZERO_PROBABILITY_ATOL:
        raise ZeroProbabilityError(f"projection onto theta={charger.theta} has probability {prob:.3e}")
    return RoundRecord(BatteryState.from_matrix(battery / prob), prob, tau, "general")


def _charger_weights(q, theta, c) -> tuple:
    """Weights of the parts of ``_diagonal_parts`` in one round; array
    arguments broadcast."""
    cos2 = np.cos(theta / 2.0) ** 2
    sin2 = np.sin(theta / 2.0) ** 2
    coherence = c * np.sqrt(q * (1.0 - q)) * np.sin(theta)
    return (1.0 - q) * cos2, q * sin2, q * cos2, (1.0 - q) * sin2, coherence


def _diagonal_parts(populations: np.ndarray, params: SystemParams, tau: float) -> np.ndarray:
    """Unweighted population parts of a round on a diagonal state: the
    eg, ge, gg and ee maps (KRAUS_KINDS order) and the coherence part
    Re[stay_n stay_{n+1}] p_n, whose top level uses the bare detuning
    phase in place of the missing stay amplitude."""
    stay, _ = _amplitude_vectors(params, tau)
    core = np.append(stay[:-1] * stay[1:], stay[-1] * np.exp(0.5j * params.delta * tau)).real
    maps = [_diagonal_map(kind, _map_weights(params, tau, kind), populations) for kind in KRAUS_KINDS]
    return np.array(maps + [core * populations])


def coherence_population(
    state: BatteryState,
    charger: ChargerSpec,
    params: SystemParams,
    tau: float,
) -> np.ndarray:
    """Unnormalized population contributed by the charger's initial coherence.

    For a diagonal input the coherence cross terms add
    c*sqrt(q(1-q))*sin(theta) * Re[stay_n stay_{n+1}] * p_n to level n,
    with the uncoupled top level using the bare detuning phase in place
    of a stay amplitude. Vanishes for c = 0 or theta in {0, pi}; near
    resonance with slowly varying block frequencies it reduces to the
    same shape as the diagonal no-exchange map.
    """
    if not state.is_diagonal:
        raise ValueError("coherence_population requires a diagonal state")
    weight = _charger_weights(charger.q, charger.theta, charger.c)[4]
    return weight * _diagonal_parts(state.populations, params, tau)[4]


def charge_discharge_populations(
    state: BatteryState,
    charger: ChargerSpec,
    params: SystemParams,
    tau: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized charging and discharging population parts of one round.

    The charging part mixes the two level-shifting maps with weights
    (1-q)cos^2(theta/2) and q sin^2(theta/2); the discharging part mixes
    the two diagonal maps. Together with ``coherence_population`` they
    reproduce the diagonal of ``general_round`` exactly.
    """
    if not state.is_diagonal:
        raise ValueError("requires a diagonal state")
    up, down, hold, hold_shifted, _ = _diagonal_parts(state.populations, params, tau)
    w_up, w_down, w_hold, w_shifted, _ = _charger_weights(charger.q, charger.theta, charger.c)
    return w_up * up + w_down * down, w_hold * hold + w_shifted * hold_shifted


def _mean_ratios(populations: np.ndarray, params: SystemParams, tau: float, q, theta, c) -> np.ndarray:
    """Normalized post-round mean over the pre-round mean of a diagonal
    state for every charger of a (q, theta, c) grid, NaN where the
    outcome probability vanishes. The parts do not depend on the charger,
    so each is reduced once to its sum and first moment."""
    parts = _diagonal_parts(populations, params, tau)
    levels = np.arange(populations.size)
    weights = np.array(_charger_weights(q, theta, c))
    prob = parts.sum(axis=1) @ weights
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = (parts @ levels) @ weights / prob / float(levels @ populations)
    return np.where(prob < ZERO_PROBABILITY_ATOL, np.nan, ratio)

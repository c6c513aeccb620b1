"""Open-system evolution of the joint charger-battery density matrix.

Between measurements the joint state relaxes under local thermal
damping of both the battery ladder and the qubit:

    drho/dt = -i[H, rho]
              + gamma_b (nbar + 1) D[A] rho + gamma_b nbar D[A+] rho
              + gamma_c (nbar_c + 1) D[s-] rho + gamma_c nbar_c D[s+] rho

with D[o] rho = o rho o+ - {o+ o, rho}/2. The bath occupations are
frozen at the initial thermal values rather than tracking the battery's
instantaneous temperature.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .propagator import (
    ZERO_PROBABILITY_ATOL,
    ZeroProbabilityError,
    battery_lowering,
    joint_hamiltonian,
    qubit_lowering,
)
from .rounds import RoundRecord
from .scheduler import Trajectory, _drive, quarter_period
from .states import BatteryState, ChargerSpec, SystemParams, mean_occupation, thermal_state

HERMITICITY_ATOL = 1e-10
TRACE_ATOL = 1e-8
POSITIVITY_ATOL = 1e-8


@dataclass(frozen=True)
class DissipationParams:
    """Damping rates and frozen bath occupations for battery and qubit."""

    gamma_b: float
    gamma_c: float
    nbar_th: float
    nbar_th_c: float

    def __post_init__(self):
        if self.gamma_b < 0 or self.gamma_c < 0:
            raise ValueError("damping rates must be >= 0")
        if self.nbar_th < 0 or self.nbar_th_c < 0:
            raise ValueError("bath occupations must be >= 0")

    @classmethod
    def thermal(
        cls, params: SystemParams, gamma_b: float, gamma_c: float | None = None
    ) -> "DissipationParams":
        """Occupations matching the initial thermal state of each part.

        The battery bath carries the ladder's initial mean occupation;
        the qubit bath carries the two-level excited-state occupation
        1/(exp(beta*omega_b) + 1), i.e. one minus the thermal ground
        population, vanishing at zero temperature.
        """
        nbar = mean_occupation(thermal_state(params))
        if math.isinf(params.beta):
            nbar_c = 0.0
        else:
            nbar_c = 1.0 / (math.exp(params.beta * params.omega_b) + 1.0)
        return cls(
            gamma_b=gamma_b,
            gamma_c=gamma_b if gamma_c is None else gamma_c,
            nbar_th=nbar,
            nbar_th_c=nbar_c,
        )


def _jump_operators(params: SystemParams, diss: DissipationParams):
    """(rate, L, L+L) triples for the four damping channels."""
    dim = params.dim
    a = np.kron(np.eye(2), battery_lowering(dim)).astype(complex)
    sm = np.kron(qubit_lowering(), np.eye(dim)).astype(complex)
    channels = [
        (diss.gamma_b * (diss.nbar_th + 1.0), a),
        (diss.gamma_b * diss.nbar_th, a.conj().T),
        (diss.gamma_c * (diss.nbar_th_c + 1.0), sm),
        (diss.gamma_c * diss.nbar_th_c, sm.conj().T),
    ]
    return [(rate, op, op.conj().T @ op) for rate, op in channels if rate > 0.0]


def _rhs_factory(params: SystemParams, diss: DissipationParams):
    h = joint_hamiltonian(params)
    jumps = _jump_operators(params, diss)

    def rhs(rho: np.ndarray) -> np.ndarray:
        out = -1j * (h @ rho - rho @ h)
        for rate, op, opop in jumps:
            out += rate * (op @ rho @ op.conj().T - 0.5 * (opop @ rho + rho @ opop))
        return out

    return rhs


def lindblad_rhs(
    rho: np.ndarray, params: SystemParams, diss: DissipationParams
) -> np.ndarray:
    """Generator applied to one joint density matrix.

    Hermiticity-preserving and traceless by construction; the input must
    be 2(N+1) x 2(N+1).
    """
    rho = np.asarray(rho, dtype=complex)
    expected = 2 * params.dim
    if rho.shape != (expected, expected):
        raise ValueError(f"expected a {expected}x{expected} matrix, got {rho.shape}")
    return _rhs_factory(params, diss)(rho)


def integrate(
    rho0: np.ndarray,
    tau: float,
    params: SystemParams,
    diss: DissipationParams,
    rtol: float = 1e-7,
    atol: float = 1e-9,
    method: str = "DOP853",
    check: bool = True,
) -> np.ndarray:
    """Propagate the joint state over one interval with an adaptive
    embedded Runge-Kutta scheme.

    The result is re-symmetrized; drifts in Hermiticity, trace, or
    positivity beyond their tolerances raise a warning rather than an
    error, since they signal tolerance starvation, not a wrong model.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    expected = 2 * params.dim
    if rho0.shape != (expected, expected):
        raise ValueError(f"expected a {expected}x{expected} matrix, got {rho0.shape}")
    if tau < 0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    if tau == 0.0:
        return rho0.copy()
    rhs = _rhs_factory(params, diss)
    flat = lambda t, y: rhs(y.reshape(expected, expected)).ravel()
    sol = solve_ivp(
        flat, (0.0, tau), rho0.ravel(), method=method, rtol=rtol, atol=atol,
        dense_output=False,
    )
    if not sol.success:
        raise RuntimeError(f"integration failed: {sol.message}")
    rho = sol.y[:, -1].reshape(expected, expected)
    if check:
        herm = np.abs(rho - rho.conj().T).max()
        if herm > HERMITICITY_ATOL:
            warnings.warn(f"Hermiticity drift {herm:.2e} exceeds {HERMITICITY_ATOL}")
        tr = abs(np.trace(rho).real - 1.0)
        if tr > TRACE_ATOL:
            warnings.warn(f"trace drift {tr:.2e} exceeds {TRACE_ATOL}")
    rho = 0.5 * (rho + rho.conj().T)
    if check:
        lo = np.linalg.eigvalsh(rho).min()
        if lo < -POSITIVITY_ATOL:
            warnings.warn(f"positivity violation {lo:.2e} beyond {POSITIVITY_ATOL}")
    return rho


def _project_qubit(rho: np.ndarray, phi: np.ndarray, dim: int) -> tuple[np.ndarray, float]:
    blocks = rho.reshape(2, dim, 2, dim)
    battery = np.einsum("i,injm,j->nm", phi.conj(), blocks, phi)
    prob = float(np.trace(battery).real)
    return battery, prob


def dissipative_protocol(
    initial: BatteryState,
    params: SystemParams,
    diss: DissipationParams,
    scheme: str,
    n_rounds: int,
    interval_policy: str = "analytic",
    *,
    charger: ChargerSpec | None = None,
    fixed_tau: float | None = None,
    tau_schedule=None,
    rtol: float = 1e-9,
    atol: float = 1e-12,
) -> Trajectory:
    """Multi-round charging with open-system evolution between measurements.

    Each round tensors a fresh qubit onto the battery, integrates the
    damped joint dynamics for the chosen interval, projects the qubit,
    traces it out, and renormalizes. Interval policies: ``analytic``
    (power-on only), ``fixed``, or ``schedule`` with an explicit list
    (e.g. mirrored from a closed-system run so the two are directly
    comparable).

    Tolerances default tighter than bare ``integrate`` so the spectral
    dust after a few hundred levels stays inside the positivity budget.
    """
    from .states import POWER_OFF, POWER_ON

    qubit_specs = {"power_on": POWER_ON, "power_off": POWER_OFF, "general": charger}
    if scheme not in qubit_specs:
        raise ValueError(f"unknown scheme {scheme!r}")
    qubit_spec = qubit_specs[scheme]
    if qubit_spec is None:
        raise ValueError("the general scheme needs a ChargerSpec")
    if interval_policy == "analytic":
        if scheme != "power_on":
            raise ValueError("the analytic interval formula applies to the power_on scheme")
        # mean-based form: damped states may carry coherence dust
        choose_tau = lambda state, cumulative, m: quarter_period(params, mean_occupation(state))
    elif interval_policy == "fixed":
        if fixed_tau is None:
            raise ValueError("fixed policy needs fixed_tau")
        choose_tau = lambda state, cumulative, m: fixed_tau
    elif interval_policy == "schedule":
        if tau_schedule is None or len(tau_schedule) < n_rounds:
            raise ValueError("schedule policy needs a tau per round")
        choose_tau = lambda state, cumulative, m: float(tau_schedule[m - 1])
    else:
        raise ValueError(f"unknown interval policy {interval_policy!r}")
    phi = qubit_spec.measured_state().astype(complex)
    rho_c = qubit_spec.density_matrix()

    def take_round(state, tau):
        evolved = integrate(np.kron(rho_c, state.matrix), tau, params, diss, rtol=rtol, atol=atol)
        battery, prob = _project_qubit(evolved, phi, params.dim)
        if prob < ZERO_PROBABILITY_ATOL:
            raise ZeroProbabilityError(f"outcome probability {prob:.3e}")
        post = BatteryState.from_matrix(battery / prob, herm_atol=1e-8, clip=POSITIVITY_ATOL)
        return RoundRecord(post, prob, tau, scheme)

    return _drive(initial, params, scheme, n_rounds, choose_tau, take_round, ZeroProbabilityError)

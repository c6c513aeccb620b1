"""Open-system evolution of the joint charger-battery density matrix.

Between measurements the joint state relaxes under local thermal
damping of both the battery ladder and the qubit:

    drho/dt = -i[H, rho]
              + gamma_b (nbar + 1) D[A] rho + gamma_b nbar D[A+] rho
              + gamma_c (nbar_c + 1) D[s-] rho + gamma_c nbar_c D[s+] rho

with D[o] rho = o rho o+ - {o+ o, rho}/2. The bath occupations are
frozen at the initial thermal values rather than tracking the battery's
instantaneous temperature.

The generator conserves the excitation gap of every matrix element:
|i, n> carries k = i + n quanta, H conserves k, and each damping channel
shifts k by the same amount on both sides of rho (a weak U(1) symmetry,
Buca & Prosen, New J. Phys. 14, 073007 (2012)). ``integrate`` therefore
evolves only the elements whose gap k_row - k_col occurs among the
nonzero elements of the initial state, under a sparse superoperator
that ``_restricted`` assembles on just those elements from the Kronecker
factors of ``_liouvillian``: 4(N+1) - 2 elements for a diagonal charger on a
diagonal battery, about three times that for a coherent charger on a
diagonal battery, nearly all of them for a battery with coherences.
The factors depend only on (params, diss), so they are built once per
pair and cached read-only; each round assembles its own support.
The elements left out stay exactly zero, as they do in a dense solve.
The adaptive solver's error norm is an RMS over the solved vector, so
the tolerances are scaled by sqrt(total / solved); that reproduces the
error norm, and so the step sequence, of a solve over all elements,
whose left-out entries contribute exact zeros. The dense right-hand
side is an oracle in ``qbattery.validate``.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.integrate import solve_ivp

from .propagator import ZERO_PROBABILITY_ATOL, ZeroProbabilityError
from .rounds import RoundRecord
from .scheduler import Trajectory, _drive, _fixed_or_analytic
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
        values = (self.gamma_b, self.gamma_c, self.nbar_th, self.nbar_th_c)
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"damping rates and bath occupations must be finite, got {values}")
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

        The qubit occupation is taken at the battery spacing omega_b, not
        at the qubit gap omega_c = omega_b + delta: it is the excited
        population of a two-level system with the battery's spacing, not
        of the charger qubit itself. Whether the model should use omega_c
        there is an open question; the value is kept as is.
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


def _joint_lowering(dim: int) -> tuple[sparse.csr_matrix, sparse.csr_matrix]:
    """The battery ladder operator A (<n-1|A|n> = sqrt(n)) and the qubit
    lowering operator s- = |g><e| on the joint space, sparse, ordering
    |i, n> -> i*(N+1) + n with i = 0 for |g>."""
    a = sparse.kron(sparse.identity(2), sparse.diags(np.sqrt(np.arange(1.0, dim)), 1), format="csr")
    sm = sparse.kron(sparse.csr_matrix(([1.0], ([0], [1])), shape=(2, 2)), sparse.identity(dim),
                     format="csr")
    return a.astype(complex), sm.astype(complex)


def _jump_operators(params: SystemParams, diss: DissipationParams):
    """(rate, L, L+L) triples for the four damping channels, sparse."""
    a, sm = _joint_lowering(params.dim)
    channels = [
        (diss.gamma_b * (diss.nbar_th + 1.0), a),
        (diss.gamma_b * diss.nbar_th, a.conj().T.tocsr()),
        (diss.gamma_c * (diss.nbar_th_c + 1.0), sm),
        (diss.gamma_c * diss.nbar_th_c, sm.conj().T.tocsr()),
    ]
    return [(rate, op, (op.conj().T @ op).tocsr()) for rate, op in channels if rate > 0.0]


@functools.lru_cache(maxsize=4)
def _liouvillian(params: SystemParams, diss: DissipationParams) -> tuple[tuple, ...]:
    """The generator as Kronecker factors: the sum of kron(A, B) over the
    returned (A, B) pairs of sparse matrices, whose arrays are read-only
    because every caller with the same (params, diss) shares them.

    Row-major vectorization, vec(A rho B) = kron(A, B^T) vec(rho), on the
    (2(N+1))^2 joint elements. With K = -iH - sum rate L+L / 2 the
    generator is K rho + rho K+ + sum rate L rho L+, where
    H = delta s+ s- + g (s- A+ + s+ A) in the rotating frame.
    """
    a, sm = _joint_lowering(params.dim)
    h = params.delta * (sm.conj().T @ sm) + params.g * (sm @ a.conj().T + sm.conj().T @ a)
    jumps = _jump_operators(params, diss)
    k = -1j * h
    for rate, _, opop in jumps:
        k = k - 0.5 * rate * opop
    eye = sparse.identity(k.shape[0], dtype=complex, format="csr")
    terms = [(k.tocsr(), eye), (eye, k.conj().tocsr())]
    terms += [((rate * op).tocsr(), op.conj().tocsr()) for rate, op, _ in jumps]
    for factor in (m for pair in terms for m in pair):
        for array in (factor.data, factor.indices, factor.indptr):
            array.flags.writeable = False
    return tuple(terms)


def _csr_rows(m: sparse.csr_matrix, rows: np.ndarray):
    """(position in ``rows``, column, value) of every stored entry of the rows."""
    starts = m.indptr[rows]
    counts = m.indptr[rows + 1] - starts
    offsets = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    pos = np.arange(counts.sum()) + offsets
    return np.repeat(np.arange(rows.size), counts), m.indices[pos], m.data[pos]


def _restricted(terms: tuple[tuple, ...], support: np.ndarray) -> sparse.csr_matrix:
    """The generator's rows and columns ``support`` (sorted raveled indices
    of a union of excitation-gap bands), assembled without the rest."""
    n = terms[0][0].shape[0]
    rows, cols, vals = [], [], []
    for a, b in terms:
        i, c, va = _csr_rows(a, support // n)
        j, d, vb = _csr_rows(b, support[i] % n)
        rows.append(i[j])
        cols.append(c[j] * n + d)
        vals.append(va[j] * vb)
    cols = np.concatenate(cols)
    pos = np.minimum(np.searchsorted(support, cols), support.size - 1)
    if not np.array_equal(support[pos], cols):
        raise ValueError("the generator leaves the excitation-gap support")
    return sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), pos)), shape=(support.size, support.size)
    )


def _excitation_gaps(dim: int) -> np.ndarray:
    """k_row - k_col of every joint element, raveled; |i, n> carries i + n."""
    k = np.add.outer(np.arange(2), np.arange(dim)).ravel()
    return np.subtract.outer(k, k).ravel()


def integrate(
    rho0: np.ndarray,
    tau: float,
    params: SystemParams,
    diss: DissipationParams,
    rtol: float = 1e-7,
    atol: float = 1e-9,
    check: bool = True,
) -> np.ndarray:
    """Propagate the joint state over one interval with the adaptive
    embedded Runge-Kutta scheme DOP853.

    Only the excitation-gap bands that the initial state occupies are
    integrated, with ``rtol`` and ``atol`` scaled so that the error norm
    equals that of a solve over every element.

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
    flat0 = rho0.ravel()
    gaps = _excitation_gaps(params.dim)
    support = np.flatnonzero(np.isin(gaps, np.unique(gaps[flat0 != 0])))
    sub = _restricted(_liouvillian(params, diss), support)
    scale = math.sqrt(flat0.size / support.size)
    sol = solve_ivp(
        lambda t, y: sub @ y, (0.0, tau), flat0[support], method="DOP853",
        rtol=rtol * scale, atol=atol * scale, dense_output=False,
    )
    if not sol.success:
        raise RuntimeError(f"integration failed: {sol.message}")
    rho = np.zeros(flat0.size, dtype=complex)
    rho[support] = sol.y[:, -1]
    rho = rho.reshape(expected, expected)
    if check:
        herm = np.abs(rho - rho.conj().T).max()
        if herm > HERMITICITY_ATOL:
            warnings.warn(f"Hermiticity drift {herm:.2e} exceeds {HERMITICITY_ATOL}")
        tr = abs(np.trace(rho).real - 1.0)
        if tr > TRACE_ATOL:
            warnings.warn(f"trace drift {tr:.2e} exceeds {TRACE_ATOL}")
    rho = 0.5 * (rho + rho.conj().T)
    if check:
        # rho + atol I has a Cholesky factor exactly when no eigenvalue of
        # rho lies below -atol; the spectrum is computed only to report one
        shifted = rho.copy()
        shifted.flat[:: expected + 1] += POSITIVITY_ATOL
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            lo = np.linalg.eigvalsh(rho).min()
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
    if interval_policy in ("fixed", "analytic"):
        choose_tau = _fixed_or_analytic(interval_policy, scheme, params, fixed_tau)
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

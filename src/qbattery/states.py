"""Physical configuration and battery-state representations.

Units: hbar = k_B = 1 and the charger-qubit gap omega_c = 1 sets the
energy scale, so times are in 1/omega_c and inverse temperatures in
1/omega_c. Battery energies are reported in units of the ladder
spacing omega_b.
"""

from __future__ import annotations

import functools
import math
from dataclasses import KW_ONLY, dataclass, field

import numpy as np

# Tolerances shared across the package. Each check is phrased so that NaN fails it.
SUM_ATOL = 1e-12          # stored populations sum to 1 this tightly
INPUT_SUM_ATOL = 1e-9     # input populations summing to 1 within this are renormalized
NEGATIVE_DUST = -1e-14    # rounding dust below zero that gets clamped
PSD_ATOL = 1e-10          # smallest-eigenvalue tolerance for general states
HERM_ATOL = 1e-10         # Hermiticity tolerance when ingesting matrices
DIAG_ATOL = 1e-12         # off-diagonal magnitude below which a state is diagonal


class SettingError(ValueError):
    """A parameter, charger, scheme or interval-policy setting rejected before any work runs."""


@dataclass(frozen=True)
class SystemParams:
    """Battery size, energies, coupling and initial inverse temperature.

    The battery is a ladder of ``n_levels + 1`` evenly spaced levels with
    spacing ``omega_b = omega_c - delta``. ``beta = math.inf`` is the
    distinguished ground-state value (handled exactly, never as a large
    float).
    """

    n_levels: int
    g: float
    delta: float = 0.0
    omega_c: float = 1.0
    beta: float = math.inf

    def __post_init__(self):
        n = self.n_levels
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise SettingError(f"n_levels must be an integer >= 1, got {n!r}")
        for name in ("g", "delta", "omega_c"):
            if not math.isfinite(getattr(self, name)):
                raise SettingError(f"{name} must be finite, got {getattr(self, name)}")
        if self.g < 0:
            raise SettingError(f"coupling g must be >= 0, got {self.g}")
        if not self.beta >= 0:
            raise SettingError(f"beta must be >= 0, got {self.beta}")
        if self.omega_b <= 0:
            raise SettingError(
                f"delta={self.delta} leaves no positive ladder spacing "
                f"(omega_b={self.omega_b})"
            )

    @property
    def omega_b(self) -> float:
        """Battery level spacing; delta = omega_c - omega_b by construction."""
        return self.omega_c - self.delta

    @property
    def dim(self) -> int:
        """Number of battery levels, n_levels + 1."""
        return self.n_levels + 1


@dataclass(frozen=True)
class ChargerSpec:
    """Preparation and measurement of one charger qubit.

    ``q`` is the ground-state weight of the prepared qubit, ``theta`` the
    angle of the measured state cos(theta/2)|g> + sin(theta/2)|e>, and
    ``c`` in [0, 1] scales the initial coherence c*sqrt(q(1-q)) between
    |g> and |e>.
    """

    q: float
    theta: float
    c: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.q <= 1.0:
            raise SettingError(f"q must lie in [0, 1], got {self.q}")
        if not 0.0 <= self.theta <= math.pi:
            raise SettingError(f"theta must lie in [0, pi], got {self.theta}")
        if not 0.0 <= self.c <= 1.0:
            raise SettingError(f"c must lie in [0, 1], got {self.c}")

    def density_matrix(self) -> np.ndarray:
        """Qubit density matrix in the (|g>, |e>) basis."""
        off = self.c * math.sqrt(self.q * (1.0 - self.q))
        return np.array(
            [[self.q, off], [off, 1.0 - self.q]], dtype=complex
        )

    def measured_state(self) -> np.ndarray:
        """Measured qubit state as a (|g>, |e>) amplitude vector."""
        return np.array(
            [math.cos(self.theta / 2.0), math.sin(self.theta / 2.0)]
        )


POWER_ON = ChargerSpec(q=0.0, theta=0.0)    # prepare excited, measure ground
POWER_OFF = ChargerSpec(q=1.0, theta=math.pi)  # prepare ground, measure excited


@dataclass(frozen=True, eq=False)
class BatteryState:
    """Battery state: populations plus, if general, the full matrix.

    ``populations`` always holds the level occupations. A general state,
    built by ``from_matrix``, keeps the read-only Hermitian matrix its
    positivity was checked on (one Cholesky factor, no diagonalization),
    with the populations on its diagonal, and ``matrix`` returns it.
    ``spectrum`` holds the eigenvalues, read-only: the populations of a
    diagonal state, and otherwise the ascending ``eigvalsh`` of the
    matrix, computed on first read and at most once.
    """

    populations: np.ndarray
    _: KW_ONLY
    # ``from_matrix`` hands over a general state's matrix, which it owns
    _rho: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        p = np.asarray(self.populations, dtype=float)
        if p.ndim != 1 or p.size < 2:
            raise ValueError("populations must be a vector of length >= 2")
        low, total = p.min(), p.sum()
        if low < NEGATIVE_DUST:
            raise ValueError(
                f"population {low:.3e} below the {NEGATIVE_DUST} dust threshold"
            )
        if not abs(total - 1.0) <= INPUT_SUM_ATOL:  # also a NaN or infinite population
            raise ValueError(f"populations sum to {total!r}, not 1")
        if low <= 0.0:
            # clamp the dust, and write -0.0 as 0.0
            p = np.maximum(p, 0.0)
            if low < 0.0:
                total = p.sum()
        p = p / total
        p.flags.writeable = False
        object.__setattr__(self, "populations", p)
        rho = self._rho
        if rho is None:
            self.__dict__["spectrum"] = p  # fills the cached property
            return
        rho.flat[:: p.size + 1] = p
        # writes -0.0 as 0.0, so the matrix is diag(p) + upper + upper^H bit for bit
        rho += 0.0
        rho.flags.writeable = False
        object.__setattr__(self, "_rho", rho)
        lowest = _psd_violation(rho, PSD_ATOL)
        if lowest is not None:
            raise ValueError(f"state is not positive semidefinite (min eig {lowest:.3e})")

    @functools.cached_property
    def spectrum(self) -> np.ndarray:
        """Ascending eigenvalues, read-only; see the class docstring."""
        spectrum = np.linalg.eigvalsh(self.matrix)
        spectrum.flags.writeable = False
        return spectrum

    @classmethod
    def diagonal(cls, populations) -> "BatteryState":
        return cls(np.asarray(populations, dtype=float))

    @classmethod
    def from_matrix(cls, rho: np.ndarray) -> "BatteryState":
        """Build a state from a square density matrix, Hermitian within
        ``HERM_ATOL`` and symmetrized before use, snapping to diagonal form
        when all off-diagonal elements are below ``DIAG_ATOL``. A general
        input is checked by the one Cholesky factor of ``BatteryState``
        and not diagonalized.
        """
        rho = np.asarray(rho, dtype=complex)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1] or rho.shape[0] < 2:
            raise ValueError(f"density matrix must be square and at least 2 x 2, got shape {rho.shape}")
        drift = np.abs(rho - rho.conj().T).max()
        if not drift <= HERM_ATOL:
            raise ValueError(f"matrix is not Hermitian within {HERM_ATOL} (drift {drift:.3e})")
        rho = 0.5 * (rho + rho.conj().T)
        pops = np.real(np.diag(rho))
        if np.abs(rho - np.diag(pops)).max() <= DIAG_ATOL:  # its diagonal is real
            return cls(pops)
        return cls(pops, _rho=rho)

    @property
    def n_levels(self) -> int:
        return self.populations.size - 1

    @property
    def is_diagonal(self) -> bool:
        return self._rho is None

    @property
    def matrix(self) -> np.ndarray:
        """Full density matrix, (N+1) x (N+1) complex, stored and read-only for a general state."""
        if self._rho is None:
            return np.diag(self.populations).astype(complex)
        return self._rho


def _psd_violation(matrix: np.ndarray, atol: float) -> float | None:
    """None when no eigenvalue of the Hermitian ``matrix`` lies below
    -``atol``, else its lowest eigenvalue, or NaN where ``eigvalsh``
    cannot compute one.

    matrix + atol I has a Cholesky factor exactly when the matrix passes
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    section 10.1), so the spectrum is computed only to report a
    violation. A NaN or infinite element can leave a non-finite factor
    without a ``LinAlgError``; that factor counts as a violation. Its
    diagonal decides: L_ii = sqrt(a_ii - sum_k |L_ik|^2) takes in every
    element of row i.
    """
    shifted = matrix.copy()
    shifted.flat[:: matrix.shape[0] + 1] += atol
    try:
        finite = np.isfinite(np.linalg.cholesky(shifted).diagonal()).all()
    except np.linalg.LinAlgError:
        finite = False
    if finite:
        return None
    try:
        return float(np.linalg.eigvalsh(matrix).min())
    except np.linalg.LinAlgError:
        return math.nan


def fock_state(level: int, n_levels: int) -> BatteryState:
    """All population on one ladder level."""
    if not 0 <= level <= n_levels:
        raise ValueError(f"level {level} outside 0..{n_levels}")
    p = np.zeros(n_levels + 1)
    p[level] = 1.0
    return BatteryState.diagonal(p)


def thermal_populations(params: SystemParams) -> np.ndarray:
    """Gibbs occupations of the truncated ladder at inverse temperature beta.

    p_n is proportional to exp(-beta*omega_b*n), normalized over the
    N+1 levels. beta = inf gives the exact ground state and beta = 0 the
    uniform distribution.
    """
    dim = params.dim
    if math.isinf(params.beta):
        p = np.zeros(dim)
        p[0] = 1.0
        return p
    if params.beta == 0.0:
        return np.full(dim, 1.0 / dim)
    x = params.beta * params.omega_b
    n = np.arange(dim)
    p = np.exp(-x * n) * -np.expm1(-x)
    return p / p.sum()


def thermal_state(params: SystemParams) -> BatteryState:
    return BatteryState.diagonal(thermal_populations(params))


def mean_occupation(state: BatteryState) -> float:
    """Average level index sum_n n*p_n."""
    n = np.arange(state.populations.size)
    return float(n @ state.populations)


def occupation_variance(state: BatteryState) -> float:
    """Spread of the level distribution, sum_n (n - mean)^2 p_n.

    Two passes: the one-pass sum_n n^2 p_n - mean^2 cancels about three
    digits at mean ~ 80.
    """
    p = state.populations
    d = np.arange(p.size) - mean_occupation(state)
    return float(d * d @ p)


def fano_ratio(state: BatteryState) -> float:
    """Variance-to-mean ratio of the level distribution.

    Below 1 the distribution is narrower than Poissonian; a thermal
    distribution sits near mean + 1.
    """
    mean = mean_occupation(state)
    if mean <= 0.0:
        raise ValueError("Fano ratio undefined for a state with zero mean occupation")
    return occupation_variance(state) / mean


def diagonal_fidelity(a: BatteryState, b: BatteryState) -> float:
    """Fidelity sum_n sqrt(p_n q_n) between two diagonal states.

    Equals the quantum fidelity when both density matrices commute with
    the ladder Hamiltonian; non-diagonal inputs are rejected.
    """
    if not (a.is_diagonal and b.is_diagonal):
        raise ValueError("diagonal_fidelity requires diagonal states")
    if a.populations.size != b.populations.size:
        raise ValueError("states live on different ladders")
    return float(np.sqrt(a.populations * b.populations).sum())


def gaussian_reference(mean: float, variance: float, n_levels: int) -> BatteryState:
    """Discrete Gaussian profile on levels 0..N, renormalized after truncation.

    The targets are not re-fitted: truncation can shift the realized
    moments, which callers should read back off the returned state.
    """
    if not 0.0 < variance < math.inf:
        raise ValueError(f"variance must be finite and > 0, got {variance}")
    if not 0.0 <= mean <= n_levels:
        raise ValueError(f"mean {mean} outside the ladder 0..{n_levels}")
    n = np.arange(n_levels + 1)
    # subtract the peak exponent so the largest weight is exactly 1
    expo = -((n - mean) ** 2) / (2.0 * variance)
    p = np.exp(expo - expo.max())
    return BatteryState.diagonal(p / p.sum())

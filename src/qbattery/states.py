"""Physical configuration and battery-state representations.

Units: hbar = k_B = 1 and the charger-qubit gap omega_c = 1 sets the
energy scale, so times are in 1/omega_c and inverse temperatures in
1/omega_c. Battery energies are reported in units of the ladder
spacing omega_b.
"""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, InitVar, dataclass, field

import numpy as np

# Tolerances shared across the package.
SUM_ATOL = 1e-12          # stored populations sum to 1 this tightly; inputs within 1e-9 are renormalized
NEGATIVE_DUST = -1e-14    # rounding dust below zero that gets clamped
PSD_ATOL = 1e-10          # smallest-eigenvalue tolerance for general states
HERM_ATOL = 1e-10         # Hermiticity tolerance when ingesting matrices
DIAG_ATOL = 1e-12         # off-diagonal magnitude below which a state is diagonal


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
        if self.n_levels < 1:
            raise ValueError(f"n_levels must be >= 1, got {self.n_levels}")
        for name in ("g", "delta", "omega_c"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.g < 0:
            raise ValueError(f"coupling g must be >= 0, got {self.g}")
        if not self.beta >= 0:
            raise ValueError(f"beta must be >= 0, got {self.beta}")
        if self.omega_b <= 0:
            raise ValueError(
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
            raise ValueError(f"q must lie in [0, 1], got {self.q}")
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta must lie in [0, pi], got {self.theta}")
        if not 0.0 <= self.c <= 1.0:
            raise ValueError(f"c must lie in [0, 1], got {self.c}")

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
    """Battery state: populations plus optional off-diagonal part.

    ``populations`` always holds the level occupations. For general
    states ``coherences`` stores the strictly upper-triangular part of
    the density matrix; the full matrix is diag(populations) +
    coherences + coherences^dagger. ``spectrum`` holds the eigenvalues,
    read-only: the populations of a diagonal state, and for a general
    state the ascending ``eigvalsh`` output of its positivity check.
    """

    populations: np.ndarray
    coherences: np.ndarray | None = None
    spectrum: np.ndarray = field(init=False, repr=False)
    _: KW_ONLY
    # ``from_matrix`` hands over the spectrum it has already computed
    _spectrum: InitVar[np.ndarray | None] = None

    def __post_init__(self, _spectrum):
        p = np.asarray(self.populations, dtype=float)
        if p.ndim != 1 or p.size < 2:
            raise ValueError("populations must be a vector of length >= 2")
        if p.min() < NEGATIVE_DUST:
            raise ValueError(
                f"population {p.min():.3e} below the {NEGATIVE_DUST} dust threshold"
            )
        if abs(p.sum() - 1.0) > 1e-9:
            raise ValueError(f"populations sum to {p.sum()!r}, not 1")
        p = np.clip(p, 0.0, None)
        p = p / p.sum()
        p.flags.writeable = False
        object.__setattr__(self, "populations", p)
        object.__setattr__(self, "spectrum", p)
        if self.coherences is not None:
            ch = np.asarray(self.coherences, dtype=complex)
            if ch.shape != (p.size, p.size):
                raise ValueError("coherences must be a square matrix matching populations")
            if np.abs(np.tril(ch)).max() > 0:
                raise ValueError("coherences must be strictly upper-triangular")
            ch = ch.copy()
            ch.flags.writeable = False
            object.__setattr__(self, "coherences", ch)
            spectrum = np.linalg.eigvalsh(self.matrix) if _spectrum is None else _spectrum
            spectrum.flags.writeable = False
            object.__setattr__(self, "spectrum", spectrum)
            if spectrum.min() < -PSD_ATOL:
                raise ValueError(f"state is not positive semidefinite (min eig {spectrum.min():.3e})")

    @classmethod
    def diagonal(cls, populations) -> "BatteryState":
        return cls(np.asarray(populations, dtype=float))

    @classmethod
    def from_matrix(cls, rho: np.ndarray, clip: float = 0.0) -> "BatteryState":
        """Build a state from a density matrix, Hermitian within
        ``HERM_ATOL`` and symmetrized before use, snapping to diagonal form
        when all off-diagonal elements are below ``DIAG_ATOL``.

        ``clip`` > 0 tolerates and removes spectral dust down to -clip
        (integrator output); the cleaned state is renormalized and keeps
        the cleaned eigenvalues as its spectrum. A diagonal input is its
        own spectrum and is cleaned without a diagonalization: by Weyl's
        bound ``eigh`` would move it by at most (N+1) DIAG_ATOL, and its
        result would snap back to diagonal form.
        """
        rho = np.asarray(rho, dtype=complex)
        drift = np.abs(rho - rho.conj().T).max()
        if drift > HERM_ATOL:
            raise ValueError(f"matrix is not Hermitian within {HERM_ATOL} (drift {drift:.3e})")
        rho = 0.5 * (rho + rho.conj().T)
        pops = np.real(np.diag(rho))
        upper = np.triu(rho, k=1)
        diagonal = np.abs(upper).max() <= DIAG_ATOL
        spectrum = None
        if clip > 0.0:
            spectrum, vecs = (pops, None) if diagonal else np.linalg.eigh(rho)
            if spectrum.min() < -clip:
                raise ValueError(
                    f"eigenvalue {spectrum.min():.3e} below the -{clip} clipping threshold"
                )
            spectrum = np.clip(spectrum, 0.0, None)
            spectrum /= spectrum.sum()
            if diagonal:
                return cls(spectrum)
            rho = (vecs * spectrum) @ vecs.conj().T
            pops = np.real(np.diag(rho))
            upper = np.triu(rho, k=1)
            diagonal = np.abs(upper).max() <= DIAG_ATOL
        if diagonal:
            return cls(pops)
        return cls(pops, upper, _spectrum=spectrum)

    @property
    def n_levels(self) -> int:
        return self.populations.size - 1

    @property
    def is_diagonal(self) -> bool:
        return self.coherences is None

    @property
    def matrix(self) -> np.ndarray:
        """Full density matrix, (N+1) x (N+1) complex."""
        rho = np.diag(self.populations).astype(complex)
        if self.coherences is not None:
            rho = rho + self.coherences + self.coherences.conj().T
        return rho


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
    if variance <= 0.0:
        raise ValueError(f"variance must be > 0, got {variance}")
    if not 0.0 <= mean <= n_levels:
        raise ValueError(f"mean {mean} outside the ladder 0..{n_levels}")
    n = np.arange(n_levels + 1)
    # subtract the peak exponent so the largest weight is exactly 1
    expo = -((n - mean) ** 2) / (2.0 * variance)
    p = np.exp(expo - expo.max())
    return BatteryState.diagonal(p / p.sum())

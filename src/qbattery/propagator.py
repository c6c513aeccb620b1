"""Exact joint evolution of battery and charger qubit in the rotating frame.

The exchange coupling conserves the total excitation number, so the
joint propagator splits into 2x2 blocks spanned by |e, n-1> and |g, n>
plus two uncoupled levels, |g, 0> and |e, N>. Each block is
exponentiated in closed form; projecting the qubit afterwards yields
four Kraus operators on the battery, labeled by the prepared state i
and the measured state j of the qubit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .states import BatteryState, SystemParams

ZERO_PROBABILITY_ATOL = 1e-15

KRAUS_KINDS = ("eg", "ge", "gg", "ee")


class ZeroProbabilityError(ValueError):
    """Raised when a measurement outcome has (numerically) zero probability."""


def rabi_frequency(params: SystemParams, n) -> float | np.ndarray:
    """Oscillation rate of the n-excitation block, sqrt(g^2 n + delta^2/4)."""
    return np.sqrt(params.g**2 * np.asarray(n) + params.delta**2 / 4.0)


@functools.lru_cache(maxsize=8)
def _ladder(params: SystemParams, shift: int) -> tuple[np.ndarray, ...]:
    """Read-only constants of blocks n = shift..N+shift that every interval
    shares: O_n, a divisor equal to O_n (1 where O_n = 0), the mask
    O_n == 0, and g^2 n."""
    blocks = np.arange(params.dim) + shift
    omega = rabi_frequency(params, blocks)
    ladder = (omega, np.where(omega > 0.0, omega, 1.0), omega == 0.0, params.g**2 * blocks)
    for array in ladder:
        array.flags.writeable = False
    return ladder


def _rotation(params: SystemParams, tau, shift: int):
    """The ladder of blocks shift..N+shift, ``tau`` reshaped to broadcast
    against it, and sin(O_n tau)/O_n (limit tau as O_n -> 0); a 1-D array
    of T intervals gives shape (T, N+1), built in one buffer."""
    ladder = _ladder(params, shift)
    omega, divisor, zero, _ = ladder
    tau = np.asarray(tau, dtype=float)[..., None]
    s = np.multiply(omega, tau)
    np.sin(s, out=s)
    np.divide(s, divisor, out=s)
    np.copyto(s, tau, where=zero)
    return ladder, tau, s


def _amplitude_vectors(params: SystemParams, tau) -> tuple[np.ndarray, np.ndarray]:
    """Stay and swap amplitudes for every block n = 0..N.

    stay[n] = cos(O_n tau) + i*(delta/2)*sin(O_n tau)/O_n
    swap[n] = -i*exp(-i*delta*tau/2)*g*sqrt(n)*sin(O_n tau)/O_n

    |stay[n]|^2 + |swap[n]|^2 = 1 for every n >= 1 (block unitarity);
    swap[0] = 0 since level 0 has no partner below it. A 1-D array of
    intervals gives shape (T, N+1).
    """
    (omega, *_), tau, s = _rotation(params, tau, 0)
    stay = np.cos(omega * tau) + 0.5j * params.delta * s
    swap = -1j * np.exp(-0.5j * params.delta * tau) * params.g * np.sqrt(np.arange(params.dim)) * s
    return stay, swap


def _map_weights(params: SystemParams, tau, kind: str) -> np.ndarray:
    """|matrix element|^2 of one Kraus operator on each level it writes
    to, in real arithmetic with s_n = sin(O_n tau)/O_n: |swap_n|^2 =
    g^2 n s_n^2 for eg and |swap_{n+1}|^2 for ge, |stay_n|^2 = cos^2(O_n tau)
    + (delta s_n/2)^2 for gg, and |stay_{n+1}|^2 then the uncoupled top
    level's 1 for ee."""
    (omega, _, _, g2n), tau, s = _rotation(params, tau, int(kind in ("ge", "ee")))
    if kind in ("eg", "ge"):
        np.square(s, out=s)
        s *= g2n
        return s
    stay = np.cos(omega * tau) ** 2 + (0.5 * params.delta * s) ** 2
    if kind == "ee":
        stay[..., -1] = 1.0
    return stay


def _diagonal_map(kind: str, weights: np.ndarray, populations: np.ndarray) -> np.ndarray:
    """Unnormalized populations after the map of one Kraus kind: eg moves
    p_{n-1} up to level n, ge moves p_{n+1} down, gg and ee keep levels in
    place, each times the weight of the level it lands on. ``weights``
    may carry an interval axis and may be a read-only cached grid, so the
    result is a fresh array."""
    if kind == "eg":
        populations = np.concatenate([[0.0], populations[:-1]])
    elif kind == "ge":
        populations = np.concatenate([populations[1:], [0.0]])
    return weights * populations


@dataclass(frozen=True)
class BlockCoefficients:
    """Closed-form amplitudes of one conserved-excitation block."""

    n: int
    rabi: float
    stay: complex   # diagonal (no exchange) amplitude, phase convention above
    swap: complex   # off-diagonal (one-quantum exchange) amplitude


def block_coefficients(params: SystemParams, n: int, tau: float) -> BlockCoefficients:
    """Amplitudes of the block coupling |e, n-1> and |g, n>, n >= 1."""
    if n < 1:
        raise ValueError(f"blocks are indexed by n >= 1, got {n}")
    if tau < 0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    # block n is the top block of the ladder truncated at N = n
    stay, swap = _amplitude_vectors(replace(params, n_levels=n), tau)
    return BlockCoefficients(
        n=n, rabi=float(rabi_frequency(params, n)), stay=complex(stay[n]), swap=complex(swap[n])
    )


@dataclass(frozen=True, eq=False)
class KrausSet:
    """The four battery-space Kraus operators <j|U|i> for one interval tau.

    ``eg`` moves population up one level (prepare excited, measure
    ground), ``ge`` moves it down, ``gg`` and ``ee`` are diagonal. For
    each prepared state i, eg/ee and ge/gg resolve the identity.
    """

    eg: np.ndarray
    ge: np.ndarray
    gg: np.ndarray
    ee: np.ndarray
    tau: float

    def operator(self, kind: str) -> np.ndarray:
        if kind not in KRAUS_KINDS:
            raise ValueError(f"kind must be one of {KRAUS_KINDS}, got {kind!r}")
        return getattr(self, kind)


def kraus_set(params: SystemParams, tau: float) -> KrausSet:
    """Build all four Kraus operators on the N+1 battery levels.

    The uncoupled top corner |e, N> evolves only by the detuning phase,
    which fills the [N, N] entry of the ee operator; without it the
    excited-preparation pair would not resolve the identity.
    """
    if tau < 0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    dim = params.dim
    stay, swap = _amplitude_vectors(params, tau)
    phase = np.exp(-0.5j * params.delta * tau)

    eg = np.zeros((dim, dim), dtype=complex)
    eg[np.arange(1, dim), np.arange(dim - 1)] = swap[1:]
    ge = np.zeros((dim, dim), dtype=complex)
    ge[np.arange(dim - 1), np.arange(1, dim)] = swap[1:]
    gg = np.diag(phase * stay)
    ee_diag = np.concatenate([phase * np.conj(stay[1:]), [np.exp(-1j * params.delta * tau)]])
    ee = np.diag(ee_diag)
    return KrausSet(eg=eg, ge=ge, gg=gg, ee=ee, tau=tau)


def apply_map_diagonal(kraus: KrausSet, kind: str, populations: np.ndarray) -> np.ndarray:
    """Unnormalized populations after the map of one Kraus operator."""
    # each row holds at most one entry, the weight of the level it writes to
    return _diagonal_map(kind, (np.abs(kraus.operator(kind)) ** 2).sum(axis=1), populations)


def povm_apply(kind: str, state: BatteryState, kraus: KrausSet) -> tuple[BatteryState, float]:
    """Apply one element of the measurement-induced channel.

    Returns the normalized post-measurement state and the outcome
    probability (the trace of the unnormalized map). Diagonal inputs
    stay diagonal for all four kinds.
    """
    if state.is_diagonal:
        out = apply_map_diagonal(kraus, kind, state.populations)
        prob = float(out.sum())
        if prob < ZERO_PROBABILITY_ATOL:
            raise ZeroProbabilityError(f"outcome {kind!r} has probability {prob:.3e}")
        return BatteryState.diagonal(out / prob), prob
    op = kraus.operator(kind)
    rho = op @ state.matrix @ op.conj().T
    prob = float(np.trace(rho).real)
    if prob < ZERO_PROBABILITY_ATOL:
        raise ZeroProbabilityError(f"outcome {kind!r} has probability {prob:.3e}")
    return BatteryState.from_matrix(rho / prob), prob


def qubit_lowering() -> np.ndarray:
    """|g><e| in the (|g>, |e>) basis."""
    return np.array([[0.0, 1.0], [0.0, 0.0]])


def battery_lowering(dim: int) -> np.ndarray:
    """Ladder operator with <n-1|A|n> = sqrt(n)."""
    a = np.zeros((dim, dim))
    a[np.arange(dim - 1), np.arange(1, dim)] = np.sqrt(np.arange(1, dim))
    return a


def joint_hamiltonian(params: SystemParams) -> np.ndarray:
    """Rotating-frame Hamiltonian on the qubit (x) battery product space.

    H = delta |e><e| + g (sigma_- A^dagger + sigma_+ A), ordering
    |i, n> -> i*(N+1) + n with i = 0 for |g>.
    """
    dim = params.dim
    a = battery_lowering(dim)
    sm = qubit_lowering()
    excited = np.diag([0.0, 1.0])
    h = params.delta * np.kron(excited, np.eye(dim))
    h = h + params.g * (np.kron(sm, a.conj().T) + np.kron(sm.T, a))
    return h.astype(complex)


def joint_unitary(params: SystemParams, tau: float) -> np.ndarray:
    """Exact propagator exp(-i H tau) on the 2(N+1) joint space.

    Assembled from the closed-form Kraus blocks <j|U|i> rather than a
    matrix exponential; |g, 0> is left invariant and |e, N> picks up only
    the detuning phase. Kept as an oracle for the Kraus-contracted rounds.
    """
    ks = kraus_set(params, tau)
    return np.block([[ks.gg, ks.eg], [ks.ge, ks.ee]])

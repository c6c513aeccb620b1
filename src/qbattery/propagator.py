"""Exact joint evolution of battery and charger qubit in the rotating frame.

The exchange coupling conserves the total excitation number, so the
joint propagator splits into 2x2 blocks spanned by |e, n-1> and |g, n>
plus two uncoupled levels, |g, 0> and |e, N>. Each block is
exponentiated in closed form; projecting the qubit afterwards yields
four Kraus operators <j|U|i> on the battery, labeled by the prepared
state i and the measured state j of the qubit. Each is a single band
of the block amplitudes: eg holds swap_n below the diagonal, ge
swap_{n+1} above it, gg and ee the stay amplitudes on it. Production
code reads those bands (``_amplitude_vectors``, ``_map_weights``) and
never builds an (N+1)x(N+1) Kraus matrix; the dense Kraus operators,
the joint Hamiltonian and the joint propagator assembled from the
blocks are oracles in ``qbattery.validate``.
"""

from __future__ import annotations

import functools

import numpy as np

from .states import SystemParams

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

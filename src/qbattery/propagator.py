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
import math

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
    shares: O_n, a divisor equal to O_n (1 where O_n = 0), the indices of
    the blocks with O_n == 0 (usually none), and g^2 n."""
    blocks = np.arange(params.dim) + shift
    omega = rabi_frequency(params, blocks)
    ladder = (omega, np.where(omega > 0.0, omega, 1.0), np.flatnonzero(omega == 0.0), params.g**2 * blocks)
    for array in ladder:
        array.flags.writeable = False
    return ladder


def _check_interval(tau) -> None:
    """Reject a negative or non-finite interval, or an array holding one:
    the maps are even in tau and would answer for |tau| unasked."""
    if isinstance(tau, (int, float)):
        valid = 0.0 <= tau < math.inf
    else:
        tau_array = np.asarray(tau, dtype=float)
        valid = bool(((tau_array >= 0.0) & (tau_array < math.inf)).all())
    if not valid:
        raise ValueError(f"tau must be >= 0 and finite, got {tau}")


def _rotation(ladder: tuple, tau) -> tuple[np.ndarray, np.ndarray]:
    """``tau`` reshaped to broadcast against ``ladder``, and sin(O_n tau)/O_n
    on it (limit tau as O_n -> 0); a 1-D array of T intervals gives shape
    (T, N+1), built in one buffer."""
    omega, divisor, zero, _ = ladder
    tau = np.asarray(tau, dtype=float)[..., None]
    s = np.multiply(omega, tau)
    np.sin(s, out=s)
    np.divide(s, divisor, out=s)
    if zero.size:
        s[..., zero] = tau
    return tau, s


def _amplitude_vectors(params: SystemParams, tau) -> tuple[np.ndarray, np.ndarray]:
    """Stay and swap amplitudes for every block n = 0..N.

    stay[n] = cos(O_n tau) + i*(delta/2)*sin(O_n tau)/O_n
    swap[n] = -i*exp(-i*delta*tau/2)*g*sqrt(n)*sin(O_n tau)/O_n

    |stay[n]|^2 + |swap[n]|^2 = 1 for every n >= 1 (block unitarity);
    swap[0] = 0 since level 0 has no partner below it. A 1-D array of
    intervals gives shape (T, N+1).
    """
    _check_interval(tau)
    ladder = _ladder(params, 0)
    tau, s = _rotation(ladder, tau)
    stay = np.cos(ladder[0] * tau) + 0.5j * params.delta * s
    swap = -1j * np.exp(-0.5j * params.delta * tau) * params.g * np.sqrt(np.arange(params.dim)) * s
    return stay, swap


def _map_weights(params: SystemParams, tau, kind: str) -> np.ndarray:
    """|matrix element|^2 of one Kraus operator on each level it writes
    to; a 1-D array of intervals gives shape (T, N+1)."""
    _check_interval(tau)
    return _ladder_weights(params, _kind_ladder(params, kind), tau, kind)


def _kind_ladder(params: SystemParams, kind: str) -> tuple[np.ndarray, ...]:
    """The ``_ladder`` whose blocks hold the levels ``kind`` writes to:
    ge and ee read block n+1 for level n."""
    return _ladder(params, int(kind in ("ge", "ee")))


def _ladder_weights(params: SystemParams, ladder: tuple, tau, kind: str) -> np.ndarray:
    """``_map_weights`` on its ``_kind_ladder``, for an interval the caller
    has checked, in real arithmetic with s_n = sin(O_n tau)/O_n: |swap_n|^2
    = g^2 n s_n^2 for eg and |swap_{n+1}|^2 for ge, |stay_n|^2 =
    cos^2(O_n tau) + (delta s_n/2)^2 for gg, and |stay_{n+1}|^2 then the
    uncoupled top level's 1 for ee. A caller scoring many intervals of one
    ladder looks it up once and passes it here."""
    tau, s = _rotation(ladder, tau)
    if kind in ("eg", "ge"):
        np.square(s, out=s)
        s *= ladder[3]
        return s
    stay = np.cos(ladder[0] * tau) ** 2 + (0.5 * params.delta * s) ** 2
    if kind == "ee":
        stay[..., -1] = 1.0
    return stay


def _shifted(kind: str, populations: np.ndarray) -> np.ndarray:
    """The populations each level of ``kind``'s map draws from: eg moves
    p_{n-1} up to level n, ge moves p_{n+1} down, gg and ee keep levels
    in place."""
    if kind == "eg":
        return np.concatenate([[0.0], populations[:-1]])
    if kind == "ge":
        return np.concatenate([populations[1:], [0.0]])
    return populations


def _diagonal_map(kind: str, weights: np.ndarray, populations: np.ndarray) -> np.ndarray:
    """Unnormalized populations after the map of one Kraus kind: the
    ``_shifted`` populations times the weight of the level each lands on.
    ``weights`` may carry an interval axis; the result is a fresh array."""
    return weights * _shifted(kind, populations)

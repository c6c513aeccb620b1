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
evolves only the elements whose gap k_row - k_col, or its negative,
occurs among the nonzero elements of the initial state, under a sparse
superoperator that ``_restricted`` assembles on just those elements
from the Kronecker factors of ``_liouvillian``: 4(N+1) - 2 elements for
a diagonal charger on a diagonal battery, about three times that for a
coherent charger on a diagonal battery, nearly all of them for a battery
with coherences. The factors depend only on (params, diss) and the
restricted generator only on (params, diss, occupied gaps), so each is
built once and cached read-only (``_liouvillian``, ``_band``); so are
the support's index maps, which let the Hermiticity and trace checks
and the symmetrization run on the solved vector. The elements left out
stay exactly zero, as they do in a dense solve, and so through each
measurement: ``from_matrix`` leaves every zero element of the projected
battery state zero.

The band is propagated by the action of the exponential, exp(tau G) y,
as Al-Mohy & Higham's truncated Taylor series (SIAM J. Sci. Comput. 33,
488 (2011), Algorithm 3.2): shifted by mu = tr(G)/n, in s steps of a
degree-m polynomial, with (m, s) chosen from ||G - mu I||_1 tau and the
published theta_m table so that each step meets the unit roundoff in
backward error, and each step's series cut once two terms in a row fall
below the unit roundoff of the sum. Each band caches mu and the norm, so
a round computes no norm; it costs only sparse products with the band
generator and elementwise sums, so its bytes do not depend on the BLAS
thread count. The dense right-hand side, the dense qubit projection and
the exact exponential of the whole generator are oracles in
``qbattery.validate``.

The joint state is held to the tolerances of a ``BatteryState``:
``states.HERM_ATOL`` for Hermiticity, ``INPUT_SUM_ATOL`` for the trace
and ``PSD_ATOL`` for positivity. The same symmetry makes the positivity
check cheap where it matters. A state whose only occupied gap is 0
(every power-on and power-off round) is block-diagonal in the excitation
number: |g, 0> and |e, N> stand alone and each |g, k> pairs with
|e, k-1>, so its lowest eigenvalue is the smallest of N+2 closed forms,
O(N). Wider supports (a coherent charger, a battery with coherences)
keep the Cholesky factor of the whole joint state that
``states._psd_violation`` also runs for every general ``BatteryState``;
a NaN fails both routes. Both report a violation the same way, and only
a violation is diagonalized (``eigvalsh``, to word the warning).
"""

from __future__ import annotations

import cmath
import functools
import gc
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.integrate import OdeSolver, solve_ivp

from .propagator import ZERO_PROBABILITY_ATOL, ZeroProbabilityError, _check_interval
from .rounds import RoundRecord, _scheme_charger
from .scheduler import DAMPED_POLICIES, Trajectory, _drive, _interval_chooser
from .states import (
    HERM_ATOL, INPUT_SUM_ATOL, PSD_ATOL, BatteryState, ChargerSpec, SettingError, SystemParams, _psd_violation,
    mean_occupation, thermal_state,
)

# theta_m of Al-Mohy & Higham (2011), Table 3.1, for the unit roundoff
# 2^-53: a Taylor step of degree m and length h meets it in backward
# error while ||h (G - mu I)||_1 <= theta_m
_TAYLOR_DEGREES = np.array([*range(1, 31), 35, 40, 45, 50, 55])
_TAYLOR_THETAS = np.array([
    2.29e-16, 2.58e-08, 1.39e-05, 3.4e-04, 2.4e-03, 9.07e-03, 2.38e-02, 5.0e-02, 8.96e-02, 0.144,
    0.214, 0.3, 0.4, 0.514, 0.641, 0.781, 0.931, 1.09, 1.26, 1.44,
    1.62, 1.82, 2.01, 2.22, 2.43, 2.64, 2.86, 3.08, 3.31, 3.54,
    4.7, 6.0, 7.2, 8.5, 9.9,
])
_UNIT_ROUNDOFF = 2.0**-53


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
            raise SettingError(f"damping rates and bath occupations must be finite, got {values}")
        if self.gamma_b < 0 or self.gamma_c < 0:
            raise SettingError("damping rates must be >= 0")
        if self.nbar_th < 0 or self.nbar_th_c < 0:
            raise SettingError("bath occupations must be >= 0")

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
        try:
            nbar_c = 1.0 / (math.exp(params.beta * params.omega_b) + 1.0)  # 0.0 at beta = inf
        except OverflowError:  # beta * omega_b past about 709.8, where the occupation is 0.0 in floats
            nbar_c = 0.0
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


class _Band(NamedTuple):
    """A support of whole excitation-gap bands, closed under transposition,
    with the generator restricted to it."""

    index: np.ndarray  # sorted raveled joint indices of the elements
    partner: np.ndarray  # position in ``index`` of each element's transpose
    diag: np.ndarray  # positions in ``index`` of the diagonal elements
    generator: sparse.csr_matrix
    shift: complex  # mu = tr(generator) / n
    norm: float  # ||generator - mu I||_1


@functools.lru_cache(maxsize=4)
def _band(params: SystemParams, diss: DissipationParams, gaps: tuple[int, ...]) -> _Band:
    """The support of the excitation gaps ``gaps`` (a sorted tuple closed
    under negation), its index maps, ``_restricted`` on it and the shift
    and norm that ``_TaylorAction`` steps by, built once per (params,
    diss, gaps); every array is read-only because every round on the
    same support shares them."""
    n = 2 * params.dim
    k = np.add.outer(np.arange(2), np.arange(params.dim)).ravel()  # |i, n> carries k = i + n
    index = np.flatnonzero(np.isin(np.subtract.outer(k, k), gaps))
    row, col = np.divmod(index, n)
    partner = np.searchsorted(index, col * n + row)
    generator = _restricted(_liouvillian(params, diss), index)
    shift = complex(generator.diagonal().sum()) / index.size
    norm = float(abs(generator - shift * sparse.identity(index.size, format="csr")).sum(axis=0).max())
    band = _Band(index, partner, np.flatnonzero(row == col), generator, shift, norm)
    for array in band[:3] + (generator.data, generator.indices, generator.indptr):
        array.flags.writeable = False
    return band


def _sector_lowest_eigenvalue(rho: np.ndarray, dim: int) -> float:
    """Lowest eigenvalue of a joint state whose elements all have gap 0.

    The blocks are |g, 0>, |e, N> and the pairs {|g, k>, |e, k-1>} for
    k = 1..N; a pair [[a, b], [b*, d]] has lowest eigenvalue
    (a + d)/2 - sqrt(((a - d)/2)^2 + |b|^2).
    """
    diag = rho.diagonal().real
    a, d = diag[1:dim], diag[dim:-1]
    b = rho.diagonal(dim - 1)[1:dim]  # <g, k| rho |e, k-1>
    pairs = 0.5 * (a + d) - np.hypot(0.5 * (a - d), np.abs(b))
    return float(np.min((diag[0], diag[-1], pairs.min())))  # NaN-propagating, unlike min()


def _taylor_steps(norm: float) -> tuple[int, int]:
    """The degree m and step count s of a Taylor action over an interval
    h with ||h (G - mu I)||_1 = ``norm``: the pair of least cost m s with
    norm / s <= theta_m (Al-Mohy & Higham's code fragment 3.1, from the
    1-norm alone), and (0, 1) for a zero norm."""
    if norm == 0.0:
        return 0, 1
    steps = np.ceil(norm / _TAYLOR_THETAS)
    best = int(np.argmin(_TAYLOR_DEGREES * steps))
    return int(_TAYLOR_DEGREES[best]), int(steps[best])


class _TaylorAction(OdeSolver):
    """The solution exp(h G) y0 of a linear, autonomous right-hand side
    fun(t, y) = G y, in one solver step over the whole interval h, by
    Al-Mohy & Higham's truncated Taylor series (Algorithm 3.2 of SIAM
    J. Sci. Comput. 33, 488 (2011)) of the shifted generator G - mu I,
    whose ``shift`` mu and 1-norm ``norm`` are given. ``nfev`` counts the
    products with G; ``solve_ivp(..., method=_TaylorAction, shift=...,
    norm=...)`` runs it."""

    def __init__(self, fun, t0, y0, t_bound, vectorized, shift: complex, norm: float):
        super().__init__(fun, t0, y0, t_bound, vectorized, support_complex=True)
        self.shift, self.norm = shift, norm

    def _step_impl(self):
        h = self.t_bound - self.t
        degree, steps = _taylor_steps(self.norm * abs(h))
        h /= steps
        growth = cmath.exp(self.shift * h)
        y = self.y
        for _ in range(steps):
            total, term = y.copy(), y
            before = np.abs(term).max()
            for j in range(1, degree + 1):
                product = self.fun(self.t, term)
                product -= self.shift * term
                product *= h / j
                term = product
                total += term
                after = np.abs(term).max()
                if before + after <= _UNIT_ROUNDOFF * np.abs(total).max():
                    break
                before = after
            total *= growth
            y = total
        self.t, self.y = self.t_bound, y
        return True, None


def integrate(
    rho0: np.ndarray,
    tau: float,
    params: SystemParams,
    diss: DissipationParams,
) -> np.ndarray:
    """Propagate the joint state over one interval by the action of the
    exponential of the generator (``_TaylorAction``).

    Takes and returns a dense joint matrix, but gathers from it only
    the excitation-gap bands that it occupies (with their transposes)
    and propagates those.

    Every call measures the Hermiticity and trace drifts on the solved
    vector, which is then re-symmetrized and scattered once into the
    result. Drifts beyond a ``BatteryState``'s tolerances (``HERM_ATOL``,
    ``INPUT_SUM_ATOL`` for the trace, an eigenvalue below -``PSD_ATOL``)
    raise a warning rather than an error, since they signal an
    unphysical input, not a wrong model. Positivity is checked per
    excitation block when gap 0 is the only occupied gap, else by a
    Cholesky factor. ``tau`` must be finite and >= 0.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    expected = 2 * params.dim
    if rho0.shape != (expected, expected):
        raise ValueError(f"expected a {expected}x{expected} matrix, got {rho0.shape}")
    _check_interval(tau)
    if tau == 0.0:
        return rho0.copy()
    flat0 = rho0.ravel()
    # an element is occupied when either of its float halves is nonzero,
    # so when its two bools, read as one uint16, are
    nonzero = (flat0.view(float) != 0).view(np.uint16) != 0
    if not nonzero.any():
        raise ValueError("the joint state has no occupied element")
    # |i, n> carries k = i + n, so the gaps k_row - k_col run from -dim to dim
    k = np.add.outer(np.arange(2), np.arange(params.dim)).ravel()
    row, col = np.divmod(np.flatnonzero(nonzero), expected)
    occupied = np.flatnonzero(np.bincount(k[row] - k[col] + params.dim)) - params.dim
    band = _band(params, diss, tuple(np.union1d(occupied, -occupied).tolist()))
    sol = solve_ivp(lambda t, y: band.generator @ y, (0.0, tau), flat0[band.index],
                    method=_TaylorAction, shift=band.shift, norm=band.norm)
    # scipy's solver holds a reference cycle (its counting wrapper of the
    # right-hand side closes over it), so its arrays would outlive the
    # call until some later collection; it is still young here, and
    # collecting the young generations frees it
    gc.collect(1)
    y = sol.y[:, -1]
    transposed = y[band.partner].conj()
    herm = np.abs(y - transposed).max()
    if not herm <= HERM_ATOL:
        warnings.warn(f"Hermiticity drift {herm:.2e} exceeds {HERM_ATOL}")
    tr = abs(y[band.diag].real.sum() - 1.0)
    if not tr <= INPUT_SUM_ATOL:
        warnings.warn(f"trace drift {tr:.2e} exceeds {INPUT_SUM_ATOL}")
    rho = np.zeros(flat0.size, dtype=complex)
    rho[band.index] = 0.5 * (y + transposed)
    rho = rho.reshape(expected, expected)
    if np.array_equal(occupied, [0]):
        lo = _sector_lowest_eigenvalue(rho, params.dim)
        lo = None if lo >= -PSD_ATOL else lo  # NaN stays a violation
    else:
        lo = _psd_violation(rho, PSD_ATOL)
    if lo is not None:
        warnings.warn(f"positivity violation {lo:.2e} beyond {PSD_ATOL}")
    return rho


def _project_qubit(rho: np.ndarray, phi: np.ndarray, dim: int) -> tuple[np.ndarray, float]:
    """The battery state left by projecting the qubit of ``rho`` on
    ``phi``, unnormalized, and its trace, the outcome probability: the sum
    of the four (N+1)x(N+1) blocks <i|rho|j> weighted by conj(phi_i) phi_j,
    skipping a zero weight. Each block is scaled factor by factor, in the
    order of the dense contraction, so that the two agree bit for bit
    when phi is real, as every measured state is."""
    blocks = rho.reshape(2, dim, 2, dim)
    bra = phi.conj()
    battery = np.zeros((dim, dim), dtype=complex)
    for i, j in np.ndindex(2, 2):
        if bra[i] * phi[j] != 0:
            battery += bra[i] * blocks[i, :, j, :] * phi[j]
    return battery, float(np.trace(battery).real)


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
) -> Trajectory:
    """Multi-round charging with open-system evolution between measurements.

    Each round tensors a fresh qubit onto the battery, integrates the
    damped joint dynamics for the chosen interval, projects the qubit,
    traces it out, and renormalizes. Interval policies
    (``DAMPED_POLICIES``): ``analytic`` (power-on only), ``fixed``, or
    ``schedule`` with one interval per round (e.g. mirrored from a
    closed-system run so the two are directly comparable). An unknown
    scheme or policy, or a missing input, raises SettingError before any
    round runs.
    """
    qubit_spec = _scheme_charger(scheme, charger)
    choose_tau = _interval_chooser(
        interval_policy, scheme, params, n_rounds, DAMPED_POLICIES,
        fixed_tau=fixed_tau, tau_schedule=tau_schedule,
    )
    phi = qubit_spec.measured_state().astype(complex)
    rho_c = qubit_spec.density_matrix()

    # every round writes its product state into this one buffer, which
    # ``integrate`` only reads: glibc hands a freed 2(N+1) x 2(N+1) array
    # (650 KB at N=100) back to the kernel, so a fresh one per round is
    # faulted in page by page every round
    joint = np.empty((2, params.dim, 2, params.dim), dtype=complex)

    def take_round(state, tau):
        np.multiply(rho_c[:, None, :, None], state.matrix[:, None, :], out=joint)
        evolved = integrate(joint.reshape(2 * params.dim, -1), tau, params, diss)
        battery, prob = _project_qubit(evolved, phi, params.dim)
        if prob < ZERO_PROBABILITY_ATOL:
            raise ZeroProbabilityError(f"outcome probability {prob:.3e}")
        post = BatteryState.from_matrix(battery / prob)
        return RoundRecord(post, prob, tau, scheme)

    return _drive(initial, params, scheme, n_rounds, choose_tau, take_round, ZeroProbabilityError)

"""Internal consistency checks pitting closed forms against brute force.

Every check returns the worst deviation it saw so the caller (tests or
the command-line ``validate`` report) can compare against the published
tolerance instead of a bare boolean.

The dense constructions live here and only here, as oracles for the
banded and sparse production paths: the four (N+1)x(N+1) Kraus
operators and their channel, the joint Hamiltonian, the joint
propagator assembled from the Kraus blocks, the dense Lindblad
right-hand side, and the same generator as one sparse superoperator,
whose exact exponential is the reference for every damped path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

from .lindblad import DissipationParams, _jump_operators, dissipative_protocol, integrate
from .propagator import KRAUS_KINDS, ZERO_PROBABILITY_ATOL, ZeroProbabilityError, _amplitude_vectors
from .rounds import general_round
from .states import POWER_OFF, POWER_ON, BatteryState, ChargerSpec, SystemParams, thermal_state

BLOCK_UNITARITY_ATOL = 1e-12
COMPLETENESS_ATOL = 1e-12
ORACLE_ATOL = 1e-10
# the damped checks compare the propagator, which meets the unit roundoff
# in backward error, with an exact reference: a few hundred roundoffs
DAMPED_ORACLE_ATOL = 1e-13
GAMMA_ZERO_ATOL = 1e-13

# (g, delta, tau, N) combinations exercised by default
DEFAULT_PARAMETER_SETS = (
    (0.04, 0.02, 8.0, 100),
    (0.04, 0.0, 8.0, 100),
    (0.04, 0.02, 39.27, 100),
    (0.1, -0.05, 3.0, 40),
    (0.01, 0.02, 120.0, 60),
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tolerance

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: max deviation {self.max_deviation:.3e} (tol {self.tolerance:.0e})"


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


def povm_apply(kind: str, state: BatteryState, kraus: KrausSet) -> tuple[BatteryState, float]:
    """Apply one element of the measurement-induced channel as R rho R^+.

    Returns the normalized post-measurement state and the outcome
    probability (the trace of the unnormalized map). Diagonal inputs
    stay diagonal for all four kinds.
    """
    op = kraus.operator(kind)
    rho = op @ state.matrix @ op.conj().T
    prob = float(np.trace(rho).real)
    if prob < ZERO_PROBABILITY_ATOL:
        raise ZeroProbabilityError(f"outcome {kind!r} has probability {prob:.3e}")
    return BatteryState.from_matrix(rho / prob), prob


def joint_hamiltonian(params: SystemParams) -> np.ndarray:
    """Rotating-frame Hamiltonian on the qubit (x) battery product space.

    H = delta |e><e| + g (sigma_- A^dagger + sigma_+ A), ordering
    |i, n> -> i*(N+1) + n with i = 0 for |g>.
    """
    dim = params.dim
    a = np.diag(np.sqrt(np.arange(1, dim)), 1)
    sm = np.array([[0.0, 1.0], [0.0, 0.0]])
    excited = np.diag([0.0, 1.0])
    h = params.delta * np.kron(excited, np.eye(dim))
    h = h + params.g * (np.kron(sm, a.conj().T) + np.kron(sm.T, a))
    return h.astype(complex)


def joint_unitary(params: SystemParams, tau: float) -> np.ndarray:
    """Exact propagator exp(-i H tau) on the 2(N+1) joint space.

    Assembled from the closed-form Kraus blocks <j|U|i> rather than a
    matrix exponential; |g, 0> is left invariant and |e, N> picks up only
    the detuning phase.
    """
    ks = kraus_set(params, tau)
    return np.block([[ks.gg, ks.eg], [ks.ge, ks.ee]])


def project_qubit(rho: np.ndarray, phi: np.ndarray, dim: int) -> tuple[np.ndarray, float]:
    """Project the qubit of a joint state on ``phi`` and trace it out by
    one dense contraction; returns the unnormalized battery state and the
    outcome probability."""
    battery = np.einsum("i,injm,j->nm", phi.conj(), rho.reshape(2, dim, 2, dim), phi)
    return battery, float(np.trace(battery).real)


def _rhs_factory(params: SystemParams, diss: DissipationParams):
    h = joint_hamiltonian(params)
    jumps = [(rate, op.toarray(), opop.toarray())
             for rate, op, opop in _jump_operators(params, diss)]

    def rhs(rho: np.ndarray) -> np.ndarray:
        out = -1j * (h @ rho - rho @ h)
        for rate, op, opop in jumps:
            out += rate * (op @ rho @ op.conj().T - 0.5 * (opop @ rho + rho @ opop))
        return out

    return rhs


def lindblad_rhs(
    rho: np.ndarray, params: SystemParams, diss: DissipationParams
) -> np.ndarray:
    """Dense Lindblad generator applied to one joint density matrix.

    Hermiticity-preserving and traceless by construction; the input must
    be 2(N+1) x 2(N+1).
    """
    rho = np.asarray(rho, dtype=complex)
    expected = 2 * params.dim
    if rho.shape != (expected, expected):
        raise ValueError(f"expected a {expected}x{expected} matrix, got {rho.shape}")
    return _rhs_factory(params, diss)(rho)


def check_block_unitarity(n_samples: int = 10_000, seed: int = 0) -> CheckResult:
    """|stay|^2 + |swap|^2 = 1 over random couplings, detunings, blocks, intervals."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_samples):
        params = SystemParams(
            n_levels=int(rng.integers(1, 101)),
            g=float(rng.uniform(1e-3, 0.2)),
            delta=float(rng.uniform(-0.1, 0.1)),
        )
        n = int(rng.integers(1, params.n_levels + 1))
        tau = float(rng.uniform(0.0, 60.0))
        stay, swap = _amplitude_vectors(params, tau)
        worst = max(worst, abs(abs(stay[n]) ** 2 + abs(swap[n]) ** 2 - 1.0))
    return CheckResult("block unitarity", worst, BLOCK_UNITARITY_ATOL)


def completeness_deviation(kraus: KrausSet) -> float:
    """Worst deviation of sum_j R_ij^+ R_ij from the identity over both i."""
    dim = kraus.gg.shape[0]
    eye = np.eye(dim)
    ground = kraus.gg.conj().T @ kraus.gg + kraus.ge.conj().T @ kraus.ge
    excited = kraus.eg.conj().T @ kraus.eg + kraus.ee.conj().T @ kraus.ee
    return max(np.abs(ground - eye).max(), np.abs(excited - eye).max())


def check_kraus_completeness(parameter_sets=DEFAULT_PARAMETER_SETS) -> CheckResult:
    worst = 0.0
    for g, delta, tau, n_levels in parameter_sets:
        params = SystemParams(n_levels=n_levels, g=g, delta=delta)
        worst = max(worst, completeness_deviation(kraus_set(params, tau)))
    return CheckResult("Kraus completeness", worst, COMPLETENESS_ATOL)


def block_oracle_deviation(params: SystemParams, n: int, tau: float) -> float:
    """Element-wise gap between closed-form block amplitudes and the
    matrix exponential of the corresponding 2x2 Hamiltonian block,
    1 <= n <= N; block n's amplitudes do not depend on N."""
    if not 1 <= n <= params.n_levels:
        raise ValueError(f"blocks are indexed by 1 <= n <= {params.n_levels}, got {n}")
    stay, swap = (v[n] for v in _amplitude_vectors(params, tau))
    h = np.array(
        [[params.delta, params.g * np.sqrt(n)], [params.g * np.sqrt(n), 0.0]],
        dtype=complex,
    )
    u = expm(-1j * h * tau)
    phase = np.exp(-0.5j * params.delta * tau)
    analytic = np.array(
        [
            [phase * np.conj(stay), swap],
            [swap, phase * stay],
        ]
    )
    return float(np.abs(u - analytic).max())


def check_block_oracle(n_samples: int = 1000, seed: int = 1) -> CheckResult:
    """Closed-form amplitudes vs scipy's matrix exponential on random blocks."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_samples):
        params = SystemParams(
            n_levels=100,
            g=float(rng.uniform(1e-3, 0.2)),
            delta=float(rng.uniform(-0.1, 0.1)),
        )
        n = int(rng.integers(1, 101))
        tau = float(rng.uniform(0.0, 60.0))
        worst = max(worst, block_oracle_deviation(params, n, tau))
    return CheckResult("block amplitudes vs matrix exponential", worst, ORACLE_ATOL)


def check_dense_oracle(
    n_levels: int = 20, cases=((0.04, 0.02, 8.0), (0.07, -0.03, 15.0), (0.04, 0.0, 39.27))
) -> CheckResult:
    """Block-assembled joint propagator vs dense scaling-and-squaring
    exponential of the full rotating-frame Hamiltonian."""
    worst = 0.0
    for g, delta, tau in cases:
        params = SystemParams(n_levels=n_levels, g=g, delta=delta)
        dense = expm(-1j * joint_hamiltonian(params) * tau)
        worst = max(worst, float(np.abs(dense - joint_unitary(params, tau)).max()))
    return CheckResult("joint propagator vs dense exponential", worst, ORACLE_ATOL)


def _thermal_and_random_states(params: SystemParams, rng) -> tuple[BatteryState, BatteryState]:
    """The thermal state and a random full-rank state with coherences."""
    a = rng.normal(size=(params.dim, params.dim)) + 1j * rng.normal(size=(params.dim, params.dim))
    rho = a @ a.conj().T
    return thermal_state(params), BatteryState.from_matrix(rho / np.trace(rho).real)


def general_round_oracle_deviation(
    state: BatteryState, charger: ChargerSpec, params: SystemParams, tau: float
) -> float:
    """Gap between the banded ``general_round`` and the dense
    round: embed with the charger, evolve with the joint propagator,
    project the qubit, trace it out. Compares unnormalized battery states."""
    u = joint_unitary(params, tau)
    evolved = u @ np.kron(charger.density_matrix(), state.matrix) @ u.conj().T
    dense, prob = project_qubit(evolved, charger.measured_state().astype(complex), params.dim)
    rec = general_round(state, charger, params, tau)
    return float(np.abs(rec.post_state.matrix * rec.probability - dense).max())


def check_general_round_oracle(
    n_levels: int = 20,
    cases=(
        (0.04, 0.02, 8.0, 0.3, 1.2, 1.0),
        (0.07, -0.03, 15.0, 0.8, 2.5, 0.5),
        (0.04, 0.0, 39.27, 0.5, 0.7, 0.0),
        (0.1, 0.05, 3.0, 0.0, 0.0, 0.0),
        (0.1, 0.05, 3.0, 1.0, np.pi, 0.0),
    ),
    seed: int = 2,
) -> CheckResult:
    """Banded general round vs the dense joint-propagator round,
    on a thermal (diagonal) state and a random state with coherences."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for g, delta, tau, q, theta, c in cases:
        params = SystemParams(n_levels=n_levels, g=g, delta=delta, beta=0.1)
        charger = ChargerSpec(q=q, theta=theta, c=c)
        for state in _thermal_and_random_states(params, rng):
            worst = max(worst, general_round_oracle_deviation(state, charger, params, tau))
    return CheckResult("general round vs dense joint propagator", worst, ORACLE_ATOL)


def damped_superoperator(params: SystemParams, diss: DissipationParams) -> sparse.csr_matrix:
    """The terms of ``lindblad_rhs`` as one sparse matrix on the row-major
    vectorized joint state, vec(A rho B) = kron(A, B^T) vec(rho); built on
    every call, with no cache shared with the production generator."""
    h = sparse.csr_matrix(joint_hamiltonian(params))
    eye = sparse.identity(h.shape[0], dtype=complex, format="csr")
    out = -1j * (sparse.kron(h, eye) - sparse.kron(eye, h.T))
    for rate, op, opop in _jump_operators(params, diss):
        out += rate * (sparse.kron(op, op.conj()) - 0.5 * (sparse.kron(opop, eye) + sparse.kron(eye, opop.T)))
    return out.tocsr()


def exact_damped_evolution(rho0: np.ndarray, params: SystemParams, diss: DissipationParams,
                           tau: float) -> np.ndarray:
    """The joint state exp(L tau) rho0 for the superoperator L of
    ``damped_superoperator``, by the truncated-Taylor action of the
    exponential (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011)),
    symmetrized like ``integrate``'s result."""
    dim = rho0.shape[0]
    rho = expm_multiply(damped_superoperator(params, diss) * tau, rho0.ravel()).reshape(dim, dim)
    return 0.5 * (rho + rho.conj().T)


def damped_oracle_deviation(state: BatteryState, scheme: str, charger: ChargerSpec, params: SystemParams,
                            diss: DissipationParams, tau: float) -> float:
    """Worst gap to ``exact_damped_evolution`` of the charger (x) battery
    product state: of ``integrate`` on every joint element, and of one
    ``dissipative_protocol`` round in its unnormalized post state and its
    outcome probability after the dense projection of the qubit on
    ``charger``'s measured state (``charger`` must be the spec that
    ``scheme`` names)."""
    rho0 = np.kron(charger.density_matrix(), state.matrix)
    exact = exact_damped_evolution(rho0, params, diss, tau)
    evolved = integrate(rho0, tau, params, diss)
    rec = dissipative_protocol(
        state, params, diss, scheme, 1, "fixed", charger=charger, fixed_tau=tau,
    ).rounds[0]
    dense, prob = project_qubit(exact, charger.measured_state().astype(complex), params.dim)
    return max(float(np.abs(evolved - exact).max()),
               float(np.abs(rec.post_state.matrix * rec.probability - dense).max()),
               abs(rec.probability - prob))


DAMPED_ORACLE_CASES = (
    ("power_on", POWER_ON, 15.0),
    ("power_off", POWER_OFF, 8.0),
    ("general", ChargerSpec(q=0.3, theta=1.2, c=1.0), 8.0),
)


def check_damped_oracle(n_levels: int = 20, cases=DAMPED_ORACLE_CASES, seed: int = 3) -> CheckResult:
    """Damped integration and one damped round of each scheme vs the exact
    exponential of the dense generator, on a thermal (diagonal) state and
    a random state with coherences."""
    params = SystemParams(n_levels=n_levels, g=0.04, delta=0.02, beta=0.1)
    diss = DissipationParams(gamma_b=1e-3, gamma_c=2e-3, nbar_th=0.4, nbar_th_c=0.3)
    states = _thermal_and_random_states(params, np.random.default_rng(seed))
    worst = 0.0
    for scheme, charger, tau in cases:
        for state in states:
            worst = max(worst, damped_oracle_deviation(state, scheme, charger, params, diss, tau))
    return CheckResult("damped integration and round vs exact exponential", worst, DAMPED_ORACLE_ATOL)


def check_gamma_zero_reduction(
    n_levels: int = 10, beta: float = 0.1, tau: float = 8.0
) -> CheckResult:
    """Damping-free integration must reproduce the exact propagator."""
    params = SystemParams(n_levels=n_levels, g=0.04, delta=0.02, beta=beta)
    diss = DissipationParams(0.0, 0.0, 0.0, 0.0)
    rho_c = np.zeros((2, 2), dtype=complex)
    rho_c[1, 1] = 1.0  # excited qubit
    rho0 = np.kron(rho_c, thermal_state(params).matrix)
    evolved = integrate(rho0, tau, params, diss)
    u = joint_unitary(params, tau)
    exact = u @ rho0 @ u.conj().T
    return CheckResult(
        "gamma=0 reduction to unitary evolution",
        float(np.abs(evolved - exact).max()),
        GAMMA_ZERO_ATOL,
    )


def run_all_checks(fast: bool = False) -> list[CheckResult]:
    """The standard battery of consistency checks, worst deviations included."""
    unitarity_samples = 2000 if fast else 10_000
    oracle_samples = 300 if fast else 1000
    return [
        check_block_unitarity(n_samples=unitarity_samples),
        check_kraus_completeness(),
        check_block_oracle(n_samples=oracle_samples),
        check_dense_oracle(),
        check_general_round_oracle(),
        check_damped_oracle(),
        check_gamma_zero_reduction(),
    ]

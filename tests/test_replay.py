"""Replay of the damped golden runs in 40-digit arithmetic.

The goldens in ``tests/golden/`` were written by the code itself, so the
golden test catches change but not error. This test recomputes the
three ``lindblad_*`` cases (N=8, 3 rounds) independently of
``qbattery.lindblad``: each round evolves the product of the charger and
the battery state by the Taylor series of exp(tau L), with L the sparse
superoperator of ``validate.damped_superoperator`` and tau read from the
CSV's own tau column, in mpmath at 40 digits; projects the qubit on the
measured state; and renormalizes the battery. The model's inputs (the
floats of the parameters, the generator entries and the bath occupations)
are taken as exact. Every printed prob, cumulative_prob, energy,
ergotropy, mean and variance must lie within REPLAY_RTOL of the replay.
"""

import csv
import json
from pathlib import Path

import pytest

from qbattery import POWER_OFF, POWER_ON, ChargerSpec, DissipationParams, SystemParams
from qbattery.validate import damped_superoperator

mpmath = pytest.importorskip("mpmath")

GOLDEN = Path(__file__).parent / "golden"
DIGITS = 40
# a few hundred unit roundoffs: the cells read at most 1.4e-15 from the
# replay, and an adaptive solve at rtol 1e-9 misses it by 1.7e-11 to 2.0e-10
REPLAY_RTOL = 1e-13
COLUMNS = ("prob", "cumulative_prob", "energy", "ergotropy", "mean", "variance")


def _read_case(case: str):
    """The golden CSV's rows as dicts of floats (None for an empty cell),
    and its sidecar's config and scheme."""
    with open(GOLDEN / case / "out.csv") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    rows = [{key: float(cell) if cell else None for key, cell in row.items()} for row in csv.DictReader(lines)]
    meta = json.loads((GOLDEN / case / "out.json").read_text())
    return rows, meta["config"], meta["scheme"]


def _model(config: dict, scheme: str):
    """SystemParams, DissipationParams and charger of the run, from the
    sidecar's config as ``qbattery lindblad`` builds them."""
    p, d = config["params"], config["dissipation"]
    params = SystemParams(n_levels=p["n_levels"], g=p["g"], delta=p["delta"], omega_c=p["omega_c"], beta=p["beta"])
    assert d["nbar_th"] is None and d["nbar_th_c"] is None
    diss = DissipationParams.thermal(params, d["gamma_b"], d["gamma_c"])
    charger = {"power_on": POWER_ON, "power_off": POWER_OFF}.get(scheme)
    return params, diss, charger or ChargerSpec(**config["charger"])


def _band_generator(params: SystemParams, diss: DissipationParams, joint):
    """The support of ``joint`` (the elements of every excitation gap
    that it occupies, or whose negative it occupies; |i, n> carries
    i + n quanta) and, row by row, the superoperator's (position,
    entry) pairs on it. Its rows on the support reach no element outside
    it, as the weak U(1) symmetry of the generator promises."""
    side = 2 * params.dim
    quanta = [i + n for i in range(2) for n in range(params.dim)]
    gaps = [quanta[e // side] - quanta[e % side] for e in range(side * side)]
    occupied = {gaps[e] for e, value in enumerate(joint) if value != 0}
    support = [e for e in range(side * side) if gaps[e] in occupied or -gaps[e] in occupied]
    position = {e: j for j, e in enumerate(support)}
    lind = damped_superoperator(params, diss)
    rows = []
    for e in support:
        a, b = lind.indptr[e], lind.indptr[e + 1]
        rows.append([(position[int(c)], mpmath.mpc(complex(v))) for c, v in zip(lind.indices[a:b], lind.data[a:b])])
    return support, rows


def _mp_evolve(rows, vec, tau):
    """exp(tau L) vec by its Taylor series. Once k >= 2 tau ||L||_inf each
    term is at most half the one before, so the tail beyond a term is at
    most that term; the sum stops there once a term falls below
    10^-(DIGITS + 5) of the sum."""
    tau = mpmath.mpf(tau)
    halving = 2 * tau * max(mpmath.fsum(abs(v) for _, v in row) for row in rows)
    cutoff = mpmath.mpf(10) ** -(DIGITS + 5)
    total, term = list(vec), list(vec)
    for k in range(1, 100_000):
        term = [tau / k * mpmath.fsum(v * term[c] for c, v in row) for row in rows]
        total = [a + b for a, b in zip(total, term)]
        if k >= halving and max(abs(x) for x in term) <= cutoff * max(abs(x) for x in total):
            return total
    raise AssertionError("the Taylor series did not converge")


def _replay(params: SystemParams, diss: DissipationParams, charger: ChargerSpec, taus):
    """(prob, energy, ergotropy, mean, variance) of the initial state and
    after each round, in mpmath."""
    dim = params.dim
    side = 2 * dim
    x = mpmath.mpf(params.beta) * mpmath.mpf(params.omega_b)
    weights = [mpmath.exp(-x * n) for n in range(dim)]
    battery = [[weights[n] / mpmath.fsum(weights) if n == m else mpmath.mpc(0) for m in range(dim)]
               for n in range(dim)]
    q, c = mpmath.mpf(charger.q), mpmath.mpf(charger.c)
    off = c * mpmath.sqrt(q * (1 - q))
    qubit = [[q, off], [off, 1 - q]]
    half = mpmath.mpf(charger.theta) / 2
    phi = [mpmath.cos(half), mpmath.sin(half)]
    out = [(None, *_energetics(battery, params))]
    for tau in taus:
        joint = [qubit[i][j] * battery[n][m] for i in range(2) for n in range(dim) for j in range(2) for m in range(dim)]
        support, rows = _band_generator(params, diss, joint)
        evolved = [mpmath.mpc(0)] * len(joint)
        for e, value in zip(support, _mp_evolve(rows, [joint[e] for e in support], tau)):
            evolved[e] = value

        def element(i, n, j, m):
            return evolved[(i * dim + n) * side + j * dim + m]

        battery = [[mpmath.fsum(phi[i] * phi[j] * element(i, n, j, m) for i in range(2) for j in range(2))
                    for m in range(dim)] for n in range(dim)]
        prob = mpmath.re(mpmath.fsum(battery[n][n] for n in range(dim)))
        battery = [[value / prob for value in row] for row in battery]
        out.append((prob, *_energetics(battery, params)))
    return out


def _energetics(battery, params: SystemParams):
    """Energy, ergotropy, mean and variance of a battery matrix; its
    spectrum must be positive, so that ``passive_state``'s clip at zero
    has nothing to remove."""
    dim = params.dim
    pops = [mpmath.re(battery[n][n]) for n in range(dim)]
    mean = mpmath.fsum(n * p for n, p in enumerate(pops))
    variance = mpmath.fsum((n - mean) ** 2 * p for n, p in enumerate(pops))
    if all(battery[n][m] == 0 for n in range(dim) for m in range(dim) if n != m):
        spectrum = pops
    else:
        spectrum = [mpmath.re(e) for e in mpmath.eighe(mpmath.matrix(battery), eigvals_only=True)]
    assert min(spectrum) > 0
    passive = mpmath.fsum(n * p for n, p in enumerate(sorted(spectrum, reverse=True)))
    omega = mpmath.mpf(params.omega_b)
    return omega * mean, max(omega * (mean - passive), 0), mean, variance


@pytest.mark.parametrize("case", ["lindblad_power_on", "lindblad_power_off", "lindblad_general"])
def test_damped_golden_matches_the_40_digit_replay(case):
    rows, config, scheme = _read_case(case)
    params, diss, charger = _model(config, scheme)
    with mpmath.workdps(DIGITS):
        replay = _replay(params, diss, charger, [row["tau"] for row in rows[1:]])
        cumulative = mpmath.mpf(1)
        for m, (row, (prob, energy, ergotropy, mean, variance)) in enumerate(zip(rows, replay)):
            if prob is not None:
                cumulative *= prob
            exact = dict(prob=prob, cumulative_prob=cumulative, energy=energy, ergotropy=ergotropy,
                         mean=mean, variance=variance)
            for name in COLUMNS:
                if exact[name] is None:
                    assert row[name] is None
                    continue
                error = abs(mpmath.mpf(row[name]) - exact[name])
                assert error <= REPLAY_RTOL * abs(exact[name]), (m, name, row[name], float(error / exact[name]))

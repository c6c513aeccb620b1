"""Output oracles: a CLI call counts as a success only if its outputs pass.

Every call's outputs are checked for the physical invariants (outcome
probabilities in (0, 1], the cumulative probability equal to the running
product, ergotropy at most the energy, histograms that sum to one) and
against the summaries frozen in ``reference.json``. Some calls also get an
independent oracle:

* ``sweep_theta_q``: a seeded sample of rows is recomputed with the dense
  ``general_round``;
* the N=100/N=400 ``power_on`` pair: the final means agree within the
  N=100 run's top-level population bound, N * p_N;
* ``lindblad``: the damped final energy stays within acceptance criterion
  10's relative bound of closed rounds on the same interval schedule.

A failed check raises ``OracleError``; the caller counts the call as failed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from qbattery.propagator import ZeroProbabilityError
from qbattery.rounds import general_round, power_off_round, power_on_round
from qbattery.states import ChargerSpec, SystemParams, mean_occupation, thermal_state

from workloads import Call, outputs_of

CUMULATIVE_RTOL = 1e-12
SPOT_RTOL = 1e-9
SPOT_ROWS = 8
# Acceptance criterion 10: damped final energy within 15% of the closed run.
DAMPED_ENERGY_RTOL = 0.15
# How far a correct change may move a frozen output: the golden-section
# search resolves intervals only to 1e-6 relative and the integrator runs
# at rtol 1e-9, so exact bytes are not a requirement.
REFERENCE_RTOL = 1e-5
# Fixed weights that project each block of an output column onto one
# number; a block is short, so one row's slack is bounded by its block.
PROJECTION_SEED = 20221027
BLOCK_ROWS = 64
PROTOCOL_COMMANDS = ("power_on", "power_off", "lindblad")


class OracleError(Exception):
    """An output failed one of its checks."""


@dataclass(frozen=True)
class CallOutcome:
    """What a checked call produced, for the throughput metrics."""

    rounds: int = 0        # post-selected rounds completed
    grid_points: int = 0   # rows of a (theta, q, c) sweep
    truncated: bool = False


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text().splitlines()
    if not lines or lines[0] != "# schema=1":
        raise OracleError(f"{path.name}: missing '# schema=1' line")
    if len(lines) < 2:
        raise OracleError(f"{path.name}: missing header")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise OracleError(f"{path.name}: row {i} has {len(row)} cells, header {len(header)}")
    return header, rows


def _column(path: Path, header: list[str], rows: list[list[str]], name: str) -> list[float | None]:
    j = header.index(name)
    try:
        return [float(r[j]) if r[j] != "" else None for r in rows]
    except ValueError as err:
        raise OracleError(f"{path.name}: column {name!r}: {err}") from err


def params_of(config: dict) -> SystemParams:
    p = config["params"]
    return SystemParams(
        n_levels=int(p["n_levels"]), g=float(p["g"]), delta=float(p["delta"]),
        omega_c=float(p["omega_c"]), beta=float(p["beta"]),
    )


def check_protocol(csv: Path, sidecar: Path) -> tuple[int, bool]:
    """Invariants of a protocol CSV and its JSON sidecar; returns the
    number of rounds and whether the run was truncated."""
    header, rows = read_csv(csv)
    probs = _column(csv, header, rows, "prob")[1:]
    cumulative = _column(csv, header, rows, "cumulative_prob")
    energies = _column(csv, header, rows, "energy")
    ergotropies = _column(csv, header, rows, "ergotropy")
    if not probs:
        raise OracleError(f"{csv.name}: no rounds")
    running = 1.0
    for m, (p, cum) in enumerate(zip(probs, cumulative[1:]), start=1):
        if p is None or not 0.0 < p <= 1.0:
            raise OracleError(f"{csv.name}: round {m} probability {p} outside (0, 1]")
        running *= p
        if cum is None or abs(cum - running) > CUMULATIVE_RTOL * running:
            raise OracleError(f"{csv.name}: round {m} cumulative {cum} != product {running!r}")
    for m, (e, w) in enumerate(zip(energies, ergotropies)):
        if e is None or w is None or not 0.0 <= w <= e:
            raise OracleError(f"{csv.name}: row {m} ergotropy {w} not within [0, energy {e}]")
    meta = json.loads(sidecar.read_text())
    if meta["rounds_completed"] != len(probs):
        raise OracleError(f"{sidecar.name}: {meta['rounds_completed']} rounds, CSV has {len(probs)}")
    if abs(meta["cumulative_probability"] - running) > CUMULATIVE_RTOL * running:
        raise OracleError(f"{sidecar.name}: cumulative probability disagrees with the CSV")
    return len(probs), bool(meta["truncated"])


def check_histograms(csv: Path, n_levels: int) -> list[int]:
    """Every snapshot is a distribution over levels 0..N; returns the rounds."""
    header, rows = read_csv(csv)
    ms = _column(csv, header, rows, "m")
    levels = _column(csv, header, rows, "level")
    pops = _column(csv, header, rows, "population")
    snapshots: dict[int, list[float]] = {}
    for m, level, p in zip(ms, levels, pops):
        if p is None or p < 0.0:
            raise OracleError(f"{csv.name}: m={m} level={level} population {p}")
        snapshots.setdefault(int(m), []).append(p)
    for m, ps in snapshots.items():
        if len(ps) != n_levels + 1 or abs(math.fsum(ps) - 1.0) > 1e-9:
            raise OracleError(f"{csv.name}: snapshot m={m} is not a distribution on 0..{n_levels}")
    return sorted(snapshots)


def check_interval_sweep(csv: Path, config: dict) -> None:
    header, rows = read_csv(csv)
    n_levels = int(config["params"]["n_levels"])
    sweep = config["sweep"]
    if len(rows) != len(sweep["m_values"]) * int(sweep["tau_points"]):
        raise OracleError(f"{csv.name}: {len(rows)} rows")
    for tau, nbar, prob, marker in zip(
        _column(csv, header, rows, "tau"), _column(csv, header, rows, "nbar"),
        _column(csv, header, rows, "prob"), _column(csv, header, rows, "tau_opt_numeric"),
    ):
        if prob is None or not 0.0 <= prob <= 1.0:
            raise OracleError(f"{csv.name}: tau={tau} probability {prob} outside [0, 1]")
        if nbar is None and prob >= 1e-15:
            raise OracleError(f"{csv.name}: tau={tau} has no mean despite probability {prob}")
        if nbar is not None and not 0.0 <= nbar <= n_levels:
            raise OracleError(f"{csv.name}: tau={tau} mean {nbar} off the ladder")
        if marker is None or marker <= 0.0:
            raise OracleError(f"{csv.name}: interval marker {marker}")


def check_sweep(csv: Path, config: dict, rng: np.random.Generator) -> int:
    """Row count, finite ratios, and a seeded sample of rows recomputed
    with the dense joint-propagator round; returns the number of rows."""
    header, rows = read_csv(csv)
    sweep = config["sweep"]
    expected = int(sweep["theta_points"]) * int(sweep["q_points"]) * len(sweep["c_values"])
    if len(rows) != expected:
        raise OracleError(f"{csv.name}: {len(rows)} rows, expected {expected}")
    table = np.array([[float(x) for x in row] for row in rows])
    ratios = table[:, 3]
    if not (np.isnan(ratios) | (ratios > 0.0)).all():
        raise OracleError(f"{csv.name}: a ratio is not positive")
    params = params_of(config)
    state = thermal_state(params)
    before = mean_occupation(state)
    tau = float(sweep["tau"])
    for i in rng.choice(len(rows), size=min(SPOT_ROWS, len(rows)), replace=False):
        theta, q, c, ratio = table[i]
        charger = ChargerSpec(q=float(q), theta=float(theta), c=float(c))
        try:
            dense = mean_occupation(general_round(state, charger, params, tau).post_state) / before
        except ZeroProbabilityError:
            dense = math.nan
        if math.isnan(dense) != math.isnan(ratio) or abs(ratio - dense) > SPOT_RTOL * abs(dense):
            raise OracleError(f"{csv.name}: row {i} ratio {ratio!r}, dense oracle {dense!r}")
    return len(rows)


def check_truncation_pair(small: Path, small_hist: Path, large: Path, n_levels: int) -> None:
    """Final means at N and at a larger ladder agree within N * p_N, the
    weight the N run holds on its top level."""
    h, r = read_csv(small)
    mean_small = _column(small, h, r, "mean")[-1]
    final_round = int(_column(small, h, r, "m")[-1])
    h, r = read_csv(large)
    mean_large = _column(large, h, r, "mean")[-1]
    h, r = read_csv(small_hist)
    top = [p for m, lv, p in zip(_column(small_hist, h, r, "m"), _column(small_hist, h, r, "level"),
                                 _column(small_hist, h, r, "population"))
           if m == final_round and lv == n_levels]
    if len(top) != 1:
        raise OracleError(f"{small_hist.name}: no population on level {n_levels} at round {final_round}")
    bound = n_levels * top[0]
    if abs(mean_small - mean_large) > bound:
        raise OracleError(
            f"final means {mean_small!r} (N={n_levels}) and {mean_large!r} differ "
            f"by more than N*p_N={bound:.3e}"
        )


def check_damped_vs_closed(csv: Path, sidecar: Path, config: dict) -> None:
    """The damped final energy stays within criterion 10's relative bound
    of closed rounds on the same interval schedule."""
    header, rows = read_csv(csv)
    taus = _column(csv, header, rows, "tau")[1:]
    damped = _column(csv, header, rows, "energy")[-1]
    scheme = json.loads(sidecar.read_text())["scheme"]
    params = params_of(config)
    state = thermal_state(params)
    for tau in taus:
        if scheme == "power_on":
            state = power_on_round(state, params, tau).post_state
        elif scheme == "power_off":
            state = power_off_round(state, params, tau).post_state
        else:
            c = config["charger"]
            charger = ChargerSpec(q=float(c["q"]), theta=float(c["theta"]), c=float(c["c"]))
            state = general_round(state, charger, params, tau).post_state
    closed = params.omega_b * mean_occupation(state)
    if abs(damped - closed) > DAMPED_ENERGY_RTOL * closed:
        raise OracleError(
            f"{csv.name}: damped energy {damped!r} deviates from closed {closed!r} "
            f"by more than {DAMPED_ENERGY_RTOL:.0%}"
        )


def check_call(call: Call, job_dir: Path, config: dict, rng: np.random.Generator) -> CallOutcome:
    """Invariant and independent-oracle checks of one call's outputs."""
    csv = job_dir / f"{call.label}.csv"
    sidecar = csv.with_suffix(".json")
    n_levels = int(config["params"]["n_levels"])
    if call.command in PROTOCOL_COMMANDS:
        rounds, truncated = check_protocol(csv, sidecar)
        if call.command == "lindblad":
            check_damped_vs_closed(csv, sidecar, config)
        else:
            check_histograms(job_dir / f"{call.label}_hist.csv", n_levels)
        return CallOutcome(rounds=rounds, truncated=truncated)
    if call.command == "histograms":
        snapshots = check_histograms(csv, n_levels)
        wanted = int(config["schedule"]["n_rounds"])
        if wanted not in config["schedule"]["histogram_at"]:
            raise OracleError("histograms must snapshot the final round to count rounds")
        # snapshots past a truncation are skipped, so the last one present
        # is the last round completed
        return CallOutcome(rounds=max(snapshots), truncated=max(snapshots) < wanted)
    if call.command == "interval_sweep":
        check_interval_sweep(csv, config)
        return CallOutcome()
    if call.command == "sweep_theta_q":
        return CallOutcome(grid_points=check_sweep(csv, config, rng))
    raise OracleError(f"no oracle for command {call.command!r}")


# --- frozen references -------------------------------------------------

def summarize(path: Path) -> dict:
    """Compact fingerprint of one output file.

    A CSV is reduced to its header, row count and, per column, the count
    of empty and non-finite cells and, for each block of ``BLOCK_ROWS``
    rows, a fixed random projection of the finite values (with the
    projection of their magnitudes as its scale). A JSON sidecar keeps its
    round count, truncation flag and cumulative probability.
    """
    if path.suffix == ".json":
        meta = json.loads(path.read_text())
        return {key: meta[key] for key in ("rounds_completed", "truncated", "cumulative_probability")}
    header, rows = read_csv(path)
    weights = np.random.default_rng(PROJECTION_SEED).uniform(0.5, 1.5, size=len(rows))
    starts = np.arange(0, len(rows), BLOCK_ROWS)
    columns = {}
    for j, name in enumerate(header):
        cells = [row[j] for row in rows]
        try:
            values = np.array([float(cell) if cell else math.nan for cell in cells])
        except ValueError:
            columns[name] = {"labels": sorted(set(cells))}
            continue
        empty = cells.count("")
        finite = np.isfinite(values)
        weighted = weights * np.where(finite, values, 0.0)
        columns[name] = {
            "empty": empty,
            "nonfinite": int((~finite).sum()) - empty,
            "proj": np.add.reduceat(weighted, starts).tolist(),
            "abs": np.add.reduceat(np.abs(weighted), starts).tolist(),
        }
    return {"header": header, "rows": len(rows), "columns": columns}


def compare_to_reference(summary: dict, reference: dict) -> list[str]:
    """Differences between an output's summary and its frozen reference."""
    if "columns" not in reference:
        problems = [f"{k}: {summary[k]!r} != {reference[k]!r}"
                    for k in ("rounds_completed", "truncated") if summary[k] != reference[k]]
        ref_p = reference["cumulative_probability"]
        if abs(summary["cumulative_probability"] - ref_p) > REFERENCE_RTOL * ref_p:
            problems.append(f"cumulative_probability {summary['cumulative_probability']!r} != {ref_p!r}")
        return problems
    if summary["header"] != reference["header"] or summary["rows"] != reference["rows"]:
        return [f"shape {summary['header']}x{summary['rows']} != "
                f"{reference['header']}x{reference['rows']}"]
    problems = []
    for name, ref in reference["columns"].items():
        got = summary["columns"][name]
        if "labels" in ref:
            if got != ref:
                problems.append(f"{name}: labels {got} != {ref}")
            continue
        if got["empty"] != ref["empty"] or got["nonfinite"] != ref["nonfinite"]:
            problems.append(f"{name}: empty/non-finite cells differ")
            continue
        for block, (proj, ref_proj, ref_abs) in enumerate(zip(got["proj"], ref["proj"], ref["abs"])):
            if abs(proj - ref_proj) > REFERENCE_RTOL * max(ref_abs, 1e-300):
                first = block * BLOCK_ROWS
                problems.append(f"{name}: rows {first}..{first + BLOCK_ROWS - 1} "
                                f"projection {proj!r} != {ref_proj!r}")
                break
    return problems


def check_reference(call: Call, job_dir: Path, reference: dict) -> None:
    for name in outputs_of(call):
        problems = compare_to_reference(summarize(job_dir / name), reference[name])
        if problems:
            raise OracleError(f"{name} differs from its frozen reference: " + "; ".join(problems))

"""Command-line entry point for reproducible experiment runs.

Every command reads a JSON config (all fields optional, defaults mirror
the standard simulation setup), applies ``--set key=value`` overrides,
and writes deterministic CSV artifacts plus, for protocol runs, a JSON
metadata sidecar. See docs/outputs.md for the per-command CSV schemas.

Exit codes: 0 success, 1 config error, 2 validation failure, 3 runtime
error.

Only the ``lindblad`` and ``validate`` commands load scipy; they import
their modules when they run.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .propagator import ZeroProbabilityError
from .rounds import _mean_ratios, power_off_round, power_on_round
from .scheduler import (NoChargingError, _interval_chooser, round_probability, run_protocol, sample_protocol,
                        tau_opt_analytic)
from .states import (
    BatteryState,
    ChargerSpec,
    SettingError,
    SystemParams,
    fano_ratio,
    mean_occupation,
    occupation_variance,
    thermal_state,
)

if TYPE_CHECKING:
    from .lindblad import DissipationParams
    from .validate import CheckResult

SCHEMA_VERSION = 1

# Figure-matching defaults; beta varies per experiment below.
_BASE_CONFIG = {
    "schema": SCHEMA_VERSION,
    "params": {"n_levels": 100, "g": 0.04, "delta": 0.02, "omega_c": 1.0, "beta": 0.1},
    "charger": {"q": 0.0, "theta": 0.0, "c": 0.0},
    "schedule": {
        "scheme": "power_on",
        "policy": "analytic",
        "n_rounds": 80,
        "fixed_tau": None,
        "x": 10.0,
        "objective": "per_round",
        "tau_max": None,
        "grid_points": 400,
        "histogram_at": [0, 5, 20, 50, 80],
        "sampling": False,
    },
    "sweep": {
        "theta_points": 101,
        "q_points": 101,
        "c_values": [0.0, 1.0],
        "tau": 8.0,
        "m_values": [1, 5, 10, 15, 20],
        "tau_points": 200,
        "tau_max": 20.0,
    },
    "dissipation": {
        "gamma_b": 1e-4,
        "gamma_c": None,
        "nbar_th": None,
        "nbar_th_c": None,
    },
    "validate_fast": False,
    "output_path": None,
    "seed": 0,
}

_EXPERIMENT_OVERRIDES = {
    "sweep_theta_q": {"params": {"beta": 0.1}},
    "interval_sweep": {"params": {"beta": 0.05}},
    "power_on": {"params": {"beta": 0.1}},
    "power_off": {
        "params": {"beta": 0.05},
        "schedule": {"scheme": "power_off", "policy": "power_off_compromise", "n_rounds": 20,
                     "histogram_at": [0, 5, 10, 20]},
    },
    "histograms": {"params": {"beta": 0.1}},
    "lindblad": {"params": {"beta": 0.1}, "schedule": {"n_rounds": 20}},
    "validate": {},
}
EXPERIMENTS = tuple(_EXPERIMENT_OVERRIDES)


class ConfigError(SettingError):
    """A mistake in the config file or the ``--set`` overrides."""


def _merge(base: dict, override: dict, path: str = "", defaults: dict = _BASE_CONFIG) -> dict:
    """``base`` with ``override`` merged in table by table, each value
    kind-checked against ``defaults``, its table of ``_BASE_CONFIG``. The
    result shares the values it does not replace with ``base``, and those
    it does with ``override``."""
    merged = dict(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key {where!r}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{where!r} must be a table")
            merged[key] = _merge(base[key], value, where, defaults[key])
        else:
            _check_kind(value, defaults[key], where)
            merged[key] = value
    return merged


def _set_table(assignment: str) -> dict:
    """The nested table that ``--set key=value`` stands for, its value read
    as JSON where it parses and as a string otherwise."""
    if "=" not in assignment:
        raise ConfigError(f"--set needs key=value, got {assignment!r}")
    key, raw = assignment.split("=", 1)
    try:
        table = json.loads(raw)
    except json.JSONDecodeError:
        table = raw
    for part in reversed(key.split(".")):
        table = {part: table}
    return table


def _fits(value, default) -> bool:
    """Whether ``value`` may stand where ``_BASE_CONFIG`` holds ``default``:
    a number for a float, a list of such values for a list, else a value
    of the default's own type (so no bool for an integer)."""
    if isinstance(default, list):
        return isinstance(value, list) and all(_fits(v, default[0]) for v in value)
    if isinstance(default, float):
        return type(value) in (int, float)
    return type(value) is type(default)


_KINDS = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}


def _check_kind(value, default, where: str) -> None:
    """``value``, set at config key ``where``, is of the kind of its
    ``_BASE_CONFIG`` default ``default``, which is not a table."""
    if type(value) is type(default) and type(default) is not list:
        return  # most values: a number, string or flag as in the default
    if default is None:  # optional: None, else a path for output_path and a number elsewhere
        if value is None:
            return
        default = "" if where == "output_path" else 0.0
    if not (_fits(value, default) or (where == "params.beta" and value in ("inf", "Infinity"))):
        kind = f"a list, each {_KINDS[type(default[0])]}" if isinstance(default, list) else _KINDS[type(default)]
        raise ConfigError(f"{where} must be {kind}, got {value!r}")


def load_config(experiment: str, config_path: str | None, sets: list[str]) -> dict:
    """The experiment's defaults with the config file and then each
    ``--set`` merged in, copied once, so it shares no list or table with
    the defaults or its inputs."""
    config = _merge(_BASE_CONFIG, _EXPERIMENT_OVERRIDES[experiment])
    if config_path is not None:
        try:
            with open(config_path) as fh:
                user = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            raise ConfigError(f"cannot read config {config_path}: {err}") from err
        if not isinstance(user, dict):
            raise ConfigError(f"config {config_path} must hold a table")
        if user.get("schema", SCHEMA_VERSION) != SCHEMA_VERSION:
            raise ConfigError(f"unsupported config schema {user.get('schema')!r}")
        config = _merge(config, user)
    for assignment in sets:
        config = _merge(config, _set_table(assignment))
    return copy.deepcopy(config)


def _build_params(config: dict) -> SystemParams:
    p = config["params"]
    # the load check lets through only "inf" and "Infinity" as strings
    beta = math.inf if isinstance(p["beta"], str) else float(p["beta"])
    return SystemParams(n_levels=p["n_levels"], g=float(p["g"]), delta=float(p["delta"]),
                        omega_c=float(p["omega_c"]), beta=beta)


def _build_dissipation(config: dict, params: SystemParams) -> DissipationParams:
    """Thermal bath occupations for ``params`` unless the config sets them."""
    from .lindblad import DissipationParams

    d = config["dissipation"]
    thermal = DissipationParams.thermal(params, gamma_b=float(d["gamma_b"]),
                                        gamma_c=None if d["gamma_c"] is None else float(d["gamma_c"]))
    overrides = {key: float(d[key]) for key in ("nbar_th", "nbar_th_c") if d[key] is not None}
    return dataclasses.replace(thermal, **overrides)


def _build_charger(config: dict) -> ChargerSpec | None:
    """The configured charger of a general-scheme run, else None."""
    if config["schedule"]["scheme"] != "general":
        return None
    c = config["charger"]
    return ChargerSpec(q=float(c["q"]), theta=float(c["theta"]), c=float(c["c"]))


def _policy_inputs(schedule: dict) -> dict:
    """The interval-policy keywords of ``run_protocol`` that ``schedule`` sets."""
    return dict(fixed_tau=schedule["fixed_tau"], x=float(schedule["x"]), objective=schedule["objective"],
                tau_max=schedule["tau_max"], grid_points=schedule["grid_points"])


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.integer):
        return str(int(value))
    return str(value)


def _cells(floats) -> list[str]:
    """``_fmt`` of each float, such as those of an array's ``tolist()``;
    map ``_fmt`` itself over a column that can hold None or an int."""
    return list(map(float.__repr__, floats))


def write_csv(path: Path, header: list[str], columns) -> None:
    """The schema line, ``header`` and one row per cell of ``columns``,
    equal-length lists of cells each rendered once (see ``_cells``). Every
    CSV the commands write passes through here."""
    lines = "\n".join([",".join(header), *map(",".join, zip(*columns))])
    with open(path, "w", newline="") as fh:
        fh.write(f"# schema={SCHEMA_VERSION}\n{lines}\n")


def _check_counts(sweep: dict, *keys: str) -> None:
    for key in keys:
        if sweep[key] < 1:
            raise ConfigError(f"sweep.{key} must be >= 1, got {sweep[key]}")


def cmd_sweep_theta_q(config: dict, out: Path) -> None:
    params = _build_params(config)
    sweep = config["sweep"]
    _check_counts(sweep, "theta_points", "q_points")
    thetas = np.linspace(0.0, math.pi, sweep["theta_points"])
    qs = np.linspace(0.0, 1.0, sweep["q_points"])
    c_values = np.array([float(c) for c in sweep["c_values"]])
    if c_values.size == 0:
        raise ConfigError("sweep.c_values must hold at least one coherence")
    for c in c_values:
        try:
            ChargerSpec(q=0.0, theta=0.0, c=c)
        except SettingError as err:
            raise ConfigError(f"sweep.c_values: {err}") from err
    tau = float(sweep["tau"])
    if not (math.isfinite(tau) and tau >= 0.0):
        raise ConfigError(f"sweep.tau must be finite and >= 0, got {tau}")
    c, theta, q = (grid.ravel() for grid in np.meshgrid(c_values, thetas, qs, indexing="ij"))
    ratio = _mean_ratios(thermal_state(params).populations, params, tau, q, theta, c)
    # each axis is rendered once and repeated in the meshgrid's (c, theta, q) order
    theta_text, q_text, c_text = (_cells(axis.tolist()) for axis in (thetas, qs, c_values))
    columns = ([t for t in theta_text for _ in q_text] * len(c_text), q_text * (len(c_text) * len(theta_text)),
               [cv for cv in c_text for _ in range(len(theta_text) * len(q_text))], _cells(ratio.tolist()))
    write_csv(out, ["theta", "q", "c", "ratio"], columns)


def cmd_interval_sweep(config: dict, out: Path) -> None:
    sweep = config["sweep"]
    scheme = config["schedule"]["scheme"]
    if scheme not in ("power_on", "power_off"):
        raise ConfigError(f"interval_sweep needs a named scheme, got {scheme!r}")
    one_round = power_on_round if scheme == "power_on" else power_off_round
    tau_max = float(sweep["tau_max"])
    if not (math.isfinite(tau_max) and tau_max >= 0.0):
        raise ConfigError(f"sweep.tau_max must be finite and >= 0, got {tau_max}")
    _check_counts(sweep, "tau_points")
    taus = np.linspace(0.0, tau_max, sweep["tau_points"] + 1)[1:]
    m_values = sweep["m_values"]
    if not m_values or min(m_values) < 1:
        raise ConfigError(f"sweep.m_values must hold at least one round, each >= 1, got {m_values}")
    # the state entering round m comes from m - 1 rounds of one run under
    # the scheme's standard policy, and the marker is that run's round-m rule
    policy = "numeric" if scheme == "power_on" else "power_off_compromise"
    params, inputs = _build_params(config), _policy_inputs(config["schedule"])
    choose_tau = _interval_chooser(policy, scheme, params, max(m_values), **inputs)
    initial = thermal_state(params)
    prepared, reason = [(initial, 1.0)], None
    tau_cells = _cells(taus.tolist())
    columns = [[] for _ in range(7)]  # scheme, m, tau, nbar, prob and the two markers
    for m in m_values:
        if m > 1 and len(prepared) == 1:
            # one run prepares every m, made where the first m > 1 needs it
            try:
                trajectory = run_protocol(initial, params, scheme, max(m_values) - 1, policy, **inputs)
            except NoChargingError as err:
                # round 1 stalls; a stall in a later round leaves fewer states below
                raise ConfigError(f"cannot prepare the round-{m} state: {err}") from err
            for rec in trajectory.rounds:
                prepared.append((rec.post_state, prepared[-1][1] * rec.probability))
            reason = trajectory.truncation_reason
        if m > len(prepared):
            raise ConfigError(f"cannot prepare the round-{m} state: {reason}")
        state, cumulative = prepared[m - 1]
        marker_analytic = tau_opt_analytic(state, params) if scheme == "power_on" else None
        try:
            marker_numeric = choose_tau(state, cumulative, m)
        except NoChargingError as err:
            # the run stalls at round m itself; a stall before round m is a config error too
            raise ConfigError(f"cannot choose the round-{m} marker interval: {err}") from err
        nbars, probs = [], []
        for tau in taus.tolist():
            try:
                rec = one_round(state, params, tau)
                nbars.append(mean_occupation(rec.post_state))
                probs.append(rec.probability)
            except ZeroProbabilityError:
                nbars.append(None)
                probs.append(round_probability(state, params, scheme, tau))
        k = len(tau_cells)
        for column, cells in zip(columns, ([scheme] * k, [str(m)] * k, tau_cells, list(map(_fmt, nbars)),
                                           _cells(probs), [_fmt(marker_analytic)] * k, [_fmt(marker_numeric)] * k)):
            column += cells
    write_csv(out, ["scheme", "m", "tau", "nbar", "prob", "tau_opt_analytic", "tau_opt_numeric"], columns)


def _trajectory_columns(trajectory, params: SystemParams) -> list[list[str]]:
    """The rendered columns of ``PROTOCOL_HEADER``: the initial state's row, then one per round."""
    from .thermo import snapshot

    initial = trajectory.initial_state
    first = snapshot(initial, params)
    rows = [(
        0, None, None, 1.0,
        first.energy, first.ergotropy, first.ratio, None,
        *_moments(initial),
    )]
    cumulative = 1.0
    for m, rec in enumerate(trajectory.rounds, start=1):
        cumulative *= rec.probability
        rows.append((
            m, rec.tau, rec.probability, cumulative,
            rec.thermo.energy, rec.thermo.ergotropy, rec.thermo.ratio, rec.thermo.power,
            *_moments(rec.post_state),
        ))
    return [list(map(_fmt, column)) for column in zip(*rows)]


def _moments(state: BatteryState) -> tuple:
    """Mean, variance and Fano ratio, None for a state of zero mean."""
    mean = mean_occupation(state)
    return mean, occupation_variance(state), None if mean <= 0.0 else fano_ratio(state)


PROTOCOL_HEADER = [
    "m", "tau", "prob", "cumulative_prob", "energy", "ergotropy",
    "ratio", "power", "mean", "variance", "fano",
]


def _write_histograms(trajectory, at_rounds, path: Path) -> None:
    states = [trajectory.initial_state, *trajectory.states()]
    level_cells = [str(level) for level in range(states[0].populations.size)]
    columns = [[], [], []]  # m, level, population
    for m in at_rounds:
        if 0 <= m < len(states):
            columns[0] += [str(m)] * len(level_cells)
            columns[1] += level_cells
            columns[2] += _cells(states[m].populations.tolist())
    write_csv(path, ["m", "level", "population"], columns)


def _write_metadata(trajectory, config: dict, experiment: str, path: Path, attempts=None) -> None:
    meta = {
        "schema": SCHEMA_VERSION,
        "experiment": experiment,
        "config": config,
        "scheme": trajectory.scheme,
        "rounds_completed": trajectory.n_rounds,
        "cumulative_probability": trajectory.cumulative_probability,
        "truncated": trajectory.truncated,
        "truncation_reason": trajectory.truncation_reason,
    }
    if attempts is not None:
        meta["attempts"] = attempts
    with open(path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _check_snapshot_rounds(schedule: dict) -> None:
    """Every ``schedule.histogram_at`` round lies within the run; a run of
    fewer than one round is the library's mistake to report."""
    n_rounds = schedule["n_rounds"]
    outside = [m for m in schedule["histogram_at"] if not 0 <= m <= n_rounds]
    if outside and n_rounds >= 1:
        raise ConfigError(f"schedule.histogram_at rounds must lie in 0..{n_rounds} (schedule.n_rounds), "
                          f"got {outside}")


def cmd_protocol(config: dict, out: Path, experiment: str) -> None:
    """One closed-system run of ``schedule.scheme``. ``histograms`` writes
    the histograms alone, to ``out``; ``power_on`` and ``power_off`` run
    only their own scheme and write the trajectory, its histograms and the
    metadata sidecar."""
    schedule = config["schedule"]
    scheme = schedule["scheme"]
    if experiment != "histograms" and scheme != experiment:
        raise ConfigError(f"{experiment} runs schedule.scheme={experiment!r}, got {scheme!r}")
    _check_snapshot_rounds(schedule)
    params = _build_params(config)
    args = (thermal_state(params), params, scheme, schedule["n_rounds"], schedule["policy"])
    kwargs = dict(charger=_build_charger(config), **_policy_inputs(schedule))
    attempts = None
    if schedule["sampling"]:
        trajectory, attempts = sample_protocol(*args, seed=config["seed"], **kwargs)
    else:
        trajectory = run_protocol(*args, **kwargs)
    if experiment == "histograms":
        _write_histograms(trajectory, schedule["histogram_at"], out)
        return
    write_csv(out, PROTOCOL_HEADER, _trajectory_columns(trajectory, params))
    _write_histograms(trajectory, schedule["histogram_at"], out.with_name(out.stem + "_hist.csv"))
    _write_metadata(trajectory, config, experiment, out.with_suffix(".json"), attempts)


def cmd_lindblad(config: dict, out: Path) -> None:
    from .lindblad import dissipative_protocol

    schedule = config["schedule"]
    params = _build_params(config)
    diss = _build_dissipation(config, params)
    scheme, policy, n_rounds = schedule["scheme"], schedule["policy"], schedule["n_rounds"]
    initial, charger, inputs = thermal_state(params), _build_charger(config), _policy_inputs(schedule)
    tau_schedule = None
    if policy == "power_off_compromise" or (scheme == "power_off" and policy == "analytic"):
        # mirror the closed-system compromise schedule so the damped run
        # is directly comparable; the analytic default has no power-off
        # rule, and the compromise of another scheme is a setting error
        closed = run_protocol(initial, params, scheme, n_rounds, "power_off_compromise", charger=charger, **inputs)
        tau_schedule = list(closed.taus())
        scheme, policy, n_rounds = "power_off", "schedule", len(tau_schedule)
    trajectory = dissipative_protocol(initial, params, diss, scheme, n_rounds, policy,
                                      charger=charger, fixed_tau=inputs["fixed_tau"], tau_schedule=tau_schedule)
    write_csv(out, PROTOCOL_HEADER, _trajectory_columns(trajectory, params))
    _write_metadata(trajectory, config, "lindblad", out.with_suffix(".json"))


def run_all_checks(fast: bool = False) -> list[CheckResult]:
    """``qbattery.validate.run_all_checks``, imported on first call."""
    from . import validate

    return validate.run_all_checks(fast=fast)


def cmd_validate(config: dict, out: Path | None) -> int:
    results = run_all_checks(fast=config["validate_fast"])
    lines = [r.line() for r in results]
    report = "\n".join(lines) + "\n"
    print(report, end="")
    if out is not None:
        with open(out, "w") as fh:
            fh.write(report)
    return 0 if all(r.passed for r in results) else 2


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and ``append`` copies the ``--set`` default before adding."""
    parser = argparse.ArgumentParser(
        prog="qbattery",
        description="Measurement-fueled quantum-battery charging experiments",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON run configuration")
        p.add_argument("--out", default=None, help="output path (CSV, or text for validate)")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config field (dotted keys, JSON values)")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = load_config(args.experiment, args.config, args.set)
        out = args.out or config["output_path"]
        if out is None and args.experiment != "validate":
            out = f"qbattery_{args.experiment}.csv"
        out_path = Path(out) if out is not None else None
        if out_path is not None and not out_path.parent.is_dir():
            raise ConfigError(f"output directory {out_path.parent} does not exist")
        if args.experiment == "sweep_theta_q":
            cmd_sweep_theta_q(config, out_path)
        elif args.experiment == "interval_sweep":
            cmd_interval_sweep(config, out_path)
        elif args.experiment in ("power_on", "power_off", "histograms"):
            cmd_protocol(config, out_path, args.experiment)
        elif args.experiment == "lindblad":
            cmd_lindblad(config, out_path)
        elif args.experiment == "validate":
            return cmd_validate(config, out_path)
    except SettingError as err:  # a mistake in the config, the library's or the CLI's own
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except Exception as err:  # runtime failures map to a distinct exit code
        print(f"error: {err}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

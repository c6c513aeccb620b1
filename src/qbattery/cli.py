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
import json
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .propagator import ZeroProbabilityError
from .rounds import _mean_ratios, _scheme_charger, power_off_round, power_on_round
from .scheduler import (DAMPED_POLICIES, POLICIES, NoChargingError, _interval_chooser, round_probability,
                        run_protocol, sample_protocol, tau_opt_analytic)
from .states import (
    BatteryState,
    ChargerSpec,
    SystemParams,
    fano_ratio,
    mean_occupation,
    occupation_variance,
    thermal_state,
)
from .thermo import energy

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
        "rtol": 1e-9,
        "atol": 1e-12,
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


class ConfigError(ValueError):
    pass


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key {where!r}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{where!r} must be a table")
            out[key] = _merge(base[key], value, where)
        else:
            out[key] = value
    return out


def _apply_set(config: dict, assignment: str) -> None:
    if "=" not in assignment:
        raise ConfigError(f"--set needs key=value, got {assignment!r}")
    key, raw = assignment.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = config
    parts = key.split(".")
    for part in parts[:-1]:
        if part not in node or not isinstance(node[part], dict):
            raise ConfigError(f"unknown config key {key!r}")
        node = node[part]
    if parts[-1] not in node:
        raise ConfigError(f"unknown config key {key!r}")
    if isinstance(value, dict) and isinstance(node[parts[-1]], dict):
        value = _merge(node[parts[-1]], value, key)
    node[parts[-1]] = value


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


def _check_kinds(config: dict, base: dict, path: str = "") -> None:
    """Every value of ``config`` is of the kind of its ``base`` default."""
    for key, default in base.items():
        value = config[key]
        if type(value) is type(default) and type(default) not in (dict, list):
            continue  # most values: a number, string or flag as in the default
        where = f"{path}.{key}" if path else key
        if isinstance(default, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{where!r} must be a table")
            _check_kinds(value, default, where)
            continue
        if default is None:  # optional: None, else a path for output_path and a number elsewhere
            if value is None:
                continue
            default = "" if where == "output_path" else 0.0
        if not (_fits(value, default) or (where == "params.beta" and value in ("inf", "Infinity"))):
            kind = f"a list, each {_KINDS[type(default[0])]}" if isinstance(default, list) else _KINDS[type(default)]
            raise ConfigError(f"{where} must be {kind}, got {value!r}")


def load_config(experiment: str, config_path: str | None, sets: list[str]) -> dict:
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
        _apply_set(config, assignment)
    _check_kinds(config, _BASE_CONFIG)
    return config


def _build_params(config: dict) -> SystemParams:
    p = config["params"]
    # the load check lets through only "inf" and "Infinity" as strings
    beta = math.inf if isinstance(p["beta"], str) else float(p["beta"])
    try:
        return SystemParams(
            n_levels=p["n_levels"],
            g=float(p["g"]),
            delta=float(p["delta"]),
            omega_c=float(p["omega_c"]),
            beta=beta,
        )
    except ValueError as err:
        raise ConfigError(str(err)) from err


def _build_dissipation(config: dict, params: SystemParams) -> DissipationParams:
    """Thermal bath occupations for ``params`` unless the config sets them."""
    from .lindblad import DissipationParams

    d = config["dissipation"]
    try:
        thermal = DissipationParams.thermal(
            params, gamma_b=float(d["gamma_b"]),
            gamma_c=None if d["gamma_c"] is None else float(d["gamma_c"]),
        )
        overrides = {key: float(d[key]) for key in ("nbar_th", "nbar_th_c") if d[key] is not None}
        return dataclasses.replace(thermal, **overrides)
    except ValueError as err:
        raise ConfigError(str(err)) from err


def _build_charger(config: dict) -> ChargerSpec:
    c = config["charger"]
    try:
        return ChargerSpec(q=float(c["q"]), theta=float(c["theta"]), c=float(c["c"]))
    except ValueError as err:
        raise ConfigError(str(err)) from err


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.integer):
        return str(int(value))
    return str(value)


def _write_lines(path: Path, header: list[str], lines) -> None:
    """The schema line, ``header`` and the already rendered ``lines``."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# schema={SCHEMA_VERSION}\n")
        fh.write(",".join(header) + "\n")
        fh.writelines(lines)


def write_csv(path: Path, header: list[str], rows) -> None:
    _write_lines(path, header, (",".join(_fmt(v) for v in row) + "\n" for row in rows))


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
        except ValueError as err:
            raise ConfigError(f"sweep.c_values: {err}") from err
    tau = float(sweep["tau"])
    if not (math.isfinite(tau) and tau >= 0.0):
        raise ConfigError(f"sweep.tau must be finite and >= 0, got {tau}")
    c, theta, q = (grid.ravel() for grid in np.meshgrid(c_values, thetas, qs, indexing="ij"))
    ratio = _mean_ratios(thermal_state(params).populations, params, tau, q, theta, c)
    # Each axis is rendered once, with the repr that _fmt gives a float,
    # and the rows are joined in the meshgrid's (c, theta, q) order.
    theta_text, q_text, c_text = ([repr(v) for v in axis.tolist()] for axis in (thetas, qs, c_values))
    points = [f"{t},{qv},{cv}," for cv in c_text for t in theta_text for qv in q_text]
    _write_lines(out, ["theta", "q", "c", "ratio"],
                 (f"{point}{r!r}\n" for point, r in zip(points, ratio.tolist())))


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
    (initial, params, *_), kwargs, choose_tau = _protocol_call(config, scheme, policy, max(m_values))
    prepared, reason = [(initial, 1.0)], None
    rows = []
    for m in m_values:
        if m > 1 and len(prepared) == 1:
            # one run prepares every m, made where the first m > 1 needs it
            trajectory = run_protocol(initial, params, scheme, max(m_values) - 1, policy, **kwargs)
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
        for tau in taus:
            try:
                rec = one_round(state, params, float(tau))
                nbar, prob = mean_occupation(rec.post_state), rec.probability
            except ZeroProbabilityError:
                nbar = None
                prob = round_probability(state, params, scheme, float(tau))
            rows.append((scheme, m, float(tau), nbar, prob, marker_analytic, marker_numeric))
    write_csv(
        out,
        ["scheme", "m", "tau", "nbar", "prob", "tau_opt_analytic", "tau_opt_numeric"],
        rows,
    )


def _trajectory_rows(trajectory, params: SystemParams):
    from .thermo import snapshot

    initial = trajectory.initial_state
    first = snapshot(initial, params)
    rows = [(
        0, None, None, 1.0,
        first.energy, first.ergotropy, first.ratio, None,
        mean_occupation(initial), occupation_variance(initial),
        _safe_fano(initial),
    )]
    cumulative = 1.0
    for m, rec in enumerate(trajectory.rounds, start=1):
        cumulative *= rec.probability
        rows.append((
            m, rec.tau, rec.probability, cumulative,
            rec.thermo.energy, rec.thermo.ergotropy, rec.thermo.ratio, rec.thermo.power,
            mean_occupation(rec.post_state), occupation_variance(rec.post_state),
            _safe_fano(rec.post_state),
        ))
    return rows


def _safe_fano(state: BatteryState):
    try:
        return fano_ratio(state)
    except ValueError:
        return None


PROTOCOL_HEADER = [
    "m", "tau", "prob", "cumulative_prob", "energy", "ergotropy",
    "ratio", "power", "mean", "variance", "fano",
]


def _write_histograms(trajectory, at_rounds, path: Path) -> None:
    rows = []
    states = {0: trajectory.initial_state}
    for m, rec in enumerate(trajectory.rounds, start=1):
        states[m] = rec.post_state
    for m in at_rounds:
        if m not in states:
            continue
        for level, pop in enumerate(states[m].populations):
            rows.append((m, level, float(pop)))
    write_csv(path, ["m", "level", "population"], rows)


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


def _protocol_call(config: dict, scheme: str, policy: str, n_rounds: int, policies=POLICIES,
                   tau_schedule=None) -> tuple[tuple, dict, object]:
    """Arguments of run_protocol for one config, and the interval chooser
    they resolve to; a mistake in the scheme, its charger or the policy
    (one of ``policies``) is a config error, raised before any round runs."""
    schedule = config["schedule"]
    try:
        params = _build_params(config)
        charger = _build_charger(config) if scheme == "general" else None
        inputs = dict(fixed_tau=schedule["fixed_tau"], x=float(schedule["x"]), objective=schedule["objective"],
                      tau_max=schedule["tau_max"], grid_points=schedule["grid_points"])
        _scheme_charger(scheme, charger)
        choose_tau = _interval_chooser(policy, scheme, params, n_rounds, policies, tau_schedule=tau_schedule,
                                       **inputs)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    return (thermal_state(params), params, scheme, n_rounds, policy), dict(charger=charger, **inputs), choose_tau


def cmd_protocol(config: dict, out: Path, experiment: str) -> None:
    """One closed-system run of ``schedule.scheme``. ``histograms`` writes
    the histograms alone, to ``out``; ``power_on`` and ``power_off`` run
    only their own scheme and write the trajectory, its histograms and the
    metadata sidecar."""
    schedule = config["schedule"]
    scheme = schedule["scheme"]
    if experiment != "histograms" and scheme != experiment:
        raise ConfigError(f"{experiment} runs schedule.scheme={experiment!r}, got {scheme!r}")
    args, kwargs, _ = _protocol_call(config, scheme, schedule["policy"], schedule["n_rounds"])
    attempts = None
    if schedule["sampling"]:
        trajectory, attempts = sample_protocol(*args, seed=config["seed"], **kwargs)
    else:
        trajectory = run_protocol(*args, **kwargs)
    if experiment == "histograms":
        _write_histograms(trajectory, schedule["histogram_at"], out)
        return
    write_csv(out, PROTOCOL_HEADER, _trajectory_rows(trajectory, trajectory.params))
    _write_histograms(trajectory, schedule["histogram_at"], out.with_name(out.stem + "_hist.csv"))
    _write_metadata(trajectory, config, experiment, out.with_suffix(".json"), attempts)


def cmd_lindblad(config: dict, out: Path) -> None:
    from .lindblad import dissipative_protocol

    schedule = config["schedule"]
    diss = _build_dissipation(config, _build_params(config))
    tolerances = {key: float(config["dissipation"][key]) for key in ("rtol", "atol")}
    for key, value in tolerances.items():
        if not (math.isfinite(value) and value > 0.0):
            raise ConfigError(f"dissipation.{key} must be finite and > 0, got {value}")
    scheme, policy, n_rounds = schedule["scheme"], schedule["policy"], schedule["n_rounds"]
    tau_schedule = None
    if scheme == "power_off" or policy == "power_off_compromise":
        # mirror the closed-system compromise schedule so the damped run
        # is directly comparable; the compromise of another scheme is a
        # config error
        args, kwargs, _ = _protocol_call(config, scheme, "power_off_compromise", n_rounds)
        tau_schedule = list(run_protocol(*args, **kwargs).taus())
        scheme, policy, n_rounds = "power_off", "schedule", len(tau_schedule)
    (initial, params, *args), kwargs, _ = _protocol_call(config, scheme, policy, n_rounds, DAMPED_POLICIES,
                                                         tau_schedule)
    trajectory = dissipative_protocol(initial, params, diss, *args, charger=kwargs["charger"],
                                      fixed_tau=kwargs["fixed_tau"], tau_schedule=tau_schedule,
                                      **tolerances)
    write_csv(out, PROTOCOL_HEADER, _trajectory_rows(trajectory, params))
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


def main(argv=None) -> int:
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
    args = parser.parse_args(argv)

    try:
        config = load_config(args.experiment, args.config, args.set)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1

    out = args.out or config["output_path"]
    if out is None and args.experiment != "validate":
        out = f"qbattery_{args.experiment}.csv"
    out_path = Path(out) if out is not None else None
    if out_path is not None and not out_path.parent.is_dir():
        print(f"config error: output directory {out_path.parent} does not exist",
              file=sys.stderr)
        return 1

    try:
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
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except Exception as err:  # runtime failures map to a distinct exit code
        print(f"error: {err}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

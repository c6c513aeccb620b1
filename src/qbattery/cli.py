"""Command-line entry point for reproducible experiment runs.

Every command reads a JSON config (all fields optional, defaults mirror
the standard simulation setup), applies ``--set key=value`` overrides,
and writes deterministic CSV artifacts plus, for protocol runs, a JSON
metadata sidecar. See docs/outputs.md for the per-command CSV schemas.

Exit codes: 0 success, 1 config error, 2 validation failure, 3 runtime
error.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from .lindblad import DissipationParams, dissipative_protocol
from .rounds import _mean_ratios
from .scheduler import run_protocol, sample_protocol, tau_opt_analytic, tau_opt_numeric, tau_opt_power_off
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
from .validate import run_all_checks

SCHEMA_VERSION = 1

EXPERIMENTS = (
    "sweep_theta_q",
    "interval_sweep",
    "power_on",
    "power_off",
    "histograms",
    "lindblad",
    "validate",
)

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
    node[parts[-1]] = value


def load_config(experiment: str, config_path: str | None, sets: list[str]) -> dict:
    config = _merge(_BASE_CONFIG, _EXPERIMENT_OVERRIDES[experiment])
    if config_path is not None:
        try:
            with open(config_path) as fh:
                user = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            raise ConfigError(f"cannot read config {config_path}: {err}") from err
        if user.get("schema", SCHEMA_VERSION) != SCHEMA_VERSION:
            raise ConfigError(f"unsupported config schema {user.get('schema')!r}")
        config = _merge(config, user)
    for assignment in sets:
        _apply_set(config, assignment)
    return config


def _build_params(config: dict) -> SystemParams:
    p = config["params"]
    beta = p["beta"]
    if isinstance(beta, str):
        if beta not in ("inf", "Infinity"):
            raise ConfigError(f"beta must be a number or 'inf', got {beta!r}")
        beta = math.inf
    try:
        return SystemParams(
            n_levels=int(p["n_levels"]),
            g=float(p["g"]),
            delta=float(p["delta"]),
            omega_c=float(p["omega_c"]),
            beta=float(beta),
        )
    except ValueError as err:
        raise ConfigError(str(err)) from err


def _build_dissipation(config: dict, params: SystemParams) -> DissipationParams:
    """Thermal bath occupations for ``params`` unless the config sets them."""
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


def write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# schema={SCHEMA_VERSION}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def cmd_sweep_theta_q(config: dict, out: Path) -> None:
    params = _build_params(config)
    sweep = config["sweep"]
    thetas = np.linspace(0.0, math.pi, int(sweep["theta_points"]))
    qs = np.linspace(0.0, 1.0, int(sweep["q_points"]))
    c_values = [float(c) for c in sweep["c_values"]]
    for c in c_values:
        ChargerSpec(q=0.0, theta=0.0, c=c)  # rejects a coherence outside [0, 1]
    c, theta, q = (grid.ravel() for grid in np.meshgrid(c_values, thetas, qs, indexing="ij"))
    tau = float(sweep["tau"])
    if not (math.isfinite(tau) and tau >= 0.0):
        raise ConfigError(f"sweep.tau must be finite and >= 0, got {tau}")
    populations = thermal_state(params).populations
    ratio = _mean_ratios(populations, params, tau, q, theta, c)
    write_csv(out, ["theta", "q", "c", "ratio"], zip(theta, q, c, ratio))


def _prepared_states(initial: BatteryState, params: SystemParams, scheme: str, rounds: int,
                     schedule: dict) -> tuple[list[tuple[BatteryState, float]], str | None]:
    """``initial`` and the states after 1, 2, ... ``rounds`` optimally
    scheduled rounds of one run, each with the cumulative probability
    accumulated in round order, and the run's truncation reason when it
    stopped early."""
    policy = "numeric" if scheme == "power_on" else "power_off_compromise"
    trajectory = run_protocol(
        initial, params, scheme, rounds, policy,
        x=float(schedule["x"]), objective=schedule["objective"],
        tau_max=schedule["tau_max"], grid_points=int(schedule["grid_points"]),
    )
    prepared = [(initial, 1.0)]
    for rec in trajectory.rounds:
        prepared.append((rec.post_state, prepared[-1][1] * rec.probability))
    return prepared, trajectory.truncation_reason


def cmd_interval_sweep(config: dict, out: Path) -> None:
    from .propagator import ZeroProbabilityError
    from .rounds import power_off_round, power_on_round
    from .scheduler import round_probability

    params = _build_params(config)
    sweep = config["sweep"]
    schedule = config["schedule"]
    scheme = schedule["scheme"]
    if scheme not in ("power_on", "power_off"):
        raise ConfigError(f"interval_sweep needs a named scheme, got {scheme!r}")
    one_round = power_on_round if scheme == "power_on" else power_off_round
    taus = np.linspace(0.0, float(sweep["tau_max"]), int(sweep["tau_points"]) + 1)[1:]
    m_values = [int(m) for m in sweep["m_values"]]
    if any(m < 1 for m in m_values):
        raise ConfigError(f"sweep.m_values must be >= 1, got {sweep['m_values']}")
    grid = dict(tau_max=schedule["tau_max"], grid_points=int(schedule["grid_points"]))
    prepared, reason = [(thermal_state(params), 1.0)], None
    rows = []
    for m in m_values:
        if m > 1 and len(prepared) == 1:
            # one run prepares every m, made where the first m > 1 needs it
            prepared, reason = _prepared_states(prepared[0][0], params, scheme, max(m_values) - 1, schedule)
        if m > len(prepared):
            raise ConfigError(f"cannot prepare the round-{m} state: {reason}")
        state, cumulative = prepared[m - 1]
        marker_analytic = tau_opt_analytic(state, params) if scheme == "power_on" else None
        if scheme == "power_on":
            marker_numeric = tau_opt_numeric(state, params, scheme, **grid)
        else:
            marker_numeric = tau_opt_power_off(
                state, params, cumulative, x=float(schedule["x"]),
                objective=schedule["objective"], **grid,
            )
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
            rows.append((int(m), level, float(pop)))
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


def _protocol_call(config: dict, scheme: str) -> tuple[tuple, dict]:
    """Positional and keyword arguments of run_protocol for one config."""
    params = _build_params(config)
    schedule = config["schedule"]
    args = (thermal_state(params), params, scheme, int(schedule["n_rounds"]), schedule["policy"])
    kwargs = dict(
        charger=_build_charger(config) if scheme == "general" else None,
        fixed_tau=schedule["fixed_tau"],
        x=float(schedule["x"]),
        objective=schedule["objective"],
        tau_max=schedule["tau_max"],
        grid_points=int(schedule["grid_points"]),
    )
    return args, kwargs


def cmd_protocol(config: dict, out: Path, experiment: str) -> None:
    schedule = config["schedule"]
    scheme = experiment if experiment in ("power_on", "power_off") else schedule["scheme"]
    args, kwargs = _protocol_call(config, scheme)
    attempts = None
    if schedule["sampling"]:
        trajectory, attempts = sample_protocol(*args, seed=int(config["seed"]), **kwargs)
    else:
        trajectory = run_protocol(*args, **kwargs)
    write_csv(out, PROTOCOL_HEADER, _trajectory_rows(trajectory, trajectory.params))
    _write_histograms(trajectory, schedule["histogram_at"], out.with_name(out.stem + "_hist.csv"))
    _write_metadata(trajectory, config, experiment, out.with_suffix(".json"), attempts)


def cmd_histograms(config: dict, out: Path) -> None:
    args, kwargs = _protocol_call(config, config["schedule"]["scheme"])
    _write_histograms(run_protocol(*args, **kwargs), config["schedule"]["histogram_at"], out)


def cmd_lindblad(config: dict, out: Path) -> None:
    params = _build_params(config)
    schedule = config["schedule"]
    d = config["dissipation"]
    diss = _build_dissipation(config, params)
    scheme = schedule["scheme"]
    policy = schedule["policy"]
    tau_schedule = None
    if scheme == "power_off" or policy == "power_off_compromise":
        # mirror the closed-system compromise schedule so the damped run
        # is directly comparable
        args, kwargs = _protocol_call(config, "power_off")
        tau_schedule = list(run_protocol(*args[:4], "power_off_compromise", **kwargs).taus())
        policy = "schedule"
        scheme = "power_off"
    trajectory = dissipative_protocol(
        thermal_state(params), params, diss, scheme,
        n_rounds=int(schedule["n_rounds"]) if tau_schedule is None else len(tau_schedule),
        interval_policy=policy,
        charger=_build_charger(config) if scheme == "general" else None,
        fixed_tau=schedule["fixed_tau"],
        tau_schedule=tau_schedule,
        rtol=float(d["rtol"]), atol=float(d["atol"]),
    )
    write_csv(out, PROTOCOL_HEADER, _trajectory_rows(trajectory, params))
    _write_metadata(trajectory, config, "lindblad", out.with_suffix(".json"))


def cmd_validate(config: dict, out: Path | None) -> int:
    results = run_all_checks(fast=bool(config["validate_fast"]))
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
        elif args.experiment in ("power_on", "power_off"):
            cmd_protocol(config, out_path, args.experiment)
        elif args.experiment == "histograms":
            cmd_histograms(config, out_path)
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

"""Spans around the calls into each qbattery layer, recorded from outside.

``Tracer.installed()`` replaces every public function of the layer modules
in every ``qbattery`` namespace that holds a reference to it (so
``qbattery.scheduler.power_on_round`` and ``qbattery.rounds.power_on_round``
are both wrapped), plus ``BatteryState.from_matrix`` and the ``solve_ivp``
that ``qbattery.lindblad`` calls (counted: right-hand-side evaluations and
seconds), and restores the originals on exit. Each call records a span:
name, start, end and parent. Spans stay in memory until the run ends; a
span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from contextlib import contextmanager
from types import FunctionType

import numpy as np

LAYERS = ("states", "propagator", "rounds", "scheduler", "thermo", "lindblad", "cli")


class Tracer:
    """In-memory span recorder; ``clock`` is replaceable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = {}
        self._stack = [-1]

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(self.clock())
        return index

    def close(self, index: int) -> None:
        self.end[index] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield index
        finally:
            self.close(index)

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording a span per call; ``after(result, args)`` may
        add counters once the call has returned."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(result, args)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap the layer functions for the duration of the block."""
        patches = _patch_targets(self)
        for owner, attr, _, wrapped in patches:
            setattr(owner, attr, wrapped)
        try:
            yield self
        finally:
            for owner, attr, original, _ in reversed(patches):
                setattr(owner, attr, original)

    def table(self) -> dict[str, dict]:
        """Per span name: call count, total self seconds and durations."""
        names = np.array(self.name_id, dtype=np.int32)
        parents = np.array(self.parent, dtype=np.int32)
        duration = np.array(self.end) - np.array(self.start)
        n = duration.size
        covered = np.zeros(n)
        has_parent = parents >= 0
        np.add.at(covered, parents[has_parent], duration[has_parent])
        self_time = duration - covered
        out = {}
        for nid, name in enumerate(self.names):
            mask = names == nid
            out[name] = {
                "calls": int(mask.sum()),
                "self_s": float(self_time[mask].sum()),
                "durations": duration[mask],
            }
        return out


def _layer_modules():
    import qbattery
    modules = [qbattery]
    for layer in LAYERS:
        __import__(f"qbattery.{layer}")
        modules.append(sys.modules[f"qbattery.{layer}"])
    return modules


def _patch_targets(tracer: Tracer) -> list[tuple[object, str, object, object]]:
    """(owner, attribute, original, wrapper) for every traced reference."""
    modules = _layer_modules()
    lindblad = sys.modules["qbattery.lindblad"]
    states = sys.modules["qbattery.states"]
    cli = sys.modules["qbattery.cli"]
    patches = []
    for module in modules:
        for attr, value in vars(module).items():
            if attr.startswith("_") or not isinstance(value, FunctionType):
                continue
            home, _, layer = value.__module__.rpartition(".")
            if home != "qbattery" or layer not in LAYERS:
                continue
            name = f"{layer}.{value.__name__}"
            after = _count_csv_bytes(tracer) if value is cli.write_csv else None
            patches.append((module, attr, value, tracer.wrap(name, value, after)))

    solve_ivp = lindblad.solve_ivp

    @functools.wraps(solve_ivp)
    def counted_solve_ivp(*args, **kwargs):
        # counted, not a span, so that integrate's self time keeps the
        # integration it exists for
        t0 = tracer.clock()
        result = solve_ivp(*args, **kwargs)
        tracer.count("lindblad.solve_ivp_s", tracer.clock() - t0)
        tracer.count("lindblad.rhs_evals", result.nfev)
        return result

    patches.append((lindblad, "solve_ivp", solve_ivp, counted_solve_ivp))
    from_matrix = states.BatteryState.__dict__["from_matrix"]
    patches.append((states.BatteryState, "from_matrix", from_matrix,
                    classmethod(tracer.wrap("states.from_matrix", from_matrix.__func__))))
    return patches


def _count_csv_bytes(tracer: Tracer):
    def after(result, args):
        tracer.count("cli.write_csv.bytes", os.path.getsize(args[0]))
    return after


# Span groups behind the per-layer metrics.
TAU_OPT = ("scheduler.tau_opt_analytic", "scheduler.tau_opt_numeric", "scheduler.tau_opt_power_off")
OBJECTIVES = ("scheduler.round_probability", "scheduler.power_off_objective")
DIAG_ROUNDS = ("rounds.power_on_round", "rounds.power_off_round")
SWEEP_POINT = ("rounds.charge_discharge_populations", "rounds.coherence_population")
COMMANDS = ("sweep_theta_q", "interval_sweep", "power_on", "power_off", "histograms", "lindblad")


def layer_metrics(tracer: Tracer, jobs: int, lindblad_rounds: int, grid_points: int,
                  truncations: int, overhead_ratio: float) -> dict[str, float]:
    """Per-layer metrics of ``jobs`` traced jobs.

    Counts and seconds are per job; percentiles run over every call; a
    ratio states its base in its name. Groups that a workload never enters
    read 0. ``lindblad_rounds``, ``grid_points`` and ``truncations`` are
    totals over the traced jobs, taken from the checked outputs.
    """
    table = tracer.table()

    def group(names):
        rows = [table[n] for n in names if n in table]
        calls = sum(r["calls"] for r in rows)
        self_s = sum(r["self_s"] for r in rows)
        durations = np.concatenate([r["durations"] for r in rows]) if rows else np.empty(0)
        return calls, self_s, durations

    def pct(durations, q, scale):
        return float(np.percentile(durations, q)) * scale if durations.size else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict[str, float] = {}

    def add(prefix, names, percentiles=()):
        calls, self_s, durations = group(names)
        m[f"{prefix}.calls"] = calls / jobs
        m[f"{prefix}.self_s"] = self_s / jobs
        for key, q, scale in percentiles:
            m[f"{prefix}.{key}"] = pct(durations, q, scale)
        return calls, durations

    tau_calls, _ = add("scheduler.tau_opt", TAU_OPT, (("p50_ms", 50, 1e3), ("p90_ms", 90, 1e3)))
    evals = group(OBJECTIVES)[0]
    m["scheduler.objective_evals"] = evals / jobs
    m["scheduler.evals_per_tau_opt"] = ratio(evals, tau_calls)
    m["scheduler.truncations"] = truncations / jobs
    builds = group(("propagator.rabi_frequency",))[0]
    m["propagator.amplitude_builds"] = builds / jobs
    add("propagator.joint_unitary", ("propagator.joint_unitary",))
    diag_calls, _ = add("rounds.diag_round", DIAG_ROUNDS, (("p50_us", 50, 1e6),))
    general_calls, _ = add("rounds.general_round", ("rounds.general_round",), (("p50_ms", 50, 1e3),))
    m["propagator.useful_build_ratio"] = ratio(diag_calls + general_calls + grid_points, builds)
    add("rounds.sweep_point", SWEEP_POINT)
    add("states.from_matrix", ("states.from_matrix",))
    snapshots, _ = add("thermo.snapshot", ("thermo.snapshot",), (("p50_us", 50, 1e6),))
    passive = group(("thermo.passive_state",))[0]
    m["thermo.passive_state.calls"] = passive / jobs
    m["thermo.snapshots_per_passive"] = ratio(snapshots, passive)
    integrations, _ = add("lindblad.integrate", ("lindblad.integrate",), (("p50_s", 50, 1.0),))
    rhs = tracer.counters.get("lindblad.rhs_evals", 0.0)
    m["lindblad.rhs_evals"] = rhs / jobs
    m["lindblad.rhs_evals_per_round"] = ratio(rhs, integrations)
    m["lindblad.rhs_ms"] = ratio(tracer.counters.get("lindblad.solve_ivp_s", 0.0), rhs) * 1e3
    m["lindblad.round_s"] = ratio(group(("lindblad.dissipative_protocol",))[2].sum(), lindblad_rounds)
    for command in COMMANDS:
        m[f"cli.{command}.total_s"] = group((f"call:{command}",))[2].sum() / jobs
    sweep_s = m["cli.sweep_theta_q.total_s"] * jobs
    m["cli.sweep_theta_q.grid_points_per_s"] = ratio(grid_points, sweep_s)
    add("cli.write_csv", ("cli.write_csv",))
    m["cli.write_csv.bytes"] = tracer.counters.get("cli.write_csv.bytes", 0.0) / jobs
    m["trace.overhead_ratio"] = overhead_ratio
    return {name: float(value) for name, value in m.items()}

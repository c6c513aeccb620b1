"""Tests of the benchmark itself.

Run from the repository root:

    python3 -m pytest bench/test_bench.py -q

They use small ladders, so they take seconds, and need no frozen
reference.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import oracles  # noqa: E402
import tracing  # noqa: E402
from worker import check_job, run_job  # noqa: E402
from workloads import Call  # noqa: E402


def test_self_time_subtracts_direct_children_on_a_nested_call():
    ticks = iter([0.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 10.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    with tracer.span("outer"):            # [0, 10]
        with tracer.span("inner"):        # [2, 5]
            with tracer.span("leaf"):     # [3, 4]
                pass
        with tracer.span("inner"):        # [6, 7]
            pass
    table = tracer.table()
    assert table["outer"]["calls"] == 1
    assert table["outer"]["self_s"] == pytest.approx(10.0 - 3.0 - 1.0)
    assert table["inner"]["calls"] == 2
    assert table["inner"]["self_s"] == pytest.approx((3.0 - 1.0) + 1.0)
    assert table["leaf"]["self_s"] == pytest.approx(1.0)
    assert list(tracer.parent) == [-1, 0, 1, 0]


def test_installed_tracer_wraps_every_reference_and_restores_them():
    import qbattery.rounds
    import qbattery.scheduler
    from qbattery.states import BatteryState

    originals = (qbattery.scheduler.power_on_round, qbattery.rounds.power_on_round,
                 BatteryState.__dict__["from_matrix"])
    tracer = tracing.Tracer()
    with tracer.installed():
        assert qbattery.scheduler.power_on_round is not originals[0]
        assert qbattery.rounds.power_on_round is not originals[1]
    assert (qbattery.scheduler.power_on_round, qbattery.rounds.power_on_round,
            BatteryState.__dict__["from_matrix"]) == originals


SMALL = ("params.n_levels=20", "schedule.n_rounds=4", "schedule.histogram_at=[0,4]",
         "sweep.theta_points=5", "sweep.q_points=4", "sweep.m_values=[1,2]",
         "sweep.tau_points=10")


def small_steps():
    from qbattery.cli import load_config

    calls = (
        Call("power_on", "power_on", ("schedule.policy=numeric",)),
        Call("power_off", "power_off"),
        Call("sweep", "sweep_theta_q"),
        Call("interval", "interval_sweep"),
        Call("damped", "lindblad", ("schedule.n_rounds=1",)),
    )
    return [(call, list(SMALL + call.sets), load_config(call.command, None, list(SMALL + call.sets)))
            for call in calls]


def test_traced_and_untraced_jobs_write_identical_bytes(tmp_path):
    steps = small_steps()
    first: dict[str, bytes] = {}
    plain = run_job(steps, tmp_path)
    check_job(plain, steps, tmp_path, np.random.default_rng(0), None, first)
    tracer = tracing.Tracer()
    traced = run_job(steps, tmp_path, tracer)
    check_job(traced, steps, tmp_path, np.random.default_rng(1), None, first)
    assert [c.error for c in plain.calls + traced.calls] == [None] * (2 * len(steps))
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    metrics = tracing.layer_metrics(tracer, jobs=1, lindblad_rounds=1, grid_points=40,
                                    truncations=0, overhead_ratio=1.0)
    assert set(metrics) == {m["name"] for m in declared}
    table = tracer.table()
    # the protocol's 4 rounds, 1 interval-sweep preparation round, 2 x 10 scanned intervals
    assert table["rounds.power_on_round"]["calls"] == 4 + 1 + 2 * 10
    assert table["lindblad.integrate"]["calls"] == 1
    assert tracer.counters["lindblad.rhs_evals"] > 0


def test_warning_fails_the_call(tmp_path, monkeypatch):
    import warnings

    import qbattery.cli as cli

    steps = small_steps()[:1]
    original = cli.write_csv

    def warning_write_csv(*args):
        warnings.warn("drift", RuntimeWarning)
        return original(*args)

    monkeypatch.setattr(cli, "write_csv", warning_write_csv)
    job = run_job(steps, tmp_path)
    assert job.calls[0].error == "warning: RuntimeWarning: drift"


def corrupt_prob(path: Path) -> None:
    lines = path.read_text().splitlines()
    cells = lines[3].split(",")
    cells[2] = "1.5"
    lines[3] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_corrupted_csv_counts_as_failed(tmp_path):
    steps = small_steps()[:1]
    first: dict[str, bytes] = {}
    job = run_job(steps, tmp_path)
    check_job(job, steps, tmp_path, np.random.default_rng(0), None, first)
    assert job.calls[0].error is None
    corrupt_prob(tmp_path / "power_on.csv")
    with pytest.raises(oracles.OracleError, match="outside"):
        oracles.check_call(steps[0][0], tmp_path, steps[0][2], np.random.default_rng(0))
    # the same corruption inside a job run is a failed call, not a crash
    job = run_job(steps, tmp_path)
    corrupt_prob(tmp_path / "power_on.csv")
    job.calls[0].error = None
    check_job(job, steps, tmp_path, np.random.default_rng(0), None, {})
    assert job.calls[0].error is not None and "outside" in job.calls[0].error


def test_output_that_moves_from_its_reference_fails(tmp_path):
    steps = small_steps()[:1]
    run_job(steps, tmp_path)
    reference = {name: oracles.summarize(tmp_path / name)
                 for name in ("power_on.csv", "power_on_hist.csv", "power_on.json")}
    oracles.check_reference(steps[0][0], tmp_path, reference)
    path = tmp_path / "power_on.csv"
    lines = path.read_text().splitlines()
    cells = lines[-1].split(",")
    cells[4] = repr(float(cells[4]) * (1 + 1e-4))   # energy of the last round
    lines[-1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(oracles.OracleError, match="energy"):
        oracles.check_reference(steps[0][0], tmp_path, reference)


def write_sweep(path: Path, ratios: np.ndarray) -> None:
    rows = [f"{i * 1e-3!r},0.3,1.0,{float(r)!r}" for i, r in enumerate(ratios)]
    path.write_text("\n".join(["# schema=1", "theta,q,c,ratio"] + rows) + "\n")


@pytest.mark.parametrize("row", [0, 12345, 20401])
def test_one_sweep_row_moved_by_a_percent_fails_its_reference(tmp_path, row):
    # the row count of the 101 x 101 x 2 sweep, ratios of about one
    ratios = np.random.default_rng(0).uniform(0.9, 1.1, size=20402)
    path = tmp_path / "sweep_theta_q.csv"
    write_sweep(path, ratios)
    reference = oracles.summarize(path)
    write_sweep(path, ratios * (1 + 1e-6))
    assert oracles.compare_to_reference(oracles.summarize(path), reference) == []
    moved = ratios.copy()
    moved[row] *= 1.01
    write_sweep(path, moved)
    problems = oracles.compare_to_reference(oracles.summarize(path), reference)
    first = row // oracles.BLOCK_ROWS * oracles.BLOCK_ROWS
    assert problems and problems[0].startswith(f"ratio: rows {first}..")


def test_sweep_spot_check_catches_a_wrong_ratio(tmp_path):
    steps = small_steps()
    call, _, config = steps[2]
    run_job([steps[2]], tmp_path)
    path = tmp_path / "sweep.csv"
    lines = path.read_text().splitlines()
    rows = [line.split(",") for line in lines[2:]]
    for row in rows:
        row[3] = repr(float(row[3]) * (1 + 1e-6))
    path.write_text("\n".join(lines[:2] + [",".join(r) for r in rows]) + "\n")
    with pytest.raises(oracles.OracleError, match="dense oracle"):
        oracles.check_call(call, tmp_path, config, np.random.default_rng(0))


def test_reference_file_covers_every_workload_and_variant():
    from workloads import VARIANTS, WORKLOADS, outputs_of

    reference = json.loads((BENCH / "reference.json").read_text())["workloads"]
    for workload, calls in WORKLOADS.items():
        variants = reference[workload]["variants"]
        assert len(variants) == VARIANTS
        for variant in variants:
            assert set(variant["outputs"]) == {n for c in calls for n in outputs_of(c)}

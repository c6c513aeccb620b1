"""qbattery benchmark: one workload, one seed, end-to-end or traced.

Run from the repository root:

    python3 bench/run.py --workload closed_charging --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it starts ``SETUP_PROBES`` fresh processes that only
set up, then one workload process that sets up and runs jobs for
``--seconds`` seconds (see ``worker.py``), and reports the end-to-end
metrics: set-up time (median over every set-up), median job time,
protocol rounds per second and peak resident memory. With ``--trace 1``
it skips the probes and reports the per-layer metrics of ``tracing.py``.

The last line of standard output is the result, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``, whose names and
units are the ones ``BENCHMARK.json`` declares; the line before it is a
report with the provenance, job samples, failures and the ROADMAP baseline
crosswalk, which also goes to ``.bench_out/``. The process exits non-zero
without a result when the checkout has no ``src/qbattery``, a set-up fails
or the run overruns its deadline.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
SETUP_PROBES = 2
# The whole run, probes included, must end well inside three minutes.
DEADLINE_S = 170.0

# Each row of the ROADMAP baseline table and the metric that now measures it.
CROSSWALK = {
    "Tier-1 suite": "unmeasured: not a workload; its cost is criterion 10, "
                    "whose damped N=100 round is damped_charging job_s and lindblad.round_s",
    "cli sweep_theta_q": "coherent_charger cli.sweep_theta_q.total_s, "
                         "cli.sweep_theta_q.grid_points_per_s",
    "cli validate": "unmeasured: no workload runs validate",
    "cli interval_sweep": "closed_charging cli.interval_sweep.total_s",
    "cli power_off": "closed_charging cli.power_off.total_s",
    "cli power_on / histograms": "closed_charging cli.power_on.total_s (numeric policy, "
                                 "N=100 and N=400); coherent_charger cli.histograms.total_s "
                                 "(general scheme); the analytic power_on is unmeasured",
    "cli lindblad, 3 rounds": "damped_charging cli.lindblad.total_s (3 power-on + 2 power-off rounds)",
    "_amplitude_vectors (N=100)": "propagator.amplitude_builds (count of rabi_frequency calls); "
                                  "its time is unmeasured because it is private",
    "power_on_round": "rounds.diag_round.p50_us",
    "snapshot": "thermo.snapshot.p50_us",
    "tau_opt_numeric": "closed_charging scheduler.tau_opt.p50_ms",
    "tau_opt_power_off": "closed_charging scheduler.tau_opt.p90_ms (mixed with tau_opt_numeric)",
    "general_round (N=100, dense 202x202 joint)": "coherent_charger rounds.general_round.p50_ms",
    "run_protocol power_on 80 rounds": "closed_charging cli.power_on.total_s (numeric); "
                                       "analytic unmeasured",
    "one damped round, integrate (N=100)": "damped_charging lindblad.integrate.p50_s, "
                                           "lindblad.rhs_evals_per_round, lindblad.rhs_ms",
}


class RunError(RuntimeError):
    pass


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, or None when it is not its own git work tree."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != root.resolve():
            return None
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return head.stdout.strip() or None


def spawn_worker(root: Path, env: dict, args, deadline: float, setup_only: bool) -> dict:
    """Run ``worker.py`` to completion and parse its last output line."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise RunError("the workload process overran the deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise RunError(f"the workload process exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qbattery benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    root = Path.cwd()
    src = root / "src"
    if not (src / "qbattery" / "cli.py").is_file():
        print(f"error: {root} has no src/qbattery; run from the repository root", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads

    try:
        setups = [] if args.trace else [
            spawn_worker(root, env, args, deadline, setup_only=True)["setup_s"]
            for _ in range(SETUP_PROBES)
        ]
        result = spawn_worker(root, env, args, deadline, setup_only=False)
    except (RunError, json.JSONDecodeError, IndexError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    setups.append(result["setup_s"])

    if args.trace:
        metrics = result["per_layer"]
    else:
        metrics = dict(result["metrics"], setup_s=statistics.median(setups))
    spec = json.loads((root / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    if {m["name"] for m in declared} != set(metrics):
        print(f"error: measured metrics {sorted(metrics)} differ from BENCHMARK.json", file=sys.stderr)
        return 1
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "variant": result["variant"],
        "inputs": result["inputs"],
        "setup_s_samples": setups,
        "job_s_samples": result["job_s_samples"],
        "traced_job_s_samples": result.get("traced_job_s_samples"),
        "error_rate": result["failed"] / result["attempted"],
        "failures": result["failures"],
        "truncations": result["truncations"],
        "provenance": dict(result["provenance"], git_commit=git_commit(root),
                           seed=args.seed, blas_threads_requested=int(threads)),
        "roadmap_crosswalk": CROSSWALK,
    }
    final = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps({"report": report, "result": final}, indent=2) + "\n")
    print(json.dumps({"report": report}))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

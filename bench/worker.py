"""One workload's process: set up, run jobs for a fixed time, check outputs.

Started by ``run.py`` from the repository root, with ``src`` on
``PYTHONPATH`` and the BLAS thread count already in the environment. Set-up
is everything from the process start (``--spawned-at``, a
``time.monotonic`` reading taken by the parent just before the spawn) to
ready: importing ``qbattery.cli``, generating the inputs and one untimed
warm-up job that runs every call of the workload once, at its ladder size
but with one round and small grids (see ``WARMUP_SETS``). ``--setup-only``
stops there and prints the set-up time.

Otherwise the process runs jobs back to back until ``--seconds`` have
passed. With ``--trace 1`` it alternates untraced and traced jobs, so one
run gives the per-layer numbers, the tracing overhead and a check that
tracing leaves every output byte-identical. The last line of standard
output is one JSON object with the job samples, counts and checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import qbattery.cli as cli
import oracles
import tracing
from workloads import VARIANTS, WARMUP_SETS, WORKLOADS, call_sets, outputs_of

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_FILE = BENCH_DIR / "reference.json"
ROUND_COMMANDS = ("power_on", "power_off", "histograms", "lindblad")


@dataclass
class CallResult:
    label: str
    command: str
    wall_s: float
    error: str | None = None
    outcome: oracles.CallOutcome = oracles.CallOutcome()


@dataclass
class Job:
    traced: bool
    calls: list[CallResult] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.calls)


def plan(workload: str, inputs: dict, warmup: bool = False) -> list[tuple]:
    """(call, ``--set`` list, resolved config) for every call of a job,
    or of the warm-up job."""
    steps = []
    for call in WORKLOADS[workload]:
        default_beta = cli.load_config(call.command, None, list(call.sets))["params"]["beta"]
        sets = call_sets(call, inputs, default_beta)
        if warmup:
            sets += list(WARMUP_SETS) + list(call.warmup)
        steps.append((call, sets, cli.load_config(call.command, None, sets)))
    return steps


def rounds_per_s(job: Job) -> float:
    """Post-selected rounds per second of the job's protocol commands."""
    protocol = [c for c in job.calls if c.command in ROUND_COMMANDS]
    return sum(c.outcome.rounds for c in protocol) / sum(c.wall_s for c in protocol)


def run_call(call, sets: list[str], job_dir: Path, tracer=None) -> CallResult:
    """One CLI call in process; warnings and exceptions fail it.

    ``cli.main`` is looked up at call time so that an installed tracer's
    wrapper is the one called."""
    argv = [call.command, "--out", str(job_dir / f"{call.label}.csv")]
    for s in sets:
        argv += ["--set", s]
    error = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            if tracer is None:
                code = cli.main(argv)
            else:
                with tracer.span(f"call:{call.command}"):
                    code = cli.main(argv)
        except Exception as err:  # a crashing call is a failed operation, not a crashed run
            code, error = None, f"{type(err).__name__}: {err}"
        wall = time.perf_counter() - start
    if error is None and code != 0:
        error = f"exit code {code}"
    if error is None and caught:
        error = f"warning: {caught[0].category.__name__}: {caught[0].message}"
    return CallResult(call.label, call.command, wall, error)


def run_job(steps, job_dir: Path, tracer=None) -> Job:
    job = Job(traced=tracer is not None)
    if tracer is None:
        job.calls = [run_call(call, sets, job_dir) for call, sets, _ in steps]
        return job
    with tracer.installed(), tracer.span("job"):
        job.calls = [run_call(call, sets, job_dir, tracer) for call, sets, _ in steps]
    return job


def check_job(job: Job, steps, job_dir: Path, rng, references: dict | None,
              first_outputs: dict[str, bytes]) -> None:
    """Check every call's outputs; a failed check sets the call's error.

    ``references`` maps output file names to frozen summaries (None skips
    that check). ``first_outputs`` holds the bytes of the first successful
    job; later jobs, traced or not, must reproduce them exactly.
    """
    for result, (call, _, config) in zip(job.calls, steps):
        if result.error is not None:
            continue
        try:
            outcome = oracles.check_call(call, job_dir, config, rng)
            if references is not None:
                oracles.check_reference(call, job_dir, references)
            for name in outputs_of(call):
                data = (job_dir / name).read_bytes()
                if first_outputs.setdefault(name, data) != data:
                    raise oracles.OracleError(f"{name} differs from the first job's bytes")
        except Exception as err:  # any failed or crashing check fails the call
            result.error = f"{type(err).__name__}: {err}"
            continue
        result.outcome = outcome
    by_label = {call.label: (result, config) for result, (call, _, config) in zip(job.calls, steps)}
    if {"power_on_n100", "power_on_n400"} <= by_label.keys():
        (small, config), (large, _) = by_label["power_on_n100"], by_label["power_on_n400"]
        if small.error is None and large.error is None:
            try:
                oracles.check_truncation_pair(
                    job_dir / "power_on_n100.csv", job_dir / "power_on_n100_hist.csv",
                    job_dir / "power_on_n400.csv", int(config["params"]["n_levels"]),
                )
            except Exception as err:  # attributed to the larger-ladder call
                large.error = f"{type(err).__name__}: {err}"


def blas_info() -> dict:
    """BLAS library and the thread count it actually runs with."""
    import ctypes

    info = dict(np.show_config(mode="dicts")["Build Dependencies"]["blas"])
    info = {k: info.get(k) for k in ("name", "version")}
    threads = None
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        paths = set()
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype, fn.argtypes = ctypes.c_int, []
                threads = fn()
                break
        if threads is not None:
            break
    info["threads"] = threads
    return info


def provenance(root: Path) -> dict:
    import scipy

    sources = sorted((root / "src" / "qbattery").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "src_lines": lines,
        "src_sha256": digest.hexdigest(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    package = Path(cli.__file__).resolve().parent
    if package != (root / "src" / "qbattery").resolve():
        print(f"error: imported qbattery from {package}, not from this checkout", file=sys.stderr)
        return 2
    rng = np.random.default_rng(args.seed)
    variant = int(rng.integers(VARIANTS))
    frozen = json.loads(REFERENCE_FILE.read_text())["workloads"][args.workload]["variants"][variant]
    steps = plan(args.workload, frozen["inputs"])
    warmup = plan(args.workload, frozen["inputs"], warmup=True)

    out_root = root / ".bench_out"
    out_root.mkdir(exist_ok=True)
    job_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_root))
    try:
        failed = [c for c in run_job(warmup, job_dir).calls if c.error is not None]
        if failed:
            print(f"error: warm-up call {failed[0].label} failed: {failed[0].error}", file=sys.stderr)
            return 1
        setup_s = time.monotonic() - args.spawned_at
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        tracer = tracing.Tracer() if args.trace else None
        jobs: list[Job] = []
        first_outputs: dict[str, bytes] = {}
        start = time.perf_counter()
        while True:
            traced = tracer is not None and len(jobs) % 2 == 1
            job = run_job(steps, job_dir, tracer if traced else None)
            check_job(job, steps, job_dir, np.random.default_rng([args.seed, len(jobs)]),
                      frozen["outputs"], first_outputs)
            jobs.append(job)
            if time.perf_counter() - start >= args.seconds and (tracer is None or len(jobs) >= 2):
                break
    finally:
        shutil.rmtree(job_dir, ignore_errors=True)

    calls = [c for job in jobs for c in job.calls]
    failures = [f"{c.label}: {c.error}" for c in calls if c.error is not None]
    untraced = [job.wall_s for job in jobs if not job.traced]
    result = {
        "setup_s": setup_s,
        "attempted": len(calls),
        "failed": len(failures),
        "failures": failures[:10],
        "variant": variant,
        "inputs": frozen["inputs"],
        "job_s_samples": untraced,
        "metrics": {
            "job_s": statistics.median(untraced),
            "rounds_per_s": statistics.median(rounds_per_s(job) for job in jobs if not job.traced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "truncations": sum(c.outcome.truncated for c in calls),
        "provenance": provenance(root),
    }
    if tracer is not None:
        traced_jobs = [job for job in jobs if job.traced]
        traced_calls = [c for job in traced_jobs for c in job.calls]
        result["traced_job_s_samples"] = [job.wall_s for job in traced_jobs]
        result["per_layer"] = tracing.layer_metrics(
            tracer,
            jobs=len(traced_jobs),
            lindblad_rounds=sum(c.outcome.rounds for c in traced_calls if c.command == "lindblad"),
            grid_points=sum(c.outcome.grid_points for c in traced_calls),
            truncations=sum(c.outcome.truncated for c in traced_calls),
            overhead_ratio=statistics.median(result["traced_job_s_samples"])
            / statistics.median(untraced),
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

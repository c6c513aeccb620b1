"""Regenerate ``reference.json``: the input sets and their frozen outputs.

Run from the repository root at the commit whose outputs are the
reference:

    python3 bench/freeze.py

For every workload it draws ``VARIANTS`` input sets from ``RANGES``
(variant 0 is the figure defaults), runs one full job per set, requires
every call to pass its oracles, and stores a summary of every output file.
Takes a few minutes.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import oracles  # noqa: E402
from worker import REFERENCE_FILE, check_job, plan, run_job  # noqa: E402
from workloads import DEFAULTS, RANGES, VARIANTS, WORKLOADS, outputs_of  # noqa: E402

DRAW_SEED = 20260101


def draw_inputs(rng: np.random.Generator) -> list[dict]:
    sets = [dict(DEFAULTS)]
    for _ in range(VARIANTS - 1):
        sets.append({k: round(float(rng.uniform(lo, hi)), 5) for k, (lo, hi) in RANGES.items()})
    return sets


def main() -> int:
    rng = np.random.default_rng(DRAW_SEED)
    reference = {"workloads": {}}
    with tempfile.TemporaryDirectory() as tmp:
        job_dir = Path(tmp)
        for workload, calls in WORKLOADS.items():
            variants = []
            for index, inputs in enumerate(draw_inputs(rng)):
                steps = plan(workload, inputs)
                job = run_job(steps, job_dir)
                check_job(job, steps, job_dir, np.random.default_rng(index), None, {})
                errors = [f"{c.label}: {c.error}" for c in job.calls if c.error]
                if errors:
                    print(f"{workload} variant {index} {inputs}: {errors}", file=sys.stderr)
                    return 1
                outputs = {name: oracles.summarize(job_dir / name)
                           for call in calls for name in outputs_of(call)}
                variants.append({"inputs": inputs, "outputs": outputs})
                print(f"{workload} variant {index}: {job.wall_s:.2f} s", flush=True)
            reference["workloads"][workload] = {"variants": variants}
    REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

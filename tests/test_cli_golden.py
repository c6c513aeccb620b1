"""Golden regression test of every CLI command except ``validate``.

Each case runs one command at a reduced size and compares every output
file with the copy stored under ``tests/golden/<case>/``: numeric CSV
cells and JSON numbers to 1e-12 relative, everything else exactly. The
stored outputs pin the physics across refactors of the round kernel,
the interval optimizers and the protocol drivers.

Regenerate the stored outputs (only after a change that is meant to move
them), naming the cases to rewrite, or none to rewrite them all, with::

    PYTHONPATH=src python tests/test_cli_golden.py [case ...]
"""

import json
import math
import shutil
import sys
from pathlib import Path

import pytest

from qbattery.cli import main

GOLDEN = Path(__file__).parent / "golden"
RTOL = 1e-12

_N30 = ("params.n_levels=30", "schedule.n_rounds=5", "schedule.histogram_at=[0,1,5]")
_COHERENT = (
    "schedule.scheme=general", "schedule.policy=fixed", "schedule.fixed_tau=8.0",
    "charger.q=0.3", "charger.theta=1.2", "charger.c=1.0",
)
_DAMPED = ("params.n_levels=8", "schedule.n_rounds=3", "dissipation.gamma_b=0.001")

CASES = {
    "sweep_theta_q": ("sweep_theta_q", ("sweep.theta_points=7", "sweep.q_points=7")),
    "interval_sweep_power_on": (
        "interval_sweep", ("sweep.tau_points=20", "sweep.m_values=[1,4]"),
    ),
    "interval_sweep_power_off": (
        "interval_sweep",
        ("schedule.scheme=power_off", "sweep.tau_points=20", "sweep.m_values=[1,4]"),
    ),
    "power_on_numeric": ("power_on", _N30 + ("schedule.policy=numeric",)),
    "power_on_analytic": ("power_on", _N30),
    "power_off": ("power_off", _N30),
    "histograms_coherent": ("histograms", _N30 + _COHERENT),
    "lindblad_power_on": ("lindblad", _DAMPED),
    "lindblad_power_off": ("lindblad", _DAMPED + ("schedule.scheme=power_off",)),
    "lindblad_general": ("lindblad", _DAMPED + _COHERENT),
}


def run_case(case: str, out_dir: Path) -> None:
    command, sets = CASES[case]
    argv = [command, "--out", str(out_dir / "out.csv")]
    for assignment in sets:
        argv += ["--set", assignment]
    assert main(argv) == 0


def _close(got: float, want: float) -> bool:
    if math.isnan(want):
        return math.isnan(got)
    return abs(got - want) <= RTOL * max(abs(got), abs(want))


def _as_number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def compare_csv(got: Path, want: Path) -> list[str]:
    got_lines = got.read_text().splitlines()
    want_lines = want.read_text().splitlines()
    if got_lines[:2] != want_lines[:2] or len(got_lines) != len(want_lines):
        return [f"{want.name}: header or row count differs"]
    problems = []
    for row, (g_line, w_line) in enumerate(zip(got_lines[2:], want_lines[2:])):
        g_cells, w_cells = g_line.split(","), w_line.split(",")
        if len(g_cells) != len(w_cells):
            problems.append(f"{want.name} row {row}: cell count differs")
            continue
        for col, (g, w) in enumerate(zip(g_cells, w_cells)):
            wn, gn = _as_number(w), _as_number(g)
            ok = g == w if wn is None or gn is None else _close(gn, wn)
            if not ok:
                problems.append(f"{want.name} row {row} col {col}: {g!r} != {w!r}")
    return problems


def compare_json(got, want, where: str = "") -> list[str]:
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [p for key in want for p in compare_json(got[key], want[key], f"{where}.{key}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{where}: length {len(got)} != {len(want)}"]
        return [p for i, (g, w) in enumerate(zip(got, want)) for p in compare_json(g, w, f"{where}[{i}]")]
    numeric = (int, float)
    if (isinstance(want, numeric) and isinstance(got, numeric)
            and not isinstance(want, bool) and not isinstance(got, bool)):
        return [] if _close(float(got), float(want)) else [f"{where}: {got!r} != {want!r}"]
    return [] if got == want else [f"{where}: {got!r} != {want!r}"]


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, tmp_path):
    run_case(case, tmp_path)
    want_dir = GOLDEN / case
    produced = sorted(p.name for p in tmp_path.iterdir())
    assert produced == sorted(p.name for p in want_dir.iterdir())
    problems = []
    for name in produced:
        got, want = tmp_path / name, want_dir / name
        if name.endswith(".json"):
            problems += compare_json(json.loads(got.read_text()), json.loads(want.read_text()), name)
        else:
            problems += compare_csv(got, want)
    assert not problems, "\n".join(problems[:20])


def regenerate(cases: list[str]) -> None:
    """Rewrite the stored outputs of ``cases``, or of every case when it is empty."""
    unknown = sorted(set(cases) - set(CASES))
    if unknown:
        sys.exit(f"unknown golden cases {unknown}; known: {sorted(CASES)}")
    for case in cases or sorted(CASES):
        out_dir = GOLDEN / case
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        run_case(case, out_dir)
        print(f"wrote {out_dir}")


if __name__ == "__main__":
    regenerate(sys.argv[1:])

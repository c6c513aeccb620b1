import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from qbattery.cli import main


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "# schema=1"
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


def test_unknown_config_key_is_a_config_error(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"paramz": {}}))
    assert main(["power_on", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1


# (command, config file text or None for a missing file, --set assignments, message)
@pytest.mark.parametrize("command, content, sets, message", [
    ("power_on", None, [], "cannot read config"),
    ("power_on", "{not json", [], "cannot read config"),
    ("power_on", '{"schema": 99}', [], "unsupported config schema 99"),
    ("interval_sweep", "{}", ["schedule.scheme=general"], "interval_sweep needs a named scheme, got 'general'"),
])
def test_an_unusable_config_is_a_config_error(tmp_path, capsys, command, content, sets, message):
    cfg = tmp_path / "config.json"
    if content is not None:
        cfg.write_text(content)
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "x.csv"), *[f"--set={s}" for s in sets]]
    assert main(argv) == 1
    assert message in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ([] if content is None else ["config.json"])


# (command, assignment, message) for values of the wrong kind, now all
# rejected at load; most used to run on a converted or partly dropped
# value or exit 3, histogram_at=5 after writing the protocol CSV
_WRONG_KINDS = [
    ("power_on", "params.n_levels=10.7", "params.n_levels must be an integer, got 10.7"),
    ("power_on", "schedule.n_rounds=2.5", "schedule.n_rounds must be an integer, got 2.5"),
    ("power_on", "seed=1.9", "seed must be an integer, got 1.9"),
    ("power_on", "schedule.histogram_at=[0.5,1]", "schedule.histogram_at must be a list, each an integer"),
    ("power_on", "schedule.histogram_at=5", "schedule.histogram_at must be a list, each an integer, got 5"),
    ("power_on", "params.n_levels=true", "params.n_levels must be an integer, got True"),
    ("sweep_theta_q", "sweep.c_values=5", "sweep.c_values must be a list, each a number, got 5"),
    ("interval_sweep", "sweep.tau_points=abc", "sweep.tau_points must be an integer, got 'abc'"),
    ("interval_sweep", 'sweep.m_values=["x"]', "sweep.m_values must be a list, each an integer, got ['x']"),
    ("histograms", "schedule.n_rounds=abc", "schedule.n_rounds must be an integer, got 'abc'"),
    ("lindblad", "dissipation.gamma_b=abc", "dissipation.gamma_b must be a number, got 'abc'"),
    ("power_on", "params=5", "'params' must be a table"),
    ("power_on", "params.beta=hot", "params.beta must be a number, got 'hot'"),
    ("power_on", "schedule.fixed_tau=true", "schedule.fixed_tau must be a number, got True"),
    ("power_on", "output_path=5", "output_path must be a string, got 5"),
]


def test_bad_set_assignment_is_a_config_error(tmp_path, capsys):
    assert main(["power_on", "--set", "nonsense", "--out", str(tmp_path / "x.csv")]) == 1
    assert main(["power_on", "--set", "params.bogus=3", "--out", str(tmp_path / "x.csv")]) == 1
    capsys.readouterr()
    for command, assignment, message in _WRONG_KINDS:
        argv = [command, "--out", str(tmp_path / "x.csv"), "--set", "params.n_levels=8",
                "--set", "schedule.sampling=true", "--set", assignment]
        assert main(argv) == 1, assignment
        assert f"config error: {message}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


def test_config_values_of_the_right_kind_load():
    from qbattery.cli import load_config

    config = load_config("power_on", None, ["params.g=1", "params.beta=inf", 'params={"delta": 0}',
                                            "schedule.fixed_tau=8", 'output_path="x.csv"'])
    assert config["params"] == {"n_levels": 100, "g": 1, "delta": 0, "omega_c": 1.0, "beta": "inf"}
    assert config["schedule"]["fixed_tau"] == 8 and config["output_path"] == "x.csv"


@pytest.mark.parametrize("content, message", [
    ({"params": {"n_levels": 10.7}}, "params.n_levels must be an integer, got 10.7"),
    ({"sweep": []}, "'sweep' must be a table"),
    ([1], "must hold a table"),
])
def test_config_file_values_are_kind_checked(tmp_path, capsys, content, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(content))
    assert main(["power_on", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("command, scheme", [
    ("power_on", "power_off"), ("power_on", "general"), ("power_off", "power_on"), ("power_off", "general"),
])
def test_protocol_command_scheme_mismatch_is_a_config_error(tmp_path, capsys, command, scheme):
    # the command name used to win: power_on ran power-on and recorded the other scheme
    argv = [command, "--out", str(tmp_path / "x.csv"), "--set", "params.n_levels=8",
            "--set", f"schedule.scheme={scheme}"]
    assert main(argv) == 1
    assert f"config error: {command} runs schedule.scheme={command!r}, got {scheme!r}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_invalid_physics_is_a_config_error(tmp_path):
    out = tmp_path / "x.csv"
    assert main(["power_on", "--set", "params.beta=-2", "--out", str(out)]) == 1


@pytest.mark.parametrize("assignment", [
    "params.g=NaN", "params.g=Infinity", "params.delta=NaN", "params.delta=-Infinity",
    "params.omega_c=Infinity", "params.beta=NaN",
])
def test_non_finite_physics_is_a_config_error(tmp_path, capsys, assignment):
    out = tmp_path / "x.csv"
    assert main(["power_on", "--set", assignment, "--out", str(out)]) == 1
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("assignment", [
    "dissipation.gamma_b=NaN", "dissipation.gamma_c=NaN", "dissipation.nbar_th=Infinity",
    "dissipation.nbar_th_c=NaN",
])
def test_non_finite_damping_fails_the_run(tmp_path, capsys, assignment):
    # a NaN rate used to drop its channel and run undamped
    out = tmp_path / "x.csv"
    argv = ["lindblad", "--out", str(out), "--set", "params.n_levels=8",
            "--set", "schedule.n_rounds=1", "--set", assignment]
    assert main(argv) == 1
    assert "config error" in (err := capsys.readouterr().err) and "must be finite" in err
    assert not out.exists()


@pytest.mark.parametrize("assignment, message", [
    ("dissipation.gamma_b=-1", "damping rates must be >= 0"),
    ("dissipation.gamma_c=-0.5", "damping rates must be >= 0"),
    ("dissipation.nbar_th=-1", "bath occupations must be >= 0"),
    ("dissipation.nbar_th_c=-0.1", "bath occupations must be >= 0"),
    # the exact propagator has no solver tolerances, so these keys are gone
    ("dissipation.rtol=1e-9", "unknown config key 'dissipation.rtol'"),
    ("dissipation.atol=1e-12", "unknown config key 'dissipation.atol'"),
])
def test_invalid_damping_is_a_config_error(tmp_path, capsys, assignment, message):
    # the same kind of mistake as in params: exit 1, not a runtime error
    out = tmp_path / "x.csv"
    argv = ["lindblad", "--out", str(out), "--set", "params.n_levels=8",
            "--set", "schedule.n_rounds=1", "--set", assignment]
    assert main(argv) == 1
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tau", ["NaN", "Infinity", "-1"])
def test_invalid_sweep_interval_is_a_config_error(tmp_path, capsys, tau):
    # a NaN interval used to exit 0 with an all-nan ratio column
    out = tmp_path / "x.csv"
    argv = ["sweep_theta_q", "--out", str(out), "--set", "sweep.theta_points=3",
            "--set", "sweep.q_points=3", "--set", f"sweep.tau={tau}"]
    assert main(argv) == 1
    assert "config error: sweep.tau must be finite and >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("assignment, message", [
    ("sweep.theta_points=0", "sweep.theta_points must be >= 1"),
    ("sweep.q_points=0", "sweep.q_points must be >= 1"),
    ("sweep.c_values=[2.0]", "sweep.c_values: c must lie in [0, 1], got 2.0"),
    ("sweep.c_values=[]", "sweep.c_values must hold at least one coherence"),
    ("sweep.tau_points=0", "sweep.tau_points must be >= 1"),
    ("sweep.m_values=[]", "sweep.m_values must hold at least one round, each >= 1"),
    ("sweep.m_values=[0,1]", "sweep.m_values must hold at least one round, each >= 1"),
])
def test_invalid_sweep_grid_is_a_config_error(tmp_path, capsys, assignment, message):
    # an empty axis used to exit 0 with a header-only CSV, and an invalid
    # coherence to exit 3; interval_sweep reads the tau and m axes
    out = tmp_path / "x.csv"
    command = "interval_sweep" if assignment.startswith(("sweep.tau_points", "sweep.m_values")) else "sweep_theta_q"
    argv = [command, "--out", str(out), "--set", "sweep.theta_points=3",
            "--set", "sweep.q_points=3", "--set", assignment]
    assert main(argv) == 1
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tau_max", ["-1", "NaN", "Infinity"])
def test_invalid_interval_sweep_span_is_a_config_error(tmp_path, capsys, tau_max):
    # a negative span used to scan the intervals at |tau|
    out = tmp_path / "x.csv"
    argv = ["interval_sweep", "--out", str(out), "--set", "params.n_levels=20",
            "--set", "sweep.m_values=[1]", "--set", f"sweep.tau_max={tau_max}"]
    assert main(argv) == 1
    assert "config error: sweep.tau_max must be finite and >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_zero_interval_sweep_span_scans_tau_zero(tmp_path):
    out = tmp_path / "x.csv"
    argv = ["interval_sweep", "--out", str(out), "--set", "params.n_levels=20",
            "--set", "sweep.m_values=[1]", "--set", "sweep.tau_max=0", "--set", "sweep.tau_points=3"]
    assert main(argv) == 0
    header, rows = read_csv(out)
    assert len(rows) == 3
    tau, prob = header.index("tau"), header.index("prob")
    assert all(float(row[tau]) == 0.0 and float(row[prob]) == 0.0 for row in rows)


def test_missing_output_directory_is_a_config_error(tmp_path):
    out = tmp_path / "no" / "such" / "dir" / "x.csv"
    assert main(["power_on", "--out", str(out)]) == 1


def test_impossible_protocol_is_a_runtime_error(tmp_path):
    # power-off from the exact ground state has nothing to measure
    out = tmp_path / "x.csv"
    code = main([
        "power_off", "--out", str(out),
        "--set", 'params.beta="inf"',
        "--set", "params.n_levels=10",
    ])
    assert code == 3


def test_failed_consistency_check_exits_two(tmp_path, monkeypatch):
    from qbattery import cli
    from qbattery.validate import CheckResult

    monkeypatch.setattr(
        cli, "run_all_checks", lambda fast: [CheckResult("rigged", 1.0, 1e-12)]
    )
    assert main(["validate", "--out", str(tmp_path / "r.txt")]) == 2
    assert "[FAIL] rigged" in (tmp_path / "r.txt").read_text()


def test_power_on_protocol_outputs(tmp_path):
    out = tmp_path / "run.csv"
    code = main([
        "power_on", "--out", str(out),
        "--set", "params.n_levels=40",
        "--set", "params.beta=0.1",
        "--set", "schedule.n_rounds=10",
        "--set", "schedule.histogram_at=[0,5,10]",
    ])
    assert code == 0
    header, rows = read_csv(out)
    assert header == [
        "m", "tau", "prob", "cumulative_prob", "energy", "ergotropy",
        "ratio", "power", "mean", "variance", "fano",
    ]
    assert len(rows) == 11  # initial row plus 10 rounds
    assert rows[0][0] == "0" and rows[0][1] == ""  # no tau for the initial state
    cumulative = [float(r[3]) for r in rows]
    assert all(a >= b - 1e-15 for a, b in zip(cumulative, cumulative[1:]))
    energies = [float(r[4]) for r in rows]
    assert energies[-1] > energies[0]

    hist_path = out.with_name(out.stem + "_hist.csv")
    hheader, hrows = read_csv(hist_path)
    assert hheader == ["m", "level", "population"]
    assert len(hrows) == 3 * 41
    for m in ("0", "5", "10"):
        total = sum(float(r[2]) for r in hrows if r[0] == m)
        assert total == pytest.approx(1.0, abs=1e-9)

    meta = json.loads(out.with_suffix(".json").read_text())
    assert meta["schema"] == 1
    assert meta["rounds_completed"] == 10
    assert not meta["truncated"]
    assert 0 < meta["cumulative_probability"] <= 1


def test_protocol_csv_is_deterministic(tmp_path):
    args = [
        "power_on",
        "--set", "params.n_levels=30",
        "--set", "schedule.n_rounds=6",
        "--set", "schedule.histogram_at=[0,5]",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_power_off_protocol_runs(tmp_path):
    out = tmp_path / "off.csv"
    code = main([
        "power_off", "--out", str(out),
        "--set", "schedule.n_rounds=5",
        "--set", "schedule.histogram_at=[0,5]",
    ])
    assert code == 0
    header, rows = read_csv(out)
    assert len(rows) == 6
    means = [float(r[8]) for r in rows]
    assert means[-1] > means[0]


def test_sampling_mode_is_seed_deterministic(tmp_path):
    args = [
        "power_on",
        "--set", "params.n_levels=30",
        "--set", "schedule.n_rounds=5",
        "--set", "schedule.histogram_at=[0,5]",
        "--set", "schedule.sampling=true",
        "--set", "seed=11",
    ]
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    m1 = json.loads(out1.with_suffix(".json").read_text())
    m2 = json.loads(out2.with_suffix(".json").read_text())
    assert m1["attempts"] == m2["attempts"] >= 1


def test_sweep_theta_q_corners(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep_theta_q", "--out", str(out),
        "--set", "params.n_levels=40",
        "--set", "sweep.theta_points=5",
        "--set", "sweep.q_points=5",
    ])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["theta", "q", "c", "ratio"]
    assert len(rows) == 2 * 5 * 5
    table = {
        (float(r[0]), float(r[1]), float(r[2])): float(r[3]) for r in rows
    }
    pi = math.pi
    # charging corners above one, discharging corners below one
    assert table[(0.0, 0.0, 0.0)] > 1.0
    assert table[(pi, 1.0, 0.0)] > 1.0
    assert table[(0.0, 1.0, 0.0)] < 1.0
    assert table[(pi, 0.0, 0.0)] < 1.0
    # initial coherence weakens the near-corner charging ratios
    assert table[(pi / 4, 0.25, 1.0)] < table[(pi / 4, 0.25, 0.0)]
    assert table[(3 * pi / 4, 0.75, 1.0)] < table[(3 * pi / 4, 0.75, 0.0)]


@pytest.mark.parametrize("c_values", [[0.0, 0.5, 1.0], [-0.0, 0.0]])
def test_sweep_theta_q_bytes_match_a_per_cell_rendering(tmp_path, c_values):
    # the command renders each axis once; -0.0 must not share 0.0's text
    from qbattery.cli import _build_params, _fmt, load_config
    from qbattery.rounds import _mean_ratios
    from qbattery.states import thermal_state

    sets = ["sweep.theta_points=1", "sweep.q_points=3", f"sweep.c_values={json.dumps(c_values)}"]
    out = tmp_path / "sweep.csv"
    assert main(["sweep_theta_q", "--out", str(out)] + [a for s in sets for a in ("--set", s)]) == 0
    config = load_config("sweep_theta_q", None, sets)
    params = _build_params(config)
    grids = np.meshgrid(c_values, [0.0], [0.0, 0.5, 1.0], indexing="ij")
    c, theta, q = (grid.ravel() for grid in grids)
    ratio = _mean_ratios(thermal_state(params).populations, params, config["sweep"]["tau"], q, theta, c)
    expected = "# schema=1\ntheta,q,c,ratio\n" + "".join(
        ",".join(_fmt(v) for v in row) + "\n" for row in zip(theta, q, c, ratio)
    )
    assert out.read_text() == expected
    assert len(expected.splitlines()) == 2 + 3 * len(c_values)


def test_interval_sweep_outputs(tmp_path):
    out = tmp_path / "interval.csv"
    code = main([
        "interval_sweep", "--out", str(out),
        "--set", "params.n_levels=60",
        "--set", "sweep.m_values=[1,2]",
        "--set", "sweep.tau_points=40",
    ])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["scheme", "m", "tau", "nbar", "prob", "tau_opt_analytic", "tau_opt_numeric"]
    assert len(rows) == 2 * 40
    m1 = [r for r in rows if r[1] == "1"]
    probs = np.array([float(r[4]) for r in m1])
    taus = np.array([float(r[2]) for r in m1])
    assert probs[0] < 0.05                      # probability vanishes at short tau
    marker = float(m1[0][6])
    assert probs.max() == pytest.approx(
        probs[np.argmin(np.abs(taus - marker))], rel=0.05
    )


def test_interval_sweep_prepares_every_m_from_one_run(tmp_path, monkeypatch):
    from qbattery import cli
    from qbattery.scheduler import run_protocol, tau_opt_numeric
    from qbattery.states import thermal_state

    lengths = []

    def counted(*args, **kwargs):
        lengths.append(args[3])
        return run_protocol(*args, **kwargs)

    monkeypatch.setattr(cli, "run_protocol", counted)
    out = tmp_path / "interval.csv"
    code = main([
        "interval_sweep", "--out", str(out),
        "--set", "params.n_levels=30",
        "--set", "sweep.m_values=[4,1,3]",
        "--set", "sweep.tau_points=5",
    ])
    assert code == 0 and lengths == [3]
    _, rows = read_csv(out)
    params = cli._build_params(cli.load_config("interval_sweep", None, ["params.n_levels=30"]))
    for m in (4, 1, 3):
        state = thermal_state(params)
        if m > 1:
            state = run_protocol(state, params, "power_on", m - 1, "numeric").rounds[-1].post_state
        markers = {r[6] for r in rows if r[1] == str(m)}
        assert markers == {repr(float(tau_opt_numeric(state, params)))}


@pytest.mark.parametrize("scheme, policy", [("power_on", "numeric"), ("power_off", "power_off_compromise")])
def test_interval_sweep_markers_use_the_run_grid(tmp_path, scheme, policy):
    from qbattery import cli
    from qbattery.scheduler import run_protocol
    from qbattery.states import thermal_state

    sets = [f"schedule.scheme={scheme}", "schedule.tau_max=5", "schedule.grid_points=150",
            "sweep.m_values=[1,5]", "sweep.tau_points=5"]
    out = tmp_path / "interval.csv"
    argv = ["interval_sweep", "--out", str(out)]
    for assignment in sets:
        argv += ["--set", assignment]
    assert main(argv) == 0
    _, rows = read_csv(out)
    params = cli._build_params(cli.load_config("interval_sweep", None, sets))
    for m in (1, 5):
        run = run_protocol(thermal_state(params), params, scheme, m, policy, tau_max=5, grid_points=150)
        assert not run.truncated
        assert {r[6] for r in rows if r[1] == str(m)} == {repr(float(run.rounds[m - 1].tau))}


@pytest.mark.parametrize("m_values", ["[20,1]", "[1,7,20,3]"])
def test_interval_sweep_past_a_truncation_is_a_config_error(tmp_path, capsys, m_values):
    # the cumulative objective stalls the power-off run at round 15
    code = main([
        "interval_sweep", "--out", str(tmp_path / "x.csv"),
        "--set", "schedule.scheme=power_off",
        "--set", "schedule.objective=cumulative",
        "--set", f"sweep.m_values={m_values}",
        "--set", "sweep.tau_points=5",
    ])
    assert code == 1
    assert "cannot prepare the round-20 state: round 15:" in capsys.readouterr().err
    assert main(["interval_sweep", "--out", str(tmp_path / "x.csv"), "--set", "sweep.m_values=[0]"]) == 1


def test_interval_sweep_at_a_power_off_stall_is_a_config_error(tmp_path, capsys):
    # the round-15 state exists but its marker interval stalls; this m
    # used to exit 3 where every later m exits 1
    code = main([
        "interval_sweep", "--out", str(tmp_path / "x.csv"),
        "--set", "schedule.scheme=power_off",
        "--set", "schedule.objective=cumulative",
        "--set", "sweep.m_values=[15]",
        "--set", "sweep.tau_points=5",
    ])
    assert code == 1
    assert ("config error: cannot choose the round-15 marker interval: no candidate interval raises the mean "
            "population") in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("m_values, message", [
    ("[1]", "cannot choose the round-1 marker interval: state has no excited population to work with"),
    # these two used to exit 3 with "protocol produced no rounds"
    ("[2]", "cannot prepare the round-2 state: protocol produced no rounds (round 1: state has no excited"),
    ("[3]", "cannot prepare the round-3 state: protocol produced no rounds (round 1: state has no excited"),
])
def test_interval_sweep_stalling_in_round_one_is_a_config_error(tmp_path, capsys, m_values, message):
    # power-off from the exact ground state has nothing to measure
    code = main([
        "interval_sweep", "--out", str(tmp_path / "x.csv"),
        "--set", "schedule.scheme=power_off", "--set", 'params.beta="inf"', "--set", "params.n_levels=10",
        "--set", "sweep.tau_points=5", "--set", f"sweep.m_values={m_values}",
    ])
    assert code == 1
    assert f"config error: {message}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, sets, message", [
    ("power_on", ("schedule.policy=numeric", "schedule.tau_max=-5"), "tau_max"),
    ("power_on", ("schedule.policy=numeric", "schedule.grid_points=0"), "grid_points"),
    ("power_on", ("schedule.policy=fixed", "schedule.fixed_tau=-2"), "interval -2"),
    ("power_off", ("schedule.grid_points=0",), "grid_points"),
    ("power_off", ("schedule.tau_max=-5",), "tau_max"),
    ("interval_sweep", ("schedule.tau_max=-5",), "tau_max"),
])
def test_invalid_interval_settings_fail_the_run(tmp_path, capsys, command, sets, message):
    argv = [command, "--out", str(tmp_path / "x.csv"), "--set", "params.n_levels=20"]
    for assignment in sets:
        argv += ["--set", assignment]
    assert main(argv) == 3
    assert message in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("command, assignment, message", [
    ("histograms", "schedule.scheme=bogus", "scheme must be one of"),
    ("power_on", "schedule.policy=bogus", "policy must be one of"),
    ("power_on", "schedule.policy=fixed", "fixed policy needs fixed_tau"),
    ("histograms", "schedule.n_rounds=0", "n_rounds must be >= 1"),
    ("lindblad", "schedule.scheme=bogus", "scheme must be one of"),
    ("lindblad", "schedule.policy=numeric", "policy must be one of"),
    ("power_off", "schedule.objective=bogus", "objective must be one of"),
    ("power_off", "schedule.x=NaN", "the balance index x must be finite and exceed 1"),
    ("power_off", "schedule.x=Infinity", "the balance index x must be finite and exceed 1"),
    ("lindblad", "schedule.policy=power_off_compromise", "the compromise objective applies to the power_off scheme"),
])
def test_invalid_schedule_is_a_config_error(tmp_path, capsys, command, assignment, message):
    # the first six and a non-finite balance index used to exit 3, the
    # objective typo to exit 0 and the damped compromise of a power_on run
    # to run power_off instead
    argv = [command, "--out", str(tmp_path / "x.csv"), "--set", "params.n_levels=8", "--set", assignment]
    assert main(argv) == 1
    assert f"config error: {message}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, sets, calls", [
    ("power_on", (), 1),
    ("histograms", (), 1),
    ("lindblad", (), 1),
    # the closed compromise run whose schedule the damped run mirrors
    ("lindblad", ("schedule.scheme=power_off",), 2),
])
def test_each_protocol_command_resolves_its_run_once(tmp_path, monkeypatch, command, sets, calls):
    # the CLI used to resolve every run itself before the library did again
    from qbattery import cli, lindblad, scheduler

    resolved = []
    original = scheduler._interval_chooser

    def counted(*args, **kwargs):
        resolved.append(args[:2])
        return original(*args, **kwargs)

    for module in (cli, scheduler, lindblad):
        monkeypatch.setattr(module, "_interval_chooser", counted)
    argv = [command, "--out", str(tmp_path / "x.csv"), "--set", "params.n_levels=8",
            "--set", "schedule.n_rounds=2", "--set", "schedule.histogram_at=[0,2]"]
    for assignment in sets:
        argv += ["--set", assignment]
    assert main(argv) == 0
    assert len(resolved) == calls


@pytest.mark.parametrize("command", ["power_on", "power_off", "histograms"])
@pytest.mark.parametrize("histogram_at, outside", [("[0,5]", "[5]"), ("[-1,2,3]", "[-1, 3]")])
def test_snapshot_round_outside_the_run_is_a_config_error(tmp_path, capsys, no_rounds, command, histogram_at,
                                                          outside):
    # a round past the run used to be skipped without a word
    argv = [command, "--out", str(tmp_path / "x.csv"), "--set", "params.n_levels=8",
            "--set", "schedule.n_rounds=2", "--set", f"schedule.histogram_at={histogram_at}"]
    assert main(argv) == 1
    assert (f"config error: schedule.histogram_at rounds must lie in 0..2 (schedule.n_rounds), got {outside}"
            in capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []


def test_snapshot_rounds_past_a_truncation_are_skipped(tmp_path):
    # the cumulative objective stalls the power-off run at round 15 of 20
    out = tmp_path / "off.csv"
    assert main(["power_off", "--out", str(out), "--set", "schedule.objective=cumulative"]) == 0
    assert json.loads(out.with_suffix(".json").read_text())["rounds_completed"] == 14
    _, rows = read_csv(tmp_path / "off_hist.csv")
    assert sorted({int(row[0]) for row in rows}) == [0, 5, 10]


def test_loaded_configs_share_no_list_or_table():
    from qbattery.cli import load_config

    # power_off's histogram_at used to be the list of its override table
    first = load_config("power_off", None, [])
    expected = json.loads(json.dumps(first))
    first["params"]["n_levels"] = 3
    first["schedule"]["histogram_at"].append(99)
    first["sweep"]["c_values"].append(0.5)
    first["dissipation"].clear()
    assert load_config("power_off", None, []) == expected


def test_config_error_is_a_setting_error():
    from qbattery import SettingError
    from qbattery.cli import ConfigError

    assert issubclass(ConfigError, SettingError) and issubclass(SettingError, ValueError)


_CLOSED_SYSTEM_RUN = """
import json, sys
import qbattery, qbattery.cli
code = qbattery.cli.main(["power_on", "--out", sys.argv[1],
                          "--set", "params.n_levels=10", "--set", "schedule.n_rounds=2",
                          "--set", "schedule.histogram_at=[0,2]"])
scipy_after_run = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
listed = {"DissipationParams", "dissipative_protocol", "integrate"} <= set(dir(qbattery))
scipy_after_dir = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
served = qbattery.DissipationParams is sys.modules["qbattery.lindblad"].DissipationParams
star = {}
exec("from qbattery import *", star)
print(json.dumps({
    "code": code, "scipy_after_run": scipy_after_run, "listed": listed,
    "scipy_after_dir": scipy_after_dir, "served": served,
    "sparse_loaded": "scipy.sparse" in sys.modules,
    "star": star["dissipative_protocol"] is qbattery.lindblad.dissipative_protocol,
}))
"""


def test_closed_system_run_loads_no_scipy(tmp_path):
    # only the damped extension and the oracles need scipy, and importing
    # it is most of a fresh process's start-up time
    import qbattery

    src = str(Path(qbattery.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _CLOSED_SYSTEM_RUN, str(tmp_path / "x.csv")],
                          env=env, cwd=tmp_path, capture_output=True, text=True, check=True)
    report = json.loads(proc.stdout)
    assert report == {
        "code": 0, "scipy_after_run": [], "listed": True, "scipy_after_dir": [],
        "served": True, "sparse_loaded": True, "star": True,
    }


# Every command: the closed-system ones at N = 100, where the 400 x 101
# grid product of the interval optimizer is large enough for OpenBLAS to
# thread, and the damped ones, whose propagation is sparse products and
# elementwise sums and whose positivity check is a Cholesky factor.
_THREADED_CALLS = [
    ("sweep", "sweep_theta_q", ["sweep.theta_points=5", "sweep.q_points=4"]),
    ("interval", "interval_sweep", ["sweep.tau_points=20", "sweep.m_values=[1,3]"]),
    ("numeric", "power_on", ["schedule.policy=numeric", "schedule.n_rounds=3", "schedule.histogram_at=[0,3]"]),
    ("compromise", "power_off", ["schedule.n_rounds=3", "schedule.histogram_at=[0,3]"]),
    ("coherent", "histograms", ["schedule.scheme=general", "schedule.policy=fixed", "schedule.fixed_tau=8.0",
                                "charger.q=0.3", "charger.theta=1.2", "charger.c=1.0", "schedule.n_rounds=3",
                                "schedule.histogram_at=[0,3]"]),
    ("damped_on", "lindblad", ["schedule.n_rounds=3"]),
    ("damped_off", "lindblad", ["schedule.scheme=power_off", "schedule.n_rounds=2"]),
    ("damped_general", "lindblad", ["schedule.scheme=general", "schedule.policy=fixed", "schedule.fixed_tau=8.0",
                                    "charger.q=0.3", "charger.theta=1.2", "charger.c=1.0", "schedule.n_rounds=1"]),
]

_THREADED_RUN = """
import json, sys
from pathlib import Path
import qbattery.cli
out = Path(sys.argv[1])
for label, command, sets in json.loads(sys.argv[2]):
    argv = [command, "--out", str(out / f"{label}.csv")]
    for assignment in sets:
        argv += ["--set", assignment]
    assert qbattery.cli.main(argv) == 0, label
"""


def test_output_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the grid's weights @ columns, the refinement's Taylor table @
    # columns and a coherent damped round's eigh and rebuilt post state
    # are BLAS calls; their results must not change with the number of
    # threads that split them
    import qbattery

    src = str(Path(qbattery.__file__).resolve().parent.parent)
    outputs = {}
    for threads in ("1", "2"):
        out = tmp_path / threads
        out.mkdir()
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-c", _THREADED_RUN, str(out), json.dumps(_THREADED_CALLS)],
                       env=env, cwd=tmp_path, capture_output=True, text=True, check=True)
        outputs[threads] = {path.name: path.read_bytes() for path in out.iterdir()}
    # 3 single-CSV calls, 2 protocol runs with histograms and metadata, 3 damped runs with metadata
    assert len(outputs["1"]) == 15
    assert outputs["1"] == outputs["2"]


def test_histograms_command(tmp_path):
    out = tmp_path / "hist.csv"
    code = main([
        "histograms", "--out", str(out),
        "--set", "params.n_levels=30",
        "--set", "schedule.n_rounds=5",
        "--set", "schedule.histogram_at=[0,5]",
    ])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["m", "level", "population"]
    assert len(rows) == 2 * 31


def test_histograms_are_those_of_the_protocol_run(tmp_path):
    sets = ["--set", "params.n_levels=20", "--set", "schedule.n_rounds=3", "--set", "schedule.histogram_at=[0,3]",
            "--set", "schedule.sampling=true", "--set", "seed=4"]
    assert main(["histograms", "--out", str(tmp_path / "h.csv"), *sets]) == 0
    assert main(["power_on", "--out", str(tmp_path / "p.csv"), *sets]) == 0
    assert (tmp_path / "h.csv").read_bytes() == (tmp_path / "p_hist.csv").read_bytes()


def test_general_histograms_diagonalize_no_state(tmp_path, linalg_calls):
    # the histograms are populations; no ergotropy is read, so the coherent
    # post states are checked by their Cholesky factors alone
    sets = ["schedule.scheme=general", "schedule.policy=fixed", "schedule.fixed_tau=8.0", "charger.q=0.3",
            "charger.theta=1.2", "charger.c=1.0", "schedule.n_rounds=5", "schedule.histogram_at=[0,5]"]
    assert main(["histograms", "--out", str(tmp_path / "h.csv"), *[f"--set={s}" for s in sets]]) == 0
    assert linalg_calls == Counter(cholesky=5)


def test_lindblad_command_small(tmp_path):
    out = tmp_path / "lb.csv"
    code = main([
        "lindblad", "--out", str(out),
        "--set", "params.n_levels=8",
        "--set", "schedule.n_rounds=2",
        "--set", "dissipation.gamma_b=0.0001",
    ])
    assert code == 0
    header, rows = read_csv(out)
    assert len(rows) == 3
    assert float(rows[-1][4]) > float(rows[0][4])


@pytest.mark.parametrize("command, sets", [
    ("power_on", ["schedule.policy=fixed"]),
    ("lindblad", ["schedule.policy=fixed", "params.n_levels=8", "schedule.n_rounds=2"]),
])
def test_an_integer_fixed_tau_writes_the_bytes_of_its_float(tmp_path, command, sets):
    # fixed_tau=8 used to write 8 in every tau cell, and 8.0 writes 8.0
    outputs = []
    for spelling in ("8", "8.0"):
        out = tmp_path / spelling / "x.csv"
        out.parent.mkdir()
        argv = [command, "--out", str(out), *[f"--set={s}" for s in sets], f"--set=schedule.fixed_tau={spelling}"]
        assert main(argv) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] and b",8.0," in outputs[0]


def test_damped_power_off_runs_a_fixed_policy(tmp_path):
    # it used to run the mirrored compromise schedule, at 14.94 and 9.95
    out = tmp_path / "x.csv"
    argv = ["lindblad", "--out", str(out), "--set", "params.n_levels=8", "--set", "schedule.n_rounds=3",
            "--set", "schedule.scheme=power_off", "--set", "schedule.policy=fixed", "--set", "schedule.fixed_tau=5.0"]
    assert main(argv) == 0
    _, rows = read_csv(out)
    assert [row[1] for row in rows] == ["", "5.0", "5.0", "5.0"]


@pytest.mark.parametrize("policy, message", [
    ("numeric", "policy must be one of ('analytic', 'fixed', 'schedule'), got 'numeric'"),
    ("schedule", "schedule policy needs a tau per round"),
])
def test_damped_power_off_rejects_a_policy_it_does_not_take(tmp_path, capsys, policy, message):
    # both used to run the mirrored compromise schedule and exit 0
    argv = ["lindblad", "--out", str(tmp_path / "x.csv"), "--set", "params.n_levels=8",
            "--set", "schedule.scheme=power_off", "--set", f"schedule.policy={policy}"]
    assert main(argv) == 1
    assert f"config error: {message}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, sets", [
    ("power_on", []),
    ("power_on", ["schedule.policy=numeric"]),
    ("power_off", []),
    ("interval_sweep", ["sweep.m_values=[1]"]),
    ("interval_sweep", ["sweep.m_values=[2]"]),
    ("lindblad", []),
])
def test_zero_coupling_is_a_config_error(tmp_path, capsys, command, sets):
    # the analytic interval and the default optimizer span 2 pi / g used
    # to divide by zero, an exit 3
    argv = [command, "--out", str(tmp_path / "x.csv"), "--set", "params.n_levels=8", "--set", "params.g=0.0",
            *[f"--set={s}" for s in sets]]
    assert main(argv) == 1
    assert "needs g != 0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("assignment", ["params.beta=1000", "params.omega_c=1e300"])
def test_a_cold_qubit_bath_runs(tmp_path, assignment):
    # its occupation 1 / (exp(beta omega_b) + 1) used to overflow, an exit 3
    argv = ["lindblad", "--out", str(tmp_path / "x.csv"), "--set", "params.n_levels=8",
            "--set", "schedule.n_rounds=2", "--set", assignment]
    assert main(argv) == 0
    assert json.loads((tmp_path / "x.json").read_text())["rounds_completed"] == 2


def test_validate_command(tmp_path):
    out = tmp_path / "report.txt"
    code = main(["validate", "--set", "validate_fast=true", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.count("[PASS]") == 7
    assert "FAIL" not in text

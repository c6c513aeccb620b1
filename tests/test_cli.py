import json
import math

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


def test_bad_set_assignment_is_a_config_error(tmp_path):
    assert main(["power_on", "--set", "nonsense", "--out", str(tmp_path / "x.csv")]) == 1
    assert main(["power_on", "--set", "params.bogus=3", "--out", str(tmp_path / "x.csv")]) == 1


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


def test_validate_command(tmp_path):
    out = tmp_path / "report.txt"
    code = main(["validate", "--set", "validate_fast=true", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.count("[PASS]") == 7
    assert "FAIL" not in text

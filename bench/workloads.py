"""The benchmark's workloads: which CLI calls a job makes, on which inputs.

Every workload is a closed loop with one caller: a job runs its CLI calls
in order, in process, through ``qbattery.cli.main``, and the next job
starts when the previous one has finished. The physical inputs come from
stated ranges around the figure defaults. ``freeze.py`` draws
``VARIANTS`` input sets per workload from those ranges once, runs them and
stores the inputs with the outputs' reference summaries in
``reference.json``; a run's seed picks one of those input sets, so every
operation of every run has a frozen reference to match.

This module imports neither numpy nor qbattery, so the orchestrator can
read it without paying the package's import time.
"""

from __future__ import annotations

from dataclasses import dataclass

VARIANTS = 8

# Ranges the input sets are drawn from. Variant 0 is the figure defaults
# (g=0.04, delta=0.02, each command's default beta, charger q=0.3,
# theta=1.2, c=1.0). The ranges are narrow so that a job's work stays
# within a few percent across variants: the optimizer grids, round counts
# and sweep sizes are fixed, and the integrator's step count follows
# g*tau, which the analytic interval keeps nearly constant.
RANGES = {
    "g": (0.038, 0.042),
    "delta": (0.018, 0.022),
    "beta_scale": (0.95, 1.05),
    "q": (0.25, 0.35),
    "theta": (1.1, 1.3),
    "c": (0.9, 1.0),
}
DEFAULTS = {"g": 0.04, "delta": 0.02, "beta_scale": 1.0, "q": 0.3, "theta": 1.2, "c": 1.0}

# The uncoupled-interval and round counts of the coherent-charger calls.
COHERENT_TAU = 8.0
COHERENT_ROUNDS = 20


@dataclass(frozen=True)
class Call:
    """One CLI invocation of a job.

    ``label`` names the output file stem and is unique within a job;
    ``sets`` are the ``--set`` overrides on top of the command's
    defaults, before the input set's physical parameters are added;
    ``warmup`` are further overrides for the warm-up job.
    """

    label: str
    command: str
    sets: tuple[str, ...] = ()
    warmup: tuple[str, ...] = ()


_GENERAL = (
    "schedule.scheme=general",
    "schedule.policy=fixed",
    f"schedule.fixed_tau={COHERENT_TAU!r}",
)

WORKLOADS: dict[str, tuple[Call, ...]] = {
    # Interval optimizer: ~400 scalar objective evaluations per round. The
    # N=100/N=400 pair is a truncation-convergence check and moves the cost
    # from Python overhead toward arithmetic. No Lindblad path, no dense
    # joint propagator.
    "closed_charging": (
        Call("power_on_n100", "power_on", ("schedule.policy=numeric",)),
        Call("power_on_n400", "power_on", ("schedule.policy=numeric", "params.n_levels=400")),
        Call("power_off", "power_off"),
        Call("interval_sweep", "interval_sweep"),
    ),
    # General (q, theta, c) charger with coherence: amplitudes rebuilt per
    # grid point, the dense general_round, eigvalsh in state validation and
    # the passive state, and the dense Lindblad path that coherence forces.
    "coherent_charger": (
        Call("sweep_theta_q", "sweep_theta_q"),
        Call("histograms", "histograms", _GENERAL + (
            f"schedule.n_rounds={COHERENT_ROUNDS}",
            f"schedule.histogram_at=[0,5,10,{COHERENT_ROUNDS}]",
        )),
        Call("lindblad_general", "lindblad", _GENERAL + ("schedule.n_rounds=1",),
             warmup=("schedule.fixed_tau=0.5",)),
    ),
    # Damped rounds that keep the excitation-number sector (no charger
    # coherence): the shape of acceptance criterion 10, dominated by dense
    # right-hand-side evaluations.
    "damped_charging": (
        Call("lindblad_power_on", "lindblad", ("schedule.n_rounds=3",),
             warmup=("schedule.policy=fixed", "schedule.fixed_tau=0.5")),
        # the compromise schedule fixes this call's interval, so it warms up
        # on a small ladder; the call above has warmed the N=100 kernels
        Call("lindblad_power_off", "lindblad", ("schedule.scheme=power_off", "schedule.n_rounds=2"),
             warmup=("params.n_levels=10",)),
    ),
}

# Appended to every call of the warm-up job: the same commands, code paths
# and ladder sizes at a cost of milliseconds. The ladder size matters: the
# first BLAS and LAPACK calls at N=100 sizes cost about a second once per
# process, which a warm-up on a small ladder leaves in the first job.
WARMUP_SETS = (
    "schedule.n_rounds=1",
    "schedule.histogram_at=[0,1]",
    "sweep.theta_points=3",
    "sweep.q_points=3",
    "sweep.m_values=[1,2]",
    "sweep.tau_points=5",
)


def call_sets(call: Call, inputs: dict, default_beta: float) -> list[str]:
    """``--set`` overrides for one call under one input set.

    ``default_beta`` is the command's own default inverse temperature,
    which the input set scales.
    """
    sets = [
        f"params.g={inputs['g']!r}",
        f"params.delta={inputs['delta']!r}",
        f"params.beta={default_beta * inputs['beta_scale']!r}",
    ]
    if "schedule.scheme=general" in call.sets:
        sets += [f"charger.{k}={inputs[k]!r}" for k in ("q", "theta", "c")]
    return sets + list(call.sets)


def outputs_of(call: Call) -> tuple[str, ...]:
    """File names a call writes, relative to the job directory."""
    stem = call.label
    if call.command in ("power_on", "power_off"):
        return (f"{stem}.csv", f"{stem}_hist.csv", f"{stem}.json")
    if call.command == "lindblad":
        return (f"{stem}.csv", f"{stem}.json")
    return (f"{stem}.csv",)

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sdstab
from sdstab import simloop
from sdstab.certify import SystemDef
from sdstab.lie import ScalarField, VectorField
from sdstab.simloop import (
    FactCheck, IntegrationError, Partition, Trajectory,
    plan_interval, run_closed_loop, verify_facts,
)
from sdstab.simloop import _SAMPLES_PER_INTERVAL, _threshold_times
from sdstab.synth import ControlProgram, flow_endpoint

from test_rk import fixed_steps


@pytest.fixture(scope="module")
def circular():
    """f = (x2, -x1) with closed-form circular orbits; g = 0."""
    return SystemDef(
        VectorField.from_strings(["x2", "-x1"], 2),
        VectorField.from_strings(["0", "0"], 2),
        ScalarField.from_string("0.5*(x1^2+x2^2)", 2),
    )


@pytest.fixture(scope="module")
def inert():
    return SystemDef(
        VectorField.from_strings(["0", "0"], 2),
        VectorField.from_strings(["0", "0"], 2),
        ScalarField.from_string("0.5*(x1^2+x2^2)", 2),
    )


# --- partitions -----------------------------------------------------------------

def test_uniform_partition_times():
    part = Partition.uniform(0.5)
    assert list(part.times_until(2.0)) == [0.0, 0.5, 1.0, 1.5, 2.0]


def test_explicit_partition_with_tail():
    part = Partition.explicit([0.0, 0.1, 0.7, 0.8, 2.0], tail_step=0.5)
    assert list(part.times_until(3.2)) == [0.0, 0.1, 0.7, 0.8, 2.0, 2.5, 3.0, 3.5]


def test_explicit_partition_default_tail():
    part = Partition.explicit([0.0, 0.25, 1.0])
    assert list(part.times_until(2.0)) == [0.0, 0.25, 1.0, 1.75, 2.5]


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition.uniform(0.0)
    with pytest.raises(ValueError):
        Partition.explicit([0.1, 0.5])
    with pytest.raises(ValueError):
        Partition.explicit([0.0, 0.5, 0.4])
    with pytest.raises(ValueError):
        list(Partition.uniform(0.5).times_until(0.0))


@pytest.mark.parametrize("horizon", [math.inf, math.nan])
def test_non_finite_horizon_rejected(dblint, horizon):
    # an infinite horizon used to make times_until append times forever
    with pytest.raises(ValueError, match="finite"):
        list(Partition.uniform(0.5).times_until(horizon))
    for x0 in ([1.0, 0.0], [1e-4, 0.0]):  # outside and inside the stop radius
        with pytest.raises(ValueError, match="finite"):
            run_closed_loop(dblint, x0, Partition.uniform(0.5), horizon)


@pytest.mark.parametrize("stop_radius", [math.nan, math.inf, -1e-3, 0.0])
def test_invalid_stop_radius_rejected(dblint, stop_radius):
    # a NaN radius never stopped the run, and an infinite one stopped it at 0
    for x0 in ([1.0, 0.0], [1e-4, 0.0]):
        with pytest.raises(ValueError, match="stop radius must be positive"):
            run_closed_loop(dblint, x0, Partition.uniform(0.5), 1.0,
                            stop_radius=stop_radius)


_HUGE_HORIZON_RUN = """
import resource, sys
cap = 1 << 30
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from sdstab import Partition, load_system, run_closed_loop
_, report = run_closed_loop(load_system(sys.argv[1]), [1.0, 0.0], Partition.uniform(0.5), 1e12)
print(report.stop_time, report.failure)
"""


def test_huge_horizon_holds_no_partition_times_beyond_the_stop(systems_dir):
    # built up front, the times of a 1e12 s horizon would take about 2e12
    # floats; the run stops near t = 20, under a 1 GiB address-space cap,
    # in a separate process so that a failure cannot exhaust the suite's memory
    env = dict(os.environ, PYTHONPATH=str(Path(sdstab.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-c", _HUGE_HORIZON_RUN, str(systems_dir / "dblint.sys")],
        env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    stop_time, failure = done.stdout.split()
    assert failure == "None"
    assert 15.0 < float(stop_time) < 25.0


# --- open-loop integration ----------------------------------------------------------

def test_integrate_double_integrator_closed_form(dblint):
    samples, _ = flow_endpoint(dblint, [0.0, 0.0], ControlProgram(((1.0, 1.0),)), tol=1e-10)
    np.testing.assert_allclose(samples[-1][1], [0.5, 1.0], atol=1e-10)


def test_integrate_sees_a_peak_inside_one_step(peak_inside_step):
    # no sample time inside the segment, so the steps grow to about 1
    samples, v_max = flow_endpoint(
        peak_inside_step, [0.0, 1.0], ControlProgram(((-1.0, 2.0),)), sample_dt=2.0)
    assert [t for t, _ in samples] == [2.0]
    assert 0.249 <= v_max <= 0.25


def test_integrate_zero_dynamics(inert):
    samples, _ = flow_endpoint(inert, [0.3, -0.7], ControlProgram(((1.0, 2.0),)))
    np.testing.assert_allclose(samples[-1][1], [0.3, -0.7], atol=1e-14)


def test_integrate_records_switches_and_v(dblint):
    prog = ControlProgram(((1.0, 0.5), (-1.0, 0.5)))
    samples, v_max = flow_endpoint(dblint, [0.0, 0.0], prog, sample_dt=0.1)
    times = [t for t, _ in samples]
    assert np.all(np.diff(times) > 0)
    assert 0.5 in times
    assert times[-1] == pytest.approx(1.0)
    assert v_max >= max(dblint.v_at(y) for _, y in samples)


def test_integrate_dense_grid(dblint):
    samples, _ = flow_endpoint(
        dblint, [0.0, 0.0], ControlProgram(((1.0, 1.0),)), sample_dt=0.01)
    assert [t for t, _ in samples] == pytest.approx([0.01 * j for j in range(1, 101)])


def test_tightening_tolerance_reduces_error(circular):
    T = 6.0
    exact = np.array([np.cos(T), -np.sin(T)])
    errors = {}
    for tol in (1e-6, 1e-7, 1e-8):
        samples, _ = flow_endpoint(circular, [1.0, 0.0], ControlProgram(((0.0, T),)),
                                   tol=tol, sample_dt=T)
        errors[tol] = np.linalg.norm(samples[-1][1] - exact)
    assert errors[1e-6] / errors[1e-7] >= 10.0
    assert errors[1e-7] / errors[1e-8] >= 10.0


def observed_integration_order(sys, x0, u, duration, exact_end,
                               step_counts=(32, 64, 128)):
    """Fixed-step convergence slope against a closed-form endpoint."""
    errors = []
    for steps in step_counts:
        end = fixed_steps(sys.rhs(u), np.asarray(x0, dtype=float), duration, steps)
        errors.append(float(np.linalg.norm(end - exact_end)))
    hs = [duration / s for s in step_counts]
    return float(np.polyfit(np.log(hs), np.log(errors), 1)[0])


def test_observed_order_at_least_four(circular):
    T = 6.0
    exact = np.array([np.cos(T), -np.sin(T)])
    slope = observed_integration_order(circular, [1.0, 0.0], 0.0, T, exact)
    assert slope >= 4.0


def test_divergence_detected():
    # x1 = e^t passes the bound 1e6 at t = 13.8
    growth = SystemDef(
        VectorField.from_strings(["x1", "0"], 2),
        VectorField.from_strings(["0", "1"], 2),
        ScalarField.from_string("0.5*(x1^2+x2^2)", 2),
    )
    with pytest.raises(IntegrationError, match="divergence bound 1000000.0 at t = 13.8"):
        flow_endpoint(growth, [1.0, 0.0], ControlProgram(((0.0, 20.0),)))
    # x1 escapes to infinity at t = 0.22
    blowup = SystemDef(
        VectorField.from_strings(["x1^3", "0"], 2),
        VectorField.from_strings(["0", "1"], 2),
        ScalarField.from_string("0.5*(x1^2+x2^2)", 2),
    )
    with pytest.raises(IntegrationError, match="step size underflow at t = 0.222"):
        flow_endpoint(blowup, [1.5, 0.0], ControlProgram(((0.0, 2.0),)))


# --- the closed loop -------------------------------------------------------------------

@pytest.fixture(scope="module")
def short_run(dblint):
    return run_closed_loop(dblint, [1.0, 0.0], Partition.uniform(0.5), 3.0)


def test_closed_loop_checkpoints_decrease(short_run):
    traj, report = short_run
    vs = [v for _, v in report.checkpoint_vs]
    assert len(vs) >= 2
    assert all(b < a for a, b in zip(vs, vs[1:]))
    assert report.failure is None


def test_closed_loop_overshoot_bound(short_run):
    _, report = short_run
    assert report.overshoot_ratio <= 2.0 + 1e-9


def test_closed_loop_trajectory_consistency(short_run, dblint):
    traj, _ = short_run
    assert np.all(np.diff(traj.times) >= 0)
    for state, v in zip(traj.states, traj.v_values):
        assert v == pytest.approx(dblint.v_at(state), abs=1e-12)


def test_closed_loop_immediate_return_inside_stop_radius(dblint):
    traj, report = run_closed_loop(
        dblint, [1e-4, 0.0], Partition.uniform(0.5), 10.0)
    assert report.stopped_early
    assert len(traj.times) == 1
    assert not report.intervals


@pytest.mark.parametrize("x0", [[np.inf, 0.0], [np.nan, 0.0], [1e200, 0.0]])
def test_closed_loop_rejects_non_finite_start(dblint, x0):
    with pytest.raises(ValueError, match="not finite"):
        run_closed_loop(dblint, x0, Partition.uniform(0.5), 5.0)


def test_closed_loop_rejects_n_max_beyond_limit_inside_stop_radius(dblint):
    with pytest.raises(ValueError, match="n_max"):
        run_closed_loop(dblint, (1e-4, 0.0), Partition.uniform(0.5), 1.0, n_max=7)


def test_threshold_times_stop_on_infinite_v():
    traj = Trajectory(np.array([0.0, 1.0]), np.zeros((2, 2)),
                      np.array([np.inf, 1.0]), [], [])
    assert _threshold_times(traj) == {}


def test_executor_runs_the_planned_programs_through_flow_endpoint(dblint):
    """flow_endpoint samples each segment on its own grid and at its end, and
    the closed loop's first interval, samples and switch times, is
    flow_endpoint chained over the planned programs on the interval's grid."""
    program = ControlProgram(((1.0, 0.25), (-1.0, 0.5)))
    samples, _ = flow_endpoint(dblint, [0.0, 0.0], program, sample_dt=0.1)
    times = [t for t, _ in samples]
    assert times == pytest.approx([0.1, 0.2, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75])
    assert times[2] == 0.25 and times[-1] == 0.75
    # x1'' = u: up to (1/32, 1/4), then back to x1 = 1/32 with the speed reversed
    np.testing.assert_allclose(samples[2][1], [0.03125, 0.25], atol=1e-12)
    np.testing.assert_allclose(samples[-1][1], [0.03125, -0.25], atol=1e-12)

    # at radius 0.2 the first interval chains two programs
    traj, report = run_closed_loop(dblint, [0.2, 0.0], Partition.uniform(0.5), 1.0)
    record = report.intervals[0]
    assert len(record.steps) == 2
    sample_dt = (record.t_end - record.t_start) / _SAMPLES_PER_INTERVAL
    x, t_cursor = np.array(record.measured_state), record.t_start
    times, states, events = [], [], []
    for step in record.steps:
        samples, _ = flow_endpoint(dblint, x, step.program, sample_dt=sample_dt)
        times += [t_cursor + t for t, _ in samples]
        states += [y for _, y in samples]
        t_switch = 0.0
        for _, duration in step.program.segments:
            t_switch += duration
            events.append(t_cursor + t_switch)
        t_cursor += step.program.duration
        x = samples[-1][1]
    np.testing.assert_array_equal(traj.times[1:len(times) + 1], times)
    np.testing.assert_array_equal(traj.states[1:len(states) + 1], states)
    assert traj.events[:len(events)] == events
    assert traj.times[len(times)] == events[-1] == pytest.approx(record.t_end)


def test_closed_loop_records_sampled_data_plan(short_run, dblint):
    """The control schedule of an interval is a pure function of the state
    measured at its start: replaying the plan reproduces it exactly."""
    _, report = short_run
    assert report.intervals
    for record in report.intervals[:3]:
        replayed = plan_interval(
            dblint, np.array(record.measured_state),
            record.t_end - record.t_start, 0.5)
        assert [s.program for s in replayed] == [s.program for s in record.steps]


def test_chain_cap_fails_the_interval(dblint, monkeypatch):
    """A chain that would exceed the program cap fails its interval, rather
    than ending the run as if the stop radius had been reached."""
    monkeypatch.setattr(simloop, "_MAX_CHAIN_PROGRAMS", 3)
    traj, report = run_closed_loop(dblint, (1, 0), Partition.uniform(0.5), 50)
    assert report.failure.startswith(
        "interval [8.0, 8.5): the chain reached its cap of 3 programs ")
    assert report.failure.endswith(" s before the interval end")
    assert not report.stopped_early and report.stop_time is None
    assert report.intervals[-1].steps == []
    assert not any(record.clamped for record in report.intervals)
    # every executed program ends at a checkpoint where V has dropped
    programs = [s.program for record in report.intervals for s in record.steps]
    assert len(traj.checkpoints) == len(programs) + 1
    assert traj.checkpoints[-1][0] == traj.times[-1] == 8.0
    assert all(c.passed for c in verify_facts(traj, report)[:2])


def test_closed_loop_determinism(dblint):
    runs = [run_closed_loop(dblint, [1.0, 0.0], Partition.uniform(0.5), 2.0)
            for _ in range(2)]
    (t1, r1), (t2, r2) = runs
    np.testing.assert_array_equal(t1.times, t2.times)
    np.testing.assert_array_equal(t1.states, t2.states)
    assert r1.checkpoint_vs == r2.checkpoint_vs
    assert r1.overshoot_ratio == r2.overshoot_ratio


def test_closed_loop_synthesis_failure_reported(inert_system):
    traj, report = run_closed_loop(
        inert_system, [1.0, 0.0], Partition.uniform(0.5), 2.0)
    assert report.failure is not None
    assert len(report.intervals) == 1
    assert len(traj.times) == 1


# --- verification of the run facts ------------------------------------------------------

def test_verify_facts_pass_on_good_run(short_run):
    traj, report = short_run
    checks = {c.name: c for c in verify_facts(traj, report)}
    assert checks["checkpoint_decrease"].passed
    assert checks["overshoot_bound"].passed
    assert checks["attractivity"].passed


def test_verify_facts_flag_injected_increase(short_run):
    traj, report = short_run
    tampered_cps = list(report.checkpoint_vs)
    t_mid, v_mid = tampered_cps[len(tampered_cps) // 2]
    tampered_cps[len(tampered_cps) // 2] = (t_mid, v_mid + 1.0)
    import dataclasses
    bad_report = dataclasses.replace(report, checkpoint_vs=tampered_cps)
    checks = {c.name: c for c in verify_facts(traj, bad_report)}
    assert not checks["checkpoint_decrease"].passed


def test_verify_facts_vacuous_on_trivial_trajectory(inert):
    traj = Trajectory(
        times=np.array([0.0]),
        states=np.zeros((1, 2)),
        v_values=np.array([0.0]),
        checkpoints=[],
        events=[],
    )
    from sdstab.simloop import LoopReport
    report = LoopReport(
        final_state=np.zeros(2), final_norm=0.0, checkpoint_vs=[],
        overshoot_ratio=1.0, threshold_times={}, intervals=[],
        stopped_early=True, stop_time=0.0)
    checks = verify_facts(traj, report)
    assert all(c.passed for c in checks)
    assert all(isinstance(c, FactCheck) for c in checks)

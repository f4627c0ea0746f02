import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sdstab
from sdstab import simloop, synth
from sdstab.certify import SystemDef
from sdstab.lie import ScalarField, VectorField
from sdstab.simloop import (
    FactCheck, IntegrationError, Partition, Trajectory,
    plan_interval, run_closed_loop, verify_facts,
)
from sdstab._rk import _dense_samples
from sdstab.simloop import _SAMPLES_PER_INTERVAL, _threshold_times
from sdstab.synth import ControlProgram, flow_endpoint, synthesize_step

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
    for bad in (Partition.uniform, lambda t: Partition.explicit([0.0, t]),
                lambda t: Partition.explicit([0.0, 0.5], t),
                lambda t: Partition.explicit([0.0, t, 1.0])):
        for value in (math.inf, math.nan):
            with pytest.raises(ValueError, match="must be finite"):
                bad(value)


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


@pytest.mark.parametrize("option", ["xi_cap", "tol"])
@pytest.mark.parametrize("value", [0.0, -5.0, math.nan, math.inf])
def test_invalid_xi_cap_and_tol_rejected(dblint, option, value):
    # checked up front, so also when the start is inside the stop radius
    what = "max step duration" if option == "xi_cap" else "tolerance"
    for x0 in ([1.0, 0.0], [1e-4, 0.0]):
        with pytest.raises(ValueError, match=f"{what} must be positive and finite"):
            run_closed_loop(dblint, x0, Partition.uniform(0.5), 1.0, **{option: value})


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
    samples, _, _ = flow_endpoint(dblint, [0.0, 0.0], ControlProgram(((1.0, 1.0),)), tol=1e-10)
    np.testing.assert_allclose(samples[-1][1], [0.5, 1.0], atol=1e-10)


def test_integrate_sees_a_peak_inside_one_step(peak_inside_step):
    # no step lands on a sample time, so one step spans the segment, and
    # the closed loop's samples, read from its continuous extension, see
    # the peak of 0.25 too, as the check every 1/16 of the segment does
    samples, v_max, (steps,) = flow_endpoint(
        peak_inside_step, [0.0, 1.0], ControlProgram(((-1.0, 2.0),)))
    assert [t for t, _, _ in samples] == [2.0]
    assert 0.249 <= v_max <= 0.25 + 1e-12
    assert max(h for _, h, _, _ in steps) > 0.5
    grid = _dense_samples(peak_inside_step.kernel_fns[1], steps, (0.0, 1.0), 2.0, 0.02)
    assert v_max <= max(v for _, _, v in grid) <= 0.25 + 1e-12


def test_integrate_zero_dynamics(inert):
    samples, _, _ = flow_endpoint(inert, [0.3, -0.7], ControlProgram(((1.0, 2.0),)))
    np.testing.assert_allclose(samples[-1][1], [0.3, -0.7], atol=1e-14)


def test_integrate_records_switches_and_v(dblint):
    prog = ControlProgram(((1.0, 0.5), (-1.0, 0.5)))
    samples, v_max, steps = flow_endpoint(dblint, [0.0, 0.0], prog)
    assert [t for t, _, _ in samples] == [0.5, 1.0]
    # each segment's steps run from its start to its end
    starts = [(0.0, 0.0), samples[0][1]]
    for (_, duration), segment_steps, start in zip(prog.segments, steps, starts):
        assert segment_steps[0][0] == 0.0 and segment_steps[0][2] == start
        assert segment_steps[-1][0] + segment_steps[-1][1] == pytest.approx(duration)
    inside = [y for (_, duration), segment_steps, start in zip(prog.segments, steps, starts)
              for _, y, _ in _dense_samples(dblint.kernel_fns[1], segment_steps, start, duration, 0.1)]
    assert len(inside) == 8
    assert v_max >= max(dblint.v_at(y) for y in inside + [y for _, y, _ in samples])


def test_flow_endpoint_samples_carry_the_kernels_v(dblint):
    # the 1e-14 s segments end within roundoff of their start, with no step
    tiny = 1e-14
    prog = ControlProgram(((1.0, 0.3), (-1.0, tiny), (0.5, 0.25), (1.0, tiny / 2)))
    samples, v_max, steps = flow_endpoint(dblint, [0.2, -0.1], prog)
    times = [t for t, _, _ in samples]
    assert times == pytest.approx([0.3, 0.3, 0.55, 0.55])
    assert samples[1][1] == samples[0][1] and samples[-1][1] == samples[-2][1]
    assert steps[1] == [] and steps[3] == [] and steps[0] and steps[2]
    for _, state, v in samples:
        assert isinstance(state, tuple)
        assert v.hex() == dblint.v_at(state).hex()
    assert v_max >= max(v for _, _, v in samples)


def test_flow_endpoint_turns_a_v_domain_error_into_integration_error():
    # V = exp(x1^2) - 1 + x2^2 overflows at the start (27, 0.5), and along
    # the flow from (26, 0.5) once x1 passes 26.64
    steep = SystemDef(VectorField.from_strings(["1000", "0"], 2),
                      VectorField.from_strings(["0", "1"], 2),
                      ScalarField.from_string("exp(x1^2)-1+x2^2", 2))
    with pytest.raises(IntegrationError, match="V failed at the start"):
        flow_endpoint(steep, [27.0, 0.5], ControlProgram(((0.0, 0.1),)))
    with pytest.raises(IntegrationError, match="V failed"):
        flow_endpoint(steep, [26.0, 0.5], ControlProgram(((0.0, 0.1),)))


def test_integrate_dense_grid(dblint):
    # the grid inside the segment comes from the continuous extension of a
    # few steps sized by the error control alone; x = (t^2/2, t) under u = 1
    samples, _, (steps,) = flow_endpoint(dblint, [0.0, 0.0], ControlProgram(((1.0, 1.0),)))
    grid = _dense_samples(dblint.kernel_fns[1], steps, (0.0, 0.0), 1.0, 0.01)
    assert [s for s, _, _ in grid] == [0.01 * j for j in range(1, 100)]
    assert len(steps) < 10
    for s, y, _ in grid:
        np.testing.assert_allclose(y, [s * s / 2.0, s], rtol=0, atol=1e-12)
    assert [t for t, _, _ in samples] == [1.0]


def test_tightening_tolerance_reduces_error(circular):
    T = 6.0
    exact = np.array([np.cos(T), -np.sin(T)])
    errors = {}
    for tol in (1e-6, 1e-7, 1e-8):
        samples, _, _ = flow_endpoint(circular, [1.0, 0.0], ControlProgram(((0.0, T),)),
                                      tol=tol)
        errors[tol] = np.linalg.norm(samples[-1][1] - exact)
    assert errors[1e-6] / errors[1e-7] >= 10.0
    assert errors[1e-7] / errors[1e-8] >= 10.0


def observed_integration_order(sys, x0, u, duration, exact_end,
                               step_counts=(32, 64, 128)):
    """Fixed-step convergence slope against a closed-form endpoint."""
    errors = []
    for steps in step_counts:
        end = fixed_steps(sys.kernel_fns[0], u, x0, duration, steps)
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
    assert len(traj.v_values) == len(traj.states)
    for state, v in zip(traj.states, traj.v_values):
        # the kernel's V at each sample, bit for bit
        assert float(v).hex() == dblint.v_at(state).hex()


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


def test_closed_loop_rejects_a_non_integer_n_max(dblint):
    with pytest.raises(ValueError, match="n_max must be an integer, got 2.5"):
        run_closed_loop(dblint, (1.0, 0.0), Partition.uniform(0.5), 1.0, n_max=2.5)


def test_threshold_times_stop_on_infinite_v():
    traj = Trajectory(np.array([0.0, 1.0]), np.zeros((2, 2)),
                      np.array([np.inf, 1.0]), [], [])
    assert _threshold_times(traj) == {}


def test_a_landing_program_runs_as_synthesized(rotation3, monkeypatch):
    """A program within _LANDING_RTOL of the time left ends the chain as
    synthesize_step verified it: with rho = 2 alone, the first P4 candidate
    from (1, 0, 0), t + 2t with t a third of this interval, overshoots it
    by one rounding unit."""
    monkeypatch.setattr(synth, "_RHO_GRID", (2.0,))
    x0, duration = (1.0, 0.0, 0.0), 0.769975265677168
    steps = plan_interval(rotation3, x0, duration, 1.0)
    assert len(steps) == 1
    (step,) = steps
    assert step.program.duration != duration
    assert step.program == synthesize_step(rotation3, x0, duration).program
    samples, v_max, _ = step._flow
    v0 = rotation3.v_value(x0)
    _, end_state, v_end = samples[-1]
    assert (step.v_drop, step.sup_v_ratio, step.end_state) == (v0 - v_end, v_max / v0, end_state)
    assert abs(sum(s.program.duration for s in steps) - duration) <= (
        simloop._LANDING_RTOL * duration)


def test_executor_reads_the_planned_simulation(dblint):
    """The closed loop's first interval, samples, checkpoints and switch
    times, is the planner's simulation: every segment end is the one the
    planner computed, and the states inside a segment, on the grid of
    multiples of the interval / 100 from its start, lie on the exact flow
    from the segment's start state."""
    traj, report = run_closed_loop(dblint, [0.2, 0.0], Partition.uniform(0.5), 1.0)
    record = report.intervals[0]
    assert len(record.steps) == 2
    planned = plan_interval(dblint, record.measured_state, 0.5, 1.0)
    assert planned == record.steps
    sample_dt = (record.t_end - record.t_start) / _SAMPLES_PER_INTERVAL
    t_cursor, row = record.t_start, 1
    for step in planned:
        ends, _, _ = step._flow
        t_base, start = 0.0, traj.states[row - 1]
        for (u, duration), (t_end, y_end, v_end) in zip(step.program.segments, ends):
            grid = [j * sample_dt for j in range(1, int(duration / sample_dt) + 1)
                    if j * sample_dt < duration * (1 - 1e-12)]
            for s in grid:
                assert traj.times[row] == t_cursor + (t_base + s)
                # x1'' = u from the segment's start
                exact = [start[0] + start[1] * s + u * s * s / 2.0, start[1] + u * s]
                np.testing.assert_allclose(traj.states[row], exact, rtol=0, atol=1e-12)
                row += 1
            assert traj.times[row] == t_cursor + t_end
            assert tuple(traj.states[row]) == y_end and traj.v_values[row] == v_end
            assert t_cursor + t_end in traj.events
            t_base, start = t_end, traj.states[row]
            row += 1
        t_cursor = t_cursor + t_base
    assert row > 100 and traj.times[row - 1] == pytest.approx(record.t_end)



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

# --- executing the plan ----------------------------------------------------------------

@pytest.mark.parametrize("run, programs, rows", [
    ("dblint_run", 1894, 6579), ("rotation_run", 481, 20293)])
def test_acceptance_runs_keep_their_programs_and_sample_rows(request, run, programs, rows):
    # rows are trajectory.csv's data rows: 100 samples per interval inside
    # the segments, the segment ends and the start
    traj, report = request.getfixturevalue(run)
    assert sum(len(record.steps) for record in report.intervals) == programs
    assert len(traj.times) == rows


@pytest.mark.parametrize("run", ["dblint_run", "rotation_run"])
def test_executed_checkpoints_are_the_planned_end_states(request, run):
    traj, report = request.getfixturevalue(run)
    planned = [step.end_state for record in report.intervals for step in record.steps]
    executed = [x for _, x, _ in traj.checkpoints[1:]]
    assert len(executed) == len(planned)
    assert np.array(executed).tobytes() == np.array(planned).tobytes()
    # each interval is planned from the state of its first checkpoint, and
    # the overshoot ratio covers every sample up to the next checkpoint
    starts = iter(traj.checkpoints)
    for record in report.intervals:
        t, x, _ = next(starts)
        assert t == pytest.approx(record.t_start) and tuple(x) == record.measured_state
        for _ in record.steps[1:]:
            next(starts)
    for (t_a, _, v_a), (t_b, _, _) in zip(traj.checkpoints, traj.checkpoints[1:]):
        inside = traj.v_values[(traj.times > t_a) & (traj.times <= t_b)]
        assert inside.max() <= report.overshoot_ratio * v_a


@pytest.mark.parametrize("run", ["dblint_run", "rotation_run"])
def test_no_step_of_a_report_holds_its_simulation(request, run):
    _, report = request.getfixturevalue(run)
    assert all(step._flow is None for record in report.intervals for step in record.steps)


@pytest.mark.parametrize("run, system", [("dblint_run", "dblint"), ("rotation_run", "rotation3")])
def test_interpolated_samples_agree_with_dop853(request, run, system):
    """Every sample inside a segment, read from the kernel's continuous
    extension at tol = 1e-10, lies within 1e-10 of scipy's DOP853 at
    rtol 1e-13 from the same segment start (2e-12 is the largest seen)."""
    integrate = pytest.importorskip("scipy.integrate")
    traj, report = request.getfixturevalue(run)
    field = request.getfixturevalue(system).kernel_fns[0]
    segments = [(u, d) for record in report.intervals for step in record.steps
                for u, d in step.program.segments]
    assert len(segments) == len(traj.events)
    row, t_start, x_start, checked = 1, 0.0, traj.states[0], 0
    for (u, _), t_end in zip(segments, traj.events):
        inside = []
        while traj.times[row] != t_end:
            inside.append(row)
            row += 1
        if inside:
            times = traj.times[inside] - t_start
            ref = integrate.solve_ivp(lambda t, y: field(*y, u), (0.0, times[-1]), x_start,
                                      method="DOP853", t_eval=times, rtol=1e-13, atol=1e-15)
            assert np.abs(ref.y.T - traj.states[inside]).max() <= 1e-10
            checked += len(inside)
        t_start, x_start = t_end, traj.states[row]
        row += 1
    assert row == len(traj.times) and checked > 2000


def test_run_calls_plan_interval_through_the_module_global(dblint, monkeypatch):
    # the benchmark times plan_interval by replacing it on the module
    measured = []
    plan = simloop.plan_interval

    def recording(sys, z, *args, **kwargs):
        measured.append(z)
        return plan(sys, z, *args, **kwargs)

    monkeypatch.setattr(simloop, "plan_interval", recording)
    _, report = run_closed_loop(dblint, [0.2, 0.0], Partition.uniform(0.5), 2.0)
    assert len(report.intervals) == 4
    assert measured == [record.measured_state for record in report.intervals]

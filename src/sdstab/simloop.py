"""Sampled-data closed-loop execution and verification.

The loop takes an arbitrary sampling partition T1 = 0 < T2 < ... and, on
each interval [T_i, T_{i+1}), builds the control from the state measured
at T_i alone: starting from that measurement it chains verified one-step
programs on model-predicted states (the model and the plant coincide
here), then integrates the plant through the resulting schedule. Chain
boundaries where a program ran to completion are recorded as checkpoints;
V must drop strictly at every checkpoint and stay below twice the value
at the latest checkpoint in between. Both the planner and the executor
check the latter at every accepted integration step and on the
integrator's continuous extension inside it, at least every 1/16 of each
program segment.

Each chained program is synthesized with its duration capped by the time
remaining in the interval; since the candidate durations start at that
cap and halve, chains normally land exactly on T_{i+1}. A chain that
fails to land after many programs is truncated at T_{i+1} and the
interval is flagged as clamped. Synthesis searches fixed, finite grids
(at most 4,840 simulations a step), so a step that no candidate achieves
ends the run with a recorded failure.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._rk import IntegrationError, integrate_segment, fixed_steps
from .certify import DEFAULT_N_MAX, SystemDef, _check_n_max
from .synth import (
    CertificateInconclusive, ControlProgram, StepResult, SynthesisFailed,
    flow_endpoint, synthesize_step,
)

__all__ = [
    "Partition", "Trajectory", "LoopReport", "IntervalRecord", "PlannedStep",
    "FactCheck", "IntegrationError",
    "integrate", "run_closed_loop", "verify_facts", "plan_interval",
]

DEFAULT_STOP_RADIUS = 1e-3
# trajectory samples recorded per partition interval
_SAMPLES_PER_INTERVAL = 100
# near the origin the overshoot bound forces program durations of order |x|,
# so interval chains legitimately hold many programs before the stop radius
_MAX_CHAIN_PROGRAMS = 4096
_LANDING_RTOL = 1e-9


def _check_horizon(horizon: float) -> None:
    # an infinite horizon would make the partition's time list endless
    if not (horizon > 0 and math.isfinite(horizon)):
        raise ValueError(f"horizon must be positive and finite, got {horizon}")


@dataclass(frozen=True)
class Partition:
    """Sampling times T1 = 0 < T2 < ...; explicit leading times followed by
    an unbounded uniform continuation."""

    lead_times: tuple[float, ...]
    step: float

    def __post_init__(self):
        if not self.lead_times or self.lead_times[0] != 0.0:
            raise ValueError("partition must start at time 0")
        for a, b in zip(self.lead_times, self.lead_times[1:]):
            if not b > a:
                raise ValueError("partition times must be strictly increasing")
        if not self.step > 0:
            raise ValueError(f"continuation step must be positive, got {self.step}")

    @classmethod
    def uniform(cls, step: float) -> "Partition":
        return cls((0.0,), step)

    @classmethod
    def explicit(cls, times: Sequence[float], tail_step: float | None = None) -> "Partition":
        times = tuple(float(t) for t in times)
        if tail_step is None:
            if len(times) < 2:
                raise ValueError("explicit partition needs at least two times")
            tail_step = times[-1] - times[-2]
        return cls(times, float(tail_step))

    @property
    def kind(self) -> str:
        return "uniform" if len(self.lead_times) == 1 else "explicit"

    def times_until(self, horizon: float) -> list[float]:
        """Strictly increasing times from 0 through the first one >= horizon."""
        _check_horizon(horizon)
        return list(self._times_through(horizon))

    def _times_through(self, horizon: float):
        """The times of times_until, generated one at a time, so that a run
        that stops early holds none of those beyond its stop."""
        for t in self.lead_times:
            yield t
            if t >= horizon:
                return
        k = 1
        while True:
            t = self.lead_times[-1] + k * self.step
            yield t
            if t >= horizon:
                return
            k += 1


@dataclass
class Trajectory:
    """Dense samples of a run plus checkpoint and switching metadata.
    v_sup is the largest V seen at any accepted integration step or on the
    continuous extension inside one, which is finer-grained than the
    recorded samples."""

    times: np.ndarray
    states: np.ndarray
    v_values: np.ndarray
    checkpoints: list[tuple[float, np.ndarray, float]]
    events: list[float]
    v_sup: float = 0.0


@dataclass(frozen=True)
class PlannedStep:
    program: ControlProgram
    case: str
    N: int
    rho: float
    u1: float
    predicted_drop: float
    predicted_ratio: float
    predicted_end: tuple[float, ...]


@dataclass
class IntervalRecord:
    t_start: float
    t_end: float
    measured_state: tuple[float, ...]
    steps: list[PlannedStep]
    clamped: bool


@dataclass
class LoopReport:
    final_state: np.ndarray
    final_norm: float
    checkpoint_vs: list[tuple[float, float]]
    overshoot_ratio: float
    threshold_times: dict[float, float]
    intervals: list[IntervalRecord]
    stopped_early: bool
    stop_time: float | None
    failure: str | None = None


@dataclass(frozen=True)
class FactCheck:
    name: str
    passed: bool
    detail: str


# --- program integration -------------------------------------------------------

def integrate(sys: SystemDef, x0, program: ControlProgram, tol: float = 1e-10,
              sample_dt: float | None = None) -> Trajectory:
    """Integrate the program from x0, stepping exactly onto segment switch
    times, with dense output every sample_dt (default: duration/100)."""
    if sample_dt is None:
        sample_dt = program.duration / 100.0
    times, states, events, v_sup = _integrate_program(sys, x0, program, tol, sample_dt)
    return _assemble(sys, times, states, [], events, v_sup)


def _integrate_program(sys: SystemDef, x0, program: ControlProgram, tol: float,
                       sample_dt: float):
    """The samples of integrate() as lists of times and states from 0, the
    switch times between segments, and v_sup, without the V values of the
    samples that integrate() adds (the closed loop assembles its run once)."""
    x = np.asarray(x0, dtype=float)
    times = [0.0]
    states = [x.copy()]
    events = []
    t_base = 0.0
    v_at = sys.v_at
    v_sup = v_at(x)

    def track(*point):
        # called as on_step(t, state) and as on_dense(state)
        nonlocal v_sup
        v = v_at(point[-1])
        if v > v_sup:
            v_sup = v

    for value, duration in program.segments:
        interior = _interior_grid(duration, sample_dt)
        samples, x = integrate_segment(
            sys.rhs(value), x, duration, tol, sample_times=interior,
            on_step=track, on_dense=track)
        for s, y in samples[1:]:
            times.append(t_base + s)
            states.append(y)
        t_base += duration
        events.append(t_base)
    return times, states, events[:-1], v_sup


def _interior_grid(duration: float, sample_dt: float) -> list[float]:
    if sample_dt <= 0 or sample_dt >= duration:
        return []
    count = int(math.floor(duration / sample_dt))
    grid = [j * sample_dt for j in range(1, count + 1)]
    return [s for s in grid if s < duration * (1 - 1e-12)]


# --- interval planning -----------------------------------------------------------

def plan_interval(
        sys: SystemDef, z, duration: float, xi_cap: float, *,
        tol: float = 1e-10, n_max: int = DEFAULT_N_MAX,
        stop_radius: float = DEFAULT_STOP_RADIUS) -> tuple[list[PlannedStep], bool]:
    """Chain one-step programs covering [0, duration] from the measured
    state z, advancing on model-predicted states only. Returns the planned
    steps and whether the final program had to be clamped.

    Deterministic in its arguments: replaying it from the same measured
    state reproduces the same control schedule exactly.
    """
    steps: list[PlannedStep] = []
    state = np.asarray(z, dtype=float)
    remaining = duration
    clamped = False
    last_eps = None
    while remaining > 0:
        if float(np.linalg.norm(state)) <= stop_radius:
            break
        if len(steps) >= _MAX_CHAIN_PROGRAMS:
            # Zeno guard: synthesize once more without the remaining-time cap
            # and truncate the program at the interval end.
            result = synthesize_step(
                sys, state, min(xi_cap, duration), n_max=n_max, tol=tol)
            program = (result.program.truncated(remaining)
                       if result.program.duration > remaining else result.program)
            end, _ = flow_endpoint(sys, state, program, tol)
            steps.append(_planned(result, program, end))
            clamped = True
            break
        # warm start: durations rarely grow much between consecutive chain
        # programs, so cap the search near the last success (it can still
        # double every program when the state allows longer steps)
        xi_step = min(xi_cap, remaining)
        if last_eps is not None:
            xi_step = min(xi_step, max(2.0 * last_eps, remaining / 64.0))
        result = synthesize_step(sys, state, xi_step, n_max=n_max, tol=tol)
        program = result.program
        eps = program.duration
        end = np.array(result.end_state)
        if abs(eps - remaining) <= _LANDING_RTOL * remaining:
            # snap onto the interval end; the relative rescale is O(1e-9)
            # and preserves the two-segment duration ratio exactly
            program = program.scaled(remaining / eps)
            eps = remaining
            end, _ = flow_endpoint(sys, state, program, tol)
        steps.append(_planned(result, program, end))
        state = end
        remaining -= eps
        last_eps = eps
    return steps, clamped


def _planned(result: StepResult, program: ControlProgram, end: np.ndarray) -> PlannedStep:
    return PlannedStep(
        program=program,
        case=result.certificate.case.value,
        N=result.certificate.N,
        rho=result.rho,
        u1=result.u1,
        predicted_drop=result.v_drop,
        predicted_ratio=result.sup_v_ratio,
        predicted_end=tuple(float(v) for v in end),
    )


# --- the closed loop --------------------------------------------------------------

def run_closed_loop(
        sys: SystemDef, x0, partition: Partition, horizon: float,
        xi_cap: float = 1.0, *,
        stop_radius: float = DEFAULT_STOP_RADIUS,
        tol: float = 1e-10, n_max: int = DEFAULT_N_MAX) -> tuple[Trajectory, LoopReport]:
    """Execute the sampled-data loop: measure at each partition time, apply
    the planned open-loop schedule until the next one, stop early once the
    state enters the stop radius. Programs are capped by the time remaining
    in their interval, so ``xi_cap`` only bounds the longest step ever
    attempted. The partition times are generated as the run reaches them,
    so a huge horizon costs nothing beyond the stop."""
    # also when the start is already inside the stop radius
    _check_n_max(n_max)
    _check_horizon(horizon)
    x = np.asarray(x0, dtype=float)
    v0 = sys.v_value(x)
    times = [0.0]
    states = [x.copy()]
    checkpoints = [(0.0, x.copy(), v0)]
    events: list[float] = []
    intervals: list[IntervalRecord] = []
    stopped = False
    stop_time = None
    failure = None
    overshoot = 1.0
    v_sup = v0

    if float(np.linalg.norm(x)) <= stop_radius:
        traj = _assemble(sys, times, states, checkpoints, events, v_sup)
        report = _report(sys, traj, intervals, True, 0.0, None, overshoot)
        return traj, report

    t_cursor = 0.0
    for t_a, t_b in itertools.pairwise(partition._times_through(horizon)):
        t_b = min(t_b, horizon)
        if t_b <= t_a or stopped:
            break
        measured = x.copy()
        try:
            planned, clamped = plan_interval(
                sys, measured, t_b - t_a, xi_cap, tol=tol, n_max=n_max,
                stop_radius=stop_radius)
        except (SynthesisFailed, CertificateInconclusive, IntegrationError) as exc:
            failure = f"interval [{t_a}, {t_b}): {exc}"
            intervals.append(IntervalRecord(
                t_a, t_b, tuple(float(v) for v in measured), [], False))
            break
        record = IntervalRecord(
            t_a, t_b, tuple(float(v) for v in measured), planned, clamped)
        intervals.append(record)
        sample_dt = (t_b - t_a) / _SAMPLES_PER_INTERVAL
        for idx, step in enumerate(planned):
            base_v = checkpoints[-1][2]
            piece_times, piece_states, piece_events, piece_sup = _integrate_program(
                sys, x, step.program, tol, sample_dt)
            for s, y in zip(piece_times[1:], piece_states[1:]):
                times.append(t_cursor + s)
                states.append(y)
            for e in piece_events:
                events.append(t_cursor + e)
            t_cursor += step.program.duration
            events.append(t_cursor)
            x = piece_states[-1].copy()
            v_sup = max(v_sup, piece_sup)
            if base_v > 0:
                overshoot = max(overshoot, piece_sup / base_v)
            is_last = idx == len(planned) - 1
            if not (clamped and is_last):
                checkpoints.append((t_cursor, x.copy(), sys.v_at(x)))
            if float(np.linalg.norm(x)) <= stop_radius:
                stopped = True
                stop_time = t_cursor
                break
        if not stopped and t_b - t_cursor > 1e-9 * max(1.0, t_b):
            # the planner gave up early only because its predicted state
            # entered the stop radius; the executed state agrees to within
            # integration tolerance, so end the run here
            stopped = True
            stop_time = t_cursor
        if stopped:
            break

    traj = _assemble(sys, times, states, checkpoints, events, v_sup)
    report = _report(sys, traj, intervals, stopped, stop_time, failure, overshoot)
    return traj, report


def _assemble(sys, times, states, checkpoints, events, v_sup) -> Trajectory:
    times = np.array(times)
    states = np.vstack(states)
    v_values = np.array([sys.v_at(y) for y in states])
    return Trajectory(times, states, v_values, checkpoints, events, v_sup)


def _report(sys, traj: Trajectory, intervals, stopped, stop_time, failure,
            overshoot) -> LoopReport:
    final_state = traj.states[-1]
    checkpoint_vs = [(t, v) for t, _, v in traj.checkpoints]
    thresholds = _threshold_times(traj)
    return LoopReport(
        final_state=final_state,
        final_norm=float(np.linalg.norm(final_state)),
        checkpoint_vs=checkpoint_vs,
        overshoot_ratio=overshoot,
        threshold_times=thresholds,
        intervals=intervals,
        stopped_early=stopped,
        stop_time=stop_time,
        failure=failure,
    )


def _threshold_times(traj: Trajectory) -> dict[float, float]:
    """First time from which V stays at or below each half-decade threshold."""
    if len(traj.times) == 0:
        return {}
    v = traj.v_values
    suffix_max = np.maximum.accumulate(v[::-1])[::-1]
    v_start = v[0]
    out = {}
    if not 0 < v_start < math.inf:
        # halving an infinite V never reaches a threshold
        return out
    mu = v_start / 2.0
    floor = float(np.min(suffix_max))
    while mu >= floor and mu > 0:
        idx = np.argmax(suffix_max <= mu)
        if suffix_max[idx] <= mu:
            out[mu] = float(traj.times[idx])
        else:
            break
        mu /= 2.0
    return out


# --- verification ------------------------------------------------------------------

def verify_facts(traj: Trajectory, report: LoopReport,
                 thresholds: Sequence[float] | None = None) -> list[FactCheck]:
    """Named checks of the decrease, boundedness and attractivity facts a
    successful run must satisfy. Reports failures, never raises."""
    checks = []

    vs = [v for _, v in report.checkpoint_vs]
    drops = [a - b for a, b in zip(vs, vs[1:])]
    decrease_ok = all(d > 0 for d in drops)
    detail = (f"min drop {min(drops):.3e}" if drops else "fewer than two checkpoints")
    checks.append(FactCheck("checkpoint_decrease", decrease_ok, detail))

    bound_ok = report.overshoot_ratio <= 2.0 + 1e-9
    checks.append(FactCheck(
        "overshoot_bound", bound_ok, f"ratio {report.overshoot_ratio:.6f}"))

    if thresholds is None:
        thresholds = _attained_thresholds(traj, report)
    attr_ok = True
    details = []
    for mu in thresholds:
        tau = None
        for t, v in report.checkpoint_vs:
            if 4.0 * v <= mu:
                tau = t
                break
        if tau is None:
            continue
        mask = traj.times >= tau
        worst = float(np.max(traj.v_values[mask])) if np.any(mask) else 0.0
        ok = worst <= mu * (1 + 1e-9)
        attr_ok = attr_ok and ok
        details.append(f"mu={mu:.3e}: tau={tau:.3f}, sup V after = {worst:.3e}")
    checks.append(FactCheck(
        "attractivity", attr_ok, "; ".join(details) if details else "no threshold attained"))
    return checks


def _attained_thresholds(traj: Trajectory, report: LoopReport) -> list[float]:
    if not report.checkpoint_vs:
        return []
    v0 = report.checkpoint_vs[0][1]
    v_min = min(v for _, v in report.checkpoint_vs)
    out = []
    mu = v0 / 2.0
    while mu > 4.0 * v_min and mu > 0:
        out.append(mu)
        mu /= 4.0
    return out


def observed_integration_order(sys: SystemDef, x0, u: float, duration: float,
                               exact_end: np.ndarray,
                               step_counts: Sequence[int] = (32, 64, 128)) -> float:
    """Fixed-step convergence slope against a closed-form endpoint."""
    errors = []
    for steps in step_counts:
        end = fixed_steps(sys.rhs(u), np.asarray(x0, dtype=float), duration, steps)
        errors.append(float(np.linalg.norm(end - exact_end)))
    hs = [duration / s for s in step_counts]
    slope = np.polyfit(np.log(hs), np.log(errors), 1)[0]
    return float(slope)

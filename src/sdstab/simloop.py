"""Sampled-data closed-loop execution and verification.

The loop takes an arbitrary sampling partition T1 = 0 < T2 < ... and, on
each interval [T_i, T_{i+1}), builds the control from the state measured
at T_i alone: starting from that measurement it chains verified one-step
programs on model-predicted states, then applies the resulting schedule.
The model and the plant coincide here, so the planner's simulation of
each program is the plant's trajectory under it: the executor reads its
checkpoints, switch times and samples from that simulation instead of
integrating the program a second time. Chain boundaries where a program
ran to completion are recorded as checkpoints; V must drop strictly at
every checkpoint and stay below twice the value at the latest checkpoint
in between. The planner runs every program through
``synth.flow_endpoint``, which checks the latter at every accepted
integration step and on the integrator's continuous extension inside it,
at least every 1/16 of each program segment. The trajectory's samples,
100 per interval on a grid restarted at each segment start, are read from
the same continuous extension (Shampine 1986), and their V counts towards
the reported overshoot ratio too.

Each chained program is synthesized with its duration capped by the time
remaining in the interval; since the candidate durations start at that
cap and halve, chains normally land on T_{i+1}: a program within a
relative 1e-9 of the time remaining ends the chain, and it runs as
synthesis verified it, unscaled, so the chain's durations sum to the
interval length within that tolerance, not always exactly. A chain that
needs more than 4,096 programs fails the interval. Synthesis searches
fixed, finite grids (at most 4,840 simulations a step), so a step that no
candidate achieves ends the run with a recorded failure, as does such a
chain.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from ._rk import IntegrationError, _check_positive, _dense_samples
from .certify import DEFAULT_N_MAX, SystemDef, _check_n_max
from .synth import (
    CertificateInconclusive, StepResult, SynthesisFailed, synthesize_step,
)

__all__ = [
    "Partition", "Trajectory", "LoopReport", "IntervalRecord", "FactCheck",
    "IntegrationError", "run_closed_loop", "verify_facts", "plan_interval",
]

DEFAULT_STOP_RADIUS = 1e-3
# trajectory samples recorded per partition interval
_SAMPLES_PER_INTERVAL = 100
# near the origin the overshoot bound forces program durations of order |x|,
# so interval chains legitimately hold many programs before the stop radius;
# a chain that needs more fails its interval
_MAX_CHAIN_PROGRAMS = 4096
_LANDING_RTOL = 1e-9


@dataclass(frozen=True)
class Partition:
    """Sampling times T1 = 0 < T2 < ...; explicit leading times followed by
    an unbounded uniform continuation."""

    lead_times: tuple[float, ...]
    step: float

    def __post_init__(self):
        if not all(map(math.isfinite, (*self.lead_times, self.step))):
            raise ValueError("partition times and step must be finite")
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

    def times_until(self, horizon: float):
        """Strictly increasing times from 0 through the first one >= horizon,
        generated one at a time, so that a run that stops early holds none of
        those beyond its stop. The horizon is checked before the first."""
        # an infinite horizon would make the time list endless
        _check_positive("horizon", horizon)
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
    """Dense samples of a run plus checkpoint and switching metadata."""

    times: np.ndarray
    states: np.ndarray
    v_values: np.ndarray
    checkpoints: list[tuple[float, np.ndarray, float]]
    events: list[float]


@dataclass
class IntervalRecord:
    t_start: float
    t_end: float
    measured_state: tuple[float, ...]
    steps: list[StepResult]
    # always False: a chain that does not land fails its interval instead
    # (kept for the benchmark: perfbench/checks.py::check_loop reads it)
    clamped: bool = False


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


# --- interval planning -----------------------------------------------------------

def plan_interval(
        sys: SystemDef, z, duration: float, xi_cap: float, *,
        tol: float = 1e-10, n_max: int = DEFAULT_N_MAX,
        stop_radius: float = DEFAULT_STOP_RADIUS) -> list[StepResult]:
    """Chain one-step programs covering [0, duration] from the measured
    state z, advancing on model-predicted states only. Returns the
    synthesized steps, each ending where the next starts and carrying the
    simulation of its program in ``_flow``; the chain stops short of
    ``duration`` only when a predicted state enters the stop radius. A
    program within a relative _LANDING_RTOL of the time remaining lands
    the chain as it is, so every step is the one synthesize_step verified.
    Raises SynthesisFailed when the chain would exceed _MAX_CHAIN_PROGRAMS
    programs.

    Deterministic in its arguments: replaying it from the same measured
    state reproduces the same control schedule exactly.
    """
    steps: list[StepResult] = []
    state = z
    remaining = duration
    while remaining > 0:
        if float(np.linalg.norm(state)) <= stop_radius:
            break
        if len(steps) >= _MAX_CHAIN_PROGRAMS:
            raise SynthesisFailed(
                f"the chain reached its cap of {_MAX_CHAIN_PROGRAMS} programs "
                f"{remaining!r} s before the interval end")
        # warm start: durations rarely grow much between consecutive chain
        # programs, so cap the search near the last success (it can still
        # double every program when the state allows longer steps)
        xi_step = min(xi_cap, remaining)
        if steps:
            xi_step = min(xi_step, max(2.0 * steps[-1].program.duration, remaining / 64.0))
        result = synthesize_step(sys, state, xi_step, n_max=n_max, tol=tol, _keep_flow=True)
        steps.append(result)
        state = result.end_state
        eps = result.program.duration
        remaining = 0.0 if abs(eps - remaining) <= _LANDING_RTOL * remaining else remaining - eps
    return steps


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
    so a huge horizon costs nothing beyond the stop. The trajectory records
    the planner's simulations: each segment end with the V the kernel
    computed there, and the multiples of the interval length / 100 inside
    each segment, read from the integrator's continuous extension. Raises
    ValueError unless x0 and V(x0) are finite and the horizon, stop
    radius, ``xi_cap`` and ``tol`` are positive and finite."""
    # also when the start is already inside the stop radius
    _check_n_max(n_max)
    _check_positive("horizon", horizon)
    # a NaN radius would never stop the run, and an infinite one stops it at 0
    _check_positive("stop radius", stop_radius)
    _check_positive("max step duration", xi_cap)
    _check_positive("tolerance", tol)
    v0 = sys.v_value(x0)
    v_fn = sys.kernel_fns[1]
    x = tuple(map(float, x0))
    times, states, v_values = [0.0], [x], [v0]
    checkpoints = [(0.0, np.array(x), v0)]
    events: list[float] = []
    intervals: list[IntervalRecord] = []
    stopped = False
    stop_time = None
    failure = None
    overshoot = 1.0
    if float(np.linalg.norm(x)) <= stop_radius:
        stopped, stop_time = True, 0.0

    t_cursor = 0.0
    for t_a, t_b in itertools.pairwise(partition.times_until(horizon)):
        t_b = min(t_b, horizon)
        if stopped:
            break
        try:
            planned = plan_interval(
                sys, x, t_b - t_a, xi_cap, tol=tol, n_max=n_max,
                stop_radius=stop_radius)
        except (SynthesisFailed, CertificateInconclusive, IntegrationError) as exc:
            failure = f"interval [{t_a}, {t_b}): {exc}"
            intervals.append(IntervalRecord(t_a, t_b, x, []))
            break
        intervals.append(IntervalRecord(
            t_a, t_b, x, [replace(step, _flow=None) for step in planned]))
        sample_dt = (t_b - t_a) / _SAMPLES_PER_INTERVAL
        for step in planned:
            base_v = checkpoints[-1][2]
            ends, piece_sup, accepted = step._flow
            t_base = 0.0
            for (_, duration), end, rk_steps in zip(step.program.segments, ends, accepted):
                for s, y, v in _dense_samples(v_fn, rk_steps, x, duration, sample_dt):
                    times.append(t_cursor + (t_base + s))
                    states.append(y)
                    v_values.append(v)
                    # a sample between the planner's checks can see V above them
                    piece_sup = max(piece_sup, v)
                t_base, x, v = end
                times.append(t_cursor + t_base)
                states.append(x)
                v_values.append(v)
                events.append(t_cursor + t_base)
            t_cursor = events[-1]
            if base_v > 0:
                overshoot = max(overshoot, piece_sup / base_v)
            checkpoints.append((t_cursor, np.array(x), v))
            # the state at which the planner stops its chain early, so the
            # chain ends here too
            if float(np.linalg.norm(x)) <= stop_radius:
                stopped = True
                stop_time = t_cursor
                break
        # free this interval's simulations before the next one is planned
        del planned
        if stopped:
            break

    traj = Trajectory(np.array(times), np.array(states), np.array(v_values),
                      checkpoints, events)
    final_state = traj.states[-1]
    report = LoopReport(
        final_state=final_state,
        final_norm=float(np.linalg.norm(final_state)),
        checkpoint_vs=[(t, v) for t, _, v in checkpoints],
        overshoot_ratio=overshoot,
        threshold_times=_threshold_times(traj),
        intervals=intervals,
        stopped_early=stopped,
        stop_time=stop_time,
        failure=failure,
    )
    return traj, report


def _threshold_times(traj: Trajectory) -> dict[float, float]:
    """First time from which V stays at or below each half-decade threshold."""
    v = traj.v_values
    suffix_max = np.maximum.accumulate(v[::-1])[::-1]
    v_start = v[0]
    out = {}
    if not 0 < v_start < math.inf:
        # halving an infinite V never reaches a threshold
        return out
    mu = v_start / 2.0
    floor = float(np.min(suffix_max))
    # suffix_max is non-increasing down to floor, so some index has
    # suffix_max <= mu; a NaN V makes floor NaN and runs no iteration
    while mu >= floor and mu > 0:
        out[mu] = float(traj.times[np.argmax(suffix_max <= mu)])
        mu /= 2.0
    return out


# --- verification ------------------------------------------------------------------

def verify_facts(traj: Trajectory, report: LoopReport) -> list[FactCheck]:
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

    attr_ok = True
    details = []
    for mu in _attained_thresholds(report):
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


def _attained_thresholds(report: LoopReport) -> list[float]:
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

"""Constructive one-step synthesis: short piecewise-constant programs that
strictly decrease V from a certified state while keeping V below twice its
starting value along the way.

The two-phase programs follow the composed-flow construction: flow along
Y = f + u2 g for a time t, then along X = f + u1 g for rho*t, with
u2 = -rho*u1. Diagnostics exposed here (the composed flow R(t), the value
m(t) = V(R(t)), one-sided derivative estimates of m at 0, and the residual
of the truncated bracket expansion of Rdot) make the mechanism inspectable
rather than a black box.

Every existence claim ("a sufficiently large u1", "a suitable rho") is
realized as a search over fixed, finite grids of inputs and durations
(at most 4,840 candidates, for P4) whose winner is verified by
re-simulation; the derivative estimates are diagnostics only and take no
part in the search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._rk import IntegrationError, integrate_segment
from .certify import (
    Case, Certificate, DEFAULT_N_MAX, DEFAULT_TAU_ZERO, SystemDef, certify_point,
)
from .lie import iterated_adjoint

__all__ = [
    "ControlProgram", "StepResult",
    "SynthesisFailed", "CertificateInconclusive",
    "composed_flow", "m_of_t", "m_derivative_estimates", "MDerivatives",
    "cbh_residual", "synthesize_step", "flow_endpoint", "two_phase_program",
]


@dataclass(frozen=True)
class ControlProgram:
    """Ordered (value, duration) segments of a piecewise-constant input."""

    segments: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.segments:
            raise ValueError("control program needs at least one segment")
        for value, duration in self.segments:
            if not duration > 0:
                raise ValueError(f"segment duration must be positive, got {duration}")

    @property
    def duration(self) -> float:
        return sum(d for _, d in self.segments)

    def scaled(self, factor: float) -> "ControlProgram":
        return ControlProgram(tuple((v, d * factor) for v, d in self.segments))


def two_phase_program(rho: float, u1: float, t: float) -> ControlProgram:
    if not (math.isfinite(rho) and math.isfinite(u1)):
        raise ValueError(f"rho and u1 must be finite, got {rho} and {u1}")
    u2 = -rho * u1 + 0.0  # +0.0 normalizes -0.0
    return ControlProgram(((u2, t), (u1, rho * t)))


@dataclass(frozen=True)
class StepResult:
    program: ControlProgram
    certificate: Certificate
    rho: float
    u1: float
    v_drop: float
    sup_v_ratio: float
    end_state: tuple[float, ...]


class SynthesisFailed(RuntimeError):
    """No verified program was found. After a search of the grids,
    ``best_drop`` is the largest V drop among the candidates whose
    simulation reached its end within 2 V(x0), or None when none did: a
    candidate is abandoned as soon as V exceeds that bound, so it has no
    end state. ``simulations`` counts every candidate tried; it is 0 when
    no search ran, as when an interval's chain reaches its cap, and the
    message then carries no search summary."""

    def __init__(self, message: str, best_drop: float | None = None,
                 simulations: int = 0, certificate: Certificate | None = None):
        if simulations:
            message += (f" (best V-drop within the 2*V bound: {best_drop}, "
                        f"simulations: {simulations})")
        super().__init__(message)
        self.best_drop = best_drop
        self.simulations = simulations
        self.certificate = certificate


class CertificateInconclusive(RuntimeError):
    def __init__(self, certificate: Certificate):
        super().__init__(
            f"cannot synthesize from an inconclusive certificate: {certificate.detail}")
        self.certificate = certificate


# --- simulation helpers -------------------------------------------------------

class _BoundExceeded(Exception):
    """V passed flow_endpoint's v_limit; the simulation stops there."""


def flow_endpoint(sys: SystemDef, x0, program: ControlProgram,
                  tol: float = 1e-10, *, v_limit: float = math.inf,
                  sample_dt: float | None = None
                  ) -> tuple[list[tuple[float, np.ndarray]], float]:
    """Samples and max-V along a program: the (t, state) pairs, t from the
    program's start, at each multiple of ``sample_dt`` inside every segment
    (none by default) and at every segment end, so that the last sample is
    the end state. V is tracked at every accepted step and on the continuous
    extension inside it, so that it is sampled at least every duration/16 of
    each segment while the step size follows the error control alone. Raises
    _BoundExceeded at the first sample (x0 included) where V exceeds
    ``v_limit``, so that a caller that rejects such a program does not pay
    for the rest of it."""
    y = np.asarray(x0, dtype=float)
    v_at = sys.v_at
    v_max = v_at(y)
    if v_max > v_limit:
        raise _BoundExceeded

    def track(*point):
        # called as on_step(t, state) and as on_dense(state); a sample at
        # or below v_max is within the limit, since v_max is
        nonlocal v_max
        v = v_at(point[-1])
        if v > v_max:
            v_max = v
            if v > v_limit:
                raise _BoundExceeded

    out = []
    t_base = 0.0
    for value, duration in program.segments:
        interior = None if sample_dt is None else _interior_grid(duration, sample_dt)
        samples, y = integrate_segment(
            sys.rhs(value), y, duration, tol, sample_times=interior,
            on_step=track, on_dense=track)
        out.extend((t_base + s, state) for s, state in samples[1:])
        t_base += duration
    return out, v_max


def _interior_grid(duration: float, sample_dt: float) -> list[float]:
    if sample_dt <= 0 or sample_dt >= duration:
        return []
    count = int(math.floor(duration / sample_dt))
    grid = [j * sample_dt for j in range(1, count + 1)]
    return [s for s in grid if s < duration * (1 - 1e-12)]


# integration tolerance of the composed flows behind the diagnostics
_FLOW_TOL = 1e-12


def composed_flow(sys: SystemDef, x0, rho: float, u1: float, t: float) -> np.ndarray:
    """Flow along f + u2 g for time t, then along f + u1 g for rho*t,
    with u2 = -rho*u1, integrated with unconstrained adaptive steps.
    R(0) = x0."""
    if not 0 <= t < math.inf:
        raise ValueError(f"time must be >= 0 and finite, got {t}")
    if rho <= 0:
        raise ValueError(f"rho must be > 0, got {rho}")
    if t == 0.0:
        return np.array(x0, dtype=float)
    return flow_endpoint(sys, x0, two_phase_program(rho, u1, t), _FLOW_TOL)[0][-1][1]


def m_of_t(sys: SystemDef, x0, rho: float, u1: float, t: float) -> float:
    """V evaluated at the composed flow: m(t) = V(R(t))."""
    return sys.v_at(composed_flow(sys, x0, rho, u1, t))


# --- derivative estimates -----------------------------------------------------

@dataclass(frozen=True)
class MDerivatives:
    """Estimates of m^(n)(0) for n = 1..order, with per-order noise bounds
    and an ill-conditioning flag (Richardson levels disagreeing beyond the
    value scale)."""

    values: tuple[float, ...]
    noise: tuple[float, ...]
    ill_conditioned: tuple[bool, ...]
    evaluations: int


def m_derivative_estimates(
        sys: SystemDef, x0, rho: float, u1: float, order_max: int) -> MDerivatives:
    """One-sided finite differences of m_of_t with steps 0.01, 0.005 and
    0.0025 and two Richardson levels. Only t >= 0 is sampled since R is a
    forward flow."""
    if not 1 <= order_max <= 4:
        raise ValueError(f"order_max must be in 1..4, got {order_max}")
    x0 = np.asarray(x0, dtype=float)
    quarter = 0.01 / 4.0
    cache: dict[int, float] = {}

    def m_at(k: int) -> float:
        v = cache.get(k)
        if v is None:
            v = m_of_t(sys, x0, rho, u1, k * quarter)
            cache[k] = v
        return v

    m0 = m_at(0)
    eps_m = (_FLOW_TOL + 1e-16) * (1.0 + abs(m0))

    values, noise, flags = [], [], []
    for n in range(1, order_max + 1):
        def fwd(step_quarters: int) -> float:
            h = step_quarters * quarter
            acc = 0.0
            for j in range(n + 1):
                acc += (-1) ** (n - j) * math.comb(n, j) * m_at(j * step_quarters)
            return acc / h ** n

        d_h, d_h2, d_h4 = fwd(4), fwd(2), fwd(1)
        r1a = 2.0 * d_h2 - d_h
        r1b = 2.0 * d_h4 - d_h2
        r2 = (4.0 * r1b - r1a) / 3.0
        disagreement = abs(r1b - r1a)
        roundoff = (2.0 ** n) * eps_m / quarter ** n
        values.append(r2)
        noise.append(10.0 * (disagreement + roundoff))
        flags.append(disagreement > 1e-3 * (1.0 + abs(m0)))
    return MDerivatives(tuple(values), tuple(noise), tuple(flags), len(cache))


# --- bracket-expansion residual -------------------------------------------------

def cbh_residual(sys: SystemDef, x0, rho: float, u1: float, k: int, t: float) -> float:
    """Norm of Rdot(t) minus the truncated bracket series

        (A0 + rho t A1 + ... + rho^k t^k / k! Ak)(R(t)),

    where A0 = rho X + Y and A_i is the i-fold bracketing of Y by X.
    Rdot is formed by numerical differentiation of the composed flow: a
    one-sided stencil with step 1e-5 at t = 0, a central one with step
    min(1e-3, t/4) otherwise.
    """
    if not 0 <= k <= 4:
        raise ValueError(f"series depth must be in 0..4, got {k}")
    if not 0 <= t < math.inf:
        raise ValueError(f"time must be >= 0 and finite, got {t}")
    x0 = np.asarray(x0, dtype=float)
    u2 = -rho * u1
    X = sys.f + sys.g.scaled(u1)
    Y = sys.f + sys.g.scaled(u2)
    fields = [X.scaled(rho) + Y]
    for i in range(1, k + 1):
        fields.append(iterated_adjoint(Y, X, i))
    field_fns = [f.compiled() for f in fields]

    def R(s: float) -> np.ndarray:
        return composed_flow(sys, x0, rho, u1, s)

    if t == 0.0:
        h = 1e-5
        rdot = (-3.0 * R(0.0) + 4.0 * R(h) - R(2.0 * h)) / (2.0 * h)
        rt = x0
    else:
        h = min(1e-3, t / 4.0)
        rdot = (R(t - 2 * h) - 8.0 * R(t - h) + 8.0 * R(t + h) - R(t + 2 * h)) / (12.0 * h)
        rt = R(t)

    series = np.zeros(sys.dim)
    for i, fn in enumerate(field_fns):
        series += (rho * t) ** i / math.factorial(i) * np.asarray(fn(rt))
    return float(np.linalg.norm(rdot - series))


# --- one-step synthesis ---------------------------------------------------------

# the search grids: input amplitudes of the Transversal, P2 and P3 cases,
# rho values and small inputs of P4, and the fraction of the duration cap
# at which the halving of candidate durations stops (20 durations)
_AMPLITUDES = tuple(2.0 ** j for j in range(11))
_RHO_GRID = (1.0, 2.0, 0.5, 4.0, 0.25, 8.0, 0.125, 16.0, 0.0625, 32.0, 0.03125)
_SMALL_INPUTS = tuple(2.0 ** -j for j in range(11))
_DURATION_FLOOR = 1e-6


def _halvings(limit: float):
    value = limit
    floor = limit * _DURATION_FLOOR
    while value > floor * (1.0 - 1e-12):
        yield value
        value /= 2.0


def _candidates(cert: Certificate, xi: float):
    """The (rho, u1, program) candidates of one step in search order: the
    input signs and amplitudes, or (rho, u1) pairs, of the certificate's
    case, each with durations halving from the cap xi. There are 220
    (Transversal), 20 (ArtsteinSontag, P1), 440 (P2), 220 (P3) or 4,840
    (P4) of them."""
    if cert.case in (Case.TRANSVERSAL, Case.ARTSTEIN_SONTAG):
        # one constant input: against gV, or none at all when fV < 0
        sign = -math.copysign(1.0, cert.witnesses["gV"])
        inputs = ([sign * c for c in _AMPLITUDES]
                  if cert.case is Case.TRANSVERSAL else [0.0])
        for u in inputs:
            for eps in _halvings(xi):
                yield 0.0, u, ControlProgram(((u, eps),))
        return
    if cert.case is Case.P1:
        pairs = [(1.0, 0.0)]
    elif cert.case is Case.P2:
        preferred = -math.copysign(1.0, cert.witnesses[f"ad_g^{cert.N}(f)V"])
        pairs = [(1.0, s * a) for a in _AMPLITUDES for s in (preferred, -preferred)]
    elif cert.case is Case.P3:
        pairs = [(1.0, a) for a in _AMPLITUDES]
    else:
        pairs = [(rho, s * a) for rho in _RHO_GRID for a in _SMALL_INPUTS
                 for s in (1.0, -1.0)]
    for rho, u1 in pairs:
        for t in _halvings(xi / (1.0 + rho)):
            yield rho, u1, two_phase_program(rho, u1, t)


def synthesize_step(
        sys: SystemDef,
        x0,
        xi: float,
        n_max: int = DEFAULT_N_MAX,
        tol: float = 1e-10) -> StepResult:
    """Produce a verified program of duration at most xi with
    V(end) < V(x0) and max V along the step at most 2 V(x0).

    The candidates are those of ``_candidates`` for the certificate's case,
    and the first one whose simulation drops V by more than the floor
    without exceeding 2 V(x0) is returned. The result is a pure function
    of the arguments. Raises ValueError when x0, V(x0) or xi is not finite.
    """
    x0 = np.asarray(x0, dtype=float)
    v0 = sys.v_value(x0)
    if float(np.linalg.norm(x0)) <= DEFAULT_TAU_ZERO:
        raise ValueError("cannot synthesize a step at the origin")
    if not 0 < xi < math.inf:
        raise ValueError(f"max duration must be positive and finite, got {xi}")
    cert = certify_point(sys, x0, n_max=n_max)
    if cert.case is Case.INCONCLUSIVE:
        raise CertificateInconclusive(cert)

    drop_floor = v0 * max(100.0 * tol, 1e-12)
    simulations, best = 0, None
    for rho, u1, program in _candidates(cert, xi):
        simulations += 1
        try:
            # a sample above 2 v0 fails the test v_max <= 2 v0 below, so
            # stopping at it changes no outcome
            samples, v_max = flow_endpoint(sys, x0, program, tol, v_limit=2.0 * v0)
        except (IntegrationError, _BoundExceeded):
            continue
        end = samples[-1][1]
        drop = v0 - sys.v_at(end)
        if best is None or drop > best:
            best = drop
        if drop > drop_floor and v_max <= 2.0 * v0:
            return StepResult(program, cert, rho, u1, drop, v_max / v0,
                              tuple(float(v) for v in end))
    raise SynthesisFailed(
        f"search grids exhausted for case {cert.case.value}",
        best_drop=best, simulations=simulations, certificate=cert)

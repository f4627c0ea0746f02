"""Embedded Dormand-Prince 4(5) stepper with error-per-unit-step control.

The 5th-order solution is propagated (local extrapolation, FSAL); the
embedded 4th-order result supplies the error estimate. Accepting steps
against err <= scale * h keeps the endpoint error roughly proportional
to the tolerance, so tightening the tolerance tenfold buys a tenfold
error reduction.

Every segment starts with one attempt across the whole segment, and the
controller shrinks h only where the flow needs it: a flow quadratic in t,
as the double integrator's constant-input flows are, is integrated exactly
by that one step. A trial step can put a stage outside F's domain where
the solution stays inside it, so a domain error of F in a trial step, a
NaN error estimate or a non-finite new state rejects the attempt, as a
large error estimate does, and the next attempt is five times shorter.

The maximum of a scalar function V along the solution is always tracked,
at the end of every accepted step and between steps too: every accepted
step of size h is sampled at the interior points theta = j/m,
j = 1..m-1, with m = ceil(16 h / duration), of the step's free
4th-order continuous extension (Shampine 1986; Hairer, Norsett and Wanner,
Solving ODEs I, II.6), built from the stages k1..k7 already evaluated. The
sampled grid is thus never coarser than duration/16, no matter how long the
steps grow, and it costs no evaluation of the right-hand side.

The right-hand side is a field F(x1, ..., xn, u) -> (ydot_1, ..., ydot_n)
on scalar arguments, with the constant input u as its last argument. The
step and the V maximum over the continuous extension are generated once per
dimension n as straight-line code on Python floats (numpy's per-call
overhead would dwarf the arithmetic on a few components). Each scalar
operation matches its elementwise numpy counterpart in order (no fused
multiply-add), so the step is bit-identical to the same step written on
numpy arrays.

States are tuples of floats, and stay tuples up to the closed loop's
``Trajectory``. A segment hands back its accepted steps, each with its
stages, and its end state with the V computed at the end of the step that
reached it, so no caller evaluates V there again. No step lands on a sample
time: the step size follows the error control alone, and a state between
steps, such as one of the closed loop's samples, is read from the same
continuous extension by a third generated function, at the cost of one V
evaluation and no evaluation of the right-hand side (``_dense_samples``).
Segments have positive durations. A domain error of F at the segment's
start or of V (a division by zero, an overflowing exp) becomes an
IntegrationError, as do an accepted state beyond the divergence bound and
a step size that underflows, whose message names the last rejected trial.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

__all__ = ["IntegrationError", "integrate_segment"]

# F(x1, ..., xn, u) -> (ydot_1, ..., ydot_n) and V(x1, ..., xn)
Field = Callable[..., Sequence[float]]
Scalar = Callable[..., float]
# an accepted step (t, h, y, (k1, k3, k4, k5, k6, k7)): start time, size,
# start state and stages
Step = tuple[float, float, tuple[float, ...], tuple[tuple[float, ...], ...]]


class IntegrationError(RuntimeError):
    """Step-size underflow, divergence, or a domain failure of F at a
    segment's start or of V."""


_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (
    9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656)
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
# difference between the 5th- and 4th-order weights
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71 / 57600, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)


# the continuous extension's weights of k1, k3..k7 at theta are
# theta * (c1 + theta * (c2 + theta * (c3 + theta * c4))), one row of
# (c1, c2, c3, c4) per stage; these are scipy's RK45 coefficients
_DENSE_ROWS = (
    (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432),
    (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799),
    (0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072),
    (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632),
    (0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
    (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423))


def _dense_weights(theta: float) -> tuple[float, ...]:
    """Weights of k1, k3..k7 in the continuous extension at theta: the state
    is y + h * sum(w * k). At theta = 1 they reduce to _B1.._B6 with k7
    weighted 0."""
    return tuple(theta * (c1 + theta * (c2 + theta * (c3 + theta * c4)))
                 for c1, c2, c3, c4 in _DENSE_ROWS)


# sub-grid intervals per segment of the continuous-extension check
_DENSE_GRID = 16
# _DENSE_WEIGHTS[m]: the weights at theta = j/m for j = 1..m-1
_DENSE_WEIGHTS = tuple(tuple(_dense_weights(j / m) for j in range(1, m))
                       for m in range(_DENSE_GRID + 1))

_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_SAFETY = 0.9
# a state component beyond this magnitude ends the integration
_DIVERGENCE_BOUND = 1e6


def _combo(coeffs, stages, i: int) -> str:
    """c1 * k<s1>_i + c2 * k<s2>_i + ..., summed left to right; a negative
    literal c binds before the product, as -c1 * k reads (-c1) * k."""
    return " + ".join(f"{c} * k{s}_{i}" for c, s in zip(coeffs, stages))


# the stage inputs y + h * (a_s1 k1 + ... + a_s,s-1 k_s-1) of stages 2..6
_STAGE_COEFFS = ((_A21,), (_A31, _A32), (_A41, _A42, _A43),
                 (_A51, _A52, _A53, _A54), (_A61, _A62, _A63, _A64, _A65))
_STEP_STAGES = (1, 3, 4, 5, 6)
_DENSE_STAGES = (1, 3, 4, 5, 6, 7)


def _kernel_source(n: int) -> str:
    """Source of ``step``, ``dense_vmax`` and ``dense_state`` for states of
    n components.

    step(F, u, y, h, k1, atol, rtol) -> (y_new, err, (k1, k3, k4, k5, k6, k7)):
    one step of size h from y, given k1 = F(*y, u), where err is
    max_i |err_i| / (atol + rtol * max(|y_i|, |y_new_i|)), NaN if any ratio
    is NaN (as with np.max), and k7 = F(*y_new, u) is the next step's k1.

    dense_vmax(V, y, h, ks, rows, m): the maximum of m and V at the
    continuous-extension states y + h * (w1 k1 + w3 k3 + ... + w7 k7) of
    the step's stages ks, one state per row of weights; a NaN V is skipped.

    dense_state(y, h, ks, theta): the continuous-extension state at theta,
    with _dense_weights(theta) written inline, so that at theta = j/m it is
    the state dense_vmax checks there, bit for bit.
    """
    idx = range(1, n + 1)

    def names(fmt: str) -> str:
        # a target or tuple list with a trailing comma, valid for n = 1 too
        return "".join(fmt.format(i) + ", " for i in idx)

    def state(base: str, coeffs, stages) -> str:
        return ", ".join(f"{base}{i} + h * ({_combo(coeffs, stages, i)})" for i in idx)

    lines = ["def step(F, u, y, h, k1, atol, rtol):",
             f"    {names('y{}')}= y",
             f"    {names('k1_{}')}= k1"]
    for s, coeffs in enumerate(_STAGE_COEFFS, start=2):
        lines.append(f"    k{s} = F({state('y', [repr(c) for c in coeffs], range(1, s))}, u)")
        lines.append(f"    {names(f'k{s}_{{}}')}= k{s}")
    b = [repr(c) for c in (_B1, _B3, _B4, _B5, _B6)]
    lines += [f"    n{i} = y{i} + h * ({_combo(b, _STEP_STAGES, i)})" for i in idx]
    lines.append(f"    k7 = F({names('n{}')}u)")
    lines.append(f"    {names('k7_{}')}= k7")
    e = [repr(c) for c in (_E1, _E3, _E4, _E5, _E6, _E7)]
    for i in idx:
        lines += [f"    a{i} = abs(y{i})",
                  f"    b{i} = abs(n{i})",
                  f"    r{i} = abs(h * ({_combo(e, _DENSE_STAGES, i)}))"
                  f" / (atol + rtol * (b{i} if b{i} > a{i} else a{i}))"]
    lines.append("    err = r1")
    for i in idx[1:]:
        lines += [f"    if r{i} > err:", f"        err = r{i}"]
    lines += ["    if " + " or ".join(f"r{i} != r{i}" for i in idx) + ":",
              "        err = _nan",
              f"    return ({names('n{}')}), err, (k1, k3, k4, k5, k6, k7)",
              "",
              "def dense_vmax(V, y, h, ks, rows, m):",
              f"    {names('y{}')}= y",
              "    " + ", ".join(f"({names(f'k{s}_{{}}')})" for s in _DENSE_STAGES) + " = ks",
              "    for w1, w3, w4, w5, w6, w7 in rows:",
              f"        v = V({state('y', ['w1', 'w3', 'w4', 'w5', 'w6', 'w7'], _DENSE_STAGES)})",
              "        if v > m:",
              "            m = v",
              "    return m",
              "",
              "def dense_state(y, h, ks, theta):",
              f"    {names('y{}')}= y",
              "    " + ", ".join(f"({names(f'k{s}_{{}}')})" for s in _DENSE_STAGES) + " = ks"]
    for s, (c1, c2, c3, c4) in zip(_DENSE_STAGES, _DENSE_ROWS):
        lines.append(f"    w{s} = theta * ({c1!r} + theta * ({c2!r} + theta * ({c3!r}"
                     f" + theta * {c4!r})))")
    lines.append(f"    return ({state('y', ['w1', 'w3', 'w4', 'w5', 'w6', 'w7'], _DENSE_STAGES)},)")
    return "\n".join(lines) + "\n"


class _ByDimension(dict):
    """The generated (step, dense_vmax, dense_state) of each state dimension,
    compiled on first use."""

    def __missing__(self, n: int):
        namespace = {"_nan": math.nan}
        exec(compile(_kernel_source(n), f"<dormand-prince n={n}>", "exec"), namespace)
        fns = self[n] = namespace["step"], namespace["dense_vmax"], namespace["dense_state"]
        return fns


_KERNELS = _ByDimension()


# integrate_segment calls this once per step attempt through the module
# global, which perfbench/tracing.py patches to count the attempts
def _stages(field: Field, u: float, y: Sequence[float], h: float, k1: Sequence[float],
            atol: float, rtol: float):
    """One step of size h from y, given k1 = field(*y, u): the generated
    step of y's dimension (see _kernel_source)."""
    return _KERNELS[len(y)][0](field, u, y, h, k1, atol, rtol)


def _check_positive(what: str, value: float) -> None:
    if not 0 < value < math.inf:
        raise ValueError(f"{what} must be positive and finite, got {value}")


# what a compiled F or V raises outside its domain (a division by zero, the
# log of a negative, an overflowing exp)
_DOMAIN_ERRORS = (ZeroDivisionError, ValueError, OverflowError)


def integrate_segment(
        field: Field,
        u: float,
        y0: Sequence[float],
        duration: float,
        tol: float,
        v: Scalar,
        v_max: float,
        # kept for the benchmark: perfbench/tracing.py counts accepted steps here
        on_step: Callable[[float, tuple[float, ...]], None] | None = None,
        v_limit: float = math.inf,
) -> tuple[list[Step], tuple[tuple[float, ...], float] | None, float]:
    """Integrate ydot = field(*y, u) over [0, duration], duration positive,
    tracking the maximum of V = ``v``(x1, ..., xn) along the way.

    Returns (steps, end, v_max). ``steps`` are the accepted steps in order,
    each (t, h, y, ks): its start time and state, its size and its stages
    (k1, k3, ..., k7), from which ``_dense_samples`` reads states inside it.
    ``end`` is (y, V(y)) at ``duration``, y the kernel's tuple of floats and
    V(y) the value computed at the end of the step that reached it (an end
    reached within roundoff, with no new step, evaluates V once there).
    ``on_step(t, y)`` is invoked at the start and at every accepted step.
    The returned v_max is the largest of the ``v_max`` passed in and V(*y)
    on the continuous extension inside every accepted step (see the module
    docstring) and at its end, NaN values skipped: states never more than
    duration/16 apart in time. Once v_max exceeds ``v_limit`` the
    integration stops, with ``end`` None, at the end of the accepted step
    that passed it: before that step's ``on_step`` when one of its
    extension states did, after it when its end state did.

    The first attempt spans the whole segment. An attempt whose stages
    raise a ZeroDivisionError, ValueError or OverflowError in F, or that
    yields a NaN error estimate or a non-finite state, is rejected and
    retried with h five times smaller. Raises IntegrationError in place of
    such an error raised by F at the start or by V anywhere, once an
    accepted state has a component beyond 1e6 in magnitude, and when the
    step size underflows, naming the last rejected trial.
    """
    _check_positive("segment duration", duration)
    _check_positive("tolerance", tol)
    y = tuple(map(float, y0))
    steps = []
    if on_step is not None:
        on_step(0.0, y)

    rtol = tol
    atol = tol * 1e-2
    h = duration
    t = 0.0
    failure = "none rejected"
    dense_vmax = _KERNELS[len(y)][1]
    try:
        k1 = field(*y, u)
    except _DOMAIN_ERRORS as exc:
        raise IntegrationError(f"right-hand side failed at start: {exc}") from exc

    while True:
        gap = duration - t
        if gap <= 1e-14 * max(1.0, abs(t)):
            # arrived within roundoff of the end; the state is the end
            # state to machine precision
            try:
                v_end = v(*y)
            except _DOMAIN_ERRORS as exc:
                raise IntegrationError(f"V failed at t = {t}: {exc}") from exc
            break
        h = min(h, gap)
        if h < 1e-14 * max(1.0, abs(t)):
            raise IntegrationError(f"step size underflow at t = {t}, last trial: {failure}")
        try:
            y_new, err_norm, ks = _stages(field, u, y, h, k1, atol, rtol)
        except _DOMAIN_ERRORS as exc:
            # a trial step can leave F's domain where the solution does not
            failure = f"right-hand side failed: {exc}"
            h *= _MIN_FACTOR
            continue
        # a NaN error estimate would leave h unchanged below
        if err_norm != err_norm or not all(map(math.isfinite, y_new)):
            failure = "non-finite state or error estimate"
            h *= _MIN_FACTOR
            continue
        if err_norm <= h:
            rows = _DENSE_WEIGHTS[math.ceil(_DENSE_GRID * h / duration)]
            if rows:
                try:
                    v_max = dense_vmax(v, y, h, ks, rows, v_max)
                except _DOMAIN_ERRORS as exc:
                    raise IntegrationError(
                        f"V failed inside the step from t = {t}: {exc}") from exc
                if v_max > v_limit:
                    return steps, None, v_max
            steps.append((t, h, y, ks))
            t += h
            y = y_new
            k1 = ks[-1]
            if on_step is not None:
                on_step(t, y)
            try:
                v_end = v(*y)
            except _DOMAIN_ERRORS as exc:
                raise IntegrationError(f"V failed at t = {t}: {exc}") from exc
            if v_end > v_max:
                v_max = v_end
                if v_max > v_limit:
                    return steps, None, v_max
            if max(map(abs, y)) > _DIVERGENCE_BOUND:
                raise IntegrationError(
                    f"state norm exceeded divergence bound {_DIVERGENCE_BOUND} at t = {t}")
            if t >= duration:
                break
            factor = _SAFETY * (h / max(err_norm, 1e-300)) ** 0.25
            h *= min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
        else:
            failure = "error estimate above tolerance"
            factor = _SAFETY * (h / err_norm) ** 0.25
            h *= max(_MIN_FACTOR, min(1.0, factor))
    return steps, (y, v_end), v_max


def _dense_samples(v: Scalar, steps: Sequence[Step], y0: tuple[float, ...],
                   duration: float, dt: float) -> list[tuple[float, tuple[float, ...], float]]:
    """The (s, y, V(y)) triples at every multiple s of dt > 0 inside a
    segment of the given duration that integrate_segment integrated from y0
    in the accepted ``steps``, none within a relative 1e-12 of the end. Each
    y is read from the continuous extension of the step that holds s (y0
    when the segment took no step), so no step lands on the grid and no
    right-hand side is evaluated. A domain error of V becomes an
    IntegrationError."""
    out = []
    dense_state = _KERNELS[len(y0)][2]
    k, last = 0, len(steps) - 1
    for j in range(1, int(duration / dt) + 1):
        s = j * dt
        if not s < duration * (1 - 1e-12):
            break
        y = y0
        if steps:
            while k < last and steps[k][0] + steps[k][1] < s:
                k += 1
            t, h, y_step, ks = steps[k]
            y = dense_state(y_step, h, ks, (s - t) / h)
        try:
            out.append((s, y, v(*y)))
        except _DOMAIN_ERRORS as exc:
            raise IntegrationError(f"V failed at t = {s}: {exc}") from exc
    return out

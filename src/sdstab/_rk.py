"""Embedded Dormand-Prince 4(5) stepper with error-per-unit-step control.

The 5th-order solution is propagated (local extrapolation, FSAL); the
embedded 4th-order result supplies the error estimate. Accepting steps
against err <= scale * h keeps the endpoint error roughly proportional
to the tolerance, so tightening the tolerance tenfold buys a tenfold
error reduction.

Callers that bound a function of the state along the solution get it between
steps too: every accepted step of size h is sampled at the interior points
theta = j/m, j = 1..m-1, with m = ceil(16 h / duration), of the step's free
4th-order continuous extension (Shampine 1986; Hairer, Norsett and Wanner,
Solving ODEs I, II.6), built from the stages k1..k7 already evaluated. The
sampled grid is thus never coarser than duration/16, no matter how long the
steps grow, and it costs no evaluation of the right-hand side.

States are lists of Python floats inside the kernel, where numpy's per-call
overhead would dwarf the arithmetic on a few components, and ndarrays at
its boundary. Each operation matches its elementwise numpy counterpart in
order (no fused multiply-add), so results are bit-identical to numpy's.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

__all__ = ["IntegrationError", "integrate_segment"]

Rhs = Callable[[Sequence[float]], Sequence[float]]


class IntegrationError(RuntimeError):
    """Step-size underflow, divergence, or a domain failure in the RHS."""


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


def _dense_weights(theta: float) -> tuple[float, ...]:
    """Weights of k1, k3..k7 in the continuous extension at theta: the state
    is y + h * sum(w * k). These are scipy's RK45 coefficients; at theta = 1
    they reduce to _B1.._B6 with k7 weighted 0."""
    rows = (
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
    return tuple(theta * (c1 + theta * (c2 + theta * (c3 + theta * c4)))
                 for c1, c2, c3, c4 in rows)


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


def _stages(rhs: Rhs, y: list[float], h: float, k1: Sequence[float]):
    """One step of size h from y, given k1 = rhs(y). Returns the lists
    y_new and err and the stages (k1, k3, k4, k5, k6, k7) of the continuous
    extension, where k7 = rhs(y_new) is the next step's k1."""
    k2 = rhs([a + h * (_A21 * p1) for a, p1 in zip(y, k1)])
    k3 = rhs([a + h * (_A31 * p1 + _A32 * p2) for a, p1, p2 in zip(y, k1, k2)])
    k4 = rhs([a + h * (_A41 * p1 + _A42 * p2 + _A43 * p3)
              for a, p1, p2, p3 in zip(y, k1, k2, k3)])
    k5 = rhs([a + h * (_A51 * p1 + _A52 * p2 + _A53 * p3 + _A54 * p4)
              for a, p1, p2, p3, p4 in zip(y, k1, k2, k3, k4)])
    k6 = rhs([a + h * (_A61 * p1 + _A62 * p2 + _A63 * p3 + _A64 * p4 + _A65 * p5)
              for a, p1, p2, p3, p4, p5 in zip(y, k1, k2, k3, k4, k5)])
    y_new = [a + h * (_B1 * p1 + _B3 * p3 + _B4 * p4 + _B5 * p5 + _B6 * p6)
             for a, p1, p3, p4, p5, p6 in zip(y, k1, k3, k4, k5, k6)]
    k7 = rhs(y_new)
    err = [h * (_E1 * p1 + _E3 * p3 + _E4 * p4 + _E5 * p5 + _E6 * p6 + _E7 * p7)
           for p1, p3, p4, p5, p6, p7 in zip(k1, k3, k4, k5, k6, k7)]
    return y_new, err, (k1, k3, k4, k5, k6, k7)


def _error_norm(err, y, y_new, atol: float, rtol: float) -> float:
    """max_i |err_i| / (atol + rtol * max(|y_i|, |y_new_i|)); NaN if any
    ratio is NaN, as with np.max (Python's max may skip it)."""
    ratios = [abs(e) / (atol + rtol * max(abs(a), abs(b)))
              for e, a, b in zip(err, y, y_new)]
    return max(ratios) if all(r == r for r in ratios) else math.nan


def integrate_segment(
        rhs: Rhs,
        y0: Sequence[float],
        duration: float,
        tol: float,
        sample_times: Sequence[float] | None = None,
        on_step: Callable[[float, list[float]], None] | None = None,
        on_dense: Callable[[list[float]], None] | None = None,
) -> tuple[list[tuple[float, np.ndarray]], np.ndarray]:
    """Integrate ydot = rhs(y) over [0, duration].

    ``rhs`` is called with lists of floats. Steps land exactly on every
    requested sample time and on the segment end. Returns (samples, y_end)
    where samples are (t, y) pairs at the requested times including both
    endpoints, every y an ``np.ndarray``. ``on_step(t, y)`` is invoked at
    the start and at every accepted step, for callers that track extrema,
    with y a list of floats that the kernel does not modify afterwards.
    ``on_dense(y)`` is invoked, before ``on_step``, at the continuous-extension
    states inside every accepted step (see the module docstring): together
    the two callbacks see states never more than duration/16 apart in time.
    Raises IntegrationError once a component exceeds 1e6 in magnitude.
    """
    if not 0 <= duration < math.inf:
        raise ValueError(f"segment duration must be >= 0 and finite, got {duration}")
    if not 0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    y = np.asarray(y0, dtype=float).tolist()
    if duration == 0.0:
        return [(0.0, np.array(y)), (0.0, np.array(y))], np.array(y)

    targets = sorted({float(s) for s in (sample_times or []) if 0.0 < s < duration})
    targets.append(duration)
    samples = [(0.0, np.array(y))]
    if on_step is not None:
        on_step(0.0, y)

    rtol = tol
    atol = tol * 1e-2
    h = duration / 50.0
    t = 0.0
    target_idx = 0
    try:
        k1 = rhs(y)
    except (ZeroDivisionError, ValueError, OverflowError) as exc:
        raise IntegrationError(f"right-hand side failed at start: {exc}") from exc

    while target_idx < len(targets):
        target = targets[target_idx]
        gap = target - t
        if gap <= 1e-14 * max(1.0, abs(t)):
            # arrived within roundoff of the target; the state is the
            # target state to machine precision
            samples.append((target, np.array(y)))
            t = target
            target_idx += 1
            continue
        h = min(h, gap)
        if h < 1e-14 * max(1.0, abs(t)):
            raise IntegrationError(f"step size underflow at t = {t}")
        try:
            y_new, err, ks = _stages(rhs, y, h, k1)
        except (ZeroDivisionError, ValueError, OverflowError) as exc:
            raise IntegrationError(f"right-hand side failed near t = {t}: {exc}") from exc
        err_norm = _error_norm(err, y, y_new, atol, rtol)
        # a NaN error estimate would leave h unchanged and the step rejected forever
        if err_norm != err_norm or not all(map(math.isfinite, y_new)):
            raise IntegrationError(f"non-finite state or error estimate near t = {t}")
        if err_norm <= h:
            if on_dense is not None:
                for w1, w3, w4, w5, w6, w7 in _DENSE_WEIGHTS[
                        math.ceil(_DENSE_GRID * h / duration)]:
                    on_dense([a + h * (w1 * p1 + w3 * p3 + w4 * p4 + w5 * p5
                                       + w6 * p6 + w7 * p7)
                              for a, p1, p3, p4, p5, p6, p7 in zip(y, *ks)])
            t += h
            y = y_new
            k1 = ks[-1]
            if on_step is not None:
                on_step(t, y)
            if max(map(abs, y)) > _DIVERGENCE_BOUND:
                raise IntegrationError(
                    f"state norm exceeded divergence bound {_DIVERGENCE_BOUND} at t = {t}")
            if t >= target:
                samples.append((target, np.array(y)))
                t = target
                target_idx += 1
            factor = _SAFETY * (h / max(err_norm, 1e-300)) ** 0.25
            h *= min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
        else:
            factor = _SAFETY * (h / err_norm) ** 0.25
            h *= max(_MIN_FACTOR, min(1.0, factor))
    return samples, np.array(y)

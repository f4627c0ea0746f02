"""The Dormand-Prince kernel against a vectorized numpy reference.

The kernel's step is generated code on Python floats; the reference below is
the same step written as elementwise numpy expressions. Both must perform
the same IEEE operations in the same order, so their results are compared
bit for bit, not to a tolerance.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from sdstab import _rk
from sdstab._rk import IntegrationError, integrate_segment
from sdstab.certify import SystemDef
from sdstab.lie import ScalarField, VectorField
from sdstab.symcalc import ZERO, compile_affine


def fixed_steps(field, u, y0, duration, steps):
    """Propagate ydot = field(*y, u) with a fixed step through the kernel's
    step (no error control); 5th-order endpoint."""
    y = tuple(np.asarray(y0, dtype=float).tolist())
    h = duration / steps
    k1 = field(*y, u)
    for _ in range(steps):
        y, _, ks = _rk._stages(field, u, y, h, k1, 1.0, 1.0)
        k1 = ks[-1]
    return np.array(y)


def _zero_v(*y):
    """V = 0 everywhere, for runs that check no V."""
    return 0.0


def _field(*components):
    """F(x1, ..., xn, u) of the drift given by the component strings."""
    f = VectorField.from_strings(components, len(components))
    return compile_affine(f.components, (ZERO,) * f.dim)


def reference_stages(rhs, y, h, k1):
    """One Dormand-Prince step on numpy arrays (rhs returns an ndarray):
    y_new, err and the stages k1, k3..k7 of the continuous extension."""
    k2 = rhs(y + h * (_rk._A21 * k1))
    k3 = rhs(y + h * (_rk._A31 * k1 + _rk._A32 * k2))
    k4 = rhs(y + h * (_rk._A41 * k1 + _rk._A42 * k2 + _rk._A43 * k3))
    k5 = rhs(y + h * (_rk._A51 * k1 + _rk._A52 * k2 + _rk._A53 * k3 + _rk._A54 * k4))
    k6 = rhs(y + h * (_rk._A61 * k1 + _rk._A62 * k2 + _rk._A63 * k3
                      + _rk._A64 * k4 + _rk._A65 * k5))
    y_new = y + h * (_rk._B1 * k1 + _rk._B3 * k3 + _rk._B4 * k4
                     + _rk._B5 * k5 + _rk._B6 * k6)
    k7 = rhs(y_new)
    err = h * (_rk._E1 * k1 + _rk._E3 * k3 + _rk._E4 * k4 + _rk._E5 * k5
               + _rk._E6 * k6 + _rk._E7 * k7)
    return y_new, err, (k1, k3, k4, k5, k6, k7)


def reference_error_norm(err, y, y_new, atol, rtol):
    scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
    return float(np.max(np.abs(err) / scale))


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


@pytest.fixture(scope="module")
def scalar_system():
    """A 1-d system: the only dimension whose error norm is a single ratio."""
    return SystemDef(
        VectorField.from_strings(["sin(x1)-x1^3/(1+x1^2)"], 1),
        VectorField.from_strings(["2+cos(x1)"], 1),
        ScalarField.from_string("x1^2+x1^4/4", 1),
    )


@pytest.fixture(scope="module")
def systems(dblint, planar_cubic, rotation3, scalar_system):
    return {"dblint": dblint, "planar_cubic": planar_cubic, "rotation3": rotation3,
            "scalar": scalar_system}


_coords = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)
# 0.0 is the input of the ArtsteinSontag and P1 programs; the others use
# signed powers of two
_inputs = st.one_of(st.just(0.0),
                    st.builds(lambda s, j: s * 2.0 ** j,
                              st.sampled_from([1.0, -1.0]), st.integers(-10, 10)),
                    st.floats(min_value=-1e3, max_value=1e3))


def _tracked_max(values, m):
    """The running maximum of the former V tracker: a NaN never replaces m."""
    for v in values:
        if v > m:
            m = v
    return m


@given(data=st.data(),
       name=st.sampled_from(["dblint", "planar_cubic", "rotation3", "scalar"]),
       u=_inputs,
       h=st.floats(min_value=1e-9, max_value=0.5),
       tol=st.sampled_from([1e-12, 1e-10, 1e-6]),
       m=st.integers(1, _rk._DENSE_GRID))
@settings(max_examples=400, deadline=None)
def test_generated_step_bitwise_equal_to_numpy_reference(systems, data, name, u, h, tol, m):
    sysd = systems[name]
    field, v = sysd.kernel_fns
    y = tuple(data.draw(st.lists(_coords, min_size=sysd.dim, max_size=sysd.dim)))

    def field_np(x):
        return np.array(field(*x.tolist(), u))

    y_np = np.array(y)
    atol, rtol = tol * 1e-2, tol
    ref_new, ref_err, ref_ks = reference_stages(field_np, y_np, h, field_np(y_np))
    y_new, err, ks = _rk._stages(field, u, y, h, field(*y, u), atol, rtol)
    assert len(y_new) == sysd.dim and len(ks) == 6
    assert all(type(c) is float for c in (*y_new, err, *(c for k in ks for c in k)))
    assert _bits(y_new) == _bits(ref_new)
    assert _bits([err]) == _bits([reference_error_norm(ref_err, y_np, ref_new, atol, rtol)])
    # k7 (the next step's k1) and the other stages of the continuous extension
    assert all(_bits(k) == _bits(ref) for k, ref in zip(ks, ref_ks))

    # V over the continuous extension, against the former comprehension
    rows = _rk._DENSE_WEIGHTS[m]
    states = [[a + h * (w1 * p1 + w3 * p3 + w4 * p4 + w5 * p5 + w6 * p6 + w7 * p7)
               for a, p1, p3, p4, p5, p6, p7 in zip(y, *ks)]
              for w1, w3, w4, w5, w6, w7 in rows]
    start = sysd.v_at(list(y))
    got = _rk._KERNELS[sysd.dim][1](v, y, h, ks, rows, start)
    assert _bits([got]) == _bits([_tracked_max([sysd.v_at(s) for s in states], start)])
    # dense_state reads each of those states at its theta = j/m
    dense_state = _rk._KERNELS[sysd.dim][2]
    assert all(_bits(dense_state(y, h, ks, j / m)) == _bits(state)
               for j, state in enumerate(states, start=1))


def test_error_norm_propagates_nan_in_any_component():
    # the sixth field call of a step is k7 = F(*y_new, u): a NaN there
    # reaches the error ratio of one component and nothing else
    for dim in (1, 3):
        for pos in range(dim):
            calls = [0]

            def field(*args, pos=pos, calls=calls, dim=dim):
                calls[0] += 1
                rate = [1.0] * dim
                if calls[0] == 6:
                    rate[pos] = math.nan
                return tuple(rate)
            y = (1.0,) * dim
            y_new, err, _ = _rk._stages(field, 0.0, y, 0.1, (1.0,) * dim, 1e-12, 1e-10)
            assert calls[0] == 6 and all(map(math.isfinite, y_new))
            assert math.isnan(err)
            errs = np.full(dim, 1e-3)
            errs[pos] = math.nan
            assert math.isnan(reference_error_norm(errs, np.array(y), np.array(y),
                                                   1e-12, 1e-10))


def _nan_on_call(n, persist=False):
    """A 2-d field of unit rate whose n-th evaluation (and, with ``persist``,
    every later one) has a NaN in its second component; like any real field,
    it passes a NaN in its argument on."""
    calls = [0]

    def field(x1, x2, u):
        calls[0] += 1
        rate = (1.0 + 0.0 * x2, 1.0 + 0.0 * x1)
        nan = calls[0] >= n if persist else calls[0] == n
        return (rate[0], math.nan) if nan else rate
    return field


@pytest.mark.parametrize("stage", range(2, 8))
def test_a_one_off_nan_stage_rejects_the_attempt(stage):
    # call 1 is k1 at the start; calls 2..7 are stages k2..k7 of the first
    # attempt, which spans the segment: the NaN rejects it, and the flow,
    # exact for the kernel, is integrated in shorter steps without it
    seen = []
    steps, (y_end, _), _ = integrate_segment(
        _nan_on_call(stage), 0.0, [0.0, 0.0], 1.0, 1e-10, _zero_v, -math.inf,
        on_step=lambda t, y: seen.append((t, y)))
    assert len(steps) > 1 and seen[-1][0] == 1.0
    for _, _, y, ks in steps:
        assert all(map(math.isfinite, y + sum(ks, ())))
    assert all(math.isfinite(c) for _, y in seen for c in y)
    assert y_end == pytest.approx((1.0, 1.0), rel=1e-12)


@pytest.mark.parametrize("stage", range(1, 8))
def test_nan_at_any_stage_ends_in_integration_error(stage):
    # a field that stays NaN from the given call on: every attempt from then
    # on is rejected, until the step size underflows
    accepted = []
    with pytest.raises(IntegrationError, match="underflow.*non-finite"):
        integrate_segment(_nan_on_call(stage, persist=True), 0.0, [0.0, 0.0], 1.0, 1e-10,
                          _zero_v, -math.inf, on_step=lambda t, y: accepted.append(t))
    assert accepted == [0.0]


def test_rhs_domain_errors_become_integration_errors():
    with pytest.raises(IntegrationError, match="at start"):
        integrate_segment(_field("1/x1"), 0.0, [0.0], 1.0, 1e-10, _zero_v, -math.inf)
    with pytest.raises(IntegrationError):
        integrate_segment(_field("x1^9"), 0.0, [1e40], 1.0, 1e-10, _zero_v, -math.inf)


def test_v_domain_errors_become_integration_errors():
    # x1 = x1(0) + 1000 t, so exp(x1^2) overflows once x1 passes 26.64. The
    # one step spans the segment: from 26 over 1 s, its first extension state
    # (t = 1/16) is beyond that; from 25.7 over 1 ms, its last extension state
    # (x1 = 26.6375) is not, and its end (x1 = 26.7) is.
    def v(x1, x2):
        return math.exp(x1 * x1) - 1.0 + x2 * x2

    for x1, duration, where in ((26.0, 1.0, "inside the step from t = 0.0:"),
                                (25.7, 0.001, "at t = 0.001:")):
        with pytest.raises(IntegrationError, match=f"V failed {where}") as info:
            integrate_segment(_field("1000", "0"), 0.0, [x1, 0.5], duration, 1e-10,
                              v, v(x1, 0.5))
        assert isinstance(info.value.__cause__, OverflowError)
    # a segment within roundoff of 0 takes no step: V is evaluated at the start
    with pytest.raises(IntegrationError, match="V failed at t = 0.0:"):
        integrate_segment(_field("1000", "0"), 0.0, [27.0, 0.5], 1e-15, 1e-10, v, 0.0)


@pytest.mark.parametrize("duration", [2.0, 5.0, 10.0])
def test_a_trial_step_outside_the_fields_domain_is_rejected(duration):
    # x1 = e^-t stays positive, but the first attempt's stage k2 reads ln at
    # x1 = 1 - duration/5 <= 0: a domain error rejects that attempt, as a
    # large error estimate would, and the solution (e^-t, -t^2/2) is reached
    steps, (y_end, _), _ = integrate_segment(
        _field("-x1", "ln(x1)"), 0.0, [1.0, 0.0], duration, 1e-10, _zero_v, -math.inf)
    assert steps[-1][0] + steps[-1][1] == duration
    np.testing.assert_allclose(y_end, [math.exp(-duration), -duration ** 2 / 2],
                               rtol=1e-8, atol=1e-10)


def test_tolerance_must_be_positive():
    for tol in (0.0, -1e-10, math.nan, math.inf):
        with pytest.raises(ValueError, match="tolerance"):
            integrate_segment(_field("-x1"), 0.0, [1.0], 1.0, tol, _zero_v, -math.inf)


def test_duration_must_be_positive_and_finite():
    # no control program has a segment of zero duration
    for duration in (0.0, -0.0, -0.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="segment duration must be positive"):
            integrate_segment(_field("-x1"), 0.0, [1.0], duration, 1e-10,
                              _zero_v, -math.inf)


def test_samples_are_tuples_with_the_kernels_v(dblint):
    field, v = dblint.kernel_fns
    seen = []
    steps, (y_end, v_end), v_max = integrate_segment(
        field, 1.0, np.array([1.0, 0.0]), 0.5, 1e-10, _zero_v, -math.inf,
        on_step=lambda t, y: seen.append((t, y)))
    # each accepted step is recorded from the time and state on_step saw at
    # its start, and the steps tile the segment
    assert [(t, y) for t, _, y, _ in steps] == seen[:-1]
    assert [t + h for t, h, _, _ in steps] == [t for t, _ in seen[1:]]
    assert seen[-1][0] == pytest.approx(0.5) and seen[-1][1] is y_end
    assert all(isinstance(y, tuple) and len(y) == 2 for _, y in seen)
    # the stages k1, k3, ..., k7, k7 being the next step's k1
    assert all(len(ks) == 6 for _, _, _, ks in steps)
    assert all(a[3][-1] is b[3][0] for a, b in zip(steps, steps[1:]))
    # V = 0 at every state, above the v_max passed in
    assert v_end == 0.0 and v_max == 0.0
    # ydot = (x2, 1) from (1, 0): x(t) = (1 + t^2/2, t)
    np.testing.assert_allclose(y_end, [1.125, 0.5], rtol=1e-12)
    _, (y_end, v_end), _ = integrate_segment(field, 1.0, [1.0, 0.0], 0.5, 1e-10, v, -math.inf)
    assert _bits([v_end]) == _bits([v(*y_end)])
    end = fixed_steps(field, 1.0, [1.0, 0.0], 0.5, 8)
    assert isinstance(end, np.ndarray) and end.shape == (2,)
    np.testing.assert_allclose(end, [1.125, 0.5], rtol=1e-12)


def test_dense_samples_read_the_grid_from_the_steps(dblint):
    """The grid the closed loop samples: every multiple of dt inside the
    segment, its end excluded, read from the continuous extension with no
    evaluation of the right-hand side and no step landing on it."""
    field, v = dblint.kernel_fns
    calls = [0]

    def counting(*args):
        calls[0] += 1
        return field(*args)

    steps, end, _ = integrate_segment(counting, 1.0, [1.0, 0.0], 0.5, 1e-10, v, -math.inf)
    before = calls[0]
    samples = _rk._dense_samples(v, steps, (1.0, 0.0), 0.5, 0.1)
    assert calls[0] == before
    assert [s for s, _, _ in samples] == [0.1, 0.2, 0.30000000000000004, 0.4]
    assert not any(t == s for t, _, _, _ in steps for s, _, _ in samples)
    for s, y, v_y in samples:
        assert isinstance(y, tuple)
        np.testing.assert_allclose(y, [1.0 + s * s / 2.0, s], rtol=1e-12)
        assert _bits([v_y]) == _bits([v(*y)])
    # a grid point within a relative 1e-12 of the end is the end's, not a sample
    assert [s for s, _, _ in _rk._dense_samples(v, steps, (1.0, 0.0), 0.5, 0.25)] == [0.25]
    # no grid inside a segment no longer than dt; no step, the start state
    assert _rk._dense_samples(v, steps, (1.0, 0.0), 0.5, 0.5) == []
    assert _rk._dense_samples(v, [], (1.0, 0.0), 1e-15, 4e-16) == [
        (4e-16, (1.0, 0.0), v(1.0, 0.0)), (8e-16, (1.0, 0.0), v(1.0, 0.0))]


def test_dense_weights_at_one_are_the_step_weights():
    weights = _rk._dense_weights(1.0)
    step = (_rk._B1, _rk._B3, _rk._B4, _rk._B5, _rk._B6, 0.0)
    assert all(abs(w - b) <= 1e-15 for w, b in zip(weights, step))
    assert _rk._DENSE_WEIGHTS[1] == ()
    assert all(len(_rk._DENSE_WEIGHTS[m]) == m - 1 for m in range(1, 17))
    assert _rk._DENSE_WEIGHTS[4][1] == _rk._dense_weights(0.5)


def test_dense_states_follow_the_exact_solution():
    # x' = -x from 1: steps grow beyond duration/16 on a segment this short,
    # so the check between steps has to come from the continuous extension
    duration = 0.2
    events = []

    def v(x1):
        events.append(("v", x1))
        return x1

    _, ((y_end,), v_end), v_max = integrate_segment(
        _field("-x1"), 0.0, [1.0], duration, 1e-10, v, -math.inf,
        on_step=lambda t, y: events.append((t, y[0])))
    # each accepted step evaluates V at its extension's states, then calls
    # on_step, then evaluates V at its end state
    assert events[0] == (0.0, 1.0)
    sampled_v = [x for kind, x in events if kind == "v"]
    dense_count = 0
    t_prev, pending = 0.0, []
    times = [0.0]
    events = iter(events[1:])
    for kind, value in events:
        if kind == "v":
            pending.append(value)
            continue
        t = kind
        assert next(events) == ("v", value)
        h = t - t_prev
        m = math.ceil(16 * h / duration)
        assert len(pending) == m - 1
        for j, x_dense in enumerate(pending, start=1):
            s = t_prev + j / m * h
            assert abs(x_dense - math.exp(-s)) <= 1e-9
            times.append(s)
        times.append(t)
        dense_count += len(pending)
        t_prev, pending = t, []
    assert pending == []
    assert dense_count > 0
    assert times[-1] == duration
    assert max(b - a for a, b in zip(times, times[1:])) <= duration / 16 * (1 + 1e-12)
    assert abs(y_end - math.exp(-duration)) <= 1e-9
    assert v_end == y_end == sampled_v[-1]
    # V = x1 decreases, so its maximum is at the first sample after x0
    assert v_max == sampled_v[0] == max(sampled_v)


def test_dense_output_evaluates_no_rhs(dblint, monkeypatch):
    # every field call is k1 at the start or one of a step attempt's six
    field, v = dblint.kernel_fns
    counted, attempts = [0], [0]

    def counting(*args):
        counted[0] += 1
        return field(*args)

    def counting_stages(*args, stages=_rk._stages):
        attempts[0] += 1
        return stages(*args)

    monkeypatch.setattr(_rk, "_stages", counting_stages)
    dense = []

    def recording(*x):
        dense.append(x)
        return v(*x)

    integrate_segment(counting, 1.0, [1.0, 0.0], 0.5, 1e-10, recording, -math.inf)
    assert counted[0] == 1 + 6 * attempts[0]
    assert dense


def test_v_limit_stops_after_the_step_that_passes_it(peak_inside_step):
    # V rises from 0.01 to 0.25 under u = -1 from (0, 1), mostly inside
    # the first accepted step (see the fixture)
    field, v = peak_inside_step.kernel_fns
    steps = []
    full = integrate_segment(field, -1.0, [0.0, 1.0], 2.0, 1e-10, v, 0.01,
                             on_step=lambda t, y: steps.append(t))
    assert 0.249 <= full[2] <= 0.25 + 1e-12 and steps[-1] == 2.0
    cut_steps = []
    _, end, v_max = integrate_segment(
        field, -1.0, [0.0, 1.0], 2.0, 1e-10, v, 0.01, v_limit=0.1,
        on_step=lambda t, y: cut_steps.append(t))
    assert v_max > 0.1
    assert end is None
    # stopped before the step whose extension passed the limit was reported
    assert cut_steps == steps[:len(cut_steps)] and len(cut_steps) < len(steps)

"""The Dormand-Prince kernel against a vectorized numpy reference.

The kernel runs on lists of Python floats; the reference below is the same
step written as elementwise numpy expressions. Both must perform the same
IEEE operations in the same order, so their results are compared bit for
bit, not to a tolerance.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from sdstab import _rk
from sdstab._rk import IntegrationError, integrate_segment
from sdstab.lie import VectorField


def fixed_steps(rhs, y0, duration, steps):
    """Propagate with a fixed step through the kernel's step (no error
    control); 5th-order endpoint."""
    y = np.asarray(y0, dtype=float).tolist()
    h = duration / steps
    k1 = rhs(y)
    for _ in range(steps):
        y, _, ks = _rk._stages(rhs, y, h, k1)
        k1 = ks[-1]
    return np.array(y)


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
def systems(dblint, planar_cubic, rotation3):
    return {"dblint": dblint, "planar_cubic": planar_cubic, "rotation3": rotation3}


_coords = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)


@given(data=st.data(),
       name=st.sampled_from(["dblint", "planar_cubic", "rotation3"]),
       u=st.sampled_from([0.0, 1.0, -1.0, 0.375, -8.0]),
       h=st.floats(min_value=1e-9, max_value=0.5),
       tol=st.sampled_from([1e-12, 1e-10, 1e-6]))
@settings(max_examples=300, deadline=None)
def test_stages_bitwise_equal_to_numpy_reference(systems, data, name, u, h, tol):
    sysd = systems[name]
    y = data.draw(st.lists(_coords, min_size=sysd.dim, max_size=sysd.dim))
    rhs = sysd.rhs(u)

    def rhs_np(x):
        return np.array(rhs(x))

    y_np = np.array(y)
    ref_new, ref_err, ref_ks = reference_stages(rhs_np, y_np, h, rhs_np(y_np))
    y_new, err, ks = _rk._stages(rhs, y, h, rhs(y))
    assert len(ks) == 6
    assert all(type(v) is float for v in y_new + err + [c for k in ks for c in k])
    assert _bits(y_new) == _bits(ref_new)
    assert _bits(err) == _bits(ref_err)
    # k7 (the next step's k1) and the other stages of the continuous extension
    assert all(_bits(k) == _bits(ref) for k, ref in zip(ks, ref_ks))
    atol, rtol = tol * 1e-2, tol
    got = _rk._error_norm(err, y, y_new, atol, rtol)
    want = reference_error_norm(ref_err, y_np, ref_new, atol, rtol)
    assert _bits([got]) == _bits([want])


def test_error_norm_propagates_nan_in_any_component():
    y = [1.0, 1.0, 1.0]
    for pos in range(3):
        err = [1e-3, 1e-3, 1e-3]
        err[pos] = math.nan
        assert math.isnan(_rk._error_norm(err, y, y, 1e-12, 1e-10))
        ref = reference_error_norm(np.array(err), np.array(y), np.array(y), 1e-12, 1e-10)
        assert math.isnan(ref)


def _nan_on_call(n):
    """A 2-d field of unit rate whose n-th evaluation has a NaN in its second
    component; like any real field, it passes a NaN in its argument on."""
    calls = [0]

    def rhs(x):
        calls[0] += 1
        rate = [1.0 + 0.0 * x[1], 1.0 + 0.0 * x[0]]
        return [rate[0], math.nan] if calls[0] == n else rate
    return rhs


@pytest.mark.parametrize("stage", range(2, 8))
def test_nan_at_any_stage_ends_in_integration_error(stage):
    # call 1 is k1 at the start; calls 2..7 are stages k2..k7 of the first step
    accepted = []
    with pytest.raises(IntegrationError, match="non-finite"):
        integrate_segment(_nan_on_call(stage), [0.0, 0.0], 1.0, 1e-10,
                          on_step=lambda t, y: accepted.append(t))
    assert accepted == [0.0]


def test_rhs_domain_errors_become_integration_errors():
    reciprocal = VectorField.from_strings(["1/x1"], 1).compiled()
    with pytest.raises(IntegrationError, match="at start"):
        integrate_segment(reciprocal, [0.0], 1.0, 1e-10)
    power = VectorField.from_strings(["x1^9"], 1).compiled()
    with pytest.raises(IntegrationError):
        integrate_segment(power, [1e40], 1.0, 1e-10)


def test_tolerance_must_be_positive():
    rhs = VectorField.from_strings(["-x1"], 1).compiled()
    for tol in (0.0, -1e-10, math.nan, math.inf):
        with pytest.raises(ValueError, match="tolerance"):
            integrate_segment(rhs, [1.0], 1.0, tol)


def test_duration_must_be_non_negative_and_finite():
    rhs = VectorField.from_strings(["-x1"], 1).compiled()
    for duration in (-0.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="segment duration"):
            integrate_segment(rhs, [1.0], duration, 1e-10)


def test_boundary_types_are_arrays(dblint):
    rhs = dblint.rhs(1.0)
    seen = []
    samples, y_end = integrate_segment(
        rhs, np.array([1.0, 0.0]), 0.5, 1e-10, sample_times=[0.25],
        on_step=lambda t, y: seen.append(y))
    assert isinstance(y_end, np.ndarray) and y_end.shape == (2,)
    assert [t for t, _ in samples] == [0.0, 0.25, 0.5]
    assert all(isinstance(y, np.ndarray) and y.shape == (2,) for _, y in samples)
    assert _bits(samples[-1][1]) == _bits(y_end)
    assert all(isinstance(y, list) for y in seen)
    # ydot = (x2, 1) from (1, 0): x(t) = (1 + t^2/2, t)
    np.testing.assert_allclose(y_end, [1.125, 0.5], rtol=1e-12)
    samples, y_end = integrate_segment(rhs, [1.0, 0.0], 0.0, 1e-10)
    assert isinstance(y_end, np.ndarray)
    assert all(isinstance(y, np.ndarray) for _, y in samples)
    end = fixed_steps(rhs, [1.0, 0.0], 0.5, 8)
    assert isinstance(end, np.ndarray) and end.shape == (2,)
    np.testing.assert_allclose(end, [1.125, 0.5], rtol=1e-12)


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
    rhs = VectorField.from_strings(["-x1"], 1).compiled()
    duration = 0.2
    calls = []
    _, y_end = integrate_segment(
        rhs, [1.0], duration, 1e-10,
        on_step=lambda t, y: calls.append((t, y)),
        on_dense=lambda y: calls.append((None, y)))
    steps = [(t, y) for t, y in calls if t is not None]
    assert steps[0][0] == 0.0 and steps[-1][0] == duration
    dense_count = 0
    t_prev, pending = 0.0, []
    times = [0.0]
    for t, y in calls[1:]:
        if t is None:
            pending.append(y)
            continue
        h = t - t_prev
        m = math.ceil(16 * h / duration)
        assert len(pending) == m - 1
        for j, y_dense in enumerate(pending, start=1):
            s = t_prev + j / m * h
            assert abs(y_dense[0] - math.exp(-s)) <= 1e-9
            times.append(s)
        times.append(t)
        dense_count += len(pending)
        t_prev, pending = t, []
    assert pending == []
    assert dense_count > 0
    assert max(b - a for a, b in zip(times, times[1:])) <= duration / 16 * (1 + 1e-12)
    assert abs(y_end[0] - math.exp(-duration)) <= 1e-9


def test_dense_output_evaluates_no_rhs(dblint):
    counted = [0]
    rhs = dblint.rhs(1.0)

    def counting(x):
        counted[0] += 1
        return rhs(x)

    dense = []
    integrate_segment(counting, [1.0, 0.0], 0.5, 1e-10)
    without = counted[0]
    counted[0] = 0
    integrate_segment(counting, [1.0, 0.0], 0.5, 1e-10, on_dense=dense.append)
    assert counted[0] == without
    assert dense

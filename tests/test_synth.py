import math

import numpy as np
import pytest

from sdstab import _rk, synth
from sdstab.certify import Case, SystemDef, certify_point
from sdstab.lie import ScalarField, VectorField
from sdstab._rk import IntegrationError
from sdstab.synth import (
    CertificateInconclusive, ControlProgram, StepResult, SynthesisFailed,
    _candidates,
    cbh_residual, composed_flow, flow_endpoint, m_derivative_estimates,
    m_of_t, synthesize_step, two_phase_program,
)


# --- control programs ---------------------------------------------------------------

def test_program_validation():
    with pytest.raises(ValueError):
        ControlProgram(())
    with pytest.raises(ValueError):
        ControlProgram(((1.0, 0.0),))
    prog = ControlProgram(((1.0, 0.5), (-1.0, 0.25)))
    assert prog.duration == 0.75


def test_two_phase_structure():
    prog = two_phase_program(2.0, 3.0, 0.1)
    assert prog.segments[0] == (-6.0, 0.1)
    assert prog.segments[1] == (3.0, pytest.approx(0.2))


@pytest.mark.parametrize("rho,u1", [(math.inf, 1.0), (1.0, -math.inf), (math.nan, 1.0),
                                    (1.0, math.nan)])
def test_two_phase_program_rejects_non_finite(rho, u1):
    with pytest.raises(ValueError, match="finite"):
        two_phase_program(rho, u1, 0.1)


# --- composed flow -------------------------------------------------------------------

def test_composed_flow_at_zero_time(dblint):
    np.testing.assert_array_equal(
        composed_flow(dblint, [1.0, 0.0], 1.0, 1.0, 0.0), [1.0, 0.0])


def test_composed_flow_zero_input_at_equilibrium(dblint):
    # f vanishes at (1,0), so with u1 = 0 the state never moves
    for t in (0.1, 0.5):
        np.testing.assert_allclose(
            composed_flow(dblint, [1.0, 0.0], 1.0, 0.0, t), [1.0, 0.0], atol=1e-12)


def test_composed_flow_closed_form(dblint):
    # phase-wise quadratic solution gives R(t) = (1 - t^2, 0) from (1,0)
    for t in (0.05, 0.1, 0.2):
        R = composed_flow(dblint, [1.0, 0.0], 1.0, 1.0, t)
        np.testing.assert_allclose(R, [1 - t * t, 0.0], atol=1e-8)


def test_composed_flow_argument_validation(dblint):
    with pytest.raises(ValueError):
        composed_flow(dblint, [1, 0], 1.0, 1.0, -0.1)
    with pytest.raises(ValueError):
        composed_flow(dblint, [1, 0], 0.0, 1.0, 0.1)


# --- m(t) and its derivatives ----------------------------------------------------------

def test_m_at_zero_is_v(rotation3):
    x0 = [1.0, 1.0, 0.0]
    assert m_of_t(rotation3, x0, 1.0, 1.0, 0.0) == pytest.approx(
        rotation3.v_at(np.array(x0)))


def test_m_constant_at_equilibrium(dblint):
    # u1 = 0 and f(x0) = 0: m(t) = V(x0) for all t
    v0 = dblint.v_at(np.array([1.0, 0.0]))
    for t in (0.1, 0.4, 1.0):
        assert m_of_t(dblint, [1.0, 0.0], 1.0, 0.0, t) == pytest.approx(v0, rel=1e-12)


def test_m_quadratic_decrease(rotation3):
    # mdot(0) = 0 and mddot(0) = -2 make m(t) - m(0) = -t^2 + O(t^3)
    x0 = [1.0, 1.0, 0.0]
    m0 = m_of_t(rotation3, x0, 1.0, 1.0, 0.0)
    for t in (1e-2, 5e-3):
        drop = m_of_t(rotation3, x0, 1.0, 1.0, t) - m0
        assert drop == pytest.approx(-t * t, abs=8 * t ** 3)


def test_m_derivatives_rotation(rotation3):
    md = m_derivative_estimates(rotation3, [1.0, 1.0, 0.0], 1.0, 1.0, 2)
    assert md.values[0] == pytest.approx(0.0, abs=1e-4)
    assert md.values[1] == pytest.approx(-2.0, abs=5e-3)
    assert len(md.noise) == 2 and len(md.ill_conditioned) == 2


def test_m_derivatives_double_integrator(dblint):
    md = m_derivative_estimates(dblint, [1.0, 0.0], 1.0, 1.0, 2)
    assert md.values[0] == pytest.approx(0.0, abs=1e-4)
    assert md.values[1] == pytest.approx(-2.0, abs=5e-3)


def test_m_derivatives_all_zero_at_equilibrium(dblint):
    md = m_derivative_estimates(dblint, [1.0, 0.0], 1.0, 0.0, 3)
    for value in md.values:
        assert value == pytest.approx(0.0, abs=1e-9)


def test_m_derivatives_order_validation(dblint):
    with pytest.raises(ValueError):
        m_derivative_estimates(dblint, [1.0, 0.0], 1.0, 1.0, 5)


# --- truncated bracket series -----------------------------------------------------------

def test_cbh_nilpotent_residual(dblint):
    # all brackets beyond the first vanish, so the depth-2 series is exact
    # and the residual is pure numerical-differentiation error
    assert cbh_residual(dblint, [1.0, 0.0], 1.0, 1.0, 2, 1e-2) <= 1e-6


def test_cbh_at_time_zero(dblint):
    assert cbh_residual(dblint, [1.0, 0.0], 1.0, 1.0, 2, 0.0) <= 1e-6


def test_cbh_slope_reflects_truncation_order(rotation3):
    ts = np.geomspace(1e-2, 1e-1, 5)
    for k in (1, 2, 3):
        residuals = [cbh_residual(rotation3, [1.0, 1.0, 0.0], 1.0, 1.0, k, t)
                     for t in ts]
        slope = np.polyfit(np.log(ts), np.log(residuals), 1)[0]
        assert slope >= k


def test_cbh_depth_validation(dblint):
    with pytest.raises(ValueError):
        cbh_residual(dblint, [1.0, 0.0], 1.0, 1.0, 5, 0.1)


@pytest.mark.parametrize("t", [math.inf, math.nan, -0.1])
def test_time_must_be_non_negative_and_finite(dblint, t):
    with pytest.raises(ValueError, match="time must be >= 0 and finite"):
        composed_flow(dblint, [1.0, 0.0], 1.0, 1.0, t)
    with pytest.raises(ValueError, match="time must be >= 0 and finite"):
        cbh_residual(dblint, [1.0, 0.0], 1.0, 1.0, 2, t)


# --- one-step synthesis --------------------------------------------------------------------

def test_flow_endpoint_sees_a_peak_inside_one_step(peak_inside_step):
    samples, v_max, _ = flow_endpoint(
        peak_inside_step, [0.0, 1.0], ControlProgram(((-1.0, 2.0),)))
    assert [t for t, _, _ in samples] == [2.0]
    np.testing.assert_allclose(samples[-1][1], [0.0, -1.0], atol=1e-9)
    assert 0.249 <= v_max <= 0.25 + 1e-12


def test_flow_endpoint_takes_one_attempt_per_dblint_segment(dblint, monkeypatch):
    # dblint's constant-input flows are quadratic in t, so the 5th-order step
    # is exact on them and the first attempt, spanning the segment, is accepted
    calls = [0]
    stages = _rk._stages

    def counted(*args):
        calls[0] += 1
        return stages(*args)

    programs = [synthesize_step(dblint, x, 0.5).program
                for x in ([1.0, 0.0], [-0.3, 0.954], [0.01, -0.02])]
    programs.append(ControlProgram(((1.0, 0.5), (-3.0, 2.0), (0.25, 1e-3))))
    monkeypatch.setattr(_rk, "_stages", counted)
    for program in programs:
        calls[0] = 0
        flow_endpoint(dblint, [0.4, -0.7], program)
        assert calls[0] == len(program.segments)


def _resimulate(sysd, x0, result, tol):
    samples, v_max, _ = flow_endpoint(sysd, np.asarray(x0, dtype=float), result.program, tol)
    v0 = sysd.v_at(np.asarray(x0, dtype=float))
    return v0 - sysd.v_at(samples[-1][1]), v_max / v0


def test_transversal_step(dblint):
    result = synthesize_step(dblint, [0.0, 1.0], 0.5)
    assert result.certificate.case is Case.TRANSVERSAL
    assert len(result.program.segments) == 1
    assert result.program.segments[0][0] == -1.0
    assert result.v_drop > 0
    assert result.sup_v_ratio <= 2.0


def test_only_the_planner_receives_the_winning_simulation(dblint):
    """A direct caller's StepResult holds no simulation; plan_interval's holds
    the winner's, which does not take part in comparisons or the repr."""
    result = synthesize_step(dblint, [1.0, 0.0], 0.5)
    assert result._flow is None
    kept = synthesize_step(dblint, [1.0, 0.0], 0.5, _keep_flow=True)
    samples, v_max, steps = kept._flow
    assert samples[-1][1] == kept.end_state
    assert v_max / dblint.v_at([1.0, 0.0]) == kept.sup_v_ratio
    assert len(steps) == len(kept.program.segments)
    assert kept == result and repr(kept) == repr(result)


def test_bracket_step_double_integrator(dblint):
    result = synthesize_step(dblint, [1.0, 0.0], 0.5)
    assert result.certificate.case is Case.P2
    assert len(result.program.segments) == 2
    (u2, d1), (u1, d2) = result.program.segments
    assert u2 == -result.rho * u1
    assert d2 == result.rho * d1
    assert result.v_drop > 0


def test_step_rejects_origin(dblint):
    with pytest.raises(ValueError, match="origin"):
        synthesize_step(dblint, [0.0, 0.0], 0.5)


@pytest.mark.parametrize("point", [[np.nan, 0.0], [-np.inf, 1.0], [1e200, 0.0]])
def test_step_rejects_non_finite_state(dblint, point):
    with pytest.raises(ValueError, match="not finite"):
        synthesize_step(dblint, point, 0.5)


@pytest.mark.parametrize("xi", [math.inf, math.nan, 0.0, -0.5])
def test_step_rejects_a_duration_cap_that_is_not_positive_and_finite(dblint, xi):
    with pytest.raises(ValueError, match="max duration"):
        synthesize_step(dblint, [1.0, 0.0], xi)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_step_rejects_a_tolerance_before_certification(dblint, tol, monkeypatch):
    def no_certification(*args, **kwargs):
        raise AssertionError("certified before the tolerance was checked")

    monkeypatch.setattr(synth, "certify_point", no_certification)
    with pytest.raises(ValueError, match="tolerance must be positive and finite"):
        synthesize_step(dblint, [1.0, 0.0], 0.5, tol=tol)


def test_step_p4_rotation(rotation3):
    result = synthesize_step(rotation3, [1.0, 0.0, 0.0], 0.5)
    assert result.certificate.case is Case.P4
    drop, ratio = _resimulate(rotation3, [1.0, 0.0, 0.0], result, 1e-10)
    assert drop > 0
    assert ratio <= 2.0


def test_step_p1(drift_decay):
    result = synthesize_step(drift_decay, [0.5, 0.0], 0.5)
    assert result.certificate.case is Case.P1
    assert result.u1 == 0.0
    assert result.v_drop > 0


def test_inconclusive_passthrough(inert_system):
    with pytest.raises(CertificateInconclusive):
        synthesize_step(inert_system, [1.0, 0.0], 0.5)


def _reference_search(sysd, x0, xi, tol=1e-10):
    """synthesize_step's search with every candidate simulated to its end:
    the StepResult, or the number of candidates and the best drop among
    those that stayed within 2 V(x0) when none qualifies."""
    x0 = np.asarray(x0, dtype=float)
    v0 = sysd.v_value(x0)
    cert = certify_point(sysd, x0)
    simulations, best = 0, None
    for rho, u1, program in _candidates(cert, xi):
        simulations += 1
        try:
            samples, v_max, _ = flow_endpoint(sysd, x0, program, tol)
        except IntegrationError:
            continue
        end = samples[-1][1]
        if v_max > 2.0 * v0:
            continue
        drop = v0 - sysd.v_at(end)
        if drop > v0 * max(100.0 * tol, 1e-12):
            return StepResult(program, cert, rho, u1, drop, v_max / v0,
                              tuple(float(v) for v in end))
        best = drop if best is None else max(best, drop)
    return simulations, best


@pytest.mark.parametrize("name,x0", [
    ("dblint", (0.6, 0.8)), ("dblint", (1.0, 0.0)), ("dblint", (0.001, 0.0)),
    ("planar_cubic", (0.0006, 0.0008)), ("planar_cubic", (0.01, 0.0)),
    ("rotation3", (0.6, 0.5, 0.0)), ("rotation3", (0.0006, 0.0005, 0.0)),
    ("rotation3", (1.0, 0.0, 0.0)), ("rotation3", (0.001, 0.0, 0.0)),
])
def test_stopping_at_the_bound_changes_no_step(request, name, x0):
    """Abandoning a candidate once V passes 2 V(x0) picks the candidate, end
    state and ratio that simulating every candidate to its end picks
    (Transversal, P2, P3 and P4 points, from radius 1 down to 0.001)."""
    sysd = request.getfixturevalue(name)
    expected = _reference_search(sysd, x0, 0.5)
    assert isinstance(expected, StepResult)
    assert synthesize_step(sysd, x0, 0.5) == expected


def test_best_drop_counts_only_candidates_within_the_bound(planar_cubic):
    # at radius 0.001 no P3 candidate drops V by the floor; the largest
    # drops come from candidates that break the bound
    with pytest.raises(SynthesisFailed, match="within the 2\\*V bound") as err:
        synthesize_step(planar_cubic, (0.001, 0.0), 0.5)
    simulations, best = _reference_search(planar_cubic, (0.001, 0.0), 0.5)
    assert err.value.certificate.case is Case.P3
    assert (err.value.simulations, err.value.best_drop) == (simulations, best)


def _recording(sysd):
    """A copy of the system that records every V it evaluates, in order,
    and counts its field evaluations."""
    copy = SystemDef(sysd.f, sysd.g, sysd.V)
    vs, field_calls, v_at, (field, v) = [], [0], copy.v_at, copy.kernel_fns

    def recorded_v_at(x):
        vs.append(v_at(x))
        return vs[-1]

    def recorded_v(*x):
        vs.append(v(*x))
        return vs[-1]

    def counted_field(*args):
        field_calls[0] += 1
        return field(*args)

    copy.v_at, copy.kernel_fns = recorded_v_at, (counted_field, recorded_v)
    return copy, vs, field_calls


def test_flow_endpoint_stops_after_the_step_that_passes_the_limit(peak_inside_step):
    # V rises from 0.01 to 0.25 along this program, one step per segment
    program = ControlProgram(((-1.0, 0.25),) * 8)
    full, full_vs, full_calls = _recording(peak_inside_step)
    flow_endpoint(full, [0.0, 1.0], program)
    cut, cut_vs, cut_calls = _recording(peak_inside_step)
    assert flow_endpoint(cut, [0.0, 1.0], program, v_limit=0.1) is None
    first_above = next(i for i, v in enumerate(full_vs) if v > 0.1)
    # the cut run samples what the full run samples, up to the rest of the
    # step that passes the limit: at most its 15 extension states and its end
    assert cut_vs == full_vs[:len(cut_vs)]
    assert first_above < len(cut_vs) <= first_above + 16
    assert 0 < cut_calls[0] < full_calls[0]
    # the start counts too, before any field evaluation
    start, start_vs, start_calls = _recording(peak_inside_step)
    assert flow_endpoint(start, [0.0, 1.0], program, v_limit=0.005) is None
    assert start_calls[0] == 0 and len(start_vs) == 1


def test_grids_exhausted_reports_best(dblint):
    # no single segment of at most 1e-12 s drops V by the floor 100 * tol * V
    with pytest.raises(SynthesisFailed, match="grids exhausted") as err:
        synthesize_step(dblint, [0.0, 1.0], 1e-12)
    assert err.value.simulations == 220
    # the best is the largest input, 2^10, held for the longest duration
    assert err.value.best_drop == pytest.approx(1024e-12, rel=1e-3)
    assert err.value.certificate.case is Case.TRANSVERSAL


def _nested_search_order(cert, xi):
    """The candidate order of the search as nested loops over the grids
    (amplitudes 2^0..2^10, the rho grid, small inputs 2^0..2^-10, and
    durations halving from the cap down to 1e-6 of it), recorded by an
    attempt that never succeeds."""
    amplitudes = tuple(2.0 ** j for j in range(11))
    rho_grid = (1.0, 2.0, 0.5, 4.0, 0.25, 8.0, 0.125, 16.0, 0.0625, 32.0, 0.03125)
    small_inputs = tuple(2.0 ** -j for j in range(11))
    tried = []

    def halvings(limit):
        value, floor = limit, limit * 1e-6
        while value > floor * (1.0 - 1e-12):
            yield value
            value /= 2.0

    def attempt(program, rho, u1):
        tried.append((rho, u1, program.segments))

    def single_segment_search(u):
        for eps in halvings(xi):
            attempt(ControlProgram(((u, eps),)), 0.0, u)

    def candidate_pairs():
        if cert.case is Case.P1:
            yield 1.0, 0.0
        elif cert.case is Case.P2:
            preferred = -math.copysign(1.0, cert.witnesses[f"ad_g^{cert.N}(f)V"])
            for a in amplitudes:
                yield 1.0, preferred * a
                yield 1.0, -preferred * a
        elif cert.case is Case.P3:
            for a in amplitudes:
                yield 1.0, a
        elif cert.case is Case.P4:
            for rho in rho_grid:
                for a in small_inputs:
                    yield rho, a
                    yield rho, -a

    if cert.case is Case.TRANSVERSAL:
        sign = -math.copysign(1.0, cert.witnesses["gV"])
        for c in amplitudes:
            single_segment_search(sign * c)
    elif cert.case is Case.ARTSTEIN_SONTAG:
        single_segment_search(0.0)
    else:
        for rho, u1 in candidate_pairs():
            for t in halvings(xi / (1.0 + rho)):
                attempt(two_phase_program(rho, u1, t), rho, u1)
    return tried


@pytest.mark.parametrize("name,point,case,count", [
    ("dblint", (0.0, 1.0), Case.TRANSVERSAL, 220),
    ("decay", (1.0, 0.0), Case.ARTSTEIN_SONTAG, 20),
    ("drift_decay", (0.5, 0.0), Case.P1, 20),
    ("dblint", (1.0, 0.0), Case.P2, 440),
    ("planar_cubic", (1.0, 0.0), Case.P3, 220),
    ("rotation3", (1.0, 0.0, 0.0), Case.P4, 4840),
])
def test_candidates_follow_the_nested_search_order(systems, drift_decay, name, point,
                                                   case, count):
    decay = SystemDef(
        VectorField.from_strings(["-x1", "0"], 2),
        VectorField.from_strings(["0", "1"], 2),
        ScalarField.from_string("0.5*(x1^2+x2^2)", 2),
    )
    sysd = {**systems, "drift_decay": drift_decay, "decay": decay}[name]
    cert = certify_point(sysd, point)
    assert cert.case is case
    for xi in (0.5, 0.3):
        got = [(rho, u1, program.segments) for rho, u1, program in _candidates(cert, xi)]
        assert got == _nested_search_order(cert, xi)
        assert len(got) == count


ALL_POINTS = [
    ("dblint", (0.0, 1.0)),
    ("dblint", (1.0, 0.0)),
    ("planar_cubic", (1.0, 0.0)),
    ("rotation3", (1.0, 1.0, 0.0)),
    ("rotation3", (1.0, 0.0, 0.0)),
]


@pytest.fixture
def systems(dblint, planar_cubic, rotation3):
    return {"dblint": dblint, "planar_cubic": planar_cubic, "rotation3": rotation3}


@pytest.mark.parametrize("name,point", ALL_POINTS)
def test_step_soundness_under_tighter_resimulation(systems, name, point):
    """Re-simulating the emitted program at 100x tighter tolerance preserves
    most of the claimed drop and the factor-2 bound."""
    sysd = systems[name]
    result = synthesize_step(sysd, point, 0.5, tol=1e-10)
    drop, ratio = _resimulate(sysd, point, result, 1e-12)
    assert drop > 0.5 * result.v_drop
    assert ratio <= 2.0


@pytest.mark.parametrize("name,point", ALL_POINTS)
def test_omega_structure(systems, name, point):
    result = synthesize_step(systems[name], point, 0.5)
    if len(result.program.segments) == 2:
        (v1, d1), (v2, d2) = result.program.segments
        assert v1 == -result.rho * v2
        assert d2 == result.rho * d1
        assert result.program.duration <= 0.5 + 1e-12


@pytest.mark.parametrize("name,point", [p for p in ALL_POINTS if p[1][-1] == 0.0])
def test_derivative_vanishing_at_chosen_parameters(systems, name, point):
    """At bracket-certified points the chosen (rho, u1) must show vanishing
    low-order derivative estimates and a negative one at order N+1."""
    sysd = systems[name]
    cert = certify_point(sysd, point)
    if cert.case in (Case.TRANSVERSAL, Case.ARTSTEIN_SONTAG):
        pytest.skip("constant-input case")
    result = synthesize_step(sysd, point, 0.5)
    md = m_derivative_estimates(sysd, point, result.rho, result.u1, cert.N + 1)
    for n in range(cert.N):
        assert abs(md.values[n]) <= md.noise[n]
    assert md.values[cert.N] < 0

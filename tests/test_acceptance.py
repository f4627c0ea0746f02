"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line. Run with `pytest tests/test_acceptance.py -v -s`."""

import time

import numpy as np
import pytest

from conftest import fd_bracket, random_point, random_poly_expr, random_poly_field
from sdstab.certify import Case, certify_point
from sdstab.cli import main
from sdstab.lie import ScalarField, directional_derivative, lie_bracket
from sdstab.simloop import Partition, run_closed_loop
from sdstab.symcalc import evaluate
from sdstab.synth import (
    cbh_residual, flow_endpoint, m_derivative_estimates, synthesize_step,
)


def _report(number: int, label: str):
    print(f"\nACCEPTANCE {number} ({label}): PASS")


@pytest.fixture(scope="module")
def systems(dblint, planar_cubic, rotation3):
    return {"dblint": dblint, "planar_cubic": planar_cubic, "rotation3": rotation3}


# --- 1: bracket-calculus oracle suite ----------------------------------------------

def test_acceptance_1_bracket_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    for case in range(200):
        dim = 2 if case % 2 == 0 else 3
        X = random_poly_field(rng, dim, n_terms=2, max_degree=2)
        Y = random_poly_field(rng, dim, n_terms=2, max_degree=2)
        Z = random_poly_field(rng, dim, n_terms=2, max_degree=2)
        V = ScalarField(random_poly_expr(rng, dim, n_terms=2, max_degree=2), dim)
        p = random_point(rng, dim)

        bracket = lie_bracket(X, Y)
        sym = np.asarray(bracket.compiled()(p))
        fd = fd_bracket(X, Y, p)
        assert np.all(np.abs(sym - fd) <= 1e-5 * (1.0 + np.abs(sym))), \
            f"finite-difference mismatch in case {case}"

        anti = sym + lie_bracket(Y, X).compiled()(p)
        scale = 1.0 + float(np.max(np.abs(sym)))
        assert float(np.max(np.abs(anti))) <= 1e-8 * scale

        jac1 = np.asarray(lie_bracket(X, lie_bracket(Y, Z)).compiled()(p))
        jac2 = np.asarray(lie_bracket(Y, lie_bracket(Z, X)).compiled()(p))
        jac3 = np.asarray(lie_bracket(Z, lie_bracket(X, Y)).compiled()(p))
        jac_scale = 1.0 + max(float(np.max(np.abs(j))) for j in (jac1, jac2, jac3))
        assert float(np.max(np.abs(jac1 + jac2 + jac3))) <= 1e-8 * jac_scale

        lhs = evaluate(directional_derivative(bracket, V).body, p)
        rhs = (evaluate(directional_derivative(X, directional_derivative(Y, V)).body, p)
               - evaluate(directional_derivative(Y, directional_derivative(X, V)).body, p))
        assert abs(lhs - rhs) <= 1e-8 * (1.0 + abs(lhs))

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"oracle suite took {elapsed:.1f} s"
    _report(1, f"bracket oracle suite, 200 cases in {elapsed:.1f} s")


# --- 2: certificates on hand-derived cases ------------------------------------------

def test_acceptance_2_hand_certificates(systems):
    expected = [
        ("dblint", (1.0, 0.0), Case.P2, 1, None, None),
        ("dblint", (0.0, 1.0), Case.TRANSVERSAL, 0, None, None),
        ("planar_cubic", (1.0, 0.0), Case.P3, 2, "ad_g^2(f)V", -2.0),
        ("rotation3", (1.0, 1.0, 0.0), Case.P2, 1, "ad_g^1(f)V", -1.0),
        ("rotation3", (1.0, 0.0, 0.0), Case.P4, 2, "ad_f^2(g)V", 1.0),
    ]
    for name, point, case, n, key, value in expected:
        cert = certify_point(systems[name], point)
        assert cert.case is case, f"{name}@{point}"
        assert cert.N == n, f"{name}@{point}"
        if key is not None:
            assert cert.witnesses[key] == pytest.approx(value, abs=1e-9)
    _report(2, "hand-derived certificates, exact case/N and witnesses")


# --- 3: derivative estimates of m at 0 ------------------------------------------------

def test_acceptance_3_m_derivatives(rotation3):
    start = time.perf_counter()
    md = m_derivative_estimates(rotation3, [1.0, 1.0, 0.0], 1.0, 1.0, 2)
    elapsed = time.perf_counter() - start
    assert md.values[0] == pytest.approx(0.0, abs=1e-4)
    assert md.values[1] == pytest.approx(-2.0, abs=5e-3)
    assert elapsed < 5.0, f"estimates took {elapsed:.1f} s"
    _report(3, f"m'(0) ~ 0 and m''(0) ~ -2 in {elapsed:.2f} s")


# --- 4: truncated bracket-series residual ---------------------------------------------

def test_acceptance_4_cbh_residuals(dblint, rotation3):
    nilpotent = cbh_residual(dblint, [1.0, 0.0], 1.0, 1.0, 2, 1e-2)
    assert nilpotent <= 1e-6

    ts = np.geomspace(1e-2, 1e-1, 5)
    slopes = {}
    for k in (1, 2):
        residuals = [cbh_residual(rotation3, [1.0, 1.0, 0.0], 1.0, 1.0, k, t)
                     for t in ts]
        slopes[k] = float(np.polyfit(np.log(ts), np.log(residuals), 1)[0])
        assert slopes[k] >= k
    _report(4, f"nilpotent residual {nilpotent:.1e}, slopes {slopes}")


# --- 5: one-step soundness under tighter re-simulation ---------------------------------

def test_acceptance_5_step_soundness(systems):
    points = [
        ("dblint", (1.0, 0.0)),
        ("dblint", (0.0, 1.0)),
        ("planar_cubic", (1.0, 0.0)),
        ("rotation3", (1.0, 1.0, 0.0)),
        ("rotation3", (1.0, 0.0, 0.0)),
    ]
    tol = 1e-10
    for name, point in points:
        sysd = systems[name]
        result = synthesize_step(sysd, point, 0.5, tol=tol)
        x0 = np.asarray(point, dtype=float)
        v0 = sysd.v_at(x0)
        samples, v_max, _ = flow_endpoint(sysd, x0, result.program, tol / 100.0)
        assert v0 - sysd.v_at(samples[-1][1]) > 0, f"{name}@{point} lost its V-drop"
        assert v_max / v0 <= 2.0, f"{name}@{point} exceeded the factor-2 bound"
    _report(5, "all five programs re-verified at 100x tighter tolerance")


# --- 6: closed-loop convergence ----------------------------------------------------------

def _assert_converges(traj, report, radius):
    assert report.failure is None
    vs = [v for _, v in report.checkpoint_vs]
    assert all(b < a for a, b in zip(vs, vs[1:])), "checkpoint V not decreasing"
    assert report.overshoot_ratio <= 2.0 + 1e-9
    norms = np.linalg.norm(traj.states, axis=1)
    reached = traj.times[norms <= radius]
    assert len(reached) > 0, f"|x| never reached {radius}"
    return float(reached[0])


def test_acceptance_6_closed_loop_convergence(dblint_run, rotation_run):
    t_dbl = _assert_converges(*dblint_run, 0.05)
    assert t_dbl <= 50.0
    t_rot = _assert_converges(*rotation_run, 0.1)
    assert t_rot <= 100.0
    _report(6, f"|x|<=0.05 at t={t_dbl:.1f} (<=50) and |x|<=0.1 at t={t_rot:.1f} (<=100)")


# --- 7: partition arbitrariness -------------------------------------------------------------

def test_acceptance_7_irregular_partitions(dblint, rotation3):
    part = Partition.explicit([0.0, 0.1, 0.7, 0.8, 2.0], tail_step=0.5)
    t_dbl = _assert_converges(
        *run_closed_loop(dblint, [1.0, 0.0], part, 50.0), 0.05)
    assert t_dbl <= 50.0
    t_rot = _assert_converges(
        *run_closed_loop(rotation3, [1.0, 0.0, 0.0], part, 100.0), 0.1)
    assert t_rot <= 100.0
    _report(7, f"irregular partition: t={t_dbl:.1f} and t={t_rot:.1f}")


# --- 8: determinism ---------------------------------------------------------------------------

def test_acceptance_8_byte_identical_outputs(systems_dir, tmp_path):
    args = ["--system", str(systems_dir / "dblint.sys"),
            "--x0", "1,0", "--partition", "uniform:0.5", "--horizon", "50"]
    outs = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main(["simulate", *args, "--out", str(out)]) == 0
        outs.append(out)
    traj_a = (outs[0] / "trajectory.csv").read_bytes()
    traj_b = (outs[1] / "trajectory.csv").read_bytes()
    assert traj_a == traj_b, "trajectory CSVs differ between executions"
    assert ((outs[0] / "report.json").read_bytes()
            == (outs[1] / "report.json").read_bytes())

    grid_args = ["certify-grid", "--system", str(systems_dir / "dblint.sys"),
                 "--box=-1:1,-1:1", "--res", "5,5"]
    for run in ("ga", "gb"):
        assert main([*grid_args, "--out", str(tmp_path / run)]) == 0
    assert ((tmp_path / "ga" / "certificates.csv").read_bytes()
            == (tmp_path / "gb" / "certificates.csv").read_bytes())
    _report(8, f"identical bytes across executions ({len(traj_a)} byte trajectory)")

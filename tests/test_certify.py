import numpy as np
import pytest

from sdstab.certify import Case, N_MAX_LIMIT, SystemDef, certify_grid, certify_point
from sdstab.lie import (
    ScalarField, VectorField, directional_derivative, iterated_adjoint,
    power_derivative,
)


HAND_CASES = [
    ("dblint", (1.0, 0.0), Case.P2, 1, ("ad_g^1(f)V", -1.0)),
    ("dblint", (0.0, 1.0), Case.TRANSVERSAL, 0, ("gV", 1.0)),
    ("planar_cubic", (1.0, 0.0), Case.P3, 2, ("ad_g^2(f)V", -2.0)),
    ("rotation3", (1.0, 1.0, 0.0), Case.P2, 1, ("ad_g^1(f)V", -1.0)),
    ("rotation3", (1.0, 0.0, 0.0), Case.P4, 2, ("ad_f^2(g)V", 1.0)),
]


@pytest.fixture
def systems(dblint, planar_cubic, rotation3):
    return {"dblint": dblint, "planar_cubic": planar_cubic, "rotation3": rotation3}


@pytest.mark.parametrize("name,point,case,n,witness", HAND_CASES)
def test_hand_certificates(systems, name, point, case, n, witness):
    cert = certify_point(systems[name], point)
    assert cert.case is case
    assert cert.N == n
    key, value = witness
    assert cert.witnesses[key] == pytest.approx(value, abs=1e-9)


def test_p1_case(drift_decay):
    cert = certify_point(drift_decay, (0.5, 0.0))
    assert cert.case is Case.P1
    assert cert.N == 1
    assert cert.witnesses["f^2V"] == pytest.approx(-0.5 ** 4 * (1 - 0.25), abs=1e-12)


def test_artstein_sontag_case():
    sysd = SystemDef(
        VectorField.from_strings(["-x1", "0"], 2),
        VectorField.from_strings(["0", "1"], 2),
        ScalarField.from_string("0.5*(x1^2+x2^2)", 2),
    )
    cert = certify_point(sysd, (1.0, 0.0))
    assert cert.case is Case.ARTSTEIN_SONTAG
    assert cert.witnesses["fV"] == pytest.approx(-1.0)


def test_origin_rejected(dblint):
    with pytest.raises(ValueError, match="origin"):
        certify_point(dblint, (0.0, 0.0))


@pytest.mark.parametrize("point", [(np.nan, 0.0), (np.inf, 0.0), (1e200, 0.0)])
def test_non_finite_point_or_value_rejected(dblint, point):
    with pytest.raises(ValueError, match="not finite"):
        certify_point(dblint, point)


@pytest.mark.parametrize("n_max", [N_MAX_LIMIT + 1, -1])
def test_n_max_outside_range_rejected(dblint, n_max):
    with pytest.raises(ValueError, match="n_max must be between 0 and 6"):
        certify_point(dblint, (1.0, 0.0), n_max=n_max)
    with pytest.raises(ValueError, match="n_max"):
        certify_grid(dblint, [(0.0, 0.0), (0.0, 0.0)], [1, 1], n_max=n_max)


def test_inconclusive_is_reported_not_raised(inert_system):
    cert = certify_point(inert_system, (1.0, 0.0))
    assert cert.case is Case.INCONCLUSIVE
    assert "N_max" in cert.detail


def test_p4_witness_pattern(rotation3):
    cert = certify_point(rotation3, (1.0, 0.0, 0.0))
    tol = cert.tol_at_point
    assert abs(cert.witnesses["f^3V"]) <= tol
    assert abs(cert.witnesses["ad_f^2(g)V"]) > tol


def test_scaling_invariance(systems):
    for c in (0.1, 3.0, 100.0):
        for name, point, case, n, _ in HAND_CASES:
            base = systems[name]
            scaled = SystemDef(
                base.f, base.g,
                ScalarField(c * base.V.body, base.V.dim))
            cert = certify_point(scaled, point)
            assert cert.case is case, f"{name}@{point} with c={c}"
            assert cert.N == n


def test_determinism(systems):
    for name, point, *_ in HAND_CASES:
        a = certify_point(systems[name], point)
        b = certify_point(systems[name], point)
        assert a == b


def test_witness_consistency(planar_cubic, rotation3):
    """Each witness equals the same quantity built from the public field
    calculus and evaluated by walking its expression tree."""
    x = (1.0, 0.0)
    f, g, V = planar_cubic.f, planar_cubic.g, planar_cubic.V
    cert = certify_point(planar_cubic, x)
    assert cert.case is Case.P3
    assert cert.witnesses["gV"] == directional_derivative(g, V).evaluate(x)
    assert cert.witnesses["f^2V"] == power_derivative(f, V, 2).evaluate(x)
    assert cert.witnesses["ad_g^2(f)V"] == directional_derivative(
        iterated_adjoint(f, g, 2), V).evaluate(x)

    x = (1.0, 0.0, 0.0)
    f, g, V = rotation3.f, rotation3.g, rotation3.V
    cert = certify_point(rotation3, x)
    assert cert.case is Case.P4
    assert cert.witnesses["ad_f^2(g)V"] == directional_derivative(
        iterated_adjoint(g, f, 2), V).evaluate(x)


def test_classic_condition_reduction(dblint, rotation3):
    """States where the classic bracket condition holds with N = 1 must
    never come back inconclusive."""
    allowed = {Case.TRANSVERSAL, Case.ARTSTEIN_SONTAG, Case.P2}
    for x1 in np.linspace(-2, 2, 9):
        for x2 in np.linspace(-2, 2, 9):
            if abs(x1) < 1e-12 and abs(x2) < 1e-12:
                continue
            cert = certify_point(dblint, (x1, x2))
            assert cert.case in allowed
            if cert.case is Case.P2:
                assert cert.N == 1
    for x1 in (0.5, 1.0, -1.3):
        cert = certify_point(rotation3, (x1, 2 * x1, 0.0))
        assert cert.case in allowed


# --- grids -------------------------------------------------------------------------

def test_grid_double_integrator(dblint):
    entries = certify_grid(dblint, [(-1, 1), (-1, 1)], [5, 5])
    assert len(entries) == 25
    by_point = {e.point: e for e in entries}
    assert by_point[(0.0, 0.0)].skipped
    for point, entry in by_point.items():
        if entry.skipped:
            continue
        if abs(point[1]) > 1e-9:
            assert entry.certificate.case is Case.TRANSVERSAL
        else:
            assert entry.certificate.case is Case.P2
    for x1 in (-1.0, -0.5, 0.5, 1.0):
        assert by_point[(x1, 0.0)].certificate.case is Case.P2


def test_grid_singleton(dblint):
    entries = certify_grid(dblint, [(1, 1), (0, 0)], [1, 1])
    assert len(entries) == 1
    assert entries[0].certificate.case is Case.P2


def test_grid_origin_only(dblint):
    entries = certify_grid(dblint, [(0, 0), (0, 0)], [1, 1])
    assert len(entries) == 1
    assert entries[0].skipped


def test_grid_empty_rejected(dblint):
    with pytest.raises(ValueError, match="empty grid"):
        certify_grid(dblint, [(-1, 1), (-1, 1)], [0, 5])


def test_grid_dimension_validation(dblint):
    with pytest.raises(ValueError):
        certify_grid(dblint, [(-1, 1)], [5])


# --- system validation ----------------------------------------------------------------

def test_system_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        SystemDef(
            VectorField.from_strings(["x2", "0"], 2),
            VectorField.from_strings(["0", "0", "1"], 3),
            ScalarField.from_string("0.5*(x1^2+x2^2)", 2),
        )


def test_system_rejects_nonvanishing_v():
    with pytest.raises(ValueError, match=r"V\(0\)"):
        SystemDef(
            VectorField.from_strings(["x2", "0"], 2),
            VectorField.from_strings(["0", "1"], 2),
            ScalarField.from_string("1+x1^2", 2),
        )


def test_system_rejects_nonpositive_v():
    with pytest.raises(ValueError, match="positive"):
        SystemDef(
            VectorField.from_strings(["x2", "0"], 2),
            VectorField.from_strings(["0", "1"], 2),
            ScalarField.from_string("0.5*(x1^2-x2^2)", 2),
        )

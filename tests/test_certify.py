import random
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from conftest import (
    DEEP_LINEAR_TEXT, SYSTEMS_DIR, all_trees_table, bracket_trees, random_poly_field,
    workload_system_text,
)
from sdstab import certify, lie, symcalc
from sdstab.certify import (
    Case, N_MAX_LIMIT, SystemDef, _monomial_scalar, _word_field, certify_grid,
    certify_point, monomial_value,
)
from sdstab.cli import load_system, parse_system_file
from sdstab.lie import (
    LieWord, ScalarField, VectorField, directional_derivative, iterated_adjoint,
)
from sdstab.symcalc import compile_expr, evaluate
from sdstab.synth import ControlProgram, flow_endpoint


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


# gV = 2 x1^2 / (x1^2 + x2^2 - 1) has a pole on the unit circle
POLE_TEXT = 'dim = 2\nf = ["x2", "-x1"]\ng = ["x1/(x1^2+x2^2-1)", "0"]\nV = "x1^2+x2^2"\n'
# gV = 2 x1 x2^4 overflows to inf at x2 = 1e100, where V is still finite
OVERFLOW_TEXT = 'dim = 2\nf = ["x2", "-x1"]\ng = ["x2*x2*x2*x2", "0"]\nV = "x1^2+x2^2"\n'
# gV = 0 everywhere and fV = 2 x1 x2 / (x1 - 1) has a pole at x1 = 1
LATE_POLE_TEXT = 'dim = 2\nf = ["x2/(x1-1)", "0"]\ng = ["x2", "-x1"]\nV = "x1^2+x2^2"\n'


@pytest.mark.parametrize("text,point,message", [
    (POLE_TEXT, (0.6, 0.8), r"witness gV leaves its domain \(division by zero in "),
    (POLE_TEXT, (0.0, 1.0), r"witness gV leaves its domain \(division by zero in "),
    (OVERFLOW_TEXT, (1.0, 1e100), r"witness gV is inf at x = \(1\.0, 1e\+100\)"),
    (LATE_POLE_TEXT, (1.0, 0.5), r"witness fV leaves its domain .* at x = \(1\.0, 0\.5\)"),
], ids=["pole", "pole-zero-over-zero", "overflow", "pole-in-fV"])
def test_non_finite_witness_rejected(text, point, message):
    """A witness that is not a finite number certifies nothing: at a pole
    (0.6, 0.8) used to give gV = inf (Transversal) and (0, 1) gV = nan,
    which passed as zero."""
    sysd = parse_system_file(text).build()
    with pytest.raises(ValueError, match=message):
        certify_point(sysd, point)


def test_grid_with_a_non_finite_witness_rejected():
    sysd = parse_system_file(POLE_TEXT).build()
    with pytest.raises(ValueError, match="witness gV leaves its domain"):
        certify_grid(sysd, [(-1.0, 1.0), (-1.0, 1.0)], [3, 3])


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


def test_drift_failure_reads_like_every_monomial():
    """fV > 0 fails the first row, (f), of the order-1 table; the witnesses
    are the ones recorded before it, in order."""
    sysd = SystemDef(
        VectorField.from_strings(["x2", "x1"], 2),
        VectorField.from_strings(["-x2", "x1"], 2),
        ScalarField.from_string("0.5*(x1^2+x2^2)", 2),
    )
    cert = certify_point(sysd, (1.0, 1.0))
    assert cert.case is Case.INCONCLUSIVE
    assert list(cert.witnesses.items()) == [("gV", 0.0), ("fV", 2.0)]
    assert cert.detail.startswith("(fV)(x) = 2.0 is not zero"), cert.detail


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
    assert cert.witnesses["gV"] == evaluate(directional_derivative(g, V).body, x)
    assert cert.witnesses["f^2V"] == evaluate(
        directional_derivative(f, directional_derivative(f, V)).body, x)
    assert cert.witnesses["ad_g^2(f)V"] == evaluate(directional_derivative(
        iterated_adjoint(f, g, 2), V).body, x)

    x = (1.0, 0.0, 0.0)
    f, g, V = rotation3.f, rotation3.g, rotation3.V
    cert = certify_point(rotation3, x)
    assert cert.case is Case.P4
    assert cert.witnesses["ad_f^2(g)V"] == evaluate(directional_derivative(
        iterated_adjoint(g, f, 2), V).body, x)


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


def test_system_rejects_v_that_fails_at_a_sampled_point():
    # V is evaluated on Python floats, so the pole at (1, 0) raises instead
    # of giving inf; construction reports it as invalid input
    with pytest.raises(ValueError, match="V cannot be evaluated at a sampled point"):
        SystemDef(
            VectorField.from_strings(["x2", "0"], 2),
            VectorField.from_strings(["0", "1"], 2),
            ScalarField.from_string("x1^2/(1-x1)+x2^2", 2),
        )


def test_system_rejects_nonpositive_v():
    with pytest.raises(ValueError, match="positive"):
        SystemDef(
            VectorField.from_strings(["x2", "0"], 2),
            VectorField.from_strings(["0", "1"], 2),
            ScalarField.from_string("0.5*(x1^2-x2^2)", 2),
        )


# --- shared symbolic work --------------------------------------------------------

SYSTEM_TEXTS = {name: (SYSTEMS_DIR / f"{name}.sys").read_text(encoding="utf-8")
                for name in ("dblint", "planar_cubic", "rotation3")}
SYSTEM_TEXTS["deep-linear"] = DEEP_LINEAR_TEXT
WORDS_UP_TO_4 = [w for m in range(1, 5) for w in bracket_trees(m)]


@st.composite
def word_tuples(draw, max_order=4):
    """A tuple of bracket words, the bare g included, of total order at
    most ``max_order``."""
    words, left = [], max_order
    while left and (not words or draw(st.booleans())):
        w = draw(st.sampled_from([w for w in WORDS_UP_TO_4 if w.order <= left]))
        words.append(w)
        left -= w.order
    return tuple(words)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(SYSTEM_TEXTS)),
       batch=st.lists(word_tuples(), min_size=1, max_size=6))
def test_shared_suffixes_match_uncached_chains(name, batch):
    """Monomials evaluated in random order on one system, so that suffixes
    and word fields are cached along different paths, equal the chain of
    directional derivatives built from V on a fresh system."""
    cached = parse_system_file(SYSTEM_TEXTS[name]).build()
    x = [0.7, -0.4, 0.9][:cached.dim]
    for words in batch:
        fresh = parse_system_file(SYSTEM_TEXTS[name]).build()
        scalar = fresh.V
        for w in reversed(words):
            scalar = directional_derivative(_word_field(fresh, w), scalar)
        assert _monomial_scalar(cached, words) == scalar
        assert monomial_value(cached, words, x) == float(
            compile_expr(scalar.body, scalar.dim)(*x))
        for w in words:
            assert _word_field(cached, w) == _word_field(fresh, w)


def _chain_text(rng):
    """A 3-d system f = (a x2^p, b x3^q, c x1 x2), g = e3 with V = |x|^2/2:
    on the x1 axis its low-order monomials vanish, and certification reads
    the deeper tables."""
    p, q = rng.randint(1, 3), rng.randint(1, 3)
    a, b, c = (rng.choice(("-", "")) + rng.choice(("0.5", "1", "1.5")) for _ in range(3))
    return (f'dim = 3\nf = ["{a}*x2^{p}", "{b}*x3^{q}", "{c}*x1*x2"]\n'
            'g = ["0", "0", "1"]\nV = "0.5*(x1^2+x2^2+x3^2)"\n')


@lru_cache(maxsize=None)
def _differential_systems():
    """The bundled systems and one deep-linear and three shallow systems of
    the certify-deep benchmark workload, then three random polynomial 3-d
    systems with g = e3 and four chains."""
    text_rng, rng = random.Random(43), np.random.default_rng(43)
    systems = [load_system(SYSTEMS_DIR / f"{name}.sys")
               for name in ("dblint", "planar_cubic", "rotation3")]
    systems += [parse_system_file(workload_system_text(text_rng, family)).build()
                for family in ("deep-linear", "shallow", "shallow", "shallow")]
    systems += [SystemDef(random_poly_field(rng, 3, n_terms=3, max_degree=3),
                          VectorField.from_strings(["0", "0", "1"], 3),
                          ScalarField.from_string("0.5*(x1^2+2*x2^2+x3^2)", 3))
                for _ in range(3)]
    systems += [parse_system_file(_chain_text(text_rng)).build() for _ in range(4)]
    return tuple(systems)


RANDOM_SYSTEMS_FROM = 7
PBW_LABELS = {"".join(w.label() for w in words)
              for order in range(1, N_MAX_LIMIT + 1)
              for words in lie.enumerate_monomial_products(order)}


@settings(max_examples=80, deadline=None)
@given(index=st.integers(0, 13),
       coords=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
       zeros=st.lists(st.booleans(), min_size=3, max_size=3))
def test_pbw_table_certifies_like_every_product(index, coords, zeros):
    """At n_max 6, certifying from the PBW table and from the table of
    every product of bracket trees gives the same case, N and witnesses.
    Coordinates are zeroed at random, so that gV and low-order monomials
    vanish and deeper tables are read. The details agree on the bundled
    and benchmark systems; elsewhere they differ only where the all-trees
    table meets a non-vanishing product outside the PBW table first."""
    sysd = _differential_systems()[index]
    x = [0.0 if zero else c for c, zero in zip(coords, zeros)][:sysd.dim]
    assume(np.linalg.norm(x) > 1e-6)
    pbw = certify_point(sysd, x, n_max=6)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(certify, "enumerate_monomial_products", all_trees_table)
        every = certify_point(sysd, x, n_max=6)
    assert (pbw.case, pbw.N, pbw.witnesses) == (every.case, every.N, every.witnesses)
    outside = (every.detail.startswith("(")
               and every.detail[1:every.detail.index("V)(x)")] not in PBW_LABELS)
    if index < RANDOM_SYSTEMS_FROM or not outside:
        assert pbw.detail == every.detail


def test_a_loaded_system_compiles_v_and_f_once(monkeypatch):
    """Loading a system compiles V; its first run through the RK kernel
    compiles F and reuses V, so v_at and the kernel share one function."""
    sources = []

    def counting_eval(source, namespace):
        sources.append(source)
        return eval(source, namespace)

    monkeypatch.setattr(symcalc, "eval", counting_eval, raising=False)
    sysd = load_system(SYSTEMS_DIR / "dblint.sys")
    assert len(sources) == 1
    flow_endpoint(sysd, [1.0, 0.0], ControlProgram(((1.0, 0.1),)))
    flow_endpoint(sysd, [0.0, 1.0], ControlProgram(((-1.0, 0.1),)))
    assert len(sources) == 2
    assert sysd.kernel_fns[1](0.3, -0.4) == sysd.v_at([0.3, -0.4])


def test_certification_builds_each_derivative_once(monkeypatch):
    """On the deep-linear system a point at n_max 5 goes through every
    row of the tables up to order 5: each one is built once from the scalar
    of its suffix, and each gradient and Jacobian is differentiated once.
    The adjoint words ad_g^N(f) and ad_f^N(g) are built at import, not per
    call."""
    sysd = parse_system_file(DEEP_LINEAR_TEXT).build()
    calls = {"directional_derivative": 0, "differentiate": 0, "bracket_word": 0}

    def counting(module, name):
        original = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(module, name, counted)

    counting(certify, "directional_derivative")
    counting(lie, "differentiate")
    counting(certify, "bracket_word")
    cert = certify_point(sysd, (0.6, -0.8, 0.5), n_max=5)
    assert cert.case is Case.INCONCLUSIVE
    # the 31 table rows of order <= 5 and gV, f^6V, ad_g^5(f)V and the
    # ad_f^N(g)V of N = 1..5, which are not table rows
    assert calls == {"directional_derivative": 39, "differentiate": 141,
                     "bracket_word": 0}
    scalars = [v for k, v in sysd._fns.items()
               if isinstance(k, tuple) and k[0] == "scalar"]
    fields = [v for k, v in sysd._fns.items() if isinstance(k, LieWord)]
    assert len(scalars) == 39
    gradients = sum("gradient" in vars(s) for s in [sysd.V, *scalars])
    jacobians = sum("jacobian" in vars(f) for f in fields)
    assert calls["differentiate"] == 3 * gradients + 9 * jacobians

    calls.update(directional_derivative=0, differentiate=0)
    again = certify_point(sysd, (-0.3, 0.2, 0.9), n_max=5)
    assert again.case is Case.INCONCLUSIVE
    assert calls == {"directional_derivative": 0, "differentiate": 0, "bracket_word": 0}

import random

import numpy as np
import pytest

from conftest import (
    all_trees_table, bracket_trees, fd_bracket, random_point, random_poly_field,
    random_poly_expr, workload_system_text,
)
from sdstab.certify import SystemDef, _word_field, monomial_value
from sdstab.cli import parse_system_file
from sdstab.lie import (
    ScalarField, VectorField, WORD_F, WORD_G, bracket_word,
    directional_derivative, enumerate_monomial_products, iterated_adjoint,
    lie_bracket,
)
from sdstab.symcalc import _add, _mul, differentiate, evaluate, simplify


def grid2(lo=-1.5, hi=1.5, k=4):
    axis = np.linspace(lo, hi, k)
    return [np.array([a, b]) for a in axis for b in axis]


# --- directional derivatives -----------------------------------------------------

def test_directional_derivative_control_field(dblint):
    gv = directional_derivative(dblint.g, dblint.V)
    for p in grid2():
        assert evaluate(gv.body, p) == pytest.approx(p[1], abs=1e-12)


def test_directional_derivative_drift(dblint):
    fv = directional_derivative(dblint.f, dblint.V)
    for p in grid2():
        assert evaluate(fv.body, p) == pytest.approx(p[0] * p[1], abs=1e-12)


def test_directional_derivative_zero_field(dblint):
    zero = VectorField.from_strings(["0", "0"], 2)
    zv = directional_derivative(zero, dblint.V)
    for p in grid2():
        assert evaluate(zv.body, p) == 0.0


def test_directional_derivative_dim_mismatch(dblint, rotation3):
    with pytest.raises(ValueError, match="dimension"):
        directional_derivative(rotation3.g, dblint.V)


# --- brackets ----------------------------------------------------------------------

def test_bracket_double_integrator(dblint):
    br = lie_bracket(dblint.f, dblint.g)
    for p in grid2():
        np.testing.assert_allclose(br.compiled()(p), [-1.0, 0.0], atol=1e-12)


def test_bracket_of_field_with_itself_vanishes():
    rng = np.random.default_rng(7)
    for _ in range(5):
        X = random_poly_field(rng, 3)
        br = lie_bracket(X, X)
        for _ in range(5):
            p = random_point(rng, 3)
            np.testing.assert_allclose(br.compiled()(p), np.zeros(3), atol=1e-12)


def test_bracket_rotation_structure():
    # f = (x2 a(x3), -x1 b(x3), 0), g = e3 gives [f,g] = (-x2 a', x1 b', 0)
    f = VectorField.from_strings(["x2*exp(x3)", "-x1*cos(x3)", "0"], 3)
    g = VectorField.from_strings(["0", "0", "1"], 3)
    br = lie_bracket(f, g)
    rng = np.random.default_rng(3)
    for _ in range(8):
        p = random_point(rng, 3, scale=1.2)
        expected = np.array([-p[1] * np.exp(p[2]), -p[0] * np.sin(p[2]), 0.0])
        np.testing.assert_allclose(br.compiled()(p), expected, atol=1e-12)


def test_bracket_matches_finite_difference_jacobians():
    rng = np.random.default_rng(11)
    for _ in range(20):
        X = random_poly_field(rng, 2)
        Y = random_poly_field(rng, 2)
        br = lie_bracket(X, Y)
        p = random_point(rng, 2)
        sym = br.compiled()(p)
        fd = fd_bracket(X, Y, p)
        np.testing.assert_allclose(sym, fd, rtol=1e-5, atol=1e-5)


def test_antisymmetry():
    rng = np.random.default_rng(13)
    X = random_poly_field(rng, 2)
    Y = random_poly_field(rng, 2)
    ab = lie_bracket(X, Y)
    ba = lie_bracket(Y, X)
    for _ in range(20):
        p = random_point(rng, 2)
        total = np.add(ab.compiled()(p), ba.compiled()(p))
        scale = 1.0 + float(np.max(np.abs(ab.compiled()(p))))
        assert float(np.max(np.abs(total))) <= 1e-10 * scale


def test_jacobi_identity():
    rng = np.random.default_rng(17)
    X = random_poly_field(rng, 2, n_terms=2, max_degree=2)
    Y = random_poly_field(rng, 2, n_terms=2, max_degree=2)
    Z = random_poly_field(rng, 2, n_terms=2, max_degree=2)
    total_field = (lie_bracket(X, lie_bracket(Y, Z))
                   + lie_bracket(Y, lie_bracket(Z, X))
                   + lie_bracket(Z, lie_bracket(X, Y)))
    for _ in range(10):
        p = random_point(rng, 2)
        residual = total_field.compiled()(p)
        scale = 1.0 + float(np.max(np.abs(lie_bracket(X, lie_bracket(Y, Z)).compiled()(p))))
        assert float(np.max(np.abs(residual))) <= 1e-8 * scale


def test_leibniz_consistency():
    rng = np.random.default_rng(19)
    X = random_poly_field(rng, 2)
    Y = random_poly_field(rng, 2)
    V = ScalarField(random_poly_expr(rng, 2), 2)
    lhs = directional_derivative(lie_bracket(X, Y), V)
    rhs_a = directional_derivative(X, directional_derivative(Y, V))
    rhs_b = directional_derivative(Y, directional_derivative(X, V))
    for _ in range(15):
        p = random_point(rng, 2)
        a = evaluate(lhs.body, p)
        b = evaluate(rhs_a.body, p) - evaluate(rhs_b.body, p)
        assert a == pytest.approx(b, abs=1e-9 * (1 + abs(a)))


def _reference_derivative(X, V):
    """(DV)X with each partial derivative of V taken inline."""
    body = None
    for i, comp in enumerate(X.components, start=1):
        term = _mul(comp, differentiate(V.body, i))
        body = term if body is None else _add(body, term)
    return ScalarField(simplify(body), V.dim)


def _reference_bracket(X, Y):
    """[X,Y] with each Jacobian entry of X and Y taken inline."""
    comps = []
    for k in range(X.dim):
        forward = backward = None
        for i in range(1, X.dim + 1):
            f_term = _mul(X.components[i - 1], differentiate(Y.components[k], i))
            b_term = _mul(Y.components[i - 1], differentiate(X.components[k], i))
            forward = f_term if forward is None else _add(forward, f_term)
            backward = b_term if backward is None else _add(backward, b_term)
        comps.append(simplify(forward - backward))
    return VectorField(tuple(comps), X.dim)


def test_kept_partials_build_the_reference_trees():
    """Fields keep their Jacobians and gradients; the trees built from
    them equal those built with inline partial derivatives."""
    rng = np.random.default_rng(23)
    for dim in (2, 3):
        for _ in range(10):
            X = random_poly_field(rng, dim)
            Y = random_poly_field(rng, dim)
            V = ScalarField(random_poly_expr(rng, dim), dim)
            XY = lie_bracket(X, Y)
            assert XY == _reference_bracket(X, Y)
            # X and V are reused below, now with their partials kept
            assert lie_bracket(XY, X) == _reference_bracket(XY, X)
            XV = directional_derivative(X, V)
            assert XV == _reference_derivative(X, V)
            assert directional_derivative(XY, V) == _reference_derivative(XY, V)
            assert directional_derivative(Y, XV) == _reference_derivative(Y, XV)


# --- iterated adjoints ----------------------------------------------------------------

def test_adjoint_depth_one_is_bracket(dblint):
    a = iterated_adjoint(dblint.g, dblint.f, 1)
    b = lie_bracket(dblint.g, dblint.f)
    for p in grid2():
        np.testing.assert_allclose(a.compiled()(p), b.compiled()(p), atol=1e-14)


def test_double_integrator_is_nilpotent(dblint):
    second = iterated_adjoint(dblint.g, dblint.f, 2)
    for p in grid2():
        np.testing.assert_allclose(second.compiled()(p), np.zeros(2), atol=1e-14)


def test_nilpotency_of_all_higher_words(dblint):
    sysd = SystemDef(dblint.f, dblint.g, dblint.V)
    for order in (3, 4):
        for word in bracket_trees(order):
            fld = _word_field(sysd, word).compiled()
            for p in grid2(k=3):
                np.testing.assert_allclose(fld(p), np.zeros(2), atol=1e-12)
                assert monomial_value(sysd, (word,), p) == 0.0


def test_rotation_double_adjoint(rotation3):
    fld = iterated_adjoint(rotation3.g, rotation3.f, 2)
    rng = np.random.default_rng(23)
    for _ in range(8):
        p = random_point(rng, 3)
        expected = np.array([p[0], -p[1], 0.0])
        np.testing.assert_allclose(fld.compiled()(p), expected, atol=1e-12)


def test_adjoint_depth_validation(dblint):
    with pytest.raises(ValueError):
        iterated_adjoint(dblint.g, dblint.f, 0)


# --- drift powers ------------------------------------------------------------------------

# f^i V is the bracket monomial (f, ..., f) of certification

def test_power_derivative_base_case(dblint):
    sysd = SystemDef(dblint.f, dblint.g, dblint.V)
    b = directional_derivative(dblint.f, dblint.V)
    for p in grid2():
        assert monomial_value(sysd, (WORD_F,), p) == pytest.approx(
            evaluate(b.body, p), abs=1e-14)


def test_power_derivative_cubic_drift(planar_cubic):
    sysd = SystemDef(planar_cubic.f, planar_cubic.g, planar_cubic.V)
    rng = np.random.default_rng(29)
    for _ in range(10):
        p = random_point(rng, 2, scale=1.5)
        assert monomial_value(sysd, (WORD_F,) * 2, p) == pytest.approx(
            2 * p[0] ** 2 * p[1] ** 4, rel=1e-10, abs=1e-12)


def test_power_derivative_rotation(rotation3):
    sysd = SystemDef(rotation3.f, rotation3.g, rotation3.V)
    rng = np.random.default_rng(31)
    for _ in range(10):
        p = random_point(rng, 3, scale=1.2)
        expected = -4 * p[0] * p[1] * p[2] * (1 + p[2])
        assert monomial_value(sysd, (WORD_F,) * 3, p) == pytest.approx(
            expected, rel=1e-9, abs=1e-11)
    assert monomial_value(sysd, (WORD_F,) * 3, [0.7, -0.4, 0.0]) == pytest.approx(
        0.0, abs=1e-14)


# --- bracket words and monomial enumeration -------------------------------------------------

def test_word_orders():
    w = bracket_word(bracket_word(WORD_F, WORD_G), WORD_G)
    assert w.order == 3
    assert WORD_F.order == 1
    assert w.label() == "[[f,g],g]"
    # a word built again is the same dictionary key
    twin = bracket_word(bracket_word(WORD_F, WORD_G), WORD_G)
    assert twin is not w and twin == w and hash(twin) == hash(w)
    assert {w: 1}[twin] == 1
    assert twin != bracket_word(bracket_word(WORD_G, WORD_F), WORD_G)


def test_enumerate_order_one():
    assert enumerate_monomial_products(1) == ((WORD_F,),)


def test_enumerate_order_two():
    fg = bracket_word(WORD_F, WORD_G)
    assert enumerate_monomial_products(2) == ((WORD_F, WORD_F), (fg,))


def test_enumerate_order_three_contents():
    fg = bracket_word(WORD_F, WORD_G)
    assert enumerate_monomial_products(3) == (
        (WORD_F, WORD_F, WORD_F),
        (fg, WORD_F),
        (bracket_word(WORD_F, fg),),
        (bracket_word(fg, WORD_G),),
    )


def _foliage(w):
    return w.leaf or _foliage(w.left) + _foliage(w.right)


def _is_lyndon(s):
    return all(s < s[i:] for i in range(1, len(s)))


def _is_standard_lyndon_bracket(w):
    """w brackets a Lyndon word uv as [u, v], v its longest proper Lyndon
    suffix, and so on down to the leaves."""
    if w.leaf is not None:
        return True
    s = _foliage(w)
    suffix = next(s[i:] for i in range(1, len(s)) if _is_lyndon(s[i:]))
    return (_is_lyndon(s) and _foliage(w.right) == suffix
            and _is_standard_lyndon_bracket(w.left)
            and _is_standard_lyndon_bracket(w.right))


def _is_pbw_product(words):
    keys = [(w.order, _foliage(w)) for w in words]
    return (all(w != WORD_G and _is_standard_lyndon_bracket(w) for w in words)
            and all(a >= b for a, b in zip(keys, keys[1:])))


def test_exact_order_table_is_the_filtered_walk():
    """The table keeps, in the order of the walk over every product of
    bracket trees, the products of standard Lyndon brackets other than g
    whose keys (order, Lyndon word) do not increase."""
    sizes = {1: (1, 1), 2: (3, 2), 3: (13, 4), 4: (61, 8), 5: (313, 16), 6: (1673, 32)}
    for order, (all_trees, pbw) in sizes.items():
        assert len(all_trees_table(order)) == all_trees
        got = enumerate_monomial_products(order)
        assert got == tuple(filter(_is_pbw_product, all_trees_table(order)))
        assert len(got) == pbw
        assert got[0] == (WORD_F,) * order


def test_words_skip_structural_zeros():
    """No word of any table has a bracket [w, w], which is identically zero."""
    def has_square(w):
        return w.leaf is None and (w.left == w.right or has_square(w.left)
                                   or has_square(w.right))

    assert all(w.left != w.right for w in bracket_trees(2))
    assert len(bracket_trees(2)) == 2
    assert not any(has_square(w) for order in range(1, 7)
                   for words in enumerate_monomial_products(order) for w in words)


def test_pbw_products_span_every_product():
    """Every product of bracket words other than g of orders 2..5 is one
    integer combination of that order's table rows at every sampled
    (system, point): least squares over all samples, rounded, leaves a
    relative residual of at most 1e-9. The systems are random polynomial
    3-d ones and those of the certify-deep benchmark workload."""
    rng = np.random.default_rng(41)
    systems = [SystemDef(random_poly_field(rng, 3, n_terms=2, max_degree=2),
                         random_poly_field(rng, 3, n_terms=2, max_degree=2),
                         ScalarField.from_string("0.5*(x1^2+2*x2^2+x3^2)", 3))
               for _ in range(4)]
    text_rng = random.Random(41)
    systems += [parse_system_file(workload_system_text(text_rng, family)).build()
                for family in ("shallow", "shallow", "deep-linear")]
    samples = [(sysd, random_point(rng, 3).tolist()) for sysd in systems for _ in range(8)]
    for order in range(2, 6):
        rows = enumerate_monomial_products(order)
        values = {}
        for sysd, x in samples:
            memo = {}
            for words in all_trees_table(order):
                values.setdefault(words, []).append(monomial_value(sysd, words, x, memo))
        basis = np.array([values[words] for words in rows]).T
        assert np.linalg.matrix_rank(basis) == len(rows)
        others = np.array([values[words] for words in all_trees_table(order)]).T
        coefficients = np.round(np.linalg.lstsq(basis, others, rcond=None)[0])
        residual = np.linalg.norm(basis @ coefficients - others, axis=0)
        assert np.all(residual <= 1e-9 * np.linalg.norm(others, axis=0))

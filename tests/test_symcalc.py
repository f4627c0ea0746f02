import math
import os
import struct
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
import hypothesis.strategies as st

from conftest import DEEP_LINEAR_TEXT
from sdstab import symcalc
from sdstab.lie import VectorField
from sdstab.symcalc import (
    Add, Const, Cos, DomainError, Div, Exp, ExprError, Ln, Mul, Neg, ParseError,
    Pow, Sin, Sub, Var, ONE, ZERO, _add, _div, _mul, _neg, _pow, _sub,
    compile_affine, compile_expr, differentiate, evaluate, max_var_index, parse,
    simplify, to_text,
)


# --- parsing -------------------------------------------------------------------

def test_parse_quadratic():
    e = parse("0.5*(x1^2+x2^2)", 2)
    assert evaluate(e, (1.0, 0.0)) == pytest.approx(0.5)


def test_parse_product():
    e = parse("x2*(1+x3)", 3)
    assert evaluate(e, (0.0, 2.0, 0.5)) == pytest.approx(3.0)


def test_parse_variable_out_of_range():
    with pytest.raises(ParseError, match="out of range"):
        parse("x4", 3)


def test_parse_unknown_identifier():
    with pytest.raises(ParseError, match="unknown identifier"):
        parse("y1+1", 2)


def test_parse_syntax_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse("x1+*2", 2)
    assert err.value.position == 3


def test_parse_unbalanced_paren():
    with pytest.raises(ParseError):
        parse("sin(x1", 1)


def test_parse_non_integer_exponent_rejected():
    with pytest.raises(ParseError, match="integer"):
        parse("x1^2.5", 1)


def test_parse_leading_minus():
    e = parse("-x1", 2)
    assert evaluate(e, (3.0, 0.0)) == -3.0
    e2 = parse("x2*(-1)", 2)
    assert evaluate(e2, (0.0, 5.0)) == -5.0


def test_parse_negative_exponent():
    e = parse("x1^-2", 1)
    assert evaluate(e, (2.0,)) == pytest.approx(0.25)


def test_parse_division_by_literal_zero_rejected():
    with pytest.raises((ParseError, ExprError)):
        parse("x1/0", 1)


def test_rational_literals_are_exact():
    e = simplify(parse("0.1*10-1", 1))
    assert e == Const(Fraction(0))


def test_scientific_literal():
    assert evaluate(parse("2.5e-2", 1), (0.0,)) == pytest.approx(0.025)


# --- evaluation -----------------------------------------------------------------

def test_evaluate_product():
    assert evaluate(parse("x1*x2", 2), (3.0, 4.0)) == 12.0


def test_evaluate_division_by_zero():
    with pytest.raises(DomainError, match="division by zero"):
        evaluate(parse("1/x1", 1), (0.0,))


def test_evaluate_sin_zero():
    assert evaluate(parse("sin(x1)", 1), (0.0,)) == 0.0


def test_evaluate_ln_nonpositive():
    with pytest.raises(DomainError, match="ln"):
        evaluate(parse("ln(x1)", 1), (-1.0,))


def test_compile_matches_evaluate():
    e = parse("sin(x1)*exp(x2)-x1^3/(2+x2^2)", 2)
    fn = compile_expr(e, 2)
    for p in [(0.3, -1.2), (1.0, 0.5), (-2.0, 2.0)]:
        assert fn(*p) == pytest.approx(evaluate(e, p), rel=1e-15)


@pytest.mark.parametrize("value", [math.inf, -math.inf])
def test_compile_matches_evaluate_on_non_finite_constants(value):
    for e in (Const(value), Mul(Const(value), Var(1)), Sub(Var(1), Const(value))):
        assert compile_expr(e, 1)(2.0) == evaluate(e, (2.0,))
    nan_sum = Add(Var(1), Const(math.nan))
    assert math.isnan(compile_expr(nan_sum, 1)(2.0))
    assert math.isnan(evaluate(nan_sum, (2.0,)))


def test_compile_raises_a_negative_constant_to_a_power():
    for value in (Fraction(-1), -0.5, -0.0):
        e = Pow(Const(value), 2)
        assert compile_expr(e, 0)() == float(value) ** 2 == evaluate(e, ())
    assert math.copysign(1.0, compile_expr(Pow(Const(-0.0), 3), 0)()) == -1.0


# --- simplification ---------------------------------------------------------------

def test_simplify_zero_product():
    assert simplify(parse("0*x1+x2", 2)) == Var(2)


def test_simplify_pow_zero():
    assert simplify(parse("x1^0", 1)) == Const(Fraction(1))


def test_simplify_identities():
    assert simplify(parse("x1+0", 1)) == Var(1)
    assert simplify(parse("1*x1", 1)) == Var(1)
    assert simplify(parse("x1^1", 1)) == Var(1)
    assert simplify(parse("x1-x1", 1)) == Const(Fraction(0))


# --- hand derivatives ---------------------------------------------------------------

def test_derivative_power_rule():
    d = differentiate(parse("x1^2*x2", 2), 1)
    rng = np.random.default_rng(0)
    for _ in range(10):
        p = rng.uniform(-2, 2, size=2)
        assert evaluate(d, p) == pytest.approx(2 * p[0] * p[1], rel=1e-12)


def test_derivative_other_variable():
    d = differentiate(parse("x2*(1+x3)", 3), 3)
    for p in [(0.0, 2.0, 0.5), (1.0, -3.0, 0.0)]:
        assert evaluate(d, p) == pytest.approx(p[1], rel=1e-12)


def test_derivative_quotient_and_ln():
    e = parse("ln(x1)/x1", 1)
    d = differentiate(e, 1)
    x = 2.0
    assert evaluate(d, (x,)) == pytest.approx((1 - math.log(x)) / x**2, rel=1e-12)


# --- random expression properties ----------------------------------------------------

def _exprs(dim: int, max_leaves: int = 12, rationals: bool = False):
    """Random trees over x1..x_dim with small integer constants; with
    ``rationals``, also non-integer rational constants and quotients, whose
    simplified forms hold constants such as 1/3 under products, quotients
    and powers."""
    atoms = [st.integers(-3, 3).map(lambda v: Const(Fraction(v))),
             st.integers(1, dim).map(Var)]
    if rationals:
        atoms.append(st.sampled_from([Fraction(1, 3), Fraction(-2, 5), Fraction(7, 2)])
                     .map(Const))

    def nonzero(e):
        return not (isinstance(e, Const) and e.value == 0)

    def extend(children):
        ops = [
            st.tuples(children, children).map(lambda ab: Add(*ab)),
            st.tuples(children, children).map(lambda ab: Sub(*ab)),
            st.tuples(children, children).map(lambda ab: Mul(*ab)),
            children.map(Neg),
            children.map(Sin),
            st.tuples(children, st.integers(2, 3)).map(lambda an: Pow(*an)),
        ]
        if rationals:
            ops.append(st.tuples(children, children.filter(nonzero)).map(lambda ab: Div(*ab)))
        return st.one_of(*ops)

    return st.recursive(st.one_of(*atoms), extend, max_leaves=max_leaves)


@given(e=_exprs(2), data=st.data())
@settings(max_examples=120, deadline=None)
def test_derivative_matches_central_differences(e, data):
    """Symbolic derivative against the finite-difference oracle."""
    var = data.draw(st.integers(1, 2))
    point = data.draw(st.tuples(*[st.floats(-2, 2) for _ in range(2)]))
    h = 1e-5
    d = differentiate(e, var)
    sym = evaluate(d, point)
    lo = list(point)
    hi = list(point)
    lo[var - 1] -= h
    hi[var - 1] += h
    f_hi, f_lo = evaluate(e, hi), evaluate(e, lo)
    assume(all(abs(v) < 1e9 for v in (sym, f_hi, f_lo)))
    fd = (f_hi - f_lo) / (2 * h)
    assert sym == pytest.approx(fd, abs=1e-6 * (1 + abs(sym)))


@given(e=_exprs(3), data=st.data())
@settings(max_examples=150, deadline=None)
def test_simplify_preserves_value(e, data):
    point = data.draw(st.tuples(*[st.floats(-2, 2) for _ in range(3)]))
    value = evaluate(e, point)
    assume(abs(value) < 1e12)
    simplified = evaluate(simplify(e), point)
    assert simplified == pytest.approx(value, rel=1e-12, abs=1e-12)


@given(e1=_exprs(2, max_leaves=8), e2=_exprs(2, max_leaves=8),
       a=st.integers(-4, 4), data=st.data())
@settings(max_examples=80, deadline=None)
def test_derivative_linearity(e1, e2, a, data):
    point = data.draw(st.tuples(st.floats(-2, 2), st.floats(-2, 2)))
    combined = differentiate(Add(Mul(Const(Fraction(a)), e1), e2), 1)
    separate = Add(Mul(Const(Fraction(a)), differentiate(e1, 1)), differentiate(e2, 1))
    lhs = evaluate(combined, point)
    rhs = evaluate(separate, point)
    assume(abs(lhs) < 1e12 and abs(rhs) < 1e12)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@given(e=_exprs(2) | _exprs(2, max_leaves=10, rationals=True))
@example(e=Div(Var(1), Div(Const(Fraction(1)), Const(Fraction(3)))))
@example(e=Pow(Div(Const(Fraction(1)), Const(Fraction(3))), 2))
@settings(max_examples=120, deadline=None)
def test_round_trip_through_text(e):
    """Text of a tree and of its simplified form parses back to the same
    value, or to the same domain error."""
    try:
        trees = (e, simplify(e))
    except ExprError:
        # a denominator that simplifies to the literal 0
        trees = (e,)
    point = (0.37, -1.21)
    for tree in trees:
        reparsed = parse(to_text(tree), 2)
        try:
            value = evaluate(tree, point)
        except DomainError:
            with pytest.raises(DomainError):
                evaluate(reparsed, point)
            continue
        assume(math.isfinite(value))
        assert evaluate(reparsed, point) == pytest.approx(value, rel=1e-12, abs=1e-12)


def test_expressions_hashable_and_equal():
    a = parse("x1^2+sin(x2)", 2)
    b = parse("x1^2+sin(x2)", 2)
    assert a == b and hash(a) == hash(b)
    assert max_var_index(a) == 2


def test_operator_building():
    x1, x2 = Var(1), Var(2)
    e = 0.5 * (x1 ** 2 + x2 ** 2)
    assert evaluate(e, (3.0, 4.0)) == pytest.approx(12.5)
    assert max_var_index(-x1 / (1 + x2)) == 2


def test_division_by_literal_zero_at_construction():
    with pytest.raises(ExprError):
        Div(Var(1), Const(Fraction(0)))


def test_pow_requires_integer_exponent():
    with pytest.raises(ExprError):
        Pow(Var(1), 1.5)


# --- the control-affine field ---------------------------------------------------

def _polynomials(dim: int):
    """Sums and differences of up to three terms c * x_i^e * x_j^e', with
    zero, unit and non-dyadic coefficients and some negated terms."""
    coefficient = st.sampled_from([-3, -2, -1, 0, 1, 2, 3, Fraction(1, 3), Fraction(-5, 2)])
    factor = st.tuples(st.integers(1, dim), st.integers(1, 3))
    term = st.tuples(coefficient, st.lists(factor, max_size=2), st.booleans())

    def build(terms):
        out = None
        for (c, factors, negated), plus in terms:
            t = Const(Fraction(c))
            for i, e in factors:
                t = Mul(t, Pow(Var(i), e))
            t = Neg(t) if negated else t
            out = t if out is None else (Add(out, t) if plus else Sub(out, t))
        return out
    return st.lists(st.tuples(term, st.booleans()), min_size=1, max_size=3).map(build)


# 0.0 is the input of the ArtsteinSontag and P1 programs; the others use
# signed powers of two
_inputs = st.one_of(st.sampled_from([0.0, -0.0]),
                    st.builds(lambda s, j: s * 2.0 ** j,
                              st.sampled_from([1.0, -1.0]), st.integers(-10, 10)),
                    st.floats(min_value=-1e3, max_value=1e3))


def _all_bits(values) -> list[bytes]:
    return [struct.pack("<d", v) for v in values]


@given(data=st.data(), u=_inputs)
@settings(max_examples=300, deadline=None)
def test_affine_field_matches_the_tree_of_each_input(data, u):
    """F(*x, u) against the simplified tree of f + u g at that u. For u != 0
    they are the same code. At u = 0 the tree drops the g term and F
    computes f_i + 0*g_i, which differs only in the sign of a zero."""
    dim = data.draw(st.integers(1, 3))
    f = tuple(data.draw(_polynomials(dim)) for _ in range(dim))
    g = tuple(data.draw(_polynomials(dim)) for _ in range(dim))
    x = data.draw(st.lists(st.sampled_from([0.0, -0.0]) | st.floats(-2, 2),
                           min_size=dim, max_size=dim))
    tree = (VectorField(f, dim) + VectorField(g, dim).scaled(u)).compiled()(x)
    got = compile_affine(f, g)(*x, u)
    assert type(got) is tuple and len(got) == dim
    if u != 0:
        assert _all_bits(got) == _all_bits(tree)
    else:
        assert got == tree
        assert all(a == 0 or _bits(a) == _bits(b) for a, b in zip(got, tree))


@pytest.mark.parametrize("name", ["dblint", "planar_cubic", "rotation3"])
@given(data=st.data(), u=_inputs.filter(lambda u: math.copysign(1.0, u) > 0 or u != 0))
@settings(max_examples=100, deadline=None)
def test_bundled_affine_fields_match_the_tree_of_each_input(request, name, data, u):
    # no program input is -0.0 (two_phase_program normalizes it); there the
    # bare u of g = 1 is -0.0 where the tree folds 0 + (-0.0) to 0.0
    sysd = request.getfixturevalue(name)
    x = data.draw(st.lists(st.sampled_from([0.0, -0.0]) | st.floats(-4, 4),
                           min_size=sysd.dim, max_size=sysd.dim))
    tree = (sysd.f + sysd.g.scaled(u)).compiled()(x)
    assert _all_bits(sysd.kernel_fns[0](*x, u)) == _all_bits(tree)
    assert _all_bits(sysd.rhs(u)(x)) == _all_bits(tree)
    assert _bits(sysd.kernel_fns[1](*x)) == _bits(sysd.v_at(x))


# --- interning and memos --------------------------------------------------------------

def _plain_simplify(e):
    """The simplification rules without memos: the reference."""
    if isinstance(e, (Const, Var)):
        return e
    if isinstance(e, Neg):
        return _neg(_plain_simplify(e.arg))
    if isinstance(e, (Sin, Cos, Exp, Ln)):
        a = _plain_simplify(e.arg)
        if isinstance(a, Const):
            if isinstance(e, Sin) and a.value == 0:
                return ZERO
            if isinstance(e, Cos) and a.value == 0:
                return ONE
            if isinstance(e, Exp) and a.value == 0:
                return ONE
            if isinstance(e, Ln) and a.value == 1:
                return ZERO
        return type(e)(a)
    if isinstance(e, Add):
        return _add(_plain_simplify(e.left), _plain_simplify(e.right))
    if isinstance(e, Sub):
        return _sub(_plain_simplify(e.left), _plain_simplify(e.right))
    if isinstance(e, Mul):
        return _mul(_plain_simplify(e.left), _plain_simplify(e.right))
    if isinstance(e, Div):
        return _div(_plain_simplify(e.left), _plain_simplify(e.right))
    return _pow(_plain_simplify(e.base), e.exponent)


def _plain_diff(e, i):
    """The derivative rules without memos: the reference."""
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.index == i else ZERO
    if isinstance(e, Neg):
        return _neg(_plain_diff(e.arg, i))
    if isinstance(e, Sin):
        return _mul(Cos(e.arg), _plain_diff(e.arg, i))
    if isinstance(e, Cos):
        return _neg(_mul(Sin(e.arg), _plain_diff(e.arg, i)))
    if isinstance(e, Exp):
        return _mul(e, _plain_diff(e.arg, i))
    if isinstance(e, Ln):
        return _div(_plain_diff(e.arg, i), e.arg)
    if isinstance(e, Add):
        return _add(_plain_diff(e.left, i), _plain_diff(e.right, i))
    if isinstance(e, Sub):
        return _sub(_plain_diff(e.left, i), _plain_diff(e.right, i))
    if isinstance(e, Mul):
        return _add(_mul(_plain_diff(e.left, i), e.right),
                    _mul(e.left, _plain_diff(e.right, i)))
    if isinstance(e, Div):
        num = _sub(_mul(_plain_diff(e.left, i), e.right),
                   _mul(e.left, _plain_diff(e.right, i)))
        return _div(num, _pow(e.right, 2))
    if e.exponent == 0:
        return ZERO
    inner = _mul(Const(Fraction(e.exponent)), _pow(e.base, e.exponent - 1))
    return _mul(inner, _plain_diff(e.base, i))


def _every_kind(e):
    """e and trees that put it under each node type _exprs never draws."""
    return [e, Div(Cos(e), Exp(Neg(e))), Ln(Mul(e, e))]


def _rebuild(e):
    """The same tree built again from fresh constructor arguments."""
    if isinstance(e, Const):
        return Const(Fraction(e.value.numerator, e.value.denominator))
    if isinstance(e, Var):
        return Var(int(e.index))
    if isinstance(e, Pow):
        return Pow(_rebuild(e.base), e.exponent)
    if isinstance(e, (Neg, Sin, Cos, Exp, Ln)):
        return type(e)(_rebuild(e.arg))
    return type(e)(_rebuild(e.left), _rebuild(e.right))


def _nodes(e):
    yield e
    for name in type(e)._fields:
        child = getattr(e, name)
        if isinstance(child, symcalc.Expr):
            yield from _nodes(child)


@given(e=_exprs(3))
@settings(max_examples=120, deadline=None)
def test_memoized_calculus_matches_the_plain_rules(e):
    for tree in _every_kind(e):
        assert simplify(tree) is _plain_simplify(tree)
        for i in (1, 2, 3):
            # twice: the second call reads the memos the first one left
            assert differentiate(tree, i) is _plain_simplify(_plain_diff(tree, i))
            assert differentiate(tree, i) is _plain_simplify(_plain_diff(tree, i))
        assert max_var_index(tree) == max(
            [v.index for v in _nodes(tree) if isinstance(v, Var)], default=0)


def _bits(v: float) -> bytes:
    return struct.pack("<d", v)


@given(trees=st.lists(_exprs(2), min_size=1, max_size=4),
       point=st.tuples(st.floats(-2, 2), st.floats(-2, 2)))
@settings(max_examples=120, deadline=None)
def test_shared_memo_evaluates_like_compiled_code(trees, point):
    """One memo across trees and their derivatives, as certification uses
    it at a point, gives compile_expr's values bit for bit."""
    memo = {}
    for e in trees:
        for tree in [*_every_kind(e), differentiate(e, 1), differentiate(e, 2)]:
            try:
                expected = compile_expr(tree, 2)(*point)
            except (ArithmeticError, ValueError):
                with pytest.raises(DomainError):
                    evaluate(tree, point, memo)
                continue
            assert _bits(evaluate(tree, point, memo)) == _bits(expected)


def _values_or_error(fn, point):
    try:
        return [_bits(v) for v in fn(point)]
    except (ArithmeticError, ValueError) as exc:
        return type(exc)


@given(trees=st.lists(_exprs(2), min_size=2, max_size=2),
       kinds=st.tuples(st.integers(0, 2), st.integers(0, 2)),
       point=st.tuples(st.floats(-2, 2), st.floats(-2, 2)))
@settings(max_examples=120, deadline=None)
def test_compiled_field_is_its_compiled_components(trees, kinds, point):
    """The field's one compiled call gives what compiling each component
    alone gives, bit for bit, or raises the same exception type."""
    comps = tuple(_every_kind(e)[k] for e, k in zip(trees, kinds))
    alone = [compile_expr(c, 2) for c in comps]
    assert (_values_or_error(VectorField(comps, 2).compiled(), point)
            == _values_or_error(lambda x: [fn(*x) for fn in alone], point))


@pytest.mark.parametrize("texts,point,expected", [
    (["-x1", "x2*0"], (0.0, -1.0), [-0.0, -0.0]),
    (["x2", "1/x1"], (0.0, 1.0), ZeroDivisionError),
    (["x1^9", "x2"], (1e40, 1.0), OverflowError),
])
def test_compiled_field_keeps_signed_zeros_and_exception_types(texts, point, expected):
    field = VectorField.from_strings(texts, 2)
    fused = field.compiled()
    alone = [compile_expr(c, 2) for c in field.components]
    if isinstance(expected, list):
        assert [_bits(v) for v in fused(point)] == [_bits(v) for v in expected]
        assert [_bits(fn(*point)) for fn in alone] == [_bits(v) for v in expected]
    else:
        with pytest.raises(expected):
            fused(point)
        with pytest.raises(expected):
            [fn(*point) for fn in alone]


@given(e=_exprs(3))
@settings(max_examples=80, deadline=None)
def test_independent_builds_are_one_object(e):
    assert _rebuild(e) is e
    assert simplify(_rebuild(e)) is simplify(e)


def test_constants_are_interned_by_exact_value():
    assert Const(Fraction(1)) is ONE
    assert Const(1.0) is not ONE
    assert Const(-0.0) is not Const(0.0)
    assert math.copysign(1.0, evaluate(Const(-0.0), ())) == -1.0
    assert parse("x1^2+sin(x2)", 2) is parse("x1^2 + sin(x2)", 2)


def test_nodes_are_immutable():
    e = Add(Var(1), Var(2))
    with pytest.raises(AttributeError):
        e.left = Var(2)
    assert Add(Var(1), Var(2)) is e


def test_a_dropped_system_leaves_no_node_in_the_intern_table():
    """The table holds nodes only weakly: once a system and what was built
    for it are gone, none of its nodes stay, so nothing of one system's
    work carries over to the next. A fresh interpreter, because a node that
    another test keeps alive would keep the derivatives it memoized."""
    script = f"""
import gc
from sdstab import symcalc
from sdstab.certify import certify_point
from sdstab.cli import parse_system_file
before = set(symcalc._TABLE)
sysd = parse_system_file({DEEP_LINEAR_TEXT!r}).build()
certify_point(sysd, (0.6, -0.8, 0.5), n_max=3)
built = len(symcalc._TABLE) - len(before)
del sysd
gc.collect()
print(built, len(set(symcalc._TABLE) - before))
"""
    env = dict(os.environ, PYTHONPATH=str(Path(symcalc.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    built, left = map(int, done.stdout.split())
    assert built > 100
    assert left == 0

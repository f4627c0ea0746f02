import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from sdstab.symcalc import (
    Add, Const, DomainError, Div, ExprError, Mul, Neg, ParseError, Pow,
    Sin, Sub, Var, compile_expr, differentiate, evaluate, max_var_index,
    parse, simplify, to_text,
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
    fn = compile_expr(e)
    for p in [(0.3, -1.2), (1.0, 0.5), (-2.0, 2.0)]:
        assert fn(p) == pytest.approx(evaluate(e, p), rel=1e-15)


@pytest.mark.parametrize("value", [math.inf, -math.inf])
def test_compile_matches_evaluate_on_non_finite_constants(value):
    for e in (Const(value), Mul(Const(value), Var(1)), Sub(Var(1), Const(value))):
        assert compile_expr(e)((2.0,)) == evaluate(e, (2.0,))
    nan_sum = Add(Var(1), Const(math.nan))
    assert math.isnan(compile_expr(nan_sum)((2.0,)))
    assert math.isnan(evaluate(nan_sum, (2.0,)))


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

def _exprs(dim: int, max_leaves: int = 12):
    atoms = st.one_of(
        st.integers(-3, 3).map(lambda v: Const(Fraction(v))),
        st.integers(1, dim).map(Var),
    )

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda ab: Add(*ab)),
            st.tuples(children, children).map(lambda ab: Sub(*ab)),
            st.tuples(children, children).map(lambda ab: Mul(*ab)),
            children.map(Neg),
            children.map(Sin),
            st.tuples(children, st.integers(2, 3)).map(lambda an: Pow(*an)),
        )

    return st.recursive(atoms, extend, max_leaves=max_leaves)


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


@given(e=_exprs(2))
@settings(max_examples=60, deadline=None)
def test_round_trip_through_text(e):
    text = to_text(e)
    reparsed = parse(text, 2)
    point = (0.37, -1.21)
    assert evaluate(reparsed, point) == pytest.approx(
        evaluate(e, point), rel=1e-12, abs=1e-12)


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

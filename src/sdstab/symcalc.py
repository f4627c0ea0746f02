"""Symbolic scalar expressions over state variables x1..xn.

Grammar (whitespace insignificant)::

    expr   := ('+'|'-')? term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' integer)?
    base   := number | 'x' integer | '(' expr ')' | func '(' expr ')'
    func   := 'sin' | 'cos' | 'exp' | 'ln'
    number := decimal literal, optionally with exponent part

A leading sign is accepted at the expression level (so "-x1" and
"(-1)" parse) even though the binary operators otherwise carry all
sign information.

Numeric literals are stored as exact rationals and only demoted to
float at evaluation time, which keeps cancellation in polynomial
work exact (``0.1*10 - 1`` simplifies to the literal zero).

Expression trees are immutable and hashable; parsing, differentiation
and simplification are pure functions, so values can be shared freely
across threads.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence, Union

Number = Union[Fraction, float]

__all__ = [
    "Expr", "Const", "Var", "Neg", "Sin", "Cos", "Exp", "Ln",
    "Add", "Sub", "Mul", "Div", "Pow",
    "ExprError", "ParseError", "DomainError",
    "parse", "differentiate", "simplify", "evaluate",
    "compile_expr", "max_var_index", "to_text",
]


class ExprError(Exception):
    """Base class for expression errors."""


class ParseError(ExprError):
    def __init__(self, message: str, text: str, position: int):
        context = text[position:position + 16]
        super().__init__(f"{message} at position {position}: {context!r}")
        self.position = position


class DomainError(ExprError):
    """Evaluation left the domain of a subexpression."""

    def __init__(self, message: str, subexpr: "Expr"):
        super().__init__(f"{message} in {to_text(subexpr)!r}")
        self.subexpr = subexpr


class Expr:
    """Base node. Instances are immutable; operators build new trees."""

    __slots__ = ()

    def __add__(self, other):
        return Add(self, _coerce(other))

    def __radd__(self, other):
        return Add(_coerce(other), self)

    def __sub__(self, other):
        return Sub(self, _coerce(other))

    def __rsub__(self, other):
        return Sub(_coerce(other), self)

    def __mul__(self, other):
        return Mul(self, _coerce(other))

    def __rmul__(self, other):
        return Mul(_coerce(other), self)

    def __truediv__(self, other):
        return Div(self, _coerce(other))

    def __rtruediv__(self, other):
        return Div(_coerce(other), self)

    def __pow__(self, exponent: int):
        return Pow(self, exponent)

    def __neg__(self):
        return Neg(self)

    def __str__(self):
        return to_text(self)


def _coerce(value) -> "Expr":
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, Fraction)):
        return Const(Fraction(value))
    if isinstance(value, float):
        return Const(value)
    raise TypeError(f"cannot use {value!r} as an expression operand")


@dataclass(frozen=True)
class Const(Expr):
    value: Number


@dataclass(frozen=True)
class Var(Expr):
    index: int  # 1-based

    def __post_init__(self):
        if self.index < 1:
            raise ExprError(f"variable index must be >= 1, got {self.index}")


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class Sin(Expr):
    arg: Expr


@dataclass(frozen=True)
class Cos(Expr):
    arg: Expr


@dataclass(frozen=True)
class Exp(Expr):
    arg: Expr


@dataclass(frozen=True)
class Ln(Expr):
    arg: Expr


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Div(Expr):
    left: Expr
    right: Expr

    def __post_init__(self):
        if isinstance(self.right, Const) and self.right.value == 0:
            raise ExprError("division by the literal constant 0")


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int

    def __post_init__(self):
        if not isinstance(self.exponent, int) or isinstance(self.exponent, bool):
            raise ExprError(f"pow exponent must be an integer, got {self.exponent!r}")


ZERO = Const(Fraction(0))
ONE = Const(Fraction(1))

_UNARY = (Neg, Sin, Cos, Exp, Ln)
_BINARY = (Add, Sub, Mul, Div)


# --- rendering ------------------------------------------------------------

_PRECEDENCE = {Add: 1, Sub: 1, Mul: 2, Div: 2, Pow: 3, Neg: 0}


def _prec(e: Expr) -> int:
    if isinstance(e, Const) and e.value < 0:
        return 0  # renders with a leading minus, parenthesize like Neg
    return _PRECEDENCE.get(type(e), 4)


def to_text(e: Expr) -> str:
    """Render an expression in the input grammar (parseable round trip)."""
    def wrap(child: Expr, parent_prec: int) -> str:
        s = to_text(child)
        return f"({s})" if _prec(child) < parent_prec else s

    if isinstance(e, Const):
        v = e.value
        if isinstance(v, Fraction):
            return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
        return repr(v)
    if isinstance(e, Var):
        return f"x{e.index}"
    if isinstance(e, Neg):
        return f"-{wrap(e.arg, 2)}"
    if isinstance(e, Sin):
        return f"sin({to_text(e.arg)})"
    if isinstance(e, Cos):
        return f"cos({to_text(e.arg)})"
    if isinstance(e, Exp):
        return f"exp({to_text(e.arg)})"
    if isinstance(e, Ln):
        return f"ln({to_text(e.arg)})"
    if isinstance(e, Add):
        return f"{wrap(e.left, 1)}+{wrap(e.right, 2)}"
    if isinstance(e, Sub):
        return f"{wrap(e.left, 1)}-{wrap(e.right, 2)}"
    if isinstance(e, Mul):
        return f"{wrap(e.left, 2)}*{wrap(e.right, 3)}"
    if isinstance(e, Div):
        return f"{wrap(e.left, 2)}/{wrap(e.right, 4)}"
    if isinstance(e, Pow):
        exp = str(e.exponent) if e.exponent >= 0 else f"-{-e.exponent}"
        return f"{wrap(e.base, 4)}^{exp}"
    raise TypeError(f"not an expression node: {e!r}")


def max_var_index(e: Expr) -> int:
    """Largest variable index appearing in the tree (0 for constants)."""
    if isinstance(e, Var):
        return e.index
    if isinstance(e, Const):
        return 0
    if isinstance(e, _UNARY):
        return max_var_index(e.arg)
    if isinstance(e, _BINARY):
        return max(max_var_index(e.left), max_var_index(e.right))
    if isinstance(e, Pow):
        return max_var_index(e.base)
    raise TypeError(f"not an expression node: {e!r}")


# --- evaluation -----------------------------------------------------------

def evaluate(e: Expr, point: Sequence[float]) -> float:
    """Numeric value of ``e`` at ``point`` (point[i-1] is x_i).

    Raises DomainError for division by zero or ln of a nonpositive value,
    identifying the offending subexpression.
    """
    if isinstance(e, Const):
        return float(e.value)
    if isinstance(e, Var):
        if e.index > len(point):
            raise ExprError(
                f"variable x{e.index} exceeds point dimension {len(point)}")
        return float(point[e.index - 1])
    if isinstance(e, Neg):
        return -evaluate(e.arg, point)
    if isinstance(e, Sin):
        return math.sin(evaluate(e.arg, point))
    if isinstance(e, Cos):
        return math.cos(evaluate(e.arg, point))
    if isinstance(e, Exp):
        try:
            return math.exp(evaluate(e.arg, point))
        except OverflowError:
            raise DomainError("overflow", e) from None
    if isinstance(e, Ln):
        v = evaluate(e.arg, point)
        if v <= 0.0:
            raise DomainError(f"ln of nonpositive value {v}", e)
        return math.log(v)
    if isinstance(e, Add):
        return evaluate(e.left, point) + evaluate(e.right, point)
    if isinstance(e, Sub):
        return evaluate(e.left, point) - evaluate(e.right, point)
    if isinstance(e, Mul):
        return evaluate(e.left, point) * evaluate(e.right, point)
    if isinstance(e, Div):
        denom = evaluate(e.right, point)
        if denom == 0.0:
            raise DomainError("division by zero", e)
        return evaluate(e.left, point) / denom
    if isinstance(e, Pow):
        base = evaluate(e.base, point)
        try:
            return base ** e.exponent
        except ZeroDivisionError:
            raise DomainError("zero raised to a negative power", e) from None
        except OverflowError:
            raise DomainError("overflow", e) from None
    raise TypeError(f"not an expression node: {e!r}")


# --- simplification -------------------------------------------------------

def _is_const(e: Expr, value) -> bool:
    return isinstance(e, Const) and e.value == value


def _neg(a: Expr) -> Expr:
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def _add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    if _is_const(a, 0):
        return b
    if _is_const(b, 0):
        return a
    return Add(a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    if _is_const(b, 0):
        return a
    if _is_const(a, 0):
        return _neg(b)
    if a == b:
        return ZERO
    return Sub(a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    if _is_const(a, 0) or _is_const(b, 0):
        return ZERO
    if _is_const(a, 1):
        return b
    if _is_const(b, 1):
        return a
    return Mul(a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0):
        return ZERO
    if _is_const(b, 1):
        return a
    if isinstance(a, Const) and isinstance(b, Const) and b.value != 0:
        if isinstance(a.value, Fraction) and isinstance(b.value, Fraction):
            return Const(a.value / b.value)
        return Const(float(a.value) / float(b.value))
    return Div(a, b)


def _pow(a: Expr, n: int) -> Expr:
    if n == 0:
        return ONE
    if n == 1:
        return a
    if isinstance(a, Const) and not (a.value == 0 and n < 0):
        return Const(a.value ** n)
    return Pow(a, n)


def simplify(e: Expr) -> Expr:
    """Value-preserving local rewriting: constant folding and the
    0*a, a+0, a-0, 1*a, a^0, a^1 eliminations. No canonical form."""
    if isinstance(e, (Const, Var)):
        return e
    if isinstance(e, Neg):
        return _neg(simplify(e.arg))
    if isinstance(e, (Sin, Cos, Exp, Ln)):
        a = simplify(e.arg)
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
        return _add(simplify(e.left), simplify(e.right))
    if isinstance(e, Sub):
        return _sub(simplify(e.left), simplify(e.right))
    if isinstance(e, Mul):
        return _mul(simplify(e.left), simplify(e.right))
    if isinstance(e, Div):
        return _div(simplify(e.left), simplify(e.right))
    if isinstance(e, Pow):
        return _pow(simplify(e.base), e.exponent)
    raise TypeError(f"not an expression node: {e!r}")


# --- differentiation ------------------------------------------------------

def differentiate(e: Expr, var: int) -> Expr:
    """Symbolic partial derivative with respect to x_var (1-based).

    The grammar is closed under differentiation, so this never fails.
    """
    if var < 1:
        raise ExprError(f"variable index must be >= 1, got {var}")
    return simplify(_diff(e, var))


def _diff(e: Expr, i: int) -> Expr:
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.index == i else ZERO
    if isinstance(e, Neg):
        return _neg(_diff(e.arg, i))
    if isinstance(e, Sin):
        return _mul(Cos(e.arg), _diff(e.arg, i))
    if isinstance(e, Cos):
        return _neg(_mul(Sin(e.arg), _diff(e.arg, i)))
    if isinstance(e, Exp):
        return _mul(e, _diff(e.arg, i))
    if isinstance(e, Ln):
        return _div(_diff(e.arg, i), e.arg)
    if isinstance(e, Add):
        return _add(_diff(e.left, i), _diff(e.right, i))
    if isinstance(e, Sub):
        return _sub(_diff(e.left, i), _diff(e.right, i))
    if isinstance(e, Mul):
        return _add(_mul(_diff(e.left, i), e.right), _mul(e.left, _diff(e.right, i)))
    if isinstance(e, Div):
        num = _sub(_mul(_diff(e.left, i), e.right), _mul(e.left, _diff(e.right, i)))
        return _div(num, _pow(e.right, 2))
    if isinstance(e, Pow):
        if e.exponent == 0:
            return ZERO
        inner = _mul(Const(Fraction(e.exponent)), _pow(e.base, e.exponent - 1))
        return _mul(inner, _diff(e.base, i))
    raise TypeError(f"not an expression node: {e!r}")


# --- compilation ----------------------------------------------------------

# inf and nan are how repr renders the non-finite constants
_NAMESPACE = {"_sin": math.sin, "_cos": math.cos, "_exp": math.exp, "_log": math.log,
              "inf": math.inf, "nan": math.nan}


def _pycode(e: Expr) -> str:
    if isinstance(e, Const):
        return repr(float(e.value))
    if isinstance(e, Var):
        return f"_x[{e.index - 1}]"
    if isinstance(e, Neg):
        return f"(-{_pycode(e.arg)})"
    if isinstance(e, Sin):
        return f"_sin({_pycode(e.arg)})"
    if isinstance(e, Cos):
        return f"_cos({_pycode(e.arg)})"
    if isinstance(e, Exp):
        return f"_exp({_pycode(e.arg)})"
    if isinstance(e, Ln):
        return f"_log({_pycode(e.arg)})"
    if isinstance(e, Add):
        return f"({_pycode(e.left)}+{_pycode(e.right)})"
    if isinstance(e, Sub):
        return f"({_pycode(e.left)}-{_pycode(e.right)})"
    if isinstance(e, Mul):
        return f"({_pycode(e.left)}*{_pycode(e.right)})"
    if isinstance(e, Div):
        return f"({_pycode(e.left)}/{_pycode(e.right)})"
    if isinstance(e, Pow):
        return f"({_pycode(e.base)}**{e.exponent})"
    raise TypeError(f"not an expression node: {e!r}")


def compile_expr(e: Expr) -> Callable[[Sequence[float]], float]:
    """Compile a tree to a fast float function of the state vector.

    Same float semantics as evaluate() on the same tree shape, but on
    Python floats domain violations surface as ZeroDivisionError,
    ValueError or OverflowError from the runtime.
    """
    # one globals dict for every compiled tree: the functions only read it
    return eval(f"lambda _x: {_pycode(e)}", _NAMESPACE)


# --- parsing --------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
)

_FUNCS = {"sin": Sin, "cos": Cos, "exp": Exp, "ln": Ln}

_INT_RE = re.compile(r"\d+$")


def _fraction_from_literal(text: str) -> Fraction:
    return Fraction(text if not text.endswith(".") else text[:-1])


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.items: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            if text[pos].isspace():
                pos += 1
                continue
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                raise ParseError("unexpected character", text, pos)
            self.items.append((m.lastgroup, m.group(), pos))
            pos = m.end()
        self.cursor = 0

    def peek(self):
        return self.items[self.cursor] if self.cursor < len(self.items) else None

    def next(self):
        item = self.peek()
        if item is not None:
            self.cursor += 1
        return item

    def expect_op(self, op: str):
        item = self.peek()
        if item is None or item[0] != "op" or item[1] != op:
            pos = item[2] if item else len(self.text)
            raise ParseError(f"expected {op!r}", self.text, pos)
        self.next()


def parse(text: str, dim: int) -> Expr:
    """Parse an expression over x1..x<dim>.

    Errors carry the offending position; variable indices outside 1..dim
    and identifiers other than x<k>/sin/cos/exp/ln are rejected.
    """
    if dim < 1:
        raise ExprError(f"dimension must be >= 1, got {dim}")
    toks = _Tokens(text)
    expr = _parse_expr(toks, dim)
    trailing = toks.peek()
    if trailing is not None:
        raise ParseError("unexpected trailing input", text, trailing[2])
    return expr


def _parse_expr(toks: _Tokens, dim: int) -> Expr:
    item = toks.peek()
    negate = False
    if item is not None and item[0] == "op" and item[1] in "+-":
        negate = item[1] == "-"
        toks.next()
    expr = _parse_term(toks, dim)
    if negate:
        expr = Neg(expr)
    while True:
        item = toks.peek()
        if item is None or item[0] != "op" or item[1] not in "+-":
            return expr
        toks.next()
        rhs = _parse_term(toks, dim)
        expr = Add(expr, rhs) if item[1] == "+" else Sub(expr, rhs)


def _parse_term(toks: _Tokens, dim: int) -> Expr:
    expr = _parse_factor(toks, dim)
    while True:
        item = toks.peek()
        if item is None or item[0] != "op" or item[1] not in "*/":
            return expr
        toks.next()
        rhs = _parse_factor(toks, dim)
        if item[1] == "*":
            expr = Mul(expr, rhs)
        else:
            if isinstance(rhs, Const) and rhs.value == 0:
                raise ParseError("division by the literal constant 0", toks.text, item[2])
            expr = Div(expr, rhs)


def _parse_factor(toks: _Tokens, dim: int) -> Expr:
    base = _parse_base(toks, dim)
    item = toks.peek()
    if item is None or item[0] != "op" or item[1] != "^":
        return base
    toks.next()
    sign = 1
    item = toks.peek()
    if item is not None and item[0] == "op" and item[1] == "-":
        sign = -1
        toks.next()
    item = toks.next()
    if item is None or item[0] != "num" or not _INT_RE.match(item[1]):
        pos = item[2] if item else len(toks.text)
        raise ParseError("pow exponent must be an integer", toks.text, pos)
    return Pow(base, sign * int(item[1]))


def _parse_base(toks: _Tokens, dim: int) -> Expr:
    item = toks.next()
    if item is None:
        raise ParseError("unexpected end of input", toks.text, len(toks.text))
    kind, value, pos = item
    if kind == "num":
        return Const(_fraction_from_literal(value))
    if kind == "ident":
        if value in _FUNCS:
            toks.expect_op("(")
            arg = _parse_expr(toks, dim)
            toks.expect_op(")")
            return _FUNCS[value](arg)
        m = re.fullmatch(r"x(\d+)", value)
        if m:
            index = int(m.group(1))
            if index < 1 or index > dim:
                raise ParseError(
                    f"variable index out of range: x{index} with dimension {dim}",
                    toks.text, pos)
            return Var(index)
        raise ParseError(f"unknown identifier {value!r}", toks.text, pos)
    if kind == "op" and value == "(":
        expr = _parse_expr(toks, dim)
        toks.expect_op(")")
        return expr
    raise ParseError(f"unexpected token {value!r}", toks.text, pos)

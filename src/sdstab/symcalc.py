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

Expression trees are immutable and interned: each distinct subtree is one
object, shared by every tree that contains it, and it keeps its simplified
form and partial derivatives once computed (see Expr). Parsing,
differentiation and simplification are pure functions; the intern table
and the memos assume that one thread at a time builds trees.

A tree is evaluated by evaluate(), or compiled once by compile_expr() to a
Python function of the coordinates x1..xn as separate float arguments;
compile_affine() compiles the field f + u g through it, u an argument.
"""

from __future__ import annotations

import math
import re
import weakref
from fractions import Fraction
from typing import Callable, Sequence, Union

Number = Union[Fraction, float]

__all__ = [
    "Expr", "Const", "Var", "Neg", "Sin", "Cos", "Exp", "Ln",
    "Add", "Sub", "Mul", "Div", "Pow",
    "ExprError", "ParseError", "DomainError",
    "parse", "differentiate", "simplify", "evaluate",
    "compile_expr", "compile_affine", "max_var_index", "to_text",
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
    """Base node. Nodes are immutable and interned: building a node whose
    type, children and exact constant value match a live node returns that
    node, so equal trees are one object and ``==`` is identity. A node
    knows its largest variable index and keeps its simplified form and its
    partial derivatives once they are computed, so a subtree shared by
    many trees is simplified and differentiated once."""

    __slots__ = ("_max_var", "_simplified", "_derivs", "__weakref__")
    _fields: tuple[str, ...] = ()

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    __delattr__ = __setattr__

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({args})"

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


# --- interning --------------------------------------------------------------

# node key -> weak reference to the live node with that key. A key holds the
# node's children, which the node holds anyway, so the table keeps no node
# alive: an entry leaves when its node is freed.
_TABLE: dict = {}
_set_max_var = Expr._max_var.__set__
_set_simplified = Expr._simplified.__set__
_set_derivs = Expr._derivs.__set__
# the _simplified value of a node that simplifies to itself (storing the
# node would make it its own referent, which only the cycle collector frees)
_IRREDUCIBLE = object()


def _forget(ref, table=_TABLE):
    if table.get(ref.key) is ref:
        del table[ref.key]


def _interned(key) -> "Expr | None":
    ref = _TABLE.get(key)
    return None if ref is None else ref()


def _new(cls, key, max_var: int, simplified=None) -> "Expr":
    node = object.__new__(cls)
    _set_max_var(node, max_var)
    _set_simplified(node, simplified)
    _set_derivs(node, None)
    _TABLE[key] = weakref.KeyedRef(node, _forget, key)
    return node


class Const(Expr):
    __slots__ = ("value", "_float")  # _float is None beyond float range
    _fields = ("value",)

    def __new__(cls, value: Number):
        # 1 == 1.0 and 0.0 == -0.0: the type and the sign keep them apart
        sign = math.copysign(1.0, value) if isinstance(value, float) else 0
        key = (cls, type(value), value, sign)
        node = _interned(key)
        if node is None:
            node = _new(cls, key, 0, _IRREDUCIBLE)
            _set_value(node, value)
            try:
                _set_float(node, float(value))
            except OverflowError:
                _set_float(node, None)
        return node


class Var(Expr):
    __slots__ = ("index",)  # 1-based
    _fields = ("index",)

    def __new__(cls, index: int):
        key = (cls, index)
        node = _interned(key)
        if node is None:
            if index < 1:
                raise ExprError(f"variable index must be >= 1, got {index}")
            node = _new(cls, key, index, _IRREDUCIBLE)
            _set_index(node, index)
        return node


class _Unary(Expr):
    __slots__ = ("arg",)
    _fields = ("arg",)

    def __new__(cls, arg: Expr):
        key = (cls, arg)
        node = _interned(key)
        if node is None:
            node = _new(cls, key, arg._max_var)
            _set_arg(node, arg)
        return node


class Neg(_Unary):
    __slots__ = ()


class Sin(_Unary):
    __slots__ = ()


class Cos(_Unary):
    __slots__ = ()


class Exp(_Unary):
    __slots__ = ()


class Ln(_Unary):
    __slots__ = ()


# the grammar's functions by their names in the input text
_FUNCS = {Sin: "sin", Cos: "cos", Exp: "exp", Ln: "ln"}


class _Binary(Expr):
    __slots__ = ("left", "right")
    _fields = ("left", "right")

    def __new__(cls, left: Expr, right: Expr):
        key = (cls, left, right)
        node = _interned(key)
        if node is None:
            node = _new(cls, key, max(left._max_var, right._max_var))
            _set_left(node, left)
            _set_right(node, right)
        return node


class Add(_Binary):
    __slots__ = ()


class Sub(_Binary):
    __slots__ = ()


class Mul(_Binary):
    __slots__ = ()


class Div(_Binary):
    __slots__ = ()

    def __new__(cls, left: Expr, right: Expr):
        if isinstance(right, Const) and right.value == 0:
            raise ExprError("division by the literal constant 0")
        return _Binary.__new__(cls, left, right)


class Pow(Expr):
    __slots__ = ("base", "exponent")
    _fields = ("base", "exponent")

    def __new__(cls, base: Expr, exponent: int):
        if not isinstance(exponent, int) or isinstance(exponent, bool):
            raise ExprError(f"pow exponent must be an integer, got {exponent!r}")
        key = (cls, base, exponent)
        node = _interned(key)
        if node is None:
            node = _new(cls, key, base._max_var)
            _set_base(node, base)
            _set_exponent(node, exponent)
        return node


_set_value = Const.value.__set__
_set_float = Const._float.__set__
_set_index = Var.index.__set__
_set_arg = _Unary.arg.__set__
_set_left = _Binary.left.__set__
_set_right = _Binary.right.__set__
_set_base = Pow.base.__set__
_set_exponent = Pow.exponent.__set__

ZERO = Const(Fraction(0))
ONE = Const(Fraction(1))


# --- rendering ------------------------------------------------------------

_PRECEDENCE = {Add: 1, Sub: 1, Mul: 2, Div: 2, Pow: 3, Neg: 0}


def _prec(e: Expr) -> int:
    if isinstance(e, Const):
        if e.value < 0:
            return 0  # renders with a leading minus, parenthesize like Neg
        if isinstance(e.value, Fraction) and e.value.denominator != 1:
            return 2  # renders as p/q, parenthesize like Div
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
    if type(e) in _FUNCS:
        return f"{_FUNCS[type(e)]}({to_text(e.arg)})"
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
    return e._max_var


# --- evaluation -----------------------------------------------------------

def evaluate(e: Expr, point: Sequence[float], memo: dict | None = None) -> float:
    """Numeric value of ``e`` at ``point`` (point[i-1] is x_i).

    ``memo`` maps nodes to their values at this point. Certification
    passes one memo to every witness it evaluates at a point, so a subtree
    shared by many bracket monomials is evaluated once there. The float
    operations are those of compile_expr(e, len(point))(*point), in the
    same order.

    Raises DomainError for division by zero, ln of a nonpositive value,
    a power or exp that overflows or a constant beyond float range,
    identifying the offending subexpression. A sum or product that
    overflows gives inf, as in compiled code.
    """
    return _eval(e, point, {} if memo is None else memo)


def _eval(e: Expr, x: Sequence[float], memo: dict) -> float:
    v = memo.get(e)
    if v is not None:
        return v
    t = type(e)
    if t is Mul:
        v = _eval(e.left, x, memo) * _eval(e.right, x, memo)
    elif t is Add:
        v = _eval(e.left, x, memo) + _eval(e.right, x, memo)
    elif t is Sub:
        v = _eval(e.left, x, memo) - _eval(e.right, x, memo)
    elif t is Var:
        if e.index > len(x):
            raise ExprError(f"variable x{e.index} exceeds point dimension {len(x)}")
        v = float(x[e.index - 1])
    elif t is Const:
        v = e._float
        if v is None:
            raise DomainError("constant beyond float range", e)
    elif t is Pow:
        base = _eval(e.base, x, memo)
        try:
            v = base ** e.exponent
        except ZeroDivisionError:
            raise DomainError("zero raised to a negative power", e) from None
        except OverflowError:
            raise DomainError("overflow", e) from None
    elif t is Neg:
        v = -_eval(e.arg, x, memo)
    elif t is Div:
        num = _eval(e.left, x, memo)
        denom = _eval(e.right, x, memo)
        if denom == 0.0:
            raise DomainError("division by zero", e)
        v = num / denom
    elif t is Sin:
        v = math.sin(_eval(e.arg, x, memo))
    elif t is Cos:
        v = math.cos(_eval(e.arg, x, memo))
    elif t is Exp:
        try:
            v = math.exp(_eval(e.arg, x, memo))
        except OverflowError:
            raise DomainError("overflow", e) from None
    elif t is Ln:
        v = _eval(e.arg, x, memo)
        if v <= 0.0:
            raise DomainError(f"ln of nonpositive value {v}", e)
        v = math.log(v)
    else:
        raise TypeError(f"not an expression node: {e!r}")
    memo[e] = v
    return v


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
    if a is b:
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
    0*a, a+0, a-0, a-a, 1*a, a^0, a^1 eliminations. No canonical form."""
    return _simplify(e)


def _simplify(e: Expr) -> Expr:
    done = e._simplified
    if done is not None:
        return e if done is _IRREDUCIBLE else done
    t = type(e)
    if t is Neg:
        out = _neg(_simplify(e.arg))
    elif t is Add:
        out = _add(_simplify(e.left), _simplify(e.right))
    elif t is Sub:
        out = _sub(_simplify(e.left), _simplify(e.right))
    elif t is Mul:
        out = _mul(_simplify(e.left), _simplify(e.right))
    elif t is Div:
        out = _div(_simplify(e.left), _simplify(e.right))
    elif t is Pow:
        out = _pow(_simplify(e.base), e.exponent)
    elif t in (Sin, Cos, Exp, Ln):
        a = _simplify(e.arg)
        if isinstance(a, Const) and a.value == (1 if t is Ln else 0):
            out = ONE if t in (Cos, Exp) else ZERO
        else:
            out = t(a)
    else:
        raise TypeError(f"not an expression node: {e!r}")
    _set_simplified(e, _IRREDUCIBLE if out is e else out)
    return out


# --- differentiation ------------------------------------------------------

def differentiate(e: Expr, var: int) -> Expr:
    """Symbolic partial derivative with respect to x_var (1-based).

    The grammar is closed under differentiation, so this never fails.
    """
    if var < 1:
        raise ExprError(f"variable index must be >= 1, got {var}")
    return _simplify(_diff(e, var))


def _diff(e: Expr, i: int) -> Expr:
    if e._max_var < i:
        # every rule below maps subtrees free of x_i to ZERO
        return ZERO
    t = type(e)
    if t is Var:
        return ONE if e.index == i else ZERO
    derivs = e._derivs
    if derivs is None:
        derivs = {}
        _set_derivs(e, derivs)
    else:
        d = derivs.get(i)
        if d is not None:
            return d
    if t is Neg:
        d = _neg(_diff(e.arg, i))
    elif t is Sin:
        d = _mul(Cos(e.arg), _diff(e.arg, i))
    elif t is Cos:
        d = _neg(_mul(Sin(e.arg), _diff(e.arg, i)))
    elif t is Exp:
        d = _mul(e, _diff(e.arg, i))
    elif t is Ln:
        d = _div(_diff(e.arg, i), e.arg)
    elif t is Add:
        d = _add(_diff(e.left, i), _diff(e.right, i))
    elif t is Sub:
        d = _sub(_diff(e.left, i), _diff(e.right, i))
    elif t is Mul:
        d = _add(_mul(_diff(e.left, i), e.right), _mul(e.left, _diff(e.right, i)))
    elif t is Div:
        num = _sub(_mul(_diff(e.left, i), e.right), _mul(e.left, _diff(e.right, i)))
        d = _div(num, _pow(e.right, 2))
    elif t is Pow:
        if e.exponent == 0:
            d = ZERO
        else:
            inner = _mul(Const(Fraction(e.exponent)), _pow(e.base, e.exponent - 1))
            d = _mul(inner, _diff(e.base, i))
    else:
        raise TypeError(f"not an expression node: {e!r}")
    derivs[i] = d
    return d


# --- compilation ----------------------------------------------------------

# the compiled code calls each function by its grammar name after an
# underscore (math spells ln log); inf and nan are how repr renders the
# non-finite constants
_NAMESPACE = {f"_{name}": getattr(math, "log" if name == "ln" else name)
              for name in _FUNCS.values()} | {"inf": math.inf, "nan": math.nan}


def _pycode(e: Expr) -> str:
    """Python source of e, with x_i written as _x{i-1}."""
    if isinstance(e, Const):
        # parenthesized when negative: -1.0**2 would read as -(1.0**2)
        text = repr(float(e.value))
        return f"({text})" if text.startswith("-") else text
    if isinstance(e, Var):
        return f"_x{e.index - 1}"
    if isinstance(e, Neg):
        return f"(-{_pycode(e.arg)})"
    if type(e) in _FUNCS:
        return f"_{_FUNCS[type(e)]}({_pycode(e.arg)})"
    if type(e) in _BINARY_OPS:
        return f"({_binary_code(e)})"
    if isinstance(e, Pow):
        return f"({_pycode(e.base)}**{e.exponent})"
    raise TypeError(f"not an expression node: {e!r}")


# operator and precedence level of each binary node
_BINARY_OPS = {Add: ("+", 0), Sub: ("-", 0), Mul: ("*", 1), Div: ("/", 1)}


def _binary_code(e: Expr) -> str:
    """e's code without its outer parentheses. A left operand of the same
    precedence is left bare too: Python parses a+b-c as (a+b)-c, the same
    tree, and a sum of many terms would otherwise nest a parenthesis per
    term, past the 200 the tokenizer allows."""
    op, level = _BINARY_OPS[type(e)]
    left_level = _BINARY_OPS.get(type(e.left), (None, None))[1]
    left = _binary_code(e.left) if left_level == level else _pycode(e.left)
    return f"{left}{op}{_pycode(e.right)}"


def compile_expr(e: Expr | Sequence[Expr], dim: int) -> Callable[..., float | tuple]:
    """Compile a tree over x1..x_dim to a fast float function of the
    coordinates as separate arguments, fn(x1, ..., x_dim), or a sequence of
    trees to one such function returning the tuple of their values.

    For V and fields, small trees evaluated at many states; certification
    evaluates its many larger trees once per point with evaluate() instead,
    which costs less than compiling them.
    Same float semantics as evaluate() on the same tree shape, but on
    Python floats domain violations surface as ZeroDivisionError,
    ValueError or OverflowError from the runtime. A tuple is one tuple
    display evaluated left to right, so it raises what the first failing
    tree would raise on its own.
    """
    if isinstance(e, Expr):
        body = _pycode(e)
    else:
        # a comma after every tree, so that one tree makes a 1-tuple
        body = "(" + "".join(_pycode(c) + ", " for c in e) + ")"
    params = ", ".join(f"_x{i}" for i in range(dim))
    # one globals dict for every compiled tree: the functions only read it
    return eval(f"lambda {params}: {body}", _NAMESPACE)


def compile_affine(f: Sequence[Expr], g: Sequence[Expr]) -> Callable[..., tuple]:
    """Compile xdot = f(x) + u g(x) to F(x1, ..., xn, u) -> the tuple of
    components: compile_expr over the trees simplify(f_i) + u simplify(g_i),
    u being x_{n+1}. The simplifier's folds drop a g term that is the
    constant 0 and write a g factor that is the constant 1 as a bare u. For
    u != 0 that is the code of simplify(f_i + u g_i), the tree a fixed u
    gives; at u = 0 a kept g term still runs, so the sign of a zero
    component can differ from that tree's, and a non-finite value or domain
    error of g_i shows."""
    u = Var(len(f) + 1)
    return compile_expr([_add(simplify(fi), _mul(u, simplify(gi))) for fi, gi in zip(f, g)],
                        u.index)


# --- parsing --------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
)

_FUNC_OF_NAME = {name: cls for cls, name in _FUNCS.items()}

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
        if value in _FUNC_OF_NAME:
            toks.expect_op("(")
            arg = _parse_expr(toks, dim)
            toks.expect_op(")")
            return _FUNC_OF_NAME[value](arg)
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

"""Vector-field calculus: directional derivatives, Lie brackets, iterated
adjoints and enumeration of bracket monomials.

Conventions: for a scalar h and field X, the directional derivative is
Xh = (Dh)X = sum_i X_i dh/dx_i, and the bracket is [X,Y] = XY - YX,
i.e. componentwise (DY)X - (DX)Y.

The order of a bracket word is its leaf count. This is a conservative
upper bound for the span-layer order of the monomial it denotes (a
degenerate monomial can land in a lower layer), so order-bounded checks
performed over these words are at worst stricter than necessary, never
unsound.

Certification needs D_1...D_k V(x) = 0 for every product of bracket words
D_i other than the bare g, of total order N. Those products lie in the
enveloping algebra of span(f) + [L, L], L the free Lie algebra on f and g.
The standard bracketings of the Lyndon words over f < g other than g are a
basis of that subalgebra (Chen-Fox-Lyndon 1958; Reutenauer, Free Lie
Algebras, 1993), so by Poincare-Birkhoff-Witt their non-increasing
products of order N, 2^(N-1) of them, span every such product with
integer coefficients: checking them decides the vanishing condition in
exact arithmetic. In floating point, another product sum c_i P_i is only
bounded by sum |c_i| tol when every P_i V(x) is within tol, so a point
near the tolerance boundary could change case against a check of every
product.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence, Union

from .symcalc import (
    Const, Expr, compile_expr, differentiate, max_var_index,
    parse, simplify, _add, _mul,
)

__all__ = [
    "ScalarField", "VectorField", "LieWord", "WORD_F", "WORD_G",
    "bracket_word", "enumerate_monomial_products",
    "directional_derivative", "lie_bracket", "iterated_adjoint",
]


@dataclass(frozen=True)
class ScalarField:
    """A scalar expression with its state-space dimension."""

    body: Expr
    dim: int

    def __post_init__(self):
        if max_var_index(self.body) > self.dim:
            raise ValueError(
                f"scalar field uses x{max_var_index(self.body)} "
                f"but has dimension {self.dim}")

    @classmethod
    def from_string(cls, text: str, dim: int) -> "ScalarField":
        return cls(parse(text, dim), dim)

    @cached_property
    def gradient(self) -> tuple[Expr, ...]:
        """(dV/dx_1, ..., dV/dx_n), differentiated once per field."""
        return tuple(differentiate(self.body, i) for i in range(1, self.dim + 1))


@dataclass(frozen=True)
class VectorField:
    """An n-tuple of component expressions over x1..xn."""

    components: tuple[Expr, ...]
    dim: int

    def __post_init__(self):
        if len(self.components) != self.dim:
            raise ValueError(
                f"{len(self.components)} components for dimension {self.dim}")
        for c in self.components:
            if max_var_index(c) > self.dim:
                raise ValueError(
                    f"component {c} uses x{max_var_index(c)} "
                    f"but field has dimension {self.dim}")

    @classmethod
    def from_strings(cls, texts: Sequence[str], dim: int) -> "VectorField":
        return cls(tuple(parse(t, dim) for t in texts), dim)

    def compiled(self):
        """Compiled field x -> (X_1(x), ..., X_n(x)) as a tuple, all
        components in one compiled call of compile_expr's."""
        fused = compile_expr(self.components, self.dim)
        # a lambda written here: perfbench/profile_check.py counts rhs
        # evaluations as its calls
        return lambda x: fused(*x)

    @cached_property
    def jacobian(self) -> tuple[tuple[Expr, ...], ...]:
        """Rows (dX_k/dx_1, ..., dX_k/dx_n), differentiated once per field."""
        return tuple(tuple(differentiate(c, i) for i in range(1, self.dim + 1))
                     for c in self.components)

    def __add__(self, other: "VectorField") -> "VectorField":
        _check_dims(self, other)
        comps = tuple(simplify(_add(a, b))
                      for a, b in zip(self.components, other.components))
        return VectorField(comps, self.dim)

    def scaled(self, c: Union[float, int, Fraction]) -> "VectorField":
        const = Const(Fraction(c)) if isinstance(c, (int, Fraction)) else Const(c)
        comps = tuple(simplify(_mul(const, comp)) for comp in self.components)
        return VectorField(comps, self.dim)


def _check_dims(a, b):
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")


def directional_derivative(X: VectorField, V: ScalarField) -> ScalarField:
    """(DV)X = sum_i X_i dV/dx_i, simplified."""
    _check_dims(X, V)
    body = None
    for comp, partial in zip(X.components, V.gradient):
        term = _mul(comp, partial)
        body = term if body is None else _add(body, term)
    return ScalarField(simplify(body), V.dim)


def lie_bracket(X: VectorField, Y: VectorField) -> VectorField:
    """[X,Y] = (DY)X - (DX)Y, componentwise and simplified."""
    _check_dims(X, Y)
    n = X.dim
    dX, dY = X.jacobian, Y.jacobian
    comps = []
    for k in range(n):
        forward = None
        backward = None
        for i in range(n):
            f_term = _mul(X.components[i], dY[k][i])
            b_term = _mul(Y.components[i], dX[k][i])
            forward = f_term if forward is None else _add(forward, f_term)
            backward = b_term if backward is None else _add(backward, b_term)
        comps.append(simplify(forward - backward))
    return VectorField(tuple(comps), n)


def iterated_adjoint(Y: VectorField, X: VectorField, k: int) -> VectorField:
    """k-fold right-bracketing of Y by X: [...[[Y,X],X],...,X]."""
    if k < 1:
        raise ValueError(f"adjoint depth must be >= 1, got {k}")
    _check_dims(Y, X)
    out = lie_bracket(Y, X)
    for _ in range(k - 1):
        out = lie_bracket(out, X)
    return out


# --- bracket words ----------------------------------------------------------

@dataclass(frozen=True)
class LieWord:
    """Binary bracket word over the two generator leaves 'f' and 'g'.

    A leaf is the generator itself; an internal node is the bracket of its
    children. The order is the leaf count. Words are dictionary keys of
    the certification caches, so the order and the hash are computed once
    per word instead of by recursion on every lookup.
    """

    leaf: str | None = None
    left: "LieWord | None" = None
    right: "LieWord | None" = None

    def __post_init__(self):
        if self.leaf is not None:
            if self.leaf not in ("f", "g") or self.left or self.right:
                raise ValueError(f"bad leaf word {self.leaf!r}")
        elif self.left is None or self.right is None:
            raise ValueError("bracket word needs two children")

    @cached_property
    def order(self) -> int:
        if self.leaf is not None:
            return 1
        return self.left.order + self.right.order

    @cached_property
    def _hash(self) -> int:
        return hash((self.leaf, self.left, self.right))

    def __hash__(self) -> int:
        return self._hash

    def label(self) -> str:
        if self.leaf is not None:
            return self.leaf
        return f"[{self.left.label()},{self.right.label()}]"


WORD_F = LieWord(leaf="f")
WORD_G = LieWord(leaf="g")


def bracket_word(left: LieWord, right: LieWord) -> LieWord:
    return LieWord(left=left, right=right)


def _lyndon_words(n: int) -> set[str]:
    """The Lyndon words over f < g of length at most n, by Duval's
    algorithm: a word is extended periodically to length n, its trailing
    g's dropped and its last letter raised."""
    out = set()
    w = "f"
    while w:
        out.add(w)
        w = (w * n)[:n].rstrip("g")
        w = w and w[:-1] + "g"
    return out


def _standard_bracketing(w: str, lyndon: set[str]) -> LieWord:
    """[u, v] for the Lyndon word w = uv, v its longest proper Lyndon suffix."""
    if len(w) == 1:
        return WORD_F if w == "f" else WORD_G
    split = next(i for i in range(1, len(w)) if w[i:] in lyndon)
    return bracket_word(_standard_bracketing(w[:split], lyndon),
                        _standard_bracketing(w[split:], lyndon))


def _tree_key(w: LieWord) -> tuple:
    """The order in which the table lists words of one leaf count: f
    before g, brackets lexicographic in (left order, left, right). Over all
    bracket trees it orders the table of every product (tests/conftest.py),
    so wherever that table's first non-vanishing row is a row here too,
    both name the same one."""
    if w.leaf is not None:
        return (w.leaf,)
    return (w.left.order, _tree_key(w.left), _tree_key(w.right))


def enumerate_monomial_products(order: int) -> tuple[tuple[LieWord, ...], ...]:
    """The products (D_1, ..., D_k), k >= 1, of total order exactly
    ``order`` that certification checks: 1, 2, 4, 8, 16 and 32 tuples for
    orders 1..6. Each D_i is the standard bracketing of a Lyndon word over
    f < g other than g (1, 1, 2, 3, 6 and 9 words of lengths 1..6), and the
    keys (length, Lyndon word) do not increase from D_1 to D_k; by
    Poincare-Birkhoff-Witt (see the module docstring) these span every
    product of bracket words other than g of that order, up to the
    tolerance caveat stated there.

    Tuples run lexicographically in (word order, ``_tree_key``) at each
    position, so the first is (f, ..., f); the first one that does not
    vanish names an Inconclusive certificate's detail. Each order's table
    is built once per process.
    """
    if order < 1:
        raise ValueError(f"total order must be >= 1, got {order}")
    return _products_of_order(order)


@lru_cache(maxsize=None)
def _products_of_order(order: int) -> tuple[tuple[LieWord, ...], ...]:
    lyndon = _lyndon_words(order)
    basis = {_standard_bracketing(w, lyndon): (len(w), w)
             for w in sorted(lyndon) if w != "g"}

    def products(left, cap):
        # the non-increasing products of total order `left` whose keys are
        # at most cap
        if left == 0:
            yield ()
        for w, key in basis.items():
            if key[0] <= left and key <= cap:
                yield from ((w,) + rest for rest in products(left - key[0], key))

    return tuple(sorted(products(order, (order + 1, "")),
                        key=lambda words: [(w.order, _tree_key(w)) for w in words]))

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
    "bracket_word", "lie_words", "enumerate_monomial_products",
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


@lru_cache(maxsize=None)
def lie_words(order: int) -> tuple[LieWord, ...]:
    """All structurally distinct bracket words of the given leaf count.

    Words with two identical children anywhere ([w,w]) are identically the
    zero field and are skipped, so every returned word can be nonzero.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if order == 1:
        return (WORD_F, WORD_G)
    out = []
    for split in range(1, order):
        for a in lie_words(split):
            for b in lie_words(order - split):
                if a == b:
                    continue
                out.append(bracket_word(a, b))
    return tuple(out)


def enumerate_monomial_products(order: int) -> tuple[tuple[LieWord, ...], ...]:
    """Ordered tuples (D_1, ..., D_k), k >= 1, of bracket words excluding
    the bare 'g' leaf, with total order exactly ``order``: 1, 3, 13, 61, 313
    and 1,673 tuples for orders 1..6. They run lexicographically in
    (word order, index in lie_words) at each position, so the first is
    (f, ..., f). Each order's table is built once per process.

    Duplicates are removed only up to leaf-tree isomorphism; words related
    by antisymmetry or Jacobi identities are kept (redundant checks cost
    time, not correctness).
    """
    if order < 1:
        raise ValueError(f"total order must be >= 1, got {order}")
    return _products_of_order(order)


@lru_cache(maxsize=None)
def _products_of_order(order: int) -> tuple[tuple[LieWord, ...], ...]:
    out: list[tuple[LieWord, ...]] = []
    for m in range(1, order + 1):
        for w in lie_words(m):
            if w == WORD_G:
                continue
            if m == order:
                out.append((w,))
            else:
                out.extend((w,) + rest for rest in _products_of_order(order - m))
    return tuple(out)

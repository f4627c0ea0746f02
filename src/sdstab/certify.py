"""Pointwise certification of stabilizability conditions.

At a nonzero state x the checker decides, in fixed precedence order,
which sufficient condition holds for the system xdot = f(x) + u g(x)
with candidate function V:

* Transversal       -- (gV)(x) != 0; a constant input moves V directly.
* ArtsteinSontag    -- (gV)(x) = 0 and (fV)(x) < 0.
* P1..P4 with N     -- (gV)(x) = 0, all bracket-monomial derivatives of
  total order <= N vanish at x, and one signed/nonzero condition on
  f^{N+1}V or an N-fold adjoint bracket holds (P1 > P2 > P3 > P4 at the
  smallest qualifying N). The vanishing check at order i reads the table
  lie.enumerate_monomial_products(i), whose first row is f^i V: the
  2^(i-1) Poincare-Birkhoff-Witt products that span every bracket
  monomial of order i (see the lie module for the argument and its
  tolerance caveat), 15, 31 and 63 rows up to orders 4, 5 and 6.
* Inconclusive      -- none of the above up to N_max. This is a
  first-class outcome: the conditions are sufficient, not necessary.

Every witness is V differentiated along a bracket monomial, evaluated by
``monomial_value``: gV is (g), f^N V is (f, ..., f), and the adjoint
witnesses are ([...[f,g],...,g]) and ([...[g,f],...,f]). Each monomial's
scalar is built once per system from the scalar of its suffix; at a point,
every witness walks its expression tree with one shared memo, so a subtree
common to many monomials is evaluated once there. A witness that is not
finite, or whose evaluation leaves its domain, is an error: nothing is
certified from it. N_max is capped at N_MAX_LIMIT.

All zero/sign decisions use the scale-aware tolerance
|v| <= tau_zero * (1 + |x|^2).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Sequence

import numpy as np

from .lie import (
    LieWord, ScalarField, VectorField, WORD_F, WORD_G, bracket_word,
    directional_derivative, enumerate_monomial_products, lie_bracket,
)
from .symcalc import DomainError, compile_affine, compile_expr, evaluate

__all__ = [
    "Case", "Certificate", "SystemDef", "GridEntry",
    "certify_point", "certify_grid", "monomial_value",
    "DEFAULT_TAU_ZERO", "DEFAULT_N_MAX", "N_MAX_LIMIT",
]

DEFAULT_TAU_ZERO = 1e-9
DEFAULT_N_MAX = 4
# the table rows up to order N number 15, 31 and 63 for N = 4, 5, 6; the
# first point of a 3-d system where all of them vanish costs 3-5, 5-7 and
# 7-12 ms there, a later point 0.1-0.2, 0.2-0.3 and 0.3-0.5 ms (2-core host)
N_MAX_LIMIT = 6


class Case(Enum):
    TRANSVERSAL = "Transversal"
    ARTSTEIN_SONTAG = "ArtsteinSontag"
    P1 = "P1"
    P2 = "P2"
    P3 = "P3"
    P4 = "P4"
    INCONCLUSIVE = "Inconclusive"


@dataclass(eq=False)
class SystemDef:
    """A control-affine system xdot = f(x) + u g(x) with candidate V.

    V is expected to vanish at the origin and be positive away from it;
    both are spot-checked by evaluation at construction (not proven). V is
    compiled once, at construction; ``v_at(x)`` evaluates it at a state.
    """

    f: VectorField
    g: VectorField
    V: ScalarField
    # the scalar fields of bracket monomials (keyed by ("scalar", word
    # tuple)) and realized bracket words (keyed by word). The first point at
    # n_max 5 where every monomial vanishes builds 39 scalars and 20 word
    # fields in about 6 ms (2-core host); later points only evaluate.
    _fns: dict = field(init=False, default_factory=dict, repr=False)

    def __post_init__(self):
        if not (self.f.dim == self.g.dim == self.V.dim):
            raise ValueError(
                f"dimension mismatch: f={self.f.dim} g={self.g.dim} V={self.V.dim}")
        v = self._v = compile_expr(self.V.body, self.dim)
        # an ndarray unpacks several times slower than its tolist(), whose
        # Python floats are also what the kernel hands V
        self.v_at = lambda x: v(*(x.tolist() if isinstance(x, np.ndarray) else x))
        points = [np.zeros(self.dim), *self._spot_points()]
        try:
            v0, *spot_values = map(self.v_at, points)
        except (ArithmeticError, ValueError) as exc:
            raise ValueError(f"V cannot be evaluated at a sampled point: {exc}") from None
        if abs(v0) > 1e-12:
            raise ValueError(f"V(0) = {v0}, expected 0")
        for p, value in zip(points[1:], spot_values):
            if value <= 0.0:
                raise ValueError(f"V is not positive at sampled point {tuple(p.tolist())}")

    def _spot_points(self):
        n = self.dim
        pts = []
        for i in range(n):
            for s in (1.0, -1.0, 0.5, -0.5):
                p = np.zeros(n)
                p[i] = s
                pts.append(p)
        pts.append(np.ones(n) / np.sqrt(n))
        pts.append(-np.ones(n) / np.sqrt(n))
        return pts

    @property
    def dim(self) -> int:
        return self.f.dim

    @cached_property
    def kernel_fns(self):
        """(F, V) on scalar arguments, for the RK kernel: F(x1, ..., xn, u)
        returns the tuple of f_i + u g_i (see symcalc.compile_affine),
        compiled on first use, and V(x1, ..., xn) is the function behind
        v_at, compiled with the system."""
        return compile_affine(self.f.components, self.g.components), self._v

    def rhs(self, u: float):
        """x -> f(x) + u*g(x) as a list of floats, through kernel_fns' F."""
        field, u = self.kernel_fns[0], float(u)
        return lambda x: list(field(*x, u))

    def v_value(self, x) -> float:
        """V(x) at a state of this system; raises ValueError unless x has
        the system's dimension and x and V(x) are finite."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"point has shape {x.shape}, expected ({self.dim},)")
        state = x.tolist()
        try:
            v = self.v_at(state)
        except (ArithmeticError, ValueError):
            v = math.nan
        if not (math.isfinite(v) and all(map(math.isfinite, state))):
            raise ValueError(f"the state {tuple(state)} or V there is not finite")
        return v


# --- bracket monomials -----------------------------------------------------

def _word_field(sys: SystemDef, w: LieWord) -> VectorField:
    """The vector field of a bracket word, realized once per system."""
    fld = sys._fns.get(w)
    if fld is None:
        if w.leaf is not None:
            fld = sys.f if w == WORD_F else sys.g
        else:
            fld = lie_bracket(_word_field(sys, w.left), _word_field(sys, w.right))
        sys._fns[w] = fld
    return fld


def _monomial_scalar(sys: SystemDef, words: tuple[LieWord, ...]) -> ScalarField:
    """D_1 D_2 ... D_k V, built once per system as D_1 applied to the
    scalar of the suffix (D_2, ..., D_k), which every monomial ending in
    that suffix shares."""
    if not words:
        return sys.V
    key = ("scalar", words)
    scalar = sys._fns.get(key)
    if scalar is None:
        scalar = sys._fns[key] = directional_derivative(
            _word_field(sys, words[0]), _monomial_scalar(sys, words[1:]))
    return scalar


def monomial_value(sys: SystemDef, words: tuple[LieWord, ...], x,
                   memo: dict | None = None) -> float:
    """(D_1 D_2 ... D_k V)(x), applying the rightmost word first. ``memo``
    is evaluate()'s memo of node values at x, shared by the calls at x."""
    return evaluate(_monomial_scalar(sys, words).body, x, memo)


def _adjoint_words() -> tuple[tuple[LieWord, LieWord], ...]:
    words = [(WORD_F, WORD_G)]
    for _ in range(N_MAX_LIMIT):
        adg_word, adf_word = words[-1]
        words.append((bracket_word(adg_word, WORD_G), bracket_word(adf_word, WORD_F)))
    return tuple(words)


# _ADJOINT_WORDS[N]: the words of ad_g^N(f) = [...[f,g],...,g] and
# ad_f^N(g) = [...[g,f],...,f], built once instead of on every certification
_ADJOINT_WORDS = _adjoint_words()


# --- certificates ------------------------------------------------------------

@dataclass(frozen=True)
class Certificate:
    """Outcome of the pointwise check: case tag, integer N and the
    evaluated witnesses that justify the classification."""

    case: Case
    N: int
    witnesses: dict[str, float]
    tau_zero: float
    tol_at_point: float
    detail: str = ""

    def summary(self) -> str:
        return f"case={self.case.value} N={self.N}"


def _check_n_max(n_max: int) -> None:
    if not 0 <= n_max <= N_MAX_LIMIT:
        raise ValueError(f"n_max must be between 0 and {N_MAX_LIMIT}, got {n_max}")


def certify_point(
        sys: SystemDef,
        x: Sequence[float],
        n_max: int = DEFAULT_N_MAX,
        tau_zero: float = DEFAULT_TAU_ZERO) -> Certificate:
    """Classify the state x != 0. Pure function of its arguments. Raises
    ValueError when x or V(x) is not finite, n_max is outside
    [0, N_MAX_LIMIT], or a witness evaluated at x is not finite or leaves
    its domain (a division by zero, say)."""
    _check_n_max(n_max)
    x = np.asarray(x, dtype=float)
    sys.v_value(x)
    norm = float(np.linalg.norm(x))
    if norm <= tau_zero:
        raise ValueError("certification point is numerically the origin")
    tol = tau_zero * (1.0 + norm * norm)
    point = x.tolist()
    memo: dict = {}

    def value(words: tuple[LieWord, ...], name: str = "") -> float:
        try:
            v = monomial_value(sys, words, point, memo)
            if math.isfinite(v):
                return v
            problem = f"is {v}"
        except DomainError as exc:
            problem = f"leaves its domain ({exc})"
        name = name or "(" + "".join(w.label() for w in words) + "V)"
        raise ValueError(f"witness {name} {problem} at x = {tuple(point)}")

    witnesses: dict[str, float] = {}
    gv = witnesses["gV"] = value((WORD_G,), "gV")
    if abs(gv) > tol:
        return Certificate(Case.TRANSVERSAL, 0, witnesses, tau_zero, tol)

    fv = witnesses["fV"] = value((WORD_F,), "fV")
    if fv < -tol:
        return Certificate(Case.ARTSTEIN_SONTAG, 0, witnesses, tau_zero, tol)

    for N in range(1, n_max + 1):
        # vanishing conditions, incremental in N: the table spanning the
        # bracket monomials of total order exactly N, led by f^N V, which is
        # already a witness; a failure here persists for every larger N, so
        # the whole branch is then settled.
        for words in enumerate_monomial_products(N):
            v = value(words)
            if abs(v) > tol:
                name = "".join(w.label() for w in words)
                return Certificate(
                    Case.INCONCLUSIVE, 0, witnesses, tau_zero, tol,
                    detail=f"({name}V)(x) = {v} is not zero at tolerance {tol}")

        adg_word, adf_word = _ADJOINT_WORDS[N]
        name = f"f^{N + 1}V"
        fn1 = witnesses[name] = value((WORD_F,) * (N + 1), name)
        if fn1 < -tol:
            return Certificate(Case.P1, N, witnesses, tau_zero, tol)
        name = f"ad_g^{N}(f)V"
        adg = witnesses[name] = value((adg_word,), name)
        if N % 2 == 1 and abs(adg) > tol:
            return Certificate(Case.P2, N, witnesses, tau_zero, tol)
        if N % 2 == 0 and adg < -tol:
            return Certificate(Case.P3, N, witnesses, tau_zero, tol)
        if abs(fn1) <= tol:
            name = f"ad_f^{N}(g)V"
            adf = witnesses[name] = value((adf_word,), name)
            if abs(adf) > tol:
                return Certificate(Case.P4, N, witnesses, tau_zero, tol)

    return Certificate(
        Case.INCONCLUSIVE, 0, witnesses, tau_zero, tol,
        detail=f"no case matched up to N_max = {n_max}")


# --- grid scans ---------------------------------------------------------------

@dataclass(frozen=True)
class GridEntry:
    point: tuple[float, ...]
    skipped: bool
    certificate: Certificate | None


def certify_grid(
        sys: SystemDef,
        box: Sequence[tuple[float, float]],
        resolution: Sequence[int],
        n_max: int = DEFAULT_N_MAX) -> list[GridEntry]:
    """Certify every grid point of an axis-aligned box; points inside the
    DEFAULT_TAU_ZERO ball around the origin are skipped and flagged."""
    if len(box) != sys.dim or len(resolution) != sys.dim:
        raise ValueError(
            f"box/resolution must have {sys.dim} axes, "
            f"got {len(box)}/{len(resolution)}")
    if any(k < 1 for k in resolution):
        raise ValueError("empty grid: every axis resolution must be >= 1")
    _check_n_max(n_max)
    axes = [np.linspace(lo, hi, k) for (lo, hi), k in zip(box, resolution)]
    entries = []
    for coords in itertools.product(*axes):
        x = np.array(coords)
        if float(np.linalg.norm(x)) <= DEFAULT_TAU_ZERO:
            entries.append(GridEntry(tuple(float(c) for c in coords), True, None))
            continue
        cert = certify_point(sys, x, n_max=n_max)
        entries.append(GridEntry(tuple(float(c) for c in coords), False, cert))
    return entries

"""Pointwise certification of stabilizability conditions.

At a nonzero state x the checker decides, in fixed precedence order,
which sufficient condition holds for the system xdot = f(x) + u g(x)
with candidate function V:

* Transversal       -- (gV)(x) != 0; a constant input moves V directly.
* ArtsteinSontag    -- (gV)(x) = 0 and (fV)(x) < 0.
* P1..P4 with N     -- (gV)(x) = 0, the iterated drift derivatives
  f^i V and all bracket-monomial derivatives of total order <= N vanish
  at x, and one signed/nonzero condition on f^{N+1}V or an N-fold
  adjoint bracket holds (P1 > P2 > P3 > P4 at the smallest qualifying N).
* Inconclusive      -- none of the above up to N_max. This is a
  first-class outcome: the conditions are sufficient, not necessary.

All zero/sign decisions use the scale-aware tolerance
|v| <= tau_zero * (1 + |x|^2).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .lie import (
    LieWord, ScalarField, VectorField,
    directional_derivative, enumerate_monomial_products, iterated_adjoint,
)

__all__ = [
    "Case", "Certificate", "SystemDef", "GridEntry",
    "certify_point", "certify_grid", "DEFAULT_TAU_ZERO", "DEFAULT_N_MAX",
]

DEFAULT_TAU_ZERO = 1e-9
DEFAULT_N_MAX = 4


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
    both are spot-checked by evaluation at construction (not proven).
    """

    f: VectorField
    g: VectorField
    V: ScalarField
    _fns: dict = field(default_factory=dict, repr=False)
    _scalars: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not (self.f.dim == self.g.dim == self.V.dim):
            raise ValueError(
                f"dimension mismatch: f={self.f.dim} g={self.g.dim} V={self.V.dim}")
        self.f_at = self.f.compiled()
        self.g_at = self.g.compiled()
        self.v_at = self.V.compiled()
        origin = np.zeros(self.dim)
        v0 = self.v_at(origin)
        if abs(v0) > 1e-12:
            raise ValueError(f"V(0) = {v0}, expected 0")
        for p in self._spot_points():
            if self.v_at(p) <= 0.0:
                raise ValueError(f"V is not positive at sampled point {tuple(p)}")

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

    def rhs(self, u: float):
        """Compiled right-hand side x -> f(x) + u*g(x) as a list of floats,
        cached per value."""
        u = float(u)
        fn = self._fns.get(("rhs", u))
        if fn is None:
            fn = (self.f + self.g.scaled(u)).compiled()
            self._fns[("rhs", u)] = fn
        return fn

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


# --- cached derived quantities ---------------------------------------------

def _scalar_fn(sys: SystemDef, key, build):
    fn = sys._fns.get(key)
    if fn is None:
        sf = build()
        sys._scalars[key] = sf
        raw = sf.compiled()
        fn = lambda x: float(raw(x))
        sys._fns[key] = fn
    return fn


def gv_value(sys: SystemDef, x) -> float:
    fn = _scalar_fn(sys, "gV", lambda: directional_derivative(sys.g, sys.V))
    return fn(x)


def _drift_power_field(sys: SystemDef, i: int) -> ScalarField:
    key = ("fV", i)
    sf = sys._scalars.get(key)
    if sf is None:
        base = sys.V if i == 1 else _drift_power_field(sys, i - 1)
        sf = directional_derivative(sys.f, base)
        sys._scalars[key] = sf
    return sf


def drift_power_value(sys: SystemDef, i: int, x) -> float:
    """(f^i V)(x)."""
    return _scalar_fn(sys, ("fV*", i), lambda: _drift_power_field(sys, i))(x)


def adjoint_g_of_f_value(sys: SystemDef, n: int, x) -> float:
    """([[...[[f,g],g],...,g] V)(x) with n bracketings by g."""
    fn = _scalar_fn(
        sys, ("adg", n),
        lambda: directional_derivative(iterated_adjoint(sys.f, sys.g, n), sys.V))
    return fn(x)


def adjoint_f_of_g_value(sys: SystemDef, n: int, x) -> float:
    """([[...[[g,f],f],...,f] V)(x) with n bracketings by f."""
    fn = _scalar_fn(
        sys, ("adf", n),
        lambda: directional_derivative(iterated_adjoint(sys.g, sys.f, n), sys.V))
    return fn(x)


def monomial_value(sys: SystemDef, words: tuple[LieWord, ...], x) -> float:
    """(D_1 D_2 ... D_k V)(x), applying the rightmost word first."""
    def build():
        scalar = sys.V
        for w in reversed(words):
            fld = sys._scalars.get(("word", w))
            if fld is None:
                fld = w.realize(sys.f, sys.g)
                sys._scalars[("word", w)] = fld
            scalar = directional_derivative(fld, scalar)
        return scalar
    return _scalar_fn(sys, ("mono", words), build)(x)


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


def _witness_names(N: int):
    return f"ad_g^{N}(f)V", f"ad_f^{N}(g)V"


def certify_point(
        sys: SystemDef,
        x: Sequence[float],
        n_max: int = DEFAULT_N_MAX,
        tau_zero: float = DEFAULT_TAU_ZERO) -> Certificate:
    """Classify the state x != 0. Pure function of its arguments. Raises
    ValueError when x or V(x) is not finite."""
    x = np.asarray(x, dtype=float)
    sys.v_value(x)
    norm = float(np.linalg.norm(x))
    if norm <= tau_zero:
        raise ValueError("certification point is numerically the origin")
    tol = tau_zero * (1.0 + norm * norm)

    witnesses: dict[str, float] = {}
    gv = gv_value(sys, x)
    witnesses["gV"] = gv
    if abs(gv) > tol:
        return Certificate(Case.TRANSVERSAL, 0, witnesses, tau_zero, tol)

    fv = drift_power_value(sys, 1, x)
    witnesses["fV"] = fv
    if fv < -tol:
        return Certificate(Case.ARTSTEIN_SONTAG, 0, witnesses, tau_zero, tol)

    for N in range(1, n_max + 1):
        # vanishing conditions, incremental in N: f^N V and the bracket
        # monomials of total order exactly N; a failure here persists for
        # every larger N, so the whole branch is then settled.
        fnv = drift_power_value(sys, N, x)
        witnesses[f"f^{N}V" if N > 1 else "fV"] = fnv
        if abs(fnv) > tol:
            return Certificate(
                Case.INCONCLUSIVE, 0, witnesses, tau_zero, tol,
                detail=f"f^{N}V(x) = {fnv} is not zero at tolerance {tol}")
        for words in enumerate_monomial_products(N, n_max):
            if sum(w.order for w in words) != N:
                continue
            value = monomial_value(sys, words, x)
            if abs(value) > tol:
                name = "".join(w.label() for w in words)
                return Certificate(
                    Case.INCONCLUSIVE, 0, witnesses, tau_zero, tol,
                    detail=f"({name}V)(x) = {value} is not zero at tolerance {tol}")

        fn1 = drift_power_value(sys, N + 1, x)
        witnesses[f"f^{N + 1}V"] = fn1
        adg_name, adf_name = _witness_names(N)
        if fn1 < -tol:
            return Certificate(Case.P1, N, witnesses, tau_zero, tol)
        adg = adjoint_g_of_f_value(sys, N, x)
        witnesses[adg_name] = adg
        if N % 2 == 1 and abs(adg) > tol:
            return Certificate(Case.P2, N, witnesses, tau_zero, tol)
        if N % 2 == 0 and adg < -tol:
            return Certificate(Case.P3, N, witnesses, tau_zero, tol)
        if abs(fn1) <= tol:
            adf = adjoint_f_of_g_value(sys, N, x)
            witnesses[adf_name] = adf
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
        n_max: int = DEFAULT_N_MAX,
        tau_zero: float = DEFAULT_TAU_ZERO) -> list[GridEntry]:
    """Certify every grid point of an axis-aligned box; points inside the
    tau_zero ball around the origin are skipped and flagged."""
    if len(box) != sys.dim or len(resolution) != sys.dim:
        raise ValueError(
            f"box/resolution must have {sys.dim} axes, "
            f"got {len(box)}/{len(resolution)}")
    if any(k < 1 for k in resolution):
        raise ValueError("empty grid: every axis resolution must be >= 1")
    axes = [np.linspace(lo, hi, k) for (lo, hi), k in zip(box, resolution)]
    entries = []
    for coords in itertools.product(*axes):
        x = np.array(coords)
        if float(np.linalg.norm(x)) <= tau_zero:
            entries.append(GridEntry(tuple(float(c) for c in coords), True, None))
            continue
        cert = certify_point(sys, x, n_max=n_max, tau_zero=tau_zero)
        entries.append(GridEntry(tuple(float(c) for c in coords), False, cert))
    return entries

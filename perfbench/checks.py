"""Independent checks of sdstab outputs.

Nothing here uses sdstab's parser, expression trees or integrator. A system
file is read with a small reader of its own and turned into sympy
expressions; programs are re-integrated with scipy's DOP853 at tight
tolerance; certificate witnesses are recomputed symbolically with sympy.

Every check returns a list of problems (empty when the output passes), so
a caller can count and report them without stopping at the first one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np
import sympy
from scipy.integrate import solve_ivp
from sympy.parsing.sympy_parser import (
    convert_xor, parse_expr, rationalize, standard_transformations,
)

# scipy tolerances of the re-integration
RTOL = 1e-12
ATOL_REL = 1e-13
# endpoint agreement, relative to the program's start norm
END_TOL_REL = 1e-7
# allowed excess of V over 2*V(checkpoint) on the dense sub-grid; it covers
# the error of the re-integration, not the program's own slack
OVERSHOOT_MARGIN = 1e-9
# interior points of the dense sub-grid inside each scipy step
SUBGRID_POINTS = 4
# witness agreement: absolute part relative to tau_zero*(1+|x|^2), and a
# relative part for large witnesses
WITNESS_ABS = 0.1
WITNESS_REL = 1e-8

_TRANSFORMS = standard_transformations + (convert_xor, rationalize)
_KEY_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z_0-9]*)\s*=\s*(.+?)\s*$")


def _value(raw: str):
    if raw.startswith("["):
        return re.findall(r'"([^"]*)"', raw)
    if raw.startswith('"'):
        return raw[1:-1]
    return raw


def read_system_text(text: str) -> "SymSystem":
    """Read the ``name = value`` system format: dim, f, g, V and textual
    parameters substituted in parentheses."""
    entries: dict[str, object] = {}
    params: dict[str, str] = {}
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        m = _KEY_RE.match(line)
        if m is None:
            raise ValueError(f"unreadable line {line!r}")
        key, value = m.group(1), _value(m.group(2))
        if key in ("dim", "f", "g", "V"):
            entries[key] = value
        else:
            params[key] = value
    dim = int(entries["dim"])
    xs = sympy.symbols(f"x1:{dim + 1}", real=True)
    names = {f"x{i + 1}": xs[i] for i in range(dim)}
    names["ln"] = sympy.log

    def expr(text: str):
        for name in sorted(params, key=len, reverse=True):
            text = re.sub(rf"\b{re.escape(name)}\b", f"({params[name]})", text)
        return parse_expr(text, local_dict=dict(names), transformations=_TRANSFORMS)

    f = tuple(expr(t) for t in entries["f"])
    g = tuple(expr(t) for t in entries["g"])
    if len(f) != dim or len(g) != dim:
        raise ValueError("f and g must have dim components")
    return SymSystem(xs, f, g, expr(entries["V"]))


@dataclass(eq=False)
class SymSystem:
    """xdot = f(x) + u g(x) with candidate V, as sympy expressions."""

    xs: tuple
    f: tuple
    g: tuple
    V: object
    _num: dict = field(default_factory=dict, repr=False)
    _sym: dict = field(default_factory=dict, repr=False)

    def _numeric(self, key, expr):
        fn = self._num.get(key)
        if fn is None:
            fn = sympy.lambdify(self.xs, expr, "math")
            self._num[key] = fn
        return fn

    @property
    def dim(self) -> int:
        return len(self.xs)

    def v(self, x) -> float:
        return float(self._numeric("V", self.V)(*x))

    def v_many(self, states: np.ndarray) -> np.ndarray:
        """V at each column of a (dim, k) array."""
        v_num = self._numeric("V", self.V)
        return np.array([v_num(*col) for col in states.T], dtype=float)

    def rhs(self, u: float):
        f_num = self._numeric("f", list(self.f))
        g_num = self._numeric("g", list(self.g))

        def fun(_t, y):
            fy = f_num(*y)
            gy = g_num(*y)
            return [a + u * b for a, b in zip(fy, gy)]
        return fun

    # --- symbolic calculus, sdstab's conventions ------------------------------

    def lie_derivative(self, X, h):
        """(Dh)X = sum_i X_i dh/dx_i."""
        return sympy.expand(sum(X[i] * sympy.diff(h, self.xs[i]) for i in range(self.dim)))

    def bracket(self, X, Y):
        """[X,Y] = (DY)X - (DX)Y."""
        n = self.dim
        return tuple(
            sympy.expand(sum(X[i] * sympy.diff(Y[k], self.xs[i])
                             - Y[i] * sympy.diff(X[k], self.xs[i]) for i in range(n)))
            for k in range(n))

    def _cached(self, key, build):
        value = self._sym.get(key)
        if value is None:
            value = build()
            self._sym[key] = value
        return value

    def drift_power(self, i: int):
        """f^i V."""
        return self._cached(("fV", i), lambda: self.lie_derivative(
            self.f, self.V if i == 1 else self.drift_power(i - 1)))

    def adjoint(self, first: str, n: int):
        """ad_g^n(f) for first == 'f', ad_f^n(g) for first == 'g'."""
        def build():
            Y, X = (self.f, self.g) if first == "f" else (self.g, self.f)
            out = self.bracket(Y, X)
            for _ in range(n - 1):
                out = self.bracket(out, X)
            return out
        return self._cached(("ad", first, n), build)

    def word_field(self, word):
        if word == "f":
            return self.f
        if word == "g":
            return self.g
        return self._cached(("word", word), lambda: self.bracket(
            self.word_field(word[0]), self.word_field(word[1])))

    def witness_expr(self, name: str):
        """The scalar expression behind one of sdstab's witness names."""
        if name == "gV":
            return self._cached("gV", lambda: self.lie_derivative(self.g, self.V))
        if name == "fV":
            return self.drift_power(1)
        m = re.fullmatch(r"f\^(\d+)V", name)
        if m:
            return self.drift_power(int(m.group(1)))
        m = re.fullmatch(r"ad_([fg])\^(\d+)\(([fg])\)V", name)
        if m and m.group(1) != m.group(3):
            first, n = m.group(3), int(m.group(2))
            return self._cached(("adV", first, n), lambda: self.lie_derivative(
                self.adjoint(first, n), self.V))
        products = parse_monomial_label(name[:-1]) if name.endswith("V") else None
        if products is not None:
            def build():
                scalar = self.V
                for word in reversed(products):
                    scalar = self.lie_derivative(self.word_field(word), scalar)
                return scalar
            return self._cached(("mono", products), build)
        raise ValueError(f"unknown witness name {name!r}")

    def witness(self, name: str, x) -> float:
        key = ("witness", name)
        fn = self._num.get(key) or self._numeric(key, self.witness_expr(name))
        return float(fn(*x))


def parse_monomial_label(text: str):
    """Parse a product of bracket words such as ``[f,g]f`` into a tuple of
    nested pairs; None if the text is not such a product."""
    pos = 0

    def word():
        nonlocal pos
        if pos < len(text) and text[pos] in "fg":
            pos += 1
            return text[pos - 1]
        if pos < len(text) and text[pos] == "[":
            pos += 1
            left = word()
            if left is None or pos >= len(text) or text[pos] != ",":
                return None
            pos += 1
            right = word()
            if right is None or pos >= len(text) or text[pos] != "]":
                return None
            pos += 1
            return (left, right)
        return None

    out = []
    while pos < len(text):
        w = word()
        if w is None:
            return None
        out.append(w)
    return tuple(out) or None


# --- programs -------------------------------------------------------------------

def check_program(sym: SymSystem, x0, segments, claimed_end, *, label: str = "",
                  max_duration: float | None = None) -> list[str]:
    """Re-integrate a piecewise-constant program from x0 and check the
    endpoint, the strict V drop at the end and V <= 2 V(x0) on a dense
    sub-grid inside every integrator step."""
    problems = []
    x0 = np.asarray(x0, dtype=float)
    y = x0.copy()
    scale = max(float(np.linalg.norm(x0)), 1e-300)
    v0 = sym.v(x0)
    bound = 2.0 * v0 * (1.0 + OVERSHOOT_MARGIN)
    v_peak = v0
    total = 0.0
    for value, duration in segments:
        if not duration > 0:
            problems.append(f"{label}: segment duration {duration} is not positive")
            return problems
        total += duration
        sol = solve_ivp(sym.rhs(float(value)), (0.0, float(duration)), y,
                        method="DOP853", rtol=RTOL, atol=ATOL_REL * scale,
                        dense_output=True)
        if not sol.success:
            problems.append(f"{label}: re-integration failed: {sol.message}")
            return problems
        ts = sol.t
        frac = np.arange(1, SUBGRID_POINTS + 1) / (SUBGRID_POINTS + 1)
        sub = (ts[:-1, None] + np.diff(ts)[:, None] * frac[None, :]).ravel()
        grid_v = sym.v_many(np.hstack([sol.sol(sub), sol.y]))
        v_peak = max(v_peak, float(np.max(grid_v)))
        y = sol.y[:, -1]
    if max_duration is not None and total > max_duration * (1 + 1e-12):
        problems.append(f"{label}: duration {total} exceeds the cap {max_duration}")
    if v_peak > bound:
        problems.append(
            f"{label}: V reaches {v_peak!r} > 2*V(start)*(1+{OVERSHOOT_MARGIN}) "
            f"= {bound!r}")
    v_end = sym.v(y)
    if not v_end < v0:
        problems.append(f"{label}: V does not drop ({v0!r} -> {v_end!r})")
    if claimed_end is not None:
        gap = float(np.max(np.abs(y - np.asarray(claimed_end, dtype=float))))
        if gap > END_TOL_REL * scale:
            problems.append(
                f"{label}: endpoint differs from the re-integration by {gap:.3e} "
                f"(allowed {END_TOL_REL * scale:.3e})")
    return problems


def check_loop(sym: SymSystem, traj, report, *, radius: float,
               horizon: float) -> tuple[list[str], float | None]:
    """Check a closed-loop run: every executed program re-integrated from the
    executed state at its checkpoint, V strictly dropping across checkpoints
    and |x| reaching ``radius`` by ``horizon``. Returns the problems and the
    first sample time with |x| <= radius."""
    problems = []
    if report.failure is not None:
        problems.append(f"run failed: {report.failure}")
    programs = [step.program for iv in report.intervals for step in iv.steps]
    if any(iv.clamped for iv in report.intervals):
        problems.append("a clamped interval has no checkpoint to check against")
        return problems, None
    cps = traj.checkpoints
    if len(cps) != len(programs) + 1:
        problems.append(f"{len(cps)} checkpoints for {len(programs)} programs")
        return problems, None
    t_cursor = 0.0
    for k, program in enumerate(programs):
        (t0, x_start, _), (t1, x_end, _) = cps[k], cps[k + 1]
        problems += check_program(sym, x_start, program.segments, x_end,
                                  label=f"program {k} at t={t0:.6g}")
        t_cursor += program.duration
        if abs(t1 - t_cursor) > 1e-9 * max(1.0, t1):
            problems.append(f"program {k}: checkpoint time {t1} != {t_cursor}")
    vs = [sym.v(x) for _, x, _ in cps]
    for k, (a, b) in enumerate(zip(vs, vs[1:])):
        if not b < a:
            problems.append(f"V does not drop at checkpoint {k + 1}: {a!r} -> {b!r}")
    norms = np.linalg.norm(np.asarray(traj.states, dtype=float), axis=1)
    reached = np.asarray(traj.times)[norms <= radius]
    settle = float(reached[0]) if len(reached) else None
    if settle is None or settle > horizon:
        problems.append(f"|x| does not reach {radius} by t = {horizon}")
    return problems, settle


# --- certificates -----------------------------------------------------------------

def check_certificate(sym: SymSystem, x, cert, *, n_max: int, label: str = "") -> list[str]:
    """Recompute every witness of a certificate and check that the returned
    case's defining inequalities hold at the recomputed values."""
    problems = []
    x = [float(v) for v in x]
    tau = cert.tau_zero
    tol = tau * (1.0 + sum(v * v for v in x))
    value = {}
    for name, claimed in cert.witnesses.items():
        mine = sym.witness(name, x)
        value[name] = mine
        allowed = WITNESS_ABS * tol + WITNESS_REL * abs(mine)
        if not abs(mine - claimed) <= allowed:
            problems.append(f"{label}: witness {name} = {claimed!r}, recomputed {mine!r}")

    def w(name):
        if name not in value:
            value[name] = sym.witness(name, x)
        return value[name]

    def fpow(i):
        return w("fV" if i == 1 else f"f^{i}V")

    def zero(v):
        return abs(v) <= tol

    case, N = cert.case.value, cert.N
    gv = w("gV")

    def fail(reason):
        problems.append(f"{label}: {case} N={N} but {reason}")

    if case == "Transversal":
        if zero(gv):
            fail(f"|gV| = {abs(gv):.3e} <= {tol:.3e}")
        return problems
    if not zero(gv):
        fail(f"|gV| = {abs(gv):.3e} > {tol:.3e}")
    fv = fpow(1)
    if case == "ArtsteinSontag":
        if not fv < -tol:
            fail(f"fV = {fv:.3e} is not < -{tol:.3e}")
        return problems
    if fv < -tol:
        fail(f"fV = {fv:.3e} < -tol, so ArtsteinSontag applies")

    def p_case(n):
        """The case the inequalities select at order n, given vanishing."""
        fn1 = fpow(n + 1)
        if fn1 < -tol:
            return "P1"
        adg = w(f"ad_g^{n}(f)V")
        if n % 2 == 1 and not zero(adg):
            return "P2"
        if n % 2 == 0 and adg < -tol:
            return "P3"
        if zero(fn1) and not zero(w(f"ad_f^{n}(g)V")):
            return "P4"
        return None

    if case in ("P1", "P2", "P3", "P4"):
        for i in range(1, N + 1):
            if not zero(fpow(i)):
                fail(f"f^{i}V = {fpow(i):.3e} does not vanish")
        for n in range(1, N):
            if p_case(n) is not None:
                fail(f"{p_case(n)} already holds at N = {n}")
        if p_case(N) != case:
            fail(f"the inequalities at N = {N} select {p_case(N)}")
        return problems
    if case != "Inconclusive":
        fail("unknown case")
        return problems
    detail = cert.detail
    m = re.fullmatch(r"f\^(\d+)V\(x\) = \S+ is not zero at tolerance \S+", detail)
    if m:
        if zero(fpow(int(m.group(1)))):
            fail(f"f^{m.group(1)}V vanishes")
        return problems
    m = re.fullmatch(r"\((.+)V\)\(x\) = \S+ is not zero at tolerance \S+", detail)
    if m:
        if zero(w(m.group(1) + "V")):
            fail(f"({m.group(1)}V)(x) vanishes")
        return problems
    if detail == f"no case matched up to N_max = {n_max}":
        for n in range(1, n_max + 1):
            if p_case(n) is not None:
                fail(f"{p_case(n)} holds at N = {n}")
        return problems
    fail(f"unrecognized detail {detail!r}")
    return problems


import sys

import numpy as np
import pytest
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from sdstab import Partition, SystemDef, run_closed_loop
from sdstab.lie import ScalarField, VectorField, WORD_F, WORD_G, bracket_word
from sdstab.symcalc import Const, Var, Mul

SYSTEMS_DIR = Path(__file__).resolve().parent.parent / "systems"
PERFBENCH_DIR = SYSTEMS_DIR.parent / "perfbench"

# the first deep-linear system of the certify-deep benchmark workload at seed
# 0: f and g rotate at constant rates that leave V constant, so every Lie
# derivative of V vanishes and certification goes through every bracket
# monomial up to n_max
DEEP_LINEAR_TEXT = """\
dim = 3
w1 = "0.5"
w2 = "1.25"
w3 = "1.75"
pa = "-0.3"
qb = "-0.7"
f = ["pa*w2*x2", "-pa*w1*x1", "0"]
g = ["qb*w3*x3", "0", "-qb*w1*x1"]
V = "0.5*(w1*x1^2+w2*x2^2+w3*x3^2)"
"""


@pytest.fixture(scope="session")
def systems_dir():
    return SYSTEMS_DIR


@pytest.fixture(scope="session")
def dblint():
    """Double integrator: f = (x2, 0), g = (0, 1), V = |x|^2/2."""
    return SystemDef(
        VectorField.from_strings(["x2", "0"], 2),
        VectorField.from_strings(["0", "1"], 2),
        ScalarField.from_string("0.5*(x1^2+x2^2)", 2),
    )


@pytest.fixture(scope="session")
def planar_cubic():
    """f = (-x1*x2^2, 0), g = (0, 1): certifies P3 with N = 2 on the x1 axis."""
    return SystemDef(
        VectorField.from_strings(["-x1*x2^2", "0"], 2),
        VectorField.from_strings(["0", "1"], 2),
        ScalarField.from_string("0.5*(x1^2+x2^2)", 2),
    )


@pytest.fixture(scope="session")
def rotation3():
    """Planar rotation with x3-modulated rates (alpha = 1+x3, beta = 1)."""
    return SystemDef(
        VectorField.from_strings(["x2*(1+x3)", "-x1", "0"], 3),
        VectorField.from_strings(["0", "0", "1"], 3),
        ScalarField.from_string("0.5*(x1^2+x2^2+x3^2)", 3),
    )


@pytest.fixture(scope="session")
def dblint_run(dblint):
    """The acceptance closed loop on dblint: from (1, 0) under uniform:0.5 to
    horizon 50, stopping at |x| = 1e-3."""
    return run_closed_loop(dblint, [1.0, 0.0], Partition.uniform(0.5), 50.0)


@pytest.fixture(scope="session")
def rotation_run(rotation3):
    """The acceptance closed loop on rotation3: from (1, 0, 0) under
    uniform:0.5 to horizon 100."""
    return run_closed_loop(rotation3, [1.0, 0.0, 0.0], Partition.uniform(0.5), 100.0)


@pytest.fixture(scope="session")
def drift_decay():
    """f = (x2, -x1^3), g = (0, 1): certifies P1 with N = 1 on the x1 axis
    for 0 < |x1| < 1 (f^2 V = -x1^4 (1 - x1^2) there)."""
    return SystemDef(
        VectorField.from_strings(["x2", "-x1^3"], 2),
        VectorField.from_strings(["0", "1"], 2),
        ScalarField.from_string("0.5*(x1^2+x2^2)", 2),
    )


@pytest.fixture(scope="session")
def inert_system():
    """f identically zero: every axis point with gV = 0 is inconclusive."""
    return SystemDef(
        VectorField.from_strings(["0", "0"], 2),
        VectorField.from_strings(["0", "1"], 2),
        ScalarField.from_string("0.5*(x1^2+x2^2)", 2),
    )


@pytest.fixture(scope="session")
def peak_inside_step():
    """f = (x2, 0), g = (0, 1), V = x1^2 + x2^2/100. Under u = -1 from (0, 1),
    x2 = 1 - t and x1 = t - t^2/2, so V peaks at 1/4 at t = 1. Dormand-Prince
    is exact on this flow, so one step spans a segment of 2 s and no accepted
    step ends near the peak: V at the step ends alone reads 0.01."""
    return SystemDef(
        VectorField.from_strings(["x2", "0"], 2),
        VectorField.from_strings(["0", "1"], 2),
        ScalarField.from_string("x1^2+x2^2/100", 2),
    )


# --- finite-difference oracles (independent of the symbolic path) -------------

FD_H = 1e-5


def fd_gradient(fn, x, h=FD_H):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for i in range(len(x)):
        step = np.zeros_like(x)
        step[i] = h
        out[i] = (fn(x + step) - fn(x - step)) / (2 * h)
    return out


def fd_jacobian(field_fn, x, h=FD_H):
    x = np.asarray(x, dtype=float)
    n = len(x)
    jac = np.zeros((n, n))
    for j in range(n):
        step = np.zeros(n)
        step[j] = h
        jac[:, j] = np.subtract(field_fn(x + step), field_fn(x - step)) / (2 * h)
    return jac


def fd_bracket(X: VectorField, Y: VectorField, x, h=FD_H):
    """[X,Y](x) = J_Y(x) X(x) - J_X(x) Y(x) with central-difference Jacobians."""
    xf = X.compiled()
    yf = Y.compiled()
    return fd_jacobian(yf, x, h) @ xf(x) - fd_jacobian(xf, x, h) @ yf(x)


# --- random polynomial material (fixed seeds, deterministic) -------------------

def random_poly_expr(rng, dim, n_terms=3, max_degree=3):
    terms = None
    for _ in range(rng.integers(1, n_terms + 1)):
        coeff = Const(Fraction(int(rng.integers(-8, 9)), 4))
        term = coeff
        degree = int(rng.integers(0, max_degree + 1))
        for _ in range(degree):
            term = Mul(term, Var(int(rng.integers(1, dim + 1))))
        terms = term if terms is None else terms + term
    return terms


def random_poly_field(rng, dim, **kw):
    comps = tuple(random_poly_expr(rng, dim, **kw) for _ in range(dim))
    return VectorField(comps, dim)


def random_point(rng, dim, scale=1.0):
    return rng.uniform(-scale, scale, size=dim)


def workload_system_text(rng, family):
    """A 3-d system text of the ``certify-deep`` benchmark workload:
    ``certify_system_text`` of perfbench/workloads.py, for the family
    "deep-linear" or "shallow"."""
    if str(PERFBENCH_DIR) not in sys.path:
        sys.path.insert(0, str(PERFBENCH_DIR))
    import workloads
    return workloads.certify_system_text(rng, family)


# --- every bracket tree (reference for certification's PBW table) ---------------

@lru_cache(maxsize=None)
def bracket_trees(order):
    """Every bracket word of the given leaf count with no [w, w] anywhere
    (such a word is identically zero), lexicographic in (left order, left,
    right) with f before g."""
    if order == 1:
        return (WORD_F, WORD_G)
    return tuple(bracket_word(a, b) for split in range(1, order)
                 for a in bracket_trees(split) for b in bracket_trees(order - split)
                 if a != b)


@lru_cache(maxsize=None)
def all_trees_table(order):
    """Every product of bracket trees other than g of total order exactly
    ``order``, lexicographic in (word order, index in bracket_trees) at each
    position: 1, 3, 13, 61, 313 and 1,673 tuples for orders 1..6, the table
    certification checked before it kept only the PBW products."""
    if order == 0:
        return ((),)
    return tuple((w,) + rest for m in range(1, order + 1)
                 for w in bracket_trees(m) if w != WORD_G
                 for rest in all_trees_table(order - m))

"""The workloads: inputs drawn from a seed, one round of operations,
and the independent check of a round's outputs.

Every workload runs the same operations in every round of a run, and the
operations of one seed cost the same as those of any other seed: the seed
picks among exact symmetries of the loop and among directions and
coefficients of the same structure elsewhere. That keeps the spread between
seeds down to the host's own noise.
"""

from __future__ import annotations

import hashlib
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

XI = 0.5
STEP_RADII = (1.0, 0.1, 0.01, 0.001)
# planar_cubic's P3 step fails below this radius (see CHANGES.md), so the
# atlas stops there
P3_MIN_RADIUS = 0.01
# a P4 step away from radius 1 costs about a second whatever the radius, so
# one such point stands for all of them and the rounds stay short
P4_RADII = (1.0, 0.001)
CERTIFY_N_MAX = 5
CERTIFY_RES = 3
SHALLOW_SYSTEMS = 38


@dataclass
class Round:
    """One round's outputs and timings. ``latencies_ms`` are the operations'
    latencies; ``op_walls_ms`` split the round's wall time among its
    operations, which for a loop interval adds the execution after its
    planning."""

    latencies_ms: list[float]
    op_walls_ms: list[float]
    output: object
    failed: int = 0


@dataclass
class Prepared:
    """A workload's inputs for one seed, ready to run."""

    run_round: Callable[[Callable[[], None]], Round]
    check: Callable[[object], tuple[list[str], dict]]
    digest: Callable[[object], str]
    extra: dict = field(default_factory=dict)


def _digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
    return h.hexdigest()


# --- closed loops ----------------------------------------------------------------

@dataclass(frozen=True)
class LoopSpec:
    system: str
    start: tuple[float, ...]
    mirror: tuple[float, ...]
    sample_step: float
    horizon: float
    radius: float
    stop_radius: float


# x -> -x maps dblint onto itself with u -> -u. The run stops at |x| = 0.01
# rather than at the default 1e-3: chains still double up to 32 programs,
# and a round takes seconds instead of tens of seconds, so a run holds
# enough rounds to filter the host's noise.
DBLINT_LOOP = LoopSpec("dblint", (1.0, 0.0), (-1.0, -1.0), 0.5, 50.0, 0.05, 0.01)


def loop_start(spec: LoopSpec, seed: int) -> tuple[float, ...]:
    """Seed 0 is the acceptance start; other seeds pick it or its mirror
    image, which costs exactly the same work."""
    if seed != 0 and random.Random(seed).random() < 0.5:
        return tuple(s * m + 0.0 for s, m in zip(spec.start, spec.mirror))
    return spec.start


def prepare_loop(sd, root: Path, seed: int, spec: LoopSpec = DBLINT_LOOP) -> Prepared:
    path = root / "systems" / f"{spec.system}.sys"
    sd.load_system(path)
    x0 = loop_start(spec, seed)
    partition = sd.Partition.uniform(spec.sample_step)
    text = path.read_text(encoding="utf-8")

    def run_round(op_started) -> Round:
        latencies: list[float] = []
        starts = [time.perf_counter()]
        simloop = sd.simloop
        plan = simloop.plan_interval

        def timed_plan(*args, **kwargs):
            op_started()
            t0 = time.perf_counter()
            if latencies:
                starts.append(t0)
            try:
                return plan(*args, **kwargs)
            finally:
                latencies.append((time.perf_counter() - t0) * 1e3)
        simloop.plan_interval = timed_plan
        try:
            # a fresh system per round, as `sdstab simulate` loads one per run,
            # so that no round reuses the symbolic caches of another
            sysd = sd.load_system(path)
            traj, report = sd.run_closed_loop(sysd, x0, partition, spec.horizon,
                                              stop_radius=spec.stop_radius)
        finally:
            simloop.plan_interval = plan
        starts.append(time.perf_counter())
        walls = [(b - a) * 1e3 for a, b in zip(starts, starts[1:])]
        failed = 1 if report.failure is not None else 0
        return Round(latencies, walls, (traj, report), failed)

    def check(output):
        import checks
        traj, report = output
        sym = checks.read_system_text(text)
        problems, settle = checks.check_loop(
            sym, traj, report, radius=spec.radius, horizon=spec.horizon)
        programs = [len(iv.steps) for iv in report.intervals]
        facts = {"settle_time": settle, "programs": sum(programs),
                 "programs_per_interval_max": max(programs, default=0),
                 "intervals": len(report.intervals)}
        return problems, facts

    def digest(output):
        traj, report = output
        return _digest([tuple(s.program.segments for s in iv.steps)
                        for iv in report.intervals]
                       + [(t, tuple(float(v) for v in x)) for t, x, _ in traj.checkpoints])

    return Prepared(run_round, check, digest,
                    {"start": list(x0), "system": spec.system})


# --- one-step atlas ------------------------------------------------------------------

def _unit_2d_off_axis(rng: random.Random, min_sin: float) -> tuple[float, float]:
    """A unit vector whose second component is at least ``min_sin`` in size."""
    phi = rng.uniform(math.asin(min_sin), math.pi - math.asin(min_sin))
    sign = rng.choice((1.0, -1.0))
    return math.cos(phi), sign * math.sin(phi)


def _unit_3d_off_plane(rng: random.Random, min_abs_x3: float) -> tuple[float, float, float]:
    """A unit vector with |x3| >= min_abs_x3."""
    z = rng.uniform(min_abs_x3, 1.0) * rng.choice((1.0, -1.0))
    phi = rng.uniform(0.0, 2.0 * math.pi)
    rho = math.sqrt(1.0 - z * z)
    return rho * math.cos(phi), rho * math.sin(phi), z


# sign changes that map each bundled system onto itself (with u -> +-u):
# a point and its image cost exactly the same work
SYMMETRIES = {
    "dblint": ((1.0, 1.0), (-1.0, -1.0)),
    "planar_cubic": ((1.0, 1.0), (-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0)),
    "rotation3": ((1.0, 1.0, 1.0), (-1.0, -1.0, 1.0)),
}


def _atlas_base() -> list[tuple[str, tuple[float, ...]]]:
    """41 (system, point) pairs, drawn once from a fixed stream. At each
    radius: two Transversal points per bundled system, at least 30 degrees
    away from the gV = 0 set; P2 points on dblint's x2 = 0 axis and on
    rotation3's x3 = 0 plane away from its axes; a P3 point on
    planar_cubic's x2 = 0 axis; and at P4_RADII a P4 point on rotation3's
    x1 axis."""
    rng = random.Random(0)
    out = []
    for r in STEP_RADII:
        for system in ("dblint", "planar_cubic"):
            for _ in range(2):
                a, b = _unit_2d_off_axis(rng, 0.5)
                out.append((system, (r * a, r * b)))
        for _ in range(2):
            out.append(("rotation3", tuple(r * c for c in _unit_3d_off_plane(rng, 0.5))))
        out.append(("dblint", (r, 0.0)))
        for _ in range(2):
            theta = rng.uniform(math.radians(20), math.radians(70)) + rng.randrange(4) * math.pi / 2
            out.append(("rotation3", (r * math.cos(theta), r * math.sin(theta), 0.0)))
        if r >= P3_MIN_RADIUS:
            out.append(("planar_cubic", (r, 0.0)))
        if r in P4_RADII:
            out.append(("rotation3", (r, 0.0, 0.0)))
    return out


def step_atlas_points(seed: int) -> list[tuple[str, tuple[float, ...]]]:
    """The base points for seed 0; for other seeds each point's image under
    a symmetry of its system drawn from the seed. The directions themselves
    stay fixed because the cost of a step depends on them."""
    base = _atlas_base()
    if seed == 0:
        return base
    rng = random.Random(seed)
    return [(name, tuple(s * c + 0.0 for s, c in zip(rng.choice(SYMMETRIES[name]), x)))
            for name, x in base]


def prepare_step_atlas(sd, root: Path, seed: int) -> Prepared:
    points = step_atlas_points(seed)
    paths = {name: root / "systems" / f"{name}.sys" for name, _ in points}
    for path in set(paths.values()):
        sd.load_system(path)
    texts = {name: path.read_text(encoding="utf-8") for name, path in paths.items()}

    def run_round(op_started) -> Round:
        latencies, results, failed = [], [], 0
        for name, x in points:
            op_started()
            t0 = time.perf_counter()
            try:
                sysd = sd.load_system(paths[name])
                result = sd.synthesize_step(sysd, x, XI)
            except (sd.SynthesisFailed, sd.CertificateInconclusive, sd.IntegrationError) as exc:
                result = exc
                failed += 1
            latencies.append((time.perf_counter() - t0) * 1e3)
            results.append(result)
        return Round(latencies, latencies, results, failed)

    def check(results):
        import checks
        syms = {name: checks.read_system_text(text) for name, text in texts.items()}
        problems, cases = [], {}
        for (name, x), result in zip(points, results):
            if isinstance(result, Exception):
                continue
            label = f"{name} at {x}"
            cert = result.certificate
            cases[cert.case.value] = cases.get(cert.case.value, 0) + 1
            problems += checks.check_certificate(syms[name], x, cert, n_max=4, label=label)
            problems += checks.check_program(
                syms[name], x, result.program.segments, result.end_state,
                label=label, max_duration=XI)
        return problems, {"cases": cases}

    def digest(results):
        return _digest(
            repr(r) if isinstance(r, Exception)
            else (r.program.segments, r.end_state, r.certificate.case.value)
            for r in results)

    return Prepared(run_round, check, digest)


# --- deep certification ----------------------------------------------------------------

def _coef(rng: random.Random) -> str:
    """A signed coefficient ``+0.k`` or ``-0.k``, never 0 or 1, so every
    seed builds expression trees of the same shape."""
    return f"{rng.choice('+-')}0.{rng.randint(2, 9)}"


def _sign(rng: random.Random) -> str:
    return rng.choice("+-")


# V's weights in the round's deep systems. They stay fixed for every seed;
# the seed draws only the signs of the rates, which change the work by 1%.
DEEP_WEIGHTS = (("0.5", "1.25", "1.75"), ("1.5", "0.75", "1.25"))


def certify_system_text(rng: random.Random, family: str,
                        weights: tuple[str, str, str] = DEEP_WEIGHTS[0]) -> str:
    """A 3-d system whose V is a weighted sum of squares.

    ``deep-linear`` rotates x1 into x2 (f) and x1 into x3 (g) at constant
    rates that leave V constant, with V's weights given, so every Lie
    derivative of V vanishes and each point runs through every bracket
    monomial up to n_max. ``shallow`` draws V's weights, adds d x1^2 along
    x3 to a V-preserving drift and drives x3, so gV = 0 exactly on the
    x3 = 0 plane, where the certificates are bracket cases.
    """
    if family == "deep-linear":
        w = weights
    else:
        w = tuple(str(rng.choice((0.5, 0.75, 1.25, 1.5, 1.75))) for _ in range(3))
    lines = ["dim = 3"] + [f'w{i} = "{v}"' for i, v in enumerate(w, start=1)]
    if family == "deep-linear":
        lines += [f'pa = "{_sign(rng)}0.3"', f'qb = "{_sign(rng)}0.7"']
        f = ["pa*w2*x2", "-pa*w1*x1", "0"]
        g = ["qb*w3*x3", "0", "-qb*w1*x1"]
    else:
        lines += [f'pa = "{_coef(rng)}{_coef(rng)}*x3"', f'pb = "{_coef(rng)}{_coef(rng)}*x2"',
                  f'pc = "{_coef(rng)}{_coef(rng)}*x1"']
        f = ["pa*w2*x2+pb*w3*x3", "-pa*w1*x1+pc*w3*x3",
             f"-pb*w1*x1-pc*w2*x2{_coef(rng)}*x1^2"]
        g = ["0", "0", f"1{_coef(rng)}*x1"]
    lines += ["f = [" + ", ".join(f'"{c}"' for c in f) + "]",
              "g = [" + ", ".join(f'"{c}"' for c in g) + "]",
              'V = "0.5*(w1*x1^2+w2*x2^2+w3*x3^2)"']
    return "\n".join(lines) + "\n"


def certify_inputs(seed: int) -> list[tuple[str, float]]:
    """(system text, box half-width) for each system of a round."""
    rng = random.Random(seed)
    texts = [certify_system_text(rng, "deep-linear", w) for w in DEEP_WEIGHTS]
    texts += [certify_system_text(rng, "shallow") for _ in range(SHALLOW_SYSTEMS)]
    return [(text, rng.choice((0.5, 0.75, 1.0, 1.25))) for text in texts]


def prepare_certify_deep(sd, root: Path, seed: int) -> Prepared:
    inputs = certify_inputs(seed)

    def run_round(op_started) -> Round:
        latencies, results = [], []
        for text, half in inputs:
            op_started()
            t0 = time.perf_counter()
            sysd = sd.cli.parse_system_file(text).build()
            entries = sd.certify_grid(sysd, [(-half, half)] * 3, [CERTIFY_RES] * 3,
                                      n_max=CERTIFY_N_MAX)
            latencies.append((time.perf_counter() - t0) * 1e3)
            results.append(entries)
        return Round(latencies, latencies, results)

    def check(results):
        import checks
        import numpy as np
        problems, cases = [], {}
        for (text, half), entries in zip(inputs, results):
            sym = checks.read_system_text(text)
            axis = np.linspace(-half, half, CERTIFY_RES)
            grid = [(a, b, c) for a in axis for b in axis for c in axis]
            if len(entries) != len(grid):
                problems.append(f"{len(entries)} grid entries, expected {len(grid)}")
                continue
            for point, entry in zip(grid, entries):
                label = f"point {point}"
                if max(abs(p - q) for p, q in zip(point, entry.point)) > 1e-15:
                    problems.append(f"{label}: entry is at {entry.point}")
                    continue
                if entry.skipped:
                    if math.hypot(*point) > 1e-9:
                        problems.append(f"{label}: skipped away from the origin")
                    continue
                cert = entry.certificate
                key = f"{cert.case.value}/N={cert.N}"
                cases[key] = cases.get(key, 0) + 1
                problems += checks.check_certificate(
                    sym, point, cert, n_max=CERTIFY_N_MAX, label=label)
        return problems, {"cases": cases}

    def digest(results):
        return _digest(
            (e.point, e.skipped, None if e.certificate is None else
             (e.certificate.case.value, e.certificate.N, tuple(e.certificate.witnesses.items())))
            for entries in results for e in entries)

    return Prepared(run_round, check, digest)


WORKLOADS = ("loop-dblint", "step-atlas", "certify-deep")


def prepare(sd, root: Path, name: str, seed: int) -> Prepared:
    if name == "loop-dblint":
        return prepare_loop(sd, root, seed)
    if name == "step-atlas":
        return prepare_step_atlas(sd, root, seed)
    if name == "certify-deep":
        return prepare_certify_deep(sd, root, seed)
    raise ValueError(f"unknown workload {name!r}")

"""Command-line front-end: load system files, run certification, synthesis,
simulation and diagnostics, write CSV and plot scripts.

System file format (UTF-8 text, '#' starts a comment line)::

    dim = 3
    f = ["x2*(1+x3)", "-x1", "0"]
    g = ["0", "0", "1"]
    V = "0.5*(x1^2+x2^2+x3^2)"

Any other ``name = value`` line defines a named parameter that is
substituted textually (wrapped in parentheses) into the f/g/V strings
before parsing.

Points, boxes, resolutions, partitions, times and the float options
(``--horizon``, ``--xi``, ``--tol``, ``--rho``, ``--u1``) are converted
while the arguments are parsed, so a malformed or non-finite value is
reported before the system is loaded; ``--nmax`` must lie in [0, 6].
Each subcommand offers only the options it reads: ``--nmax`` belongs to
certify, certify-grid, step and simulate, ``--tol`` to step and simulate.
Run it as ``sdstab`` or ``python -m sdstab``.

Exit codes: 0 on success, 2 when certification is inconclusive or
synthesis fails, 1 on any error.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys as _sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .certify import (
    Case, DEFAULT_N_MAX, GridEntry, SystemDef, certify_grid, certify_point,
)
from .lie import ScalarField, VectorField
from .simloop import (
    IntegrationError, LoopReport, Partition, Trajectory, run_closed_loop,
    verify_facts,
)
from .symcalc import _FUNCS, ExprError
from .synth import (
    CertificateInconclusive, SynthesisFailed, cbh_residual,
    m_derivative_estimates, synthesize_step,
)

__all__ = ["SystemFile", "load_system", "run", "main",
           "write_trajectory_csv", "read_trajectory_csv", "write_certificate_csv"]


class CliError(Exception):
    pass


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# --- system files ----------------------------------------------------------------

_KEY_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z_0-9]*)\s*=\s*(.+?)\s*$")
_RESERVED = set(_FUNCS.values())


@dataclass(frozen=True)
class SystemFile:
    """Parsed contents of a system definition file."""

    dim: int
    f_strings: tuple[str, ...]
    g_strings: tuple[str, ...]
    v_string: str
    params: dict[str, str]

    def build(self) -> SystemDef:
        f_texts = [self._substitute(s) for s in self.f_strings]
        g_texts = [self._substitute(s) for s in self.g_strings]
        v_text = self._substitute(self.v_string)
        if len(f_texts) != self.dim or len(g_texts) != self.dim:
            raise CliError(
                f"dimension mismatch: dim = {self.dim} but f has {len(f_texts)} "
                f"and g has {len(g_texts)} components")
        f = VectorField.from_strings(f_texts, self.dim)
        g = VectorField.from_strings(g_texts, self.dim)
        v = ScalarField.from_string(v_text, self.dim)
        return SystemDef(f, g, v)

    def _substitute(self, text: str) -> str:
        for name in sorted(self.params, key=len, reverse=True):
            text = re.sub(rf"\b{re.escape(name)}\b", f"({self.params[name]})", text)
        return text


def _parse_value(raw: str, path: str, lineno: int):
    raw = raw.strip()
    if raw.startswith("["):
        if not raw.endswith("]"):
            raise CliError(f"{path}:{lineno}: unterminated list")
        items = re.findall(r'"([^"]*)"', raw)
        leftover = re.sub(r'"[^"]*"', "", raw[1:-1]).replace(",", "").strip()
        if not items or leftover:
            raise CliError(
                f"{path}:{lineno}: list entries must be double-quoted strings")
        return tuple(items)
    if raw.startswith('"'):
        if not raw.endswith('"') or len(raw) < 2:
            raise CliError(f"{path}:{lineno}: unterminated string")
        return raw[1:-1]
    try:
        float(raw)
    except ValueError:
        raise CliError(f"{path}:{lineno}: cannot parse value {raw!r}") from None
    return raw


def parse_system_file(text: str, path: str = "<string>") -> SystemFile:
    entries = {}
    params = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        m = _KEY_RE.match(line)
        if m is None:
            raise CliError(f"{path}:{lineno}: expected 'name = value'")
        key, raw = m.group(1), m.group(2)
        value = _parse_value(raw, path, lineno)
        if key in ("dim", "f", "g", "V"):
            entries[key] = (value, lineno)
        else:
            if key in _RESERVED or re.fullmatch(r"x\d+", key):
                raise CliError(f"{path}:{lineno}: parameter name {key!r} is reserved")
            if not isinstance(value, str):
                raise CliError(f"{path}:{lineno}: parameter {key!r} must be scalar")
            params[key] = value
    for required in ("dim", "f", "g", "V"):
        if required not in entries:
            raise CliError(f"{path}: missing required key {required!r}")
    dim_raw = entries["dim"][0]
    try:
        dim = int(dim_raw)
    except (TypeError, ValueError):
        raise CliError(f"{path}: dim must be an integer, got {dim_raw!r}") from None
    f_val = entries["f"][0]
    g_val = entries["g"][0]
    v_val = entries["V"][0]
    if not isinstance(f_val, tuple) or not isinstance(g_val, tuple):
        raise CliError(f"{path}: f and g must be bracketed lists of strings")
    if not isinstance(v_val, str):
        raise CliError(f"{path}: V must be a quoted string")
    return SystemFile(dim, f_val, g_val, v_val, params)


def load_system(path: str | Path) -> SystemDef:
    """Load and build a SystemDef from a system file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    system_file = parse_system_file(text, str(path))
    try:
        return system_file.build()
    except (CliError, ExprError, ValueError) as exc:
        raise CliError(f"{path}: {exc}") from exc
    except OverflowError as exc:
        raise CliError(f"{path}: a constant is beyond float range ({exc})") from exc


# --- CSV and plot output ------------------------------------------------------------

def write_trajectory_csv(path: Path, traj: Trajectory, dim: int) -> None:
    cp_times = {t for t, _, _ in traj.checkpoints}
    events = sorted(traj.events)
    lines = ["t," + ",".join(f"x{i}" for i in range(1, dim + 1))
             + ",V,segment_index,is_checkpoint"]
    seg = 0
    for t, state, v in zip(traj.times, traj.states, traj.v_values):
        while seg < len(events) and t > events[seg]:
            seg += 1
        cols = [_fmt(t)] + [_fmt(c) for c in state] + [
            _fmt(v), str(seg), "1" if t in cp_times else "0"]
        lines.append(",".join(cols))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_trajectory_csv(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read back (times, states, V) from a trajectory CSV."""
    rows = path.read_text(encoding="utf-8").strip().splitlines()
    header = rows[0].split(",")
    dim = sum(1 for h in header if re.fullmatch(r"x\d+", h))
    times, states, vs = [], [], []
    for row in rows[1:]:
        cols = row.split(",")
        times.append(float(cols[0]))
        states.append([float(c) for c in cols[1:1 + dim]])
        vs.append(float(cols[1 + dim]))
    return np.array(times), np.array(states), np.array(vs)


def write_certificate_csv(path: Path, entries: Sequence[GridEntry], dim: int) -> None:
    """Long format: one row per witness, point and case columns repeated."""
    lines = [",".join(f"x{i}" for i in range(1, dim + 1))
             + ",case,N,gV,fV,witness_name,witness_value"]
    for entry in entries:
        coords = [_fmt(c) for c in entry.point]
        cert = entry.certificate
        if cert is None:
            lines.append(",".join(coords + ["skipped", "0", "", "", "", ""]))
            continue
        gv = cert.witnesses.get("gV")
        fv = cert.witnesses.get("fV")
        base = coords + [cert.case.value, str(cert.N),
                         "" if gv is None else _fmt(gv),
                         "" if fv is None else _fmt(fv)]
        for name, value in cert.witnesses.items():
            lines.append(",".join(base + [name, _fmt(value)]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_plot_script(path: Path, csv_name: str, dim: int) -> None:
    cols = "".join(f"     '' using 1:{i + 1} with lines title 'x{i}', \\\n"
                   for i in range(1, dim + 1))
    script = (
        "# gnuplot script: state components and V along the trajectory\n"
        "set datafile separator ','\n"
        "set key outside\n"
        "set xlabel 't'\n"
        f"plot '{csv_name}' using 1:{dim + 2} with lines title 'V', \\\n"
        f"{cols}"
        f"     '{csv_name}' using (column(1)):($0 >= 0 && column({dim + 4}) > 0 "
        f"? column({dim + 2}) : 1/0) with points pt 7 title 'checkpoints'\n"
    )
    path.write_text(script, encoding="utf-8")


def _report_to_json(report: LoopReport) -> dict:
    return {
        "final_state": [float(v) for v in report.final_state],
        "final_norm": report.final_norm,
        "checkpoint_vs": [[t, v] for t, v in report.checkpoint_vs],
        "overshoot_ratio": report.overshoot_ratio,
        "threshold_times": {_fmt(mu): t for mu, t in report.threshold_times.items()},
        "stopped_early": report.stopped_early,
        "stop_time": report.stop_time,
        "failure": report.failure,
        "intervals": [
            {
                "t_start": rec.t_start,
                "t_end": rec.t_end,
                "measured_state": list(rec.measured_state),
                "clamped": rec.clamped,
                "steps": [
                    {
                        "case": s.certificate.case.value, "N": s.certificate.N,
                        "rho": s.rho, "u1": s.u1,
                        "drop": s.v_drop, "sup_ratio": s.sup_v_ratio,
                        "segments": [[v, d] for v, d in s.program.segments],
                    }
                    for s in rec.steps
                ],
            }
            for rec in report.intervals
        ],
    }


# --- argument handling ----------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # an argument that starts like a negative number ("-0.3,0.954",
        # "-1:1,-1:1") is a value, not only one that is a negative number
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        raise CliError(message)


def _parse_box(text: str) -> list[tuple[float, float]]:
    out = []
    for axis in text.split(","):
        lo, _, hi = axis.partition(":")
        try:
            bounds = (float(lo), float(hi))
        except ValueError:
            raise CliError(f"cannot parse box axis {axis!r}") from None
        if not all(map(math.isfinite, bounds)):
            raise CliError(f"box axis {axis!r} has a non-finite bound")
        out.append(bounds)
    return out


def _parse_resolution(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise CliError(f"cannot parse resolution {text!r}") from None


def _finite_float(what: str):
    """Converter of a float option that must be finite."""
    def convert(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise CliError(f"cannot parse {what} {text!r}") from None
        if not math.isfinite(value):
            raise CliError(f"{what} {text!r} is not finite")
        return value
    return convert


def _finite_floats(what: str, item: str):
    """Converter of a comma-separated list of finite floats, each an
    ``item`` of the ``what``."""
    def convert(text: str) -> tuple[float, ...]:
        try:
            values = tuple(float(v) for v in text.split(","))
        except ValueError:
            raise CliError(f"cannot parse {what} {text!r}") from None
        if not all(map(math.isfinite, values)):
            raise CliError(f"{what} {text!r} has a non-finite {item}")
        return values
    return convert


_parse_point = _finite_floats("point", "coordinate")
_parse_times = _finite_floats("--t", "time")


def _parse_partition(text: str) -> Partition:
    kind, _, rest = text.partition(":")
    if kind == "uniform":
        try:
            return Partition.uniform(float(rest))
        except ValueError as exc:
            raise CliError(f"bad uniform partition {text!r}: {exc}") from None
    if kind == "explicit":
        body, _, tail = rest.partition("+")
        try:
            times = [float(v) for v in body.split(",")]
            tail_step = float(tail) if tail else None
            return Partition.explicit(times, tail_step)
        except ValueError as exc:
            raise CliError(f"bad explicit partition {text!r}: {exc}") from None
    raise CliError(f"unknown partition kind {kind!r} (use uniform:STEP or "
                   "explicit:t1,t2,...[+STEP])")


def run(args: argparse.Namespace) -> int:
    """Dispatch one parsed invocation; returns the process exit code."""
    sys_def = load_system(args.system)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    if args.command == "certify":
        cert = certify_point(sys_def, args.at, n_max=args.nmax)
        print(cert.summary())
        for name, value in cert.witnesses.items():
            print(f"  {name} = {_fmt(value)}")
        if cert.detail:
            print(f"  {cert.detail}")
        write_certificate_csv(out / "certificates.csv",
                              [GridEntry(tuple(args.at), False, cert)], sys_def.dim)
        return 2 if cert.case is Case.INCONCLUSIVE else 0

    if args.command == "certify-grid":
        entries = certify_grid(sys_def, args.box, args.res, n_max=args.nmax)
        write_certificate_csv(out / "certificates.csv", entries, sys_def.dim)
        counts: dict[str, int] = {}
        for e in entries:
            key = "skipped" if e.skipped else e.certificate.case.value
            counts[key] = counts.get(key, 0) + 1
        print(" ".join(f"{k}={v}" for k, v in sorted(counts.items())))
        any_inconclusive = any(
            not e.skipped and e.certificate.case is Case.INCONCLUSIVE for e in entries)
        return 2 if any_inconclusive else 0

    if args.command == "step":
        result = synthesize_step(sys_def, args.at, args.xi, n_max=args.nmax, tol=args.tol)
        print(f"{result.certificate.summary()} rho={_fmt(result.rho)} "
              f"u1={_fmt(result.u1)} drop={_fmt(result.v_drop)} "
              f"sup_ratio={_fmt(result.sup_v_ratio)}")
        lines = ["segment,value,duration"]
        for i, (v, d) in enumerate(result.program.segments):
            lines.append(f"{i},{_fmt(v)},{_fmt(d)}")
        (out / "step_program.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        return 0

    if args.command == "simulate":
        traj, report = run_closed_loop(
            sys_def, args.x0, args.partition, args.horizon,
            xi_cap=args.xi, tol=args.tol, n_max=args.nmax)
        write_trajectory_csv(out / "trajectory.csv", traj, sys_def.dim)
        (out / "report.json").write_text(
            json.dumps(_report_to_json(report), indent=2) + "\n", encoding="utf-8")
        write_plot_script(out / "plot_trajectory.gp", "trajectory.csv", sys_def.dim)
        checks = verify_facts(traj, report)
        print(f"final |x| = {_fmt(report.final_norm)} at t = {_fmt(traj.times[-1])}; "
              f"overshoot ratio = {_fmt(report.overshoot_ratio)}")
        for check in checks:
            print(f"  {check.name}: {'pass' if check.passed else 'FAIL'} ({check.detail})")
        if report.failure:
            print(f"  synthesis failure: {report.failure}")
            return 2
        return 0

    if args.command == "diagnose-m":
        md = m_derivative_estimates(sys_def, args.at, args.rho, args.u1, args.order)
        lines = ["order,estimate,noise_bound,ill_conditioned"]
        for n, (v, noise, ill) in enumerate(
                zip(md.values, md.noise, md.ill_conditioned), start=1):
            print(f"m^({n})(0) = {_fmt(v)} +- {_fmt(noise)}"
                  + (" [ill-conditioned]" if ill else ""))
            lines.append(f"{n},{_fmt(v)},{_fmt(noise)},{int(ill)}")
        (out / "m_derivatives.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        return 0

    if args.command == "cbh-check":
        lines = ["t,k,residual"]
        residuals = []
        for t in args.t:
            r = cbh_residual(sys_def, args.at, args.rho, args.u1, args.k, t)
            residuals.append(r)
            print(f"t = {_fmt(t)}: residual = {_fmt(r)}")
            lines.append(f"{_fmt(t)},{args.k},{_fmt(r)}")
        # the slope needs logarithms: fit it over positive times and residuals
        pairs = [(t, r) for t, r in zip(args.t, residuals) if t > 0 and r > 0]
        if len(pairs) >= 2:
            ts, rs = zip(*pairs)
            print(f"log-log slope = {_fmt(np.polyfit(np.log(ts), np.log(rs), 1)[0])}")
        (out / "cbh_residuals.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        return 0

    raise CliError(f"unknown command {args.command!r}")


def _make_parser() -> _Parser:
    parser = _Parser(prog="sdstab", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, nmax=True, tol=False):
        p.add_argument("--system", required=True, help="system definition file")
        if nmax:
            p.add_argument("--nmax", type=int, default=DEFAULT_N_MAX)
        if tol:
            p.add_argument("--tol", type=_finite_float("tolerance"), default=1e-10)
        p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("certify", help="classify a single state")
    common(p)
    p.add_argument("--at", required=True, type=_parse_point,
                   help="state as comma-separated floats")

    p = sub.add_parser("certify-grid", help="classify every point of a grid")
    common(p)
    p.add_argument("--box", required=True, type=_parse_box, help="lo1:hi1,lo2:hi2,...")
    p.add_argument("--res", required=True, type=_parse_resolution,
                   help="points per axis, k1,k2,...")

    p = sub.add_parser("step", help="synthesize one verified program")
    common(p, tol=True)
    p.add_argument("--at", required=True, type=_parse_point)
    p.add_argument("--xi", type=_finite_float("duration"), default=0.5,
                   help="max step duration")

    p = sub.add_parser("simulate", help="run the sampled-data closed loop")
    common(p, tol=True)
    p.add_argument("--x0", required=True, type=_parse_point)
    p.add_argument("--partition", required=True, type=_parse_partition,
                   help="uniform:STEP or explicit:t1,t2,...[+STEP]")
    p.add_argument("--horizon", type=_finite_float("horizon"), default=50.0)
    p.add_argument("--xi", type=_finite_float("duration"), default=1.0)

    p = sub.add_parser("diagnose-m", help="derivative estimates of m at 0")
    common(p, nmax=False)
    p.add_argument("--at", required=True, type=_parse_point)
    p.add_argument("--rho", type=_finite_float("rho"), default=1.0)
    p.add_argument("--u1", type=_finite_float("u1"), default=1.0)
    p.add_argument("--order", type=int, default=2)

    p = sub.add_parser("cbh-check", help="truncated bracket-series residual")
    common(p, nmax=False)
    p.add_argument("--at", required=True, type=_parse_point)
    p.add_argument("--rho", type=_finite_float("rho"), default=1.0)
    p.add_argument("--u1", type=_finite_float("u1"), default=1.0)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--t", type=_parse_times, default=(1e-2,),
                   help="comma-separated times")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _make_parser()
    try:
        return run(parser.parse_args(argv))
    except CliError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1
    except (CertificateInconclusive, SynthesisFailed) as exc:
        print(f"not achieved: {exc}", file=_sys.stderr)
        return 2
    except (ExprError, IntegrationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1
    except RecursionError:
        # every recursion of the package walks an expression tree
        print("error: an expression is nested too deeply", file=_sys.stderr)
        return 1

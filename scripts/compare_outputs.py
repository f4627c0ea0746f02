#!/usr/bin/env python3
"""Byte-compare the working tree's outputs with those of a base commit.

    python3 scripts/compare_outputs.py --base HEAD~1

Checks REF out into a temporary git worktree and runs, with each tree's own
sources and system files:

- the four acceptance simulations (dblint with --horizon 50 and rotation3
  with --horizon 100, each under uniform:0.5 and
  explicit:0,0.1,0.7,0.8,2.0+0.5), comparing trajectory.csv and
  report.json;
- `sdstab step` at one point of each synthesis case: dblint 0.6,0.8
  (Transversal), dblint 1,0 (P2), planar_cubic 0.01,0 (P3) and
  rotation3 1,0,0 (P4), comparing step_program.csv;
- `sdstab certify-grid` on rotation3 over [-1, 1]^3 at 11^3 points, and
  with --nmax 6 at 3^3 points on a deep-linear system whose every bracket
  monomial vanishes, so that each point reads every table up to order 6
  (expected exit code 2: every point is inconclusive), comparing
  certificates.csv; the deep-linear system file is written once, outside
  both trees, and both runs read it;
- `sdstab diagnose-m` on rotation3 at 1,0,0 with --order 4, comparing
  m_derivatives.csv, and `sdstab cbh-check` on rotation3 at 1,1,0 with
  --k 3 --t 0,0.01,0.1, comparing cbh_residuals.csv;
- two runs that fail with exit code 2, whose messages carry the best V drop
  found: `sdstab step` on planar_cubic at 0.001,0, and the dblint
  simulation from 0.6,0.8 under uniform:0.5 to horizon 50, comparing
  trajectory.csv and report.json;

and the stdout and stderr of each. Every run has an expected exit code, 0
unless stated; a run that exits with another code counts as failed. The
base and working-tree runs of one command run side by side, one process
each. Prints one line per command and exits 1 if any output differs or any
run fails. A differing output is named with its first difference; for a
CSV file or report.json the line also gives the largest absolute and
relative difference between numbers at the same place in both files, and
where each occurs. A difference is taken relative to the largest magnitude
of its field (a CSV column, or a report.json key with its list indices
dropped) in either file, so that a state component passing through zero
is measured against the scale of that component.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PARTITIONS = ("uniform:0.5", "explicit:0,0.1,0.7,0.8,2.0+0.5")
SYSTEMS = (("dblint", "1,0", "50"), ("rotation3", "1,0,0", "100"))
STEPS = (("dblint", "0.6,0.8"), ("dblint", "1,0"), ("planar_cubic", "0.01,0"),
         ("rotation3", "1,0,0"))
# the first deep-linear system of the certify-deep benchmark workload at
# seed 0: f and g rotate at constant rates that leave V constant, so every
# Lie derivative of V vanishes
DEEP_LINEAR = """\
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
# (label, sdstab arguments, output files compared besides stdout and stderr,
# expected exit code); DEEP_LINEAR_SYS stands for the path of DEEP_LINEAR's file
RUNS = (
    tuple((f"{name} {partition} --horizon {horizon}",
           ("simulate", "--system", f"systems/{name}.sys", "--x0", x0,
            "--partition", partition, "--horizon", horizon),
           ("trajectory.csv", "report.json"), 0)
          for name, x0, horizon in SYSTEMS for partition in PARTITIONS)
    + tuple((f"step {name} --at {point}",
             ("step", "--system", f"systems/{name}.sys", "--at", point),
             ("step_program.csv",), 0)
            for name, point in STEPS)
    + (("certify-grid rotation3 11^3",
        ("certify-grid", "--system", "systems/rotation3.sys",
         "--box=-1:1,-1:1,-1:1", "--res", "11,11,11"),
        ("certificates.csv",), 0),
       ("certify-grid deep-linear 3^3 --nmax 6",
        ("certify-grid", "--system", "DEEP_LINEAR_SYS", "--box=-1:1,-1:1,-1:1",
         "--res", "3,3,3", "--nmax", "6"),
        ("certificates.csv",), 2),
       ("diagnose-m rotation3 --at 1,0,0 --order 4",
        ("diagnose-m", "--system", "systems/rotation3.sys", "--at", "1,0,0",
         "--order", "4"),
        ("m_derivatives.csv",), 0),
       ("cbh-check rotation3 --at 1,1,0 --k 3",
        ("cbh-check", "--system", "systems/rotation3.sys", "--at", "1,1,0",
         "--k", "3", "--t", "0,0.01,0.1"),
        ("cbh_residuals.csv",), 0),
       ("step planar_cubic --at 0.001,0 (fails)",
        ("step", "--system", "systems/planar_cubic.sys", "--at", "0.001,0"),
        (), 2),
       ("dblint uniform:0.5 --x0 0.6,0.8 --horizon 50 (fails)",
        ("simulate", "--system", "systems/dblint.sys", "--x0", "0.6,0.8",
         "--partition", "uniform:0.5", "--horizon", "50"),
        ("trajectory.csv", "report.json"), 2)))


def _start(tree: Path, out: Path, args: tuple[str, ...]):
    # relative paths from the tree's root, so that no output names the tree
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    return subprocess.Popen(
        [sys.executable, "-m", "sdstab", *args, "--out", str(out)],
        cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def _outputs(proc, out: Path, compared: tuple[str, ...], code: int) -> dict[str, bytes]:
    stdout, stderr = proc.communicate()
    if proc.returncode != code:
        raise RuntimeError(f"exit {proc.returncode}, expected {code}: "
                           f"{stderr.decode(errors='replace')}")
    files = {f: (out / f).read_bytes() for f in compared}
    files["stdout"] = stdout
    files["stderr"] = stderr
    return files


def _first_difference(a: bytes, b: bytes) -> str:
    lines_a, lines_b = a.splitlines(), b.splitlines()
    for i, (x, y) in enumerate(zip(lines_a, lines_b), 1):
        if x != y:
            col = next((j for j, (p, q) in enumerate(zip(x, y)) if p != q),
                       min(len(x), len(y)))
            lo = max(0, col - 20)
            return f"line {i}, column {col + 1}: {x[lo:col + 40]!r} vs {y[lo:col + 40]!r}"
    return f"{len(lines_a)} vs {len(lines_b)} lines"


def _csv_rows(data: bytes) -> list[dict[str, str]]:
    """The rows of a CSV file, each keyed by column name."""
    header, *rows = data.decode().splitlines()
    names = header.split(",")
    return [dict(zip(names, row.split(","))) for row in rows]


def _number_pairs(a, b, where: str = ""):
    """(place, x, y) for every pair of finite numbers at the same place in
    two parsed outputs: under the same key, at the same list index, or two
    strings that both read as numbers."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in a.keys() & b.keys():
            yield from _number_pairs(a[key], b[key], f"{where} {key}".strip())
    elif isinstance(a, list) and isinstance(b, list):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from _number_pairs(x, y, f"{where}[{i}]")
    else:
        try:
            x, y = float(a), float(b)
        except (TypeError, ValueError):
            return
        if not isinstance(a, bool) and math.isfinite(x) and math.isfinite(y):
            yield where, x, y


def _largest_difference(name: str, a: bytes, b: bytes) -> str | None:
    """The largest absolute and relative difference between the numbers of
    two versions of a CSV file or report.json, with where each occurs; None
    for other outputs. A place in a CSV file reads [i] column, the data
    rows counted from 0 (file line i + 2); the relative difference of x and
    y is |x - y| over the largest magnitude of their field in either file
    (see the module docstring)."""
    if name.endswith(".csv"):
        pairs = list(_number_pairs(_csv_rows(a), _csv_rows(b)))
    elif name == "report.json":
        pairs = list(_number_pairs(json.loads(a), json.loads(b)))
    else:
        return None
    fields = [re.sub(r"\[\d+\]", "", where) for where, _, _ in pairs]
    scale: dict[str, float] = {}
    for field, (_, x, y) in zip(fields, pairs):
        scale[field] = max(scale.get(field, 0.0), abs(x), abs(y))
    largest = {"absolute": (0.0, ""), "relative": (0.0, "")}
    for field, (where, x, y) in zip(fields, pairs):
        if x == y:
            continue
        d = abs(x - y)
        for kind, value in (("absolute", d), ("relative", d / scale[field])):
            if value > largest[kind][0]:
                largest[kind] = (value, where)
    return "; largest difference " + ", ".join(
        f"{value:.3g} {kind} ({where})" for kind, (value, where) in largest.items())


def compare(base: Path, scratch: Path) -> bool:
    same = True
    deep_linear = scratch / "deep-linear.sys"
    deep_linear.write_text(DEEP_LINEAR, encoding="utf-8")
    for index, (label, args, compared, code) in enumerate(RUNS):
        args = tuple(str(deep_linear) if a == "DEEP_LINEAR_SYS" else a for a in args)
        outs = {side: scratch / side / f"run{index}" for side in ("base", "work")}
        procs = {"base": _start(base, outs["base"], args),
                 "work": _start(ROOT, outs["work"], args)}
        try:
            results = {side: _outputs(proc, outs[side], compared, code)
                       for side, proc in procs.items()}
        except RuntimeError as exc:
            for proc in procs.values():
                proc.kill()
                proc.wait()
            print(f"{label}: FAILED ({exc})")
            same = False
            continue
        differing = [f for f in results["base"] if results["base"][f] != results["work"][f]]
        if differing:
            same = False
            for f in differing:
                a, b = results["base"][f], results["work"][f]
                print(f"{label}: {f} DIFFERS at {_first_difference(a, b)}"
                      f"{_largest_difference(f, a, b) or ''}")
        else:
            sizes = ", ".join(f"{f} {len(v)} B" for f, v in results["work"].items())
            print(f"{label}: identical ({sizes})")
    return same


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="git revision to compare against")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        scratch = Path(tmp)
        base = scratch / "base-tree"
        subprocess.run(["git", "worktree", "add", "--detach", "--quiet", str(base), args.base],
                       cwd=ROOT, check=True)
        try:
            same = compare(base, scratch)
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(base)],
                           cwd=ROOT, check=True)
    print("all outputs identical" if same else "outputs differ")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())

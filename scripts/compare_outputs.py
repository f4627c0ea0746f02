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
- `sdstab certify-grid` on rotation3 over [-1, 1]^3 at 11^3 points,
  comparing certificates.csv;

and the stdout of each. The base and working-tree runs of one command run
side by side, one process each. Prints one line per command and exits 1 if
any output differs or any run fails.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PARTITIONS = ("uniform:0.5", "explicit:0,0.1,0.7,0.8,2.0+0.5")
SYSTEMS = (("dblint", "1,0", "50"), ("rotation3", "1,0,0", "100"))
STEPS = (("dblint", "0.6,0.8"), ("dblint", "1,0"), ("planar_cubic", "0.01,0"),
         ("rotation3", "1,0,0"))
# (label, sdstab arguments, output files compared besides stdout)
RUNS = (
    tuple((f"{name} {partition} --horizon {horizon}",
           ("simulate", "--system", f"systems/{name}.sys", "--x0", x0,
            "--partition", partition, "--horizon", horizon),
           ("trajectory.csv", "report.json"))
          for name, x0, horizon in SYSTEMS for partition in PARTITIONS)
    + tuple((f"step {name} --at {point}",
             ("step", "--system", f"systems/{name}.sys", "--at", point),
             ("step_program.csv",))
            for name, point in STEPS)
    + (("certify-grid rotation3 11^3",
        ("certify-grid", "--system", "systems/rotation3.sys",
         "--box=-1:1,-1:1,-1:1", "--res", "11,11,11"),
        ("certificates.csv",)),))


def _start(tree: Path, out: Path, args: tuple[str, ...]):
    # relative paths from the tree's root, so that no output names the tree
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    return subprocess.Popen(
        [sys.executable, "-m", "sdstab", *args, "--out", str(out)],
        cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def _outputs(proc, out: Path, compared: tuple[str, ...]) -> dict[str, bytes]:
    stdout, stderr = proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {stderr.decode(errors='replace')}")
    files = {f: (out / f).read_bytes() for f in compared}
    files["stdout"] = stdout
    return files


def _first_difference(a: bytes, b: bytes) -> str:
    lines_a, lines_b = a.splitlines(), b.splitlines()
    for i, (x, y) in enumerate(zip(lines_a, lines_b), 1):
        if x != y:
            return f"line {i}: {x[:60]!r} vs {y[:60]!r}"
    return f"{len(lines_a)} vs {len(lines_b)} lines"


def compare(base: Path, scratch: Path) -> bool:
    same = True
    for index, (label, args, compared) in enumerate(RUNS):
        outs = {side: scratch / side / f"run{index}" for side in ("base", "work")}
        procs = {"base": _start(base, outs["base"], args),
                 "work": _start(ROOT, outs["work"], args)}
        try:
            results = {side: _outputs(proc, outs[side], compared)
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
                print(f"{label}: {f} DIFFERS at "
                      f"{_first_difference(results['base'][f], results['work'][f])}")
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

#!/usr/bin/env python3
"""Check that the working tree reproduces a base commit's acceptance runs
byte for byte.

    python3 scripts/compare_outputs.py --base HEAD~1

Checks REF out into a temporary git worktree, runs the four acceptance
simulations (dblint with --horizon 50 and rotation3 with --horizon 100,
each under uniform:0.5 and explicit:0,0.1,0.7,0.8,2.0+0.5) with each
tree's own sources and system files, and compares their trajectory.csv,
report.json and stdout. The base and working-tree runs of one simulation
run side by side, one process each. Prints one line per simulation and
exits 1 if any output differs or any run fails.
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
RUNS = tuple((name, x0, horizon, partition)
             for name, x0, horizon in SYSTEMS for partition in PARTITIONS)
COMPARED = ("trajectory.csv", "report.json")


def _start(tree: Path, out: Path, name: str, x0: str, horizon: str, partition: str):
    # relative paths from the tree's root, so that no output names the tree
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    return subprocess.Popen(
        [sys.executable, "-m", "sdstab", "simulate", "--system", f"systems/{name}.sys",
         "--x0", x0, "--partition", partition, "--horizon", horizon, "--out", str(out)],
        cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def _outputs(proc, out: Path) -> dict[str, bytes]:
    stdout, stderr = proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {stderr.decode(errors='replace')}")
    files = {f: (out / f).read_bytes() for f in COMPARED}
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
    for name, x0, horizon, partition in RUNS:
        label = f"{name} {partition} --horizon {horizon}"
        outs = {side: scratch / side / f"{name}-{partition.split(':')[0]}"
                for side in ("base", "work")}
        procs = {"base": _start(base, outs["base"], name, x0, horizon, partition),
                 "work": _start(ROOT, outs["work"], name, x0, horizon, partition)}
        try:
            results = {side: _outputs(proc, outs[side]) for side, proc in procs.items()}
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

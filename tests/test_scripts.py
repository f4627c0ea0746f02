"""The example scripts run end to end on the bundled systems."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sdstab

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(Path(sdstab.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          env=env, capture_output=True, text=True, timeout=300)


def test_closed_loop_demo_quick(tmp_path):
    done = _run_script("closed_loop_demo.py", "--quick", "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    for name in ("dblint", "rotation3"):
        assert f"{name}: |x0| = " in done.stdout
        report = json.loads((tmp_path / f"{name}_report.json").read_text())
        assert report["failure"] is None
        assert report["intervals"][0]["steps"][0]["case"]
        assert (tmp_path / f"{name}_trajectory.csv").is_file()
    facts = [line.split() for line in done.stdout.splitlines() if line.startswith("    ")]
    assert sorted(name for name, _ in facts) == sorted(
        ["checkpoint_decrease:", "overshoot_bound:", "attractivity:"] * 2)
    assert all(verdict == "pass" for _, verdict in facts), done.stdout


def test_certification_atlas(tmp_path):
    done = _run_script("certification_atlas.py", "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [line.split()[0] for line in lines] == ["dblint", "planar_cubic", "rotation3"]
    for line, points in zip(lines, (81, 81, 125)):
        assert f"({points} points): " in line
    for name in ("dblint", "planar_cubic", "rotation3"):
        assert (tmp_path / f"{name}_certificates.csv").is_file()


def test_compare_outputs_reports_the_largest_differences():
    sys.path.insert(0, str(SCRIPTS))
    try:
        import compare_outputs
    finally:
        sys.path.remove(str(SCRIPTS))
    base = b"t,x1,V\n0,1.0,0.5\n1,-1e-17,2e-10\n"
    work = b"t,x1,V\n0,1.0000000001,0.5\n1,3e-17,2.2e-10\n"
    # x1 moves by 1e-10 at row 0; at row 1 it passes through zero, which
    # counts against the column's scale of 1.0000000001, not against 3e-17
    assert compare_outputs._largest_difference("trajectory.csv", base, work) == (
        "; largest difference 1e-10 absolute ([0] x1), 1e-10 relative ([0] x1)")
    report = {"final_norm": 2.0, "steps": [{"drop": 1.0, "case": "P2"}, {"drop": 4.0}]}
    moved = {"final_norm": 2.0, "steps": [{"drop": 1.5, "case": "P2"}, {"drop": 4.0}]}
    assert compare_outputs._largest_difference(
        "report.json", json.dumps(report).encode(), json.dumps(moved).encode()) == (
        "; largest difference 0.5 absolute (steps[0] drop), 0.125 relative (steps[0] drop)")
    assert compare_outputs._largest_difference("stdout", b"a", b"b") is None

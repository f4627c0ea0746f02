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

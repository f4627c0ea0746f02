"""The benchmark's independent checkers accept sdstab's real outputs and
reject tampered ones.

    PYTHONPATH=src python -m pytest perfbench/test_checkers.py
"""

import dataclasses
import random
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import checks  # noqa: E402
import workloads  # noqa: E402
from sdstab import (  # noqa: E402
    Partition, certify_point, load_system, run_closed_loop, synthesize_step,
)
from sdstab.cli import parse_system_file  # noqa: E402


def _system(name):
    path = ROOT / "systems" / f"{name}.sys"
    return load_system(path), checks.read_system_text(path.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def dblint_step():
    sysd, sym = _system("dblint")
    x0 = (1.0, 0.0)
    return sym, x0, synthesize_step(sysd, x0, 0.5)


def test_program_check_accepts_a_synthesized_step(dblint_step):
    sym, x0, step = dblint_step
    assert checks.check_program(sym, x0, step.program.segments, step.end_state,
                                max_duration=0.5) == []


@pytest.mark.parametrize("tamper", ["flip_inputs", "stretch", "end_state", "overlong"])
def test_program_check_rejects_a_tampered_step(dblint_step, tamper):
    sym, x0, step = dblint_step
    segments = step.program.segments
    end = step.end_state
    cap = 0.5
    if tamper == "flip_inputs":
        segments = tuple((-u, d) for u, d in segments)
    elif tamper == "stretch":
        segments = tuple((u, 8.0 * d) for u, d in segments)
    elif tamper == "end_state":
        end = (end[0] + 1e-5, end[1])
    else:
        cap = 0.5 * step.program.duration
    assert checks.check_program(sym, x0, segments, end, max_duration=cap) != []


def test_program_check_rejects_a_step_that_raises_v():
    _, sym = _system("dblint")
    # u = +1 from (0, 1) pushes x2 and V up
    x0 = (0.0, 1.0)
    problems = checks.check_program(sym, x0, ((1.0, 0.1),), None)
    assert any("does not drop" in p for p in problems)


def test_program_check_rejects_an_overshoot():
    _, sym = _system("dblint")
    # a long push along g grows V past twice its start before braking back
    problems = checks.check_program(sym, (0.0, 0.5), ((4.0, 0.5), (-4.0, 0.6)), None)
    assert any("2*V(start)" in p for p in problems)


CERT_POINTS = [
    ("dblint", (1.0, 0.0), "P2"),
    ("dblint", (0.6, 0.8), "Transversal"),
    ("planar_cubic", (1.0, 0.0), "P3"),
    ("rotation3", (1.0, 0.0, 0.0), "P4"),
    ("rotation3", (1.0, 1.0, 0.0), "P2"),
]


@pytest.mark.parametrize("name,x,case", CERT_POINTS)
def test_certificate_check_accepts_real_certificates(name, x, case):
    sysd, sym = _system(name)
    cert = certify_point(sysd, x)
    assert cert.case.value == case
    assert checks.check_certificate(sym, x, cert, n_max=4) == []


@pytest.mark.parametrize("name,x,case", CERT_POINTS)
def test_certificate_check_rejects_a_relabelled_case(name, x, case):
    sysd, sym = _system(name)
    cert = certify_point(sysd, x)
    for other in type(cert.case):
        if other is cert.case:
            continue
        forged = dataclasses.replace(cert, case=other)
        assert checks.check_certificate(sym, x, forged, n_max=4) != [], other


@pytest.mark.parametrize("name,x,case", CERT_POINTS)
def test_certificate_check_rejects_a_tampered_witness(name, x, case):
    sysd, sym = _system(name)
    cert = certify_point(sysd, x)
    key = next(reversed(cert.witnesses))
    witnesses = dict(cert.witnesses)
    witnesses[key] = witnesses[key] + 1e-3
    forged = dataclasses.replace(cert, witnesses=witnesses)
    assert any(key in p for p in checks.check_certificate(sym, x, forged, n_max=4))


def test_certificate_check_rejects_a_shallower_n():
    sysd, sym = _system("rotation3")
    cert = certify_point(sysd, (1.0, 0.0, 0.0))
    forged = dataclasses.replace(cert, N=cert.N - 1)
    assert checks.check_certificate(sym, (1.0, 0.0, 0.0), forged, n_max=4) != []


def test_certificate_check_on_a_deep_system():
    text = workloads.certify_system_text(random.Random(3), "deep-linear")
    sysd = parse_system_file(text).build()
    sym = checks.read_system_text(text)
    x = (0.5, -0.5, 0.0)
    cert = certify_point(sysd, x, n_max=3)
    assert cert.case.value == "Inconclusive"
    assert checks.check_certificate(sym, x, cert, n_max=3) == []
    # claiming more depth than was searched misstates the detail
    assert checks.check_certificate(sym, x, cert, n_max=4) != []


def test_loop_check_accepts_and_rejects():
    sysd, sym = _system("dblint")
    traj, report = run_closed_loop(sysd, (1.0, 0.0), Partition.uniform(0.5), 1.0)
    problems, settle = checks.check_loop(sym, traj, report, radius=1.0, horizon=1.0)
    assert problems == [] and settle == 0.0
    problems, _ = checks.check_loop(sym, traj, report, radius=1e-3, horizon=1.0)
    assert any("does not reach" in p for p in problems)
    t, x, v = traj.checkpoints[1]
    traj.checkpoints[1] = (t, np.asarray(x) * (1 + 1e-4), v)
    problems, _ = checks.check_loop(sym, traj, report, radius=1.0, horizon=1.0)
    assert any("endpoint differs" in p for p in problems)


def test_monomial_labels_parse():
    assert checks.parse_monomial_label("[f,g]f") == (("f", "g"), "f")
    assert checks.parse_monomial_label("[[f,g],g]") == ((("f", "g"), "g"),)
    assert checks.parse_monomial_label("[f,g") is None

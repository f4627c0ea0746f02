import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sdstab
from sdstab.cli import (
    load_system, main, parse_system_file, read_trajectory_csv, CliError,
)


def test_load_double_integrator(systems_dir):
    sysd = load_system(systems_dir / "dblint.sys")
    assert sysd.dim == 2
    np.testing.assert_allclose(sysd.f.compiled()([0.5, -2.0]), [-2.0, 0.0])
    np.testing.assert_allclose(sysd.g.compiled()([0.5, -2.0]), [0.0, 1.0])


def test_load_rotation_with_parameters(systems_dir):
    sysd = load_system(systems_dir / "rotation3.sys")
    assert sysd.dim == 3
    p = np.array([0.3, -0.9, 0.2])
    np.testing.assert_allclose(
        sysd.f.compiled()(p), [p[1] * (1 + p[2]), -p[0], 0.0], atol=1e-14)


def test_dimension_mismatch_rejected(tmp_path):
    bad = tmp_path / "bad.sys"
    bad.write_text('dim = 3\nf = ["x2", "0"]\ng = ["0", "0", "1"]\n'
                   'V = "0.5*(x1^2+x2^2+x3^2)"\n')
    with pytest.raises(CliError, match="dimension mismatch"):
        load_system(bad)


def test_missing_key_rejected(tmp_path):
    bad = tmp_path / "bad.sys"
    bad.write_text('dim = 2\nf = ["x2", "0"]\nV = "0.5*(x1^2+x2^2)"\n')
    with pytest.raises(CliError, match="missing required key 'g'"):
        load_system(bad)


def test_parse_error_reports_line(tmp_path):
    bad = tmp_path / "bad.sys"
    bad.write_text('dim = 2\nf = [x2, "0"]\ng = ["0", "1"]\nV = "x1^2"\n')
    with pytest.raises(CliError, match="bad.sys:2"):
        load_system(bad)


def test_parameter_substitution():
    sf = parse_system_file(
        'dim = 1\nrate = "2+x1"\nf = ["-x1*rate"]\ng = ["1"]\nV = "0.5*x1^2"\n')
    sysd = sf.build()
    assert sysd.f.compiled()([0.5])[0] == pytest.approx(-0.5 * 2.5)


def test_reserved_parameter_names_rejected():
    with pytest.raises(CliError, match="reserved"):
        parse_system_file('dim = 1\nsin = "2"\nf = ["0"]\ng = ["1"]\nV = "x1^2"\n')


# --- command dispatch -------------------------------------------------------------

def _sys_arg(systems_dir, name):
    return ["--system", str(systems_dir / name)]


def test_certify_command(systems_dir, tmp_path, capsys):
    code = main(["certify", *_sys_arg(systems_dir, "dblint.sys"),
                 "--at", "1,0", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "case=P2 N=1" in out
    rows = (tmp_path / "certificates.csv").read_text().strip().splitlines()
    assert rows[0] == "x1,x2,case,N,gV,fV,witness_name,witness_value"
    assert any("ad_g^1(f)V,-1" in row for row in rows)


def test_certify_rejects_origin(systems_dir, tmp_path):
    code = main(["certify", *_sys_arg(systems_dir, "dblint.sys"),
                 "--at", "0,0", "--out", str(tmp_path)])
    assert code == 1


def test_certify_inconclusive_exit_code(tmp_path):
    stuck = tmp_path / "stuck.sys"
    stuck.write_text('dim = 2\nf = ["0", "0"]\ng = ["0", "1"]\n'
                     'V = "0.5*(x1^2+x2^2)"\n')
    code = main(["certify", "--system", str(stuck), "--at", "1,0",
                 "--out", str(tmp_path)])
    assert code == 2


def test_certify_grid_command(systems_dir, tmp_path, capsys):
    code = main(["certify-grid", *_sys_arg(systems_dir, "dblint.sys"),
                 "--box=-1:1,-1:1", "--res", "3,3", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "Transversal=6" in out
    assert "P2=2" in out
    assert "skipped=1" in out


def test_step_command(systems_dir, tmp_path, capsys):
    code = main(["step", *_sys_arg(systems_dir, "dblint.sys"),
                 "--at", "1,0", "--out", str(tmp_path)])
    assert code == 0
    assert "case=P2" in capsys.readouterr().out
    assert (tmp_path / "step_program.csv").exists()


def test_diagnose_m_command(systems_dir, tmp_path, capsys):
    code = main(["diagnose-m", *_sys_arg(systems_dir, "rotation3.sys"),
                 "--at", "1,1,0", "--order", "2", "--out", str(tmp_path)])
    assert code == 0
    assert "m^(2)(0)" in capsys.readouterr().out
    assert (tmp_path / "m_derivatives.csv").exists()


def test_cbh_check_command(systems_dir, tmp_path, capsys):
    code = main(["cbh-check", *_sys_arg(systems_dir, "dblint.sys"),
                 "--at", "1,0", "--k", "2", "--t", "0.01", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "cbh_residuals.csv").exists()


def test_simulate_command_and_csv_round_trip(systems_dir, tmp_path, capsys):
    code = main(["simulate", *_sys_arg(systems_dir, "dblint.sys"),
                 "--x0", "1,0", "--partition", "uniform:0.5", "--horizon", "2",
                 "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "plot_trajectory.gp").exists()
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["overshoot_ratio"] <= 2.0 + 1e-9

    csv_path = tmp_path / "trajectory.csv"
    times, states, vs = read_trajectory_csv(csv_path)
    sysd = load_system(systems_dir / "dblint.sys")
    for state, v in zip(states, vs):
        assert v == sysd.v_at(state)

    # 17-significant-digit text reproduces the floats exactly
    first = csv_path.read_text().splitlines()[1].split(",")
    assert float(first[0]) == times[0]
    assert float(first[3]) == vs[0]


def test_simulate_synthesis_failure_exit_code(tmp_path):
    stuck = tmp_path / "stuck.sys"
    stuck.write_text('dim = 2\nf = ["0", "0"]\ng = ["0", "1"]\n'
                     'V = "0.5*(x1^2+x2^2)"\n')
    code = main(["simulate", "--system", str(stuck), "--x0", "1,0",
                 "--partition", "uniform:0.5", "--horizon", "2",
                 "--out", str(tmp_path)])
    assert code == 2


def test_usage_errors_exit_one(systems_dir, tmp_path):
    assert main(["certify", *_sys_arg(systems_dir, "dblint.sys"),
                 "--out", str(tmp_path)]) == 1          # missing --at
    assert main(["certify", "--system", "no-such-file.sys", "--at", "1,0",
                 "--out", str(tmp_path)]) == 1          # unreadable system
    assert main(["simulate", *_sys_arg(systems_dir, "dblint.sys"),
                 "--x0", "1,0", "--partition", "weekly:1",
                 "--out", str(tmp_path)]) == 1          # bad partition kind
    assert main(["certify", *_sys_arg(systems_dir, "dblint.sys"),
                 "--at", "one,zero", "--out", str(tmp_path)]) == 1


def _run_module(argv, systems_dir, out):
    """`python -m sdstab` in a separate process, so that a hang fails the
    test instead of the suite."""
    env = dict(os.environ, PYTHONPATH=str(Path(sdstab.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "sdstab", *argv, *_sys_arg(systems_dir, "dblint.sys"),
         "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("argv", [
    ["simulate", "--x0", "inf,0", "--partition", "uniform:0.5", "--horizon", "5"],
    ["simulate", "--x0", "1e200,0", "--partition", "uniform:0.5", "--horizon", "5"],
    ["certify", "--at", "nan,0"],
    ["step", "--at", "nan,0"],
    ["step", "--at", "1e200,0"],
    ["certify-grid", "--box=-inf:1,-1:1", "--res", "3,3"],
    ["certify", "--at", "1,0", "--nmax", "7"],
    ["simulate", "--x0", "1,0", "--partition", "uniform:0.5", "--horizon", "inf"],
    ["simulate", "--x0", "1,0", "--partition", "uniform:0.5", "--xi", "inf"],
    ["diagnose-m", "--at", "1,0", "--u1", "inf"],
    ["diagnose-m", "--at", "1,0", "--u1", "nan"],
    ["diagnose-m", "--at", "1,0", "--rho", "inf"],
    ["cbh-check", "--at", "1,0", "--rho", "inf"],
    ["cbh-check", "--at", "1,0", "--u1", "-inf"],
    ["step", "--at", "1,0", "--xi", "inf"],
    ["step", "--at", "1,0", "--tol", "inf"],
    ["step", "--at", "1,0", "--tol", "nan"],
    ["cbh-check", "--at", "1,0", "--t", "inf"],
    ["cbh-check", "--at", "1,0", "--t", "0.01,nan"],
    ["simulate", "--x0", "1,0", "--horizon", "2", "--partition", "uniform:inf"],
    ["simulate", "--x0", "1,0", "--horizon", "2", "--partition", "explicit:0,inf"],
    ["simulate", "--x0", "1,0", "--horizon", "2", "--partition", "explicit:0,0.5+inf"],
    ["simulate", "--x0", "1,0", "--horizon", "2", "--partition", "explicit:0,nan,1"],
    # checked before the run starts, although a start inside the stop
    # radius runs no interval
    *(["simulate", "--x0", "0.0001,0", "--partition", "uniform:0.5", "--horizon", "2",
       option, value] for option, value in
      (("--xi", "0"), ("--xi", "-5"), ("--tol", "0"), ("--tol", "-1"))),
])
def test_non_finite_input_exits_one(systems_dir, tmp_path, argv):
    done = _run_module(argv, systems_dir, tmp_path)
    assert done.returncode == 1
    assert done.stderr.startswith("error: ")
    assert done.stderr.count("\n") == 1, done.stderr
    if "--t" in argv:
        # the message names the option and its value
        assert done.stderr.startswith(f"error: --t {argv[-1]!r} "), done.stderr
    if argv[-2] == "--partition":
        assert "must be finite" in done.stderr, done.stderr


@pytest.mark.parametrize("argv, code, message", [
    (["diagnose-m", "--at", "26,0.5"], 1, "error: V failed "),
    (["step", "--at", "26,0.5"], 2, "not achieved: search grids exhausted "),
    (["simulate", "--x0", "26,0.5", "--partition", "uniform:0.5", "--horizon", "2"],
     2, "  synthesis failure: interval [0.0, 0.5): search grids exhausted "),
])
def test_v_overflow_along_the_flow_is_no_traceback(tmp_path, argv, code, message):
    """exp(x1^2) overflows once the drift has carried x1 past 26.64."""
    steep = tmp_path / "steep.sys"
    steep.write_text('dim = 2\nf = ["1000", "0"]\ng = ["0", "1"]\n'
                     'V = "exp(x1^2)-1+x2^2"\n')
    env = dict(os.environ, PYTHONPATH=str(Path(sdstab.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "sdstab", *argv, "--system", str(steep),
         "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == code, done.stderr
    assert "Traceback" not in done.stderr
    if code == 1:
        assert done.stderr.startswith(message) and done.stderr.count("\n") == 1, done.stderr
    elif argv[0] == "step":
        assert done.stderr.startswith(message), done.stderr
    else:
        assert done.stdout.splitlines()[-1].startswith(message), done.stdout


@pytest.mark.parametrize("argv", [
    ["certify", "--at", "1,0", "--tol", "0"],
    ["certify-grid", "--box=-1:1,-1:1", "--res", "3,3", "--tol", "0"],
    ["diagnose-m", "--at", "1,0", "--tol", "0"],
    ["cbh-check", "--at", "1,0", "--tol", "0"],
    ["diagnose-m", "--at", "1,0", "--nmax", "3"],
    ["cbh-check", "--at", "1,0", "--nmax", "3"],
])
def test_options_a_subcommand_does_not_read_are_rejected(systems_dir, tmp_path, argv, capsys):
    assert main([*argv, *_sys_arg(systems_dir, "dblint.sys"), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: unrecognized arguments: ")


@pytest.mark.parametrize("argv", [
    ["certify", "--at", "0.6,0.8"],
    ["certify", "--at", "0,1"],
    ["certify-grid", "--box=-1:1,-1:1", "--res", "3,3"],
])
def test_non_finite_witness_exits_one(tmp_path, argv):
    """gV has a pole on the unit circle: the points on it are errors, not
    certificates, and no numpy warning reaches stderr."""
    pole = tmp_path / "pole.sys"
    pole.write_text('dim = 2\nf = ["x2", "-x1"]\ng = ["x1/(x1^2+x2^2-1)", "0"]\n'
                    'V = "x1^2+x2^2"\n')
    env = dict(os.environ, PYTHONPATH=str(Path(sdstab.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "sdstab", *argv, "--system", str(pole),
         "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 1
    assert done.stderr.startswith("error: witness gV leaves its domain "), done.stderr
    assert done.stderr.count("\n") == 1, done.stderr


def test_literal_beyond_float_range_exits_one(tmp_path):
    big = tmp_path / "big.sys"
    big.write_text('dim = 2\nf = ["x2", "0"]\ng = ["0", "1"]\nV = "1e400*x1^2+x2^2"\n')
    env = dict(os.environ, PYTHONPATH=str(Path(sdstab.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "sdstab", "certify", "--system", str(big), "--at", "1,0",
         "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 1
    assert done.stderr.startswith(f"error: {big}: ")
    assert done.stderr.count("\n") == 1, done.stderr


@pytest.mark.parametrize("f, v", [
    # a sum of 1,500 terms: compiling V recurses once per term
    ('["x2", "0"]', "+".join(["0.001*x1^2"] * 1500) + "+0.5*x2^2"),
    # 2,000 parentheses: the parser recurses once per pair
    ('["' + "(" * 2000 + "x2" + ")" * 2000 + '", "0"]', "0.5*(x1^2+x2^2)"),
], ids=["1500-term-v", "2000-parentheses"])
def test_expressions_nested_too_deeply_exit_one(tmp_path, f, v):
    deep = tmp_path / "deep.sys"
    deep.write_text(f'dim = 2\nf = {f}\ng = ["0", "1"]\nV = "{v}"\n')
    env = dict(os.environ, PYTHONPATH=str(Path(sdstab.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "sdstab", "certify", "--system", str(deep), "--at", "1,0",
         "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert done.stderr == "error: an expression is nested too deeply\n", done.stderr


_F, _G, _V = 'f = ["x2", "0"]', 'g = ["0", "1"]', 'V = "x1^2+x2^2"'


@pytest.mark.parametrize("text", [
    pytest.param(f'dim = 2\nf = ["x2", "0"\n{_G}\n{_V}\n', id="unterminated-list"),
    pytest.param(f'dim = 2\n{_F}\n{_G}\nV = "x1^2+x2^2\n', id="unterminated-string"),
    pytest.param(f'dim = 2\nk = 1.2.3\n{_F}\n{_G}\n{_V}\n', id="bad-value"),
    pytest.param(f'dim = 2\n{_F}\njust text\n{_G}\n{_V}\n', id="no-equals"),
    pytest.param(f'dim = 2\nk = ["1", "2"]\n{_F}\n{_G}\n{_V}\n', id="list-parameter"),
    pytest.param(f'dim = 2.5\n{_F}\n{_G}\n{_V}\n', id="fractional-dim"),
    pytest.param(f'dim = 2\nf = "x2"\n{_G}\n{_V}\n', id="f-string"),
    pytest.param(f'dim = 2\n{_F}\n{_G}\nV = ["x1^2", "x2^2"]\n', id="V-list"),
    pytest.param(f'dim = 2\n{_F}\n{_G}\nV = "1e400*(x1^2+x2^2)"\n', id="V-overflow"),
    pytest.param(f'dim = 3\n{_F}\n{_G}\n{_V}\n', id="dimension-mismatch"),
    # V vanishes on the x2 axis
    pytest.param(f'dim = 2\n{_F}\n{_G}\nV = "x1^2"\n', id="V-not-positive"),
    # the byte 0xff, which is not UTF-8
    pytest.param(f'dim = 2\n{_F}\n{_G}\nV = "x1^2+x2^2\udcff"\n', id="not-utf8"),
])
def test_malformed_system_file_exits_one_naming_the_file(tmp_path, capsys, text):
    bad = tmp_path / "bad.sys"
    bad.write_bytes(text.encode("utf-8", "surrogateescape"))
    assert main(["certify", "--system", str(bad), "--at", "1,0",
                 "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err, err
    assert err.count("\n") == 1, err
    assert "np.float64" not in err


def test_cbh_check_with_zero_time(systems_dir, tmp_path):
    # t = 0 has no logarithm: the slope is fitted over the positive times
    done = _run_module(["cbh-check", "--at", "1,0", "--k", "2", "--t", "0,0.01,0.1"],
                       systems_dir, tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert "log-log slope" in done.stdout


def test_explicit_partition_flag(systems_dir, tmp_path):
    code = main(["simulate", *_sys_arg(systems_dir, "dblint.sys"),
                 "--x0", "1,0", "--partition", "explicit:0,0.1,0.7,0.8,2.0+0.5",
                 "--horizon", "2.5", "--out", str(tmp_path)])
    assert code == 0

"""End-to-end checks of the command line front end."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import hsnl
from hsnl import cli
from test_acceptance import CLI_MATRIX


def run_cli(args, capsys):
    code = cli.run(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(path):
    """Header comments, column names, and float rows of an output file."""
    comments = {}
    names = None
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, value = line[1:].strip().split("=", 1)
            comments[key] = value
        elif names is None:
            names = line.split(",")
        else:
            rows.append([float(p) for p in line.split(",")])
    return comments, names, rows


def test_no_arguments_prints_usage(capsys):
    code, _, err = run_cli([], capsys)
    assert code == 1
    assert "usage" in err


def test_unknown_subcommand(capsys):
    code, _, err = run_cli(["frobnicate"], capsys)
    assert code == 1
    assert "frobnicate" in err


def test_unknown_key_is_named(capsys):
    code, _, err = run_cli(["ac", "--bogus-key", "7"], capsys)
    assert code == 1
    assert "bogus_key" in err


def test_bad_number_is_rejected(capsys):
    code, _, err = run_cli(["symbol", "--xi-count", "many"], capsys)
    assert code == 1
    assert "xi_count" in err


@pytest.mark.parametrize("args,point", [
    (["--xis", "nan"], "nan"),
    (["--xis", "0.5,inf"], "inf"),
    (["--kernel-d", "2", "--nu", "1:0", "--xis", "1:nan"], "1:nan"),
])
def test_symbol_rejects_nonfinite_points(tmp_path, monkeypatch, capsys,
                                         args, point):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(["symbol"] + args, capsys)
    assert code == 1
    assert "xi point %r is not finite" % point in err
    assert not (tmp_path / "symbol.csv").exists()


KERNEL_SUBCOMMANDS = ("symbol", "bounds", "localize", "solve", "poincare",
                      "ac", "validate")
FLOAT_KEYS = [(cmd, key) for cmd in KERNEL_SUBCOMMANDS
              for key in ("kernel-delta", "kernel-s", "kernel-level",
                          "kernel-cutoff")] + [
    ("symbol", "xi-min"), ("symbol", "xi-max"), ("bounds", "xi-min"),
    ("bounds", "xi-max"), ("bounds", "cutoff-radius"), ("bounds", "tau"),
    ("localize", "deltas"), ("solve", "length"), ("poincare", "cap"),
    ("poincare", "h"), ("poincare", "levels"), ("poincare", "deltas"),
    ("poincare", "hs"), ("ac", "hs"), ("ac", "deltas"), ("ac", "levels"),
    ("ac", "reference-h"), ("control", "delta"), ("control", "tol"),
    ("control", "lam"), ("control", "alpha"), ("control", "beta"),
    ("control", "udes-scale"), ("appendix", "deltas")]
# what a subcommand needs before it reads the key
KEY_CONTEXT = {"kernel-s": ["--kernel-family", "riesz_truncated"],
               "cutoff-radius": ["--xi-count", "2"],
               "tau": ["--xi-count", "2"]}
CMD_CONTEXT = {("poincare", "hs"): ["--kernel-family", "local"],
               ("ac", "levels"): ["--mode", "nonlocal"]}


@pytest.mark.parametrize("cmd,key,value", [
    (cmd, key, value) for cmd, key in FLOAT_KEYS
    for value in ("nan", "inf", "-inf", "0.5,nan")
    # infinite control bounds mean no bound; lists are for list keys only
    if not (key in ("alpha", "beta") and "inf" in value)
    and ("," not in value or key in ("deltas", "levels", "hs"))])
def test_nonfinite_float_settings_exit_1(tmp_path, monkeypatch, capsys, cmd,
                                         key, value):
    monkeypatch.chdir(tmp_path)
    args = ([cmd] + KEY_CONTEXT.get(key, []) + CMD_CONTEXT.get((cmd, key), [])
            + ["--" + key, value])
    code, out, err = run_cli(args, capsys)
    assert code == 1
    assert "key %s expects finite numbers" % cli._canon(key) in err
    assert out == "" and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args,key", [
    (["solve", "--coef", "const:nan"], "coef"),
    (["solve", "--rhs", "const:inf"], "rhs"),
    (["ac", "--coef", "const:-inf"], "coef"),
    (["solve", "--rhs", "const:abc"], "rhs"),
    (["control", "--gamma", "const:abc"], "gamma"),
    (["control", "--gamma", "const:nan"], "gamma"),
    (["symbol", "--kernel-d", "2", "--xis", "1:abc"], "xis"),
    (["bounds", "--kernel-d", "2", "--nu", "nan:1"], "nu"),
    (["bounds", "--kernel-d", "2", "--nu", "inf:1"], "nu"),
    (["solve", "--nu", "1:x"], "nu"),
])
def test_numbers_outside_config_name_their_key(tmp_path, monkeypatch, capsys,
                                                args, key):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(args, capsys)
    assert code == 1
    assert "key %s" % key in err and "Traceback" not in err
    assert out == "" and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args,match", [
    (["poincare", "--h", "0"], "h must be positive"),
    (["ac", "--hs", "0"], "h must be positive"),
    (["solve", "--kernel-delta", "1e-300"], "delta 1e-300 overflows"),
    (["control", "--delta", "1e-300"], "delta 1e-300 overflows"),
    (["localize", "--deltas", "1e-300"], "delta 1e-300 overflows"),
    (["validate", "--kernel-delta", "1e-300"], "delta 1e-300 overflows"),
    (["ac", "--threads", "0"], "threads must be at least 1"),
    (["ac", "--threads", "two"], "threads expects an integer"),
    (["ac", "--coef", "const:0"], "needs a nonzero A"),
    (["ac", "--rhs", "const:1e300"], "L2 error overflows"),
    (["appendix", "--deltas", "1e-300"], "M1 = inf"),
    (["bounds", "--kernel-family", "fractional_vanishing",
      "--kernel-delta", "1e-300"], "M1 = inf"),
    (["bounds", "--kernel-d", "2", "--kernel-delta", "1e300"],
     "delta 1e+300 underflows"),
    (["localize", "--kernel-family", "riesz_truncated", "--kernel-s", "0.5",
      "--deltas", "1e-300"], "delta 1e-300 overflows"),
    (["bounds", "--kernel-family", "riesz_truncated", "--kernel-s",
      "1e-300"], "s = 1e-300 is lost"),
    (["validate", "--kernel-family", "log_truncated", "--kernel-delta",
      "1e-300"], "overflows the kernel profile"),
    (["validate", "--kernel-family", "riesz_truncated", "--kernel-s", "0.5",
      "--kernel-cutoff", "1e-250"], "profile overflows at r = 1e-250"),
    (["validate", "--kernel-family", "riesz_truncated", "--kernel-s", "0.5",
      "--kernel-cutoff", "1e-300"], "profile overflows at r = 1e-300"),
    (["validate", "--kernel-family", "log_truncated", "--kernel-delta",
      "0.1", "--kernel-cutoff", "1e-9"], "at or below the support start"),
    (["solve", "--length", "1e-300"], "at most 2**52"),
    (["solve", "--kernel-family", "local", "--length", "1e-300"],
     "h**2 leaves"),
    (["solve", "--kernel-family", "local", "--length", "1e300"],
     "h**2 leaves"),
    (["solve", "--coef", "const:1e300", "--length", "1e300"],
     "overflows the quadrature weights"),
    (["solve", "--rhs", "const:1e300", "--length", "1e300"],
     "load vector is not finite"),
    (["control", "--lam", "1e-300", "--gamma", "const:1e-300"],
     "underflows"),
    (["ac", "--kernel-d", "2", "--hs", "0.25,0.125"], "one-dimensional"),
], ids=["poincare-h", "ac-hs", "solve-delta", "control-delta",
        "localize-deltas", "validate-delta", "threads-0", "threads-two",
        "ac-zero-coef", "ac-huge-rhs", "appendix-tiny-delta",
        "bounds-tiny-delta", "bounds-huge-delta", "localize-riesz-delta",
        "bounds-tiny-s", "validate-log-truncated", "validate-cutoff-1e-250",
        "validate-cutoff-1e-300", "validate-cutoff-below-start",
        "solve-tiny-domain",
        "local-tiny-domain", "local-huge-domain", "solve-huge-coef",
        "solve-huge-load", "control-tiny-penalty", "ac-d2"])
def test_inputs_that_ended_in_a_traceback_exit_1(tmp_path, monkeypatch,
                                                 capsys, args, match):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(args, capsys)
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert match in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args,match", [
    (["bounds", "--xi-max", "1e300"], "squared norm overflows"),
    (["bounds", "--kernel-d", "2", "--tau", "1e300"], "angle quadrature"),
], ids=["bounds-huge-xi", "bounds-d2-huge-tau"])
def test_frequencies_past_the_float_range_exit_2(tmp_path, monkeypatch,
                                                 capsys, args, match):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(args + ["--xi-count", "3"], capsys)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert match in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args,size", [
    (["solve", "--n", "100000000"], "71.1 PiB"),
    (["basis", "--d", "10000000"], "728. TiB"),
], ids=["solve-band", "basis-eye"])
def test_arrays_too_large_to_allocate_exit_1(tmp_path, monkeypatch, capsys,
                                             args, size):
    # the allocator refuses these sizes at once, so nothing is allocated
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(args, capsys)
    assert code == 1
    assert err.startswith("error: Unable to allocate %s" % size)
    assert err.count("\n") == 1
    assert out == "" and list(tmp_path.iterdir()) == []


def test_tiny_delta_log_regularized_symbol_matches_closed_form(
        tmp_path, monkeypatch, capsys):
    # the far tail starts near 6 delta, where its terms' powers t^alpha
    # (alpha down to -41) overflow unless taken in units of the start
    import mpmath

    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(["symbol", "--kernel-family", "log_regularized",
                            "--kernel-delta", "2e-12", "--xis", "1e10,1e11"],
                           capsys)
    assert code == 0 and err == ""
    _, _, rows = read_csv(tmp_path / "symbol.csv")
    coeff = hsnl.kernels._pieces(hsnl.kernels.log_regularized(1, 2e-12))[0][3]
    assert [row[0] for row in rows] == [1e10, 1e11]
    with mpmath.workdps(30):
        dl = mpmath.mpf(2e-12)
        for xi, re, im in rows:
            # d = 1: (C / delta) [-gamma - log z - e^z E1(z)], z = -i w delta
            z = -1j * 2 * mpmath.pi * mpmath.mpf(xi) * dl
            want = complex(coeff / dl * (-mpmath.euler - mpmath.log(z)
                                         - mpmath.exp(z) * mpmath.e1(z)))
            assert abs(complex(re, im) - want) <= 1e-12 * abs(want), xi


def test_a_load_near_the_float_range_solves_without_overflow(
        tmp_path, monkeypatch, capsys):
    # a power-of-two load scales u exactly; the residual check used to
    # overflow in the norm of the unscaled residual
    monkeypatch.chdir(tmp_path)
    solutions = []
    for rhs in ("1", repr(2.0 ** 996)):
        code, _, err = run_cli(["solve", "--n", "8", "--rhs",
                                "const:" + rhs], capsys)
        assert code == 0 and err == ""
        solutions.append(np.array(read_csv(tmp_path / "solve.csv")[2])[:, 1])
    assert np.all(np.isfinite(solutions[1]))
    assert np.array_equal(solutions[1], solutions[0] * 2.0 ** 996)


@pytest.mark.parametrize("args,key", [
    (["symbol", "--seed", "3"], "seed"),
    (["control", "--out", "x.csv"], "out"),
    (["validate", "--out", "y.csv"], "out"),
], ids=["symbol-seed", "control-out", "validate-out"])
def test_keys_a_subcommand_does_not_read_exit_1(tmp_path, monkeypatch,
                                                capsys, args, key):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(args, capsys)
    assert code == 1
    assert err == "error: unknown key %s\n" % key
    assert out == "" and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args", CLI_MATRIX, ids=[a[0] for a in CLI_MATRIX])
def test_artifacts_round_trip_through_config(tmp_path, monkeypatch, capsys,
                                             args):
    # every key an artifact echoes is one its subcommand reads
    monkeypatch.chdir(tmp_path)
    assert run_cli(args, capsys)[0] == 0
    first = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    for name, data in first.items():
        (tmp_path / "saved.cfg").write_bytes(data)
        assert run_cli([args[0], "--config", "saved.cfg"], capsys)[0] == 0
        for other, want in first.items():
            assert (tmp_path / other).read_bytes() == want
        (tmp_path / "saved.cfg").unlink()


@pytest.mark.parametrize("args", [
    ["--kernel-family", "log_regularized", "--kernel-delta", "0.2",
     "--kernel-cutoff", "0.2", "--n", "40"],
    ["--kernel-family", "fractional_vanishing", "--kernel-delta", "0.3",
     "--kernel-cutoff", "0.5", "--n", "48"],
])
def test_solve_with_gauss_points_on_nodes(tmp_path, monkeypatch, capsys,
                                          args):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(["solve"] + args, capsys)
    assert code == 0 and err == ""
    _, names, rows = read_csv(tmp_path / "solve.csv")
    assert names == ["x", "u"] and len(rows) == int(args[-1]) + 1
    assert all(math.isfinite(u) for _, u in rows)


def test_control_with_infinite_bounds_is_unconstrained(tmp_path, monkeypatch,
                                                       capsys):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(["control", "--alpha", "-inf", "--beta", "inf"],
                           capsys)
    assert code == 0
    comments, _, rows = read_csv(tmp_path / "control.csv")
    assert (comments["alpha"], comments["beta"]) == ("-inf", "inf")
    assert all(math.isfinite(g) for _, g in rows)
    objective = out.split(",")[0].split("=")[1]
    assert math.isfinite(float(objective))


def test_symbol_value_at_one(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(["symbol", "--xis", "1"], capsys)
    assert code == 0
    comments, names, rows = read_csv(tmp_path / "symbol.csv")
    assert names == ["xi_1", "re_1", "im_1"]
    assert comments["command"] == "symbol"
    assert len(rows) == 1
    assert rows[0][1] == pytest.approx(-2.0, abs=1e-10)
    assert abs(rows[0][2]) < 1e-10


def test_symbol_direction_flip(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    run_cli(["symbol", "--xis", "0.3", "--out", "plus.csv"], capsys)
    run_cli(["symbol", "--xis", "0.3", "--nu", "-1", "--out", "minus.csv"],
            capsys)
    _, _, plus = read_csv(tmp_path / "plus.csv")
    _, _, minus = read_csv(tmp_path / "minus.csv")
    assert minus[0][1] == pytest.approx(-plus[0][1], rel=1e-12)
    assert minus[0][2] == pytest.approx(plus[0][2], rel=1e-12)


def test_symbol_grid_defaults_echoed(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, _, _ = run_cli(["symbol", "--xi-count", "5"], capsys)
    assert code == 0
    comments, _, rows = read_csv(tmp_path / "symbol.csv")
    assert comments["xi_min"] == "0.01"
    assert comments["xi_max"] == "100"
    assert comments["kernel.family"] == "constant_ball"
    assert len(rows) == 5


def test_bounds_all_rows_pass(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(["bounds", "--xi-count", "25"], capsys)
    assert code == 0
    assert "failures=0" in out
    text = (tmp_path / "bounds.csv").read_text().splitlines()
    data = [line for line in text
            if not line.startswith("#") and not line.startswith("name")]
    assert len(data) >= 5
    for line in data:
        assert line.rsplit(",", 1)[1] == "1"


def test_localize_rate_near_linear(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(
        ["localize", "--deltas", "0.2,0.1,0.05,0.025"], capsys)
    assert code == 0
    _, names, rows = read_csv(tmp_path / "localize.csv")
    assert names == ["delta", "error", "rate"]
    rates = {row[2] for row in rows}
    assert len(rates) == 1
    assert 0.8 <= rows[0][2] <= 1.2
    errs = [row[1] for row in rows]
    assert all(a > b for a, b in zip(errs, errs[1:]))


def test_solve_writes_full_grid(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, _, _ = run_cli(
        ["solve", "--n", "8", "--kernel-delta", "0.25"], capsys)
    assert code == 0
    _, names, rows = read_csv(tmp_path / "solve.csv")
    assert names == ["x", "u"]
    assert len(rows) == 9
    assert rows[0] == [0.0, 0.0]
    assert rows[-1] == [1.0, 0.0]
    assert max(row[1] for row in rows) > 0.1


def test_solve_local_matches_parabola(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    run_cli(["solve", "--kernel-family", "local", "--n", "16"], capsys)
    _, _, rows = read_csv(tmp_path / "solve.csv")
    for x, u in rows:
        assert u == pytest.approx(0.5 * x * (1.0 - x), abs=1e-12)


def test_poincare_local_ladder(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(
        ["poincare", "--kernel-family", "local",
         "--hs", "0.25,0.125,0.0625,0.03125"], capsys)
    assert code == 0
    assert "verdict=pass" in out
    _, _, rows = read_csv(tmp_path / "poincare.csv")
    cps = [row[2] for row in rows]
    assert all(cp <= 0.5 for cp in cps)
    assert abs(cps[-1] - 1.0 / math.pi) < 5e-4


def test_poincare_horizon_ladder(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(
        ["poincare", "--deltas", "0.2,0.1", "--h", "0.015625"], capsys)
    assert code == 0
    _, _, rows = read_csv(tmp_path / "poincare.csv")
    assert rows[0][0] == 0.2
    assert rows[0][2] == pytest.approx(0.36160791381158142, rel=1e-9)


def test_poincare_delta_key_conflicts(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(
        ["poincare", "--kernel-delta", "0.2", "--deltas", "0.2,0.1",
         "--h", "0.0625"], capsys)
    assert code == 1
    assert "conflict" in err


def test_ac_summary_is_the_trend(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(
        ["ac", "--deltas", "0.2,0.1,0.05",
         "--hs", "0.0625,0.03125,0.015625"], capsys)
    assert code == 0
    assert out.strip() == "diagonal_trend=decreasing"
    _, names, rows = read_csv(tmp_path / "ac.csv")
    assert names == ["param", "h", "l2_error"]
    assert len(rows) == 9
    diag = [rows[0][2], rows[4][2], rows[8][2]]
    assert diag[0] > diag[1] > diag[2]


def test_control_outputs_and_summary(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(
        ["control", "--n", "16", "--alpha", "-50", "--beta", "50"], capsys)
    assert code == 0
    match = re.match(
        r"objective=([0-9.eE+-]+),residual=([0-9.eE+-]+),iters=(\d+)$",
        out.strip())
    assert match is not None
    assert float(match.group(2)) <= 1e-8
    _, names_s, rows_s = read_csv(tmp_path / "state.csv")
    _, names_c, rows_c = read_csv(tmp_path / "control.csv")
    assert names_s == ["x", "u"]
    assert names_c == ["cell", "g"]
    assert len(rows_s) == 17
    assert len(rows_c) == 16


def test_control_clips_at_bounds(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, _, _ = run_cli(
        ["control", "--n", "8", "--alpha", "0", "--beta", "0.5"], capsys)
    assert code == 0
    _, _, rows = read_csv(tmp_path / "control.csv")
    for _, g in rows:
        assert -1e-12 <= g <= 0.5 + 1e-12


def test_control_nonconvergence_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(
        ["control", "--n", "8", "--max-iter", "1", "--tol", "1e-14",
         "--alpha", "-50", "--beta", "50"], capsys)
    assert code == 2
    assert "iterations" in err


def test_control_of_a_large_target_converges(tmp_path, monkeypatch, capsys):
    # a control of size 1e8 meets its roundoff floor, not the default tol
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(
        ["control", "--n", "128", "--delta", "0.1", "--lam", "1e-5",
         "--alpha", "-1e12", "--beta", "1e12", "--udes-scale", "1e8"],
        capsys)
    assert code == 0
    assert int(out.strip().rsplit("iters=", 1)[1]) <= 5


@pytest.mark.parametrize("args,key", [
    (["--max-iter", "0"], "max_iter"), (["--max-iter", "-3"], "max_iter"),
    (["--tol", "0"], "tol"), (["--tol", "-1"], "tol")])
def test_control_solver_settings_exit_1(tmp_path, monkeypatch, capsys, args,
                                        key):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(["control", "--n", "8"] + args, capsys)
    assert code == 1
    assert out == ""
    assert key in err
    assert not (tmp_path / "control.csv").exists()


@pytest.mark.parametrize("args,code,match", [
    (["--udes-scale", "1e300"], 1, "u_des"),
    (["--gamma", "const:1e300", "--lam", "1e300"], 1, "overflows"),
    (["--lam", "1e-300", "--alpha", "-inf", "--beta", "inf"], 2,
     "overflow"),
])
def test_control_overflow_exits_without_a_warning(tmp_path, monkeypatch,
                                                  capsys, args, code, match):
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, out, err = run_cli(["control", "--n", "8"] + args, capsys)
    assert got == code
    assert match in err
    assert "objective=" not in out
    assert not (tmp_path / "control.csv").exists()


def child_env(**env):
    """os.environ updated by env, for a child run from another directory,
    where a relative PYTHONPATH resolves to nothing: it gets the absolute
    directory holding the hsnl imported here."""
    env = {**os.environ, **env}
    package_root = str(Path(hsnl.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    return env


def test_control_modules_do_not_import_scipy_sparse():
    # a cold scipy.sparse import costs about a third of a second of start-up
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, hsnl.cli, hsnl.control; "
         "print([m for m in sys.modules if m.startswith('scipy.sparse')])"],
        capture_output=True, text=True, env=child_env(), check=True)
    assert proc.stdout.strip() == "[]"


def test_appendix_limits_approach(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, _, _ = run_cli(
        ["appendix", "--deltas", "0.1,0.01,0.001"], capsys)
    assert code == 0
    _, names, rows = read_csv(tmp_path / "appendix.csv")
    assert names[0] == "delta"
    sin_gap = [abs(row[1] - 2.0 * math.pi) for row in rows]
    cos_abs = [abs(row[2]) for row in rows]
    assert sin_gap[0] > sin_gap[1] > sin_gap[2]
    assert cos_abs[0] > cos_abs[1] > cos_abs[2]


def test_basis_seeded_and_tiny_defects(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    run_cli(["basis", "--count", "40", "--seed", "9", "--d", "3",
             "--out", "a.csv"], capsys)
    run_cli(["basis", "--count", "40", "--seed", "9", "--d", "3",
             "--out", "b.csv"], capsys)
    a = (tmp_path / "a.csv").read_text().replace("a.csv", "x.csv")
    b = (tmp_path / "b.csv").read_text().replace("b.csv", "x.csv")
    assert a == b
    _, _, rows = read_csv(tmp_path / "a.csv")
    assert max(row[1] for row in rows) < 1e-12
    assert max(row[2] for row in rows) < 1e-12


@pytest.mark.parametrize("count", ["0", "-3"])
def test_basis_count_must_be_positive(tmp_path, monkeypatch, capsys, count):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(["basis", "--count", count], capsys)
    assert code == 1
    assert "count must be at least 1" in err
    assert "Traceback" not in err


def test_validate_reports_and_passes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(
        ["validate", "--kernel-family", "riesz_truncated",
         "--kernel-s", "0.5"], capsys)
    assert code == 0
    assert "m1_ok=1" in out
    assert "m2_ok=1" in out
    assert out.strip().splitlines()[-1] == "valid=yes"


def test_config_round_trip_is_byte_identical(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    args = ["ac", "--deltas", "0.2,0.1", "--hs", "0.0625,0.03125"]
    code, _, _ = run_cli(args, capsys)
    assert code == 0
    first = (tmp_path / "ac.csv").read_bytes()
    (tmp_path / "saved.csv").write_bytes(first)
    code, _, _ = run_cli(["ac", "--config", "saved.csv"], capsys)
    assert code == 0
    assert (tmp_path / "ac.csv").read_bytes() == first


def test_flags_override_config_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    run_cli(["solve", "--n", "8"], capsys)
    (tmp_path / "cfg.csv").write_bytes((tmp_path / "solve.csv").read_bytes())
    code, _, _ = run_cli(["solve", "--config", "cfg.csv", "--n", "16"],
                         capsys)
    assert code == 0
    comments, _, rows = read_csv(tmp_path / "solve.csv")
    assert comments["n"] == "16"
    assert len(rows) == 17


def test_config_for_other_command_is_rejected(tmp_path, monkeypatch,
                                              capsys):
    monkeypatch.chdir(tmp_path)
    run_cli(["appendix", "--deltas", "0.1"], capsys)
    code, _, err = run_cli(["solve", "--config", "appendix.csv"], capsys)
    assert code == 1
    assert "appendix" in err


def test_missing_config_file(capsys):
    code, _, err = run_cli(["solve", "--config", "/nonexistent/x.cfg"],
                           capsys)
    assert code == 1
    assert "config" in err


def test_thread_count_does_not_change_bytes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    args = ["ac", "--deltas", "0.2,0.1", "--hs", "0.0625,0.03125"]
    outputs = []
    summaries = []
    for threads in ("1", "4"):
        code, out, _ = run_cli(args + ["--threads", threads], capsys)
        assert code == 0
        outputs.append((tmp_path / "ac.csv").read_bytes())
        summaries.append(out)
    assert outputs[0] == outputs[1]
    assert summaries[0] == summaries[1]


def test_threads_leave_the_environment_unchanged(tmp_path, monkeypatch,
                                                 capsys):
    monkeypatch.chdir(tmp_path)
    before = dict(os.environ)
    code, _, _ = run_cli(["appendix", "--deltas", "0.1", "--threads", "3"],
                         capsys)
    assert code == 0
    assert dict(os.environ) == before


def run_child(args, cwd, **env):
    """`python -m hsnl.cli args` in a child process run from cwd, with the
    environment updated by env."""
    return subprocess.run([sys.executable, "-m", "hsnl.cli", *args],
                          cwd=cwd, capture_output=True, text=True,
                          env=child_env(**env))


def test_module_entry_point(tmp_path):
    proc = run_child(["appendix", "--deltas", "0.1"], tmp_path)
    assert proc.returncode == 0
    assert "sin_gap=" in proc.stdout
    assert (tmp_path / "appendix.csv").exists()
    # the package must not import cli before runpy executes it
    assert "RuntimeWarning" not in proc.stderr


def test_module_entry_point_reports_a_handler_error(tmp_path):
    # the handler raises the CliError of hsnl.cli, which is not the class
    # of the __main__ copy of cli.py that `python -m` runs
    proc = run_child(["solve", "--kernel-d", "2"], tmp_path)
    assert proc.returncode == 1
    assert proc.stderr == "error: the solver is one-dimensional\n"
    assert proc.stdout == "" and list(tmp_path.iterdir()) == []


HANDLERS_LOADED = """
import contextlib, io, json, os, sys, tempfile
from hsnl import cli
loaded = []
for args in json.loads(sys.argv[1]):
    os.chdir(tempfile.mkdtemp())
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        cli.run(args)
    loaded.append(sorted(m for m in sys.modules
                         if m.startswith("hsnl.commands.")))
    for name in loaded[-1]:
        del sys.modules[name]
print(json.dumps(loaded))
"""


def test_a_run_loads_only_its_own_handler(tmp_path):
    # one child for all runs; after each, its handler module is dropped
    cases = [list(args) for args in CLI_MATRIX]
    cases += [["solve", "--bogus", "1"], ["bogus"], []]
    proc = subprocess.run(
        [sys.executable, "-c", HANDLERS_LOADED, json.dumps(cases)],
        capture_output=True, text=True, env=child_env(TMPDIR=str(tmp_path)),
        check=True)
    want = [["hsnl.commands." + args[0]] for args in CLI_MATRIX]
    assert json.loads(proc.stdout) == want + [[], [], []]
    assert set(cli._COMMANDS) == {args[0] for args in CLI_MATRIX}


@pytest.mark.parametrize("args", [
    ["solve", "--n", "512", "--kernel-delta", "0.1"],
    ["solve", "--n", "384", "--coef", "func:one_plus_x"],
    ["solve", "--n", "1024"],
    ["control", "--n", "128", "--delta", "0.1", "--lam", "1e-5",
     "--max-iter", "5000"],
], ids=["ball0.1-512", "one_plus_x-384", "default-1024", "control-128"])
def test_blas_thread_count_does_not_change_bytes(tmp_path, args):
    # assembly multiplies the weight steps by the Gram diagonals in BLAS,
    # which may split a product over its threads; control calls LAPACK's
    # banded Cholesky and general band solvers directly
    outputs = []
    for threads in ("1", "2"):
        cwd = tmp_path / threads
        cwd.mkdir()
        proc = run_child(args, cwd, OPENBLAS_NUM_THREADS=threads,
                         OMP_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
        outputs.append(({p.name: p.read_bytes() for p in cwd.iterdir()},
                        proc.stdout))
    assert outputs[0] == outputs[1]


def test_floats_echo_with_full_precision(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    run_cli(["solve", "--n", "8", "--kernel-delta", "0.1"], capsys)
    comments, _, _ = read_csv(tmp_path / "solve.csv")
    assert comments["kernel.delta"] == "%.17g" % 0.1
    assert float(comments["kernel.delta"]) == 0.1


def fmt_join_csv(cfg, header, rows):
    """The per-row writer that the column writer replaced, as an oracle:
    the echoed config, the header and each row's _fmt values joined."""
    lines = cli._echo_lines(cfg) + [header]
    lines += [",".join(cli._fmt(v) for v in row) for row in rows]
    return "".join(line + "\n" for line in lines).encode()


def write_rows(path, rows, width):
    cfg = cli.Config({}, "solve")
    header = ",".join("c%d" % k for k in range(width))
    cli._write_csv(path, cfg, header, list(zip(*rows)))
    return fmt_join_csv(cfg, header, rows)


@pytest.mark.parametrize("rows", [
    # bounds: name, grid ends, margin and a verdict of either bool type
    [("linear", 0.01, 100.0, 0.25, True), ("large_xi", 1e3, 1e4, -0.5,
                                           np.False_)],
    # localize: the first delta has no rate yet
    [(0.5, 1e-3, None), (0.25, 2.5e-4, 2.0), (0.125, 6.25e-5, 2.0)],
    # control: a Python int cell index next to NumPy floats
    list(zip(range(4), np.array([-1.0, 0.1, 1.0 / 3.0, 1e-300]))),
    # ac: Python and NumPy floats in one column
    [(0.1, 0.0625, 1e-3), (0.1, 0.03125, 2.5e-4), (np.float64(0.05),
                                                   0.03125, 1.25e-4)],
    [(np.int64(3), 0.5, "x"), (3, 0.5, "x"), (True, 1, np.float32(0.1))],
    [],
], ids=["bounds", "localize", "control", "ac", "mixed", "empty"])
def test_csv_rows_match_the_value_by_value_join(tmp_path, rows):
    want = write_rows(tmp_path / "out.csv", rows, len(rows[0]) if rows else 0)
    assert (tmp_path / "out.csv").read_bytes() == want


CSV_COLUMNS = {
    "int": [0, -3, 7, 2 ** 70],
    "np.int64": [np.int64(0), np.int64(-3), np.int64(2 ** 62), np.int64(1)],
    "bool": [True, False, False, True],
    "np.bool_": [np.True_, np.False_, np.True_, np.True_],
    "float": [0.1, -0.0, 1.0 / 3.0, 1e-300],
    "np.float64": [np.float64(1e300), np.float64(-2.5), np.float64(5e-324),
                   np.float64(0.0)],
    "str": ["linear", "x", "", "a b"],
    "None": [None, None, None, None],
}


@pytest.mark.parametrize("kind", list(CSV_COLUMNS))
@pytest.mark.parametrize("as_array", [False, True], ids=["list", "array"])
def test_csv_columns_of_each_type_match_the_oracle(tmp_path, kind,
                                                   as_array):
    column = CSV_COLUMNS[kind]
    if as_array and kind not in ("int", "None"):
        column = np.array(column)
    floats = np.array([2.0, -1e-7, 0.5, 3e8])
    cfg = cli.Config({}, "solve")
    cli._write_csv(tmp_path / "out.csv", cfg, "a,b,c",
                   [column, floats, column])
    rows = list(zip(column, floats, column))
    assert (tmp_path / "out.csv").read_bytes() == fmt_join_csv(
        cfg, "a,b,c", rows)


def test_csv_of_every_type_in_one_file_matches_the_oracle(tmp_path):
    columns = list(CSV_COLUMNS.values())
    # and a column whose values take different conversions
    columns.append([1, 0.5, "x", np.float32(0.1)])
    want = write_rows(tmp_path / "out.csv", list(zip(*columns)),
                      len(columns))
    assert (tmp_path / "out.csv").read_bytes() == want


@pytest.mark.parametrize("columns, where", [
    ([[0.1, 0.1, 0.05], [1e-3, math.nan, -math.inf]], "row 2, column c1"),
    ([np.array([1.0, 2.0]), np.array([3.0, np.inf])], "row 2, column c1"),
    ([np.array([np.nan, 1.0]), np.array([np.nan, 2.0])], "row 1, column c0"),
    ([["x", 1, -math.inf], [0.5, 0.5, 0.5]], "row 3, column c0"),
], ids=["list", "array", "first-of-two", "mixed"])
def test_csv_writer_refuses_non_finite_numbers(tmp_path, columns, where):
    path = tmp_path / "out.csv"
    with pytest.raises(cli.OutputError, match=where):
        cli._write_csv(path, cli.Config({}, "solve"), "c0,c1", columns)
    assert not path.exists()


@pytest.mark.parametrize("args", CLI_MATRIX, ids=[a[0] for a in CLI_MATRIX])
def test_every_artifact_matches_the_value_by_value_join(
        tmp_path, monkeypatch, capsys, args):
    monkeypatch.chdir(tmp_path)
    real, written = cli._write_csv, []

    def checked(path, cfg, header, columns):
        columns = list(columns)
        real(path, cfg, header, columns)
        want = fmt_join_csv(cfg, header, list(zip(*columns)))
        written.append(Path(path).read_bytes() == want)

    monkeypatch.setattr(cli, "_write_csv", checked)
    assert run_cli(args, capsys)[0] == 0
    assert written == ([] if args[0] == "validate"
                       else [True] * (2 if args[0] == "control" else 1))


def test_fractional_family_requires_delta(capsys):
    code, _, err = run_cli(
        ["symbol", "--kernel-family", "fractional_vanishing",
         "--xis", "1"], capsys)
    assert code == 1
    assert "kernel.delta" in err


def test_two_dimensional_symbol_points(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, _, _ = run_cli(
        ["symbol", "--kernel-d", "2", "--xis", "1:0,0:1",
         "--nu", "1:0"], capsys)
    assert code == 0
    _, names, rows = read_csv(tmp_path / "symbol.csv")
    assert names == ["xi_1", "xi_2", "re_1", "re_2", "im_1", "im_2"]
    assert len(rows) == 2
    along = np.hypot(rows[0][2], rows[0][4])
    across = np.hypot(rows[0][3], rows[0][5])
    assert along > 1e-2
    assert across < 1e-10


@pytest.mark.parametrize("args, kernel, nu", [
    (["--kernel-family", "log_regularized", "--kernel-delta", "0.1",
      "--xi-count", "40"], hsnl.kernels.log_regularized(1, 0.1), 1.0),
    (["--kernel-d", "2", "--kernel-family", "riesz_truncated",
      "--kernel-s", "0.5", "--nu", "0.6:0.8",
      "--xis", "0.5:-3,40:7,0:0,-120:0.25"],
     hsnl.kernels.riesz_truncated(2, 0.5), np.array([0.6, 0.8]))],
    ids=["d1", "d2"])
def test_symbol_rows_match_pointwise_symbols(args, kernel, nu, tmp_path,
                                             monkeypatch, capsys):
    """All points go to the engine at once; each row keeps the bits of
    symbols.symbol at that point alone."""
    monkeypatch.chdir(tmp_path)
    assert run_cli(["symbol"] + args, capsys)[0] == 0
    _, _, rows = read_csv(tmp_path / "symbol.csv")
    d = kernel.d
    for row in rows:
        sample = hsnl.symbols.symbol(kernel, nu, row[:d])
        assert row[d:] == [*sample.re_part, *sample.im_part]


def test_symbol_out_of_range_frequency_exits_2(tmp_path, monkeypatch,
                                              capsys):
    # log_regularized takes 7 panels at any |xi| >= 1/4 (2e5 once needed
    # more than the 3e5-panel budget allows); only the float range ends it
    monkeypatch.chdir(tmp_path)
    args = ["symbol", "--kernel-family", "log_regularized",
            "--kernel-delta", "0.1", "--xis"]
    assert run_cli(args + ["2e5"], capsys)[0] == 0
    _, _, rows = read_csv(tmp_path / "symbol.csv")
    assert np.all(np.isfinite(rows))
    (tmp_path / "symbol.csv").unlink()
    for xi, message in (("1e307", "kernel profile overflows"),
                        ("-1e308", "2 pi |c| overflows")):
        code, _, err = run_cli(args + [xi], capsys)
        assert code == 2
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err
        assert not (tmp_path / "symbol.csv").exists()


def test_horizon_past_a_tiny_domain_solves(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(["solve", "--length", "1e-12", "--kernel-family",
                            "riesz_truncated", "--kernel-s", "0.5"], capsys)
    assert code == 0 and err == ""
    _, _, rows = read_csv(tmp_path / "solve.csv")
    assert len(rows) == 65 and np.all(np.isfinite(rows))


# Settings that keep each subcommand's work small; a draw overrides some
# of them and adds others.
FUZZ_BASE = {
    "symbol": ["--xi-count", "3"],
    "bounds": ["--xi-count", "3"],
    "localize": ["--deltas", "0.2,0.1"],
    "solve": ["--n", "16"],
    "poincare": ["--deltas", "0.2", "--h", "0.125"],
    "ac": ["--hs", "0.25,0.125", "--deltas", "0.2", "--levels", "4"],
    "control": ["--n", "16", "--max-iter", "20"],
    "appendix": ["--deltas", "0.1"],
    "basis": ["--count", "3"],
    "validate": [],
}
# sizes stay small: n <= 33, counts <= 3, threads <= 2
FUZZ_SIZES = {"n": ("2", "33"), "xi_count": ("1", "3"), "count": ("1", "3"),
              "max_iter": ("1", "3"), "threads": ("1", "2")}
FUZZ_BAD = ("0", "-1", "x", "1e300", "nan", "")
FUZZ_NUMBERS = ("0", "-0", "0.5", "1e300", "-1e300", "1e-300", "inf", "nan",
                "0.5,,0.25", "0.2,0.1", ",", "abc", "bogus_name")
FUZZ_VALUES = {
    "kernel.family": cli._FAMILIES + ("bogus_name",),
    "kernel.d": ("1", "2", "3", "0"),
    "nu": ("1", "-1", "1:0", "0:0", "nan:1", "2"),
    "coef": ("const:0", "const:-0", "const:1e300", "const:1e-300",
             "const:inf", "func:sine", "func:bogus_name", "const:"),
    "mode": ("local", "nonlocal", "bogus_name"),
    "norm": ("l2", "linf", "bogus_name"),
    "reference": ("analytic_local", "fine_local_fem", "bogus_name"),
    "udes": ("zero", "parabola", "sine", "bogus_name"),
    "xis": ("1", "0", "1e300", "1:1", "nan", "1,,2"),
}
FUZZ_VALUES["rhs"] = FUZZ_VALUES["gamma"] = FUZZ_VALUES["coef"]


def _fuzz_values(key):
    if key in FUZZ_SIZES:
        return FUZZ_SIZES[key] + FUZZ_BAD
    return FUZZ_VALUES.get(key, FUZZ_NUMBERS)


@st.composite
def cli_draws(draw):
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    keys = [k for k in cli._COMMANDS[command] if not k.endswith("out")]
    chosen = draw(st.lists(st.sampled_from(keys + ["threads"]), max_size=3,
                           unique=True))
    args = [command] + FUZZ_BASE[command]
    for key in chosen:
        args += ["--" + key.replace("_", "-"),
                 draw(st.sampled_from(_fuzz_values(key)))]
    return args


def _csv_numbers(path):
    lines = [ln for ln in path.read_text().splitlines()
             if not ln.startswith("#")]
    for line in lines[1:]:
        for cell in line.split(","):
            try:
                yield float(cell)
            except ValueError:
                pass


# at least 200 draws, more under a profile with more examples
@settings(max_examples=max(200, settings().max_examples))
@given(cli_draws())
# a log_regularized symbol whose far tail once overflowed at this delta
# into a NaN row
@example(["symbol", "--kernel-family", "log_regularized", "--kernel-delta",
          "2e-12", "--xis", "1e10,1e11"])
def test_cli_contract_holds_on_extreme_inputs(args):
    # exit 0 with finite numbers in every CSV, or exit 1 or 2 with one
    # error line; RuntimeWarnings are errors under the pytest settings
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = cli.run(args)
            numbers = [v for path in Path(work).glob("*.csv")
                       for v in _csv_numbers(path)]
        finally:
            os.chdir(here)
    assert code in (0, 1, 2)
    if code == 0:
        assert all(math.isfinite(v) for v in numbers), args
    else:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), args

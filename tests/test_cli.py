"""Tests for the command-line front end: exit codes, file outputs, formats."""

import argparse
import itertools
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import trikoorn as tk
from trikoorn import cli, koornwinder, ladders, operators
from trikoorn.cli import main
from trikoorn.ladders import _NEEDS_D0


def _write_full_coeffs(path, N, nonzero):
    lines = ["n,k,value"]
    for n in range(N + 1):
        for k in range(n + 1):
            lines.append(f"{n},{k},{nonzero.get((n, k), 0.0)!r}")
    path.write_text("\n".join(lines) + "\n")


def _read_coeffs(path):
    out = {}
    for line in path.read_text().splitlines()[1:]:
        n, k, v = line.split(",")
        out[(int(n), int(k))] = float(v)
    return out


# --------------------------------------------------------------- exit codes


def _fresh_env():
    # the environment of a fresh process that imports this checkout's package
    src = os.path.dirname(os.path.dirname(tk.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


@pytest.mark.parametrize("argv", [
    ["expand", "--name", "runge", "--N", "20"],
    ["solve", "--lambda", "2.5", "--rhs", "runge", "--N", "10"],
    ["build-op", "--name", "mult_same_y", "--N", "10", "--a", "0.5", "--b", "1.5", "--c", "2.5"],
    ["verify", "--suite", "operators"],
    ["verify", "--suite", "eigen"],
], ids=["expand", "solve", "build-op", "verify-operators", "verify-eigen"])
def test_commands_import_no_scipy(argv, tmp_path):
    # each command in a fresh process, as a user runs it
    code = (
        "import json, sys; from trikoorn import cli; rc = cli.main(json.loads(sys.argv[1])); "
        "print(rc, sorted({m for m in sys.modules if m.split('.')[0] == 'scipy'}))"
    )
    argv = json.dumps(argv + ["--out", str(tmp_path / "out")])
    out = subprocess.run([sys.executable, "-c", code, argv], env=_fresh_env(), capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0 []"


def test_compose_imports_no_scipy():
    # the operator product is numpy alone, in a fresh process
    code = (
        "import sys, trikoorn as tk; g = tk.build_mult_y(10, tk.TriParams(0.5, 1.5, 2.5, 0.0)); "
        "h = tk.compose(tk.build_conv_b(11, g.range.params), g); "
        "print(h.nnz > 0, sorted({m for m in sys.modules if m.split('.')[0] == 'scipy'}))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=_fresh_env(), capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "True []"


def test_expand_past_the_float64_wall_prints_its_error_line_only(tmp_path):
    # at b = c = 300 the degree-200 edge tables overflow: the run exits 3
    # naming the first (n, k) out of range, and numpy's overflow and
    # invalid-value warnings stay off stderr
    argv = ["expand", "--name", "runge", "--N", "200", "--b", "300", "--c", "300", "--out", str(tmp_path / "c.csv")]
    out = subprocess.run([sys.executable, "-m", "trikoorn.cli", *argv], env=_fresh_env(), capture_output=True, text=True)
    assert out.returncode == 3
    (line,) = out.stderr.splitlines()
    assert line.startswith("error: ") and "out of float64 range, the first at (n, k) = " in line


# every argv path through the parser: help, usage errors at either level, runs
_PARSER_ARGV = [
    [], ["-h"], ["-h", "expand"], ["--"], ["--", "info"], ["bogus"], ["--bogus"], ["-x", "info"],
    *([command, "-h"] for command in cli._COMMANDS),
    ["build-op", "--N", "3"],
    ["expand", "--N", "3"],
    ["verify", "--seed", "-1"],
    ["verify", "--suite", "nope"],
    ["solve", "--lambda", "nan", "--rhs", "one", "--N", "2"],
    ["expand", "--name", "one", "--N"],
    ["expand", "--name", "one", "--emit-nodes", "--N", "1"],
    ["info", "--bogus"],
    ["info", "extra"],
    ["expand", "--name", "one", "--N", "1", "extra"],
    ["build-op", "--name", "mult_x", "--N", "1", "--", "extra"],
    ["info"],
    ["build-op", "--name", "mult_x", "--N", "2"],
    ["expand", "--name", "x", "--N", "1"],
    ["solve", "--lambda", "2", "--rhs", "one", "--N", "1", "--grid", "1"],
    ["verify", "--suite", "eigen"],
]


@pytest.mark.parametrize("argv", _PARSER_ARGV, ids=" ".join)
def test_main_answers_as_the_full_parser(argv, monkeypatch, capsys):
    # main builds only the invoked command's parser; its exit code, stdout
    # and stderr are those of the full parser, byte for byte
    got = main(argv), *capsys.readouterr()
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
    assert got == (main(argv), *capsys.readouterr())


@pytest.mark.parametrize("argv, error", [
    ([], "the following arguments are required: command"),
    (["bogus"], "argument command: invalid choice: 'bogus'"),
])
def test_the_full_parser_names_its_command_argument(argv, error, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith(f"trikoorn: error: {error}")


@pytest.mark.parametrize("argv, parsers", [
    (["info"], 2),
    (["expand", "--name", "one", "--N", "1"], 2),
    (["build-op", "-h"], 2),
    (["-h"], 6),
    (["bogus"], 6),
])
def test_main_builds_the_invoked_commands_parser_alone(argv, parsers, monkeypatch, capsys):
    # a known command: the top parser and its own, not one per command; no
    # command, or a help flag before it: the full parser's six
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    main(argv)
    assert len(built) == parsers


def test_info_exits_zero(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "suites" in out and "exit_codes" in out


def test_unknown_suite_is_usage_error(capsys):
    assert main(["verify", "--suite", "nosuch"]) == 2


def test_unknown_operator_is_usage_error(capsys):
    assert main(["build-op", "--name", "nosuch", "--N", "3"]) == 2
    err = capsys.readouterr().err
    assert "unknown operator" in err


def test_invalid_build_parameters_exit_three(capsys):
    # x-multiplication needs a > 0
    assert main(["build-op", "--name", "mult_x", "--N", "3", "--a", "0"]) == 3


def test_degenerate_build_parameters_exit_three(capsys):
    assert main(
        ["build-op", "--name", "conv_b", "--N", "3", "--b", "-0.5", "--c", "-0.5"]
    ) == 3


def test_malformed_builtin_is_usage_error(capsys):
    assert main(["expand", "--name", "poly:bad", "--N", "3"]) == 2
    assert main(["solve", "--lambda", "1", "--rhs", "nosuchfunc", "--N", "3"]) == 2
    capsys.readouterr()
    for name, error in (("poly:a,b", "poly id must hold two integers"), ("poly:1,2", "poly id needs 0 <= k <= n")):
        assert main(["expand", "--name", name, "--N", "3"]) == 2
        assert error in capsys.readouterr().err


def test_a_file_named_as_a_builtin_does_not_hijack_solve_rhs(tmp_path, monkeypatch, capsys):
    argv = ["solve", "--lambda", "1", "--rhs", "runge", "--N", "3"]
    want = (main(argv), capsys.readouterr())
    (tmp_path / "runge").write_text("hello\n")
    monkeypatch.chdir(tmp_path)
    assert (main(argv), capsys.readouterr()) == want
    assert want[0] == 0
    # the file itself is read when named as a path
    assert main(["solve", "--lambda", "1", "--rhs", "./runge", "--N", "3"]) == 2
    assert "expected header 'n,k,value', got 'hello'" in capsys.readouterr().err


@pytest.mark.parametrize("scale", ["not-a-number", "inf", "nan", "1e400"])
def test_bad_tolerance_scale_is_usage_error(scale, monkeypatch, capsys):
    monkeypatch.setenv("TRIKOORN_TOL_SCALE", scale)
    assert main(["verify", "--suite", "eigen"]) == 2
    assert "TRIKOORN_TOL_SCALE" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["build-op", "--name", "diff_x", "--N", "-1"],
        ["expand", "--name", "one", "--N", "-1"],
        ["expand", "--name", "one", "--N", "3", "--m", "0"],
        ["solve", "--lambda", "1", "--rhs", "one", "--N", "-1"],
        ["solve", "--lambda", "1", "--rhs", "one", "--N", "3", "--grid", "0"],
        ["solve", "--lambda", "nan", "--rhs", "one", "--N", "3"],
        ["solve", "--lambda", "inf", "--rhs", "one", "--N", "3"],
        ["build-op", "--name", "conv_a", "--N", "3", "--a", "nan"],
        ["expand", "--name", "one", "--N", "3", "--b", "inf"],
        ["solve", "--lambda", "1", "--rhs", "one", "--N", "3", "--c=-inf"],
        ["verify", "--suite", "eigen", "--seed", "-1"],
    ],
)
def test_bad_numeric_flags_are_usage_errors(argv, capsys):
    assert main(argv) == 2
    assert "argument --" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["build-op", "--name", "diff_x", "--N", "3"],
        ["expand", "--name", "one", "--N", "3"],
        ["solve", "--lambda", "1", "--rhs", "one", "--N", "3"],
        ["verify", "--suite", "eigen"],
    ],
)
def test_an_unwritable_out_path_is_usage_error(argv, tmp_path, capsys):
    # verify passes every suite here, so exit 1 would misreport a failure
    out = tmp_path / "missing" / "r"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, where",
    [
        (["solve", "--lambda", "1", "--rhs", "one", "--N", "3", "--grid", "300000"], "_grid_points"),
        (["expand", "--name", "one", "--N", "100000"], "analyze"),
    ],
)
def test_running_out_of_memory_is_usage_error(argv, where, monkeypatch, capsys):
    # a raised MemoryError stands in for the allocation, which overcommit
    # settings let through or refuse depending on the machine; exit 1 would
    # misreport a verification failure
    numpy_message = "Unable to allocate 671. GiB for an array with shape (45000450001, 2) and data type float64"
    for exc, want in ((MemoryError(numpy_message), f": {numpy_message}"), (MemoryError(), "")):

        def alloc(*args, exc=exc, **kwargs):
            raise exc

        monkeypatch.setattr(cli, where, alloc)
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: out of memory{want}\n"


def test_finite_parameters_outside_the_domain_exit_three(capsys):
    assert main(["build-op", "--name", "conv_a", "--N", "3", "--a", "-2"]) == 3
    assert main(["expand", "--name", "one", "--N", "3", "--c", "-1"]) == 3


@pytest.mark.parametrize("m", ["1", "3"])
def test_expand_rule_below_degree_plus_one_is_usage_error(m, capsys):
    assert main(["expand", "--name", "x", "--N", "3", "--m", m]) == 2
    assert "below N + 1 = 4" in capsys.readouterr().err


def test_large_exponents_expand_and_solve(tmp_path):
    # gamma(a + b + 2) overflows here, the rule and the expansion do not
    out = tmp_path / "c.csv"
    assert main(["expand", "--name", "x", "--N", "2", "--a", "200", "--out", str(out)]) == 0
    assert abs(_read_coeffs(out)[(0, 0)] - 201.0 / 203.0) < 1e-12
    assert main(["solve", "--lambda", "1", "--rhs", "one", "--N", "2", "--c", "400", "--out", str(out)]) == 0
    assert all(np.isfinite(v) for v in _read_coeffs(out).values())


@pytest.mark.parametrize(
    "argv",
    [
        ["expand", "--name", "x", "--N", "2", "--a", "1e300"],
        ["expand", "--name", "x", "--N", "0", "--a", "1e300"],
        ["build-op", "--name", "diff_x", "--N", "3", "--a", "1e308", "--b", "1e308"],
    ],
)
def test_float64_overflow_exits_three(argv, capsys):
    assert main(argv) == 3
    err = capsys.readouterr()
    assert "float64" in err.err and err.out == ""


# ----------------------------------------------------------------- build-op


def test_build_op_writes_matrix_and_descriptor(tmp_path, capsys):
    out = tmp_path / "dy.mtx"
    assert main(["build-op", "--name", "diff_y", "--N", "4", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "%%MatrixMarket matrix coordinate real general"
    nr, nc, nnz = (int(t) for t in lines[1].split())
    assert nnz == 4 * 5 // 2
    assert (nr, nc) == (tk.basis_size(3), tk.basis_size(4))
    back = tk.load_matrix_market(out)
    ref = tk.build_diff_y(4, tk.TriParams(0, 0, 0, 0))
    assert np.allclose(tk.to_dense(back), tk.to_dense(ref), atol=0)


def test_build_op_stdout_contains_descriptor(capsys):
    assert main(["build-op", "--name", "eigen_k", "--N", "2", "--b", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "%%MatrixMarket matrix coordinate real general" in out
    assert "name=eigen_k" in out
    assert "domain.b=0.5" in out
    assert "range.maxdeg=2" in out


def test_build_op_degree_zero_has_no_entries(tmp_path):
    out = tmp_path / "z.mtx"
    assert main(["build-op", "--name", "diff_y", "--N", "0", "--out", str(out)]) == 0
    assert int(out.read_text().splitlines()[1].split()[2]) == 0


# ------------------------------------------------------------------- expand


def test_expand_builtin_one_gives_unit_coefficient(tmp_path):
    out = tmp_path / "c.csv"
    assert main(["expand", "--name", "one", "--N", "3", "--out", str(out)]) == 0
    got = _read_coeffs(out)
    assert abs(got[(0, 0)] - 1.0) < 1e-12
    rest = [v for key, v in got.items() if key != (0, 0)]
    assert max(abs(v) for v in rest) < 1e-12


def test_expand_builtin_x_matches_multiplication_column(tmp_path):
    out = tmp_path / "c.csv"
    assert main(
        ["expand", "--name", "x", "--N", "3", "--a", "0", "--out", str(out)]
    ) == 0
    got = _read_coeffs(out)
    op = tk.build_mult_x(2, tk.TriParams(1.0, 0.0, 0.0, 0.0))
    col = tk.to_dense(op)[:, 0]
    for lin, want in enumerate(col):
        idx = tk.linear_to_index(lin)
        assert abs(got[(idx.n, idx.k)] - want) < 1e-12


def test_expand_emit_nodes_then_values_round_trip(tmp_path):
    nodes = tmp_path / "nodes.csv"
    assert main(["expand", "--emit-nodes", "--N", "3", "--m", "5", "--out", str(nodes)]) == 0
    rows = [l.split(",") for l in nodes.read_text().splitlines()[1:]]
    assert len(rows) == 25
    pts = np.array([[float(r[0]), float(r[1])] for r in rows])
    vals = 1.0 + 2.0 * pts[:, 0]
    filled = tmp_path / "vals.csv"
    tk.save_values_csv(pts, vals, filled)
    out = tmp_path / "c.csv"
    assert main(
        ["expand", "--values", str(filled), "--N", "3", "--m", "5", "--out", str(out)]
    ) == 0
    got = _read_coeffs(out)
    # 1 + 2x = (5/3) + (2/3)(3x - 1) in the degree-(0,1) modes
    assert abs(got[(0, 0)] - 5.0 / 3.0) < 1e-12
    assert abs(got[(1, 0)] - 2.0 / 3.0) < 1e-12
    tail = [v for key, v in got.items() if key not in ((0, 0), (1, 0))]
    assert max(abs(v) for v in tail) < 1e-12


def test_expand_rejects_values_off_the_rule_nodes(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y,value\n0.1,0.1,1.0\n")
    assert main(["expand", "--values", str(bad), "--N", "3", "--m", "5"]) == 2
    err = capsys.readouterr().err
    assert "emit-nodes" in err


def test_expand_rejects_malformed_csv(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y,value\n0.1,not-a-number,1.0\n")
    assert main(["expand", "--values", str(bad), "--N", "3"]) == 2


# -------------------------------------------------------------------- solve


def test_solve_shifts_constant_mode(tmp_path):
    out = tmp_path / "u.csv"
    assert main(
        ["solve", "--lambda", "1", "--rhs", "one", "--N", "4", "--out", str(out)]
    ) == 0
    got = _read_coeffs(out)
    # constant eigenvalue is 0, so u = f at lambda = 1
    assert abs(got[(0, 0)] - 1.0) < 1e-12
    grid = (tmp_path / "u.csv.grid.csv").read_text().splitlines()
    assert grid[0] == "x,y,value"
    vals = np.array([float(l.split(",")[2]) for l in grid[1:]])
    assert np.max(np.abs(vals - 1.0)) < 1e-12


def test_solve_divides_by_shifted_eigenvalue(tmp_path):
    rhs = tmp_path / "f.csv"
    _write_full_coeffs(rhs, 4, {(2, 1): 1.0})
    out = tmp_path / "u.csv"
    assert main(
        ["solve", "--lambda", "0", "--rhs", str(rhs), "--N", "4", "--out", str(out)]
    ) == 0
    got = _read_coeffs(out)
    # -mu_2 = 2 * (2 + 2) = 8 at zero parameters
    assert abs(got[(2, 1)] - 0.125) < 1e-14
    rest = [v for key, v in got.items() if key != (2, 1)]
    assert max(abs(v) for v in rest) < 1e-12


def test_solve_builtin_rhs_matches_csv_rhs(tmp_path):
    out = tmp_path / "u.csv"
    assert main(
        ["solve", "--lambda", "0", "--rhs", "poly:2,1", "--N", "4", "--out", str(out)]
    ) == 0
    got = _read_coeffs(out)
    assert abs(got[(2, 1)] - 0.125) < 1e-12


def test_solve_excited_resonance_exits_three(capsys):
    # lambda = 0 is the constant-mode eigenvalue; exciting it is an error
    assert main(["solve", "--lambda", "0", "--rhs", "one", "--N", "4"]) == 3
    err = capsys.readouterr().err
    assert "resonant" in err


def test_solve_grid_size_flag(tmp_path):
    out = tmp_path / "u.csv"
    assert main(
        [
            "solve",
            "--lambda",
            "2",
            "--rhs",
            "one",
            "--N",
            "2",
            "--grid",
            "4",
            "--out",
            str(out),
        ]
    ) == 0
    rows = (tmp_path / "u.csv.grid.csv").read_text().splitlines()[1:]
    assert len(rows) == 5 * 6 // 2


def test_solve_grid_points_equal_the_nested_loop():
    for g in (1, 2, 7, 200):
        want = np.array([(i / g, j / g) for i in range(g + 1) for j in range(g + 1 - i)])
        got = cli._grid_points(g)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_expand_at_degree_200_gives_finite_coefficients(tmp_path):
    # the points x basis table of this call would take 40401 x 20301 doubles, 6.6 GB
    out = tmp_path / "c.csv"
    assert main(["expand", "--name", "runge", "--N", "200", "--a", "0.5", "--b", "0.5", "--c", "1", "--out", str(out)]) == 0
    coeffs = _read_coeffs(out)
    assert len(coeffs) == 201 * 202 // 2
    assert all(np.isfinite(v) for v in coeffs.values())


def test_solve_rejects_short_coefficient_file(tmp_path, capsys):
    rhs = tmp_path / "f.csv"
    rhs.write_text("n,k,value\n2,1,1.0\n")
    assert main(["solve", "--lambda", "1", "--rhs", str(rhs), "--N", "4"]) == 2


# ------------------------------------------------------------------- verify


def test_verify_single_suite_text_and_json(tmp_path, capsys):
    out = tmp_path / "report.txt"
    assert main(["verify", "--suite", "eigen", "--seed", "3", "--out", str(out)]) == 0
    text = out.read_text()
    assert "suite=eigen" in text
    assert "pass=true" in text
    assert "overall=pass" in text
    twin = json.loads((tmp_path / "report.txt.json").read_text())
    assert twin["seed"] == 3
    assert twin["overall"] == "pass"
    names = [r["suite"] for r in twin["suites"]]
    assert names == ["eigen"]
    assert twin["suites"][0]["pass"] is True
    assert twin["suites"][0]["blocks"]


def test_verify_reports_are_deterministic(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    assert main(["verify", "--suite", "operators", "--seed", "11", "--out", str(a)]) == 0
    assert main(["verify", "--suite", "operators", "--seed", "11", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.txt.json").read_bytes() == (tmp_path / "b.txt.json").read_bytes()


def test_verify_seed_changes_sampled_cases(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    assert main(["verify", "--suite", "operators", "--seed", "1", "--out", str(a)]) == 0
    assert main(["verify", "--suite", "operators", "--seed", "2", "--out", str(b)]) == 0
    assert a.read_bytes() != b.read_bytes()


@pytest.mark.parametrize(
    "name, term, factor, block",
    [
        ("diff_x", 0, 1 + 1e-10, "derivative_equivalence"),
        ("diff_x", 1, 1 + 1e-10, "derivative_equivalence"),
        ("eigen_n", 0, 1 + 1e-8, "second_order_equivalence"),
    ],
)
def test_verify_operators_fails_on_a_small_stencil_defect(name, term, factor, block, monkeypatch, tmp_path):
    # one stencil term off by a relative 1e-10 moves derivative_equivalence
    # to 2e-9..6e-9, and 1e-8 moves second_order_equivalence to 1e-8: both
    # pass a 1e-7 or 1e-5 bound, and both fail the exact class's 1e-10
    st = operators._STENCILS[name]
    terms = list(st.terms)
    dn, dk, num = terms[term]
    terms[term] = (dn, dk, lambda *abc: num(*abc) * factor)
    monkeypatch.setitem(operators._STENCILS, name, st._replace(terms=tuple(terms)))
    out = tmp_path / "r.txt"
    for seed in (0, 1, 14):
        assert main(["verify", "--suite", "operators", "--seed", str(seed), "--out", str(out)]) == 1
        worst = json.loads((tmp_path / "r.txt.json").read_text())["suites"][0]["worst_case"]
        assert (worst["block"], worst["id"]) == (block, name)


def test_verify_operators_fails_on_a_small_ladder_defect(monkeypatch, tmp_path):
    # conv_a's stencil is the x3 chain of the ladder table, so a relative 1e-10
    # defect in that one ladder factor moves the partition of unity to 2.6e-9
    key = ("x", 3, False)
    op = ladders._LADDERS[key]
    defect = op._replace(factor=lambda n, k, p: op.factor(n, k, p) * (1 + 1e-10))
    monkeypatch.setitem(ladders._LADDERS, key, defect)
    out = tmp_path / "r.txt"
    for seed in (0, 1, 14):
        assert main(["verify", "--suite", "operators", "--seed", str(seed), "--out", str(out)]) == 1
        worst = json.loads((tmp_path / "r.txt.json").read_text())["suites"][0]["worst_case"]
        assert (worst["block"], worst["id"]) == ("structure", "partition_of_unity")


def test_verify_operators_passes_on_a_seed_that_defeated_finite_differences(tmp_path):
    # seed 14 put diff_x and diff_z residuals of a differenced oracle above
    # 1e-7; exact partials leave them at roundoff.  On these seeds a
    # differenced Hessian left the second-order blocks at 4.5e-10 to 9.0e-7,
    # and the exact ones of _hessian_jets leave them at roundoff too, far
    # inside the exact class's 1e-10
    out = tmp_path / "r.txt"
    for seed in (0, 1, 14):
        residuals = {}
        for suite in ("operators", "eigen"):
            assert main(["verify", "--suite", suite, "--seed", str(seed), "--out", str(out)]) == 0
            blocks = json.loads((tmp_path / "r.txt.json").read_text())["suites"][0]["blocks"]
            residuals.update((b["name"], b["max_residual"]) for b in blocks)
        assert residuals["derivative_equivalence"] < 1e-12
        for name in ("second_order_equivalence", "second_order_pointwise", "solve_residual"):
            assert residuals[name] < 1e-11, (seed, name, residuals[name])


def test_verify_stdout_mode_prints_text_report(capsys):
    assert main(["verify", "--suite", "eigen"]) == 0
    out = capsys.readouterr().out
    assert "suite=eigen" in out
    assert "overall=pass" in out


def test_solve_rejects_non_finite_coefficients(tmp_path, capsys):
    rhs = tmp_path / "f.csv"
    rhs.write_text("n,k,value\n0,0,1.0\n1,0,nan\n1,1,0.5\n")
    out = tmp_path / "u.csv"
    assert main(["solve", "--lambda", "1", "--rhs", str(rhs), "--N", "1", "--out", str(out)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--lambda", "2.5", "--rhs", "runge", "--N", "60", "--grid", "200", "--a", "1", "--c", "1.5"],
        ["expand", "--name", "runge", "--N", "20", "--a", "0.5", "--b", "-0.9", "--c", "-0.9"],
    ],
    ids=["solve", "expand"],
)
def test_csv_outputs_equal_the_per_row_format(tmp_path, monkeypatch, argv):
    # solve writes 1891 coefficient and 20301 grid rows (the vectorized
    # writer), expand at N = 20 writes 231 rows (the per-row one)
    want = {}
    out = str(tmp_path / "out.csv")

    def coeffs(vec):
        n, k = tk.koornwinder._graded_indices(vec.basis.maxdeg)
        want[out] = ["n,k,value"] + [f"{a},{b},{v:.17g}" for a, b, v in zip(n, k, vec.values)]
        return tk.transform.coeffs_csv_text(vec)

    def values(pts, vals):
        want[out + ".grid.csv"] = ["x,y,value"] + [f"{x:.17g},{y:.17g},{v:.17g}" for (x, y), v in zip(pts, vals)]
        return tk.transform.values_csv_text(pts, vals)

    monkeypatch.setattr(cli, "coeffs_csv_text", coeffs)
    monkeypatch.setattr(cli, "values_csv_text", values)
    assert main([*argv, "--out", out]) == 0
    assert len(want) == (2 if argv[0] == "solve" else 1)
    for path, lines in want.items():
        assert open(path).read() == "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "argv, suffixes, sep",
    [
        (["verify", "--suite", "eigen", "--seed", "3"], ["", ".json"], ""),
        (["build-op", "--name", "mult_same_y", "--N", "5", "--a", "0.5", "--b", "1.5", "--c", "2.5"], ["", ".desc"], ""),
        (["expand", "--emit-nodes", "--N", "4"], [""], ""),
        (["expand", "--name", "runge", "--N", "6", "--b", "-0.9", "--c", "-0.9"], [""], ""),
        (["solve", "--lambda", "2.5", "--rhs", "runge", "--N", "6", "--grid", "5"], ["", ".grid.csv"], "\n"),
    ],
    ids=["verify", "build-op", "expand-nodes", "expand-name", "solve"],
)
def test_stdout_equals_the_out_files_joined(tmp_path, capsys, argv, suffixes, sep):
    out = str(tmp_path / "out")
    assert main([*argv, "--out", out]) == 0
    assert sorted(os.listdir(tmp_path)) == sorted("out" + s for s in suffixes)
    files = [open(out + s).read() for s in suffixes]
    assert capsys.readouterr().out == ""
    assert main(argv) == 0
    assert capsys.readouterr().out == sep.join(files)


def _solve_per_degree(fc, lam):
    # the reference for cli._solve_coeffs: one division per degree block
    p, N = fc.basis.params, fc.basis.maxdeg
    out = np.empty_like(fc.values)
    negligible = 1e-12 * max(1.0, float(np.max(np.abs(fc.values))))
    for n in range(N + 1):
        mu = -n * (n + p.a + p.b + p.c + 2.0)
        lo, hi = n * (n + 1) // 2, (n + 1) * (n + 2) // 2
        if abs(lam - mu) < 1e-12 * max(1.0, abs(lam)):
            if np.max(np.abs(fc.values[lo:hi])) > negligible:
                raise cli.ResonanceError(f"lambda = {lam!r} is resonant with the eigenvalue {mu!r} at n = {n}")
            out[lo:hi] = 0.0
        else:
            out[lo:hi] = fc.values[lo:hi] / (lam - mu)
    return out


def _solve_outcome(solve, fc, lam):
    try:
        return solve(fc, lam)
    except cli.ResonanceError as exc:
        return str(exc)


@pytest.mark.parametrize("pset", [(0.0, 0.0, 0.0), (0.5, 1.5, 2.5), (1.0, -0.9, -0.9)])
def test_solve_coeffs_equal_the_per_degree_division(pset):
    rng = np.random.default_rng(21)
    q = tk.TriParams(*pset)
    N = 9
    values = rng.standard_normal(tk.basis_size(N))
    mu = [-n * (n + q.a + q.b + q.c + 2.0) for n in range(3)]
    # a shift off every eigenvalue, and each of the first three eigenvalues,
    # exactly and 1e-13 relative away; each against the right-hand side with
    # no degree left unexcited, and with each of degrees 0, 1, 2 in turn
    for lam in [2.5, -7.25, *mu, mu[2] * (1 + 1e-13)]:
        for quiet in (None, 0, 1, 2):
            vals = values.copy()
            if quiet is not None:
                vals[quiet * (quiet + 1) // 2 : (quiet + 1) * (quiet + 2) // 2] *= 1e-14
            fc = tk.CoeffVec(tk.BasisTag(q, False, N), vals)
            want = _solve_outcome(_solve_per_degree, fc, lam)
            got = _solve_outcome(lambda fc, lam: cli._solve_coeffs(fc, lam).values, fc, lam)
            if isinstance(want, str):
                assert got == want
            else:
                assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
    # the resonant degree 2, left unexcited, is zeroed; excited, it is named
    fc = tk.CoeffVec(tk.BasisTag(q, False, N), values)
    vals = values.copy()
    vals[3:6] *= 1e-14
    got = cli._solve_coeffs(tk.CoeffVec(fc.basis, vals), mu[2]).values
    assert np.all(got[3:6] == 0.0) and np.all(got[:3] != 0.0) and np.all(got[6:] != 0.0)
    with pytest.raises(cli.ResonanceError) as exc:
        cli._solve_coeffs(fc, mu[2])
    assert str(exc.value) == f"lambda = {mu[2]!r} is resonant with the eigenvalue {mu[2]!r} at n = 2"


def test_solve_rejects_a_repeated_coefficient_row(tmp_path, capsys):
    # (1, 0) twice and (1, 1) missing: the row count matches the basis size
    rhs = tmp_path / "f.csv"
    rhs.write_text("n,k,value\n0,0,1.0\n1,0,2.0\n1,0,3.0\n")
    out = tmp_path / "u.csv"
    assert main(["solve", "--lambda", "1", "--rhs", str(rhs), "--N", "1", "--out", str(out)]) == 2
    assert "(1, 0) appears twice" in capsys.readouterr().err
    assert not out.exists()


def test_expand_rejects_non_finite_sampled_values(tmp_path, capsys):
    nodes = tmp_path / "nodes.csv"
    assert main(["expand", "--emit-nodes", "--N", "2", "--out", str(nodes)]) == 0
    lines = nodes.read_text().splitlines()
    x, y, _ = lines[2].split(",")
    lines[2] = f"{x},{y},nan"
    nodes.write_text("\n".join(lines) + "\n")
    out = tmp_path / "c.csv"
    assert main(["expand", "--values", str(nodes), "--N", "2", "--out", str(out)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_worst_records_a_nan_residual_as_inf():
    acc = cli._Worst()
    acc.update(float("nan"), {"id": "first"})
    acc.update(1e-14, {"id": "second"})
    assert (acc.value, acc.case, acc.cases) == (float("inf"), {"id": "first"}, 2)
    rows = cli._Worst()
    lhs = np.array([[1.0, 2.0, 3.0], [1.0, np.nan, 3.0], [0.0, 9.0, 0.0]])
    rows.update_max(*cli._scaled_residual(lhs, np.zeros(3)), lambda i, j: {"row": i, "point": j})
    assert (rows.value, rows.case, rows.cases) == (float("inf"), {"row": 1, "point": 1}, 3)


def _scaled_residual_four_passes(lhs, rhs):
    # the reference: |lhs|, |rhs|, their maximum and lhs - rhs, each a new array
    lhs = np.asarray(lhs, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    den = np.atleast_1d(np.maximum(np.abs(lhs), np.abs(rhs)))
    rvec = np.atleast_1d(lhs - rhs)
    np.abs(rvec, out=rvec)
    rvec /= np.maximum(den, 1.0, out=den)
    j = np.argmax(rvec, axis=-1)
    r = np.take_along_axis(rvec, j[..., None], -1)[..., 0]
    if np.isnan(r).any():
        rvec[np.isnan(rvec)] = np.inf
        j = np.argmax(rvec, axis=-1)
        r = np.take_along_axis(rvec, j[..., None], -1)[..., 0]
    return r, j


def test_scaled_residual_equals_the_four_pass_formula():
    rng = np.random.default_rng(26)
    big = rng.standard_normal((8, 66, 20)) * 10.0 ** rng.integers(-3, 4, (8, 66, 20))
    cases = [
        (big, big + rng.standard_normal(big.shape) * 1e-12),
        (rng.standard_normal((25, 21, 50)), rng.standard_normal((25, 21, 1))),  # rhs broadcasts
        (rng.standard_normal((3, 7)), 0.0),
        (1.5, 2.0),  # 0-d: one row of one point
        ([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]),  # all zero: the first point
        (np.ones((4, 6)), np.array([2.0, 0.0, 2.0, 0.0, 2.0, 0.0])),  # ties
    ]
    lhs, rhs = rng.standard_normal((6, 9)), np.zeros((6, 9))
    lhs[0, 4] = np.nan
    lhs[1, [2, 7]] = np.nan
    lhs[2, 3], rhs[2, 3], lhs[2, 5] = 1e308, -1e308, np.nan  # an inf residual before the first NaN
    lhs[3, 1], lhs[3, 6] = -np.inf, np.inf
    lhs[4, :] = np.inf
    rhs[5, [0, 5]] = np.inf
    cases += [(lhs, rhs), (lhs, rhs[5])]
    cases.append((np.array([1e308, -1e308, 0.0]), np.array([-1e308, 1e308, 1.0])))  # lhs - rhs overflows
    for lhs, rhs in cases:
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, inf / inf, 1e308 + 1e308
            r, j = cli._scaled_residual(lhs, rhs)
            want_r, want_j = _scaled_residual_four_passes(lhs, rhs)
        assert r.shape == want_r.shape and j.shape == want_j.shape
        assert np.array_equal(r, want_r) and np.array_equal(j, want_j)
        assert not np.isnan(r).any()


def test_a_nan_residual_fails_the_verification(monkeypatch, tmp_path):
    second_order_k = cli._second_order_k
    calls = []

    def one_nan(params, x, y, jets):
        out = second_order_k(params, x, y, jets)
        calls.append(None)
        # one sample of one element, in the second parameter set's rows
        if len(calls) == 2:
            out = out.copy()
            out[4, 3] = np.nan
        return out

    monkeypatch.setattr(cli, "_second_order_k", one_nan)
    out = tmp_path / "r.txt"
    assert main(["verify", "--suite", "eigen", "--seed", "0", "--out", str(out)]) == 1
    report = json.loads((tmp_path / "r.txt.json").read_text())
    assert report["overall"] == "fail"
    suite = report["suites"][0]
    assert suite["pass"] is False and suite["max_residual"] == float("inf")
    block = next(b for b in suite["blocks"] if b["name"] == "second_order_pointwise")
    assert block["max_residual"] == float("inf") and block["worst_case"]["id"] == "eigen_k"


def _per_set_ladder_sweep(seed, nmax, npts):
    """The ladders suite as a loop over parameter sets, operators and (n, k),
    each set's tables built one family at a time at its re-drawn points."""
    rng = np.random.default_rng([seed, 20])
    acc_a, acc_b = cli._Worst(), cli._Worst()
    pairs = [(n, k) for n in range(nmax + 1) for k in range(n + 1)]
    for pa, pb, pc, pd in itertools.product(cli._TRI_GRID, repeat=4):
        params = tk.TriParams(pa, pb, pc, pd)
        x, y = cli._interior_points(rng, npts)
        pt = tk.TriPoint(x, y)
        tables = {}

        def jets(q):
            key = (q.a, q.b, q.c, q.d)
            if key not in tables:
                tables[key] = koornwinder._tri_tables(nmax + 1, q, x, y, partials=True)
            return tables[key]

        def ev(n, k, q, partials="xy"):
            n, k = np.ravel(n), np.ravel(k)
            ok = (k >= 0) & (k <= n)
            rows = np.where(ok, n * (n + 1) // 2 + k, 0)
            return tuple(np.where(ok[:, None], T[rows], 0.0) for T in jets(q)[: 3 if partials else 1])

        U, UX, UY = jets(params)
        cids = [c for c in tk.CompositionId if c not in _NEEDS_D0]
        cids += [c for c in tk.CompositionId if c in _NEEDS_D0 and pd == 0.0]
        for cid, (n, k) in itertools.product(cids, pairs):
            L, R, degenerate = ladders._composition(cid, np.array([[n]]), np.array([[k]]), params, x, y, ev)
            if degenerate.any():
                acc_b.skip()
                continue
            L, R = L[0], R[0]
            r, j = cli._scaled_residual(L, R)
            case = {"id": cid.name, "n": n, "k": k, "a": pa, "b": pb, "c": pc, "d": pd}
            acc_b.update(r, {**case, "x": float(x[j]), "y": float(y[j])})
        for lid, (n, k) in itertools.product(tk.all_ladder_ids(), pairs):
            idx, i = tk.TriIndex(n, k), n * (n + 1) // 2 + k
            st = tk.ladder_step(lid, idx, params)
            lhs = tk.ladder_pointwise(lid, tk.Jet2(U[i], UX[i], UY[i]), pt, idx, params)
            q, t = st.params, st.index
            if st.factor != 0.0 and -1.0 in (q.a, q.b, q.c, q.d):
                acc_a.skip()
                continue
            rhs = np.zeros(npts)
            if st.factor != 0.0 and 0 <= t.k <= t.n:
                rhs = st.factor * jets(q)[0][t.n * (t.n + 1) // 2 + t.k]
            r, j = cli._scaled_residual(lhs, rhs)
            case = {"id": lid.label, "n": n, "k": k, "a": pa, "b": pb, "c": pc, "d": pd}
            acc_a.update(r, {**case, "x": float(x[j]), "y": float(y[j])})
    return [acc_a.block("triangle_ladders", "exact"), acc_b.block("composition_identities", "exact")]


def test_vectorized_ladder_sweep_equals_a_per_case_loop(monkeypatch):
    # a 3-value grid still holds both skip kinds (targets at exactly -1 from
    # 0, and 2k + b + c + 1 = 0 at b = c = -0.5) and keeps the test short;
    # its 81 sets end in a part chunk, and d = 0 falls at varying places
    # within the chunks
    seed, nmax, npts = 0, 2, 5
    monkeypatch.setattr(cli, "_TRI_GRID", (-0.5, 0.0, 0.5))
    got = cli.sweep_triangle_ladders(seed, nmax=nmax, npts=npts)
    assert got == _per_set_ladder_sweep(seed, nmax, npts)
    assert got[0].skipped > 0 and got[1].skipped > 0


def test_ladder_sweep_reports_do_not_depend_on_the_chunk_size(monkeypatch):
    # 81 sets, 27 of them with d = 0: d = 0 batches that straddle chunks,
    # end in a part batch, or cover all 27 at once
    monkeypatch.setattr(cli, "_TRI_GRID", (-0.5, 0.0, 1.5))
    want = cli.sweep_triangle_ladders(1, nmax=3, npts=6)
    for chunk, batch in ((1, 1), (3, 2), (16, 5), (8, 4), (8, 8), (8, 27)):
        monkeypatch.setattr(cli, "_LADDER_CHUNK", chunk)
        monkeypatch.setattr(cli, "_D0_BATCH", batch)
        assert cli.sweep_triangle_ladders(1, nmax=3, npts=6) == want


def test_ladder_sweep_builds_each_table_once_per_chunk_of_sets(monkeypatch):
    # per chunk of 8 sets: first, for a set with d = 0 not yet run, the d = 0
    # identities' tables on the next 8 such sets (first factors for values,
    # first factors with x-derivatives, second factors for values and with
    # partials); then over all 8 the first factors that keep a, for values
    # and with x-derivatives, and every second factor, for values and with
    # partials; then the first factors with a + 1, and those with a - 1 on
    # the sets with a != 0 (at a = 0 every such target has a = -1 and is
    # skipped).  A first-factor key, (da, sigma) as _Factors.keys names it,
    # gets x-derivatives only where some term reads u_x of it: the keys that
    # only the images under a y-ladder read (the main chunk's (0, +-1), which
    # CONV_B, CONV_C, MULT_Y and MULT_Z read through their x2 and x4 images,
    # and the d = 0 batch's (1, -1), (-1, -1) and (-1, 1)) are built without.
    # No (family, set) entry is built twice in one call, and none on demand
    npts, chunk = 20, cli._LADDER_CHUNK
    grid = list(itertools.product(cli._TRI_GRID, repeat=4))
    xs, ys = cli._interior_points(np.random.default_rng([0, 20]), len(grid) * npts)
    set_of = {row.tobytes(): i for pts in (xs, ys) for i, row in enumerate(pts.reshape(len(grid), npts))}
    calls = []
    first_factors, homog_table = koornwinder._first_factors, koornwinder._homog_table

    def counted_first(N, A, a, x, nderiv=0):
        sets = [set_of[row.tobytes()] for row in x]
        assert len(set(zip(A[:, 0], a, sets))) == len(sets)
        keys = {(round(ai - grid[s][0]), round(A0 - sum(grid[s][1:]) - 1)) for A0, ai, s in zip(A[:, 0], a, sets)}
        calls.append(("first", nderiv, sorted(set(sets)), sorted(keys)))
        return first_factors(N, A, a, x, nderiv)

    def counted_second(N, c, b, y, s, partials=False):
        sets = [set_of[row.tobytes()] for row in y]
        assert len(set(zip(c, b, sets))) == len(sets)
        calls.append(("second", int(partials), sorted(set(sets))))
        return homog_table(N, c, b, y, s, partials)

    monkeypatch.setattr(koornwinder, "_first_factors", counted_first)
    monkeypatch.setattr(koornwinder, "_homog_table", counted_second)
    cli.sweep_triangle_ladders(0, nmax=3, npts=npts)
    want, d0, done = [], [s for s, p in enumerate(grid) if p[3] == 0.0], set()
    for lo in range(0, len(grid), chunk):
        every = list(range(lo, lo + chunk))
        for s in (s for s in every if s in d0 and s not in done):
            batch = d0[d0.index(s) :][: cli._D0_BATCH]
            done.update(batch)
            want += [("first", 0, batch, [(-1, -1), (-1, 1), (1, -1), (1, 1), (1, 3), (2, 2)])]
            want += [("first", 1, batch, [(0, 0)]), ("second", 0, batch), ("second", 1, batch)]
        want += [("first", 0, every, [(0, -1), (0, 1)]), ("first", 1, every, [(0, 0)])]
        want += [("second", 0, every), ("second", 1, every), ("first", 0, every, [(1, -1), (1, 0), (1, 1)])]
        moved = [s for s in every if grid[s][0] != 0.0]
        want += [("first", 0, moved, [(-1, -1), (-1, 0), (-1, 1)])] if moved else []
    assert calls == want


def test_stacked_ladder_sweep_breaks_ties_as_the_per_set_loop(monkeypatch):
    # exact ties: residual 1 at (set 0, operator 1, n = 1), (set 0, operator
    # 2, n = 0) and (set 1, operator 0, n = 0), 0 elsewhere.  A loop over
    # sets, then operators, then rows meets the first one first; an order
    # with operators outermost, or rows before operators, would name another
    seed, npts = 0, 5
    monkeypatch.setattr(cli, "_TRI_GRID", (-0.5, 0.0, 0.5))
    ids = tk.all_ladder_ids()
    general = [c for c in tk.CompositionId if c not in _NEEDS_D0]
    step = cli._step

    def mark(i, n, p):
        first = (p.a == -0.5) & (p.b == -0.5) & (p.c == -0.5)
        set0, set1 = first & (p.d == -0.5), first & (p.d == 0.0)
        return ((i == 1) & set0 & (n == 1)) | ((i == 2) & set0 & (n == 0)) | ((i == 0) & set1 & (n == 0))

    def pointwise(lid, n, k, p, x, y, u, ux, uy):
        return mark(ids.index(lid), n, p) + 0.0 * u

    def composition(cid, n, k, p, x, y, ev, jet=None):
        left = mark(general.index(cid) if cid in general else -1, n, p) + 0.0 * x
        return left, np.zeros_like(left), np.zeros(left.shape, bool)

    monkeypatch.setattr(cli, "_pointwise", pointwise)
    monkeypatch.setattr(cli, "_composition", composition)
    monkeypatch.setattr(cli, "_step", lambda lid, n, k, p: (0.0 * step(lid, n, k, p)[0],) + step(lid, n, k, p)[1:])
    got = cli.sweep_triangle_ladders(seed, nmax=2, npts=npts)
    x, y = cli._interior_points(np.random.default_rng([seed, 20]), npts)
    where = {"n": 1, "k": 0, "a": -0.5, "b": -0.5, "c": -0.5, "d": -0.5, "x": float(x[0]), "y": float(y[0])}
    assert [b.max_residual for b in got] == [1.0, 1.0]
    assert got[0].worst_case == {"id": ids[1].label, **where}
    assert got[1].worst_case == {"id": general[1].name, **where}


def test_ladder_sweep_keeps_its_numpy_peak_small(monkeypatch):
    # two chunks of 8 parameter sets at the suite's degree and points; one
    # chunk holds about 2.35 MB at its peak, and all 256 sets of the suite at
    # once would hold about 190 MB of tables
    monkeypatch.setattr(cli, "_TRI_GRID", (-0.5, 0.0))
    blocks, peak = _traced_peak(lambda: cli.sweep_triangle_ladders(0))
    assert blocks[0].cases > 0 and blocks[1].cases > 0
    assert peak < 8e6


def test_ladders_suite_keeps_its_numpy_peak_under_2_4_mb():
    # the whole suite at seed 0: its 256 sets in chunks of 8, its 64 sets with
    # d = 0 in batches of 8; it peaks at about 2.35 MB, which sets verify's
    # peak RSS.  A small run first makes the one-time allocations of a first
    # call (lazy imports, free lists), and the peak is taken over what was
    # traced before
    cli.sweep_triangle_ladders(0, nmax=2, npts=3)
    blocks, peak = _traced_peak(lambda: cli.sweep_triangle_ladders(0))
    assert [(b.cases, b.skipped) for b in blocks] == [(329568, 75936), (156244, 44)]
    assert peak <= 2.4e6


def test_vectorized_eigen_sweep_equals_a_per_case_loop():
    seed, nmax, npts = 0, 3, 5
    got = cli.sweep_eigen(seed, nmax=nmax, npts=npts)
    rng = np.random.default_rng([seed, 50])
    acc = cli._Worst()
    for params in cli._OPERATOR_PARAM_SETS:
        a, b, c = params.a, params.b, params.c
        x, y = cli._interior_points(rng, npts)
        pt = tk.TriPoint(x, y)
        for n in range(nmax + 1):
            for k in range(n + 1):
                idx = tk.TriIndex(n, k)
                jet = tk.tri_eval_jet(idx, params, pt)
                u, ux, uy = jet.u, jet.ux, jet.uy
                # y1 images u_y, and x5 images n u + (1-x) u_x - y u_y
                sy = tk.ladder_step(tk.LadderId("y", 1), idx, params)
                sx = tk.ladder_step(tk.LadderId("x", 5), idx, params)
                qy = tk.tri_eval_jet(sy.index, sy.params, pt)
                qx = tk.tri_eval_jet(sx.index, sx.params, pt)
                uxy = sy.factor * qy.ux
                uyy = sy.factor * qy.uy
                uxx = (sx.factor * qx.ux - (n - 1) * ux + y * uxy) / (1.0 - x)
                lhs_k = (1.0 - x - y) * y * uyy + ((1.0 + b) * (1.0 - x) - (2.0 + b + c) * y) * uy
                t = a + b + c + 3.0
                lhs_n = x * (1.0 - x) * uxx - 2.0 * x * y * uxy + y * (1.0 - y) * uyy
                lhs_n = lhs_n + (a + 1.0 - t * x) * ux + (b + 1.0 - t * y) * uy
                pset = {"a": a, "b": b, "c": c}
                for name, lhs, mu in (
                    ("eigen_k", lhs_k, -k * (k + b + c + 1.0)),
                    ("eigen_n", lhs_n, -n * (n + a + b + c + 2.0)),
                ):
                    r, j = cli._scaled_residual(lhs, mu * u)
                    acc.update(r, {"id": name, "n": n, "k": k, **pset, "x": float(x[j]), "y": float(y[j])})
    assert got[0] == acc.block("second_order_pointwise", "exact")


@pytest.mark.parametrize(
    "params",
    [tk.TriParams(0.5, -0.5, 1.5, 0.7), tk.TriParams(0.0, -0.9, -0.9, 0.0), tk.TriParams(-0.5, -0.5, -0.5, 0.0)],
)
def test_hessian_jets_match_a_fourth_order_difference(params):
    N, h = 8, 1e-3
    x, y = cli._interior_points(np.random.default_rng(7), 12)
    u, ux, uy, uxx, uxy, uyy = cli._hessian_jets(N, params, x, y)
    for got, want in zip((u, ux, uy), koornwinder._tri_tables(N, params, x, y, partials=True)):
        assert np.array_equal(got, want)

    def diff4(which, dx, dy):
        # fourth-order central difference of an exact first-partial table
        at = [koornwinder._tri_tables(N, params, x + s * dx, y + s * dy, partials=True)[which] for s in (-2, -1, 1, 2)]
        return (at[0] - 8.0 * at[1] + 8.0 * at[2] - at[3]) / (12.0 * h)

    for got, want in ((uxx, diff4(1, h, 0.0)), (uxy, diff4(2, h, 0.0)), (uyy, diff4(2, 0.0, h))):
        assert np.max(cli._scaled_residual(got, want)[0]) < 1e-4


def _hessian_jets_by_tables(N, params, x, y):
    """The second partials from one whole _tri_tables table per family: the
    params, y1's image (a, b+1, c+1, d) and x5's (a+1, b, c, d)."""
    n, k = (v[:, None] for v in koornwinder._graded_indices(N))
    fy, ny, ky, qy = ladders._step(tk.LadderId("y", 1), n, k, params)
    fx, nx, kx, qx = ladders._step(tk.LadderId("x", 5), n, k, params)

    def rows(q, n, k):
        dead = (k < 0) | (k > n)
        at = np.where(dead, 0, n * (n + 1) // 2 + k)[:, 0]
        return [np.where(dead, 0.0, T[at]) for T in koornwinder._tri_tables(N, q, x, y, partials=True)]

    u, ux, uy = koornwinder._tri_tables(N, params, x, y, partials=True)
    _, qy_x, qy_y = rows(qy, ny, ky)
    _, qx_x, _ = rows(qx, nx, kx)
    uxy = fy * qy_x
    uyy = fy * qy_y
    uxx = (fx * qx_x - (n - 1) * ux + y * uxy) / (1.0 - x)
    return u, ux, uy, uxx, uxy, uyy


@pytest.mark.parametrize("params", cli._OPERATOR_PARAM_SETS)
@pytest.mark.parametrize("N", [0, 1, 8])
def test_hessian_jets_equal_the_per_family_tables_on_the_operator_sets(params, N):
    x, y = cli._interior_points(np.random.default_rng(8), 15)
    got = cli._hessian_jets(N, params, x, y)
    for g, w in zip(got, _hessian_jets_by_tables(N, params, x, y), strict=True):
        assert np.array_equal(g, w)


@pytest.mark.parametrize("params", [tk.TriParams(0.3, 0.1, 0.2, 0.0), tk.TriParams(0.0, -0.9, -0.9, 0.0)])
def test_hessian_jets_off_the_half_grid_move_only_the_last_bits(params):
    # y1's image reads the params' first factors at 2k + b + c + d + 1, where
    # its own table sums 2(k - 1) + (b + 1) + (c + 1) + d + 1; u_xx takes u_xy
    N = 8
    x, y = cli._interior_points(np.random.default_rng(9), 15)
    got = cli._hessian_jets(N, params, x, y)
    want = _hessian_jets_by_tables(N, params, x, y)
    for g, w in zip(got[:3], want[:3]):
        assert np.array_equal(g, w)
    for g, w in zip(got[3:], want[3:]):
        assert np.max(cli._scaled_residual(g, w)[0]) < 1e-13


def test_vectorized_jacobi_sweep_equals_a_per_case_loop():
    seed, nmax, npts = 0, 3, 4
    got = cli.sweep_jacobi_ladders(seed, nmax=nmax, npts=npts)
    families = [
        ("interval", -1.0, 0.5, tk.jacobi_ladder_step, tk.jacobi_ladder_pointwise),
        ("shifted", 0.0, 1.0, tk.shifted_ladder_step, tk.shifted_ladder_pointwise),
    ]
    want = []
    for fam_i, (family, lo, dscale, step, pointwise) in enumerate(families):
        rng = np.random.default_rng([seed, 10 + fam_i])
        acc = cli._Worst()
        for a, b in itertools.product(cli._JAC_GRID, repeat=2):
            p = tk.JacobiParams(a, b)
            X = rng.uniform(lo, 1.0, npts)
            x = 0.5 * (X + 1.0) if family == "interval" else X
            src = cli._shifted_table(nmax + 1, a, b, x, nderiv=1)
            tables = {}
            for s, dagger, n in itertools.product(range(1, 7), (False, True), range(nmax + 1)):
                st = step(s, dagger, n, p)
                lhs = pointwise(s, dagger, tk.Jet1(src[0, n], src[1, n] * dscale), n, p, X)
                rhs = np.zeros(npts)
                if st.factor != 0.0 and st.n >= 0:
                    key = (st.params.a, st.params.b)
                    if key not in tables:
                        tables[key] = cli._shifted_table(nmax + 1, key[0], key[1], x)
                    rhs = st.factor * tables[key][0, st.n]
                r, j = cli._scaled_residual(lhs, rhs)
                acc.update(r, {"s": s, "dagger": dagger, "n": n, "a": a, "b": b, "x": float(X[j])})
        want.append(acc.block(f"{family}_ladders", "exact"))
    assert got == want


def test_stacked_jacobi_sweep_breaks_ties_as_the_per_pair_loop(monkeypatch):
    # zero source tables make every left side 0, and target rows of 1e3 make
    # the residual exactly 1 wherever a live operator reads them, 0
    # elsewhere.  Marked: at pair 0 the (a - 1, b - 1) row 3, read by 1T at
    # n = 2, and the (a + 1, b) row 1, read by 2F at n = 1 and 4T at n = 2;
    # at pair 1 the (a + 1, b + 1) row 0, read by 1F at n = 1.  A loop over
    # pairs, then operators, then degrees meets (pair 0, 1T, n = 2) first;
    # degrees before operators would name 2F, operators outermost 1F
    seed, nmax, npts = 0, 3, 4
    pairs = list(itertools.product(cli._JAC_GRID, repeat=2))
    marks = {(0, (-1.0, -1.0), 3), (0, (1.0, 0.0), 1), (1, (1.0, 1.0), 0)}
    samples = [
        np.random.default_rng([seed, 10 + fam_i]).uniform(lo, 1.0, (len(pairs), npts))
        for fam_i, (_, lo, _, _) in enumerate(cli._JAC_FAMILIES)
    ]
    points = [to01(X) for X, (_, _, to01, _) in zip(samples, cli._JAC_FAMILIES)]
    shifted_table = cli._shifted_table

    def tables(deg, a, b, x, nderiv=0):
        T = 0.0 * shifted_table(deg, a, b, x, nderiv)
        if nderiv == 0:  # the targets, each entry at its pair's points
            for e, ab in enumerate(zip(np.ravel(a), np.ravel(b))):
                p = next(p for pts in points for p in range(len(pairs)) if np.array_equal(x[e], pts[p]))
                for row in (row for q, shift, row in marks if q == p and shift == tuple(np.subtract(ab, pairs[p]))):
                    T[0, e, row] = 1e3
        return T

    monkeypatch.setattr(cli, "_shifted_table", tables)
    got = cli.sweep_jacobi_ladders(seed, nmax=nmax, npts=npts)
    for block, X in zip(got, samples):
        assert block.max_residual == 1.0
        assert block.worst_case == {"s": 1, "dagger": True, "n": 2, "a": -0.5, "b": -0.5, "x": float(X[0, 0])}


def test_jacobi_sweep_makes_one_table_call_per_target_shift(monkeypatch):
    # per family, one call for the sources of all pairs, then one for the
    # targets of all pairs at each of the 8 distinct shifts (da, db)
    calls = []
    shifted_table = cli._shifted_table
    pairs = np.array(list(itertools.product(cli._JAC_GRID, repeat=2)))

    def counted(deg, a, b, x, nderiv=0):
        shift = {(float(da), float(db)) for da, db in zip(a - pairs[:, 0], b - pairs[:, 1])}
        calls.append((np.size(a), deg, nderiv, shift.pop() if len(shift) == 1 else None))
        return shifted_table(deg, a, b, x, nderiv)

    monkeypatch.setattr(cli, "_shifted_table", counted)
    cli.sweep_jacobi_ladders(0, nmax=3, npts=4)
    shifts = {(1, 1), (-1, -1), (1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1)}
    for family in (calls[:9], calls[9:]):
        assert family[0] == (25, 3, 1, (0, 0))
        assert [c[:3] for c in family[1:]] == [(25, 4, 0)] * 8
        assert {c[3] for c in family[1:]} == shifts
    assert len(calls) == 18


def test_jacobi_sweep_keeps_its_numpy_peak_small():
    # the suite's pairs, degree and points: a shift's target table holds
    # 0.22 MB and the sources 0.42 MB.  The sweep peaks at about 2.0 MB once
    # a first call has made its one-time allocations (lazy imports, free
    # lists), below the ladders suite's 2.35 MB, which sets verify's peak
    # RSS (test_other_suites_peak_below_the_ladders_suite); this run may be
    # that first call, which peaks at about 2.8 MB
    blocks, peak = _traced_peak(lambda: cli.sweep_jacobi_ladders(0))
    assert [b.cases for b in blocks] == [6300, 6300]
    assert peak < 2.9e6


def _per_case_product_links(seed, nmax, npts):
    """The appendix suite as a loop over parameter sets, (n, k) and links, through jjp_residual and jpj_residual."""
    rng = np.random.default_rng([seed, 40])
    acc = cli._Worst()
    for pa, pb, pc, pd in itertools.product(cli._TRI_GRID, repeat=4):
        params = tk.TriParams(pa, pb, pc, pd)
        x, y = cli._interior_points(rng, npts)
        pt = tk.TriPoint(x, y)
        for n in range(nmax + 1):
            for k in range(n + 1):
                for which, fn in (("jjp", tk.jjp_residual), ("jpj", tk.jpj_residual)):
                    L, R = fn(tk.TriIndex(n, k), params, pt)
                    r, j = cli._scaled_residual(L, R)
                    case = {"id": which, "n": n, "k": k, "a": pa, "b": pb, "c": pc, "d": pd}
                    acc.update(r, {**case, "x": float(x[j]), "y": float(y[j])})
    return [acc.block("product_links", "exact")]


def test_vectorized_product_links_sweep_equals_a_per_case_loop():
    seed, nmax, npts = 0, 3, 4
    got = cli.sweep_product_links(seed, nmax=nmax, npts=npts)
    assert got == _per_case_product_links(seed, nmax, npts)


@pytest.mark.parametrize("nmax", [0, 1])
def test_product_links_sweep_at_the_lowest_degrees_equals_a_per_case_loop(nmax):
    # at nmax = 0 the (A_k + 1, a + 1) first factors have no rows
    got = cli.sweep_product_links(2, nmax=nmax, npts=3)
    assert got == _per_case_product_links(2, nmax, 3)
    assert got[0].cases == 256 * (nmax + 1) * (nmax + 2)


def test_product_links_reports_do_not_depend_on_the_chunk_size(monkeypatch):
    want = cli.sweep_product_links(1, nmax=2, npts=3)
    for chunk in (1, 3, 16, 32, 256):
        monkeypatch.setattr(cli, "_LINK_CHUNK", chunk)
        assert cli.sweep_product_links(1, nmax=2, npts=3) == want


def test_stacked_product_links_break_ties_as_the_per_set_loop(monkeypatch):
    # the left routes read zero tables, and the right routes rows of 1e3, so
    # every marked (set, row, link) has residual exactly 1 and all others 0:
    # an x-partial row marks the jpj link only, a y-partial row both.  Set 1
    # has jpj at (1, 0) and both links at (2, 0), set 2 both at (0, 0).  A
    # loop over sets, then rows, then links meets (set 1, (1, 0), jpj) first;
    # links or rows outermost would name another case
    seed, npts = 0, 4
    monkeypatch.setattr(cli, "_TRI_GRID", (-0.5, 0.0))
    grid = list(itertools.product(cli._TRI_GRID, repeat=4))
    first_factors, shifted_table = cli._first_factors, cli._shifted_table

    class Factors(koornwinder._Factors):
        def __call__(self, n, k, q, partials="xy"):
            u, ux, uy = (np.zeros((len(self.x), n.size, npts)) for _ in range(3))
            for i, key in enumerate(zip(*(v[:, 0, 0] for v in (q.a, q.b, q.c, q.d)))):
                if key == grid[1]:
                    ux[i, 1] = uy[i, 3] = 1e3
                elif key == grid[2]:
                    uy[i, 0] = 1e3
            return u, ux, uy

    monkeypatch.setattr(cli, "_Factors", Factors)
    monkeypatch.setattr(cli, "_first_factors", lambda *args: 0.0 * first_factors(*args))
    monkeypatch.setattr(cli, "_shifted_table", lambda *args: 0.0 * shifted_table(*args))
    for chunk in (32, 16, 1):
        monkeypatch.setattr(cli, "_LINK_CHUNK", chunk)
        (got,) = cli.sweep_product_links(seed, nmax=2, npts=npts)
        x, y = cli._interior_points(np.random.default_rng([seed, 40]), 2 * npts)
        pa, pb, pc, pd = grid[1]
        where = {"a": pa, "b": pb, "c": pc, "d": pd, "x": float(x[npts]), "y": float(y[npts])}
        assert got.max_residual == 1.0
        assert got.worst_case == {"id": "jpj", "n": 1, "k": 0, **where}


def test_product_links_per_link_residuals_equal_one_over_the_interleaved_rows(monkeypatch):
    # each chunk reduces its jjp rows and its jpj rows by one call each, into
    # columns 0::2 and 1::2; one call over the two links' rows interleaved, as
    # (set, n, k, link), gives the same residuals and points bit for bit
    calls, scaled_residual = [], cli._scaled_residual

    def record(L, R):
        calls.append((L, R, *scaled_residual(L, R)))
        return calls[-1][2:]

    monkeypatch.setattr(cli, "_scaled_residual", record)
    cli.sweep_product_links(0, nmax=3, npts=4)
    assert len(calls) == 2 * -(-256 // cli._LINK_CHUNK)
    for jjp, jpj in zip(calls[0::2], calls[1::2]):
        L, R, r, j = (np.stack(v, 2).reshape(len(v[0]), -1, *v[0].shape[2:]) for v in zip(jjp, jpj))
        want_r, want_j = scaled_residual(L, R)
        assert L.shape[1:] == (2 * 10, 4)
        assert np.array_equal(r.view(np.int64), want_r.view(np.int64)) and np.array_equal(j, want_j)


def _traced_peak(run):
    """run()'s result, and the peak that tracemalloc traces above what was held before it."""
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    try:
        return run(), tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()


def test_product_links_sweep_keeps_its_numpy_peak_small():
    # all 256 sets at the suite's degree and points: a chunk of 32 sets holds
    # about 1.3 MB at its peak, and all 256 at once about 10 MB.  A small run
    # first makes the one-time allocations of a first call
    cli.sweep_product_links(0, nmax=2, npts=3)
    (block,), peak = _traced_peak(lambda: cli.sweep_product_links(0))
    assert block.cases == 33792
    assert peak < 2.4e6


@pytest.mark.parametrize("suite", ["jacobi", "operators", "eigen"])
def test_other_suites_peak_below_the_ladders_suite(suite):
    # the ladders suite's numpy peak, about 2.4 MB, sets verify's peak RSS;
    # these suites peak at about 2.0, 0.4 and 0.2 MB (seed 0, after a first
    # call has made its one-time allocations)
    cli._SUITE_FUNCS[suite](0)
    _, peak = _traced_peak(lambda: cli._SUITE_FUNCS[suite](0))
    assert peak < 2.4e6

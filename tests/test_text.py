"""Tests for the row text kernel behind the Matrix Market and CSV writers, and for their one reader."""

import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import trikoorn as tk
from trikoorn import _text
from trikoorn.cli import main
from trikoorn._text import _CHUNK, _SHORT, rows_text


def _reference(columns, sep):
    """The rows as Python formats them, one entry at a time."""
    cells = [["%.17g" % v if c.dtype.kind == "f" else "%d" % v for v in c.tolist()] for c in columns]
    return "".join(sep.join(row) + "\n" for row in zip(*cells))


def _kernel(columns, sep=","):
    """The numpy path, whatever the row count."""
    return _text._chunk_text([np.asarray(c) for c in columns], sep)


_BITS = st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(bits=_BITS)
@example(bits=[0, 2**63, 1, 2**63 + 1])
def test_float_kernel_matches_python_on_bit_patterns(bits):
    x = np.array(bits, dtype=np.uint64).view(np.float64)
    assert _kernel([x]) == _reference([x], ",")


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(x=st.lists(st.floats(width=64), min_size=1, max_size=64))
def test_float_kernel_matches_python_on_floats(x):
    x = np.array(x, dtype=np.float64)
    assert _kernel([x]) == _reference([x], ",")


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(v=st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=64))
@example(v=[0, -1, 9, 10, -(2**63), 2**63 - 1])
def test_int_kernel_matches_python(v):
    v = np.array(v, dtype=np.int64)
    assert _kernel([v, v[::-1].copy()], " ") == _reference([v, v[::-1]], " ")


def _ties():
    # m 2^-k with m odd has the exact decimal m 5^k 10^-k; with 18 significant
    # digits, its last one a 5, it lies half way between two 17-digit texts
    out = []
    for k in range(1, 80):
        for m in range(1, 4096, 2):
            if len(str(m * 5**k)) == 18:
                out.append(m * 2.0**-k)
    return np.array(out)


def _fixed_cases():
    big = np.finfo(np.float64).max
    edges = [1e-270, 1e290, 1e-4, 1e-5, 1e16, 1e17, 9999999999999999.0, 99999999999999999.0]
    near = [np.nextafter(e, t) for e in edges for t in (0.0, np.inf)]
    return np.array(
        [0.0, np.inf, np.nan, 5e-324, big, 2.0**-25, 0.1, 1 / 3, 2 / 3, 123456789012345678.0]
        + edges
        + near
        + [10.0**k for k in range(-30, 31)]
        + [1.5 * 10.0**k for k in range(-30, 31)]
    )


@pytest.mark.parametrize("cases", [_fixed_cases(), _ties()], ids=["fixed", "ties"])
def test_float_kernel_matches_python_on_fixed_cases(cases):
    x = np.concatenate([cases, -cases])
    assert _kernel([x]) == _reference([x], ",")


def test_ties_are_exact_halves_and_take_the_fallback():
    x = _ties()
    assert x.size > 1000
    for v in x[:: x.size // 20].tolist():
        num, den = v.as_integer_ratio()
        digits = str(num * 10**80 // den).rstrip("0")
        assert len(digits) == 18 and digits[-1] == "5"
    assert _text._digits(x)[2].all()


def test_float_kernel_matches_python_on_random_bit_patterns():
    x = np.random.default_rng(0).integers(0, 2**64, 100_000, dtype=np.uint64).view(np.float64)
    assert rows_text("", [x], ",") == _reference([x], ",")


@pytest.mark.parametrize("n", [0, 1, _SHORT - 1, _SHORT, _CHUNK - 1, _CHUNK, _CHUNK + 1])
def test_rows_text_matches_python_at_every_row_count(n):
    rng = np.random.default_rng(n)
    i = rng.integers(-5, 20000, n)
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 20, n)
    x[::7] = 0.0
    x[::11] = np.inf
    assert rows_text("head\n", [i, x, x[::-1]], ",") == "head\n" + _reference([i, x, x[::-1]], ",")


def test_rows_text_rejects_columns_of_unequal_length():
    with pytest.raises(ValueError, match="one length"):
        rows_text("", [np.arange(3), np.zeros(2)], ",")


def test_matrix_market_text_peak_stays_under_three_texts():
    # one 3.2 MB text; the Python formatter's peak was about 18.7 MB
    op = tk.build_mult_same_y(150, tk.TriParams(0.5, 1.5, 2.5, 0.0))
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        text = tk.operators.matrix_market_text(op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert len(text) > 3e6
    assert peak < 3 * len(text)


def test_cli_import_loads_neither_fractions_nor_decimal():
    # the power-of-ten table is built from Python ints on first use, and no
    # module of the package imports scipy
    src = os.path.dirname(os.path.dirname(tk.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        "import sys; import trikoorn.cli; "
        "print('fractions' in sys.modules, 'decimal' in sys.modules, any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False False False"


# ----------------------------------------------------------------- reader

_EDGE = np.array(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308, 1e-300, 0.1, 1 / 3]
)


@pytest.mark.parametrize("N", [3, 24], ids=["python-rows", "kernel-rows"])
def test_every_format_reads_back_edge_doubles_bit_for_bit(tmp_path, N):
    basis = tk.BasisTag(tk.TriParams(0, 0, 0, 0), False, N)
    rng = np.random.default_rng(N)
    tail = rng.standard_normal(basis.size - _EDGE.size) * 10.0 ** rng.integers(-300, 300, basis.size - _EDGE.size)
    v = np.concatenate([_EDGE, tail])
    tk.save_coeffs_csv(tk.CoeffVec(basis, v), tmp_path / "c.csv")
    got = [tk.load_coeffs_csv(tmp_path / "c.csv", basis).values]
    tk.save_values_csv(np.column_stack([v, v[::-1]]), -v, tmp_path / "v.csv")
    pts, vals = tk.load_values_csv(tmp_path / "v.csv")
    got += [pts[:, 0], pts[:, 1][::-1], -vals]
    i = np.arange(basis.size)
    tk.save_matrix_market(tk.SparseOp.from_triplets(basis, basis, i, i, v), tmp_path / "o.mtx")
    got.append(tk.load_matrix_market(tmp_path / "o.mtx").vals)
    for g in got:
        assert np.array_equal(g.view(np.int64), v.view(np.int64))


_BASIS1 = tk.BasisTag(tk.TriParams(0, 0, 0, 0), False, 1)
_LOADERS = {
    "coeffs": lambda path: tk.load_coeffs_csv(path, _BASIS1),
    "values": tk.load_values_csv,
    "matrix": tk.load_matrix_market,
}
# each fault mangles the body lines of a file whose columns are split by sep;
# the message fragment is pinned where it does not depend on the format
_FAULTS = {
    "missing-field": (lambda body, sep: [body[0].rsplit(sep, 1)[0], *body[1:]], None),
    "extra-field": (lambda body, sep: [body[0] + sep + "1", *body[1:]], None),
    "comment-line": (lambda body, sep: ["# a comment", *body], None),
    "empty-body": (lambda body, sep: [], "no rows after the header"),
    "nan": (lambda body, sep: [body[0].rsplit(sep, 1)[0] + sep + "nan", *body[1:]], "not finite"),
}


def _mangled(tmp_path, fmt, fault):
    """A library-written file of format fmt with one fault in its body."""
    path = tmp_path / ("f.mtx" if fmt == "matrix" else "f.csv")
    if fmt == "coeffs":
        tk.save_coeffs_csv(tk.CoeffVec(_BASIS1, np.array([1.0, 2.0, 3.0])), path)
    elif fmt == "values":
        tk.save_values_csv(np.array([[0.1, 0.2], [0.3, 0.4]]), np.array([1.0, 2.0]), path)
    else:
        tk.save_matrix_market(tk.build_conv_a(2, tk.TriParams(0.5, 0.5, 0.5, 0.0)), path)
    sep, nhead = (" ", 2) if fmt == "matrix" else (",", 1)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:nhead] + _FAULTS[fault][0](lines[nhead:], sep)) + "\n")
    return path


@pytest.mark.parametrize("fault", list(_FAULTS))
@pytest.mark.parametrize("fmt", list(_LOADERS))
def test_each_loader_rejects_a_malformed_body_without_a_warning(tmp_path, fmt, fault):
    path = _mangled(tmp_path, fmt, fault)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=_FAULTS[fault][1]):
            _LOADERS[fmt](path)


@pytest.mark.parametrize("fault", list(_FAULTS))
@pytest.mark.parametrize("fmt", ["coeffs", "values"])
def test_cli_reports_a_malformed_file_in_one_error_line(tmp_path, capsys, fmt, fault):
    path = str(_mangled(tmp_path, fmt, fault))
    flags = ["solve", "--lambda", "1", "--rhs", path] if fmt == "coeffs" else ["expand", "--values", path]
    assert main([*flags, "--N", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1

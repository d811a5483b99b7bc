"""Tests for the sparse coefficient-space operator builders."""

from dataclasses import replace

import numpy as np
import pytest

import trikoorn as tk
from trikoorn import operators as ops


def _rng(tag):
    return np.random.default_rng([4747, tag])


def _interior(rng, m):
    pts = []
    while len(pts) < m:
        x, y = rng.uniform(0.08, 0.85, 2)
        if x + y <= 0.92:
            pts.append((x, y))
    return np.array(pts)


def _coeff_vec(basis, rng):
    # damp high degrees so finite-difference references stay meaningful
    vals = rng.standard_normal(tk.basis_size(basis.maxdeg))
    for i in range(vals.size):
        n = tk.linear_to_index(i).n
        vals[i] /= 1.0 + n * n
    return tk.CoeffVec(basis, vals)


def _fd_x(vec, pts, h=2e-3):
    def d(hh):
        up = tk.synthesize(vec, pts + [hh, 0.0])
        dn = tk.synthesize(vec, pts - [hh, 0.0])
        return (up - dn) / (2 * hh)

    return (4.0 * d(h / 2) - d(h)) / 3.0


def _fd_y(vec, pts, h=2e-3):
    def d(hh):
        up = tk.synthesize(vec, pts + [0.0, hh])
        dn = tk.synthesize(vec, pts - [0.0, hh])
        return (up - dn) / (2 * hh)

    return (4.0 * d(h / 2) - d(h)) / 3.0


_PSETS = [(0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (0.5, 1.5, 2.5)]
# the sets the Matrix Market byte-identity checks ran on; some builders refuse
# (0, 0, 0) and (-0.5, 0.25, 3)
_TEXT_PSETS = [
    (0.25, 0.5, 0.75), (2.0, 2.0, 2.0), (1.5, 0.5, 2.5), (3.0, 0.1, 0.2),
    (0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (0.5, 1.5, 2.5), (-0.5, 0.25, 3.0),
]


# --------------------------------------------------------------- structure


def test_conversion_column_frozen_values():
    # expansion of the (1,1) mode of the zero-parameter basis in the
    # raised-b basis: exact rationals from weighted projection integrals
    op = tk.build_conv_b(2, tk.TriParams(0, 0, 0, 0))
    dm = tk.to_dense(op)
    col = dm[:, tk.index_to_linear(tk.TriIndex(1, 1))]
    assert abs(col[tk.index_to_linear(tk.TriIndex(0, 0))] - 0.25) < 1e-14
    assert abs(col[tk.index_to_linear(tk.TriIndex(1, 0))] - (-1.0 / 12.0)) < 1e-14
    assert abs(col[tk.index_to_linear(tk.TriIndex(1, 1))] - (2.0 / 3.0)) < 1e-14


def test_diff_y_stencil():
    # single entry k+b+c+1 at (n-1, k-1); nnz = N(N+1)/2
    N = 6
    b, c = 0.5, 1.5
    op = tk.build_diff_y(N, tk.TriParams(0.0, b, c, 0.0))
    assert len(op.rows) == N * (N + 1) // 2
    dm = tk.to_dense(op)
    for col in range(tk.basis_size(N)):
        idx = tk.linear_to_index(col)
        nz = np.nonzero(dm[:, col])[0]
        if idx.k == 0:
            assert nz.size == 0
            continue
        assert nz.size == 1
        assert nz[0] == tk.index_to_linear(tk.TriIndex(idx.n - 1, idx.k - 1))
        assert abs(dm[nz[0], col] - (idx.k + b + c + 1)) < 1e-14


def test_diff_y_on_degree_one_mode():
    # image of the (1,1) element at zero parameters is the constant 2
    op = tk.build_diff_y(2, tk.TriParams(0, 0, 0, 0))
    v = tk.CoeffVec(op.domain, np.zeros(tk.basis_size(2)))
    v.values[tk.index_to_linear(tk.TriIndex(1, 1))] = 1.0
    w = tk.apply_op(op, v)
    want = np.zeros(tk.basis_size(1))
    want[0] = 2.0
    assert np.allclose(w.values, want, atol=1e-14)
    assert w.basis.params.b == 1.0 and w.basis.params.c == 1.0


_BOUNDS = {
    "conv_a": 2,
    "conv_b": 4,
    "conv_c": 4,
    "diff_x": 2,
    "diff_y": 1,
    "diff_z": 2,
    "weighted_diff_x": 2,
    "weighted_diff_y": 1,
    "weighted_diff_z": 2,
    "mult_x": 2,
    "mult_y": 4,
    "mult_z": 4,
    "mult_same_x": 3,
    "mult_same_y": 9,
    "mult_same_z": 9,
    "eigen_k": 1,
    "eigen_n": 1,
}


@pytest.mark.parametrize("name", sorted(tk.OP_BUILDERS))
def test_column_counts_stay_within_stencil_bounds(name):
    op = tk.OP_BUILDERS[name](6, tk.TriParams(1.0, 1.0, 1.0, 0.0))
    dm = tk.to_dense(op)
    percol = (dm != 0.0).sum(axis=0)
    assert int(percol.max()) <= _BOUNDS[name]


@pytest.mark.parametrize("name", sorted(tk.OP_BUILDERS))
def test_builders_reject_nonzero_d(name):
    with pytest.raises(ValueError):
        tk.OP_BUILDERS[name](4, tk.TriParams(1.0, 1.0, 1.0, 0.5))


def test_multiplication_requires_positive_exponent():
    with pytest.raises(ValueError):
        tk.build_mult_x(4, tk.TriParams(0.0, 1.0, 1.0, 0.0))
    with pytest.raises(ValueError):
        tk.build_weighted_diff_y(4, tk.TriParams(1.0, 0.0, 1.0, 0.0))


def test_eigen_diagonals_frozen():
    q0 = tk.TriParams(0, 0, 0, 0)
    dk = np.diag(tk.to_dense(tk.build_eigen_k(3, q0)))
    i21 = tk.index_to_linear(tk.TriIndex(2, 1))
    i22 = tk.index_to_linear(tk.TriIndex(2, 2))
    assert dk[i21] == -2.0
    assert dk[i22] == -6.0
    dn = np.diag(tk.to_dense(tk.build_eigen_n(3, tk.TriParams(1, 1, 1, 0))))
    assert dn[i21] == -14.0
    assert dn[i22] == -14.0
    dn0 = np.diag(tk.to_dense(tk.build_eigen_n(3, q0)))
    assert dn0[i21] == -8.0


_HALVES = [(a, b, c) for a in np.arange(6) / 2 for b in np.arange(6) / 2 for c in np.arange(6) / 2]


@pytest.mark.parametrize(
    "psets, maxulp", [(_HALVES, 0), ([(3.0, 0.1, 0.2), (1.0, 1 / 3, 0.3)], 2)], ids=["dyadic", "non_dyadic"]
)
def test_eigen_k_is_its_closed_form_diagonal(psets, maxulp):
    # eigen_k is the chain -y1+(y1(.)), with factors (k+c+b+1) k: bit for bit
    # -k(k+b+c+1) where the parameter sums are exact, within 2 ulps elsewhere
    N = 40
    k = np.array([tk.linear_to_index(i).k for i in range(tk.basis_size(N))])
    for a, b, c in psets:
        op = tk.build_eigen_k(N, tk.TriParams(a, b, c, 0.0))
        assert np.array_equal(op.rows, op.cols)
        np.testing.assert_array_max_ulp(np.diag(tk.to_dense(op)), -k * (k + b + c + 1.0), maxulp)


def test_degenerate_recurrence_denominators_raise():
    # conv_a divides by 2n+a+b+c+2, zero at n = 0 for this parameter sum
    with pytest.raises(tk.DegenerateParameterError):
        tk.build_conv_a(2, tk.TriParams(-0.7, -0.7, -0.6, 0.0))
    # conv_b divides by 2k+b+c+1, zero at k = 0 when b + c = -1
    with pytest.raises(tk.DegenerateParameterError):
        tk.build_conv_b(2, tk.TriParams(0.5, -0.5, -0.5, 0.0))


def test_overflowing_entries_raise():
    with pytest.raises(ValueError, match=r"diff_x overflows float64 at \(n, k\) = \(1, 0\)"):
        tk.build_diff_x(3, tk.TriParams(1e308, 1e308, 0.0, 0.0))


# ----------------------------------------------------------------- algebra


def test_apply_is_linear():
    rng = _rng(1)
    op = tk.build_conv_a(5, tk.TriParams(0.5, 0.5, 0.5, 0.0))
    u = _coeff_vec(op.domain, rng)
    v = _coeff_vec(op.domain, rng)
    w = tk.CoeffVec(op.domain, 2.0 * u.values - 3.0 * v.values)
    got = tk.apply_op(op, w).values
    want = 2.0 * tk.apply_op(op, u).values - 3.0 * tk.apply_op(op, v).values
    assert np.allclose(got, want, atol=1e-13)


def test_apply_rejects_mismatched_basis():
    op = tk.build_conv_a(4, tk.TriParams(0.5, 0.5, 0.5, 0.0))
    wrong = tk.CoeffVec(
        tk.BasisTag(tk.TriParams(0.0, 0.5, 0.5, 0.0), False, 4),
        np.zeros(tk.basis_size(4)),
    )
    with pytest.raises(ValueError):
        tk.apply_op(op, wrong)


def test_from_triplets_sorts_only_unsorted_input_and_owns_its_arrays():
    tag = tk.BasisTag(tk.TriParams(0, 0, 0, 0), False, 2)
    entry = np.dtype([("r", np.int64), ("c", np.int64), ("v", float)])
    entries = np.array([(0, 0, 1.0), (2, 0, 2.0), (1, 3, 3.0), (5, 5, 4.0)], dtype=entry)
    op = tk.SparseOp.from_triplets(tag, tag, entries["r"], entries["c"], entries["v"])
    # a strided view of sorted input is copied, not kept
    assert op.vals.flags.c_contiguous and not np.shares_memory(op.vals, entries)
    shuffled = entries[[2, 0, 3, 1]]
    again = tk.SparseOp.from_triplets(tag, tag, shuffled["r"], shuffled["c"], shuffled["v"])
    for got, want in ((again.rows, op.rows), (again.cols, op.cols), (again.vals, op.vals)):
        assert np.array_equal(got, want)
    assert list(op.rows) == [0, 2, 1, 5] and list(op.cols) == [0, 0, 3, 5]
    for rows in ([0, 0], [1, 0, 1]):
        with pytest.raises(ValueError, match="duplicate"):
            tk.SparseOp.from_triplets(tag, tag, rows, [4] * len(rows), np.ones(len(rows)))
    with pytest.raises(ValueError, match="row index out of range"):
        tk.SparseOp.from_triplets(tag, tag, [6], [0], [1.0])


def test_to_dense_scatters_every_entry():
    op = tk.build_mult_same_y(5, tk.TriParams(0.5, 1.5, 2.5, 0.0))
    dense = tk.to_dense(op)
    assert dense.shape == op.shape and np.count_nonzero(dense) == op.nnz
    assert np.array_equal(dense[op.rows, op.cols], op.vals)


@pytest.mark.parametrize("name, conv, mult", [
    ("mult_same_x", "conv_a", "mult_x"), ("mult_same_y", "conv_b", "mult_y"), ("mult_same_z", "conv_c", "mult_z"),
])
def test_same_basis_multiplications_equal_the_composed_product(name, conv, mult):
    # the offset-keyed stencil product against compose's sorted one, text and refusals alike
    def text(op):
        return ops.matrix_market_text(op) + ops.descriptor_text(op)

    for pset in _TEXT_PSETS:
        q = tk.TriParams(*pset, 0.0)
        for N in (0, 1, 5, 40):
            try:
                inner = tk.OP_BUILDERS[mult](N, q)
                want = text(replace(tk.compose(tk.OP_BUILDERS[conv](N + 1, inner.range.params), inner), name=name))
            except ValueError as exc:
                with pytest.raises(type(exc)) as got:
                    tk.OP_BUILDERS[name](N, q)
                assert str(got.value) == str(exc)
            else:
                assert text(tk.OP_BUILDERS[name](N, q)) == want, (pset, N)


def _scipy_product(f, g):
    # the oracle: scipy's CSC product, exact zeros eliminated, through from_triplets
    import scipy.sparse as sp

    fc, gc = (sp.csc_array((op.vals, (op.rows, op.cols)), shape=op.shape) for op in (f, g))
    prod = (fc @ gc).tocoo()
    prod.eliminate_zeros()
    name = f"{f.name}*{g.name}" if f.name and g.name else ""
    return tk.SparseOp.from_triplets(g.domain, f.range, prod.row, prod.col, prod.data, name)


def _assert_same_op(got, want):
    assert (got.domain, got.range, got.name) == (want.domain, want.range, want.name)
    for x, y in ((got.rows, want.rows), (got.cols, want.cols), (got.vals, want.vals)):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


def _every_build(N, q):
    built = []
    for build in tk.OP_BUILDERS.values():
        try:
            built.append(build(N, q))
        except ValueError:
            pass
    return built


def test_compose_equals_the_scipy_csc_product():
    # every ordered pair of builders whose bases chain: f is built at g's range
    pairs = 0
    for pset in _TEXT_PSETS:
        for N in (0, 1, 5, 40):
            for g in _every_build(N, tk.TriParams(*pset, 0.0)):
                for f in _every_build(g.range.maxdeg, g.range.params):
                    if f.domain == g.range:
                        _assert_same_op(tk.compose(f, g), _scipy_product(f, g))
                        pairs += 1
    assert pairs == 5628
    # a three-fold chain, then mult_same_y after it: its entries sum runs of more than four paths
    for N in (5, 40):
        h = tk.build_conv_a(N, tk.TriParams(0.5, 1.5, 2.5, 0.0))
        for build in (tk.build_conv_b, tk.build_conv_c, tk.build_mult_same_y):
            f = build(h.range.maxdeg, h.range.params)
            got = tk.compose(f, h)
            _assert_same_op(got, _scipy_product(f, h))
            paths = (tk.to_dense(f) != 0).astype(float) @ (tk.to_dense(h) != 0)
            h = got
        assert paths.max() > 4


def test_compose_matches_dense_product():
    q = tk.TriParams(0.5, 0.5, 0.5, 0.0)
    f = tk.build_conv_a(4, tk.TriParams(1.5, 0.5, 0.5, 0.0))
    g = tk.build_conv_a(4, q)
    h = tk.compose(f, g)
    assert np.allclose(tk.to_dense(h), tk.to_dense(f) @ tk.to_dense(g), atol=1e-14)
    with pytest.raises(ValueError):
        tk.compose(g, g)


# ------------------------------------------------- pointwise oracle checks


@pytest.mark.parametrize("pset", _PSETS, ids=["zero", "one", "mixed"])
def test_conversions_preserve_pointwise_values(pset):
    rng = _rng(10)
    pts = _interior(rng, 25)
    q = tk.TriParams(*pset, 0.0)
    for name in ("conv_a", "conv_b", "conv_c"):
        op = tk.OP_BUILDERS[name](7, q)
        v = _coeff_vec(op.domain, rng)
        before = tk.synthesize(v, pts)
        after = tk.synthesize(tk.apply_op(op, v), pts)
        assert np.max(np.abs(after - before)) < 1e-10 * max(1.0, np.max(np.abs(before)))


@pytest.mark.parametrize("pset", [(1.0, 1.0, 1.0), (0.5, 1.5, 2.5)], ids=["one", "mixed"])
def test_multiplications_scale_by_coordinate(pset):
    rng = _rng(11)
    pts = _interior(rng, 25)
    q = tk.TriParams(*pset, 0.0)
    coords = {
        "mult_x": pts[:, 0],
        "mult_y": pts[:, 1],
        "mult_z": 1.0 - pts[:, 0] - pts[:, 1],
    }
    for name, coord in coords.items():
        op = tk.OP_BUILDERS[name](7, q)
        v = _coeff_vec(op.domain, rng)
        before = tk.synthesize(v, pts)
        after = tk.synthesize(tk.apply_op(op, v), pts)
        assert np.max(np.abs(after - coord * before)) < 1e-10 * max(
            1.0, np.max(np.abs(before))
        )


@pytest.mark.parametrize("pset", [(1.0, 1.0, 1.0), (0.5, 1.5, 2.5)], ids=["one", "mixed"])
def test_same_basis_multiplications(pset):
    rng = _rng(12)
    pts = _interior(rng, 25)
    q = tk.TriParams(*pset, 0.0)
    coords = {
        "mult_same_x": pts[:, 0],
        "mult_same_y": pts[:, 1],
        "mult_same_z": 1.0 - pts[:, 0] - pts[:, 1],
    }
    for name, coord in coords.items():
        op = tk.OP_BUILDERS[name](7, q)
        v = _coeff_vec(op.domain, rng)
        before = tk.synthesize(v, pts)
        after = tk.synthesize(tk.apply_op(op, v), pts)
        assert np.max(np.abs(after - coord * before)) < 1e-10 * max(
            1.0, np.max(np.abs(before))
        )


@pytest.mark.parametrize("pset", _PSETS, ids=["zero", "one", "mixed"])
def test_differentiations_match_finite_differences(pset):
    rng = _rng(13)
    pts = _interior(rng, 25)
    q = tk.TriParams(*pset, 0.0)
    refs = {
        "diff_x": lambda v: _fd_x(v, pts),
        "diff_y": lambda v: _fd_y(v, pts),
        "diff_z": lambda v: _fd_y(v, pts) - _fd_x(v, pts),
    }
    for name, ref in refs.items():
        op = tk.OP_BUILDERS[name](8, q)
        v = _coeff_vec(op.domain, rng)
        want = ref(v)
        got = tk.synthesize(tk.apply_op(op, v), pts)
        assert np.max(np.abs(got - want)) < 1e-7 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("pset", [(1.0, 1.0, 1.0), (0.5, 1.5, 2.5)], ids=["one", "mixed"])
def test_weighted_differentiations_match_finite_differences(pset):
    rng = _rng(14)
    pts = _interior(rng, 25)
    q = tk.TriParams(*pset, 0.0)
    refs = {
        "weighted_diff_x": lambda v: _fd_x(v, pts),
        "weighted_diff_y": lambda v: _fd_y(v, pts),
        "weighted_diff_z": lambda v: _fd_y(v, pts) - _fd_x(v, pts),
    }
    for name, ref in refs.items():
        op = tk.OP_BUILDERS[name](8, q)
        v = _coeff_vec(op.domain, rng)
        want = ref(v)
        got = tk.synthesize(tk.apply_op(op, v), pts)
        assert np.max(np.abs(got - want)) < 1e-7 * max(1.0, np.max(np.abs(want)))


def test_partition_of_unity_identity():
    # x + y + z = 1 in coefficient space, so the three same-basis
    # multiplications must sum to the identity padded by one degree
    N = 8
    for pset in [(1.0, 1.0, 1.0), (0.5, 1.5, 2.5)]:
        q = tk.TriParams(*pset, 0.0)
        total = (
            tk.to_dense(tk.build_mult_same_x(N, q))
            + tk.to_dense(tk.build_mult_same_y(N, q))
            + tk.to_dense(tk.build_mult_same_z(N, q))
        )
        eye = np.zeros((tk.basis_size(N + 1), tk.basis_size(N)))
        eye[: tk.basis_size(N), :] = np.eye(tk.basis_size(N))
        assert np.max(np.abs(total - eye)) < 1e-12


# ---------------------------------------------------------------- storage


def test_matrix_market_round_trip(tmp_path):
    op = tk.build_diff_x(5, tk.TriParams(0.5, 1.5, 0.0, 0.0))
    path = tmp_path / "op.mtx"
    tk.save_matrix_market(op, path)
    text = path.read_text().splitlines()
    assert text[0] == "%%MatrixMarket matrix coordinate real general"
    nr, nc, nnz = (int(t) for t in text[1].split())
    assert (nr, nc) == (tk.basis_size(4), tk.basis_size(5))
    assert nnz == len(op.rows)
    back = tk.load_matrix_market(path)
    assert np.allclose(tk.to_dense(back), tk.to_dense(op), atol=0)


def test_matrix_market_indices_are_one_based(tmp_path):
    op = tk.build_eigen_k(1, tk.TriParams(0, 0, 0, 0))
    path = tmp_path / "diag.mtx"
    tk.save_matrix_market(op, path)
    rows = [l.split() for l in path.read_text().splitlines()[2:]]
    # only the (1,1) mode has a nonzero eigenvalue below degree 2
    assert rows[0][:2] == ["3", "3"]
    assert float(rows[0][2]) == -2.0


@pytest.mark.parametrize(
    "mangle",
    [
        lambda text: text.rsplit("\n", 2)[0] + "\n",  # last entry cut off
        lambda text: text[: text.rindex(" ")] + "\n",  # last value cut off
        lambda text: text.replace(text.splitlines()[1], "2 3"),  # short size line
    ],
    ids=["missing-entry", "missing-field", "size-line"],
)
def test_matrix_market_rejects_truncated_files(tmp_path, mangle):
    op = tk.build_conv_a(2, tk.TriParams(0.5, 0.5, 0.5, 0.0))
    path = tmp_path / "op.mtx"
    tk.save_matrix_market(op, path)
    path.write_text(mangle(path.read_text()))
    with pytest.raises(ValueError):
        tk.load_matrix_market(path)


def test_matrix_market_zero_entry_count_holds_no_entry_lines(tmp_path):
    # a size line edited to 0 entries over a body of 9 entry lines is an
    # error; an operator with no entries (d/dx at degree 0) reads back
    path = tmp_path / "op.mtx"
    tk.save_matrix_market(tk.build_conv_a(2, tk.TriParams(0.5, 0.5, 0.5, 0.0)), path)
    path.write_text(path.read_text().replace("\n6 6 9\n", "\n6 6 0\n"))
    with pytest.raises(ValueError, match="expected 0 matrix entries, found 9"):
        tk.load_matrix_market(path)
    op = tk.build_diff_x(0, tk.TriParams(0.5, 1.5, 2.5))
    assert op.shape == (1, 1) and op.nnz == 0
    tk.save_matrix_market(op, path)
    back = tk.load_matrix_market(path)
    assert (back.shape, back.nnz, back.domain, back.range) == (op.shape, 0, op.domain, op.range)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_matrix_market_rejects_non_finite_entries(tmp_path, bad):
    op = tk.build_conv_a(2, tk.TriParams(0.5, 0.5, 0.5, 0.0))
    path = tmp_path / "op.mtx"
    tk.save_matrix_market(op, path)
    lines = path.read_text().splitlines()
    r, c, _ = lines[2].split()
    lines[2] = f"{r} {c} {bad}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="finite"):
        tk.load_matrix_market(path)


@pytest.mark.parametrize("name", sorted(ops._STENCILS))
def test_stencil_evaluator_matches_a_per_column_loop(name):
    # the vectorized evaluator against a plain loop over the same table entry
    N, (a, b, c) = 7, (0.5, 1.5, 2.5)
    op = tk.OP_BUILDERS[name](N, tk.TriParams(a, b, c, 0.0))
    st = ops._STENCILS[name]
    want = {}
    for n in range(N + 1):
        for k in range(n + 1):
            den = 1.0
            for _, fn in st.dens:
                den = den * fn(n, k, a, b, c)
            for dn, dk, num in st.terms:
                nr, kr = n + dn, k + dk
                val = num(n, k, a, b, c) / den
                if 0 <= kr <= nr <= op.range.maxdeg and val != 0.0:
                    want[(nr * (nr + 1) // 2 + kr, n * (n + 1) // 2 + k)] = val
    got = {(int(r), int(cc)): float(v) for r, cc, v in zip(op.rows, op.cols, op.vals)}
    assert got == want


def test_matrix_market_text_matches_per_entry_formatting():
    # N = 40 takes the vectorized writer, the smaller N the per-row one, and
    # some builds at N = 0 are empty
    for name, build in tk.OP_BUILDERS.items():
        for N in (0, 1, 5, 40):
            op = build(N, tk.TriParams(0.5, 1.5, 2.5, 0.0))
            lines = ["%%MatrixMarket matrix coordinate real general", f"{op.shape[0]} {op.shape[1]} {op.nnz}"]
            lines += [f"{r + 1} {c + 1} {v:.17g}" for r, c, v in zip(op.rows, op.cols, op.vals)]
            assert ops.matrix_market_text(op) == "\n".join(lines) + "\n", (name, N)

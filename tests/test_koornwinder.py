"""Tests for the triangle basis: evaluation, jets, indexing, weight."""

import weakref

import numpy as np
import pytest
from scipy.special import eval_jacobi

import trikoorn as tk
from trikoorn.jacobi import _homog_table, _shifted_table
from trikoorn.koornwinder import _Factors, _first_factor_param, _first_factors, _graded_indices, _jet_rows, _tri_tables


def _rng(tag):
    return np.random.default_rng([2357, tag])


def _product_oracle(n, k, q, x, y):
    # independent route through scipy: first factor in x, scaled second
    # factor in y/(1-x); interior points only (the division is explicit)
    A = 2 * k + q.b + q.c + q.d + 1
    f1 = eval_jacobi(n - k, A, q.a, 2 * x - 1)
    f2 = eval_jacobi(k, q.c, q.b, 2 * y / (1 - x) - 1)
    return f1 * (1 - x) ** k * f2


def _interior(rng, m):
    pts = []
    while len(pts) < m:
        x, y = rng.uniform(0.05, 0.9, 2)
        if x + y <= 0.95:
            pts.append((x, y))
    return pts


# ----------------------------------------------------------------- indexing


def test_linear_index_round_trip():
    lin = 0
    for n in range(9):
        for k in range(n + 1):
            idx = tk.TriIndex(n, k)
            assert tk.index_to_linear(idx) == lin
            back = tk.linear_to_index(lin)
            assert (back.n, back.k) == (n, k)
            lin += 1


@pytest.mark.parametrize("n", [2**31, 2**32, 10**12])
def test_linear_index_round_trip_at_large_degrees(n):
    # 8i + 1 exceeds int64 from n = 2**31 on, and n(n + 1) from n = 2**32 on
    for k in (0, n // 2, n):
        lin = n * (n + 1) // 2 + k
        for cast in (int, np.int64):
            assert tk.index_to_linear(tk.TriIndex(cast(n), cast(k))) == lin
        for i in (lin, np.int64(lin)) if lin < 2**63 else (lin,):
            back = tk.linear_to_index(i)
            assert (back.n, back.k) == (n, k)


def test_basis_size_counts_graded_indices():
    for N in range(7):
        assert tk.basis_size(N) == (N + 1) * (N + 2) // 2


# --------------------------------------------------------------- evaluation


def test_constant_mode_is_one():
    q = tk.TriParams(0.5, 1.5, 2.5, 0.25)
    for x, y in [(0.1, 0.1), (0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]:
        assert tk.tri_eval(tk.TriIndex(0, 0), q, tk.TriPoint(x, y)) == 1.0


def test_degree_one_closed_form():
    # (1,1) mode is (c+1)(1-x) - (b+c+2)z with z = 1-x-y
    rng = _rng(1)
    for _ in range(20):
        a, b, c, d = rng.uniform(-0.9, 2.5, 4)
        q = tk.TriParams(a, b, c, d)
        x, y = rng.uniform(0.0, 0.5, 2)
        z = 1.0 - x - y
        want = (c + 1) * (1 - x) - (b + c + 2) * z
        got = tk.tri_eval(tk.TriIndex(1, 1), q, tk.TriPoint(x, y))
        assert abs(got - want) < 1e-13 * max(1.0, abs(want))
    got = tk.tri_eval(tk.TriIndex(1, 1), tk.TriParams(0, 0, 0, 0), tk.TriPoint(0.25, 0.5))
    assert abs(got - 0.25) < 1e-15


def test_frozen_point_values():
    # exact rationals from expanding the degree-(n) product forms
    got = tk.tri_eval(tk.TriIndex(2, 1), tk.TriParams(0, 0, 0, 0), tk.TriPoint(0.3, 0.4))
    assert abs(got - 0.05) < 1e-14
    got = tk.tri_eval(
        tk.TriIndex(3, 1), tk.TriParams(0.5, 1.5, 2.5, 0), tk.TriPoint(0.2, 0.3)
    )
    assert abs(got - 24.0 / 125.0) < 1e-13
    got = tk.tri_eval(
        tk.TriIndex(4, 2), tk.TriParams(1, 0, 2, 0.5), tk.TriPoint(0.3, 0.4)
    )
    assert abs(got - (-1269.0 / 16000.0)) < 1e-13


def test_quadratic_mode_polynomial_form():
    # P_{2,1} at zero parameters is 5x^2 + 10xy - 6x - 2y + 1
    rng = _rng(2)
    q = tk.TriParams(0, 0, 0, 0)
    for _ in range(25):
        x, y = rng.uniform(-0.2, 1.2, 2)
        want = 5 * x**2 + 10 * x * y - 6 * x - 2 * y + 1
        got = tk.tri_eval(tk.TriIndex(2, 1), q, tk.TriPoint(x, y))
        assert abs(got - want) < 1e-12 * max(1.0, abs(want))


def test_eval_matches_product_route_on_interior():
    rng = _rng(3)
    for _ in range(120):
        n = int(rng.integers(0, 10))
        k = int(rng.integers(0, n + 1))
        q = tk.TriParams(*rng.uniform(-0.9, 2.5, 4))
        ((x, y),) = _interior(rng, 1)
        got = tk.tri_eval(tk.TriIndex(n, k), q, tk.TriPoint(x, y))
        ref = _product_oracle(n, k, q, x, y)
        assert abs(got - ref) < 1e-11 * max(1.0, abs(ref))


def test_extended_indices_return_exact_zero():
    q = tk.TriParams(0.5, 0.5, 0.5, 0.5)
    pt = tk.TriPoint(0.3, 0.3)
    assert tk.tri_eval(tk.TriIndex(-1, 0), q, pt) == 0.0
    assert tk.tri_eval(tk.TriIndex(4, -1), q, pt) == 0.0
    assert tk.tri_eval(tk.TriIndex(4, 5), q, pt) == 0.0


def test_eval_is_finite_on_collapsed_edge():
    # x = 1 collapses the second factor's argument; the homogenized form
    # must stay finite and match the polynomial limit
    q = tk.TriParams(0, 0, 0, 0)
    got = tk.tri_eval(tk.TriIndex(2, 2), q, tk.TriPoint(1.0, 0.0))
    # (1-x)^2 Pt_2(y/(1-x)) -> 6y^2 - 6y(1-x) + (1-x)^2 at x=1, y=0 -> 0
    assert got == 0.0
    got = tk.tri_eval(tk.TriIndex(2, 2), q, tk.TriPoint(1.0, 0.5))
    assert abs(got - 6.0 * 0.25) < 1e-13


def test_eval_rejects_invalid_parameters():
    with pytest.raises(ValueError):
        tk.tri_eval(tk.TriIndex(2, 1), tk.TriParams(-1.2, 0, 0, 0), tk.TriPoint(0.3, 0.3))


def test_eval_vectorized_coordinates():
    q = tk.TriParams(0.5, 1.5, 0.0, 0.0)
    xs = np.array([0.1, 0.3, 0.5])
    ys = np.array([0.2, 0.4, 0.1])
    batch = tk.tri_eval(tk.TriIndex(3, 2), q, tk.TriPoint(xs, ys))
    singles = [
        tk.tri_eval(tk.TriIndex(3, 2), q, tk.TriPoint(float(x), float(y)))
        for x, y in zip(xs, ys)
    ]
    assert np.allclose(batch, singles, atol=0)


# --------------------------------------------------------------------- jets


def test_jet_value_matches_eval():
    rng = _rng(4)
    for _ in range(30):
        n = int(rng.integers(0, 9))
        k = int(rng.integers(0, n + 1))
        q = tk.TriParams(*rng.uniform(-0.5, 2.0, 4))
        ((x, y),) = _interior(rng, 1)
        jet = tk.tri_eval_jet(tk.TriIndex(n, k), q, tk.TriPoint(x, y))
        assert jet.u == tk.tri_eval(tk.TriIndex(n, k), q, tk.TriPoint(x, y))


def test_jet_partials_match_central_differences():
    rng = _rng(5)
    h = 1e-6
    for _ in range(40):
        n = int(rng.integers(1, 9))
        k = int(rng.integers(0, n + 1))
        q = tk.TriParams(*rng.uniform(-0.5, 2.0, 4))
        ((x, y),) = _interior(rng, 1)
        idx = tk.TriIndex(n, k)
        jet = tk.tri_eval_jet(idx, q, tk.TriPoint(x, y))
        fx = (
            tk.tri_eval(idx, q, tk.TriPoint(x + h, y))
            - tk.tri_eval(idx, q, tk.TriPoint(x - h, y))
        ) / (2 * h)
        fy = (
            tk.tri_eval(idx, q, tk.TriPoint(x, y + h))
            - tk.tri_eval(idx, q, tk.TriPoint(x, y - h))
        ) / (2 * h)
        scale = max(1.0, abs(fx), abs(fy))
        assert abs(jet.ux - fx) < 1e-6 * scale
        assert abs(jet.uy - fy) < 1e-6 * scale


# ------------------------------------------------------------- batch tables


def test_basis_eval_all_rows_match_tri_eval():
    rng = _rng(6)
    q = tk.TriParams(0.5, 0.0, 1.5, 0.0)
    pts = [tk.TriPoint(x, y) for x, y in _interior(rng, 6)]
    N = 5
    tab = tk.basis_eval_all(N, q, pts)
    assert tab.shape == (len(pts), tk.basis_size(N))
    for i, pt in enumerate(pts):
        for lin in range(tk.basis_size(N)):
            idx = tk.linear_to_index(lin)
            assert abs(tab[i, lin] - tk.tri_eval(idx, q, pt)) < 1e-13


def _tri_tables_per_k(N, params, x, y, partials):
    # the per-k loop the batched tables replaced: one first-factor table per
    # k, decided on its own degree N - k, and one row product per (n, k)
    U = np.empty((tk.basis_size(N), x.size))
    UX = np.empty_like(U)
    UY = np.empty_like(U)
    H, Hy, Hs = _homog_table(N, params.c, params.b, y, 1.0 - x, partials=partials)
    for k in range(N + 1):
        A = 2 * k + params.b + params.c + params.d + 1
        Ftab = _shifted_table(N - k, A, params.a, x, nderiv=1 if partials else 0)
        for n in range(k, N + 1):
            i = n * (n + 1) // 2 + k
            U[i] = Ftab[0, n - k] * H[k]
            if partials:
                UX[i] = Ftab[1, n - k] * H[k] - Ftab[0, n - k] * Hs[k]
                UY[i] = Ftab[0, n - k] * Hy[k]
    return (U, UX, UY) if partials else (U, None, None)


@pytest.mark.parametrize("partials", [False, True])
@pytest.mark.parametrize("N", [0, 1, 2, 11])
@pytest.mark.parametrize(
    "pset",
    [
        (0.5, 1.5, 2.5, 0.0),
        # the second factor (c, b) = (-0.9, -0.9) is lifted
        (1.0, -0.9, -0.9, 0.5),
        # a < -1: every column of degree >= 2 is lifted, the k = 0 one,
        # (A_0, a) = (-0.5, -1.5), also for a vanishing denominator; the
        # columns k = N - 1, N are closed forms at their own degree, and would
        # be lifted if decided on degree N
        (-1.5, -0.5, -0.5, -0.5),
        # only the k = 0 column, (A_0, a) = (-0.9, -0.9), is lifted
        (-0.9, -0.95, -0.95, 0.0),
    ],
)
def test_batched_tables_equal_the_per_k_loop(pset, N, partials):
    rng = _rng(10)
    x = np.concatenate([rng.uniform(0.0, 1.0, 7), [0.0, 1.0, 0.5]])
    y = np.concatenate([rng.uniform(0.0, 1.0, 7) * (1.0 - x[:7]), [0.0, 0.0, 0.5]])
    q = tk.TriParams(*pset)
    got = _tri_tables(N, q, x, y, partials=partials)
    want = _tri_tables_per_k(N, q, x, y, partials)
    for g, w in zip(got, want):
        assert (g is None and w is None) or np.array_equal(g, w)


# families whose tables lift: a < -1 (every first factor of degree >= 2); a
# parameter of exactly -1; (A_0, a) = (-0.9, -0.95), whose sum nears -2;
# b = c = -0.9 (the second factor); b < -1 (the second factor, twice)
_LIFTED_FAMILIES = [
    (0.5, 1.5, 2.5, 0.0),
    (-1.5, -0.5, -0.5, -0.5),
    (-1.0, 0.5, 0.0, 1.0),
    (-0.95, -0.95, -0.95, 0.0),
    (1.0, -0.9, -0.9, 0.5),
    (0.3, -2.5, 1.5, 0.0),
]


def _zero_move_reads(N, fams, x, y, partials):
    # each family one parameter set of a _Factors, read at its own params
    P = tk.TriParams(*np.array([(q.a, q.b, q.c, q.d) for q in fams]).T[:, :, None, None])
    n, k = (v[:, None] for v in _graded_indices(N))
    tabs, how = _Factors(N, P, x, y), "xy" if partials else ""
    tabs.build(*_Factors.plan([(P, np.ones(len(x), bool), how)], P))
    return tabs(n, k, P, partials=how)


@pytest.mark.parametrize("partials", [False, True])
@pytest.mark.parametrize("N", [0, 1, 11])
def test_multi_family_tables_equal_the_per_family_ones(N, partials):
    rng = _rng(11)
    x = np.concatenate([rng.uniform(0.0, 1.0, 7), [0.0, 1.0, 0.5]])
    y = np.concatenate([rng.uniform(0.0, 1.0, 7) * (1.0 - x[:7]), [0.0, 0.0, 0.5]])
    fams = [tk.TriParams(*p) for p in _LIFTED_FAMILIES]
    got = _zero_move_reads(N, fams, np.tile(x, (len(fams), 1)), np.tile(y, (len(fams), 1)), partials)
    assert len(got) == (3 if partials else 1)
    for f, q in enumerate(fams):
        for g, w in zip(got, _tri_tables(N, q, x, y, partials=partials)):
            assert np.array_equal(g[f], w)


@pytest.mark.parametrize("partials", [False, True])
@pytest.mark.parametrize("N", [0, 1, 11])
def test_multi_family_tables_at_point_rows_equal_one_call_per_family(N, partials):
    # one point row per family, among them (1.42, -2.42) and b = c = -0.9,
    # whose factors are lifted, and a repeated family at other points
    rng = _rng(13)
    fams = [tk.TriParams(*p) for p in _LIFTED_FAMILIES + [(1.42, -2.42, 0.5, 0.0), (0.5, 1.5, 2.5, 0.0)]]
    x = rng.uniform(0.0, 1.0, (len(fams), 9))
    y = rng.uniform(0.0, 1.0, x.shape) * (1.0 - x)
    got = _zero_move_reads(N, fams, x, y, partials)
    assert len(got) == (3 if partials else 1)
    for f, q in enumerate(fams):
        for g, w in zip(got, _tri_tables(N, q, x[f], y[f], partials=partials)):
            assert np.array_equal(g[f], w)


def _bits(v):
    return np.asarray(v).view(np.int64)


@pytest.mark.parametrize("pset", [(0.5, 1.5, -0.5, 0.0), (0.3, 0.1, 0.2, 0.0)])
def test_a_read_without_u_x_equals_the_full_reads_u_and_u_y_bit_for_bit(pset):
    # partials="y", a y-ladder's read of an image: its first factors are
    # built and gathered without x-derivatives, and its u and u_y are those
    # of the full read bit for bit, dead rows (k > n, negative degree) and
    # families keyed apart from the params' own first factors included; a
    # read of dead rows alone leaves u_x None too
    rng, N = _rng(15), 6
    P = tk.TriParams(*(np.full((2, 1, 1), v) for v in pset))
    x = rng.uniform(0.0, 1.0, (2, 9))
    y = rng.uniform(0.0, 1.0, x.shape) * (1.0 - x)
    n, k = np.array([[0], [3], [5], [2], [-1], [6], [4]]), np.array([[0], [1], [5], [3], [0], [2], [4]])
    for move in ((0, 0, 0, 0), (0, 0, 0, 1), (1, 0, 0, -1), (0, 1, 1, -2)):
        q, every = P.shifted(*move), np.ones(2, bool)
        full, bare = _Factors(N, P, x, y), _Factors(N, P, x, y)
        full.build(*_Factors.plan([(q, every, "xy")], P))
        first, second = _Factors.plan([(q, every, "y")], P)
        assert [d for _, d in first.values()] == [0] and [p for _, p in second.values()] == [1]
        bare.build(first, second)
        u, ux, uy = full(n, k, q)
        for tabs in (bare, full):
            got = tabs(n, k, q, partials="y")
            assert got[1] is None and len(got) == 3
            assert np.array_equal(_bits(got[0]), _bits(u)) and np.array_equal(_bits(got[2]), _bits(uy))
        assert not u[:, 3:5].any() and not uy[:, 3:5].any()
        for tabs in (bare, full):
            got = tabs(n[3:5], k[3:5], q, partials="y")
            assert len(got) == 3 and got[1] is None
            assert got[0].shape == got[2].shape == (2, 2, 9) and not got[0].any() and not got[2].any()
        with pytest.raises(ValueError, match="not built"):
            bare(n, k, q)  # u_x of first factors built without x-derivatives


@pytest.mark.parametrize("N", [0, 1, 11])
@pytest.mark.parametrize("pset", [(0.5, 1.5, 2.5, 0.0), (1.0, -0.9, -0.9, 0.5)])
def test_a_supplied_second_factor_table_multiplies_the_first_factors(pset, N):
    # transform._edge_tables' edge table: each first-factor row times the
    # supplied row of its k
    rng = _rng(14)
    q = tk.TriParams(*pset)
    x = rng.uniform(0.0, 1.0, 9)
    T = rng.standard_normal((N + 1, x.size))
    (F,) = _first_factors(N, _first_factor_param(np.arange(N + 1), q), q.a, x)
    U, UX, UY = _tri_tables(N, q, x, 1.0 - x, second=T)
    assert UX is None and UY is None
    assert np.array_equal(U, F * T[_graded_indices(N)[1]])


def test_jet_rows_draw_the_y_partials_once_the_s_partials_are_dropped():
    # a gathering caller's H_s row is freed before its H_y row is drawn, so at
    # most four row arrays are alive at once
    freed = []

    def parts():
        hs = np.full((2, 3), 7.0)
        ref = weakref.ref(hs)
        yield hs
        del hs
        freed.append(ref() is None)
        yield np.full((2, 3), 11.0)

    f, df, h = (np.full((2, 3), v) for v in (2.0, 3.0, 5.0))
    u, ux, uy = _jet_rows([f, df], h, parts())
    assert freed == [True]
    assert (u == 10.0).all() and (ux == 1.0).all() and (uy == 22.0).all()
    assert u is f and ux is df and (h == 5.0).all()


@pytest.mark.parametrize("nderiv", [0, 1])
def test_first_factors_below_degree_zero_have_no_rows(nderiv):
    # one column at shared points, and three families at a point row each
    x = np.linspace(0.1, 0.9, 5)
    assert _first_factors(-1, np.empty(0), 0.5, x, nderiv).shape == (nderiv + 1, 0, 5)
    got = _first_factors(-1, np.empty((3, 0)), np.zeros(3), np.tile(x, (3, 1)), nderiv)
    assert got.shape == (nderiv + 1, 3, 0, 5)


def test_basis_eval_all_first_column_is_ones():
    rng = _rng(7)
    q = tk.TriParams(1.0, 2.0, 0.5, 0.0)
    pts = [tk.TriPoint(x, y) for x, y in _interior(rng, 5)]
    tab = tk.basis_eval_all(3, q, pts)
    assert np.all(tab[:, 0] == 1.0)


# ------------------------------------------------------------------- weight


def test_weight_closed_form():
    rng = _rng(8)
    for _ in range(20):
        a, b, c, d = rng.uniform(-0.5, 2.0, 4)
        q = tk.TriParams(a, b, c, d)
        ((x, y),) = _interior(rng, 1)
        z = 1.0 - x - y
        want = x**a * y**b * z**c * (1.0 - x) ** d
        got = tk.weight_eval(q, tk.TriPoint(x, y))
        assert abs(got - want) < 1e-13 * max(1.0, abs(want))


def test_weight_trivial_at_zero_exponents():
    q = tk.TriParams(0, 0, 0, 0)
    assert tk.weight_eval(q, tk.TriPoint(0.3, 0.3)) == 1.0


# ----------------------------------------------------- two-route residuals


def test_chain_rule_residuals_vanish():
    rng = _rng(9)
    grid = [-0.5, 0.0, 0.5, 1.5]
    for _ in range(60):
        n = int(rng.integers(0, 9))
        k = int(rng.integers(0, n + 1))
        q = tk.TriParams(*rng.choice(grid, 4))
        ((x, y),) = _interior(rng, 1)
        left, right = tk.jjp_residual(tk.TriIndex(n, k), q, tk.TriPoint(x, y))
        assert abs(left - right) < 1e-10 * max(1.0, abs(left), abs(right))
        left, right = tk.jpj_residual(tk.TriIndex(n, k), q, tk.TriPoint(x, y))
        assert abs(left - right) < 1e-10 * max(1.0, abs(left), abs(right))

"""Tests for quadrature rules, transforms, norms, and CSV storage."""

import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import beta as beta_fn
from scipy.special import roots_jacobi

import trikoorn as tk
from trikoorn import koornwinder
from trikoorn.jacobi import _shifted_table
from trikoorn.koornwinder import _first_factor_param, _first_factors, _graded_indices, _tri_tables
from trikoorn.transform import _duffy_factors, _duffy_points


def _rng(tag):
    return np.random.default_rng([6173, tag])


def _interior(rng, m):
    pts = []
    while len(pts) < m:
        x, y = rng.uniform(0.05, 0.9, 2)
        if x + y <= 0.95:
            pts.append((x, y))
    return np.array(pts)


def _tri_moment(i, j, q):
    # exact integral of x^i y^j against the weight, by iterated Beta integrals
    return beta_fn(q.b + j + 1, q.c + 1) * beta_fn(q.a + i + 1, q.b + q.c + q.d + j + 2)


# --------------------------------------------------------- 1d segment rule


def test_segment_rule_frozen_two_point_values():
    pts, w = tk.gauss_jacobi_rule(2, 0.0, 0.0)
    r = 1.0 / (2.0 * np.sqrt(3.0))
    assert np.allclose(sorted(pts), [0.5 - r, 0.5 + r], atol=1e-15)
    assert np.allclose(w, [0.5, 0.5], atol=1e-15)


def test_segment_rule_weight_orientation():
    # first slot weights (1-t), second weights t
    pts, w = tk.gauss_jacobi_rule(4, 1.0, 0.0)
    assert abs(np.sum(w * pts) - 1.0 / 6.0) < 1e-14
    pts, w = tk.gauss_jacobi_rule(4, 0.0, 2.0)
    assert abs(np.sum(w) - 1.0 / 3.0) < 1e-14


def test_segment_rule_total_mass_is_beta_function():
    rng = _rng(1)
    for _ in range(12):
        a, b = rng.uniform(-0.9, 3.0, 2)
        pts, w = tk.gauss_jacobi_rule(5, a, b)
        assert abs(np.sum(w) - beta_fn(a + 1, b + 1)) < 1e-13


@pytest.mark.parametrize("m", [1, 2, 4, 7])
def test_segment_rule_polynomial_exactness(m):
    rng = _rng(10 + m)
    for _ in range(6):
        a, b = rng.uniform(-0.9, 2.5, 2)
        pts, w = tk.gauss_jacobi_rule(m, a, b)
        for p in range(2 * m):
            want = beta_fn(a + 1, b + p + 1)
            got = np.sum(w * pts**p)
            assert abs(got - want) < 1e-12 * max(1.0, want)


def test_segment_rule_matches_reference_roots():
    # map the reference interval rule to (0, 1)
    a, b = 1.5, 0.5
    m = 6
    pts, w = tk.gauss_jacobi_rule(m, a, b)
    xr, wr = roots_jacobi(m, a, b)
    order = np.argsort(xr)
    assert np.allclose(pts, (xr[order] + 1.0) / 2.0, atol=1e-12)
    assert np.allclose(w, wr[order] * 2.0 ** (-a - b - 1.0), atol=1e-13)


# the Duffy factors' exponent pairs at the eight parameter sets of the Matrix
# Market byte-identity checks, the pairs above, and (200, 0), whose gammas overflow
_RULE_PAIRS = sorted(
    {p for a, b, c in [(0.25, 0.5, 0.75), (2, 2, 2), (1.5, 0.5, 2.5), (3, 0.1, 0.2), (0, 0, 0), (1, 1, 1),
                       (0.5, 1.5, 2.5), (-0.5, 0.25, 3)] for p in ((b + c + 1.0, float(a)), (float(c), float(b)))}
    | {(1.5, 0.5), (1.0, 0.0), (0.0, 2.0), (200.0, 0.0)}
)


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 13, 21, 34, 61, 101, 150, 201])
def test_segment_rule_matches_reference_roots_up_to_201_nodes(m):
    # The bounds are the eigenvector rule's own agreement with roots_jacobi on
    # these pairs, when scipy.linalg built the rule: 4.4e-16 in the nodes, and in
    # the weights 2.9e-13 relative up to m = 21 and 1.7e-8 up to m = 201.  At
    # (200, 0) that rule lost its small weights (7e-3 relative at m = 21), and
    # roots_jacobi's own weights there are about 1.6e-13 off.
    for a, b in _RULE_PAIRS:
        pts, w = tk.gauss_jacobi_rule(m, a, b)
        xr, wr = roots_jacobi(m, a, b)
        order = np.argsort(xr)
        xr, wr = (xr[order] + 1.0) / 2.0, wr[order] * 2.0 ** (-a - b - 1.0)
        wtol = (2.8e-13 if a < 200 else 1e-12) if m <= 21 else 1e-9
        assert np.max(np.abs(pts - xr)) <= 2.0**-51, (a, b)
        assert np.max(np.abs(w - wr) / wr) <= wtol, (a, b)


def test_stacked_segment_rules_equal_the_single_ones():
    for m in (1, 2, 7, 40):
        pts, w = tk.gauss_jacobi_rule(m, [1.5, -0.5, 200.0], [0.25, 3.0, 0.0])
        assert pts.shape == w.shape == (3, m)
        for r, (a, b) in enumerate([(1.5, 0.25), (-0.5, 3.0), (200.0, 0.0)]):
            one = tk.gauss_jacobi_rule(m, a, b)
            assert np.array_equal(pts[r], one[0]) and np.array_equal(w[r], one[1])


def test_segment_rules_do_not_depend_on_the_blas_thread_count():
    src = os.path.dirname(os.path.dirname(tk.__file__))
    code = (
        "import hashlib, trikoorn as tk; h = hashlib.sha256()\n"
        "for m in (1, 2, 21, 101, 201, 401):\n"
        "    for a, b in ((0.0, 0.0), (5.0, 0.5), (-0.9, -0.9), (2.5, 1.5), (200.0, 0.0)):\n"
        "        for v in tk.gauss_jacobi_rule(m, a, b): h.update(v.tobytes())\n"
        "print(h.hexdigest())"
    )
    digests = set()
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        digests.add(out.stdout.strip())
    assert len(digests) == 1


def test_segment_rule_warns_at_no_edge_of_float64():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m in (1, 4, 101, 401):
            _, w = tk.gauss_jacobi_rule(m, 200.0, 0.0)
            assert abs(w.sum() - 1.0 / 201.0) < 1e-13 / 201.0
        for m, a, b in [(3, 1.0, 1e300), (1, 1.0, 1e300), (2, 1e7, 0.0), (3, 1e150, 1e150)]:
            with pytest.raises(ValueError, match="out of float64 range"):
                tk.gauss_jacobi_rule(m, a, b)


def test_segment_rule_rejects_bad_arguments():
    with pytest.raises(ValueError):
        tk.gauss_jacobi_rule(0, 0.0, 0.0)
    with pytest.raises(ValueError):
        tk.gauss_jacobi_rule(3, -1.0, 0.0)


def test_segment_rule_survives_overflowing_gammas():
    # gamma(a + b + 2) overflows beyond a + b + 2 = 171.6, while the zeroth
    # moment B(b + 1, a + 1) = 1/201 here is an ordinary number
    pts, w = tk.gauss_jacobi_rule(4, 200.0, 0.0)
    assert np.all((pts > 0.0) & (pts < 1.0))
    for p in range(8):
        want = beta_fn(p + 1, 201.0)
        assert abs(np.sum(w * pts**p) - want) < 1e-12 * want


def test_segment_rule_keeps_the_gamma_ratio_where_it_is_finite():
    a, b = 2.5, 160.0
    _, w = tk.gauss_jacobi_rule(1, a, b)
    assert w[0] == math.gamma(a + 1) * math.gamma(b + 1) / math.gamma(a + b + 2)


@pytest.mark.parametrize("m, a, b", [(3, 1.0, 1e300), (1, 1.0, 1e300), (2, 1e7, 0.0), (3, 1e150, 1e150)])
def test_segment_rule_out_of_float64_range_raises(m, a, b):
    with pytest.raises(ValueError, match="out of float64 range"):
        tk.gauss_jacobi_rule(m, a, b)


# ------------------------------------------------------------ triangle rule


def test_triangle_rule_one_point_is_weighted_centroid():
    r = tk.duffy_rule(1, tk.TriParams(0, 0, 0, 0))
    assert np.allclose(r.points, [[1.0 / 3.0, 1.0 / 3.0]], atol=1e-15)
    assert np.allclose(r.weights, [0.5], atol=1e-15)


def test_triangle_rule_points_inside_weights_positive():
    rng = _rng(2)
    for _ in range(8):
        q = tk.TriParams(*rng.uniform(-0.5, 2.0, 4))
        r = tk.duffy_rule(4, q)
        x, y = r.points[:, 0], r.points[:, 1]
        assert np.all((x > 0) & (y > 0) & (x + y < 1))
        assert np.all(r.weights > 0)
        assert r.points.shape == (16, 2)


def test_triangle_rule_moments_match_beta_integrals():
    rng = _rng(3)
    for _ in range(10):
        q = tk.TriParams(*rng.uniform(-0.5, 2.0, 4))
        m = 5
        r = tk.duffy_rule(m, q)
        x, y = r.points[:, 0], r.points[:, 1]
        # strength 2m-1 in total degree
        for i, j in [(0, 0), (1, 0), (0, 1), (3, 2), (4, 4), (9, 0), (0, 9)]:
            want = _tri_moment(i, j, q)
            got = np.sum(r.weights * x**i * y**j)
            assert abs(got - want) < 1e-12 * max(1.0, want)


def test_triangle_rule_absorbs_full_weight():
    # the weights integrate the plain monomial times the weight function;
    # a second multiplication by the weight is never needed
    q = tk.TriParams(1.0, 2.0, 0.5, 0.25)
    r = tk.duffy_rule(3, q)
    assert abs(np.sum(r.weights) - _tri_moment(0, 0, q)) < 1e-13


def test_triangle_rule_rejects_nonintegrable_weight():
    # b + c + d + 2 <= 0 makes the collapsed-direction weight non-integrable
    with pytest.raises(ValueError):
        tk.duffy_rule(3, tk.TriParams(0.0, -0.9, -0.9, -0.5))


# ---------------------------------------------------------------- analysis


def test_round_trip_on_coefficient_space():
    rng = _rng(4)
    N = 8
    for pset in [(0.0, 0.0, 0.0, 0.0), (0.5, 1.5, 2.5, 0.0), (1.0, 0.0, 2.0, 0.5)]:
        q = tk.TriParams(*pset)
        basis = tk.BasisTag(q, False, N)
        v = tk.CoeffVec(basis, rng.standard_normal(tk.basis_size(N)))
        rule = tk.duffy_rule(N + 1, q)
        vals = tk.synthesize(v, rule.points)
        back = tk.analyze(vals, N, q)
        assert np.max(np.abs(back.values - v.values)) < 1e-11 * max(
            1.0, np.max(np.abs(v.values))
        )


def test_analyze_accepts_callables():
    q = tk.TriParams(0, 0, 0, 0)
    got = tk.analyze(lambda x, y: np.ones_like(x), 3, q)
    want = np.zeros(tk.basis_size(3))
    want[0] = 1.0
    assert np.max(np.abs(got.values - want)) < 1e-13


def test_analyze_resolves_exact_degree():
    # the quadratic mode is reproduced exactly at truncation 2 and leaves a
    # nonzero tail at truncation 1
    q = tk.TriParams(0, 0, 0, 0)

    def f(x, y):
        return 5 * x**2 + 10 * x * y - 6 * x - 2 * y + 1

    c2 = tk.analyze(f, 2, q)
    want = np.zeros(tk.basis_size(2))
    want[tk.index_to_linear(tk.TriIndex(2, 1))] = 1.0
    assert np.max(np.abs(c2.values - want)) < 1e-12
    c1 = tk.analyze(f, 1, q)
    rng = _rng(5)
    pts = _interior(rng, 12)
    resid = tk.synthesize(c1, pts) - f(pts[:, 0], pts[:, 1])
    assert np.max(np.abs(resid)) > 1e-3


def test_analyze_matches_multiplication_column():
    # f(x,y) = x analyzed in the lowered basis equals the first column of
    # the x-multiplication operator out of the raised basis
    q = tk.TriParams(1.0, 0.0, 0.0, 0.0)
    op = tk.build_mult_x(2, q)
    col = tk.to_dense(op)[:, 0]
    got = tk.analyze(lambda x, y: x, 3, tk.TriParams(0.0, 0.0, 0.0, 0.0))
    assert got.values.shape == col.shape
    assert np.max(np.abs(got.values - col)) < 1e-12


def test_weighted_synthesis_multiplies_by_weight():
    rng = _rng(6)
    q = tk.TriParams(0.5, 1.5, 1.0, 0.0)
    N = 4
    vals = rng.standard_normal(tk.basis_size(N))
    plain = tk.CoeffVec(tk.BasisTag(q, False, N), vals)
    weighted = tk.CoeffVec(tk.BasisTag(q, True, N), vals)
    pts = _interior(rng, 10)
    wfun = tk.weight_eval(q, tk.TriPoint(pts[:, 0], pts[:, 1]))
    assert np.allclose(
        tk.synthesize(weighted, pts), wfun * tk.synthesize(plain, pts), atol=1e-13
    )


# ---------------------------------------------- factored against the dense table


def _smooth(x, y):
    return np.exp(x - 2 * y) / (1 + 4 * x * y)


def _dense_analyze(vals, N, q, m):
    # the projection by the full points x basis table
    rule = tk.duffy_rule(m, q)
    B = tk.basis_eval_all(N, q, rule.points)
    return B.T @ (rule.weights * vals) / np.einsum("pi,p,pi->i", B, rule.weights, B)


@pytest.mark.parametrize(
    "pset, N, m",
    [
        ((0.0, 0.0, 0.0, 0.0), 12, 13),
        ((1.5, -0.5, 1.0, 0.0), 12, 13),
        ((2.0, 1.5, -0.5, 0.0), 9, 10),
        ((0.5, -0.9, -0.9, 0.0), 12, 13),  # the t-direction table lifts
        ((-0.5, -0.9, -0.9, 0.0), 7, 8),
        ((1.0, 0.5, 2.5, 0.7), 10, 11),  # d != 0
        ((0.5, 1.0, 0.0, 0.0), 8, 14),  # m > N + 1
    ],
)
def test_factored_analyze_matches_the_dense_projection(pset, N, m):
    q = tk.TriParams(*pset)
    rule = tk.duffy_rule(m, q)
    vals = _smooth(rule.points[:, 0], rule.points[:, 1])
    want = _dense_analyze(vals, N, q, m)
    got = tk.analyze(_smooth, N, q, m).values
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    # the callable is sampled at exactly the rule's nodes
    assert np.array_equal(tk.analyze(vals, N, q, m).values, got)


def _table_sums(N, q, m, vals):
    # analyze's numerator and denominator by the whole (basis, m) edge table
    # and its gathered t-sums: the table route the streamed sums must equal
    s, ws, t, wt = _duffy_factors(m, q)
    with np.errstate(over="ignore", invalid="ignore"):
        P = _shifted_table(N, q.c, q.b, np.append(t, 1.0))[0]
        Q, k = P[:, :-1] / P[:, -1:], _graded_indices(N)[1]
        E = _tri_tables(N, q, s, 1 - s, second=P[:, -1:] * (1 - s) ** np.arange(N + 1)[:, None])[0]
        den = np.einsum("ri,ri,i->r", E, E, ws) * ((Q * Q) @ wt)[k]
    g = (ws[:, None] * vals.reshape(m, m) * wt) @ Q.T
    return np.einsum("ri,ri->r", E, g.T[k]), den


_LIFTED = [(-0.9, -0.95, -0.95, 0.0), (-0.95, -0.9, -0.95, 0.0)]  # the k = 0 first factor lifts


@pytest.mark.parametrize("rows", [1, 3, None])  # rows per block; None is _SUM_BLOCK's own
@pytest.mark.parametrize(
    "pset, N, m",
    [
        ((0.5, 1.5, 2.5, 0.0), 0, 1),
        ((0.5, 1.5, 2.5, 0.0), 1, 2),
        ((0.5, 1.5, 2.5, 0.0), 5, 6),
        ((0.5, 1.5, 2.5, 0.0), 40, 41),
        ((1.0, 0.5, 2.5, 0.7), 5, 9),  # d != 0, m > N + 1
        ((0.5, -0.9, -0.9, 0.0), 40, 47),  # the t-direction table lifts
        (_LIFTED[0], 5, 6),
        (_LIFTED[0], 40, 41),
        (_LIFTED[1], 40, 43),
    ],
)
def test_streamed_sums_equal_the_table_route_bit_for_bit(monkeypatch, pset, N, m, rows):
    # blocks of 1 and 3 rows split inside a degree, whose rows exceed a block
    if rows:
        monkeypatch.setattr(koornwinder, "_SUM_BLOCK", rows * m + m - 1)
    q = tk.TriParams(*pset)
    s, _, t, _ = _duffy_factors(m, q)
    vals = _smooth(*_duffy_points(s, t))
    num, den = _table_sums(N, q, m, vals)
    assert np.array_equal(tk.analyze(vals, N, q, m).values, num / den)
    if m == N + 1:
        for k in range(N + 1):
            assert tk.norm_sq(tk.TriIndex(N, k), q) == den[N * (N + 1) // 2 + k]


def _dense_synthesize(vec, pts):
    # the sum over the full points x basis table, and the sum of its |terms|
    B = tk.basis_eval_all(vec.basis.maxdeg, vec.basis.params, pts)
    w = tk.weight_eval(vec.basis.params, tk.TriPoint(pts[:, 0], pts[:, 1])) if vec.basis.weighted else 1.0
    return w * (B @ vec.values), np.abs(w) * (np.abs(B) @ np.abs(vec.values))


@pytest.mark.parametrize(
    "pset, weighted",
    [
        ((0.5, 1.5, 2.5, 0.0), False),
        ((0.5, 1.5, 2.5, 0.0), True),
        ((0.5, -0.9, -0.9, 0.0), False),
        ((1.0, 0.5, 2.5, 0.7), False),
    ],
)
def test_factored_synthesize_matches_the_dense_sum(pset, weighted):
    rng = _rng(11)
    q = tk.TriParams(*pset)
    N = 9
    vec = tk.CoeffVec(tk.BasisTag(q, weighted, N), rng.standard_normal(tk.basis_size(N)))
    g = 8
    grid = np.array([(i / g, j / g) for i in range(g + 1) for j in range(g + 1 - i)])
    assert np.unique(grid[:, 0]).size == g + 1  # x repeats down each grid column
    scattered = _interior(rng, 25)
    batches = [grid, scattered, scattered[:1], np.array([[1.0, 0.0], [0.4, 0.6], [1.0, 0.0]])]
    for pts in batches:
        want, terms = _dense_synthesize(vec, pts)
        got = tk.synthesize(vec, pts)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-13 * terms)
    as_points = [tk.TriPoint(x, y) for x, y in scattered]
    assert np.array_equal(tk.synthesize(vec, as_points), tk.synthesize(vec, scattered))


def _grid(g):
    return np.array([(i / g, j / g) for i in range(g + 1) for j in range(g + 1 - i)])


def _table_synthesize(vec, pts):
    # the sum over the whole (N + 1) x points second-factor table, by einsum
    N, q = vec.basis.maxdeg, vec.basis.params
    xu, at = np.unique(pts[:, 0], return_inverse=True)
    F = _first_factors(N, _first_factor_param(np.arange(N + 1), q), q.a, xu)[0] * vec.values[:, None]
    G = np.zeros((N + 1, xu.size))
    for n in range(N + 1):
        G[: n + 1] += F[n * (n + 1) // 2 : (n + 1) * (n + 2) // 2]
    H = _shifted_table(N, q.c, q.b, pts[:, 1], 0, 1.0 - pts[:, 0])[0]
    out = np.einsum("kp,kp->p", H, G[:, at])
    return out * tk.weight_eval(q, tk.TriPoint(pts[:, 0], pts[:, 1])) if vec.basis.weighted else out


@pytest.mark.parametrize(
    "pset, weighted",
    [
        ((0.5, 1.5, 2.5, 0.0), False),
        ((0.5, 1.5, 2.5, 0.0), True),
        ((0.5, -0.9, -0.9, 0.0), False),  # the second factors lift
        ((2.0, -0.99, -0.99, 0.0), False),
    ],
)
def test_streamed_synthesize_equals_the_table_sum_bit_for_bit(pset, weighted):
    rng = _rng(12)
    q = tk.TriParams(*pset)
    batches = [_grid(200), _interior(rng, 40), np.array([[1.0, 0.0], [0.4, 0.6], [1.0, 0.0], [0.0, 0.0]])]
    for N in (0, 1, 9, 60):
        vec = tk.CoeffVec(tk.BasisTag(q, weighted, N), rng.standard_normal(tk.basis_size(N)))
        for pts in batches:
            assert np.array_equal(tk.synthesize(vec, pts), _table_synthesize(vec, pts))


def test_weighted_synthesize_is_finite_where_z_rounds_below_zero():
    # 1 - x - y rounds to -1.1e-16 at 40 hypotenuse points of the 200-grid
    # (the grid `solve` writes); the weight reads z = 0 there
    pts = _grid(200)
    z = 1.0 - pts[:, 0] - pts[:, 1]
    edge = pts[z < 0.0]
    assert len(edge) == 40 and z.min() > -2e-16
    vec = tk.CoeffVec(tk.BasisTag(tk.TriParams(0.5, 1.5, 2.5), True, 9), _rng(15).standard_normal(tk.basis_size(9)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = tk.synthesize(vec, pts)
        assert np.isfinite(got).all()
        assert np.array_equal(tk.synthesize(vec, edge), np.zeros(40))
        # a negative c still makes the weight infinite at those points
        neg = tk.CoeffVec(tk.BasisTag(tk.TriParams(0.5, 1.5, -0.5), True, 3), np.ones(tk.basis_size(3)))
        with pytest.raises(ValueError, match="infinite at 40 of 40 points"):
            tk.synthesize(neg, edge)
    # a point further outside keeps the fractional power's NaN
    with np.errstate(invalid="ignore"):
        assert np.isnan(tk.weight_eval(vec.basis.params, tk.TriPoint(0.5, 0.5 + 1e-12)))


@pytest.mark.parametrize(
    "pset, pts, first",
    [
        ((-0.5, 0.5, 0.5, 0.0), [[0.0, 0.5]], "(0.0, 0.5)"),  # x = 0
        ((0.5, -0.5, 0.5, 0.0), [[0.3, 0.2], [0.5, 0.0], [0.25, 0.0]], "(0.5, 0.0)"),  # y = 0
        ((0.5, 0.5, -0.5, 0.0), [[0.3, 0.2], [0.4, 0.6]], "(0.4, 0.6)"),  # z = 0
    ],
)
def test_weighted_synthesize_names_the_first_point_where_the_weight_is_infinite(pset, pts, first):
    q = tk.TriParams(*pset)
    vec = tk.CoeffVec(tk.BasisTag(q, True, 3), np.ones(tk.basis_size(3)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning from the power on the way
        with pytest.raises(ValueError, match=rf"the first at \(x, y\) = {re.escape(first)}"):
            tk.synthesize(vec, np.array(pts))
        # interior points keep their finite values
        assert np.isfinite(tk.synthesize(vec, np.array([[0.3, 0.2]]))).all()


@pytest.mark.parametrize(
    "pset, pts, lost, first",
    [
        ((0.5, 1.5, 2.5, 0.0), [[0.3, 0.2], [0.7, 0.7], [-0.1, 0.3]], 2, "(0.7, 0.7)"),  # z < 0, then x < 0
        ((0.5, 1.5, 2.5, 0.0), [[-0.1, 0.3]], 1, "(-0.1, 0.3)"),
        ((-0.5, 0.5, 0.5, 0.0), [[0.0, 0.0]], 1, "(0.0, 0.0)"),  # an infinite x^a times y^b = 0
    ],
)
def test_weighted_synthesize_names_the_first_point_where_the_weight_is_not_real(pset, pts, lost, first):
    q, pts = tk.TriParams(*pset), np.array(pts)
    vec = tk.CoeffVec(tk.BasisTag(q, True, 3), np.ones(tk.basis_size(3)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning from the power on the way
        want = rf"not a real number at {lost} of {len(pts)} points, the first at \(x, y\) = {re.escape(first)}"
        with pytest.raises(ValueError, match=want):
            tk.synthesize(vec, pts)
        # the unweighted field still evaluates there
        assert np.isfinite(tk.synthesize(tk.CoeffVec(tk.BasisTag(q, False, 3), np.ones(tk.basis_size(3))), pts)).all()


def _numpy_peak(fn, *args):
    """fn(*args), and the peak of the memory tracemalloc traces during the call, in bytes."""
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()


def test_synthesize_at_degree_60_on_the_200_grid_keeps_its_numpy_peak_under_8_mb():
    # the whole (N + 1) x points second-factor table and its gathered first
    # factors would take 23.3 MB; the streamed sum holds a few rows of points
    q = tk.TriParams(1.0, 0.5, 0.5, 0.0)
    vec = tk.CoeffVec(tk.BasisTag(q, False, 60), _rng(13).standard_normal(tk.basis_size(60)))
    vals, peak = _numpy_peak(tk.synthesize, vec, _grid(200))
    assert np.isfinite(vals).all()
    assert peak < 8e6


def test_analyze_at_degree_100_keeps_its_numpy_peak_small():
    # a points x basis table at N = 100 would take 10201 x 5151 doubles, 420 MB,
    # and the (basis, m) edge table 5151 x 101 doubles, 4.2 MB; the rows stream
    coef, peak = _numpy_peak(tk.analyze, _smooth, 100, tk.TriParams(0.5, 0.5, 1.0, 0.0))
    assert np.isfinite(coef.values).all()
    assert peak < 4e6


def test_analyze_at_degree_400_keeps_its_numpy_peak_in_o_n_squared():
    # the edge table alone would take 80601 x 401 doubles, 259 MB
    coef, peak = _numpy_peak(tk.analyze, _smooth, 400, tk.TriParams(0.5, 0.5, 1.0, 0.0))
    assert np.isfinite(coef.values).all()
    assert peak < 40e6


# ------------------------------------------------------- norms and the Gram


def test_norm_frozen_values():
    q0 = tk.TriParams(0, 0, 0, 0)
    assert abs(tk.norm_sq(tk.TriIndex(0, 0), q0) - 0.5) < 1e-14
    assert abs(tk.norm_sq(tk.TriIndex(2, 1), q0) - 1.0 / 18.0) < 1e-14


def _norm_sq_from_the_table(n, k, q):
    # the column of the full degree-n table, as norm_sq used to take it
    rule = tk.duffy_rule(n + 1, q)
    col = tk.basis_eval_all(n, q, rule.points)[:, n * (n + 1) // 2 + k]
    return float(np.dot(rule.weights, col * col))


@pytest.mark.parametrize(
    "pset", [(0.0, 0.0, 0.0, 0.0), (0.5, 1.5, 2.5, 0.0), (1.0, 0.0, 2.0, 0.5), (-0.9, -0.5, -0.5, 0.0)]
)
def test_norm_sq_equals_the_column_of_the_full_table(pset):
    q = tk.TriParams(*pset)
    for n in range(8):
        for k in range(n + 1):
            want = _norm_sq_from_the_table(n, k, q)
            assert abs(tk.norm_sq(tk.TriIndex(n, k), q) - want) <= 1e-14 * want


def test_norm_sq_moves_at_roundoff_where_only_the_table_lifts():
    # b + c near -2: the degree-n table lifts H_1 from (c+1, b+1), while the
    # single element takes the degree-1 closed form
    q = tk.TriParams(0.5, -0.9, -0.9, 0.5)
    for n in range(2, 8):
        for k in range(n + 1):
            want = _norm_sq_from_the_table(n, k, q)
            assert abs(tk.norm_sq(tk.TriIndex(n, k), q) - want) <= 1e-15 * want


def _log_h(n, alpha, beta):
    # log of the squared norm of the degree-n Jacobi polynomial on (0, 1)
    # under x^beta (1-x)^alpha, normalized to P(1) = binom(n + alpha, n)
    if n == 0:
        return math.lgamma(alpha + 1) + math.lgamma(beta + 1) - math.lgamma(alpha + beta + 2)
    return (
        math.lgamma(n + alpha + 1)
        + math.lgamma(n + beta + 1)
        - math.log(2 * n + alpha + beta + 1)
        - math.lgamma(n + alpha + beta + 1)
        - math.lgamma(n + 1)
    )


def _closed_form_norm_sq(n, k, q):
    # under the Duffy map the squared norm is a product of two 1-D Jacobi norms
    return math.exp(_log_h(n - k, 2 * k + q.b + q.c + q.d + 1, q.a) + _log_h(k, q.c, q.b))


_NORM_PSETS = [
    (0.0, 0.0, 0.0, 0.0),
    (0.5, 1.5, 2.5, 0.0),
    (1.0, 0.0, 2.0, 0.5),
    (0.5, -0.9, -0.9, 0.0),
    (-0.5, -0.9, -0.9, 0.7),
]


@pytest.mark.parametrize("pset", _NORM_PSETS)
def test_norms_match_the_closed_form(pset):
    q = tk.TriParams(*pset)
    N = 11
    want = np.array([_closed_form_norm_sq(n, k, q) for n in range(N + 1) for k in range(n + 1)])
    got = np.array([tk.norm_sq(tk.TriIndex(n, k), q) for n in range(N + 1) for k in range(n + 1)])
    assert np.all(np.abs(got - want) <= 1e-13 * want)
    diag = np.diag(tk.gram_matrix(N, q, N + 2))
    assert np.all(np.abs(diag - want) <= 1e-13 * want)


@pytest.mark.parametrize("pset", _NORM_PSETS + _LIFTED)
def test_norm_sq_reads_the_edge_tables_denominator(pset):
    # norm_sq streams the rows whose sums the table route takes whole
    q = tk.TriParams(*pset)
    for n in range(9):
        den = _table_sums(n, q, n + 1, np.zeros((n + 1) ** 2))[1]
        for k in range(n + 1):
            assert tk.norm_sq(tk.TriIndex(n, k), q) == den[n * (n + 1) // 2 + k]


def _dense_gram(N, q, m):
    # the Gram matrix by the full points x basis table
    rule = tk.duffy_rule(m, q)
    B = tk.basis_eval_all(N, q, rule.points)
    return B.T @ (rule.weights[:, None] * B)


@pytest.mark.parametrize(
    "pset, N, m",
    [
        ((0.0, 0.0, 0.0, 0.0), 12, 13),
        ((0.5, 1.5, 2.5, 0.0), 10, 12),
        ((1.0, 0.5, 2.5, 0.7), 10, 11),  # d != 0
        ((0.5, -0.9, -0.9, 0.0), 12, 13),  # the t-direction table lifts
        ((-0.5, -0.9, -0.9, 0.3), 7, 12),
        ((2.0, 1.5, -0.5, 0.0), 4, 9),  # m > N + 1
    ],
)
def test_factored_gram_matches_the_dense_table(pset, N, m):
    q = tk.TriParams(*pset)
    want = _dense_gram(N, q, m)
    got = tk.gram_matrix(N, q, m)
    assert got.shape == want.shape == (tk.basis_size(N),) * 2
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.diag(want))


def test_gram_at_degree_60_keeps_its_numpy_peak_small():
    # the output takes 1891^2 doubles, 29 MB; a points x basis table would add
    # 3721 x 1891 doubles, and its weighted copy as many again
    q = tk.TriParams(0.5, 0.5, 1.0, 0.0)
    G, peak = _numpy_peak(tk.gram_matrix, 60, q, 61)
    assert np.isfinite(G).all()
    assert peak < 80e6


def test_gram_is_diagonal_with_norms():
    rng = _rng(7)
    N, m = 5, 7
    for pset in [(0.0, 0.0, 0.0, 0.0), (0.5, 1.5, 2.5, 0.0), (1.0, 1.0, 1.0, 0.5)]:
        q = tk.TriParams(*pset)
        G = tk.gram_matrix(N, q, m)
        diag = np.diag(G)
        off = G - np.diag(diag)
        assert np.max(np.abs(off)) < 1e-10 * np.max(diag)
        for lin in range(tk.basis_size(N)):
            idx = tk.linear_to_index(lin)
            assert abs(diag[lin] - tk.norm_sq(idx, q)) < 1e-11 * max(1.0, diag[lin])


def test_gram_rejects_insufficient_rule():
    with pytest.raises(ValueError):
        tk.gram_matrix(5, tk.TriParams(0, 0, 0, 0), 5)


@pytest.mark.parametrize("m", [1, 3])
def test_analyze_rejects_insufficient_rule(m):
    # at m <= N element (m, 0) vanishes at every node: a zero discrete norm
    with pytest.raises(ValueError, match="exactness requirement"):
        tk.analyze(lambda x, y: x, 3, tk.TriParams(0, 0, 0, 0), m)


def test_analyze_raises_where_the_rule_weights_underflow():
    with pytest.raises(ValueError, match="out of float64 range"):
        tk.analyze(lambda x, y: x, 3, tk.TriParams(200.0, 300.0, 400.0, 0.0))


def test_norm_sq_raises_where_the_rule_weights_underflow():
    # every product weight of this Duffy rule is 0.0, so the norm would read 0
    with pytest.raises(ValueError, match=r"\(n, k\) = \(2, 1\) is out of float64 range"):
        tk.norm_sq(tk.TriIndex(2, 1), tk.TriParams(200.0, 300.0, 400.0, 0.0))


def test_gram_matrix_raises_where_the_rule_weights_underflow():
    with pytest.raises(ValueError, match="6 squared norms are out of float64 range"):
        tk.gram_matrix(2, tk.TriParams(200.0, 300.0, 400.0, 0.0), 3)


# -------------------------------------------------------------------- files


def test_coeff_csv_round_trip(tmp_path):
    rng = _rng(8)
    basis = tk.BasisTag(tk.TriParams(0.5, 0.0, 1.0, 0.0), False, 3)
    v = tk.CoeffVec(basis, rng.standard_normal(tk.basis_size(3)))
    path = tmp_path / "c.csv"
    tk.save_coeffs_csv(v, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "n,k,value"
    assert lines[1].startswith("0,0,")
    back = tk.load_coeffs_csv(path, basis)
    assert np.array_equal(back.values, v.values)


def test_coeff_csv_rejects_malformed_input(tmp_path):
    basis = tk.BasisTag(tk.TriParams(0, 0, 0, 0), False, 2)
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("a,b,c\n0,0,1.0\n")
    with pytest.raises(ValueError):
        tk.load_coeffs_csv(bad_header, basis)
    out_of_range = tmp_path / "r.csv"
    out_of_range.write_text("n,k,value\n" + "3,0,1.0\n" * 6)
    with pytest.raises(ValueError):
        tk.load_coeffs_csv(out_of_range, basis)
    short = tmp_path / "s.csv"
    short.write_text("n,k,value\n0,0,1.0\n")
    with pytest.raises(ValueError):
        tk.load_coeffs_csv(short, basis)


def test_values_csv_round_trip(tmp_path):
    rng = _rng(9)
    pts = _interior(rng, 7)
    vals = rng.standard_normal(7)
    path = tmp_path / "v.csv"
    tk.save_values_csv(pts, vals, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,y,value"
    back_pts, back_vals = tk.load_values_csv(path)
    assert np.array_equal(back_pts, pts)
    assert np.array_equal(back_vals, vals)


def test_csv_texts_equal_the_per_row_format():
    rng = _rng(10)
    N = 6
    vec = tk.CoeffVec(tk.BasisTag(tk.TriParams(0, 0, 0, 0), False, N), rng.standard_normal(tk.basis_size(N)))
    vec.values[[0, 3, 7]] = [0.0, -0.0, 1e-300]
    want = ["n,k,value"]
    i = 0
    for n in range(N + 1):
        for k in range(n + 1):
            want.append(f"{n},{k},{vec.values[i]:.17g}")
            i += 1
    assert tk.transform.coeffs_csv_text(vec) == "\n".join(want) + "\n"
    pts = np.vstack([_interior(rng, 9), [[1.0, 0.0], [0.0, 0.0], [1 / 3, 2 / 3]]])
    vals = rng.standard_normal(len(pts)) * 10.0 ** rng.integers(-20, 20, len(pts))
    want = ["x,y,value"] + [f"{x:.17g},{y:.17g},{v:.17g}" for (x, y), v in zip(pts, vals)]
    assert tk.transform.values_csv_text(pts, vals) == "\n".join(want) + "\n"
    assert tk.transform.values_csv_text(list(map(tuple, pts)), list(vals)) == "\n".join(want) + "\n"


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_csv_readers_reject_non_finite_values(tmp_path, bad):
    basis = tk.BasisTag(tk.TriParams(0, 0, 0, 0), False, 1)
    coeffs = tmp_path / "c.csv"
    coeffs.write_text(f"n,k,value\n0,0,1.0\n1,0,{bad}\n1,1,0.5\n")
    with pytest.raises(ValueError, match="finite"):
        tk.load_coeffs_csv(coeffs, basis)
    values = tmp_path / "v.csv"
    values.write_text(f"x,y,value\n0.2,0.3,1.0\n0.1,{bad},2.0\n")
    with pytest.raises(ValueError, match="finite"):
        tk.load_values_csv(values)


def test_analyze_rejects_non_finite_samples():
    q = tk.TriParams(0, 0, 0, 0)
    with pytest.raises(ValueError, match="samples are not finite"):
        tk.analyze(lambda x, y: np.full_like(x, np.nan), 3, q)
    vals = np.ones(tk.duffy_rule(4, q).points.shape[0])
    vals[[2, 5]] = [np.inf, np.nan]
    with pytest.raises(ValueError, match="2 of 16 samples"):
        tk.analyze(vals, 3, q)

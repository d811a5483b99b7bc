"""Tests for the Jacobi evaluation layer and its ladder operators."""

import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import eval_jacobi

import trikoorn as tk
from trikoorn import jacobi
from trikoorn.jacobi import _homog_table, _recurrence_safe, _rows, _shifted_table


def _rng(tag):
    return np.random.default_rng([1729, tag])


def _scipy_deriv(n, a, b, x):
    # classical parameter-shift derivative, independent of the package
    if n == 0:
        return np.zeros_like(np.asarray(x, dtype=float))
    return 0.5 * (n + a + b + 1) * eval_jacobi(n - 1, a + 1, b + 1, x)


# ---------------------------------------------------------------- evaluation


def test_interval_eval_frozen_values():
    # P_3^{(1,1)}(1/4) = -41/64, exact rational from the closed form
    got = tk.jacobi_eval(3, tk.JacobiParams(1.0, 1.0), 0.25)
    assert abs(got - (-41.0 / 64.0)) < 1e-14
    got = tk.jacobi_eval(5, tk.JacobiParams(0.5, -0.25), 0.3)
    assert abs(got - 0.3206758001327515) < 1e-13


def test_interval_eval_degree_zero_and_one():
    p = tk.JacobiParams(0.7, -0.3)
    x = np.linspace(-1, 1, 7)
    assert np.allclose(tk.jacobi_eval(0, p, x), 1.0, atol=0)
    lin = 0.5 * (p.a + p.b + 2) * (x - 1) + (p.a + 1)
    assert np.allclose(tk.jacobi_eval(1, p, x), lin, atol=1e-15)


@pytest.mark.parametrize("n", [2, 5, 11, 20])
def test_interval_eval_matches_scipy(n):
    rng = _rng(n)
    for _ in range(20):
        a, b = rng.uniform(-0.9, 3.0, 2)
        x = rng.uniform(-1.0, 1.0, 9)
        got = tk.jacobi_eval(n, tk.JacobiParams(a, b), x)
        ref = eval_jacobi(n, a, b, x)
        assert np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))) < 1e-12


def test_interval_eval_accepts_scalars_and_arrays():
    p = tk.JacobiParams(0.5, 0.5)
    xs = np.array([-0.4, 0.1, 0.9])
    batch = tk.jacobi_eval(4, p, xs)
    singles = [tk.jacobi_eval(4, p, float(x)) for x in xs]
    assert np.allclose(batch, singles, atol=0)


def test_interval_deriv_matches_parameter_shift():
    rng = _rng(2)
    for n in range(0, 13):
        a, b = rng.uniform(-0.9, 2.5, 2)
        x = rng.uniform(-1.0, 1.0, 8)
        got = tk.jacobi_deriv(n, tk.JacobiParams(a, b), x)
        ref = _scipy_deriv(n, a, b, x)
        assert np.max(np.abs(got - ref)) < 1e-10 * max(1.0, np.max(np.abs(ref)))


def test_shifted_eval_is_interval_at_doubled_argument():
    rng = _rng(3)
    for _ in range(30):
        n = int(rng.integers(0, 16))
        a, b = rng.uniform(-0.9, 3.0, 2)
        x = rng.uniform(0.0, 1.0, 6)
        got = tk.shifted_jacobi_eval(n, tk.JacobiParams(a, b), x)
        ref = eval_jacobi(n, a, b, 2.0 * x - 1.0)
        assert np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))) < 1e-12


def test_shifted_eval_frozen_value():
    # exact rational: -3177909/10000000 at x = 31/50
    got = tk.shifted_jacobi_eval(4, tk.JacobiParams(1.5, 0.5), 0.62)
    assert abs(got - (-0.3177909)) < 1e-14


def test_shifted_deriv_chain_rule():
    rng = _rng(4)
    for n in range(1, 10):
        a, b = rng.uniform(-0.9, 2.0, 2)
        x = rng.uniform(0.0, 1.0, 6)
        got = tk.shifted_jacobi_deriv(n, tk.JacobiParams(a, b), x)
        ref = 2.0 * _scipy_deriv(n, a, b, 2.0 * x - 1.0)
        assert np.max(np.abs(got - ref)) < 1e-10 * max(1.0, np.max(np.abs(ref)))


# ------------------------------------------------------- homogenized factor


def test_homog_matches_scaled_shifted_at_positive_scale():
    rng = _rng(5)
    for _ in range(40):
        k = int(rng.integers(0, 12))
        a, b = rng.uniform(-0.9, 2.5, 2)
        s = rng.uniform(0.2, 1.5)
        y = rng.uniform(0.0, s)
        got = tk.homog_shifted_eval(k, tk.JacobiParams(a, b), y, s)
        ref = s**k * eval_jacobi(k, a, b, 2.0 * y / s - 1.0)
        assert abs(got - ref) < 1e-12 * max(1.0, abs(ref))


def test_homog_finite_at_zero_scale():
    # s = 0 must evaluate without dividing; value is the leading-term limit
    p = tk.JacobiParams(0.0, 0.0)
    y = 0.7
    got = tk.homog_shifted_eval(3, p, y, 0.0)
    # lim s->0 s^3 Pt_3(y/s) = (leading coeff of Pt_3) y^3 = 20 y^3
    assert abs(got - 20.0 * y**3) < 1e-12


def test_homog_vectorized_scale():
    p = tk.JacobiParams(0.5, 1.5)
    y = np.array([0.1, 0.2, 0.3])
    s = np.array([0.9, 0.5, 1.0])
    batch = tk.homog_shifted_eval(4, p, y, s)
    singles = [tk.homog_shifted_eval(4, p, float(yv), float(sv)) for yv, sv in zip(y, s)]
    assert np.allclose(batch, singles, atol=0)


# ------------------------------------------------------------------ ladders

_INTERVAL_MOVES = {
    # s: (dn, da, db) for the undaggered direction
    1: (-1, 1, 1),
    2: (0, 1, 0),
    3: (0, 0, 1),
    4: (1, -1, 0),
    5: (1, 0, -1),
    6: (0, 1, -1),
}


@pytest.mark.parametrize("s", sorted(_INTERVAL_MOVES))
@pytest.mark.parametrize("dagger", [False, True])
def test_interval_ladder_step_family_moves(s, dagger):
    p = tk.JacobiParams(0.5, 0.5)
    st = tk.jacobi_ladder_step(s, dagger, 3, p)
    dn, da, db = _INTERVAL_MOVES[s]
    if dagger:
        dn, da, db = -dn, -da, -db
    assert st.n == 3 + dn
    assert st.params.a == p.a + da
    assert st.params.b == p.b + db


@pytest.mark.parametrize("s", sorted(_INTERVAL_MOVES))
@pytest.mark.parametrize("dagger", [False, True])
def test_interval_ladder_identity_against_scipy(s, dagger):
    # jet built from scipy values only, so both the factor and the
    # differential expression are checked against an external route
    rng = _rng(100 + s + 10 * dagger)
    for _ in range(25):
        n = int(rng.integers(1, 13))
        a, b = rng.choice([-0.5, 0.0, 0.5, 1.0, 2.5], 2)
        x = rng.uniform(-0.95, 0.95)
        jet = tk.Jet1(eval_jacobi(n, a, b, x), _scipy_deriv(n, a, b, x))
        p = tk.JacobiParams(a, b)
        st = tk.jacobi_ladder_step(s, dagger, n, p)
        if st.n < 0 or st.params.a <= -1.0 or st.params.b <= -1.0:
            continue
        lhs = tk.jacobi_ladder_pointwise(s, dagger, jet, n, p, x)
        rhs = st.factor * eval_jacobi(st.n, st.params.a, st.params.b, x)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs), abs(rhs))


@pytest.mark.parametrize("s", sorted(_INTERVAL_MOVES))
@pytest.mark.parametrize("dagger", [False, True])
def test_shifted_ladder_identity_against_scipy(s, dagger):
    rng = _rng(200 + s + 10 * dagger)
    for _ in range(25):
        n = int(rng.integers(1, 13))
        a, b = rng.choice([-0.5, 0.0, 0.5, 1.0, 2.5], 2)
        x = rng.uniform(0.05, 0.95)
        t = 2.0 * x - 1.0
        jet = tk.Jet1(eval_jacobi(n, a, b, t), 2.0 * _scipy_deriv(n, a, b, t))
        p = tk.JacobiParams(a, b)
        st = tk.shifted_ladder_step(s, dagger, n, p)
        if st.n < 0 or st.params.a <= -1.0 or st.params.b <= -1.0:
            continue
        lhs = tk.shifted_ladder_pointwise(s, dagger, jet, n, p, x)
        rhs = st.factor * eval_jacobi(st.n, st.params.a, st.params.b, t)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs), abs(rhs))


def test_shifted_factor_drops_interval_prefactors():
    # the shifted family replaces the 1/2 and 2 prefactors by 1, so the
    # factors can only differ from the interval ones by a power of 2
    p = tk.JacobiParams(0.5, 1.5)
    for s in range(1, 7):
        for dagger in (False, True):
            fi = tk.jacobi_ladder_factor(s, dagger, 4, p)
            fs = tk.shifted_ladder_factor(s, dagger, 4, p)
            if fi == 0.0:
                assert fs == 0.0
                continue
            ratio = fs / fi
            assert ratio in (0.5, 1.0, 2.0)


_JET = tk.Jet1(1.0, 0.5)
_LADDER_CALLS = {
    "jacobi_ladder_factor": lambda s, d, n, p: tk.jacobi_ladder_factor(s, d, n, p),
    "shifted_ladder_factor": lambda s, d, n, p: tk.shifted_ladder_factor(s, d, n, p),
    "jacobi_ladder_step": lambda s, d, n, p: tk.jacobi_ladder_step(s, d, n, p),
    "shifted_ladder_step": lambda s, d, n, p: tk.shifted_ladder_step(s, d, n, p),
    "jacobi_ladder_pointwise": lambda s, d, n, p: tk.jacobi_ladder_pointwise(s, d, _JET, n, p, 0.3),
    "shifted_ladder_pointwise": lambda s, d, n, p: tk.shifted_ladder_pointwise(s, d, _JET, n, p, 0.3),
}


@pytest.mark.parametrize("name", sorted(_LADDER_CALLS))
@pytest.mark.parametrize(
    "s, dagger, n",
    [(7, False, 0), (0, True, 2), (1, "x", 2), (2, False, -3), (2, False, 2.5)],
    ids=["label-7", "label-0", "dagger-str", "negative-degree", "fractional-degree"],
)
def test_every_ladder_function_rejects_bad_arguments(name, s, dagger, n):
    with pytest.raises(ValueError):
        _LADDER_CALLS[name](s, dagger, n, tk.JacobiParams(0.5, 0.5))


def test_ladder_factor_frozen_values():
    p = tk.JacobiParams(0.5, 0.5)
    # lowering both params and the degree: factor n + (a+b)/2 + 1... frozen
    assert tk.jacobi_ladder_factor(1, False, 3, p) == 2.5
    assert tk.jacobi_ladder_factor(1, True, 3, p) == 8.0
    assert tk.jacobi_ladder_factor(2, False, 3, p) == 5.0
    assert tk.jacobi_ladder_factor(6, True, 3, p) == 3.5


# --------------------------------------------- difficult parameter regimes


def test_eval_near_degenerate_parameter_sums_matches_scipy():
    # a + b near -1 stresses the recurrence constants; n + a + b + 1 near 0
    # forces the lift path
    rng = _rng(7)
    for a, b in [(-0.5, -0.5), (-0.9, -0.1), (-0.5, -0.51), (-0.999, 0.0)]:
        x = rng.uniform(-1.0, 1.0, 12)
        for n in (1, 2, 5, 13, 21):
            got = tk.jacobi_eval(n, tk.JacobiParams(a, b), x)
            ref = eval_jacobi(n, a, b, x)
            scale = max(1.0, np.max(np.abs(ref)))
            assert np.max(np.abs(got - ref)) < 1e-10 * scale


def test_eval_rejects_parameters_at_or_below_minus_one():
    with pytest.raises(ValueError):
        tk.jacobi_eval(3, tk.JacobiParams(-1.0, 0.0), 0.3)
    with pytest.raises(ValueError):
        tk.jacobi_eval(3, tk.JacobiParams(0.0, -1.5), 0.3)


def test_high_degree_stability():
    # relative error must stay near machine precision at n = 50
    p = tk.JacobiParams(0.5, -0.25)
    x = np.linspace(-0.99, 0.99, 21)
    got = tk.jacobi_eval(50, p, x)
    ref = eval_jacobi(50, 0.5, -0.25, x)
    assert np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))) < 1e-11


# ------------------------------------------------- exact oracle for the lift


def _homog_exact(k, a, b, y, s):
    """Exact H_k = sum_j binom(k+a, k-j) binom(k+b, j) (y-s)^j y^(k-j) and its y- and s-partials."""
    a, b, y, s = (Fraction(v) for v in (a, b, y, s))
    ca, cb = [Fraction(1)], [Fraction(1)]
    for m in range(1, k + 1):
        ca.append(ca[-1] * (k + a - m + 1) / m)
        cb.append(cb[-1] * (k + b - m + 1) / m)
    pd = [(y - s) ** j for j in range(k + 1)]
    py = [y**q for q in range(k + 1)]
    H = Hy = Hs = Fraction(0)
    for j in range(k + 1):
        c, q = ca[k - j] * cb[j], k - j
        H += c * pd[j] * py[q]
        if j:
            term = c * j * pd[j - 1] * py[q]
            Hy += term
            Hs -= term
        if q:
            Hy += c * q * pd[j] * py[q - 1]
    return H, Hy, Hs


@st.composite
def _lift_params(draw):
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return draw(st.floats(-1.5, 6.0)), draw(st.floats(-1.5, 6.0))
    if kind == 1:
        # one parameter below -1, as ladder targets reach: the recurrence
        # would lose digits at that end (y = 0 for b, y = s for a), so the
        # table is lifted
        low, other = draw(st.floats(-3.0, -1.0)), draw(st.floats(-1.0, 6.0))
        return (low, other) if draw(st.booleans()) else (other, low)
    # a + b on or near a singular integer sum, where the recurrence is unsafe
    total = draw(st.sampled_from([-2.0, -3.0, -5.0])) + draw(st.sampled_from([0.0, 1e-9, -0.1, 0.1]))
    a = draw(st.floats(-3.5, total + 3.5))
    return (a, total - a) if draw(st.booleans()) else (total - a, a)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(ab=_lift_params(), kmax=st.integers(0, 15), s=st.floats(0.0, 1.0), u=st.floats(0.0, 1.0))
@example(ab=(1.42, -2.42), kmax=15, s=1.0, u=0.5)
@example(ab=(2.0, -2.5), kmax=15, s=1.0, u=0.5)
@example(ab=(-2.5, 2.0), kmax=15, s=0.75, u=0.5)
def test_homog_table_matches_the_exact_explicit_sum(ab, kmax, s, u):
    # the corner s = 0, the edge y = 0, the edge y = s and one interior point
    a, b = ab
    y = np.array([u, 0.0, s, u * s])
    sv = np.array([0.0, s, s, s])
    got = _homog_table(kmax, a, b, y, sv, partials=True)
    for k in range(kmax + 1):
        for i in range(y.size):
            for tab, ref in zip(got, _homog_exact(k, a, b, y[i], sv[i])):
                assert abs(Fraction(tab[k, i]) - ref) <= 1e-12 * max(1, abs(ref)), (k, y[i], sv[i])


@pytest.mark.parametrize("nderiv", [0, 1])
@pytest.mark.parametrize("a, b", [(-1.5, -1.5), (-1.0, -1.0), (-0.5, -1.5), (-3.5, -1.5)])
def test_shifted_table_lift_branch_is_the_homog_table_at_unit_scale(a, b, nderiv):
    x = np.linspace(0.0, 1.0, 7)
    assert not _recurrence_safe(12, a, b)
    tab = _shifted_table(12, a, b, x, nderiv=nderiv)
    H, Hy, _ = _homog_table(12, a, b, x, 1.0, partials=nderiv >= 1)
    assert tab.shape == (nderiv + 1, 13, 7)
    assert np.array_equal(tab[0], H)
    if nderiv:
        assert np.array_equal(tab[1], Hy)


def _assert_exact_sums(tab, a, b, x, s):
    """Every degree-k row of a (nderiv + 1, kmax + 1, npts) table at every point, to 1e-12 of the exact explicit sum."""
    x, s = (v.ravel() for v in np.broadcast_arrays(x, s))
    for k in range(tab.shape[1]):
        for p in range(x.size):
            for got, ref in zip(tab[:, k, p], _homog_exact(k, a, b, x[p], s[p])):
                assert abs(Fraction(got) - ref) <= 1e-12 * max(1, abs(ref)), (k, a, b, x[p], s[p])


@pytest.mark.parametrize("nderiv", [0, 1, 2])
def test_shifted_table_column_equals_the_scalar_tables(nderiv):
    # mixed degrees, safe entries and lifted ones (a parameter below -1, of
    # exactly -1, a + b near -2) in one column, in the grid layout and in a
    # row map that reverses each entry's degrees into one flat table: each
    # entry equals its one-entry call, in both call forms, and the exact sum
    deg = np.array([12, 0, 5, 12, 3, 1, 8, 15])
    a = np.array([0.5, -1.5, -1.0, -0.9, -2.5, 0.3, 1.42, -1.5])
    b = np.array([1.5, 0.5, -1.0, -0.95, 2.0, -3.5, -2.42, -1.5])
    x = np.linspace(0.0, 1.0, 7)
    s = np.linspace(1.0, 0.0, 7)
    grid = _shifted_table(deg, a, b, x, nderiv, s)
    offsets = np.cumsum(deg + 1) - deg - 1
    rows = np.clip(offsets[:, None] + deg[:, None] - np.arange(deg.max() + 1), 0, None)
    flat = _shifted_table(deg, a, b, x, nderiv, s, rows=rows)
    assert grid.shape == (nderiv + 1, deg.size, deg.max() + 1, x.size)
    assert flat.shape == (nderiv + 1, (deg + 1).sum(), x.size)
    for i in range(deg.size):
        want = _shifted_table(deg[i : i + 1], a[i : i + 1], b[i : i + 1], x, nderiv, s)[:, 0]
        assert np.array_equal(_shifted_table(int(deg[i]), a[i], b[i], x, nderiv, s), want)
        assert np.array_equal(grid[:, i, : deg[i] + 1], want)
        assert np.array_equal(flat[:, rows[i, : deg[i] + 1]], want)
        _assert_exact_sums(want, a[i], b[i], x, s)


@pytest.mark.parametrize("nderiv", [0, 1, 2])
def test_shifted_table_point_rows_equal_one_call_per_entry(nderiv):
    # each entry at its own points and scale: ragged degrees, safe entries
    # and lifted ones (a parameter below -1, of exactly -1, a + b near -2);
    # each equals its one-entry call and the exact sum
    deg = np.array([12, 0, 5, 12, 3, 1, 8, 15, 9])
    a = np.array([0.5, -1.5, -1.0, -0.9, -2.5, 0.3, 1.42, -1.5, -0.9])
    b = np.array([1.5, 0.5, -1.0, -0.95, 2.0, -3.5, -2.42, -1.5, -0.9])
    rng = _rng(12)
    x = rng.uniform(0.0, 1.0, (deg.size, 6))
    s = x + rng.uniform(0.0, 1.0, x.shape)
    for scale in (1.0, s):
        got = _shifted_table(deg, a, b, x, nderiv, scale)
        for i in range(deg.size):
            si = scale if np.ndim(scale) == 0 else scale[i : i + 1]
            want = _shifted_table(deg[i : i + 1], a[i : i + 1], b[i : i + 1], x[i : i + 1], nderiv, si)[:, 0]
            assert np.array_equal(got[:, i, : deg[i] + 1], want)
            _assert_exact_sums(want, a[i], b[i], x[i], si)
    lone = _shifted_table(deg[6:7], a[6:7], b[6:7], x[6:7], nderiv, s[6:7])
    assert np.array_equal(lone[:, 0], _shifted_table(int(deg[6]), a[6], b[6], x[6], nderiv, s[6]))
    H = _homog_table(9, a, b, x, s, partials=True)
    for i in range(deg.size):
        for got, want in zip(H, _homog_table(9, a[i : i + 1], b[i : i + 1], x[i : i + 1], s[i : i + 1], partials=True)):
            assert np.array_equal(got[i], want[0])


@pytest.mark.parametrize("nderiv", [0, 1, 2])
def test_shifted_table_lifts_equal_rows_in_any_block_size(nderiv, monkeypatch):
    # the lifted (entry, degree) rows go _LIFT_BLOCK values at a time: blocks
    # of one row, blocks that split an entry's degrees, and one block for all
    # give equal tables, at each entry's own points and at shared ones
    deg = np.array([12, 0, 5, 12, 3, 1, 8, 15, 9])
    a = np.array([0.5, -1.5, -1.0, -0.9, -2.5, 0.3, 1.42, -1.5, -0.9])
    b = np.array([1.5, 0.5, -1.0, -0.95, 2.0, -3.5, -2.42, -1.5, -0.9])
    rng = _rng(13)
    x = rng.uniform(0.0, 1.0, (deg.size, 6))
    s = x + rng.uniform(0.0, 1.0, x.shape)
    calls = [(x, s), (x, 1.0), (x[0], s[0])]
    want = [_shifted_table(deg, a, b, xs, nderiv, ss) for xs, ss in calls]
    for block in (1, 13, 10**9):
        monkeypatch.setattr(jacobi, "_LIFT_BLOCK", block)
        for (xs, ss), w in zip(calls, want):
            got = _shifted_table(deg, a, b, xs, nderiv, ss)
            for i in range(deg.size):  # the rows each entry reaches; the rest are unset
                assert np.array_equal(got[:, i, : deg[i] + 1], w[:, i, : deg[i] + 1])


@pytest.mark.parametrize("nderiv", [0, 1, 2])
def test_rows_equal_the_shifted_table_rows(nderiv):
    # the generator's rows, degree by degree, are the one-entry table's rows
    # bit for bit: safe entries, lifts, nested lifts, a = -1 exactly, s = 0
    deg = [12, 0, 5, 12, 3, 1, 8, 15, 9]
    a = [0.5, -1.5, -1.0, -0.9, -2.5, 0.3, 1.42, -1.5, -0.9]
    b = [1.5, 0.5, -1.0, -0.95, 2.0, -3.5, -2.42, -1.5, -0.9]
    rng = _rng(14)
    x = np.append(rng.uniform(0.0, 1.0, 6), [0.0, 1.0])
    s = np.append(x[:6] + rng.uniform(0.0, 1.0, 6), [0.0, 1.0])
    for n, ai, bi in zip(deg, a, b):
        for ss in (s, 1.0):
            want = _shifted_table(n, ai, bi, x, nderiv, ss)
            got = [[row.copy() for row in rows] for rows in _rows(n, ai, bi, x, ss, nderiv)]
            assert len(got) == n + 1
            for j, rows in enumerate(got):
                assert len(rows) == nderiv + 1
                for d, row in enumerate(rows):
                    assert np.array_equal(row, want[d, j])
    assert list(_rows(-1, 0.5, 1.5, x, 1.0, nderiv)) == []


@pytest.mark.parametrize("nderiv", [0, 1, 2])
@pytest.mark.parametrize("pair, levels", [((-0.9, -0.9), 1), ((-2.5, 0.5), 2)], ids=["one-lift", "two-lifts"])
def test_lifted_rows_equal_the_table_rows_on_a_triangle_grid(pair, levels, nderiv):
    # the lift's per-point factors are formed once per lifted entry: its rows
    # still equal the table's bit for bit at every degree, for one lift level
    # and for two, at the second-factor points (y, 1 - x) of a barycentric grid
    g = 30
    i = np.repeat(np.arange(g + 1), np.arange(g + 1, 0, -1))
    y = (np.arange(i.size) - (i * (2 * g + 3 - i)) // 2) / g
    s = 1.0 - i / g
    a, b = pair
    assert [bool(_recurrence_safe(30 - k, a + k, b + k)) for k in range(levels + 1)] == [False] * levels + [True]
    for ss in (s, 1.0):
        want = _shifted_table(30, *pair, y, nderiv, ss)
        for j, rows in enumerate(_rows(30, *pair, y, ss, nderiv)):
            for d, row in enumerate(rows):
                assert np.array_equal(row, want[d, j])
        assert j == 30


@pytest.mark.parametrize("pair", [(-0.9, -0.9), (0.5, 1.5)])
def test_single_degree_evaluation_holds_rows_not_a_table(pair):
    # the whole (n + 1) x points table would take 194 MB at (-0.9, -0.9),
    # which lifts once, and 65 MB at (0.5, 1.5)
    x = np.linspace(0.0, 1.0, 20000)
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    try:
        got = tk.shifted_jacobi_eval(400, tk.JacobiParams(*pair), x)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert got.shape == x.shape
    assert np.array_equal(got[::1000], _shifted_table(400, *pair, x[::1000])[0, 400])
    assert peak < 4e6


@pytest.mark.parametrize("nderiv", [0, 1, 2])
def test_shifted_table_negative_degrees_reach_no_rows(nderiv):
    x = np.linspace(0.0, 1.0, 5)
    assert _shifted_table(-1, 0.5, 1.5, x, nderiv).shape == (nderiv + 1, 0, 5)
    a, b = np.array([-1.5, 0.5, 0.3, -1.5]), np.array([0.5, 1.5, 0.2, 0.5])
    X = np.tile(x, (4, 1))
    assert _shifted_table(-1, a, b, X, nderiv).shape == (nderiv + 1, 4, 0, 5)
    assert _shifted_table(-1, a, b, x, nderiv, rows=np.zeros((4, 0), int)).shape == (nderiv + 1, 0, 5)
    # mixed with entries of negative degree, a safe entry and a lifted one
    # keep their one-entry tables, in the grid and in a row map that the
    # negative entries share
    deg = np.array([-1, 4, -2, 3])
    grid = _shifted_table(deg, a, b, X, nderiv)
    assert grid.shape == (nderiv + 1, 4, 5, 5)
    rows = np.array([[8, 7, 6, 5, 4], [4, 3, 2, 1, 0], [0, 1, 2, 3, 4], [8, 7, 6, 5, 4]])
    flat = _shifted_table(deg, a, b, X, nderiv, rows=rows)
    assert flat.shape == (nderiv + 1, 9, 5)
    for i in (1, 3):
        want = _shifted_table(int(deg[i]), a[i], b[i], x, nderiv)
        assert np.array_equal(grid[:, i, : deg[i] + 1], want)
        assert np.array_equal(flat[:, rows[i, : deg[i] + 1]], want)


def test_shifted_table_takes_empty_point_sets():
    # a safe entry and a lifted one (a + b near -2), shared points and point rows
    assert _shifted_table(5, -0.95, -0.95, np.array([]), 2).shape == (3, 6, 0)
    got = _shifted_table(np.array([5, 3]), np.array([-0.95, 0.5]), -0.95, np.empty((2, 0)), 2, np.empty((2, 0)))
    assert got.shape == (3, 2, 6, 0)


def test_jacobi_suite_does_not_import_mpmath():
    src = os.path.dirname(os.path.dirname(tk.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys; from trikoorn import cli; cli.run_suite('jacobi', 0); print('mpmath' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"

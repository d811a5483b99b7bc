"""Tests for the triangle ladder operators and their composed identities."""

import numpy as np
import pytest

import trikoorn as tk
from trikoorn import ladders
from trikoorn.koornwinder import _Factors, _graded_indices


def _rng(tag):
    return np.random.default_rng([3131, tag])


def _interior(rng, m):
    pts = []
    while len(pts) < m:
        x, y = rng.uniform(0.05, 0.9, 2)
        if x + y <= 0.95:
            pts.append((x, y))
    return pts


_GRID = (-0.5, 0.0, 0.5, 1.5)

# (axis, s, dagger) -> (dn, dk, (da, db, dc, dd)); the daggered form always
# undoes the move of its partner
_MOVES = {
    ("y", 1, False): (-1, -1, (0, 1, 1, 0)),
    ("y", 1, True): (1, 1, (0, -1, -1, 0)),
    ("y", 2, False): (0, 0, (0, 0, 1, -1)),
    ("y", 2, True): (0, 0, (0, 0, -1, 1)),
    ("y", 3, False): (0, 0, (0, 1, 0, -1)),
    ("y", 3, True): (0, 0, (0, -1, 0, 1)),
    ("y", 4, False): (1, 1, (0, 0, -1, -1)),
    ("y", 4, True): (-1, -1, (0, 0, 1, 1)),
    ("y", 5, False): (1, 1, (0, -1, 0, -1)),
    ("y", 5, True): (-1, -1, (0, 1, 0, 1)),
    ("y", 6, False): (0, 0, (0, 1, -1, 0)),
    ("y", 6, True): (0, 0, (0, -1, 1, 0)),
    ("x", 1, False): (-1, 0, (1, 0, 0, 1)),
    ("x", 1, True): (1, 0, (-1, 0, 0, -1)),
    ("x", 2, False): (0, 0, (0, 0, 0, 1)),
    ("x", 2, True): (0, 0, (0, 0, 0, -1)),
    ("x", 3, False): (0, 0, (1, 0, 0, 0)),
    ("x", 3, True): (0, 0, (-1, 0, 0, 0)),
    ("x", 4, False): (1, 0, (0, 0, 0, -1)),
    ("x", 4, True): (-1, 0, (0, 0, 0, 1)),
    ("x", 5, False): (-1, 0, (1, 0, 0, 0)),
    ("x", 5, True): (1, 0, (-1, 0, 0, 0)),
    ("x", 6, False): (0, 0, (-1, 0, 0, 1)),
    ("x", 6, True): (0, 0, (1, 0, 0, -1)),
}

# operators whose coefficients contain an explicit 1/(1-x)
_SINGULAR = {
    ("y", 2, True),
    ("y", 3, True),
    ("y", 4, True),
    ("y", 5, True),
    ("x", 1, False),
    ("x", 2, False),
    ("x", 4, True),
    ("x", 6, False),
}


def test_catalog_has_24_operators_in_adjoint_pairs():
    ids = tk.all_ladder_ids()
    assert len(ids) == 24
    keys = {(l.axis, l.s, l.dagger) for l in ids}
    assert keys == set(_MOVES)


@pytest.mark.parametrize("key", sorted(_MOVES))
def test_step_moves_match_catalog(key):
    axis, s, dagger = key
    (lid,) = [l for l in tk.all_ladder_ids() if (l.axis, l.s, l.dagger) == key]
    idx = tk.TriIndex(4, 2)
    q = tk.TriParams(0.5, 0.5, 0.5, 0.5)
    st = tk.ladder_step(lid, idx, q)
    dn, dk, dq = _MOVES[key]
    assert (st.index.n - idx.n, st.index.k - idx.k) == (dn, dk)
    assert (
        st.params.a - q.a,
        st.params.b - q.b,
        st.params.c - q.c,
        st.params.d - q.d,
    ) == dq
    assert st.factor == tk.ladder_factor(lid, idx, q)


@pytest.mark.parametrize("key", sorted(_MOVES))
def test_pointwise_identity_on_valid_targets(key):
    # operator applied to an exact jet of P_{n,k} reproduces the stepped
    # element times the catalog factor, on the first 30 draws whose target
    # family is valid (a quarter of the draws for y1 dagger, which needs b
    # and c > 0)
    axis, s, dagger = key
    (lid,) = [l for l in tk.all_ladder_ids() if (l.axis, l.s, l.dagger) == key]
    rng = _rng(200 + sorted(_MOVES).index(key))
    checked = draws = 0
    while checked < 30:
        draws += 1
        assert draws <= 1000, f"{checked} valid targets in 1000 draws"
        n = int(rng.integers(0, 9))
        k = int(rng.integers(0, n + 1))
        q = tk.TriParams(*rng.choice(_GRID, 4))
        idx = tk.TriIndex(n, k)
        st = tk.ladder_step(lid, idx, q)
        if min(st.params.a, st.params.b, st.params.c, st.params.d) <= -1.0:
            continue
        ((x, y),) = _interior(rng, 1)
        pt = tk.TriPoint(x, y)
        jet = tk.tri_eval_jet(idx, q, pt)
        lhs = tk.ladder_pointwise(lid, jet, pt, idx, q)
        rhs = st.factor * tk.tri_eval(st.index, st.params, pt)
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs), abs(rhs))
        checked += 1


@pytest.mark.parametrize("key", sorted(_MOVES))
def test_collapsed_edge_evaluation_policy(key):
    axis, s, dagger = key
    (lid,) = [l for l in tk.all_ladder_ids() if (l.axis, l.s, l.dagger) == key]
    idx = tk.TriIndex(3, 1)
    q = tk.TriParams(0.5, 0.5, 0.5, 0.0)
    jet = tk.Jet2(1.0, 0.5, -0.2)
    pt = tk.TriPoint(1.0, 0.0)
    if key in _SINGULAR:
        with pytest.raises(ValueError):
            tk.ladder_pointwise(lid, jet, pt, idx, q)
    else:
        assert np.isfinite(tk.ladder_pointwise(lid, jet, pt, idx, q))


def test_singular_flags_match_catalog():
    # the flags are derived from the one-variable table; pin them as a set
    assert {key for key, row in ladders._LADDERS.items() if row.singular} == _SINGULAR


@pytest.mark.parametrize("idx", [tk.TriIndex(2, 5), tk.TriIndex(2.5, 1), tk.TriIndex(-2, -5)], ids=str)
@pytest.mark.parametrize("call", ["ladder_factor", "ladder_step", "ladder_pointwise"])
def test_public_functions_reject_invalid_indices(call, idx):
    lid, q = tk.LadderId("y", 1, True), tk.TriParams(0.5, 0.5, 0.5, 0.5)
    pt, jet = tk.TriPoint(0.3, 0.3), tk.Jet2(1.0, 0.5, -0.2)
    args = (lid, jet, pt, idx, q) if call == "ladder_pointwise" else (lid, idx, q)
    with pytest.raises(ValueError):
        getattr(tk, call)(*args)


def test_lowering_annihilates_bottom_mode():
    # stepping k below 0 lands on the zero element, so the operator output
    # must vanish on k = 0 data
    (lid,) = [l for l in tk.all_ladder_ids() if (l.axis, l.s, l.dagger) == ("y", 1, False)]
    rng = _rng(40)
    for _ in range(10):
        n = int(rng.integers(0, 7))
        q = tk.TriParams(*rng.choice(_GRID, 4))
        ((x, y),) = _interior(rng, 1)
        idx = tk.TriIndex(n, 0)
        pt = tk.TriPoint(x, y)
        jet = tk.tri_eval_jet(idx, q, pt)
        lhs = tk.ladder_pointwise(lid, jet, pt, idx, q)
        assert abs(lhs) < 1e-10


# ------------------------------------------------------------- compositions


def test_chain_sum_honours_a_leading_minus_sign():
    # the k-eigen chain is -y1+(y1(.)): its one term enters the sum negated
    x, y = np.array([0.2, 0.35, 0.1]), np.array([0.3, 0.4, 0.6])
    n, k = np.array([[3], [4], [5]]), np.array([[2], [1], [5]])
    q = tk.TriParams(0.5, 1.5, 0.5, 0.0)
    ev = ladders._core_rows(x, y)
    y1, y1d = tk.LadderId("y", 1), tk.LadderId("y", 1, True)
    args = (n, k, q, x, y, ev, ev(n, k, q))
    plus = ladders._chain_sum(((1, y1d, y1),), *args)
    minus = ladders._chain_sum(((-1, y1d, y1),), *args)
    assert np.all(plus != 0.0)
    np.testing.assert_array_equal(minus, -plus)


@pytest.mark.parametrize("pset", [(0.5, 1.5, -0.5, 0.5), (0.3, 0.1, 0.2, 0.0)])
def test_conv_b_sides_from_reads_without_u_x_equal_the_public_ones_bit_for_bit(pset):
    # CONV_B's terms are y-ladders of x2 and x4 images.  The public
    # composition_residual reads those images with all their partials; a
    # sweep's factor tables, planned from _composition_families, build and
    # read them without u_x.  Both give the same sides bit for bit
    cid, N = tk.CompositionId.CONV_B, 5
    x, y = np.array([0.2, 0.35, 0.1, 0.6]), np.array([0.3, 0.4, 0.6, 0.05])
    n, k = (v[:, None] for v in _graded_indices(N))
    P = tk.TriParams(*(np.full((1, 1, 1), v) for v in pset))
    reads = [(q, np.ones(1, bool), how) for q, how in ladders._composition_families(cid, P)]
    assert [how for _, _, how in reads] == ["xy"] + ["y"] * 4
    tabs = _Factors(N + 1, P, x[None], y[None])
    tabs.build(*_Factors.plan(reads, P))
    left, right, _ = ladders._composition(cid, n, k, P, x[None], y[None], tabs)
    pt = tk.TriPoint(x, y)
    for i, (nn, kk) in enumerate(zip(n.ravel(), k.ravel())):
        want = tk.composition_residual(cid, tk.TriIndex(int(nn), int(kk)), tk.TriParams(*pset), pt)
        for got, w in zip((left[0, i], right[0, i]), want):
            assert np.array_equal(got.view(np.int64), w.view(np.int64))


_GENERAL_D = {
    tk.CompositionId.CONV_A,
    tk.CompositionId.CONV_B,
    tk.CompositionId.CONV_C,
    tk.CompositionId.MULT_X,
    tk.CompositionId.MULT_Y,
    tk.CompositionId.MULT_Z,
    tk.CompositionId.EIG_K,
    tk.CompositionId.WDY_IDENTITY,
}


@pytest.mark.parametrize("cid", list(tk.CompositionId), ids=lambda c: c.name)
def test_composition_identity_at_zero_d(cid):
    rng = _rng(50 + list(tk.CompositionId).index(cid))
    checked = 0
    for _ in range(40):
        n = int(rng.integers(0, 8))
        k = int(rng.integers(0, n + 1))
        a, b, c = rng.choice(_GRID, 3)
        q = tk.TriParams(a, b, c, 0.0)
        ((x, y),) = _interior(rng, 1)
        try:
            left, right = tk.composition_residual(
                cid, tk.TriIndex(n, k), q, tk.TriPoint(x, y)
            )
        except tk.DegenerateParameterError:
            continue
        assert abs(left - right) < 1e-9 * max(1.0, abs(left), abs(right))
        checked += 1
    assert checked > 15


@pytest.mark.parametrize("cid", sorted(_GENERAL_D, key=lambda c: c.name), ids=lambda c: c.name)
def test_composition_identity_at_general_d(cid):
    rng = _rng(90 + list(tk.CompositionId).index(cid))
    for _ in range(25):
        n = int(rng.integers(0, 8))
        k = int(rng.integers(0, n + 1))
        q = tk.TriParams(*rng.choice(_GRID, 3), rng.uniform(-0.5, 1.5))
        ((x, y),) = _interior(rng, 1)
        try:
            left, right = tk.composition_residual(
                cid, tk.TriIndex(n, k), q, tk.TriPoint(x, y)
            )
        except tk.DegenerateParameterError:
            continue
        assert abs(left - right) < 1e-9 * max(1.0, abs(left), abs(right))


@pytest.mark.parametrize(
    "cid",
    sorted(set(tk.CompositionId) - _GENERAL_D, key=lambda c: c.name),
    ids=lambda c: c.name,
)
def test_zero_d_only_identities_reject_other_d(cid):
    q = tk.TriParams(0.5, 0.5, 0.5, 0.75)
    with pytest.raises(ValueError):
        tk.composition_residual(cid, tk.TriIndex(3, 1), q, tk.TriPoint(0.3, 0.3))


def test_degree_eigenrelation_degenerate_parameters_raise():
    # the x-derivative expansion divides by 2k+b+c+1, which vanishes at
    # k = 0 when b + c = -1
    q = tk.TriParams(0.5, -0.5, -0.5, 0.0)
    with pytest.raises(tk.DegenerateParameterError):
        tk.composition_residual(
            tk.CompositionId.EIG_N, tk.TriIndex(3, 0), q, tk.TriPoint(0.3, 0.3)
        )


def test_eigen_compositions_return_eigenvalue_multiples():
    rng = _rng(70)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        k = int(rng.integers(0, n + 1))
        a, b, c = rng.choice(_GRID, 3)
        q = tk.TriParams(a, b, c, 0.0)
        ((x, y),) = _interior(rng, 1)
        pt = tk.TriPoint(x, y)
        u = tk.tri_eval(tk.TriIndex(n, k), q, pt)
        left, right = tk.composition_residual(tk.CompositionId.EIG_K, tk.TriIndex(n, k), q, pt)
        assert abs(right - (-k * (k + b + c + 1)) * u) < 1e-9 * max(1.0, abs(right))
        try:
            left, right = tk.composition_residual(
                tk.CompositionId.EIG_N, tk.TriIndex(n, k), q, pt
            )
        except tk.DegenerateParameterError:
            continue
        assert abs(right - (-n * (n + a + b + c + 2)) * u) < 1e-9 * max(1.0, abs(right))

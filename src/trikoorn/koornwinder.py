"""Four-parameter orthogonal polynomials on the reference triangle.

The basis P_{n,k}(x, y) factors into a shifted Jacobi polynomial in x and a
homogenized shifted Jacobi polynomial in (y, 1-x).  The homogenized form
keeps evaluation division-free on the whole closed triangle, including the
corner line x = 1 where the classical quotient form y/(1-x) degenerates.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import isqrt

import numpy as np

from .jacobi import (
    JacobiParams,
    _check_degree,
    _eval_core,
    _homog_table,
    _recurrence,
    _recurrence_safe,
    _shifted_table,
    shifted_jacobi_deriv,
    shifted_jacobi_eval,
)

__all__ = [
    "TriParams",
    "TriIndex",
    "TriPoint",
    "Jet2",
    "index_to_linear",
    "linear_to_index",
    "basis_size",
    "weight_eval",
    "tri_eval",
    "tri_eval_jet",
    "basis_eval_all",
    "jjp_residual",
    "jpj_residual",
]


@dataclass(frozen=True)
class TriParams:
    """Weight exponents (a, b, c, d) for x^a y^b z^c (1-x)^d with z = 1 - x - y."""

    a: float
    b: float
    c: float
    d: float = 0.0

    @property
    def t(self):
        return self.a + self.b + self.c + self.d

    def is_valid(self):
        return min(self.a, self.b, self.c, self.d) > -1.0

    def validate(self):
        if not self.is_valid():
            raise ValueError(
                f"parameters must all exceed -1, got ({self.a}, {self.b}, {self.c}, {self.d})"
            )

    def shifted(self, da, db, dc, dd):
        return TriParams(self.a + da, self.b + db, self.c + dc, self.d + dd)


@dataclass(frozen=True)
class TriIndex:
    """Degree pair (n, k) with 0 <= k <= n."""

    n: int
    k: int

    def validate(self):
        _check_degree(self.n)
        _check_degree(self.k)
        if self.n < 0 or self.k < 0 or self.k > self.n:
            raise ValueError(f"index must satisfy 0 <= k <= n, got (n={self.n}, k={self.k})")


@dataclass(frozen=True)
class TriPoint:
    """Point (x, y) in the reference triangle; z = 1 - x - y is derived."""

    x: object
    y: object

    @property
    def z(self):
        return 1.0 - np.asarray(self.x, dtype=float) - np.asarray(self.y, dtype=float)


@dataclass(frozen=True)
class Jet2:
    """Value and first-order partials of a bivariate function at a point."""

    u: object
    ux: object
    uy: object

    @property
    def uz(self):
        # derivative along the third barycentric direction
        return self.uy - self.ux


def index_to_linear(idx):
    """Linear position of (n, k) in the degree-graded ordering: n(n+1)/2 + k."""
    idx.validate()
    return int(idx.n) * (int(idx.n) + 1) // 2 + int(idx.k)


def linear_to_index(i):
    """Inverse of index_to_linear."""
    if not isinstance(i, (int, np.integer)) or i < 0:
        raise ValueError(f"linear index must be a nonnegative integer, got {i!r}")
    n = (isqrt(8 * int(i) + 1) - 1) // 2
    return TriIndex(n, int(i) - n * (n + 1) // 2)


def basis_size(N):
    """Number of basis elements of total degree at most N: (N+1)(N+2)/2."""
    _check_degree(N)
    if N < 0:
        return 0
    return (N + 1) * (N + 2) // 2


def _graded_indices(N):
    """Index arrays (n, k) of every element of degree <= N, in linear index order."""
    n = np.repeat(np.arange(N + 1), np.arange(1, N + 2))
    return n, np.arange(n.size) - n * (n + 1) // 2


def weight_eval(params, pt):
    """Evaluate the weight x^a y^b z^c (1-x)^d at a point (interior for negative exponents).

    On the edge z = 0, 1 - x - y can round a few ulps below 0; such a z is
    read as 0, so a fractional c gives 0 there, not NaN.
    """
    x = np.asarray(pt.x, dtype=float)
    y = np.asarray(pt.y, dtype=float)
    z = 1.0 - x - y
    z = np.where((z < 0.0) & (z > -4 * np.finfo(float).eps), 0.0, z)
    return x**params.a * y**params.b * z**params.c * (1.0 - x) ** params.d


def point_rows(pts):
    """Coerce a point batch (TriPoint list or (npts, 2) array) to an array."""
    if not isinstance(pts, np.ndarray):
        pts = list(pts)
        if pts and hasattr(pts[0], "x"):
            pts = [(p.x, p.y) for p in pts]
    arr = np.asarray(pts, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"points must have shape (npts, 2), got {arr.shape}")
    return arr


def _first_factor_param(k, params):
    # first factor runs in x with exponent pair (2k + b + c + d + 1, a)
    return 2 * k + params.b + params.c + params.d + 1


def _tri_core(n, k, params, x, y, partials=False):
    """Evaluate one basis element (optionally with first partials) at raw arrays.

    No parameter validation: ladder targets legitimately leave the
    orthogonality family and remain polynomials.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xx, yy = np.broadcast_arrays(np.atleast_1d(x), np.atleast_1d(y))
    out = np.zeros((3 if partials else 1, xx.size))
    if 0 <= k <= n:
        F = _shifted_table(n - k, _first_factor_param(k, params), params.a, xx.ravel(), 1 if partials else 0)[:, n - k]
        H = _homog_table(k, params.c, params.b, yy.ravel(), 1.0 - xx.ravel(), partials=partials)
        out[:] = _jet_rows(F, H[0][k], (H[2][k], H[1][k]) if partials else ())
    if x.ndim == 0 and y.ndim == 0:
        return tuple(float(v[0]) for v in out) if partials else float(out[0, 0])
    out = out.reshape(out.shape[:1] + xx.shape)
    return tuple(out) if partials else out[0]


def tri_eval(idx, params, pt):
    """Evaluate P_{n,k} at a point of the closed triangle.

    Parameters
    ----------
    idx : TriIndex
        Degree pair (n, k).  Out-of-range pairs (n = -1, k = -1, k = n + 1)
        evaluate to zero per the boundary convention.
    params : TriParams
        Weight exponents, all required to exceed -1.
    pt : TriPoint
        Evaluation point; coordinates may be scalars or arrays.
    """
    params.validate()
    _check_degree(idx.n)
    _check_degree(idx.k)
    return _tri_core(idx.n, idx.k, params, pt.x, pt.y)


def tri_eval_jet(idx, params, pt):
    """Evaluate P_{n,k} together with its first-order partials.

    The x-partial uses the derivative of the first factor and the
    homogenization variable s = 1 - x, so no division by 1 - x occurs.
    """
    params.validate()
    _check_degree(idx.n)
    _check_degree(idx.k)
    u, ux, uy = _tri_core(idx.n, idx.k, params, pt.x, pt.y, partials=True)
    return Jet2(u, ux, uy)


def _first_factors(N, A, b, x, nderiv=0):
    """F_{n-k}^{(A[..., k], b)}(x), n <= N, in linear index order, then x-derivatives up to nderiv.

    A holds each family's column A_k on its last axis, and b its second
    parameter (broadcast against A[..., 0]).  x is shared, or holds one
    point row per family, (families, npts).  One table call runs every
    (family, k) entry, k to its own degree N - k, writing each row straight
    to its place; shape (nderiv + 1,) + A.shape[:-1] + (basis_size(N), npts),
    with no rows for N < 0.
    """
    if N < 0:
        return np.empty((nderiv + 1,) + A.shape[:-1] + (0, np.shape(x)[-1]))
    k = np.arange(N + 1)
    n = k[:, None] + k  # (k, degree j) -> n = k + j; degrees past N - k go unwritten
    lin = np.where(n <= N, n * (n + 1) // 2 + k[:, None], 0)
    rows = np.arange(A.size // (N + 1))[:, None, None] * basis_size(N) + lin
    x = np.repeat(x, N + 1, axis=0) if x.ndim == 2 else x
    tabs = _shifted_table(N - k, A, np.asarray(b)[..., None], x, nderiv, rows=rows.reshape(-1, N + 1))
    return tabs.reshape((nderiv + 1,) + A.shape[:-1] + (basis_size(N), x.shape[-1]))


def _jet_rows(F, h, parts=()):
    """The rows (u, u_x, u_y) of elements from factor rows F = (F, F'), h and parts, or (u,) from (F,) and h.

    parts yields H_s, then H_y, the s- and y-partials of h: u = F h, u_x = F' h
    - F H_s and u_y = F H_y, formed in place on F, F' and H_y (H_s overwritten).
    Given F = (F, None) and parts yielding H_y alone, the rows are (u, None,
    u_y), formed by the same operations.  Each partial row is drawn once the
    rows before it are formed, H_s dropped first, so a caller that gathers
    them lazily holds four row arrays at most.  Its callers _Factors, for
    tables, and _tri_core, for one element, are all that form partial rows.
    """
    f = F[0]
    if len(F) == 1:
        f *= h
        return (f,)
    df, parts = F[1], iter(parts)
    if df is not None:
        df *= h
        hs = next(parts)
        hs *= f
        df -= hs
        del hs
    uy = next(parts)
    uy *= f
    f *= h
    return f, df, uy


def _tri_tables(N, params, x, y, second=None, against=None):
    """The values of all basis elements of degree <= N of one family at raw coordinate arrays.

    Returns (U,), U of shape (basis_size(N), npts) at the raveled points, its
    rows formed in place, degree block by degree block; partial rows come
    from _Factors and _tri_core.  second, if given, is an (N + 1, npts) table
    by k taken in place of the second factors H_k(y, 1 - x); with it, against
    = (G, w) returns in place of (U,) the sums num_r = sum_i U_ri G_{k_r, i}
    and den_r = sum_i U_ri^2 w_i by _contracted, in O(N^2 + npts) memory.
    No parameter validation (used on ladder-target families too).
    """
    x, y = (np.asarray(v, dtype=float).ravel() for v in (x, y))
    if against is not None:
        return _contracted(N, params, x, second, *against)
    (U,) = _first_factors(N, _first_factor_param(np.arange(N + 1), params), params.a, x)
    H = _homog_table(N, params.c, params.b, y, 1.0 - x)[0] if second is None else second
    for n in range(N + 1):  # degree block n (k = 0..n) meets the second factors' rows k <= n
        U[n * (n + 1) // 2 : (n + 1) * (n + 2) // 2] *= H[: n + 1]
    return (U,)


# values per block of rows that _contracted sums at once
_SUM_BLOCK = 1 << 15


def _contracted(N, params, x, second, G, w):
    """_tri_tables' (num, den) against (G, w) from its rows, each formed in one multiply as _jet_rows forms it:
    the safe entries' rows stream from the recurrence degree by degree, for every k at once, the lifted ones'
    (only k = 0 lifts) come from one _shifted_table call, and _SUM_BLOCK values at a time are summed and dropped."""
    k = np.arange(N + 1)
    deg, A, b = N - k, _first_factor_param(k, params), np.full((N + 1, 1), float(params.a))
    safe = _recurrence_safe(deg, A, b[:, 0])
    run, lift = k[safe], k[~safe]
    # each row's degree and k: the recurrence's degree by degree, then the lifted entries' in turn
    (j, i), (e, jl) = np.nonzero(k[:, None] <= deg[run]), np.nonzero(k <= deg[lift][:, None])
    kr, n = np.concatenate((run[i], lift[e])), np.concatenate((run[i] + j, lift[e] + jl))
    lin = n * (n + 1) // 2 + kr
    lifted = (_shifted_table(deg[lift], A[lift], b[lift, 0], x)[0][e, jl], second[lift[e]]) if lift.size else (x[:0],) * 2
    num, den, step = np.empty(lin.size), np.empty(lin.size), max(1, _SUM_BLOCK // x.size)
    buf, at, fill = np.empty((min(step, lin.size), x.size)), 0, 0
    hr = second[run]  # each stretch of first-factor rows f meets the second-factor rows h of its k
    for f, h in chain(((f, hr) for f, in _recurrence(deg[run], A[run, None], b[run], x, 1.0)), [lifted]):
        while len(f):
            put = min(len(f), step - fill)
            np.multiply(f[:put], h[:put], out=buf[fill : fill + put])
            f, h, fill = f[put:], h[put:], fill + put
            if fill == step or at + fill == lin.size:
                r, E = slice(at, at + fill), buf[:fill]
                num[lin[r]], den[lin[r]] = np.einsum("ri,ri->r", E, G[kr[r]]), np.einsum("ri,ri,i->r", E, E, w)
                at, fill = at + fill, 0
    return num, den


def _move(q, p):
    """The integer shift (da, db, dc, dd) from parameters p to q, fields of arrays, read off their first entry."""
    return tuple(round(u.item(0) - v.item(0)) for u, v in zip((q.a, q.b, q.c, q.d), (p.a, p.b, p.c, p.d)))


class _Factors:
    """Tables of the families params.shifted(*move) that S parameter sets read, held as their factors.

    Every table with partials, and each sweep's read of several families or
    of one family over several sets, goes through here.  params holds
    the sets' parameters, each field (S, 1, 1), and x and y their points,
    (S, npts).  A family's first factors F^{(A_k, a)}, A_k = 2k + b + c + d
    + 1, are fixed by its moves of a and of A, da and sigma = db + dc + dd;
    its second factors H^{(c, b)} by (db, dc).  A move with da = 0 and even
    sigma, as each y-ladder's, keeps the params' own first factors, sigma /
    2 columns over.  Families that share factors read them bit for bit where
    the shifted sums are exact, as they are on a grid of multiples of 1/2,
    and where the params' first factors take the recurrence at any degree,
    as with all parameters >= -1/2.  Calling the object as ev(n, k, q,
    partials) returns the rows of the elements at index columns n, k of
    family q, one per set, shape (S, m, npts), zero rows out of range:
    partials names the partials read, "xy" for (u, ux, uy), "y" for (u,
    None, uy), which is all a y-ladder reads, and "" for (u,).  The rows are
    the products of their factor rows, formed by _jet_rows, each u the
    product _tri_tables forms, so a zero move reads each set's _tri_tables
    rows bit for bit, and a "y" read the same u and uy bits as an "xy" one.
    """

    def __init__(self, N, params, x, y):
        self.N, self.params, self.x, self.y = N, params, x, y
        self.first, self.second, self.found = {}, {}, {}

    @classmethod
    def over(cls, N, params, x, y, fams):
        """The tables of every family of fams, each read by every set with its partials, built."""
        tabs = cls(N, params, x, y)
        tabs.build(*cls.plan([(q, np.ones(len(x), bool), "xy") for q in fams], params))
        return tabs

    @staticmethod
    def plan(reads, params):
        """The tables that reads need: ({(da, sigma): (sets, nderiv)}, {(db, dc): (sets, partials)}).

        Each read (q, sets, partials) names a family over the parameter sets
        params, the sets that read it, and the partials it reads, named as
        __call__ takes them: the first factors get x-derivatives for reads
        of "x", the second factors partials for reads of "y".
        """
        plans = {}, {}
        for q, need, partials in reads:
            for plan, key, kind in zip(plans, _Factors.keys(_move(q, params))[::2], ("x" in partials, "y" in partials)):
                was, p = plan.get(key, (False, False))
                plan[key] = (was | need, int(p or kind))
        return plans

    @staticmethod
    def keys(move):
        """(first-factor key, column offset, second-factor key) of the family params.shifted(*move)."""
        da, db, dc, dd = move
        sigma = db + dc + dd
        if da == 0 and sigma % 2 == 0:
            return (0, 0), sigma // 2, (db, dc)
        return (da, sigma), 0, (db, dc)

    def build(self, first, second=None):
        """Replace the first-factor tables by those of the plan first, and, given second, the second-factor ones.

        One kernel call per nderiv, and per partials, builds the tables of a
        plan at the sets that read them.
        """
        p, x, y, N = self.params, self.x, self.y, self.N
        self.first, self.found = {}, {}  # dropped before the new ones are built
        self.first = _built(first, lambda s, da, sigma, nderiv: _first_factors(
            N, _first_factor_param(np.arange(N + 1), TriParams(0, p.b[s, 0], p.c[s, 0], p.d[s, 0] + sigma[:, None])),
            p.a[s, 0, 0] + da, x[s], nderiv))
        if second is not None:
            self.second = _built(second, lambda s, db, dc, partials: _homog_table(
                N, p.c[s, 0, 0] + dc, p.b[s, 0, 0] + db, y[s], 1.0 - x[s], partials=partials))

    def __call__(self, n, k, q, partials="xy"):
        n, k = n[..., 0], k[..., 0]
        dead = (k < 0) | (k > n)
        ux = "x" in partials
        if dead.all():
            shape = (len(self.x), n.shape[-1], self.x.shape[-1])
            return tuple(np.zeros(shape) if i != 1 or ux else None for i in range(3 if partials else 1))
        move = _move(q, self.params)
        fkey, off, hkey = self.keys(move)
        if fkey not in self.first or hkey not in self.second:
            raise ValueError("a family read was not built")
        if move not in self.found:  # the tables by row, and the first row of each set's entry
            (F, eF), (H, eH) = self.first[fkey], self.second[hkey]
            F, H = ([T.reshape(-1, T.shape[-1]) for T in tabs if T is not None] for tabs in (F, H))
            self.found[move] = F, eF[:, None] * basis_size(self.N), H, eH[:, None] * (self.N + 1), (eF >= 0) & (eH >= 0)
        F, eF, H, eH, has = self.found[move]
        if (~dead.all(-1) & ~has).any() or len(F) < 1 + ux or len(H) < 1 + 2 * bool(partials):
            raise ValueError("a family read was not built")
        j, k = (np.where(dead, 0, n - k), np.where(dead, 0, k)) if dead.any() else (n - k, k)
        c = k + off
        row, k = eF + (j + c) * (j + c + 1) // 2 + c, eH + k
        parts = (T.take(k, 0) for T in (H[2], H[1])[1 - ux :]) if partials else ()
        f = F[0].take(row, 0), (F[1].take(row, 0) if ux else None)
        rows = _jet_rows(f[: 2 if partials else 1], H[0].take(k, 0), parts)
        if dead.any():
            for v in (v for v in rows if v is not None):
                np.copyto(v, 0.0, where=dead[..., None])
        return rows


def _built(plan, make):
    """{key: (tables, entry of each set, -1 where unbuilt)} for the plan {key: (sets, kind)}:
    one make(sets, *key columns, kind) call per kind that some set reads, over the (key, set)
    entries in turn."""
    out = {}
    for kind in sorted({d for _, d in plan.values()}):
        keys = [key for key, (_, d) in plan.items() if d == kind]
        c, s = np.array([plan[key][0] for key in keys]).nonzero()
        if c.size:
            slot = np.full((len(keys), len(plan[keys[0]][0])), -1)
            slot[c, s] = np.arange(c.size)
            tables = make(s, *np.array(keys).T[:, c], kind)
            out.update((key, (tables, slot[i])) for i, key in enumerate(keys))
    return out


def basis_eval_all(N, params, pts):
    """Evaluate every basis element of degree at most N at a batch of points.

    Parameters
    ----------
    N : int
        Maximum total degree.
    params : TriParams
    pts : list of TriPoint or ndarray of shape (npts, 2)
        Point coordinates (x, y).

    Returns
    -------
    ndarray of shape (npts, basis_size(N))
        Column j holds the element with linear index j.
    """
    params.validate()
    _check_degree(N)
    if N < 0:
        raise ValueError(f"maximum degree must be nonnegative, got {N}")
    pts = point_rows(pts)
    return _tri_tables(N, params, pts[:, 0], pts[:, 1])[0].T


def _two_routes(idx, params, pt):
    """Checked arguments of the two-route checks: x, y, A_k, y/(1-x), and the jet."""
    params.validate()
    idx.validate()
    x = np.asarray(pt.x, dtype=float)
    y = np.asarray(pt.y, dtype=float)
    if np.any(np.asarray(1.0 - x) <= 0):
        raise ValueError("left route requires x < 1")
    return x, y, _first_factor_param(idx.k, params), y / (1.0 - x), tri_eval_jet(idx, params, pt)


def jjp_residual(idx, params, pt):
    """Two-route check of the y-derivative chain rule.

    Left route: first factor times (1-x)^k times the derivative of the
    second factor at y/(1-x), evaluated through explicit Jacobi calls.
    Right route: (1-x) times the y-partial from tri_eval_jet.  Returns the
    pair (left, right); interior points only (the left route divides).
    """
    x, y, A, tau, jet = _two_routes(idx, params, pt)
    n, k = idx.n, idx.k
    F = _eval_core(n - k, A, params.a, x)
    dsecond = shifted_jacobi_deriv(k, JacobiParams(params.c, params.b), tau)
    left = F * (1.0 - x) ** k * dsecond
    return left, (1.0 - x) * jet.uy


def jpj_residual(idx, params, pt):
    """Two-route check of the x-derivative chain rule.

    Left route: derivative of the first factor times (1-x)^{k+1} times the
    second factor at y/(1-x).  Right route: k u + (1-x) u_x - y u_y from
    tri_eval_jet.  Returns the pair (left, right); interior points only.
    """
    x, y, A, tau, jet = _two_routes(idx, params, pt)
    n, k = idx.n, idx.k
    dF = (n - k + A + params.a + 1) * _eval_core(n - k - 1, A + 1, params.a + 1, x) if n - k > 0 else 0.0 * x
    second = shifted_jacobi_eval(k, JacobiParams(params.c, params.b), tau)
    left = dF * (1.0 - x) ** (k + 1) * second
    return left, k * jet.u + (1.0 - x) * jet.ux - y * jet.uy

"""Jacobi polynomials, their shifted-interval variants, and the ladder operators.

Every table comes from one three-term recurrence on the homogenized form
H_n(y, s) = s^n P~_n(y/s), with derivative propagation.  It takes the
parameter pairs as a column, each entry to its own degree, so that the
triangle tables of many families run one recurrence for all their k; a
scalar call is a column of one entry, on the same path.  Where
it is unsafe, because a denominator nears zero or a parameter is below -1
(ladder targets leave the a, b > -1 family), a table is lifted from the
(a+1, b+1) one by the homogenized shifted ladders 1T, 1F, and 4T composed
with 3T, all unsafe entries of a column at once.  The lift divides by
nothing but the degree, so the corner s = 0 is an ordinary point, and it
recurses until the recurrence is safe.  One entry's rows also stream from
the same recurrence and lift, degree by degree, for sums and single-degree
evaluations that need no table.

The twelve ladder operators are the rows of one table in shifted form.  The
(-1, 1) family is derived from it by x = (X + 1)/2 and a power-of-two scale,
and the 24 triangle operators of ladders.py by two substitution rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "JacobiParams",
    "Jet1",
    "LadderStep",
    "jacobi_eval",
    "jacobi_deriv",
    "shifted_jacobi_eval",
    "shifted_jacobi_deriv",
    "homog_shifted_eval",
    "jacobi_ladder_factor",
    "jacobi_ladder_pointwise",
    "jacobi_ladder_step",
    "shifted_ladder_factor",
    "shifted_ladder_pointwise",
    "shifted_ladder_step",
]


@dataclass(frozen=True)
class JacobiParams:
    """Exponent pair (a, b) of the weight (1-x)^a (1+x)^b.

    Instances may hold any real pair so that ladder targets outside the
    orthogonality family remain representable; validity is checked where
    orthogonality actually matters.
    """

    a: float
    b: float

    def is_valid(self):
        return self.a > -1.0 and self.b > -1.0

    def validate(self):
        if not self.is_valid():
            raise ValueError(f"parameters must satisfy a > -1 and b > -1, got ({self.a}, {self.b})")

    def shifted(self, da, db):
        return JacobiParams(self.a + da, self.b + db)


@dataclass(frozen=True)
class Jet1:
    """Value and first derivative of a univariate function at a point."""

    u: object
    du: object


@dataclass(frozen=True)
class LadderStep:
    """Image data of a ladder operator: factor times the polynomial at (n, params)."""

    factor: float
    n: int
    params: JacobiParams


def _check_degree(n):
    if not isinstance(n, (int, np.integer)):
        raise ValueError(f"degree must be an integer, got {n!r}")


def _recurrence_safe(nmax, a, b):
    """Whether the recurrence is safe to degree nmax, per entry of nmax and a: no
    denominator near zero, no parameter below -1 (it then loses digits at that
    end as the degree grows, 2.5e-12 in dH/dy at (1.42, -2.42), k = 15)."""
    if (np.minimum(a, b) >= -0.75).all():  # then a + b >= -1.5: no denominator nears zero
        return np.ones(np.shape(a), bool)
    # only the integers nearest the zeros of n + a + b + 1 and 2n + a + b can
    # come within 1/4 of them
    n1, n2 = np.rint(-(a + b + 1)), np.rint(-(a + b) / 2)
    bad = (1 <= n1) & (n1 < nmax) & (abs(n1 + a + b + 1) < 0.25)
    bad |= (1 <= n2) & (n2 < nmax) & (abs(2 * n2 + a + b) < 0.25)
    return ~(bad | ((np.minimum(a, b) < -1) & (nmax > 1)))


def _rec_coeffs(n, a, b):
    # P_{n+1}(X) = (A X + B) P_n(X) - C P_{n-1}(X) on (-1, 1), n >= 1
    s = 2 * n + a + b
    den = 2 * (n + 1) * (n + a + b + 1)
    s1, s2, ds = s + 1, s + 2, den * s
    return s1 * s2 / den, s1 * (a * a - b * b) / ds, 2 * (n + a) * (n + b) * s2 / ds


def _recurrence(nmax, a, b, y, s, nderiv=0):
    """Rows of H_j(y, s) = s^j P~_j(y/s) by the three-term recurrence, one degree j at a time.

    a and b are (K, 1) columns of safe entries, each to its own degree in
    nmax (K,), non-increasing; y and s hold one point row per entry, (K,
    npts), or one row that all share.  Step j yields H_j of the entries
    reaching degree j, (K_j, npts), then dH_j/dy (nderiv >= 1) and dH_j/ds
    (nderiv = 2); the rows are overwritten two steps later.
    """
    deg = nmax.tolist()
    if not deg:
        return
    K, top = len(deg), deg[0]
    with np.errstate(divide="ignore", invalid="ignore"):  # pairs past an entry's degree go unread
        A, B, C = _rec_coeffs(np.arange(1, top)[:, None, None], a, b)
    if K == 1:  # one entry's parameters and coefficients as Python floats, which multiply faster
        a, b, A, B, C = a.item(), b.item(), A.ravel().tolist(), B.ravel().tolist(), C.ravel().tolist()
    y, s = (y if y.ndim == 2 else y[None]), (s if isinstance(s, float) or s.ndim == 2 else s[None])
    t, s2 = 2 * y - s, s**2
    prev = cur = [np.ones((K, t.shape[1]))] + [np.zeros((K, t.shape[1])) for _ in range(nderiv)]
    for j in range(top + 1):
        if deg[K - 1] < j:  # those short of degree j, a suffix, stop; the rest go on
            K = np.count_nonzero(nmax >= j)
            a, b, y, t, A, B, C = a[:K], b[:K], y[:K], t[:K], A[:, :K], B[:, :K], C[:, :K]
            cur, prev = [v[:K] for v in cur], [v[:K] for v in prev]
            s, s2 = (s, s2) if isinstance(s, float) else (s[:K], s2[:K])
        if j == 1:
            H = (a + 1) * s + (a + b + 2) * (y - s)
            prev, cur = cur, [H] + [np.full(H.shape, v) for v in (a + b + 2, -(b + 1))[:nderiv]]
        elif j > 1:
            H, Hm = cur[0], prev[0]
            Aj, Bj, Cj = A[j - 2], B[j - 2], C[j - 2]
            lin = Aj * t
            lin += Bj * s
            c2 = Cj * s2
            new = [lin, 2 * Aj * H + lin * cur[1] - c2 * prev[1]] if nderiv else [lin]
            if nderiv == 2:
                new.append((Bj - Aj) * H + lin * cur[2] - Cj * (2 * s * Hm + s2 * prev[2]))
            # lin * H - C s^2 H_{j-2} in place: H_{j-2} is read no more
            lin *= H
            Hm *= c2
            lin -= Hm
            prev, cur = cur, new
        yield cur


# values per block of lifted rows: the rows of a block and their points take a
# few arrays of this size at once, beside the table and the (a + 1, b + 1) rows
_LIFT_BLOCK = 1 << 13


def _shifted_table(nmax, a, b, x, nderiv=0, s=1.0, rows=None):
    """H_n(x, s) = s^n P~_n(x/s), n <= nmax, then its x- and s-partials up to nderiv.

    nmax, a and b broadcast to a column of K entries (C order), each to its
    own degree, in shape (nderiv + 1, K, max(nmax) + 1, npts); or, given a
    (K, max(nmax) + 1) integer map rows, entry i's degree-j row is row
    rows[i, j] of a (nderiv + 1, rows.max() + 1, npts) table.  Rows no entry
    reaches are left unset, and an entry of negative degree reaches none.
    A 2-D x (and s) holds one point row per entry, (K, npts); otherwise all
    entries share the points.  Scalar nmax, a and b are a column of one
    entry at the raveled points, returned without its entry axis, (nderiv +
    1, nmax + 1, npts).  A scalar s stays a Python float, costing no array
    products.  Division-free.
    """
    col = np.empty((3,) + np.broadcast(nmax, a, b).shape)  # each entry's degree, a and b
    col[0], col[1], col[2] = nmax, a, b
    lone = rows is None and col.ndim == 1
    nmax, a, b = col.reshape(3, -1)
    nmax = nmax.astype(int)
    x, s = np.asarray(x, dtype=float), np.asarray(s, dtype=float)
    x, s = np.broadcast_arrays(x, s) if s.ndim else (x, float(s))
    if lone or x.ndim != 2:
        x, s = x.ravel(), (s if isinstance(s, float) else s.ravel())

    def pts(i):  # the points of entries i: their rows, or the shared ones
        return (x[i], s if isinstance(s, float) else s[i]) if x.ndim == 2 else (x, s)

    grid = (nmax.size, nmax.max(initial=-1) + 1) if rows is None else None
    rows = np.arange(grid[0] * grid[1]).reshape(grid) if grid else rows
    T = np.empty((nderiv + 1, rows.max(initial=-1) + 1, x.shape[-1]))
    # one recurrence for the safe entries, in order of falling degree, and lift steps for the rest
    safe = _recurrence_safe(nmax, a, b)
    order, cut = np.lexsort((-nmax, ~safe)), np.count_nonzero(safe)
    run, lift = order[:cut], order[cut:]
    dest = rows[run].T
    for j, out in enumerate(_recurrence(nmax[run], a[run, None], b[run, None], *pts(run), nderiv)):
        at = dest[j, 0] if len(out[0]) == 1 else dest[j, : len(out[0])]  # a lone row by plain index, which writes faster
        for d, row in enumerate(out):
            T[d, at] = row
    if lift.size:  # all rows (entry i, degree n >= 1) of the unsafe entries, _LIFT_BLOCK values at a time
        m = nmax[lift]
        i, n = np.nonzero(np.arange(m.max()) < m[:, None])
        at = np.zeros((m.size, m.max()), int)
        at[i, n] = np.arange(i.size)  # G's rows are the (i, n) pairs in turn
        xl, sl = pts(lift)
        g = _shifted_table(m - 1, a[lift] + 1, b[lift] + 1, xl, max(nderiv, 1), sl, rows=at)
        z = rows[lift, 0]
        T[:, z], T[0, z] = 0.0, 1.0
        step = max(1, _LIFT_BLOCK // max(x.shape[-1], 1))
        for lo in range(0, i.size, step):
            e, d1 = lift[i[lo : lo + step]], n[lo : lo + step, None] + 1
            for d, row in enumerate(_lift(a[e, None], b[e, None], *pts(e), nderiv)(g[:, lo : lo + step], d1)):
                T[d, rows[e, d1[:, 0]]] = row
    return T if lone or not grid else T.reshape((nderiv + 1,) + grid + (x.shape[-1],))


def _lift(a, b, x, s, nderiv):
    """The lift step of the (a, b) entries at points x, s: step(G, n) yields the
    degree-n rows of the (a, b) table and its partials up to nderiv from the
    degree-(n-1) rows G of the (a+1, b+1) table, two steps further from the
    singular sums, by the homogenized shifted ladders: 1T gives H, 1F its
    x-partial, and 4T composed with 3T its s-partial.  The per-point factors
    of 1T are formed once, here, for every degree; only n divides.  step
    yields the rows in turn, the first formed in place, so that each may be
    stored before the next is formed."""
    w = s - x
    lin = (a + 1) * x
    lin -= (b + 1) * w
    xw = x * w

    def step(G, n):
        h = lin * G[0]
        h -= xw * G[1]
        h /= n
        yield h
        if nderiv >= 1:
            yield (n + a + b + 1) * G[0]
        if nderiv == 2:
            yield -(b + 1) * G[0] - x * (G[1] + G[2])

    return step


def _rows(n, a, b, x, s=1.0, nderiv=0):
    """One entry's rows of _shifted_table, H_j(x, s) and its partials up to nderiv, for j = 0..n in turn.

    x is one point row, and s a Python float or a row of x's shape.  The
    rows come from _recurrence where it is safe, and otherwise each by _lift
    from the (a+1, b+1) entry's rows of the degree before, so they equal
    the table's bit for bit without a table: a lifted entry holds one
    generator per lift level.  Each yield is a list of nderiv + 1 rows,
    read-only and overwritten two steps later; none for n < 0.
    """
    if _recurrence_safe(n, a, b):
        for rows in _recurrence(np.array([n]), np.array([[a]], float), np.array([[b]], float), x, s, nderiv):
            yield [row[0] for row in rows]
        return
    yield [np.ones(x.shape)] + [np.zeros(x.shape) for _ in range(nderiv)]
    step = _lift(a, b, x, s, nderiv)
    for j, G in enumerate(_rows(n - 1, a + 1, b + 1, x, s, max(nderiv, 1)), 1):
        yield list(step(G, j))


def _homog_table(kmax, a, b, y, s, partials=False):
    """Second-factor tables (H, Hy, Hs) of H_k(y, s), k <= kmax, per entry of a, b; partials None unless requested.

    With a column of entries, y and s may hold one point row per entry, (K, npts).
    """
    T = _shifted_table(kmax, a, b, y, 2 if partials else 0, s)
    return tuple(T) if partials else (T[0], None, None)


def _eval_core(n, a, b, x, s=1.0):
    """H_n(x, s) for any real parameters, shaped as x and s broadcast; negative degree is zero.

    The last row that _rows yields, equal to _shifted_table's row n, in
    O(points) memory: the rows below it are dropped as the next are formed.
    """
    x, s = np.asarray(x, dtype=float), np.asarray(s, dtype=float)
    x, s = np.broadcast_arrays(x, s) if s.ndim else (x, float(s))
    out = np.zeros(x.size)
    for out, *_ in _rows(n, a, b, x.ravel(), s if isinstance(s, float) else s.ravel()):
        pass
    return float(out[0]) if not x.shape else out.reshape(x.shape)


def jacobi_eval(n, p, x):
    """Evaluate P_n^{(a,b)} at x in [-1, 1].

    Parameters
    ----------
    n : int
        Degree.  Negative degrees evaluate to zero (boundary convention).
    p : JacobiParams
        Weight exponents, must satisfy a > -1 and b > -1.
    x : float or array_like
        Evaluation points.

    Returns
    -------
    float or ndarray
        Values, normalized so that P_n^{(a,b)}(1) = binom(n+a, n).
    """
    _check_degree(n)
    p.validate()
    X = np.asarray(x, dtype=float)
    return _eval_core(n, p.a, p.b, (X + 1) / 2)


def jacobi_deriv(n, p, x):
    """Derivative of P_n^{(a,b)}, computed as (n+a+b+1)/2 times the lifted polynomial."""
    _check_degree(n)
    p.validate()
    X = np.asarray(x, dtype=float)
    if n <= 0:
        return 0.0 if X.ndim == 0 else np.zeros_like(X)
    return (n + p.a + p.b + 1) / 2 * _eval_core(n - 1, p.a + 1, p.b + 1, (X + 1) / 2)


def shifted_jacobi_eval(n, p, x):
    """Evaluate the shifted polynomial on [0, 1], equal to jacobi_eval(n, p, 2x - 1)."""
    _check_degree(n)
    p.validate()
    return _eval_core(n, p.a, p.b, x)


def shifted_jacobi_deriv(n, p, x):
    """Derivative of the shifted polynomial: (n+a+b+1) times the lifted one."""
    _check_degree(n)
    p.validate()
    if n <= 0:
        xx = np.asarray(x, dtype=float)
        return 0.0 if xx.ndim == 0 else np.zeros_like(xx)
    return (n + p.a + p.b + 1) * _eval_core(n - 1, p.a + 1, p.b + 1, x)


def homog_shifted_eval(k, p, y, s):
    """Homogenized shifted polynomial s^k P~_k^{(a,b)}(y/s), polynomial in (y, s).

    Well-defined for all (y, s) including s = 0, where the direct quotient
    form breaks down.
    """
    _check_degree(k)
    p.validate()
    return _eval_core(k, p.a, p.b, y, s)


# x**i w**j by (i, j), built once; None stands for 1 and multiplies nothing; j = -1 serves ladders.py
_MONOMIALS = {(0, 0): None, (1, 0): lambda x, w: x, (0, 1): lambda x, w: w, (1, 1): lambda x, w: x * w,
    (0, -1): lambda x, w: 1 / w, (1, -1): lambda x, w: x / w}


def _affine(alpha, u, beta, x, w, du):
    """alpha u + beta du, where beta = (sign, i, j) stands for sign x**i w**j."""
    mono = _MONOMIALS[beta[1:]]
    t = du if mono is None else mono(x, w) * du
    return alpha * u - t if beta[0] < 0 else alpha * u + t


class _Ladder(NamedTuple):
    """One operator of the table, shared by both families.

    `factor(n, a, b)` and `pointwise(n, a, b, x, u, du)` are the shifted
    forms on (0, 1), with n an int or an (m, 1) integer column.  The
    pointwise form is alpha u + beta du, with beta = sign x**i w**j, w = 1 -
    x, held as (sign, i, j), and `alpha(n, a, b, x, w, s)` homogeneous of
    degree i + j - 1 in (x, w, s), s standing for 1 (a zero shaped as x at
    degree -1), so that the row acts on a homogenized H(x, s) too.  The
    interval operator is the same one under x = (X + 1)/2, scaled by 2**e:
    its factor is 2**e times the shifted factor, and its pointwise form is
    2**e times the shifted form with du/dx = 2 du/dX.
    """

    move: tuple  # (dn, da, db)
    factor: Callable
    alpha: Callable
    beta: tuple  # (sign, i, j)
    e: int

    def pointwise(self, n, a, b, x, u, du):
        w = 1 - x
        return _affine(self.alpha(n, a, b, x, w, 1.0), u, self.beta, x, w, du)


# (s, dagger) -> operator, in the sweep's case order.  Reordering an expression moves
# results in the last bits, and with them the verify reports (byte-identical per seed).
_LADDERS = {
    (1, False): _Ladder((-1, 1, 1), lambda n, a, b: n + a + b + 1, lambda n, a, b, x, w, s: 0.0 * x, (1, 0, 0), -1),
    (1, True): _Ladder((1, -1, -1), lambda n, a, b: n + 1.0, lambda n, a, b, x, w, s: x * a - w * b, (-1, 1, 1), 1),
    (2, False): _Ladder((0, 1, 0), lambda n, a, b: n + a + b + 1, lambda n, a, b, x, w, s: a + b + n + 1, (1, 1, 0), 0),
    (2, True): _Ladder((0, -1, 0), lambda n, a, b: n + a, lambda n, a, b, x, w, s: a * s + w * n, (-1, 1, 1), 1),
    (3, False): _Ladder((0, 0, 1), lambda n, a, b: n + a + b + 1,
        lambda n, a, b, x, w, s: a + b + n + 1, (-1, 0, 1), 0),
    (3, True): _Ladder((0, 0, -1), lambda n, a, b: n + b, lambda n, a, b, x, w, s: b * s + x * n, (1, 1, 1), 1),
    (4, False): _Ladder((1, -1, 0), lambda n, a, b: n + 1.0,
        lambda n, a, b, x, w, s: x * a - w * (b + n + 1), (-1, 1, 1), 1),
    (4, True): _Ladder((-1, 1, 0), lambda n, a, b: n + b, lambda n, a, b, x, w, s: -n, (1, 1, 0), 0),
    (5, False): _Ladder((1, 0, -1), lambda n, a, b: n + 1.0,
        lambda n, a, b, x, w, s: x * (a + n + 1) - w * b, (-1, 1, 1), 1),
    (5, True): _Ladder((-1, 0, 1), lambda n, a, b: n + a, lambda n, a, b, x, w, s: n, (1, 0, 1), 0),
    (6, False): _Ladder((0, 1, -1), lambda n, a, b: n + b, lambda n, a, b, x, w, s: b, (1, 1, 0), 0),
    (6, True): _Ladder((0, -1, 1), lambda n, a, b: n + a, lambda n, a, b, x, w, s: a, (-1, 0, 1), 0),
}


def _ladder(s, dagger, n, interval):
    """Checked table row and family scale (2**e on (-1, 1), 1 on (0, 1))."""
    if s not in (1, 2, 3, 4, 5, 6):
        raise ValueError(f"ladder label must be in 1..6, got {s!r}")
    if not isinstance(dagger, (bool, np.bool_)):
        raise ValueError(f"dagger must be a bool, got {dagger!r}")
    _check_degree(n)
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    op = _LADDERS[(s, bool(dagger))]
    return op, (2.0**op.e if interval else 1.0)


def _ladder_step(s, dagger, n, p, interval):
    op, scale = _ladder(s, dagger, n, interval)
    dn, da, db = op.move
    return LadderStep(float(scale * op.factor(n, p.a, p.b)), n + dn, p.shifted(da, db))


def jacobi_ladder_factor(s, dagger, n, p):
    """Scalar factor multiplying the target polynomial for the (-1,1) family."""
    return _ladder_step(s, dagger, n, p, True).factor


def shifted_ladder_factor(s, dagger, n, p):
    """Scalar factor for the shifted family: the (-1,1) factor with 1/2 and 2 dropped."""
    return _ladder_step(s, dagger, n, p, False).factor


def jacobi_ladder_step(s, dagger, n, p):
    """Index-space form of a ladder application on the (-1,1) family.

    Returns the LadderStep (factor, n', params') such that applying the
    pointwise operator to P_n^{(a,b)} yields factor * P_{n'}^{(a',b')}.
    """
    return _ladder_step(s, dagger, n, p, True)


def shifted_ladder_step(s, dagger, n, p):
    """Index-space form of a ladder application on the shifted family."""
    return _ladder_step(s, dagger, n, p, False)


def jacobi_ladder_pointwise(s, dagger, jet, n, p, x):
    """Apply a ladder operator to a jet of function data at x in (-1, 1).

    The jet need not come from a Jacobi polynomial; the operator is the
    first-order differential expression itself.
    """
    op, scale = _ladder(s, dagger, n, True)
    X = np.asarray(x, dtype=float)
    return scale * op.pointwise(n, p.a, p.b, (X + 1) / 2, jet.u, 2 * jet.du)


def shifted_ladder_pointwise(s, dagger, jet, n, p, x):
    """Apply a shifted-family ladder operator to a jet at x in (0, 1)."""
    op, _ = _ladder(s, dagger, n, False)
    return op.pointwise(n, p.a, p.b, np.asarray(x, dtype=float), jet.u, jet.du)

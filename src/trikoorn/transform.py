"""Quadrature on the triangle and the analysis/synthesis transforms.

The triangle rule is a tensor Gauss rule pulled through the square-to-
triangle map x = s, y = (1-s)t.  The Jacobian and the four-parameter weight
both factorize in (s, t), so the two one-dimensional rules absorb the full
weight and the rule integrates (polynomial) * weight exactly up to the
stated strength.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, gamma, inf, isfinite, lgamma
from pathlib import Path

import numpy as np

from ._text import read_rows, rows_text
from .jacobi import _rows, _shifted_table
from .koornwinder import (
    TriParams,
    TriPoint,
    _first_factor_param,
    _first_factors,
    _graded_indices,
    _tri_tables,
    linear_to_index,
    point_rows,
    weight_eval,
)
from .operators import BasisTag, CoeffVec

__all__ = [
    "QuadRule",
    "gauss_jacobi_rule",
    "duffy_rule",
    "norm_sq",
    "analyze",
    "synthesize",
    "gram_matrix",
    "save_coeffs_csv",
    "load_coeffs_csv",
    "save_values_csv",
    "load_values_csv",
]


@dataclass(frozen=True, eq=False)
class QuadRule:
    """Triangle quadrature rule: points (npts, 2), weights (npts,), and provenance.

    The weights absorb the full weight function of `params`; `strength` is
    the largest total degree integrated exactly against that weight.
    """

    points: np.ndarray
    weights: np.ndarray
    params: TriParams
    m: int
    strength: int


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def gauss_jacobi_rule(m, alpha, beta):
    """Gauss rule with m nodes on (0, 1) for the weight x^beta (1-x)^alpha.

    Golub-Welsch in numpy: the nodes are the eigenvalues of the symmetric
    tridiagonal recurrence matrix, each polished by one Newton step on the
    orthonormal three-term recurrence p_j of that matrix; the weights are the
    Christoffel numbers mu0 / sum_{j<m} p_j(x)^2 from the same recurrence,
    positive by construction (mu0 itself at m = 1).  Exact for polynomials of
    degree <= 2m - 1; weights sum to B(beta+1, alpha+1).  Equal-length
    sequences of exponents give one rule per pair, as (pairs, m) arrays.
    Raises ValueError where float64 cannot hold the recurrence or that sum.
    """
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise ValueError(f"node count must be a positive integer, got {m!r}")
    pairs = list(zip(np.atleast_1d(alpha), np.atleast_1d(beta)))
    i = np.arange(m)
    # off[:, m - 1] = 1 stays as padding, so the recurrence's last step yields p_m
    diag, off, mu0 = np.empty((len(pairs), m)), np.ones((len(pairs), m)), np.empty((len(pairs), 1))
    for r, (ea, eb) in enumerate(pairs):
        if ea <= -1 or eb <= -1:
            raise ValueError(f"weight exponents must exceed -1, got ({ea}, {eb})")
        a, b = float(ea), float(eb)
        s = 2 * i + a + b
        diag[r] = (b * b - a * a) / (s * (s + 2))
        diag[r, 0] = (b - a) / (a + b + 2)
        off[r, : m - 1] = np.sqrt(4 * i * (i + a) * (i + b) * (i + a + b) / (s**2 * (s + 1) * (s - 1)))[1:]
        if m > 1:
            # the generic subdiagonal formula is 0/0 at i = 1 when a + b = -1
            off[r, 0] = np.sqrt(4 * (1 + a) * (1 + b) / (s[1] ** 2 * (s[1] + 1)))
        try:
            mu0[r] = gamma(a + 1) * gamma(b + 1) / gamma(a + b + 2)
        except OverflowError:
            mu0[r] = inf
        if not isfinite(mu0[r, 0]):
            # the gammas overflow where their ratio B(a+1, b+1) need not; the log
            # form loses about 2.2e-16 * |log| of relative accuracy to cancellation
            logs = (lgamma(a + 1), lgamma(b + 1), -lgamma(a + b + 2))
            mu0[r] = exp(sum(logs)) if sum(map(abs, logs)) * 2.2e-16 <= 1e-8 else 0.0
        if not (np.isfinite(diag[r]).all() and np.isfinite(off[r]).all() and 0.0 < mu0[r, 0] < inf):
            raise ValueError(f"the {m}-node Gauss-Jacobi rule for exponents ({a}, {b}) is out of float64 range")
    J = np.zeros((len(pairs), m, m))
    J[:, i, i], J[:, i[1:], i[:-1]] = diag, off[:, :-1]
    x = np.linalg.eigvalsh(J).ravel()
    # o_j p_{j+1} = (x - d_j) p_j - o_{j-1} p_{j-1} and its derivative, one flat row of
    # coefficients per step j; K and D sum p_j^2 and p_j p_j' over j < m
    d, inv, back = (np.repeat(c.T, m, axis=1) for c in (diag, 1 / off, np.roll(off, 1, axis=1) / off))
    p, dp, pp, dpp, K, D = np.ones(x.size), *np.zeros((5, x.size))
    for t, v, c in zip((x - d) * inv, inv, back):
        K, D = K + p * p, D + p * dp
        p, pp, dp, dpp = t * p - c * pp, p, t * dp - c * dpp + v * p, dp
    # one Newton step x - p_m / p_m', with the sum moved along it to first order
    dx = np.nan_to_num(-p / dp, nan=0.0, posinf=0.0, neginf=0.0)
    K = (K + 2 * dx * D).reshape(mu0.size, m)
    nodes, weights = (1 + (x + dx)).reshape(K.shape) / 2, mu0 / np.where(np.isnan(K), inf, K)
    return (nodes, weights) if np.ndim(alpha) else (nodes[0], weights[0])


def _duffy_factors(m, params):
    """The two one-dimensional rules (s, w_s, t, w_t) of the Duffy rule of `params`."""
    params.validate()
    if params.b + params.c + params.d + 2 <= 0:
        raise ValueError(
            f"s-direction exponent b+c+d+1 must exceed -1, got {params.b + params.c + params.d + 1}"
        )
    (s, t), (ws, wt) = gauss_jacobi_rule(m, [params.b + params.c + params.d + 1, params.c], [params.a, params.b])
    return s, ws, t, wt


def _duffy_points(s, t):
    """Coordinate arrays (x, y) = (s_i, (1-s_i) t_j) of the tensor nodes, s-major."""
    S = np.repeat(s, t.size)
    return S, (1 - S) * np.tile(t, s.size)


def duffy_rule(m, params):
    """Tensor Gauss rule on the triangle absorbing the weight of `params`.

    The s-direction rule carries exponents (b+c+d+1, a) and the
    t-direction rule carries (c, b); points are (s_i, (1-s_i) t_j) in
    s-major order.  Requires b + c + d + 2 > 0 for integrability of the
    s-factor (automatic on parameter grids bounded below by -1/2).
    """
    xs, ws, xt, wt = _duffy_factors(m, params)
    pts = np.column_stack(_duffy_points(xs, xt))
    return QuadRule(pts, np.outer(ws, wt).ravel(), params, int(m), 2 * int(m) - 1)


def _edge_tables(N, params, s, ws, t, wt):
    """E, Q, the k of each row r and den_r of the degree <= N basis on the Duffy nodes.

    There P_{n,k}(s, (1-s) t) = E_r(s) Q_k(t): E_r(s) = P_{n,k}(s, 1-s) on the edge
    z = 0, Q_k = P~_k / P~_k(1).  den_r = (sum_i ws E_r^2)(sum_j wt Q_k^2) is the norm.
    E_r = F_r(s) (1-s)^k P~_k(1) takes P~_k(1) from the row that normalizes Q, so
    its roundoff cancels in den_r and in `analyze`'s numerator; the homogenized
    second factor at y = 1 - s carries up to 2e-15 of it.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # callers name the first (n, k) out of range
        P = _shifted_table(N, params.c, params.b, np.append(t, 1.0))[0]
        Q = P[:, :-1] / P[:, -1:]
        k = _graded_indices(N)[1]
        E = _tri_tables(N, params, s, 1 - s, second=P[:, -1:] * (1 - s) ** np.arange(N + 1)[:, None])[0]
        den = np.einsum("ri,ri,i->r", E, E, ws) * ((Q * Q) @ wt)[k]
    return E, Q, k, den


def norm_sq(idx, params):
    """Squared weighted norm of one element: its denominator in `analyze` at N = n, m = n + 1.

    Raises ValueError where it is zero or not finite in float64.
    """
    idx.validate()
    den = _edge_tables(idx.n, params, *_duffy_factors(idx.n + 1, params))[3]
    nsq = float(den[idx.k - idx.n - 1])  # in the last degree block
    if not 0.0 < nsq < inf:
        raise ValueError(f"the squared norm of (n, k) = ({idx.n}, {idx.k}) is out of float64 range")
    return nsq


def _check_rule_size(N, m):
    if m < N + 1:
        raise ValueError(f"rule size m = {m} is below the exactness requirement N + 1 = {N + 1}")


def _check_in_range(ok, what):
    """Raise ValueError naming the first (n, k) where `ok`, in linear index order, is False."""
    lost = np.flatnonzero(~ok)
    if lost.size:
        idx = linear_to_index(int(lost[0]))
        raise ValueError(f"{lost.size} {what} out of float64 range, the first at (n, k) = ({idx.n}, {idx.k})")


def analyze(f, N, params, m=None):
    """Project a function onto the basis of degree <= N by quadrature.

    Parameters
    ----------
    f : callable or array_like
        Either f(x, y) accepting coordinate arrays, or values already
        sampled at the nodes of the rule this transform uses.
    N : int
        Maximum degree of the expansion.
    params : TriParams
    m : int, optional
        Nodes per direction; defaults to N + 1, the smallest count whose
        strength 2m - 1 covers products of two degree-N polynomials.  A
        smaller m raises ValueError: element (m, 0) then vanishes at every
        node and has a zero discrete norm.

    Returns
    -------
    CoeffVec
        Coefficients in ascending linear index order.  Each coefficient is
        the quadrature inner product divided by the quadrature norm of the
        same element, so rule-level bias cancels between the two.
    """
    m = N + 1 if m is None else m
    _check_rule_size(N, m)
    s, ws, t, wt = _duffy_factors(m, params)
    if callable(f):
        vals = np.broadcast_to(np.asarray(f(*_duffy_points(s, t)), dtype=float), (m * m,)).astype(float)
    else:
        vals = np.asarray(f, dtype=float)
        if vals.shape != (m * m,):
            raise ValueError(f"sampled values must match the rule nodes, expected {m * m}, got {vals.shape}")
    bad = np.count_nonzero(~np.isfinite(vals))
    if bad:
        raise ValueError(f"{bad} of {vals.size} samples are not finite")
    # sum over t, then over s
    E, Q, k, den = _edge_tables(N, params, s, ws, t, wt)
    g = (ws[:, None] * vals.reshape(m, m) * wt) @ Q.T
    num = np.einsum("ri,ri->r", E, g.T[k])
    with np.errstate(divide="ignore", invalid="ignore"):
        coef = num / den
    _check_in_range(np.isfinite(coef), "coefficients are")
    return CoeffVec(BasisTag(params, False, int(N)), coef)


def synthesize(vec, pts):
    """Evaluate a coefficient vector at points (TriPoint list or (npts, 2) array).

    Weighted bases multiply the polynomial sum by x^a y^b z^c; a
    negative exponent then requires interior points, and a point where its
    factor vanishes raises ValueError.  The first factors are summed once
    per distinct x: G_k(x) = sum_n c_{n,k} F_{n-k}(x).  The second factors
    H_k(y, 1-x) stream from the recurrence one degree at a time, each added
    in turn to u = sum_k H_k(y, 1-x) G_k(x), k = 0..N, so that beside the
    first-factor tables over distinct x only a few rows of points are held.
    """
    pts = point_rows(pts)
    N, q, c = vec.basis.maxdeg, vec.basis.params, vec.values
    xu, at = np.unique(pts[:, 0], return_inverse=True)
    F = _first_factors(N, _first_factor_param(np.arange(N + 1), q), q.a, xu)[0]
    F *= c[:, None]
    G = np.zeros((N + 1, xu.size))
    for n in range(N + 1):  # degree block n holds k = 0..n
        G[: n + 1] += F[n * (n + 1) // 2 : (n + 1) * (n + 2) // 2]
    out, g = np.zeros(len(pts)), np.empty(len(pts))
    for k, (H,) in enumerate(_rows(N, q.c, q.b, pts[:, 1], 1.0 - pts[:, 0])):
        G[k].take(at, out=g)
        g *= H
        out += g
    if vec.basis.weighted:
        with np.errstate(divide="ignore", over="ignore"):
            w = weight_eval(q, TriPoint(pts[:, 0], pts[:, 1]))
        lost = np.flatnonzero(np.isinf(w))
        if lost.size:
            x, y = pts[lost[0]].tolist()
            raise ValueError(f"the weight is infinite at {lost.size} of {len(pts)} points, the first at (x, y) = "
                f"({x!r}, {y!r}): a negative exponent needs interior points")
        out *= w
    return out


def gram_matrix(N, params, m):
    """Weighted Gram matrix of the degree <= N basis under an m-point-per-direction rule.

    Requires m >= N + 1 so the rule strength covers every pairwise product;
    the result is then diagonal up to roundoff.  Raises ValueError where a
    diagonal entry is zero or not finite (the rule weights underflow, or the
    norms overflow).  Entries factor as (sum_i ws E_r E_r')(sum_j wt Q_k Q_k'), in O(N^5) time.
    """
    _check_rule_size(N, m)
    s, ws, t, wt = _duffy_factors(m, params)
    E, Q, k, _ = _edge_tables(N, params, s, ws, t, wt)
    G = (E * ws) @ E.T
    G *= ((Q * wt) @ Q.T)[np.ix_(k, k)]
    d = np.diag(G)
    _check_in_range((0.0 < d) & (d < inf), "squared norms are")
    return G


def coeffs_csv_text(vec):
    """Coefficient CSV text with header n,k,value in ascending linear index."""
    return rows_text("n,k,value\n", [*_graded_indices(vec.basis.maxdeg), vec.values], ",")


def save_coeffs_csv(vec, path):
    """Write coefficients as CSV with header n,k,value in ascending linear index."""
    Path(path).write_text(coeffs_csv_text(vec))


def _read_csv(path, fields):
    """The rows of a CSV file whose header names the fields, as read by `read_rows`."""
    head = ",".join(name for name, _ in fields)
    with open(str(path)) as fh:
        header = fh.readline().strip()
        if header != head:
            raise ValueError(f"expected header {head!r}, got {header!r}")
        return read_rows(fh, fields, ",")


def load_coeffs_csv(path, basis):
    """Read a coefficient CSV written by save_coeffs_csv for a known basis."""
    rows = _read_csv(path, [("n", np.int64), ("k", np.int64), ("value", float)])
    n, k = rows["n"], rows["k"]
    out = ~((0 <= k) & (k <= n) & (n <= basis.maxdeg))
    if out.any():
        raise ValueError(f"index ({n[out][0]}, {k[out][0]}) outside basis of degree {basis.maxdeg}")
    i = n * (n + 1) // 2 + k
    repeated = np.bincount(i, minlength=basis.size)[i] > 1
    if repeated.any():
        raise ValueError(f"index ({n[repeated][0]}, {k[repeated][0]}) appears twice")
    if i.size != basis.size:
        raise ValueError(f"expected {basis.size} rows, got {i.size}")
    return CoeffVec(basis, rows["value"][np.argsort(i)])


def values_csv_text(pts, vals):
    """Point-value CSV text with header x,y,value."""
    x, y = np.asarray(pts, dtype=float).T
    return rows_text("x,y,value\n", [x, y, np.asarray(vals, dtype=float)], ",")


def save_values_csv(pts, vals, path):
    """Write point values as CSV with header x,y,value."""
    Path(path).write_text(values_csv_text(pts, vals))


def load_values_csv(path):
    """Read a CSV with header x,y,value; returns (points, values)."""
    rows = _read_csv(path, [("x", float), ("y", float), ("value", float)])
    return np.column_stack([rows["x"], rows["y"]]), rows["value"].copy()

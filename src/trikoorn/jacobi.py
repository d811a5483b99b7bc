"""Jacobi polynomials, their shifted-interval variants, and the ladder operators.

Evaluation runs through a shifted-interval three-term recurrence with
derivative propagation.  Parameter values that make the recurrence
coefficients degenerate (they arise as ladder targets, which may leave the
a, b > -1 family) are lifted from the (a+1, b+1) table by the homogenized
shifted ladders 1T, 1F, and 4T composed with 3T.  The lift divides by
nothing but the degree, so the corner s = 0 is an ordinary point, and it
recurses until the recurrence is safe.

The twelve ladder operators are the rows of one table in shifted form; the
(-1, 1) family is derived from it by x = (X + 1)/2 and a power-of-two scale.
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
    # forward recurrence denominators must stay away from zero
    for n in range(1, nmax):
        if abs(n + a + b + 1) < 0.25 or abs(2 * n + a + b) < 0.25:
            return False
    return True


def _rec_coeffs(n, a, b):
    # P_{n+1}(X) = (A X + B) P_n(X) - C P_{n-1}(X) on (-1, 1), n >= 1
    s = 2 * n + a + b
    den = 2 * (n + 1) * (n + a + b + 1)
    A = (s + 1) * (s + 2) / den
    B = (s + 1) * (a * a - b * b) / (den * s)
    C = 2 * (n + a) * (n + b) * (s + 2) / (den * s)
    return A, B, C


def _shifted_table(nmax, a, b, x, nderiv=0):
    """Values (and, for nderiv = 1, x-derivatives) of the shifted polynomials.

    Returns an array of shape (nderiv + 1, nmax + 1, npts) over degrees
    0..nmax at the points x in (0, 1) coordinates.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros((nderiv + 1, nmax + 1, x.size))
    if nmax < 0:
        return out
    if _recurrence_safe(nmax, a, b):
        out[0, 0] = 1.0
        if nmax >= 1:
            out[0, 1] = (a + 1) + (a + b + 2) * (x - 1)
            if nderiv >= 1:
                out[1, 1] = a + b + 2
        for n in range(1, nmax):
            A, B, C = _rec_coeffs(n, a, b)
            lin = A * (2 * x - 1) + B
            out[0, n + 1] = lin * out[0, n] - C * out[0, n - 1]
            if nderiv >= 1:
                out[1, n + 1] = 2 * A * out[0, n] + lin * out[1, n] - C * out[1, n - 1]
    else:
        # P~_n(x) = H_n(x, 1)
        H, Hy, _ = _homog_table(nmax, a, b, x, 1.0, partials=nderiv >= 1)
        out[0] = H
        if nderiv >= 1:
            out[1] = Hy
    return out


def _homog_table(kmax, a, b, y, s, partials=False):
    """Homogenized second-factor table H_k(y, s) = s^k P~_k(y/s).

    Returns (H, Hy, Hs) arrays of shape (kmax + 1, npts); the partials are
    None unless requested.  Division-free, valid on the closed triangle.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    s = np.atleast_1d(np.asarray(s, dtype=float))
    y, s = np.broadcast_arrays(y, s)
    H = np.zeros((kmax + 1, y.size))
    Hy = np.zeros_like(H) if partials else None
    Hs = np.zeros_like(H) if partials else None
    if kmax < 0:
        return H, Hy, Hs
    yf = y.ravel()
    sf = s.ravel()
    H[0] = 1.0
    if _recurrence_safe(kmax, a, b):
        if kmax >= 1:
            H[1] = (a + 1) * sf + (a + b + 2) * (yf - sf)
            if partials:
                Hy[1] = a + b + 2
                Hs[1] = -(b + 1)
        for k in range(1, kmax):
            A, B, C = _rec_coeffs(k, a, b)
            lin = A * (2 * yf - sf) + B * sf
            H[k + 1] = lin * H[k] - C * sf**2 * H[k - 1]
            if partials:
                Hy[k + 1] = 2 * A * H[k] + lin * Hy[k] - C * sf**2 * Hy[k - 1]
                Hs[k + 1] = (B - A) * H[k] + lin * Hs[k] - C * (2 * sf * H[k - 1] + sf**2 * Hs[k - 1])
    else:
        # Lift from the (a+1, b+1) table G, two steps further from the
        # singular sums, by the homogenized shifted ladders: 1T gives H, 1F
        # gives Hy, and 4T composed with 3T gives Hs.  Only k divides.
        G, Gy, Gs = _homog_table(kmax - 1, a + 1, b + 1, yf, sf, partials=True)
        k = np.arange(1, kmax + 1)[:, None]
        H[1:] = (((a + 1) * yf - (b + 1) * (sf - yf)) * G - yf * (sf - yf) * Gy) / k
        if partials:
            Hy[1:] = (k + a + b + 1) * G
            Hs[1:] = -(b + 1) * G - yf * (Gy + Gs)
    return H, Hy, Hs


def _eval_core(n, a, b, x):
    # shifted-interval evaluation for any real parameters; negative degree is zero
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    if n < 0:
        out = np.zeros_like(np.atleast_1d(x))
        return float(out[0]) if scalar else out
    tab = _shifted_table(n, a, b, np.atleast_1d(x).ravel())
    out = tab[0, n].reshape(np.atleast_1d(x).shape)
    return float(out[0]) if scalar else out


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
    if n <= 0:
        X = np.asarray(x, dtype=float)
        return 0.0 if X.ndim == 0 else np.zeros_like(X)
    X = np.asarray(x, dtype=float)
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
    yy = np.asarray(y, dtype=float)
    ss = np.asarray(s, dtype=float)
    scalar = yy.ndim == 0 and ss.ndim == 0
    if k < 0:
        return 0.0 if scalar else np.zeros(np.broadcast(yy, ss).shape)
    H, _, _ = _homog_table(k, p.a, p.b, np.atleast_1d(yy), np.atleast_1d(ss))
    out = H[k].reshape(np.broadcast(np.atleast_1d(yy), np.atleast_1d(ss)).shape)
    return float(out[0]) if scalar else out


class _Ladder(NamedTuple):
    """One operator of the table, shared by both families.

    `factor(n, a, b)` and `pointwise(n, a, b, x, u, du)` are the shifted
    forms on (0, 1), with n an int or an (m, 1) integer column.  The
    interval operator is the same one under x = (X + 1)/2, scaled by 2**e:
    its factor is 2**e times the shifted factor, and its pointwise form is
    2**e times the shifted form with du/dx = 2 du/dX.
    """

    move: tuple  # (dn, da, db)
    factor: Callable
    pointwise: Callable
    e: int


# (s, dagger) -> operator, in the sweep's case order.  Reordering an
# expression moves the verify reports, which stay byte-identical.
_LADDERS = {
    (1, False): _Ladder((-1, 1, 1), lambda n, a, b: n + a + b + 1,
        lambda n, a, b, x, u, du: du + 0.0 * x, -1),
    (1, True): _Ladder((1, -1, -1), lambda n, a, b: n + 1.0,
        lambda n, a, b, x, u, du: (x * a - (1 - x) * b) * u - x * (1 - x) * du, 1),
    (2, False): _Ladder((0, 1, 0), lambda n, a, b: n + a + b + 1,
        lambda n, a, b, x, u, du: (a + b + n + 1) * u + x * du, 0),
    (2, True): _Ladder((0, -1, 0), lambda n, a, b: n + a,
        lambda n, a, b, x, u, du: (a + (1 - x) * n) * u - x * (1 - x) * du, 1),
    (3, False): _Ladder((0, 0, 1), lambda n, a, b: n + a + b + 1,
        lambda n, a, b, x, u, du: (a + b + n + 1) * u - (1 - x) * du, 0),
    (3, True): _Ladder((0, 0, -1), lambda n, a, b: n + b,
        lambda n, a, b, x, u, du: (b + x * n) * u + x * (1 - x) * du, 1),
    (4, False): _Ladder((1, -1, 0), lambda n, a, b: n + 1.0,
        lambda n, a, b, x, u, du: (x * a - (1 - x) * (b + n + 1)) * u - x * (1 - x) * du, 1),
    (4, True): _Ladder((-1, 1, 0), lambda n, a, b: n + b,
        lambda n, a, b, x, u, du: -n * u + x * du, 0),
    (5, False): _Ladder((1, 0, -1), lambda n, a, b: n + 1.0,
        lambda n, a, b, x, u, du: (x * (a + n + 1) - (1 - x) * b) * u - x * (1 - x) * du, 1),
    (5, True): _Ladder((-1, 0, 1), lambda n, a, b: n + a,
        lambda n, a, b, x, u, du: n * u + (1 - x) * du, 0),
    (6, False): _Ladder((0, 1, -1), lambda n, a, b: n + b,
        lambda n, a, b, x, u, du: b * u + x * du, 0),
    (6, True): _Ladder((0, -1, 1), lambda n, a, b: n + a,
        lambda n, a, b, x, u, du: a * u - (1 - x) * du, 0),
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

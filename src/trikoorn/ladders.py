"""Ladder operators on the triangle family and their composed identities.

Each of the 24 operators is one row of the `_LADDERS` table, which carries
it in two forms that must agree: an index-space step (the move of (n, k)
and of the parameters, and the factor of the target element) and a
pointwise first-order differential expression applied to a jet.  The rows
are derived from the 12 of the jacobi.py table by two substitution rules,
one acting on each factor of the element.  Factors and coefficients are
affine in (n, k), so every row takes n and k as ints or as (m, 1) integer
columns, and one call covers all index pairs.  The composed identities
recover derivative, conversion, multiplication, and eigenvalue relations
from chains of at most two ladder applications; `_composition` evaluates
them over index columns as well, and the public functions are its
single-index case.  Every identity but the degree-eigen one is a chain
(the k-eigen operator is minus y1+ after y1), and the chains are the one
source of the stencils of operators.py but eigen_n, and of the gradient
expansion `_ladder_gradient`: a chain term's coefficient is the product of
its ladder factors.  The two second-order (eigen) operators are written
here once, for the degree-eigen identity and as the pointwise references
of the operator and eigen sweeps of cli.py.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from functools import reduce
from typing import Callable, NamedTuple

import numpy as np

from .koornwinder import TriIndex, TriParams, _first_factor_param, _tri_core
from .jacobi import _LADDERS as _JACOBI_LADDERS, _MONOMIALS, _affine

__all__ = [
    "LadderId",
    "TriLadderStep",
    "CompositionId",
    "DegenerateParameterError",
    "all_ladder_ids",
    "ladder_factor",
    "ladder_step",
    "ladder_pointwise",
    "composition_residual",
]


class DegenerateParameterError(ValueError):
    """Parameter combination makes a required denominator vanish."""


@dataclass(frozen=True)
class LadderId:
    """Identifier of one of the 24 operators: axis ('x' or 'y'), label 1..6, dagger flag."""

    axis: str
    s: int
    dagger: bool = False

    def __post_init__(self):
        if self.axis not in ("x", "y"):
            raise ValueError(f"axis must be 'x' or 'y', got {self.axis!r}")
        if self.s not in (1, 2, 3, 4, 5, 6):
            raise ValueError(f"label must be in 1..6, got {self.s!r}")
        if not isinstance(self.dagger, (bool, np.bool_)):
            raise ValueError(f"dagger must be a bool, got {self.dagger!r}")

    @property
    def label(self):
        return f"{self.axis}{self.s}{'+' if self.dagger else ''}"


@dataclass(frozen=True)
class TriLadderStep:
    """Image data of a ladder application: factor times the element at (index, params)."""

    factor: float
    index: TriIndex
    params: TriParams


def all_ladder_ids():
    """The 24 operator ids in deterministic order (y family first, then x)."""
    return [
        LadderId(axis, s, dagger)
        for axis in ("y", "x")
        for s in range(1, 7)
        for dagger in (False, True)
    ]


class _Ladder(NamedTuple):
    """One catalogue row: the move, `factor(n, k, p)`, `pointwise(n, k, p, x, y,
    z, w, u, ux, uy)` with w = 1 - x, and whether the latter divides by w; n, k
    are ints or (m, 1) integer columns, so one call covers every index pair."""

    move: tuple  # (dn, dk, da, db, dc, dd)
    factor: Callable
    pointwise: Callable
    singular: bool


def _y_rule(op):
    """Jacobi row op on the second factor H_k^{(c,b)}(y, 1-x): (n, a, b, x, w,
    s) -> (k, c, b, y, z, 1-x), du -> u_y.  It maps H_k to its factor times
    (1-x)**(i+j-1-dk) H_{k+dk}, so it divides by 1 - x where dk < i + j - 1."""
    (dk, da, db), (_, i, j) = op.move, op.beta
    singular = dk < i + j - 1

    def pointwise(n, k, p, x, y, z, w, u, ux, uy):
        v = _affine(op.alpha(k, p.c, p.b, y, z, w), u, op.beta, y, z, uy)
        return v / w if singular else v

    move = (dk, dk, 0, db, da, -(da + db) - 2 * dk)  # keeps 2k + b + c + d + 1
    return _Ladder(move, lambda n, k, p: op.factor(k, p.c, p.b), pointwise, singular)


def _x_rule(op):
    """Jacobi row op on the first factor F_{n-k}^{(A, a)}(x), A = 2k + b + c + d +
    1: (n, a, b) -> (n - k, A, a), du -> u_x + (k u - y u_y)/(1-x) by Euler's
    identity for the second factor.  With g = beta/w, the image is (alpha + k g)
    u + beta u_x - y g u_y, and g cancels the division unless j = 0."""
    (dn, da, db), (sign, i, j) = op.move, op.beta
    over_w = _MONOMIALS[i, j - 1]

    def pointwise(n, k, p, x, y, z, w, u, ux, uy):
        g = sign if over_w is None else sign * over_w(x, w)
        alpha = op.alpha(n - k, _first_factor_param(k, p), p.a, x, w, 1.0)
        return _affine(alpha + k * g, u, op.beta, x, w, ux) - (y * g) * uy

    factor = lambda n, k, p: op.factor(n - k, _first_factor_param(k, p), p.a)
    return _Ladder((dn, 0, db, 0, 0, da), factor, pointwise, j == 0)


# Label s takes the Jacobi row s, the dagger flipped at one label per axis.  Reordering an
# expression moves results in the last bits, and with them the verify reports.
_LADDERS = {
    (axis, s, dagger): rule(_JACOBI_LADDERS[s, dagger != (s == flip)])
    for axis, rule, flip in (("y", _y_rule, 6), ("x", _x_rule, 5))
    for s in range(1, 7)
    for dagger in (False, True)
}


def _entry(lid):
    return _LADDERS[(lid.axis, lid.s, bool(lid.dagger))]


def _step(lid, n, k, params):
    """(factor, n', k', params') of one ladder application; n, k ints or columns."""
    op = _entry(lid)
    dn, dk, da, db, dc, dd = op.move
    return op.factor(n, k, params), n + dn, k + dk, params.shifted(da, db, dc, dd)


def _pointwise(lid, n, k, params, x, y, u, ux, uy):
    """Apply one operator to jet data; n, k ints or columns broadcasting against u."""
    op = _entry(lid)
    w = 1.0 - x
    if op.singular and np.any(w == 0.0):
        raise ValueError(f"operator {lid.label} divides by 1 - x and cannot be evaluated at x = 1")
    return op.pointwise(n, k, params, x, y, w - y, w, u, ux, uy)


def ladder_factor(lid, idx, params):
    """Scalar factor multiplying the target element for one ladder application."""
    idx.validate()
    return float(_entry(lid).factor(idx.n, idx.k, params))


def ladder_step(lid, idx, params):
    """Index-space form of one ladder application.

    Applying the pointwise operator to P_{idx}^{params} equals
    factor * P_{index'}^{params'}.  Targets with k' < 0 or k' > n' name the
    zero polynomial; target parameters may leave the orthogonality family.
    """
    idx.validate()
    factor, n, k, q = _step(lid, idx.n, idx.k, params)
    return TriLadderStep(float(factor), TriIndex(n, k), q)


def ladder_pointwise(lid, jet, pt, idx, params):
    """Apply one ladder operator to a jet of function data at a point.

    Operators whose coefficients contain 1/(1-x) raise on the line x = 1;
    everything else is polynomial in (x, y) and evaluates anywhere.
    """
    idx.validate()
    x = np.asarray(pt.x, dtype=float)
    y = np.asarray(pt.y, dtype=float)
    return _pointwise(lid, idx.n, idx.k, params, x, y, jet.u, jet.ux, jet.uy)


class CompositionId(enum.Enum):
    """The thirteen composed identities recoverable from ladder chains."""

    DX_IDENTITY = "dx"
    DZ_IDENTITY = "dz"
    WDX_IDENTITY = "wdx"
    WDY_IDENTITY = "wdy"
    WDZ_IDENTITY = "wdz"
    CONV_A = "conv_a"
    CONV_B = "conv_b"
    CONV_C = "conv_c"
    MULT_X = "mult_x"
    MULT_Y = "mult_y"
    MULT_Z = "mult_z"
    EIG_K = "eig_k"
    EIG_N = "eig_n"


# identities derived under the d = 0 restriction
_NEEDS_D0 = {
    CompositionId.DX_IDENTITY,
    CompositionId.DZ_IDENTITY,
    CompositionId.WDX_IDENTITY,
    CompositionId.WDZ_IDENTITY,
    CompositionId.EIG_N,
}


def _core_rows(x, y):
    """Row evaluator from single-element evaluations (zero rows out of range)."""

    def ev(n, k, p, partials="xy"):
        jets = [_tri_core(int(i), int(j), p, x, y, partials=True) for i, j in zip(n.ravel(), k.ravel())]
        return tuple(np.stack(rows) for rows in zip(*jets))[: 3 if partials else 1]

    return ev


def _in_range(n, k):
    return (n >= 0) & (k >= 0) & (k <= n)


def _y(s, dagger=False):
    return LadderId("y", s, dagger)


def _x(s, dagger=False):
    return LadderId("x", s, dagger)


def _chain_move(outer, inner):
    """Net move (dn, dk, da, db, dc, dd) of the chain term outer(inner(.)); inner None is outer alone."""
    return tuple(sum(d) for d in zip(*(_entry(lid).move for lid in (outer, inner) if lid is not None)))


def _chain_factor(outer, inner, n, k, params):
    """Factor of the chain term outer(inner(P_{n,k})): the product of its ladder factors."""
    if inner is None:
        return _entry(outer).factor(n, k, params)
    f, n, k, params = _step(inner, n, k, params)
    return f * _entry(outer).factor(n, k, params)


def _ladder_gradient(n, k, params):
    """Gradient of P_{n,k} as ladder-step data: lists of (coef, n', k', params').

    u_x is the DX_IDENTITY chain divided by 2k + b + c + 1, u_y the y1 ladder
    (d = 0).  Also returns the mask of (n, k) where that divisor vanishes;
    coefficients there are finite filler.  The targets are shifts of params,
    so params may hold arrays.
    """
    den = 2 * k + params.b + params.c + 1
    degenerate = np.abs(den) < 1e-9
    den = np.where(degenerate, 1.0, den)
    gx = []
    for sign, outer, inner in _CHAINS[CompositionId.DX_IDENTITY]:
        dn, dk, *shift = _chain_move(outer, inner)
        f = _chain_factor(outer, inner, n, k, params)
        gx.append((sign * f / den, n + dn, k + dk, params.shifted(*shift)))
    return gx, [_step(_y(1), n, k, params)], degenerate


# Ladder side of the chain identities: (sign, outer, inner) terms summed in
# order, where inner None applies the outer operator to the element itself.
_CHAINS = {
    CompositionId.DX_IDENTITY: ((1, _x(1), _y(2)), (1, _y(4, True), _x(6, True))),
    CompositionId.DZ_IDENTITY: ((1, _x(1), _y(3)), (-1, _y(5, True), _x(6, True))),
    CompositionId.WDX_IDENTITY: ((1, _y(2, True), _x(1, True)), (1, _y(4), _x(6))),
    CompositionId.WDY_IDENTITY: ((1, _y(1, True), None),),
    CompositionId.WDZ_IDENTITY: ((1, _y(3, True), _x(1, True)), (-1, _y(5), _x(6))),
    CompositionId.CONV_A: ((1, _x(3), None), (1, _x(5), None)),
    CompositionId.CONV_B: (
        (1, _y(3), _x(2)), (-1, _y(3), _x(4, True)), (1, _y(5, True), _x(2, True)), (-1, _y(5, True), _x(4))
    ),
    CompositionId.CONV_C: (
        (1, _y(2), _x(2)), (-1, _y(2), _x(4, True)), (-1, _y(4, True), _x(2, True)), (1, _y(4, True), _x(4))
    ),
    CompositionId.MULT_X: ((1, _x(3, True), None), (1, _x(5, True), None)),
    CompositionId.MULT_Y: (
        (1, _y(3, True), _x(2, True)), (-1, _y(3, True), _x(4)), (1, _y(5), _x(2)), (-1, _y(5), _x(4, True))
    ),
    CompositionId.MULT_Z: (
        (1, _y(2, True), _x(2, True)), (-1, _y(2, True), _x(4)), (1, _y(4), _x(4, True)), (-1, _y(4), _x(2))
    ),
    CompositionId.EIG_K: ((-1, _y(1, True), _y(1)),),
}

# The partials that each axis's ladders read of an image: a y-ladder reads u and u_y only (_y_rule).
_IMAGE_PARTIALS = {"x": "xy", "y": "y"}

# Closed-form side of every identity, with D = 2k + b + c + 1 and E = 2n + t + 2.
_CLOSED = {
    CompositionId.DX_IDENTITY: lambda n, k, p, x, y, z, D, E, u, ux, uy: D * ux,
    CompositionId.DZ_IDENTITY: lambda n, k, p, x, y, z, D, E, u, ux, uy: -D * (uy - ux),
    CompositionId.WDX_IDENTITY:
        lambda n, k, p, x, y, z, D, E, u, ux, uy: D * ((p.c * x - p.a * z) * u - x * z * ux),
    CompositionId.WDY_IDENTITY:
        lambda n, k, p, x, y, z, D, E, u, ux, uy: (p.c * y - p.b * z) * u - y * z * uy,
    CompositionId.WDZ_IDENTITY:
        lambda n, k, p, x, y, z, D, E, u, ux, uy: D * ((p.b * x - p.a * y) * u + x * y * (uy - ux)),
    CompositionId.CONV_A: lambda n, k, p, x, y, z, D, E, u, ux, uy: E * u,
    CompositionId.CONV_B: lambda n, k, p, x, y, z, D, E, u, ux, uy: D * E * u,
    CompositionId.CONV_C: lambda n, k, p, x, y, z, D, E, u, ux, uy: D * E * u,
    CompositionId.MULT_X: lambda n, k, p, x, y, z, D, E, u, ux, uy: E * x * u,
    CompositionId.MULT_Y: lambda n, k, p, x, y, z, D, E, u, ux, uy: D * E * y * u,
    CompositionId.MULT_Z: lambda n, k, p, x, y, z, D, E, u, ux, uy: D * E * z * u,
    CompositionId.EIG_K: lambda n, k, p, x, y, z, D, E, u, ux, uy: -k * (k + p.b + p.c + 1) * u,
    CompositionId.EIG_N: lambda n, k, p, x, y, z, D, E, u, ux, uy: -n * (n + p.a + p.b + p.c + 2) * u,
}


def _chain_sum(terms, n, k, params, x, y, ev, jet):
    """Signed sum from 0 of outer(inner(P_{n,k})) terms, each inner taken via
    its index-space step and read with the partials outer reads; every sign
    counts, the first term's too.  0 +- the first term makes the sum, and
    each later term is added to it in place."""
    left = 0.0
    for sign, outer, inner in terms:
        if inner is None:
            term = _pointwise(outer, n, k, params, x, y, *jet)
        else:
            f, n1, k1, q = _step(inner, n, k, params)
            image = ev(np.where(f != 0.0, n1, -1), k1, q, _IMAGE_PARTIALS[outer.axis])
            for v in (v for v in image if v is not None):  # f times the target's rows, in place: ev returns new arrays
                v *= f
            term = _pointwise(outer, n1, k1, q, x, y, *image)
        if sign > 0:
            left += term
        else:
            left -= term
    return left


def _second_order_k(params, x, y, jets):
    """The y-eigen operator on the jets (u, ux, uy, uxx, uxy, uyy); it reads uy and uyy."""
    _, _, uy, _, _, uyy = jets
    b, c = params.b, params.c
    return (1.0 - x - y) * y * uyy + ((1.0 + b) * (1.0 - x) - (2.0 + b + c) * y) * uy


def _second_order_n(params, x, y, jets):
    """The degree-eigen operator on the jets (u, ux, uy, uxx, uxy, uyy)."""
    _, ux, uy, uxx, uxy, uyy = jets
    a, b, c = params.a, params.b, params.c
    t = a + b + c + 3.0
    return (
        x * (1.0 - x) * uxx
        - 2.0 * x * y * uxy
        + y * (1.0 - y) * uyy
        + (a + 1.0 - t * x) * ux
        + (b + 1.0 - t * y) * uy
    )


def _eig_n_left(n, k, params, x, y, ev):
    """Degree-eigen operator applied through the gradient expansions, plus the degenerate mask."""
    gx, gy, degenerate = _ladder_gradient(n, k, params)
    dux = reduce(operator.iadd, (cf * ev(n1, k1, p1, "")[0] for cf, n1, k1, p1 in gx), 0)
    duy = reduce(operator.iadd, (cf * ev(n1, k1, p1, "")[0] for cf, n1, k1, p1 in gy), 0)
    duxx = duxy = duyy = 0.0
    for cf, n1, k1, p1 in gx:
        g2x, g2y, deg = _ladder_gradient(n1, k1, p1)
        degenerate = degenerate | deg & _in_range(n1, k1)
        duxx += cf * reduce(operator.iadd, (c2 * ev(n2, k2, p2, "")[0] for c2, n2, k2, p2 in g2x), 0)
        duxy += cf * reduce(operator.iadd, (c2 * ev(n2, k2, p2, "")[0] for c2, n2, k2, p2 in g2y), 0)
    for cf, n1, k1, p1 in gy:
        _, g2y, deg = _ladder_gradient(n1, k1, p1)
        degenerate = degenerate | deg & _in_range(n1, k1)
        duyy += cf * reduce(operator.iadd, (c2 * ev(n2, k2, p2, "")[0] for c2, n2, k2, p2 in g2y), 0)
    return _second_order_n(params, x, y, (None, dux, duy, duxx, duxy, duyy)), degenerate


def _composition_families(cid, params):
    """The parameter families whose tables `_composition` reads for one identity.

    Returns (family, partials) pairs, params first with partials "xy", each
    family with the partials that `ev` reads it with.  params may hold
    arrays.
    """
    if cid is CompositionId.EIG_N:
        gx, gy, _ = _ladder_gradient(0, 0, params)
        first = [p1 for _, _, _, p1 in gx + gy]
        second = [p2 for p1 in first for g in _ladder_gradient(0, 0, p1)[:2] for _, _, _, p2 in g]
        return [(params, "xy")] + [(q, "") for q in first + second]
    images = [(inner, _IMAGE_PARTIALS[outer.axis]) for _, outer, inner in _CHAINS[cid] if inner is not None]
    return [(params, "xy")] + [(_step(inner, 0, 0, params)[3], how) for inner, how in images]


def _composition(cid, n, k, params, x, y, ev, jet=None):
    """Both sides of one identity for every row of the index columns n, k.

    `ev(n, k, params, partials="xy")` returns the jet rows (u, ux, uy) of the
    elements at index arrays, zero rows out of range, as new arrays: (u,)
    for partials "", and ux may be None for "y"; jet may hold those of
    params at n, k already.
    params may hold arrays that broadcast against the index columns, as x
    and y do.  Returns (left, right, degenerate), where degenerate, shaped as
    left, marks the samples whose gradient expansion divides by zero (their
    sides are meaningless).
    """
    jet = ev(n, k, params) if jet is None else jet
    degenerate = np.zeros(np.shape(n), dtype=bool)
    if cid is CompositionId.EIG_N:
        left, degenerate = _eig_n_left(n, k, params, x, y, ev)
    else:
        left = _chain_sum(_CHAINS[cid], n, k, params, x, y, ev, jet)
    D = 2 * k + params.b + params.c + 1
    E = 2 * n + params.t + 2
    right = _CLOSED[cid](n, k, params, x, y, 1.0 - x - y, D, E, *jet)
    return left, right, np.broadcast_to(degenerate, left.shape)


def composition_residual(cid, idx, params, pt):
    """Evaluate both sides of a composed ladder identity at a point.

    Parameters
    ----------
    cid : CompositionId
    idx : TriIndex
    params : TriParams
        Must be valid; identities derived under d = 0 reject other d.
    pt : TriPoint
        Coordinates may be scalars or arrays.

    Returns
    -------
    (left, right)
        The composed-ladder side and the closed-form side; callers form
        |left - right| against max(1, |left|, |right|).
    """
    idx.validate()
    params.validate()
    if cid not in _CLOSED:
        raise ValueError(f"unknown composition id {cid!r}")
    if cid in _NEEDS_D0 and params.d != 0.0:
        raise ValueError(f"{cid.name} is a d = 0 identity, got d = {params.d}")
    x, y = np.broadcast_arrays(np.asarray(pt.x, dtype=float), np.asarray(pt.y, dtype=float))
    shape = x.shape
    x, y = x.ravel(), y.ravel()
    left, right, degenerate = _composition(cid, np.array([[idx.n]]), np.array([[idx.k]]), params, x, y, _core_rows(x, y))
    if degenerate.any():
        raise DegenerateParameterError(
            f"{cid.name} at (n, k) = ({idx.n}, {idx.k}): an x-derivative expansion divides by "
            f"2k+b+c+1 = 0 (b={params.b}, c={params.c})"
        )
    return left[0].reshape(shape)[()], right[0].reshape(shape)[()]

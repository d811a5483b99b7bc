"""Command line front end.

Subcommands: seeded verification sweeps with structured residual reports,
sparse-operator export, expansion of sampled or built-in functions, and the
diagonal coefficient-space solve for the operator the basis diagonalizes.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .jacobi import _LADDERS as _JACOBI_LADDERS, _shifted_table
from .koornwinder import (
    TriParams,
    TriIndex,
    TriPoint,
    _Factors,
    _move,
    _first_factors,
    _first_factor_param,
    _graded_indices,
    tri_eval,
    weight_eval,
)
from .ladders import (
    CompositionId,
    LadderId,
    _NEEDS_D0,
    _composition,
    _composition_families,
    _pointwise,
    _second_order_k,
    _second_order_n,
    _step,
    all_ladder_ids,
)
from .operators import (
    BasisTag,
    CoeffVec,
    OP_BUILDERS,
    apply_op,
    descriptor_text,
    matrix_market_text,
    to_dense,
)
from .transform import (
    analyze,
    coeffs_csv_text,
    duffy_rule,
    load_coeffs_csv,
    load_values_csv,
    synthesize,
    values_csv_text,
)


class UsageError(Exception):
    """Bad command usage: unknown names, malformed input files."""


class ResonanceError(ValueError):
    """The shift lambda coincides with an operator eigenvalue."""


# Tolerance classes.  Every oracle is exact, so roundoff is all a check lets
# through: `exact` bounds each block that checks an identity of the paper, and
# `structure` the stencil counts and the partition of unity.  A suite passes
# under `exact`.  TRIKOORN_TOL_SCALE multiplies both.
TOLERANCES = {
    "exact": 1e-10,
    "structure": 1e-12,
}

SUITE_NAMES = ("jacobi", "ladders", "operators", "appendix", "eigen")

_JAC_GRID = (-0.5, 0.0, 0.5, 1.0, 2.5)
# name, lower end of the sampled interval, map to (0, 1), 2**e scale applied
_JAC_FAMILIES = (
    ("interval", -1.0, lambda X: 0.5 * (X + 1.0), True),
    ("shifted", 0.0, lambda x: x, False),
)
_TRI_GRID = (-0.5, 0.0, 0.5, 1.5)
# parameter sets per chunk of the ladders sweep, half of the 16 consecutive
# sets that share (a, b). Memory bounds the chunk, not time: the suite peaks
# at about 2.35 MB, in a chunk's a - 1 first-factor build, which sets
# verify's peak RSS, while a chunk of 16 peaks at 4.4 MB and still takes
# about 8-13% less time than one of 8
_LADDER_CHUNK = 8
# sets with d = 0 per run of the d = 0 identities, which read 11 families
# with partials or for values: 8 of them peak at 2.30 MB, below a chunk of
# 8, and take about 8% less time than 4
_D0_BATCH = 8
# parameter sets per chunk of the appendix sweep, whose time follows its
# number of kernel calls: a chunk holds about 0.04 MB per set at its peak, so
# 32 sets stay below the ladders sweep's peak (1.3 MB against 2.4 MB), which
# sets verify's peak RSS, and 64 would not (2.6 MB)
_LINK_CHUNK = 32

_OPERATOR_PARAM_SETS = (
    TriParams(0.0, 0.0, 0.0),
    TriParams(1.0, 1.0, 1.0),
    TriParams(0.5, 1.5, 2.5),
)
# the operator sweep's degree bound, points per parameter set, and random
# coefficient vectors per operator
_OPERATOR_N = 8
_OPERATOR_NPTS = 30
_OPERATOR_TRIALS = 2


def _tol_scale():
    raw = os.environ.get("TRIKOORN_TOL_SCALE", "1")
    try:
        scale = float(raw)
    except ValueError:
        raise UsageError(f"TRIKOORN_TOL_SCALE must be a real number, got {raw!r}")
    if not (math.isfinite(scale) and scale > 0):
        raise UsageError(f"TRIKOORN_TOL_SCALE must be a finite positive number, got {raw!r}")
    return scale


@dataclass
class SweepBlock:
    """One homogeneous batch of checks: a residual max under a single tolerance class."""

    name: str
    tol_class: str
    cases: int
    skipped: int
    max_residual: float
    worst_case: dict


class _Worst:
    """Tracks the largest scaled residual and the case that produced it.

    A non-finite residual is recorded as inf, so it fails every tolerance.
    """

    def __init__(self):
        self.value = 0.0
        self.case = {}
        self.cases = 0
        self.skipped = 0

    def update(self, resid, case):
        self.cases += 1
        r = float(resid)
        if not math.isfinite(r):
            r = math.inf
        if r > self.value:
            self.value = r
            self.case = case

    def update_max(self, r, j, case_of):
        """update() with each row residual r[i], largest at point j[i], in turn."""
        if r.size:
            i = int(np.argmax(r))
            self.cases += r.size - 1
            self.update(r[i], case_of(i, int(j[i])))

    def skip(self, count=1):
        self.skipped += int(count)

    def block(self, name, tol_class):
        return SweepBlock(name, tol_class, self.cases, self.skipped, self.value, self.case)


def _interior_points(rng, npts):
    """Sample points strictly inside the triangle, away from all three edges.

    Each draw takes as many (x, y) pairs as are still wanted, so rng is left
    where a pair-at-a-time loop leaves it, and one call for the points of
    several sets draws what one call per set draws.
    """
    xs, ys = np.empty(0), np.empty(0)
    while xs.size < npts:
        x, y = rng.uniform(0.05, 0.90, (npts - xs.size, 2)).T
        inside = 1.0 - x - y >= 0.05
        xs, ys = np.append(xs, x[inside]), np.append(ys, y[inside])
    return xs, ys


def _scaled_residual(lhs, rhs):
    """Max over the last axis of |lhs - rhs| / max(1, |lhs|, |rhs|), plus the first argmax.

    Rows of 2-D input reduce separately.  A NaN residual counts as inf, so a
    finite residual elsewhere cannot hide it.
    """
    lhs, rhs = np.asarray(lhs, dtype=float), np.asarray(rhs, dtype=float)
    shape = np.broadcast(lhs, rhs).shape or (1,)  # at least 1-D
    den, rvec = np.abs(lhs, out=np.empty(shape)), np.abs(rhs, out=np.empty(shape))
    np.maximum(den, rvec, out=den)  # two full-size arrays: every pass after these is in place
    np.abs(np.subtract(lhs, rhs, out=rvec), out=rvec)
    rvec /= np.maximum(den, 1.0, out=den)
    j = np.argmax(rvec, axis=-1)
    r = np.take_along_axis(rvec, j[..., None], -1)[..., 0]
    if np.isnan(r).any():  # argmax finds NaN first; count it as inf
        rvec[np.isnan(rvec)] = np.inf
        j = np.argmax(rvec, axis=-1)
        r = np.take_along_axis(rvec, j[..., None], -1)[..., 0]
    return r, j


def _at_minus_one(q):
    return (q.a == -1.0) | (q.b == -1.0) | (q.c == -1.0) | (q.d == -1.0)


def _reduce(acc, r, j, keep, names, sets, n, k, x, y):
    """update_max() with the kept rows of residual maxima r at points j, (set, operator, row) arrays, in order."""
    flat = np.flatnonzero(keep)

    def case(i, jj):
        s, o, row = np.unravel_index(flat[i], keep.shape)
        pa, pb, pc, pd = sets[s]
        where = {"x": float(x[s, 0, jj]), "y": float(y[s, 0, jj])}
        return {"id": names[o], "n": int(n[row, 0]), "k": int(k[row, 0]), "a": pa, "b": pb, "c": pc, "d": pd, **where}

    acc.update_max(r.reshape(-1)[flat], j.reshape(-1)[flat], case)


# ---------------------------------------------------------------------------
# verification sweeps
# ---------------------------------------------------------------------------


def sweep_jacobi_ladders(seed, nmax=20, npts=50):
    """Both one-variable ladder families, every relation, a 5x5 parameter grid.

    Both families run off the one ladder table.  Per family, one table call
    builds the sources of all 25 parameter pairs, each pair at its own
    points, and one call per target shift (da, db) the targets of the
    operators that share it; each operator is evaluated once over every
    (pair, n, point), and rows are reduced in (pair, operator, n) order, so
    the reports equal those of a case-by-case loop.
    """
    pairs = list(itertools.product(_JAC_GRID, repeat=2))
    ops = list(_JACOBI_LADDERS.items())
    a, b = np.array(pairs).T
    n, P, pa, pb = np.arange(nmax + 1)[:, None], np.arange(len(pairs))[:, None], a[:, None, None], b[:, None, None]
    blocks = []
    for fam_i, (family, lo, to01, interval) in enumerate(_JAC_FAMILIES):
        X = np.random.default_rng([seed, 10 + fam_i]).uniform(lo, 1.0, (len(pairs), npts))  # pair after pair
        x = to01(X)
        u, du = _shifted_table(nmax, a, b, x, nderiv=1)
        r, j = np.empty((len(pairs), len(ops), nmax + 1)), np.empty((len(pairs), len(ops), nmax + 1), int)
        for da, db in dict.fromkeys(op.move[1:] for _, op in ops):  # the distinct target shifts in turn
            tgt = _shifted_table(nmax + 1, a + da, b + db, x)[0]
            for o, (_, op) in enumerate(ops):
                if op.move[1:] != (da, db):  # another shift's operator
                    continue
                dn, scale = op.move[0], (2.0**op.e if interval else 1.0)
                f = scale * op.factor(n, pa, pb)
                lhs = scale * op.pointwise(n, pa, pb, x[:, None], u, du)
                live = (f != 0.0) & (n + dn >= 0)
                rhs = np.where(live, f * tgt[P, np.where(live, n + dn, 0)[..., 0]], 0.0)
                r[:, o], j[:, o] = _scaled_residual(lhs, rhs)

        def case(i, jj):
            p, o, row = np.unravel_index(i, r.shape)
            (s, dagger), (a_, b_) = ops[o][0], pairs[p]
            return {"s": s, "dagger": dagger, "n": int(row), "a": a_, "b": b_, "x": float(X[p, jj])}

        acc = _Worst()
        acc.update_max(r.reshape(-1), j.reshape(-1), case)
        blocks.append(acc.block(f"{family}_ladders", "exact"))
    return blocks


def sweep_triangle_ladders(seed, nmax=10, npts=20):
    """All triangle ladder relations and their compositions on a 4-value grid.

    The parameter sets run in chunks of _LADDER_CHUNK consecutive sets, on a
    leading set axis, each at its own points, and each operator and identity
    is evaluated once per chunk, over every set and every (n, k) with n <=
    nmax.  Every family is read from factor tables that families share
    (koornwinder._Factors): each y-ladder target reads the params' first
    factors, each x-ladder target their second factors.  A chunk builds, one
    kernel call per kind, the first factors that keep a, and all second
    factors, which serve the identities and the ladders onto them; then the
    first factors with a + 1, then with a - 1, each dropping the last.  A
    first factor gets x-derivatives only where some term reads u_x of its
    family: the images that only y-ladders read are read as (u, u_y).  The d
    = 0 identities run apart, on _D0_BATCH sets with d = 0 at a time, just
    before the first chunk that holds them, and their rows join that
    chunk's.  Rows are reduced in (set, operator, n, k) order, so the
    reports equal those of a case-by-case loop.
    """
    rng = np.random.default_rng([seed, 20])
    accA = _Worst()
    accB = _Worst()
    ids = all_ladder_ids()
    n, k = (v[:, None] for v in _graded_indices(nmax))
    grid = list(itertools.product(_TRI_GRID, repeat=4))
    pts = np.stack(_interior_points(rng, len(grid) * npts)).reshape(2, len(grid), 1, npts)
    P = TriParams(*np.array(grid).T[:, :, None, None])
    every, d0 = np.ones(len(grid), bool), P.d[:, 0, 0] == 0.0
    cids = [[cid for cid in CompositionId if (cid in _NEEDS_D0) == on] for on in (False, True)]
    # every family read, in every set, with partials or not: the d = 0
    # identities hold on the sets with d = 0 only, and ladder targets with a
    # parameter of exactly -1 are skipped, so not built
    targets = [_step(lid, 0, 0, P)[3] for lid in ids]
    reads = [
        [(q, on, how) for cid in cs for q, how in _composition_families(cid, P)] for cs, on in zip(cids, (every, d0))
    ]
    reads[0] += [(q, ~_at_minus_one(q).ravel(), "") for q in targets]
    plans = [_Factors.plan(r, P) for r in reads]
    a_move = [_move(q, P)[0] for q in targets]
    d0sets, pending = np.flatnonzero(d0), {}
    del targets, reads

    def tables(sel, first, second):
        """The tables of the plans first and second at the sets sel, and the sets' params and points."""
        params = TriParams(*(v[sel] for v in (P.a, P.b, P.c, P.d)))
        x, y = pts[:, sel]
        tabs = _Factors(nmax + 1, params, x[:, 0], y[:, 0])
        tabs.build(*({key: (w[sel], p) for key, (w, p) in plan.items()} for plan in (first, second)))
        return tabs, params, x, y

    def identities(cids, tabs, params, x, y):
        """Residual maxima r at points j of identities cids, (set, identity, row), the rows kept, and the params' jets."""
        jet = tabs(n, k, params)
        shape = (len(x), len(cids), n.size)
        r, j, keep = np.zeros(shape), np.zeros(shape, int), np.zeros(shape, bool)
        for c, cid in enumerate(cids):
            L, R, degenerate = _composition(cid, n, k, params, x, y, tabs, jet)
            r[:, c], j[:, c] = _scaled_residual(L, R)
            del L, R
            keep[:, c] = ~degenerate[..., 0]
            accB.skip(degenerate[..., 0].sum())
        return r, j, keep, jet

    def chunk(sel):
        """The identities, then the ladders, on the consecutive sets sel, reduced into accB and accA."""
        sets = grid[sel[0] : sel[-1] + 1]
        shape = (sel.size, len(cids[1]), n.size)
        held = np.zeros(shape), np.zeros(shape, int), np.zeros(shape, bool)
        for s in sel[d0[sel]]:
            if s not in pending:  # the d = 0 identities on the next _D0_BATCH sets with d = 0, from s on
                batch = d0sets[np.searchsorted(d0sets, s) :][:_D0_BATCH]
                pending.update(zip(batch.tolist(), zip(*identities(cids[1], *tables(batch, *plans[1]))[:3])))
            for out, v in zip(held, pending.pop(s)):
                out[s - sel[0]] = v
        first, second = plans[0]
        tabs, params, x, y = tables(sel, {key: v for key, v in first.items() if key[0] == 0}, second)
        *rows, jet = identities(cids[0], tabs, params, x, y)
        rows = (np.concatenate(v, 1) for v in zip(rows, held))
        _reduce(accB, *rows, [cid.name for cid in cids[0] + cids[1]], sets, n, k, x, y)
        shape = (sel.size, len(ids), n.size)
        r, j, keep = np.zeros(shape), np.zeros(shape, np.min_scalar_type(npts - 1)), np.zeros(shape, bool)
        for da in (0, 1, -1):  # the ladders onto first factors of each move of a in turn
            if da:
                tabs.build({key: (w[sel], p) for key, (w, p) in first.items() if key[0] == da})
            for i in (i for i in range(len(ids)) if a_move[i] == da):
                f, n1, k1, q = _step(ids[i], n, k, params)
                lhs = _pointwise(ids[i], n, k, params, x, y, *jet)
                # at a parameter of exactly -1 the target normalization degenerates;
                # those samples are logged and skipped.  Anywhere else both sides are
                # polynomial in the parameters, so the relation is asserted even
                # outside the integrable family
                skip = (f != 0.0) & _at_minus_one(q)
                (v,) = tabs(np.where((f != 0.0) & ~skip, n1, -1), k1, q, partials="")
                r[:, i], j[:, i] = _scaled_residual(lhs, f * v)
                keep[:, i] = ~skip[..., 0]
        accA.skip(keep.size - np.count_nonzero(keep))
        _reduce(accA, r, j, keep, [lid.label for lid in ids], sets, n, k, x, y)

    for lo in range(0, len(grid), _LADDER_CHUNK):
        chunk(np.arange(lo, min(lo + _LADDER_CHUNK, len(grid))))
    return [
        accA.block("triangle_ladders", "exact"),
        accB.block("composition_identities", "exact"),
    ]


def sweep_product_links(seed, nmax=10, npts=10):
    """Product-form cross-checks of the basis against its one-variable factors.

    These are the two routes of jjp_residual and jpj_residual, with their
    expressions, over every (n, k) with n <= nmax at once.  The parameter
    sets run in chunks of _LINK_CHUNK consecutive sets, on a leading set
    axis, each at its own points.  Per chunk the right routes read the jets
    of the params from their factor tables (koornwinder._Factors); the left
    routes read, built independently of them, the first
    factors at (A_k, a) and (A_k + 1, a + 1) and the second factors at
    (c, b) and (c + 1, b + 1) at tau = y/(1-x), one kernel call each.  Each
    array is dropped after its last use and each link reduced on its own,
    so a chunk holds about 0.04 MB per set at its peak.  Rows are reduced
    in (set, n, k, link) order, so the report equals that of a case-by-case
    loop.
    """
    rng = np.random.default_rng([seed, 40])
    acc = _Worst()
    n, k = (v[:, None] for v in _graded_indices(nmax))
    kr = k[:, 0]
    # the rows with n > k, and the rows (n - 1, k) of the (A_k + 1, a + 1)
    # first factors that their derivatives take
    lower = np.flatnonzero(n > k)
    below = (n * (n - 1) // 2 + k)[lower, 0]
    links = ("jjp", "jpj")
    grid = list(itertools.product(_TRI_GRID, repeat=4))
    pts = np.stack(_interior_points(rng, len(grid) * npts)).reshape(2, len(grid), npts)
    for lo in range(0, len(grid), _LINK_CHUNK):
        sets = grid[lo : lo + _LINK_CHUNK]
        x, y = pts[:, lo : lo + len(sets)]
        pa, pb, pc, pd = np.array(sets).T[:, :, None]
        P = TriParams(pa[..., None], pb[..., None], pc[..., None], pd[..., None])
        s = 1.0 - x
        u, ux, uy = _Factors.over(nmax, P, x, y, [P])(n, k, P)
        R_jjp, R_jpj = s[:, None] * uy, k * u  # the right routes, R_jpj formed in place
        R_jpj += s[:, None] * ux
        R_jpj -= y[:, None] * uy
        del u, ux, uy
        tau = y / s
        A = _first_factor_param(np.arange(nmax + 1), TriParams(pa, pb, pc, pd))
        # integer powers as the per-case routes take them, one per k
        pw = np.stack([s**j for j in range(nmax + 2)], axis=1)
        G = _shifted_table(nmax, pc, pb, tau)[0]
        dG = np.zeros_like(G)
        G1 = _shifted_table(nmax - 1, pc + 1, pb + 1, tau)[0]
        dG[:, 1:] = (np.arange(1, nmax + 1)[:, None] + pc[:, None] + pb[:, None] + 1) * G1
        (F,) = _first_factors(nmax, A, pa[:, 0], x)
        L = F * pw[:, kr] * dG[:, kr]
        del F, dG
        r, j = np.empty((len(sets), 2 * n.size)), np.empty((len(sets), 2 * n.size), int)
        r[:, 0::2], j[:, 0::2] = _scaled_residual(L, R_jjp)
        del L, R_jjp
        (F1,) = _first_factors(nmax - 1, A[:, :nmax] + 1, pa[:, 0] + 1, x)
        dF = np.zeros_like(R_jpj)
        dF[:, lower] = (n - k + A[:, k] + pa[:, None] + 1)[:, lower] * F1[:, below]
        L = dF * pw[:, kr + 1] * G[:, kr]
        r[:, 1::2], j[:, 1::2] = _scaled_residual(L, R_jpj)
        del F1, dF, G, L, R_jpj

        def case(i, jj):
            q, row = divmod(i, r.shape[1])
            where = dict(zip("abcd", sets[q]), x=float(x[q, jj]), y=float(y[q, jj]))
            return {"id": links[row % 2], "n": int(n[row // 2, 0]), "k": int(kr[row // 2]), **where}

        acc.update_max(r.reshape(-1), j.reshape(-1), case)
    return [acc.block("product_links", "exact")]


def _synth_jets(vec, x, y, tables):
    """Exact value and first partials of the synthesized field.

    `tables` holds the (u, ux, uy) tables of every element of vec's basis at
    the points.  On a weighted basis the field is w p with w = x^a y^b z^c, so
    its x partial is w (p_x + p (a/x - c/z)) and its y partial
    w (p_y + p (b/y - c/z)); there the points must be interior.
    """
    u, ux, uy = (vec.values @ T for T in tables)
    if not vec.basis.weighted:
        return u, ux, uy
    p = vec.basis.params
    z = 1.0 - x - y
    w = weight_eval(p, TriPoint(x, y))
    return w * u, w * (ux + u * (p.a / x - p.c / z)), w * (uy + u * (p.b / y - p.c / z))


def _hessian_jets(N, params, x, y):
    """(u, ux, uy, uxx, uxy, uyy) of every element of degree <= N, exactly.

    Two ladders give the second partials from the jets of shifted families.
    y1 maps u_y to f P_{n-1,k-1} at (a, b+1, c+1, d), so that image's partials
    are u_xy and u_yy.  x5 maps n u + (1-x) u_x - y u_y to g P_{n-1,k} at
    (a+1, b, c, d); its x-partial, solved for u_xx, divides by 1 - x, so the
    points must lie off the line x = 1.

    The three families are read from one koornwinder._Factors: y1's image
    takes the params' first factors a column over, and x5's their second
    factors.  On parameters that are multiples of 1/2, as every CLI path
    uses, the jets are bit for bit those of three separate tables; elsewhere
    the shared read can move u_xy and u_yy in the last bits (about 2e-14
    relative at (0.3, 0.1, 0.2, 0)).
    """
    n, k = (v[:, None] for v in _graded_indices(N))
    P = TriParams(*np.array([params.a, params.b, params.c, params.d], float).reshape(4, 1, 1, 1))
    fy, ny, ky, qy = _step(LadderId("y", 1), n, k, P)
    fx, nx, kx, qx = _step(LadderId("x", 5), n, k, P)
    tabs = _Factors.over(N, P, x[None], y[None], (P, qy, qx))
    u, ux, uy = tabs(n, k, P)
    _, qy_x, qy_y = tabs(ny, ky, qy)
    _, qx_x, _ = tabs(nx, kx, qx)
    uxy = fy * qy_x
    uyy = fy * qy_y
    uxx = (fx * qx_x - (n - 1) * ux + y * uxy) / (1.0 - x)
    return tuple(v[0] for v in (u, ux, uy, uxx, uxy, uyy))


def _times(factor):
    """Reference of a conversion or multiplication: factor(x, y) times the field of vec."""
    return lambda vec, params, x, y, pts, hessian: factor(x, y) * synthesize(vec, pts)


def _partial(pick):
    """Reference of a differentiation: pick(u_x, u_y) of the field of vec, exactly."""

    def ref(vec, params, x, y, pts, hessian):
        _, ux, uy = _synth_jets(vec, x, y, hessian[:3])
        return pick(ux, uy)

    return ref


def _diagonal(expr):
    """Reference of a diagonal operator: its second-order expression on the jets of vec."""
    return lambda vec, params, x, y, pts, hessian: expr(params, x, y, [vec.values @ T for T in hessian])


_SAME, _X, _Y, _Z = map(_times, (lambda x, y: 1.0, lambda x, y: x, lambda x, y: y, lambda x, y: 1.0 - x - y))
_DX, _DY, _DZ = map(_partial, (lambda ux, uy: ux, lambda ux, uy: uy, lambda ux, uy: uy - ux))

# operator -> (block, pointwise reference of its image of a field, most
# nonzeros in one column of its matrix)
_OPERATOR_CHECKS = {
    "diff_x": ("derivative_equivalence", _DX, 2),
    "diff_y": ("derivative_equivalence", _DY, 1),
    "diff_z": ("derivative_equivalence", _DZ, 2),
    "weighted_diff_x": ("derivative_equivalence", _DX, 2),
    "weighted_diff_y": ("derivative_equivalence", _DY, 1),
    "weighted_diff_z": ("derivative_equivalence", _DZ, 2),
    "conv_a": ("exact_equivalence", _SAME, 2),
    "conv_b": ("exact_equivalence", _SAME, 4),
    "conv_c": ("exact_equivalence", _SAME, 4),
    "mult_x": ("exact_equivalence", _X, 2),
    "mult_y": ("exact_equivalence", _Y, 4),
    "mult_z": ("exact_equivalence", _Z, 4),
    "mult_same_x": ("exact_equivalence", _X, 3),
    "mult_same_y": ("exact_equivalence", _Y, 9),
    "mult_same_z": ("exact_equivalence", _Z, 9),
    "eigen_k": ("second_order_equivalence", _diagonal(_second_order_k), 1),
    "eigen_n": ("second_order_equivalence", _diagonal(_second_order_n), 1),
}


def sweep_operator_equivalence(seed):
    """Every coefficient-space builder against its pointwise meaning.

    Each builder's row of `_OPERATOR_CHECKS` names its block and its exact
    reference: conversion and multiplication scale the synthesized field,
    differentiation takes its exact partials, and the diagonal operators
    their second-order pointwise expressions, with the exact second partials
    of `_hessian_jets`; structure checks cover stencil counts and the
    coordinate partition of unity.
    """
    rng = np.random.default_rng([seed, 30])
    accs = {name: _Worst() for name in ("exact_equivalence", "derivative_equivalence", "second_order_equivalence")}
    acc_struct = _Worst()
    N = _OPERATOR_N
    for params in _OPERATOR_PARAM_SETS:
        x, y = _interior_points(rng, _OPERATOR_NPTS)
        pts = np.column_stack([x, y])
        pset = {"a": params.a, "b": params.b, "c": params.c}
        hessian = _hessian_jets(N, params, x, y)
        built = {}
        for name, builder in OP_BUILDERS.items():
            block, reference, bound = _OPERATOR_CHECKS[name]
            acc = accs[block]
            try:
                op = built[name] = builder(N, params)
            except ValueError:
                acc.skip()
                acc_struct.skip()
                continue
            col_ok = op.nnz == 0 or int(np.max(op.column_nnz())) <= bound
            acc_struct.update(0.0 if col_ok else 1.0, {"id": name, "check": "column_bound", **pset})
            for trial in range(_OPERATOR_TRIALS):
                v = rng.standard_normal(op.domain.size)
                vec = CoeffVec(op.domain, v)
                rhs = synthesize(apply_op(op, vec), pts)
                r, j = _scaled_residual(reference(vec, params, x, y, pts, hessian), rhs)
                acc.update(r, {"id": name, "trial": trial, **pset, "x": float(x[j]), "y": float(y[j])})
        count_ok = built["diff_y"].nnz == N * (N + 1) // 2
        acc_struct.update(0.0 if count_ok else 1.0, {"id": "diff_y", "check": "nnz", **pset})
        if min(params.a, params.b, params.c) > 0.0:
            jx, jy, jz = (to_dense(built[f"mult_same_{e}"]) for e in "xyz")
            total = jx + jy + jz
            r = float(np.max(np.abs(total - np.eye(*total.shape))))
            acc_struct.update(r, {"id": "partition_of_unity", "check": "sum", **pset})
        else:
            acc_struct.skip()
    return [acc.block(name, "exact") for name, acc in accs.items()] + [acc_struct.block("structure", "structure")]


def _solve_coeffs(fc, lam):
    """Divide coefficients by (lambda - mu_n), every mode at once.

    A resonant mode (lambda within 1e-12 of its eigenvalue) raises, naming
    the first excited degree, unless the right-hand side does not excite it,
    in which case its coefficients are set to zero and the kernel-orthogonal
    particular solution is returned.
    """
    p = fc.basis.params
    n = _graded_indices(fc.basis.maxdeg)[0]
    mu = -n * (n + p.a + p.b + p.c + 2.0)
    resonant = np.abs(lam - mu) < 1e-12 * max(1.0, abs(lam))
    negligible = 1e-12 * max(1.0, float(np.max(np.abs(fc.values))))
    excited = np.flatnonzero(resonant & (np.abs(fc.values) > negligible))
    if excited.size:
        i = excited[0]
        raise ResonanceError(f"lambda = {lam!r} is resonant with the eigenvalue {float(mu[i])!r} at n = {n[i]}")
    out = np.zeros_like(fc.values)
    np.divide(fc.values, lam - mu, out=out, where=~resonant)
    return CoeffVec(fc.basis, out)


def sweep_eigen(seed, nmax=6, npts=20):
    """Diagonal operators against their pointwise second-order expressions.

    Covers every basis element up to the degree bound for both operators,
    all at once from the exact `_hessian_jets` of each parameter set, with
    rows reduced in (n, k, operator) order as a case-by-case loop would;
    then three shifted solves whose synthesized solutions are checked
    against the right-hand side through the same pointwise expression.
    """
    rng = np.random.default_rng([seed, 50])
    acc_pt = _Worst()
    n, k = (v[:, None] for v in _graded_indices(nmax))
    for params in _OPERATOR_PARAM_SETS:
        x, y = _interior_points(rng, npts)
        a, b, c = params.a, params.b, params.c
        pset = {"a": a, "b": b, "c": c}
        jets = _hessian_jets(nmax, params, x, y)
        u = jets[0]
        L = np.empty((2 * n.size, npts))
        R = np.empty_like(L)
        L[0::2] = _second_order_k(params, x, y, jets)
        R[0::2] = -k * (k + b + c + 1.0) * u
        L[1::2] = _second_order_n(params, x, y, jets)
        R[1::2] = -n * (n + a + b + c + 2.0) * u
        acc_pt.update_max(
            *_scaled_residual(L, R),
            lambda i, j: {
                "id": ("eigen_k", "eigen_n")[i % 2],
                "n": int(n[i // 2, 0]),
                "k": int(k[i // 2, 0]),
                **pset,
                "x": float(x[j]),
                "y": float(y[j]),
            },
        )
    acc_solve = _Worst()
    solve_cases = (
        (_OPERATOR_PARAM_SETS[0], 1.0, "one"),
        (_OPERATOR_PARAM_SETS[1], -3.3, "runge"),
        (_OPERATOR_PARAM_SETS[2], 12.25, "x"),
    )
    N = 8
    for params, lam, fname in solve_cases:
        f = resolve_builtin(fname, params)
        fc = analyze(f, N, params)
        u = _solve_coeffs(fc, lam)
        x, y = _interior_points(rng, npts)
        jets = [u.values @ T for T in _hessian_jets(N, params, x, y)]
        lhs = lam * jets[0] - _second_order_n(params, x, y, jets)
        rhs = synthesize(fc, np.column_stack([x, y]))
        r, j = _scaled_residual(lhs, rhs)
        acc_solve.update(
            r,
            {
                "id": "solve",
                "lambda": lam,
                "rhs": fname,
                "a": params.a,
                "b": params.b,
                "c": params.c,
                "x": float(x[j]),
                "y": float(y[j]),
            },
        )
    return [acc_pt.block("second_order_pointwise", "exact"), acc_solve.block("solve_residual", "exact")]


_SUITE_FUNCS = {
    "jacobi": sweep_jacobi_ladders,
    "ladders": sweep_triangle_ladders,
    "operators": sweep_operator_equivalence,
    "appendix": sweep_product_links,
    "eigen": sweep_eigen,
}


def run_suite(name, seed, scale=1.0):
    """Run one named suite: its report entry, its blocks merged under `exact` and each block listed.

    A `structure` block is folded in with its residual scaled up by the class
    ratio, so the merged pass flag is equivalent to every block passing its
    own class tolerance, each multiplied by scale.  Of blocks with equal
    scaled residuals, the first names the worst case.
    """
    blocks = _SUITE_FUNCS[name](seed)
    scaled = [b.max_residual * (TOLERANCES["exact"] / TOLERANCES[b.tol_class]) for b in blocks]
    worst = int(np.argmax(scaled))
    tol = TOLERANCES["exact"] * scale
    return {
        "suite": name,
        "cases": sum(b.cases for b in blocks),
        "skipped": sum(b.skipped for b in blocks),
        "max_residual": scaled[worst],
        "worst_case": {"block": blocks[worst].name, **blocks[worst].worst_case},
        "tolerance": tol,
        "pass": scaled[worst] <= tol,
        "blocks": [
            {
                "name": b.name,
                "tolerance_class": b.tol_class,
                "tolerance": TOLERANCES[b.tol_class] * scale,
                "cases": b.cases,
                "skipped": b.skipped,
                "max_residual": b.max_residual,
                "worst_case": b.worst_case,
            }
            for b in blocks
        ],
    }


def _fmt_value(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _overall(reports):
    return "pass" if all(r["pass"] for r in reports) else "fail"


# the lines of a suite's entry in the text report, in order
_TEXT_FIELDS = ("suite", "seed", "cases", "skipped", "max_residual", "worst_case", "tolerance", "tolerance_scale", "pass")


def render_text(reports, seed, scale):
    lines = []
    for rep in reports:
        wc = ";".join(f"{k}={_fmt_value(v)}" for k, v in rep["worst_case"].items())
        rep = {**rep, "seed": seed, "worst_case": wc, "tolerance_scale": scale}
        lines += [f"{key}={_fmt_value(rep[key])}" for key in _TEXT_FIELDS] + [""]
    lines.append(f"overall={_overall(reports)}")
    return "\n".join(lines) + "\n"


def render_json(reports, seed, scale):
    payload = {"seed": seed, "tolerance_scale": scale, "overall": _overall(reports), "suites": reports}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# built-in functions
# ---------------------------------------------------------------------------


# built-in functions f(x, y) by id, in listing order; resolve_builtin parses poly:<n,k>
_BUILTINS = {
    "one": lambda x, y: np.ones_like(np.asarray(x, dtype=float)),
    "x": lambda x, y: np.asarray(x, dtype=float).copy(),
    "y": lambda x, y: np.asarray(y, dtype=float).copy(),
    "z": lambda x, y: 1.0 - np.asarray(x, dtype=float) - np.asarray(y, dtype=float),
    "poly:<n,k>": None,
    "runge": lambda x, y: 1.0 / (
        1.0 + 25.0 * ((np.asarray(x, dtype=float) - 1.0 / 3.0) ** 2 + (np.asarray(y, dtype=float) - 1.0 / 3.0) ** 2)
    ),
}


def resolve_builtin(name, params):
    """Map a built-in function id to a callable f(x, y) on coordinate arrays."""
    if name.startswith("poly:"):
        parts = name[len("poly:") :].split(",")
        if len(parts) != 2:
            raise UsageError(f"poly id must look like poly:<n,k>, got {name!r}")
        try:
            n, k = int(parts[0]), int(parts[1])
        except ValueError:
            raise UsageError(f"poly id must hold two integers, got {name!r}")
        if not 0 <= k <= n:
            raise UsageError(f"poly id needs 0 <= k <= n, got ({n}, {k})")
        idx = TriIndex(n, k)
        return lambda x, y: tri_eval(idx, params, TriPoint(np.asarray(x, dtype=float), np.asarray(y, dtype=float)))
    if name not in _BUILTINS:
        raise UsageError(f"unknown function id {name!r}; available: {', '.join(_BUILTINS)}")
    return _BUILTINS[name]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _emit(out, parts, sep=""):
    """Write each (suffix, text) part to out + suffix, or, with no out, every text joined by sep to stdout."""
    if not out:
        sys.stdout.write(sep.join(text for _, text in parts))
        return
    for suffix, text in parts:
        with open(out + suffix, "w") as fh:
            fh.write(text)


def cmd_verify(args):
    scale = _tol_scale()
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    reports = [run_suite(name, args.seed, scale) for name in names]
    _emit(args.out, [("", render_text(reports, args.seed, scale)), (".json", render_json(reports, args.seed, scale))])
    return 0 if _overall(reports) == "pass" else 1


def cmd_build_op(args):
    builder = OP_BUILDERS.get(args.name)
    if builder is None:
        known = " ".join(sorted(OP_BUILDERS))
        raise UsageError(f"unknown operator name {args.name!r}; available: {known}")
    op = builder(args.N, TriParams(args.a, args.b, args.c, 0.0))
    _emit(args.out, [("", matrix_market_text(op)), (".desc", descriptor_text(op))])
    return 0


def cmd_expand(args):
    params = TriParams(args.a, args.b, args.c, 0.0)
    m = args.m if args.m is not None else args.N + 1
    if m < args.N + 1:
        raise UsageError(f"--m {m} is below N + 1 = {args.N + 1}, so the rule cannot resolve every element")
    if args.emit_nodes:
        rule = duffy_rule(m, params)
        _emit(args.out, [("", values_csv_text(rule.points, np.zeros(rule.points.shape[0])))])
        return 0
    if args.values is not None:
        rule = duffy_rule(m, params)
        try:
            pts, vals = load_values_csv(args.values)
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot read sampled values from {args.values!r}: {exc}")
        if pts.shape != rule.points.shape or np.max(np.abs(pts - rule.points)) > 1e-9:
            raise UsageError(
                "sampled points do not match the quadrature nodes for this rule; "
                "generate them with --emit-nodes and fill in the value column"
            )
        data = vals
    else:
        data = resolve_builtin(args.name, params)
    _emit(args.out, [("", coeffs_csv_text(analyze(data, args.N, params, m)))])
    return 0


def _grid_points(g):
    """The barycentric grid (i/g, j/g), i + j <= g, i-major: the points `solve` writes."""
    i = np.repeat(np.arange(g + 1), np.arange(g + 1, 0, -1))
    j = np.arange(i.size) - (i * (2 * g + 3 - i)) // 2
    return np.column_stack([i / g, j / g])


def cmd_solve(args):
    params = TriParams(args.a, args.b, args.c, 0.0)
    builtin = args.rhs in _BUILTINS or args.rhs.startswith("poly:")
    if not builtin and (args.rhs.endswith(".csv") or os.path.exists(args.rhs)):
        try:
            fc = load_coeffs_csv(args.rhs, BasisTag(params, False, args.N))
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot read coefficients from {args.rhs!r}: {exc}")
    else:
        fc = analyze(resolve_builtin(args.rhs, params), args.N, params)
    u = _solve_coeffs(fc, args.lam)
    pts = _grid_points(args.grid)
    _emit(args.out, [("", coeffs_csv_text(u)), (".grid.csv", values_csv_text(pts, synthesize(u, pts)))], sep="\n")
    return 0


def cmd_info(args):
    scale = _tol_scale()
    lines = [
        f"trikoorn {__version__}",
        "suites: " + " ".join(SUITE_NAMES) + " all",
        "operators: " + " ".join(OP_BUILDERS),
        "compositions: " + " ".join(cid.name for cid in CompositionId),
        "builtins: " + " ".join(_BUILTINS),
        "tolerances: " + " ".join(f"{k}={v!r}" for k, v in TOLERANCES.items()),
        f"tolerance_scale={scale!r}",
        "exit_codes: 0=pass 1=verification-failure 2=usage-error 3=degeneracy",
    ]
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _checked(convert, ok, need):
    """argparse type: convert the text, then reject values failing `ok` as usage errors.

    The converter's name is kept so unparsable text still reads "invalid int value".
    """

    def parse(text):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{need}, got {text!r}")
        return value

    parse.__name__ = convert.__name__
    return parse


_NONNEGATIVE = _checked(int, lambda v: v >= 0, "must be a nonnegative integer")
_COUNT = _checked(int, lambda v: v >= 1, "must be a positive integer")
_FINITE = _checked(float, math.isfinite, "must be a finite number")
_COMMANDS = ("verify", "build-op", "expand", "solve", "info")


def _add_params(sp):
    sp.add_argument("--a", type=_FINITE, default=0.0)
    sp.add_argument("--b", type=_FINITE, default=0.0)
    sp.add_argument("--c", type=_FINITE, default=0.0)


def build_parser(command=None):
    """The full parser, or with a command's name one holding its subparser alone, whose texts read the same."""
    parser = argparse.ArgumentParser(
        prog="trikoorn",
        description="Orthogonal polynomial toolkit on the reference triangle.",
    )
    # a lone command's usage still lists all; the full parser's errors name argparse's default, "command"
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)

    if command in (None, "verify"):
        sp = sub.add_parser("verify", help="run seeded verification sweeps")
        sp.add_argument("--suite", choices=SUITE_NAMES + ("all",), default="all")
        sp.add_argument("--seed", type=_NONNEGATIVE, default=0)
        sp.add_argument("--out", default=None)
        sp.set_defaults(func=cmd_verify)

    if command in (None, "build-op"):
        sp = sub.add_parser("build-op", help="export a coefficient-space operator")
        sp.add_argument("--name", required=True)
        sp.add_argument("--N", type=_NONNEGATIVE, required=True)
        _add_params(sp)
        sp.add_argument("--out", default=None)
        sp.set_defaults(func=cmd_build_op)

    if command in (None, "expand"):
        sp = sub.add_parser("expand", help="expand a function in the basis")
        group = sp.add_mutually_exclusive_group(required=True)
        group.add_argument("--name", help="built-in function id")
        group.add_argument("--values", help="CSV of values sampled at the rule nodes")
        group.add_argument("--emit-nodes", action="store_true", help="write the rule nodes instead")
        sp.add_argument("--N", type=_NONNEGATIVE, required=True)
        _add_params(sp)
        sp.add_argument("--m", type=_COUNT, default=None, help="nodes per direction, default N+1")
        sp.add_argument("--out", default=None)
        sp.set_defaults(func=cmd_expand)

    if command in (None, "solve"):
        sp = sub.add_parser("solve", help="diagonal shifted solve in coefficient space")
        sp.add_argument("--lambda", dest="lam", type=_FINITE, required=True)
        sp.add_argument("--rhs", required=True, help="built-in id or coefficient CSV path")
        sp.add_argument("--N", type=_NONNEGATIVE, required=True)
        _add_params(sp)
        sp.add_argument("--grid", type=_COUNT, default=20, help="barycentric grid subdivisions")
        sp.add_argument("--out", default=None)
        sp.set_defaults(func=cmd_solve)

    if command in (None, "info"):
        sp = sub.add_parser("info", help="print version, names, and tolerances")
        sp.set_defaults(func=cmd_info)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code in (0, None):
            return 0
        return int(code)
    try:
        return args.func(args)
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a degree or grid too large for this machine
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

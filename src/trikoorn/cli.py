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
    _first_factors,
    _first_factor_param,
    _graded_indices,
    _tri_tables,
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
    _step,
    all_ladder_ids,
)
from .operators import (
    BasisTag,
    CoeffVec,
    OP_BUILDERS,
    apply_op,
    build_diff_y,
    build_eigen_k,
    build_eigen_n,
    build_mult_same_x,
    build_mult_same_y,
    build_mult_same_z,
    descriptor_text,
    matrix_market_text,
    save_matrix_market,
    to_dense,
)
from .transform import (
    analyze,
    coeffs_csv_text,
    duffy_rule,
    load_coeffs_csv,
    load_values_csv,
    save_coeffs_csv,
    save_values_csv,
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
# parameter sets per chunk of the ladders sweep, the 8 that share (a, b): a
# chunk holds about 0.35 MB per set at its peak, which adds to verify's peak
# RSS, and the time saved levels off past about 8
_LADDER_CHUNK = 8
# parameter sets per chunk of the appendix sweep: a chunk holds about 0.09 MB
# per set at its peak, so 16 sets hold half the ladders sweep's peak (1.5 MB
# against 2.9 MB), which sets verify's peak RSS
_LINK_CHUNK = 16

_OPERATOR_PARAM_SETS = (
    TriParams(0.0, 0.0, 0.0),
    TriParams(1.0, 1.0, 1.0),
    TriParams(0.5, 1.5, 2.5),
)


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


@dataclass
class VerificationReport:
    suite: str
    cases: int
    skipped: int
    max_residual: float
    worst_case: dict
    tolerance: float
    passed: bool


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

    def update_rows(self, lhs, rhs, case_of):
        """update() with each row of lhs against rhs in turn; case_of(i, j) names row i at point j."""
        self.update_max(*_scaled_residual(lhs, rhs), case_of)

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
    lhs = np.asarray(lhs, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    den = np.atleast_1d(np.maximum(np.abs(lhs), np.abs(rhs)))
    rvec = np.atleast_1d(lhs - rhs)
    np.abs(rvec, out=rvec)
    rvec /= np.maximum(den, 1.0, out=den)
    j = np.argmax(rvec, axis=-1)
    r = np.take_along_axis(rvec, j[..., None], -1)[..., 0]
    if np.isnan(r).any():  # argmax finds NaN first; count it as inf
        rvec[np.isnan(rvec)] = np.inf
        j = np.argmax(rvec, axis=-1)
        r = np.take_along_axis(rvec, j[..., None], -1)[..., 0]
    return r, j


def _rows(tabs, e, n, k):
    """Rows (n, k) of entry e of each stacked table in tabs, zero rows where k < 0 or k > n.

    e is an entry index, or an array of them, that broadcasts against the
    index arrays n and k; the rows take a last, point axis.
    """
    dead = (k < 0) | (k > n)
    if not dead.any():
        return tuple(T[e, n * (n + 1) // 2 + k] for T in tabs)
    rows = tuple(T[e, np.where(dead, 0, n * (n + 1) // 2 + k)] for T in tabs)
    dead = np.broadcast_to(dead, rows[0].shape[:-1])
    for row in rows:
        row[dead] = 0.0
    return rows


def _set_values(q, S):
    """(S, 4) parameters of a TriParams whose fields are scalars or hold one value per set on their first axis."""
    out = np.empty((S, 4))
    for i, v in enumerate((q.a, q.b, q.c, q.d)):
        out[:, i] = np.reshape(v, (S, -1))[:, 0] if np.ndim(v) else v
    return out


def _families(reads, S):
    """The distinct families among (q, need) pairs over S parameter sets.

    Returns their parameters in each set, (C, S, 4), the sets that read
    each, (C, S), the union over its pairs, and each pair's family.
    """
    V = np.stack([_set_values(q, S) for q, _ in reads])
    keys = [v.tobytes() for v in V]
    distinct = list(dict.fromkeys(keys))
    of = np.array([distinct.index(key) for key in keys])
    need = np.zeros((len(distinct), S), bool)
    np.logical_or.at(need, of, np.stack([np.broadcast_to(want, S) for _, want in reads]))
    return V[[keys.index(key) for key in distinct]], need, of


def _set_tables(N, x, y, *kinds):
    """The tables of the families that a chunk of S parameter sets reads, and their lookup.

    Each kind (V, need, partials) holds the parameters (C, S, 4) of C
    families in each set and the sets that read them, (C, S); one kernel
    call builds their tables, each at its set's points x[s], y[s] of shape
    (S, npts), with partials or for values only.  Returns
    ev(n, k, q, partials=True): the rows (u, ux, uy), or (u,), of the
    elements at index columns n, k of family q, one per set, shape
    (S, m, npts), zero rows out of range.
    """
    tables = {}
    for V, need, partials in kinds:
        c, s = need.nonzero()
        tabs = _tri_tables(N, [TriParams(*v) for v in V[c, s]], x[s], y[s], partials) if c.size else None
        tables[partials] = np.where(need[..., None], V, np.nan), np.cumsum(need).reshape(need.shape) - 1, tabs
    found = {}

    def ev(n, k, q, partials=True):
        key = (partials,) + tuple(np.asarray(v).tobytes() for v in (q.a, q.b, q.c, q.d))
        if key not in found:  # each set's entry of q, and the sets that have it
            V, slot, tabs = tables[partials]
            hit = (V == _set_values(q, V.shape[1])).all(-1)
            found[key] = slot[hit.argmax(0), np.arange(V.shape[1])], hit.any(0), tabs
        e, has, tabs = found[key]
        n, k = n[..., 0], k[..., 0]
        live = ((k >= 0) & (k <= n)).any(-1)
        if not live.any():
            return tuple(np.zeros((e.size, n.shape[-1], x.shape[-1])) for _ in range(3 if partials else 1))
        if (live & ~has).any():
            raise ValueError("a family read by the sweep was not built")
        return _rows(tabs[: 3 if partials else 1], e[:, None], n, k)

    return ev


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
    leading set axis, each at its own points, and each operator and each
    identity is evaluated once per chunk, over every set and every (n, k)
    with n <= nmax.  A chunk's tables come from a few
    kernel calls over all its sets, and each kind is dropped before the next
    is built: the families that the identities read, those that the d = 0
    identities read (on the sets with d = 0), then the ladder targets, seven
    families at a time.  Rows are reduced in (set, operator, n, k) order, so
    the reports equal those of a case-by-case loop.
    """
    rng = np.random.default_rng([seed, 20])
    accA = _Worst()
    accB = _Worst()
    ids = all_ladder_ids()
    n, k = (v[:, None] for v in _graded_indices(nmax))
    grid = list(itertools.product(_TRI_GRID, repeat=4))
    pts = np.stack(_interior_points(rng, len(grid) * npts)).reshape(2, len(grid), 1, npts)
    # every family read, in every set: the d = 0 identities hold on the sets
    # with d = 0 only, and ladder targets with a parameter of exactly -1 are
    # skipped, so not built
    P = TriParams(*np.array(grid).T)
    phases = []
    for d0 in (False, True):
        cids = [cid for cid in CompositionId if (cid in _NEEDS_D0) == d0]
        on = P.d == 0.0 if d0 else np.ones(len(grid), bool)
        fams = [_composition_families(cid, P) for cid in cids]
        reads = ([(q, on) for f in fams for q in f[i]] for i in (0, 1))
        phases.append((cids, on, [(*_families(r, len(grid))[:2], i == 0) for i, r in enumerate(reads) if r]))
    reads = [(q, ~_at_minus_one(q)) for q in (_step(lid, 0, 0, P)[3] for lid in ids)]
    targets, need, target = _families(reads, len(grid))
    cids = phases[0][0] + phases[1][0]
    del P, fams, reads

    def identities(c0, cids, on, kinds):
        """Both sides of identities c0, c0 + 1, ... on the chunk's sets that
        hold them, into r, j and keep; returns the jets of params there."""
        sel = np.flatnonzero(on[lo : lo + len(sets)])
        if not sel.size:
            return None
        sub = TriParams(*(v[sel] for v in (params.a, params.b, params.c, params.d)))
        ev = _set_tables(nmax + 1, x[sel, 0], y[sel, 0], *[(V[:, lo + sel], w[:, lo + sel], p) for V, w, p in kinds])
        jet = ev(n, k, sub)
        for c, cid in enumerate(cids, c0):
            L, R, degenerate = _composition(cid, n, k, sub, x[sel], y[sel], ev, jet)
            r[sel, c], j[sel, c] = _scaled_residual(L, R)
            keep[sel, c] = ~degenerate[..., 0]
            accB.skip(degenerate[..., 0].sum())
        return jet

    def ladders(jet):
        """Both sides of every ladder relation on all the chunk's sets, into r, j and keep."""
        for g in range(0, len(targets), 7):
            ev = _set_tables(nmax + 1, x[:, 0], y[:, 0], (targets[g : g + 7, part], need[g : g + 7, part], False))
            for i in np.flatnonzero((g <= target) & (target < g + 7)):
                f, n1, k1, q = _step(ids[i], n, k, params)
                lhs = _pointwise(ids[i], n, k, params, x, y, *jet)
                # at a parameter of exactly -1 the target normalization degenerates;
                # those samples are logged and skipped.  Anywhere else both sides are
                # polynomial in the parameters, so the relation is asserted even
                # outside the integrable family
                skip = (f != 0.0) & _at_minus_one(q)
                (v,) = ev(np.where((f != 0.0) & ~skip, n1, -1), k1, q, partials=False)
                r[:, i], j[:, i] = _scaled_residual(lhs, f * v)
                keep[:, i] = ~skip[..., 0]
            del ev  # the next group's tables are built without these

    for lo in range(0, len(grid), _LADDER_CHUNK):
        sets = grid[lo : lo + _LADDER_CHUNK]
        part = slice(lo, lo + len(sets))
        x, y = pts[:, part]
        params = TriParams(*np.array(sets).T[:, :, None, None])
        shape = (len(sets), len(cids), n.size)
        r, j, keep = np.zeros(shape), np.zeros(shape, int), np.zeros(shape, bool)
        jet = identities(0, *phases[0])
        identities(len(phases[0][0]), *phases[1])
        _reduce(accB, r, j, keep, [cid.name for cid in cids], sets, n, k, x, y)
        shape = (len(sets), len(ids), n.size)
        r, j, keep = np.zeros(shape), np.zeros(shape, int), np.zeros(shape, bool)
        ladders(jet)
        accA.skip(keep.size - np.count_nonzero(keep))
        _reduce(accA, r, j, keep, [lid.label for lid in ids], sets, n, k, x, y)
        del jet  # the next chunk's tables are built without these
    return [
        accA.block("triangle_ladders", "exact"),
        accB.block("composition_identities", "exact"),
    ]


def sweep_product_links(seed, nmax=10, npts=10):
    """Product-form cross-checks of the basis against its one-variable factors.

    These are the two routes of jjp_residual and jpj_residual, with their
    expressions, over every (n, k) with n <= nmax at once.  The parameter
    sets run in chunks of _LINK_CHUNK consecutive sets, on a leading set
    axis, each at its own points.  Per chunk the right routes read one jet
    table; the left routes read, built independently of it, the first
    factors at (A_k, a) and (A_k + 1, a + 1) and the second factors at
    (c, b) and (c + 1, b + 1) at tau = y/(1-x), one kernel call each.  Rows
    are reduced in (set, n, k, link) order, so the report equals that of a
    case-by-case loop.
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
        u, ux, uy = _tri_tables(nmax, [TriParams(*q) for q in sets], x, y, partials=True)
        s = 1.0 - x
        tau = y / s
        A = _first_factor_param(np.arange(nmax + 1), TriParams(pa, pb, pc, pd))
        (F,) = _first_factors(nmax, A, pa[:, 0], x)
        (F1,) = _first_factors(nmax - 1, A[:, :nmax] + 1, pa[:, 0] + 1, x)
        G = _shifted_table(nmax, pc, pb, tau)[0]
        G1 = _shifted_table(nmax - 1, pc + 1, pb + 1, tau)[0]
        dG = np.zeros_like(G)
        dG[:, 1:] = (np.arange(1, nmax + 1)[:, None] + pc[:, None] + pb[:, None] + 1) * G1
        dF = np.zeros_like(F)
        dF[:, lower] = (n - k + A[:, k] + pa[:, None] + 1)[:, lower] * F1[:, below]
        # integer powers as the per-case routes take them, one per k
        pw = np.stack([s**j for j in range(nmax + 2)], axis=1)
        L = np.empty((len(sets), 2 * n.size, npts))
        R = np.empty_like(L)
        L[:, 0::2] = F * pw[:, kr] * dG[:, kr]
        R[:, 0::2] = s[:, None] * uy
        L[:, 1::2] = dF * pw[:, kr + 1] * G[:, kr]
        R[:, 1::2] = k * u + s[:, None] * ux - y[:, None] * uy

        def case(i, j):
            q, row = divmod(i, L.shape[1])
            where = dict(zip("abcd", sets[q]), x=float(x[q, j]), y=float(y[q, j]))
            return {"id": links[row % 2], "n": int(n[row // 2, 0]), "k": int(kr[row // 2]), **where}

        acc.update_max(*(v.reshape(-1) for v in _scaled_residual(L, R)), case)
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
    """
    n, k = (v[:, None] for v in _graded_indices(N))
    fy, ny, ky, qy = _step(LadderId("y", 1), n, k, params)
    fx, nx, kx, qx = _step(LadderId("x", 5), n, k, params)
    tabs = _tri_tables(N, [params, qy, qx], x, y, partials=True)
    u, ux, uy = (T[0] for T in tabs)
    _, qy_x, qy_y = _rows(tabs, 1, ny[:, 0], ky[:, 0])
    _, qx_x, _ = _rows(tabs, 2, nx[:, 0], kx[:, 0])
    uxy = fy * qy_x
    uyy = fy * qy_y
    uxx = (fx * qx_x - (n - 1) * ux + y * uxy) / (1.0 - x)
    return u, ux, uy, uxx, uxy, uyy


def _second_order_k(params, x, y, jets):
    u, ux, uy, uxx, uxy, uyy = jets
    b, c = params.b, params.c
    return (1.0 - x - y) * y * uyy + ((1.0 + b) * (1.0 - x) - (2.0 + b + c) * y) * uy


def _second_order_n(params, x, y, jets):
    u, ux, uy, uxx, uxy, uyy = jets
    a, b, c = params.a, params.b, params.c
    t = a + b + c + 3.0
    return (
        x * (1.0 - x) * uxx
        - 2.0 * x * y * uxy
        + y * (1.0 - y) * uyy
        + (a + 1.0 - t * x) * ux
        + (b + 1.0 - t * y) * uy
    )


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


def sweep_operator_equivalence(seed, N=8, npts=30, ntrials=2):
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
    for params in _OPERATOR_PARAM_SETS:
        x, y = _interior_points(rng, npts)
        pts = np.column_stack([x, y])
        pset = {"a": params.a, "b": params.b, "c": params.c}
        hessian = _hessian_jets(N, params, x, y)
        for name, builder in OP_BUILDERS.items():
            block, reference, bound = _OPERATOR_CHECKS[name]
            acc = accs[block]
            try:
                op = builder(N, params)
            except ValueError:
                acc.skip()
                acc_struct.skip()
                continue
            col_ok = op.nnz == 0 or int(np.max(op.column_nnz())) <= bound
            acc_struct.update(0.0 if col_ok else 1.0, {"id": name, "check": "column_bound", **pset})
            for trial in range(ntrials):
                v = rng.standard_normal(op.domain.size)
                vec = CoeffVec(op.domain, v)
                rhs = synthesize(apply_op(op, vec), pts)
                r, j = _scaled_residual(reference(vec, params, x, y, pts, hessian), rhs)
                acc.update(r, {"id": name, "trial": trial, **pset, "x": float(x[j]), "y": float(y[j])})
        dy_op = build_diff_y(N, params)
        count_ok = dy_op.nnz == N * (N + 1) // 2
        acc_struct.update(0.0 if count_ok else 1.0, {"id": "diff_y", "check": "nnz", **pset})
        if min(params.a, params.b, params.c) > 0.0:
            jx = to_dense(build_mult_same_x(N, params))
            jy = to_dense(build_mult_same_y(N, params))
            jz = to_dense(build_mult_same_z(N, params))
            total = jx + jy + jz
            r = float(np.max(np.abs(total - np.eye(*total.shape))))
            acc_struct.update(r, {"id": "partition_of_unity", "check": "sum", **pset})
        else:
            acc_struct.skip()
    return [acc.block(name, "exact") for name, acc in accs.items()] + [acc_struct.block("structure", "structure")]


def _solve_coeffs(fc, lam):
    """Divide coefficients by (lambda - mu_n), mode by mode.

    A resonant mode (lambda within 1e-12 of its eigenvalue) raises unless the
    right-hand side does not excite it, in which case its coefficients are
    set to zero and the kernel-orthogonal particular solution is returned.
    """
    params = fc.basis.params
    N = fc.basis.maxdeg
    a, b, c = params.a, params.b, params.c
    out = np.empty_like(fc.values)
    negligible = 1e-12 * max(1.0, float(np.max(np.abs(fc.values))))
    for n in range(N + 1):
        mu = -n * (n + a + b + c + 2.0)
        lo = n * (n + 1) // 2
        hi = lo + n + 1
        if abs(lam - mu) < 1e-12 * max(1.0, abs(lam)):
            if np.max(np.abs(fc.values[lo:hi])) > negligible:
                raise ResonanceError(
                    f"lambda = {lam!r} is resonant with the eigenvalue {mu!r} at n = {n}"
                )
            out[lo:hi] = 0.0
        else:
            out[lo:hi] = fc.values[lo:hi] / (lam - mu)
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
        acc_pt.update_rows(
            L,
            R,
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
    """Run one named suite and merge its blocks into a single report under `exact`.

    A `structure` block is folded in with its residual scaled up by the class
    ratio, so the merged pass flag is equivalent to every block passing its
    own class tolerance, each multiplied by scale.
    """
    blocks = _SUITE_FUNCS[name](seed)
    tol = TOLERANCES["exact"] * scale
    cases = sum(b.cases for b in blocks)
    skipped = sum(b.skipped for b in blocks)
    best_val = -1.0
    best_case = {}
    for b in blocks:
        norm = b.max_residual * (TOLERANCES["exact"] / TOLERANCES[b.tol_class])
        if norm > best_val:
            best_val = norm
            best_case = {"block": b.name, **b.worst_case}
    best_val = max(best_val, 0.0)
    report = VerificationReport(name, cases, skipped, best_val, best_case, tol, best_val <= tol)
    return report, blocks


def _fmt_value(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def render_text(reports, seed, scale):
    lines = []
    for rep in reports:
        lines.append(f"suite={rep.suite}")
        lines.append(f"seed={seed}")
        lines.append(f"cases={rep.cases}")
        lines.append(f"skipped={rep.skipped}")
        lines.append(f"max_residual={rep.max_residual!r}")
        wc = ";".join(f"{k}={_fmt_value(v)}" for k, v in rep.worst_case.items())
        lines.append(f"worst_case={wc}")
        lines.append(f"tolerance={rep.tolerance!r}")
        lines.append(f"tolerance_scale={scale!r}")
        lines.append(f"pass={'true' if rep.passed else 'false'}")
        lines.append("")
    overall = all(r.passed for r in reports)
    lines.append(f"overall={'pass' if overall else 'fail'}")
    return "\n".join(lines) + "\n"


def render_json(reports, blocks_by_suite, seed, scale):
    payload = {
        "seed": seed,
        "tolerance_scale": scale,
        "overall": "pass" if all(r.passed for r in reports) else "fail",
        "suites": [
            {
                "suite": r.suite,
                "cases": r.cases,
                "skipped": r.skipped,
                "max_residual": r.max_residual,
                "worst_case": r.worst_case,
                "tolerance": r.tolerance,
                "pass": r.passed,
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
                    for b in blocks_by_suite[r.suite]
                ],
            }
            for r in reports
        ],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# built-in functions
# ---------------------------------------------------------------------------


def resolve_builtin(name, params):
    """Map a built-in function id to a callable f(x, y) on coordinate arrays."""
    if name == "one":
        return lambda x, y: np.ones_like(np.asarray(x, dtype=float))
    if name == "x":
        return lambda x, y: np.asarray(x, dtype=float).copy()
    if name == "y":
        return lambda x, y: np.asarray(y, dtype=float).copy()
    if name == "z":
        return lambda x, y: 1.0 - np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    if name == "runge":
        return lambda x, y: 1.0 / (
            1.0 + 25.0 * ((np.asarray(x, dtype=float) - 1.0 / 3.0) ** 2 + (np.asarray(y, dtype=float) - 1.0 / 3.0) ** 2)
        )
    if name.startswith("poly:"):
        body = name[len("poly:") :]
        parts = body.split(",")
        if len(parts) != 2:
            raise UsageError(f"poly id must look like poly:<n,k>, got {name!r}")
        try:
            n, k = int(parts[0]), int(parts[1])
        except ValueError:
            raise UsageError(f"poly id must hold two integers, got {name!r}")
        if not 0 <= k <= n:
            raise UsageError(f"poly id needs 0 <= k <= n, got ({n}, {k})")
        idx = TriIndex(n, k)
        return lambda x, y: tri_eval(
            idx, params, TriPoint(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        )
    raise UsageError(
        f"unknown function id {name!r}; available: one, x, y, z, poly:<n,k>, runge"
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_verify(args):
    scale = _tol_scale()
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    reports = []
    blocks_by_suite = {}
    for name in names:
        rep, blocks = run_suite(name, args.seed, scale)
        reports.append(rep)
        blocks_by_suite[name] = blocks
    text = render_text(reports, args.seed, scale)
    js = render_json(reports, blocks_by_suite, args.seed, scale)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        with open(args.out + ".json", "w") as fh:
            fh.write(js)
    else:
        sys.stdout.write(text)
        sys.stdout.write(js)
    return 0 if all(r.passed for r in reports) else 1


def cmd_build_op(args):
    builder = OP_BUILDERS.get(args.name)
    if builder is None:
        known = " ".join(sorted(OP_BUILDERS))
        raise UsageError(f"unknown operator name {args.name!r}; available: {known}")
    params = TriParams(args.a, args.b, args.c, 0.0)
    op = builder(args.N, params)
    if args.out:
        save_matrix_market(op, args.out)
    else:
        sys.stdout.write(matrix_market_text(op))
        sys.stdout.write(descriptor_text(op))
    return 0


def cmd_expand(args):
    params = TriParams(args.a, args.b, args.c, 0.0)
    m = args.m if args.m is not None else args.N + 1
    if m < args.N + 1:
        raise UsageError(f"--m {m} is below N + 1 = {args.N + 1}, so the rule cannot resolve every element")
    if args.emit_nodes:
        rule = duffy_rule(m, params)
        text = values_csv_text(rule.points, np.zeros(rule.points.shape[0]))
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
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
    vec = analyze(data, args.N, params, m)
    if args.out:
        save_coeffs_csv(vec, args.out)
    else:
        sys.stdout.write(coeffs_csv_text(vec))
    return 0


def _grid_points(g):
    """The barycentric grid (i/g, j/g), i + j <= g, i-major: the points `solve` writes."""
    i = np.repeat(np.arange(g + 1), np.arange(g + 1, 0, -1))
    j = np.arange(i.size) - (i * (2 * g + 3 - i)) // 2
    return np.column_stack([i / g, j / g])


def cmd_solve(args):
    params = TriParams(args.a, args.b, args.c, 0.0)
    if args.rhs.endswith(".csv") or os.path.exists(args.rhs):
        try:
            fc = load_coeffs_csv(args.rhs, BasisTag(params, False, args.N))
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot read coefficients from {args.rhs!r}: {exc}")
    else:
        f = resolve_builtin(args.rhs, params)
        fc = analyze(f, args.N, params)
    u = _solve_coeffs(fc, getattr(args, "lam"))
    pts = _grid_points(args.grid)
    vals = synthesize(u, pts)
    if args.out:
        save_coeffs_csv(u, args.out)
        save_values_csv(pts, vals, args.out + ".grid.csv")
    else:
        sys.stdout.write(coeffs_csv_text(u))
        sys.stdout.write("\n")
        sys.stdout.write(values_csv_text(pts, vals))
    return 0


def cmd_info(args):
    scale = _tol_scale()
    lines = [
        f"trikoorn {__version__}",
        "suites: " + " ".join(SUITE_NAMES) + " all",
        "operators: " + " ".join(OP_BUILDERS),
        "compositions: " + " ".join(cid.name for cid in CompositionId),
        "builtins: one x y z poly:<n,k> runge",
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


def _add_params(sp):
    sp.add_argument("--a", type=_FINITE, default=0.0)
    sp.add_argument("--b", type=_FINITE, default=0.0)
    sp.add_argument("--c", type=_FINITE, default=0.0)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="trikoorn",
        description="Orthogonal polynomial toolkit on the reference triangle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("verify", help="run seeded verification sweeps")
    sp.add_argument("--suite", choices=SUITE_NAMES + ("all",), default="all")
    sp.add_argument("--seed", type=_NONNEGATIVE, default=0)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("build-op", help="export a coefficient-space operator")
    sp.add_argument("--name", required=True)
    sp.add_argument("--N", type=_NONNEGATIVE, required=True)
    _add_params(sp)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_build_op)

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

    sp = sub.add_parser("solve", help="diagonal shifted solve in coefficient space")
    sp.add_argument("--lambda", dest="lam", type=_FINITE, required=True)
    sp.add_argument("--rhs", required=True, help="built-in id or coefficient CSV path")
    sp.add_argument("--N", type=_NONNEGATIVE, required=True)
    _add_params(sp)
    sp.add_argument("--grid", type=_COUNT, default=20, help="barycentric grid subdivisions")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("info", help="print version, names, and tolerances")
    sp.set_defaults(func=cmd_info)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code in (0, None):
            return 0
        return int(code)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""Output checks that do not trust the code under test.

Files written by the CLI are parsed here with the standard library and
numpy, and each result is compared against a closed form or an independent
computation.  The one use of the library is the pointwise reference for
synthesized grid values: ``tri_eval`` of one basis element at a time, a
different path from the all-basis tables under test.  Every check returns
a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import math

import numpy as np
from trikoorn.koornwinder import TriIndex, TriParams, TriPoint, tri_eval

# Case and skip counts of each verify suite at the seed commit.  They do not
# depend on the verify seed.
VERIFY_COUNTS = {
    "jacobi": (12600, 0),
    "ladders": (485812, 75980),
    "operators": (131, 19),
    "appendix": (33792, 0),
    "eigen": (171, 0),
}

# Analysis of an exact basis element reproduces its unit vector to roundoff
# (measured worst 5e-14 on the parameter grids the workloads draw from); the
# bound is the CLI's own "exact" tolerance class.
UNIT_VECTOR_TOL = 1e-10
# The solve divides each mode once, so both sides agree to a few ulps.
SOLVE_REL_TOL = 1e-12
# Synthesis against pointwise evaluation: the two paths sum the same terms in
# a different order (measured worst between 1e-15 and 1e-14 of the absolute
# sum at N = 60).
GRID_REL_TOL = 1e-12
# Criterion 9's bound on the partition-of-unity identity.
PARTITION_TOL = 1e-12
# apply_op against an independent sum: relative to the sum of |terms|.
APPLY_REL_TOL = 1e-12


def basis_size(maxdeg):
    return (maxdeg + 1) * (maxdeg + 2) // 2


def verify_report(path, suite):
    """Problems in a `verify --out` JSON report for one suite."""
    with open(path) as fh:
        rep = json.load(fh)
    problems = []
    if rep.get("overall") != "pass":
        problems.append(f"{suite}: overall={rep.get('overall')!r}")
    suites = rep.get("suites", [])
    if len(suites) != 1 or suites[0].get("suite") != suite:
        return problems + [f"{suite}: report holds suites {[s.get('suite') for s in suites]}"]
    got = (suites[0].get("cases"), suites[0].get("skipped"))
    if got != VERIFY_COUNTS[suite]:
        problems.append(f"{suite}: cases/skipped {got} != {VERIFY_COUNTS[suite]}")
    return problems


def read_coeffs(path, maxdeg):
    """Coefficient CSV as a list of floats in linear order; raises ValueError if malformed."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "n,k,value":
        raise ValueError(f"{path}: bad header")
    rows = [line.split(",") for line in lines[1:] if line]
    want = [(n, k) for n in range(maxdeg + 1) for k in range(n + 1)]
    if [(int(r[0]), int(r[1])) for r in rows] != want:
        raise ValueError(f"{path}: indices are not the full degree-{maxdeg} basis in linear order")
    vals = [float(r[2]) for r in rows]
    if not all(math.isfinite(v) for v in vals):
        raise ValueError(f"{path}: non-finite coefficient")
    return vals


def coeffs_file(path, maxdeg):
    """Problems with a coefficient CSV: none when it is complete and finite."""
    read_coeffs(path, maxdeg)
    return []


def unit_vector_file(path, maxdeg, n, k):
    return unit_vector(read_coeffs(path, maxdeg), n, k)


def unit_vector(vals, n, k):
    """Problems when `vals` is not the unit vector of basis element (n, k)."""
    hot = n * (n + 1) // 2 + k
    worst = max(abs(v - (1.0 if i == hot else 0.0)) for i, v in enumerate(vals))
    if worst > UNIT_VECTOR_TOL:
        return [f"poly:{n},{k} expands with deviation {worst:.3e} from its unit vector"]
    return []


def solve_modes(u, f, maxdeg, lam, a, b, c):
    """Problems when (lambda + n(n+a+b+c+2)) u != f for some mode (n, k)."""
    i = 0
    for n in range(maxdeg + 1):
        shift = lam + n * (n + a + b + c + 2.0)
        for _ in range(n + 1):
            lhs = shift * u[i]
            if abs(lhs - f[i]) > SOLVE_REL_TOL * max(abs(lhs), abs(f[i])):
                return [f"solve mode {i} (n={n}): {lhs!r} != {f[i]!r}"]
            i += 1
    return []


def grid_points(g):
    """The barycentric grid of `solve --grid g`, in the order the CLI writes it."""
    return [(i / g, j / g) for i in range(g + 1) for j in range(g + 1 - i)]


def read_grid(path, g):
    """Values of the grid CSV of `solve --grid g`; raises ValueError unless the grid is exact."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "x,y,value":
        raise ValueError(f"{path}: bad header")
    rows = [line.split(",") for line in lines[1:] if line]
    want = grid_points(g)
    if len(rows) != len(want):
        raise ValueError(f"{path}: {len(rows)} grid rows, expected {len(want)}")
    vals = []
    for (xs, ys, vs), (x, y) in zip(rows, want):
        if float(xs) != x or float(ys) != y or not math.isfinite(float(vs)):
            raise ValueError(f"{path}: bad grid row {xs},{ys},{vs}")
        vals.append(float(vs))
    return vals


def grid_values(u, vals, sample, g, maxdeg, a, b, c):
    """Problems when sampled grid values differ from the pointwise sum of u_i P_i.

    `sample` lists grid rows.  The reference evaluates each basis element
    with ``tri_eval`` at the sampled points, which bypasses the
    all-basis tables that ``synthesize`` uses; the bound is relative to the
    sum of the absolute terms at each point.
    """
    pts = grid_points(g)
    pt = TriPoint(np.array([pts[r][0] for r in sample]), np.array([pts[r][1] for r in sample]))
    params = TriParams(a, b, c, 0.0)
    ref = np.zeros(len(sample))
    scale = np.zeros(len(sample))
    i = 0
    for n in range(maxdeg + 1):
        for k in range(n + 1):
            term = u[i] * tri_eval(TriIndex(n, k), params, pt)
            ref += term
            scale += np.abs(term)
            i += 1
    err = np.abs(np.array([vals[r] for r in sample]) - ref)
    if not np.all(err <= GRID_REL_TOL * scale):
        worst = int(np.argmax(err / scale))
        return [f"solve grid row {sample[worst]}: {vals[sample[worst]]!r} != {ref[worst]!r} (pointwise sum)"]
    return []


def read_matrix_market(path):
    """Operator file and descriptor as (descriptor dict, rows, cols, vals).

    rows and cols are 0-based int64 arrays, vals a float64 array.  Raises
    ValueError on anything a reader of the format would reject.
    """
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        if header != "%%MatrixMarket matrix coordinate real general":
            raise ValueError(f"{path}: bad header")
        nr, nc, nnz = (int(t) for t in fh.readline().split())
        tokens = fh.read().split()
    if len(tokens) != 3 * nnz:
        raise ValueError(f"{path}: {len(tokens)} fields, header says {nnz} entries")
    rows = np.array(tokens[0::3], dtype=np.int64) - 1
    cols = np.array(tokens[1::3], dtype=np.int64) - 1
    vals = np.array(tokens[2::3], dtype=np.float64)
    with open(path + ".desc") as fh:
        desc = dict(line.split("=", 1) for line in fh.read().splitlines() if line)
    if (nr, nc) != (basis_size(int(desc["range.maxdeg"])), basis_size(int(desc["domain.maxdeg"]))):
        raise ValueError(f"{path}: shape {(nr, nc)} does not match the descriptor degrees")
    if nnz and (rows.min() < 0 or rows.max() >= nr or cols.min() < 0 or cols.max() >= nc):
        raise ValueError(f"{path}: index out of range")
    if np.any(np.diff(cols * nr + rows) <= 0):
        raise ValueError(f"{path}: entries not in strict (column, row) order")
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"{path}: non-finite entry")
    return desc, rows, cols, vals


def same_operator(entries, op):
    """Problems when parsed (rows, cols, vals) differ from a SparseOp in any entry."""
    rows, cols, vals = entries
    if not (np.array_equal(rows, op.rows) and np.array_equal(cols, op.cols) and np.array_equal(vals, op.vals)):
        return [f"{op.name}: file entries differ from the built operator (nnz {rows.size} vs {op.nnz})"]
    return []


def partition_of_unity(mx, my, mz, maxdeg):
    """Problems when mult_same_x + mult_same_y + mult_same_z is not the identity embedding."""
    nc = basis_size(maxdeg)
    rows, cols, vals = (np.concatenate(part) for part in zip(mx, my, mz))
    keys, where = np.unique(rows * nc + cols, return_inverse=True)
    total = np.bincount(where, weights=vals)
    diag = np.arange(nc) * (nc + 1)
    if not np.all(np.isin(diag, keys)):
        return ["partition of unity misses a diagonal entry"]
    worst = float(np.max(np.abs(total - (keys // nc == keys % nc))))
    if worst > PARTITION_TOL:
        return [f"partition of unity deviates by {worst:.3e}"]
    return []


def eigen_diagonal(entries, which, maxdeg, a, b, c):
    """Problems when an eigen_k / eigen_n file is not its closed-form diagonal."""
    n = np.repeat(np.arange(maxdeg + 1), np.arange(1, maxdeg + 2))
    k = np.arange(n.size) - n * (n + 1) // 2
    want = -k * (k + b + c + 1.0) if which == "eigen_k" else -n * (n + a + b + c + 2.0)
    idx = np.flatnonzero(want)
    rows, cols, vals = entries
    if not (np.array_equal(rows, idx) and np.array_equal(cols, idx)):
        return [f"{which}: not a diagonal with the closed-form pattern"]
    worst = float(np.max(np.abs(vals - want[idx]) / np.abs(want[idx]), initial=0.0))
    if worst > 1e-15:
        return [f"{which}: diagonal deviates by {worst:.3e} relative"]
    return []


def apply_result(rows, cols, vals, v, out):
    """Problems when `out` is not the sparse product of (rows, cols, vals) with v.

    Arguments are numpy arrays.  The reference is an independent scatter
    sum (numpy.bincount); the bound is relative to the sum of the absolute
    terms of each row.
    """
    terms = vals * v[cols]
    ref = np.bincount(rows, weights=terms, minlength=out.size)
    scale = np.bincount(rows, weights=np.abs(terms), minlength=out.size)
    err = np.abs(out - ref)
    if out.shape != ref.shape or not np.all(err <= APPLY_REL_TOL * scale):
        return [f"apply_op deviates by {float(np.max(err)):.3e} from the reference sum"]
    return []

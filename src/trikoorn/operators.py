"""Sparse coefficient-space operators between triangle bases at d = 0.

Columns encode images: column j of an operator holds the expansion
coefficients, in the range basis, of the operator applied to basis element
j of the domain basis.  Entries are stored as duplicate-free triplets
sorted by (column, row) so each column is a contiguous, binary-searchable
range.

Every banded operator is one entry of a stencil table: column (n, k) maps
to at most four rows (n+dn, k+dk), each with a rational coefficient in
(n, k, a, b, c).  The entries are derived from the ladder chains of
ladders.py: a term's numerator is the product of its chain's ladder factors
and its denominator the closed form's scale; only the degree-eigenvalue
operator is written out.  One evaluator applies a table entry
to all columns at once with numpy; mult_same_* sums two entries' products
path by path, equal bit for bit to `compose`, the general numpy product of
two operators.  Explicit zeros are never stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._text import read_rows, rows_text
from .koornwinder import TriParams, _graded_indices, basis_size
from .ladders import _CHAINS, CompositionId, DegenerateParameterError, LadderId, _chain_factor, _chain_move

__all__ = [
    "BasisTag",
    "CoeffVec",
    "SparseOp",
    "OP_BUILDERS",
    "apply_op",
    "compose",
    "to_dense",
    "build_diff_x",
    "build_diff_y",
    "build_diff_z",
    "build_weighted_diff_x",
    "build_weighted_diff_y",
    "build_weighted_diff_z",
    "build_conv_a",
    "build_conv_b",
    "build_conv_c",
    "build_mult_x",
    "build_mult_y",
    "build_mult_z",
    "build_mult_same_x",
    "build_mult_same_y",
    "build_mult_same_z",
    "build_eigen_k",
    "build_eigen_n",
    "save_matrix_market",
    "load_matrix_market",
]


@dataclass(frozen=True)
class BasisTag:
    """Identifies a basis: weight exponents, weighted flag, maximum degree.

    weighted = True means coefficients multiply x^a y^b z^c P_{n,k} rather
    than the bare polynomial; that form only arises at d = 0.
    """

    params: TriParams
    weighted: bool
    maxdeg: int

    def __post_init__(self):
        self.params.validate()
        if not isinstance(self.maxdeg, (int, np.integer)) or self.maxdeg < 0:
            raise ValueError(f"maxdeg must be a nonnegative integer, got {self.maxdeg!r}")
        if self.weighted and self.params.d != 0.0:
            raise ValueError(f"weighted bases require d = 0, got d = {self.params.d}")

    @property
    def size(self):
        return basis_size(self.maxdeg)


@dataclass(frozen=True)
class CoeffVec:
    """Coefficient vector over a tagged basis, in ascending linear index order."""

    basis: BasisTag
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.shape != (self.basis.size,):
            raise ValueError(
                f"coefficient vector must have length {self.basis.size}, got shape {vals.shape}"
            )


@dataclass(frozen=True)
class SparseOp:
    """Sparse operator with triplet storage sorted by (column, row)."""

    domain: BasisTag
    range: BasisTag
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    name: str = ""

    @classmethod
    def from_triplets(cls, domain, range, rows, cols, vals, name=""):
        """Operator from parallel (rows, cols, vals) arrays in any order.

        Indices are checked against the basis sizes and unsorted entries are
        sorted into (column, row) order; a repeated (row, column) pair is an
        error.  Zero values are kept as given, in contiguous copies.
        """
        rows = np.array(rows, dtype=np.int64)
        cols = np.array(cols, dtype=np.int64)
        vals = np.array(vals, dtype=float)
        if rows.size:
            if rows.min() < 0 or rows.max() >= range.size:
                raise ValueError("row index out of range")
            if cols.min() < 0 or cols.max() >= domain.size:
                raise ValueError("column index out of range")
            key = cols * (range.size + 1) + rows
            if not np.all(np.diff(key) > 0):
                order = np.argsort(key, kind="stable")
                rows, cols, vals, key = rows[order], cols[order], vals[order], key[order]
                if np.any(np.diff(key) == 0):
                    raise ValueError("duplicate (row, col) entry")
        return cls(domain, range, rows, cols, vals, name)

    @property
    def shape(self):
        return (self.range.size, self.domain.size)

    @property
    def nnz(self):
        return int(self.rows.size)

    def column_nnz(self):
        """Entry count of every column."""
        return np.bincount(self.cols, minlength=self.domain.size)


def to_dense(op):
    """Dense (range size, domain size) array of the operator; exact, as no entry repeats."""
    out = np.zeros(op.shape)
    out[op.rows, op.cols] = op.vals
    return out


def apply_op(op, vec):
    """Apply an operator to a coefficient vector.

    The accumulation runs over columns in ascending linear index so the
    floating-point result is deterministic.
    """
    if vec.basis != op.domain:
        raise ValueError(f"vector basis {vec.basis} does not match operator domain {op.domain}")
    out = np.zeros(op.range.size)
    np.add.at(out, op.rows, op.vals * vec.values[op.cols])
    return CoeffVec(op.range, out)


def compose(f, g):
    """Composition f after g; f.domain must equal g.range.

    Gustavson's column product over the sorted storage: entry (l, j, v) of g
    meets f's column l, one contiguous run, and each output entry sums its
    paths from exact 0 in ascending l, as a CSC product does; exact zeros are dropped.
    """
    if f.domain != g.range:
        raise ValueError("inner bases do not match: f.domain != g.range")
    start = np.concatenate(([0], np.cumsum(np.bincount(f.cols, minlength=f.domain.size))))
    count = start[g.rows + 1] - start[g.rows]
    src = np.repeat(np.arange(g.nnz), count)  # the g entry of each path
    at = np.arange(src.size) + np.repeat(start[g.rows] - np.cumsum(count) + count, count)  # its f entry
    key = g.cols[src] * f.range.size + f.rows[at]
    order = np.argsort(key, kind="stable")  # each output entry's paths stay in ascending l
    key, prod = key[order], g.vals[src[order]] * f.vals[at[order]]
    head = np.diff(key, prepend=-1) != 0
    sums = np.zeros(np.count_nonzero(head))
    np.add.at(sums, np.cumsum(head) - 1, prod)  # in index order, so each sum runs in ascending l
    key, sums = key[head][sums != 0], sums[sums != 0]
    name = f"{f.name}*{g.name}" if f.name and g.name else ""
    return SparseOp(g.domain, f.range, key % f.range.size, key // f.range.size, sums, name)


class _Stencil(NamedTuple):
    """One operator: column (n, k) maps to rows (n+dn, k+dk) of the range basis.

    Each term's value is numerator(n, k, a, b, c) divided by the product of
    the listed denominators, all in the domain exponents (a, b, c).  The
    range reaches degree N + max(dn), and a lowered exponent must start
    above 0 for the range basis to stay valid.
    """

    doc: str
    shift: tuple  # range exponents minus domain exponents (da, db, dc)
    weighted: bool  # both bases carry the weight x^a y^b z^c
    dens: tuple  # (label, denominator(n, k, a, b, c)): _DN, _DK
    terms: tuple  # (dn, dk, numerator)


_DN = ("2n+a+b+c+2", lambda n, k, a, b, c: 2 * n + a + b + c + 2)
_DK = ("2k+b+c+1", lambda n, k, a, b, c: 2 * k + b + c + 1)


def _chain_numerator(sign, outer, inner):
    """numerator(n, k, a, b, c): sign times the factor of the chain term outer(inner(P_{n,k}))."""

    def numerator(n, k, a, b, c):
        f = _chain_factor(outer, inner, n, k, TriParams(a, b, c))
        return f if sign > 0 else -f

    return numerator


def _chain_stencil(doc, weighted, chain, sign, dens):
    """Stencil of the operator whose closed form, sign times the product of
    dens times it, equals the ladder chain: one term per chain term, at the
    term's net move of (n, k), and the exponent shift the net move they share."""
    terms, shifts = [], set()
    for s, outer, inner in chain:
        dn, dk, da, db, dc, _ = _chain_move(outer, inner)
        terms.append((dn, dk, _chain_numerator(s * sign, outer, inner)))
        shifts.add((da, db, dc))
    (shift,) = shifts
    return _Stencil(doc, shift, weighted, dens, tuple(terms))


# Every stencil but eigen_n is a ladder chain of the composed identities
# over its closed form's scale, sign times the product of dens.
_STENCILS = {
    "diff_x": _chain_stencil("d/dx as a map into the (a+1, b, c+1) basis, degrees N -> N-1.",
        False, _CHAINS[CompositionId.DX_IDENTITY], 1, (_DK,)),
    "diff_y": _chain_stencil("d/dy as a map into the (a, b+1, c+1) basis, degrees N -> N-1.",
        False, ((1, LadderId("y", 1), None),), 1, ()),
    "diff_z": _chain_stencil("Third-direction derivative (uy - ux) into the (a+1, b+1, c) basis.",
        False, _CHAINS[CompositionId.DZ_IDENTITY], -1, (_DK,)),
    "weighted_diff_x": _chain_stencil("d/dx on the weighted basis, into the weighted (a-1, b, c-1) basis.",
        True, _CHAINS[CompositionId.WDX_IDENTITY], -1, (_DK,)),
    "weighted_diff_y": _chain_stencil("d/dy on the weighted basis, into the weighted (a, b-1, c-1) basis.",
        True, _CHAINS[CompositionId.WDY_IDENTITY], -1, ()),
    "weighted_diff_z": _chain_stencil("Third-direction derivative on the weighted basis, into weighted (a-1, b-1, c).",
        True, _CHAINS[CompositionId.WDZ_IDENTITY], 1, (_DK,)),
    "conv_a": _chain_stencil("Identity map re-expanded in the (a+1, b, c) basis.",
        False, _CHAINS[CompositionId.CONV_A], 1, (_DN,)),
    "conv_b": _chain_stencil("Identity map re-expanded in the (a, b+1, c) basis.",
        False, _CHAINS[CompositionId.CONV_B], 1, (_DN, _DK)),
    "conv_c": _chain_stencil("Identity map re-expanded in the (a, b, c+1) basis.",
        False, _CHAINS[CompositionId.CONV_C], 1, (_DN, _DK)),
    "mult_x": _chain_stencil("Multiplication by x into the (a-1, b, c) basis; requires a > 0.",
        False, _CHAINS[CompositionId.MULT_X], 1, (_DN,)),
    "mult_y": _chain_stencil("Multiplication by y into the (a, b-1, c) basis; requires b > 0.",
        False, _CHAINS[CompositionId.MULT_Y], 1, (_DN, _DK)),
    "mult_z": _chain_stencil("Multiplication by z into the (a, b, c-1) basis; requires c > 0.",
        False, _CHAINS[CompositionId.MULT_Z], 1, (_DN, _DK)),
    "eigen_k": _chain_stencil("Diagonal operator with entries -k(k+b+c+1) (the k-degree eigenvalues).",
        False, _CHAINS[CompositionId.EIG_K], 1, ()),
    "eigen_n": _Stencil("Diagonal operator with entries -n(n+a+b+c+2) (the n-degree eigenvalues).",
        (0, 0, 0), False, (), (
            (0, 0, lambda n, k, a, b, c: -n * (n + a + b + c + 2)),
        )),
}


@np.errstate(over="ignore", invalid="ignore")
def _stencil_terms(name, N, params):
    """Domain and range tags of `name` at degree N, and {(dn, dk): (rows, vals, keep)} over every column.

    keep drops targets outside the range basis and exact zeros; a vanishing
    denominator or a kept entry that is not finite raises ValueError.
    """
    st = _STENCILS[name]
    if not isinstance(N, (int, np.integer)) or N < 0:
        raise ValueError(f"maximum degree must be a nonnegative integer, got {N!r}")
    params.validate()
    if params.d != 0.0:
        raise ValueError(f"coefficient-space operators require d = 0, got d = {params.d}")
    abc = (params.a, params.b, params.c)
    lowered = [e for e, d in zip("abc", st.shift) if d < 0]
    if any(getattr(params, e) <= 0 for e in lowered):
        need = " and ".join(f"{e} > 0" for e in lowered)
        raise ValueError(f"{name} requires {need}, got (a, b, c) = {abc}")
    dom = BasisTag(params, st.weighted, N)
    # unshifted exponents are copied as given, so a -0.0 reaches the descriptor
    shifted = (p + d if d else p for p, d in zip(abc, st.shift))
    maxdeg = max(N + max(dn for dn, _, _ in st.terms), 0)
    ran = BasisTag(TriParams(*shifted, 0.0), st.weighted, maxdeg)
    n, k = _graded_indices(N)
    den = 1.0
    for label, fn in st.dens:
        value = fn(n, k, *abc)
        bad = np.abs(value) < 1e-12
        if bad.any():
            j = int(np.argmax(bad))
            raise DegenerateParameterError(
                f"{label} vanishes at (n, k) = ({n[j]}, {k[j]}) for (a, b, c) = {abc}"
            )
        den = den * value
    overflow = ~np.isfinite(np.broadcast_to(den, n.shape))
    terms = {}
    for dn, dk, num in st.terms:
        nr, kr = n + dn, k + dk
        v = num(n, k, *abc) / den
        keep = (kr >= 0) & (kr <= nr) & (nr <= maxdeg) & (v != 0.0)
        overflow |= keep & ~np.isfinite(v)
        terms[dn, dk] = (nr * (nr + 1) // 2 + kr, v, keep)
    if overflow.any():
        j = int(np.argmax(overflow))
        raise ValueError(f"{name} overflows float64 at (n, k) = ({n[j]}, {k[j]}) for (a, b, c) = {abc}")
    return dom, ran, terms


def _sorted_op(dom, ran, terms, name):
    """Operator from {(dn, dk): (rows, vals, keep)}; stacked in ascending (dn, dk), each column's rows ascend."""
    rows, vals, keep = (np.stack(e, axis=1) for e in zip(*(terms[o] for o in sorted(terms))))
    at = np.flatnonzero(keep)
    return SparseOp.from_triplets(dom, ran, rows.ravel()[at], at // len(terms), vals.ravel()[at], name)


@np.errstate(over="ignore", invalid="ignore")
def _build(name, N, params):
    """Evaluate the stencil of `name` over every column of the degree-N basis; a mult_same_*
    product sums each output offset from exact 0 over its paths in ascending middle index and
    drops exact zeros, so it equals `compose` bit for bit with no sort: at N = 150 (2 vCPU) it
    builds mult_same_y/_z in 6.4-10.5 ms, any sort-based product in 17-21 ms."""
    if name not in _PRODUCTS:
        return _sorted_op(*_stencil_terms(name, N, params), name)
    conv, mult = _PRODUCTS[name][:2]
    dom, mid, inner = _stencil_terms(mult, N, params)
    _, ran, outer = _stencil_terms(conv, N + 1, mid.params)
    sums = {}
    for (dn1, dk1), (l, v1, keep1) in sorted(inner.items()):  # ascending middle index per column
        l = np.where(keep1, l, 0)
        for (dn2, dk2), (_, v2, keep2) in outer.items():
            key = (dn1 + dn2, dk1 + dk2)
            sums[key] = sums.get(key, 0.0) + np.where(keep1 & keep2[l], v1 * v2[l], 0.0)
    n, k = _graded_indices(N)
    terms = {(dn, dk): ((n + dn) * (n + dn + 1) // 2 + k + dk, v, v != 0) for (dn, dk), v in sums.items()}
    return _sorted_op(dom, ran, terms, name)


# the same-basis multiplications: (conversion, multiplication, doc)
_PRODUCTS = {
    "mult_same_x": ("conv_a", "mult_x", "Multiplication by x staying in the same basis, conv_a after mult_x;\n"
                    "at most 3 entries per column."),
    "mult_same_y": ("conv_b", "mult_y", "Multiplication by y staying in the same basis, conv_b after mult_y;\n"
                    "at most 9 entries per column, the 3 x 3 index block {n-1, n, n+1} x {k-1, k, k+1}."),
    "mult_same_z": ("conv_c", "mult_z", "Multiplication by z staying in the same basis, conv_c after mult_z;\n"
                    "at most 9 entries per column."),
}


def _builder(name):
    def build(N, params):
        return _build(name, N, params)

    build.__name__ = build.__qualname__ = f"build_{name}"
    build.__doc__ = _PRODUCTS[name][2] if name in _PRODUCTS else _STENCILS[name].doc
    return build


build_diff_x = _builder("diff_x")
build_diff_y = _builder("diff_y")
build_diff_z = _builder("diff_z")
build_weighted_diff_x = _builder("weighted_diff_x")
build_weighted_diff_y = _builder("weighted_diff_y")
build_weighted_diff_z = _builder("weighted_diff_z")
build_conv_a = _builder("conv_a")
build_conv_b = _builder("conv_b")
build_conv_c = _builder("conv_c")
build_mult_x = _builder("mult_x")
build_mult_y = _builder("mult_y")
build_mult_z = _builder("mult_z")
build_mult_same_x = _builder("mult_same_x")
build_mult_same_y = _builder("mult_same_y")
build_mult_same_z = _builder("mult_same_z")
build_eigen_k = _builder("eigen_k")
build_eigen_n = _builder("eigen_n")


OP_BUILDERS = {
    "diff_x": build_diff_x,
    "diff_y": build_diff_y,
    "diff_z": build_diff_z,
    "weighted_diff_x": build_weighted_diff_x,
    "weighted_diff_y": build_weighted_diff_y,
    "weighted_diff_z": build_weighted_diff_z,
    "conv_a": build_conv_a,
    "conv_b": build_conv_b,
    "conv_c": build_conv_c,
    "mult_x": build_mult_x,
    "mult_y": build_mult_y,
    "mult_z": build_mult_z,
    "mult_same_x": build_mult_same_x,
    "mult_same_y": build_mult_same_y,
    "mult_same_z": build_mult_same_z,
    "eigen_k": build_eigen_k,
    "eigen_n": build_eigen_n,
}


def _tag_lines(prefix, tag):
    p = tag.params
    return [
        f"{prefix}.a={p.a!r}",
        f"{prefix}.b={p.b!r}",
        f"{prefix}.c={p.c!r}",
        f"{prefix}.d={p.d!r}",
        f"{prefix}.weighted={'true' if tag.weighted else 'false'}",
        f"{prefix}.maxdeg={tag.maxdeg}",
    ]


def matrix_market_text(op):
    """Matrix Market coordinate text for the operator (1-based indices)."""
    head = f"%%MatrixMarket matrix coordinate real general\n{op.shape[0]} {op.shape[1]} {op.nnz}\n"
    return rows_text(head, [op.rows + 1, op.cols + 1, op.vals], " ")


def descriptor_text(op):
    """Sidecar descriptor text: builder name and both basis tags as key=value lines."""
    desc = [f"name={op.name}", *_tag_lines("domain", op.domain), *_tag_lines("range", op.range)]
    return "\n".join(desc) + "\n"


def save_matrix_market(op, path):
    """Write the operator in Matrix Market coordinate form plus a descriptor.

    The matrix goes to `path` (1-based indices); the basis tags and builder
    name go to `path + '.desc'` as key=value lines.
    """
    path = str(path)
    with open(path, "w") as fh:
        fh.write(matrix_market_text(op))
    with open(path + ".desc", "w") as fh:
        fh.write(descriptor_text(op))


def _parse_tag(kv, prefix):
    params = TriParams(*(float(kv[f"{prefix}.{e}"]) for e in "abcd"))
    return BasisTag(params, kv[f"{prefix}.weighted"] == "true", int(kv[f"{prefix}.maxdeg"]))


def load_matrix_market(path):
    """Read an operator written by save_matrix_market (matrix plus descriptor).

    Raises ValueError on a malformed header or size line, an entry line
    without exactly 3 fields, an entry count that does not match the size
    line, or a non-finite value.
    """
    path = str(path)
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "%%MatrixMarket matrix coordinate real general":
            raise ValueError(f"unsupported matrix header: {header!r}")
        sizes = fh.readline().split()
        if len(sizes) != 3:
            raise ValueError(f"size line must hold 3 integers, got {sizes!r}")
        nr, nc, nnz = (int(s) for s in sizes)
        entry = [("row", np.int64), ("col", np.int64), ("val", float)]
        if nnz:
            entries = read_rows(fh, entry, None)
        else:  # no body to parse, but every entry line still counts against the size line
            entries = np.zeros(sum(1 for line in fh if line.strip()), entry)
    if entries.size != nnz:
        raise ValueError(f"expected {nnz} matrix entries, found {entries.size}")
    with open(path + ".desc") as fh:
        kv = dict(line.strip().partition("=")[::2] for line in fh if line.strip())
    dom = _parse_tag(kv, "domain")
    ran = _parse_tag(kv, "range")
    if (ran.size, dom.size) != (nr, nc):
        raise ValueError("matrix dimensions do not match the descriptor basis sizes")
    rows, cols = entries["row"] - 1, entries["col"] - 1
    return SparseOp.from_triplets(dom, ran, rows, cols, entries["val"], kv.get("name", ""))

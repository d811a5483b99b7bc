"""Row text for the Matrix Market and CSV files: integer columns as %d, floats as %.17g.

`read_rows` parses them with numpy: a line holds exactly its format's fields, and no format has comment lines.

`rows_text` is byte-identical to Python's own `'%d'` and `'%.17g'`, row by
row. Short outputs are formatted by Python itself. Longer ones go through a
numpy kernel, chunk by chunk, because CPython's `'%.17g'` takes dtoa's
bignum path for every value (about 0.8 us each).

The float kernel is the classic fast path with an exact fallback:
- E = floor(log10|x|), and y = |x| 10^(16-E) as a double-double, by
  Dekker's (1971) exact TwoProduct against 10^p stored as hi + lo. The
  product's error is below 1e-14 in y.
- E moves by one where y falls outside [1e16, 1e17), and y rounds to the
  17-digit integer D.
- Any entry the fast path cannot prove correct is formatted by Python's dtoa,
  as in Loitsch, "Printing floating-point numbers quickly and accurately with
  integers" (PLDI 2010). These are entries whose fraction lies within 1e-9
  of 1/2, non-finite values, and |x| outside [1e-270, 1e290].

Each field is a block of byte rows, transposed to (width, rows) so that
every numpy operation runs along the row axis. Unused cells hold 0, and one
compress per chunk drops them.
"""

from __future__ import annotations

import warnings
from functools import cache

import numpy as np

# Below this many rows the per-row Python format beats the kernel's fixed
# cost of about 0.2 ms a float column. The measured crossover on a 2-vCPU
# Xeon is about 300 rows for the CSV writers and 400 for Matrix Market.
_SHORT = 300
_CHUNK = 8192
_LO, _HI = 1e-270, 1e290
# Decimal scalings p = 16 - E reached from |x| in [_LO, _HI], one step of
# correction included.
_PMIN, _PMAX = 16 - 291, 16 + 271
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter
_MINUS, _PLUS, _ZERO, _DOT, _E = (np.uint8(ord(c)) for c in "-+0.e")
_TEN = np.uint32(10)
_FALLBACK_WIDTH = 24  # longest '%.17g' text: -1.2345678901234567e-300


def _pow10(p):
    """10**p as a double-double (hi, lo), each correctly rounded, from Python ints."""
    if p >= 0:
        n = 10**p
        hi = float(n)
        return hi, float(n - int(hi))
    d = 10**-p
    hi = 1 / d
    num, den = hi.as_integer_ratio()
    return hi, (den - num * d) / (den * d)


def _split(a):
    """Veltkamp split of a into two 26-bit halves, a = h + l exactly."""
    c = _SPLIT * a
    h = c - (c - a)
    return h, a - h


@cache
def _pow10_table():
    """10^p for p in [_PMIN, _PMAX] as (hi, hi's split halves, lo)."""
    hi, lo = np.array([_pow10(p) for p in range(_PMIN, _PMAX + 1)]).T
    return hi, *_split(hi), lo


def _scaled(a, e):
    """|x| 10^(16-e) as a double-double (hi, lo), with |lo| <= ulp(hi) / 2."""
    Ph, Phh, Phl, Pl = _pow10_table()
    i = 16 - _PMIN - e
    Ph, Phh, Phl, Pl = Ph[i], Phh[i], Phl[i], Pl[i]
    ah, al = _split(a)
    ph = a * Ph
    s = (((ah * Phh - ph) + ah * Phl + al * Phh) + al * Phl) + a * Pl
    hi = ph + s
    return hi, s - (hi - ph)


def _digit_rows(q, rows):
    """Write the decimal digits of q (nonnegative ints) into rows as values 0..9, last digit last.

    One division by a constant per digit: numpy divides by a scalar with a
    multiply-shift, which is cheaper than a gather from a '00'..'99' table.
    """
    for row in rows[::-1]:
        r = q // _TEN
        row[...] = q - r * _TEN
        q = r


def _int_block(v):
    """%d of an integer array as a (width, rows) byte block."""
    v = v.astype(np.int64)
    neg = v < 0
    mag = v.astype(np.uint64)
    np.negative(mag, out=mag, where=neg)
    w = len(str(mag.max(initial=0)))
    blk = np.empty((w + 1, v.size), np.uint8)
    np.multiply(neg, _MINUS, out=blk[0])
    _digit_rows(mag, blk[1:])
    blk[1:] += _ZERO
    for i in range(1, w):
        blk[i] *= mag >= 10 ** (w - i)
    return blk if neg.any() else blk[1:]


def _digits(a):
    """(D, E, tie): a = D 10^(E-16) to 17 digits, and where that rounding was too close to call."""
    e = np.floor(np.log10(a)).astype(np.int64)
    hi, lo = _scaled(a, e)
    low = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    fix = np.flatnonzero(low | (hi > 1e17) | ((hi == 1e17) & (lo >= 0)))
    if fix.size:
        e[fix] -= np.where(low[fix], 1, -1)
        hi[fix], lo[fix] = _scaled(a[fix], e[fix])
    fl = np.floor(lo)
    frac = lo - fl
    d = hi.astype(np.int64) + fl.astype(np.int64) + (frac > 0.5)
    carry = d == 10**17
    d[carry] = 10**16
    e += carry
    return d, e, np.abs(frac - 0.5) < 1e-9


def _float_block(x):
    """%.17g of a float64 array as a (width, rows) byte block.

    Rows: sign, the '0.000' prefix of fixed notation below 1, 18 rows of
    digits with the decimal point at its place, and, where some entry needs
    it, 'e', sign and three exponent digits.
    """
    n = x.size
    a = np.abs(x)
    fast = (a >= _LO) & (a <= _HI)
    d, e, tie = _digits(np.where(fast, a, 1.0))
    # D's 8 high and 9 low digits as two uint32 halves, stepped together; the
    # high half's leading row is a pad, so rows 1..17 are D's digits.
    halves = np.empty((2, n), np.uint32)
    halves[0] = d // 10**9
    halves[1] = d - halves[0] * np.int64(10**9)
    dig = np.empty((2, 9, n), np.uint8)
    _digit_rows(halves, dig.transpose(1, 0, 2))
    dig = dig.reshape(18, n)[1:]
    j = np.arange(18, dtype=np.uint8)[:, None]
    s = ((dig != 0) * (j[:17] + 1)).max(axis=0)
    dig += _ZERO
    fixed = (-4 <= e) & (e < 17)
    small = fixed & (e < 0)
    nint = np.where(fixed, np.maximum(e + 1, 0), 1).astype(np.uint8)
    blk = np.empty((29, n), np.uint8)
    np.multiply(np.signbit(x), _MINUS, out=blk[0])
    blk[1] = small * _ZERO
    blk[2] = small * _DOT
    blk[3:6] = (j[:3] < np.where(small, -1 - e, 0).astype(np.uint8)) * _ZERO
    digits = blk[6:24]
    np.multiply(dig, j[:17] < nint, out=digits[:17])
    digits[17] = 0
    digits[1:] += dig * ((nint <= j[:17]) & (j[:17] < s))
    digits += (j == np.where((s > nint) & ~small, nint, 18)) * _DOT
    if fixed.all():
        blk = blk[:24]
    else:
        np.multiply(~fixed, _E, out=blk[24])
        blk[25] = ~fixed * np.where(e < 0, _MINUS, _PLUS)
        expo = np.abs(e)
        _digit_rows(expo, blk[26:29])
        blk[26:29] += _ZERO
        blk[26:29] *= ~fixed
        blk[26] *= expo >= 100
    slow = np.flatnonzero(~fast | tie)
    if slow.size:
        strs = ["%.17g" % v for v in x[slow].tolist()]
        cells = np.zeros((slow.size, _FALLBACK_WIDTH), np.uint8)
        cells[np.arange(_FALLBACK_WIDTH) < np.array([len(t) for t in strs])[:, None]] = np.frombuffer(
            "".join(strs).encode(), np.uint8
        )
        blk[:, slow] = 0
        blk[:_FALLBACK_WIDTH, slow] = cells.T
    return blk


def _chunk_text(columns, sep):
    """Rows of text from one chunk: each column's block then sep, the last sep a newline."""
    n = columns[0].size
    blocks = []
    for col in columns:
        blocks.append(_float_block(col) if col.dtype.kind == "f" else _int_block(col))
        blocks.append(np.full((1, n), ord(sep), np.uint8))
    blocks[-1][:] = ord("\n")
    return np.concatenate(blocks).T.tobytes().translate(None, b"\0").decode("ascii")


def rows_text(head, columns, sep):
    """head, then one line per row: the columns' entries joined by sep.

    Columns are 1-D int64 or float64 arrays of one length, and sep is one
    ASCII character. Integer columns print as '%d' and float columns as
    '%.17g', exactly as Python formats them.
    """
    columns = [np.asarray(c) for c in columns]
    n = columns[0].size
    if any(c.shape != (n,) for c in columns):
        raise ValueError("columns must be 1-D arrays of one length")
    if n < _SHORT:
        fmt = sep.join("%.17g" if c.dtype.kind == "f" else "%d" for c in columns) + "\n"
        cells = [None] * (len(columns) * n)
        for i, c in enumerate(columns):
            cells[i :: len(columns)] = c.tolist()
        return head + (fmt * n) % tuple(cells)
    chunks = (_chunk_text([c[i : i + _CHUNK] for c in columns], sep) for i in range(0, n, _CHUNK))
    return "".join([head, *chunks])


def read_rows(fh, fields, sep):
    """The rest of the text file fh as a structured array of (name, dtype) fields, split by sep (None: whitespace).

    Raises ValueError for a malformed line, naming the first by its number in
    the file, a body with no rows, or a float that is not finite.
    """
    start = fh.tell()
    try:
        rows = _loadtxt(fh, fields, sep)
    except ValueError:
        raise ValueError(_first_bad_line(fh, start, fields, sep)) from None
    if not rows.size:
        raise ValueError("no rows after the header")
    for name in rows.dtype.names:
        ok = np.isfinite(rows[name])
        if not ok.all():
            raise ValueError(f"row {rows[np.argmin(ok)].tolist()} holds a value that is not finite")
    return rows


def _loadtxt(lines, fields, sep):
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        return np.loadtxt(lines, dtype=fields, delimiter=sep, comments=None, ndmin=1)


def _reads(lines, fields, sep):
    try:
        _loadtxt(lines, fields, sep)
    except ValueError:
        return False
    return True


def _first_bad_line(fh, start, fields, sep):
    """What is wrong with the first line from position start on that loadtxt cannot read, numbered from the file's first line.

    Each line reads on its own, so a bisection of the body by loadtxt itself
    finds that line; numpy's own message counts rows from the body and may
    advise options no caller can set.
    """
    fh.seek(start)
    lines = fh.read().split("\n")
    fh.seek(0)
    first = fh.read().count("\n") - len(lines) + 2  # the line number of lines[0]
    lo, hi = 0, len(lines)  # lines[:lo] read, and lines[lo:hi] holds a line that does not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _reads(lines[lo:mid], fields, sep) else (lo, mid)
    tokens = lines[lo].split(sep)
    if len(tokens) != len(fields):
        return f"line {first + lo}: expected {len(fields)} fields, found {len(tokens)}"
    for token, (_, dtype) in zip(tokens, fields):
        if not (token and _reads([token], dtype, sep)):
            return f"line {first + lo}: cannot read {token.strip()!r} as {np.dtype(dtype).name}"
    return f"line {first + lo}: cannot read {lines[lo]!r}"

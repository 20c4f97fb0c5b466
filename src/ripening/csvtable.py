"""CSV tables printed a block of rows at a time by numpy.

Every table the package writes goes through :func:`write_table`: an
integer column prints as ``"%d" % int(v)`` and any other column as
``"%.17g" % float(v)``, byte for byte, but whole columns are formatted by
array operations instead of one ``%`` per value.

**Exactness.**  ``%.17g`` prints the 17-digit significand ``m``, rounded
half to even from the exact value (Gay, *Correctly rounded binary-decimal
conversions*, 1990), in fixed notation when its decimal exponent ``X``
lies in ``-4 <= X <= 16``, which for a double is exactly
``1e-4 <= |x| < 1e17``, with trailing zeros and a bare point removed.  For
such ``x``, ``k = 16 - X`` lies in ``[0, 20]``, so ``10**k`` is a double,
and Dekker's TwoProduct (Numer. Math. 18, 1971, with Veltkamp's split into
26-bit halves; nothing overflows or underflows in this range) gives
``|x| 10**k = hi + lo`` exactly.  Then ``hi >= 1e16 > 2**53`` is an even
integer and ``|lo| <= ulp(hi)/2 <= 8``, so the half-even rounding of
``hi + lo`` is ``hi + rint(lo)``, ``rint`` rounding half to even: this is
``m``.  ``floor(log10|x|)`` may be one off next to a power of ten, so a
significand outside ``[1e16, 1e17)`` moves ``k`` by one and is computed
again; that also covers a value that rounds up to the next power.  The
integer part is then the first ``17 - k`` digits of ``m`` and the decimals
its last ``k``, after ``k - 17`` zeros when ``k > 17``.  Zero prints as
``0`` (``-0`` for negative zero), and an integer column takes the same
digit path when ``|v| < 1e17``.

**Layout.**  A field is a sign word, the 20-digit slot of ``m`` (3 zeros,
then its 17 digits) and, for a float, a point word and the slot again;
each 4-digit group is copied from a lookup table as one 32-bit word.
Everything but the integer part of the first slot (or the sign word's
``0`` when it is empty), the decimals of the second up to their last
nonzero digit, and a point before nonempty decimals is then cleared to NUL by one 64-bit mask per word, taken from a
table by ``k`` and the digits' end, so a block's text is its byte matrix
with the NUL bytes deleted.  A row with any other value (subnormal,
non-finite, or outside those ranges) is printed by the ``%`` template, so
every value prints as ``%`` prints it.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

__all__ = ["format_rows", "write_table"]

BLOCK_ROWS = 2048  # rows formatted at once; bounds the temporaries

_E4, _E8, _E16, _E17 = 10**4, 10**8, 10**16, 10**17


_DIGITS = np.ix_(*[np.arange(10, dtype=np.uint8)] * 4)  # a 10**4 grid
# _QUADS[g] is the four ASCII digits of g < 10**4 as one 32-bit word.
_QUADS = (np.stack(np.broadcast_arrays(*_DIGITS), axis=-1)
          + ord("0")).view(np.uint32).ravel()
# _END[10**4 j + g] is where the significant digits of a 20-digit slot end
# when g is its j-th group (0 if g = 0); the slot's end is the largest.
_last = reduce(np.maximum, [np.uint8(p + 1) * (d > 0)
                            for p, d in enumerate(_DIGITS)])
_END = ((_last + np.arange(0, 20, 4, dtype=np.uint8)[:, None, None, None, None])
        * (_last > 0)).ravel()
_END_OFFSET = np.arange(0, 50_000, 10_000)[:, None]
del _last


def _masks(word, lo, hi):
    """Keep masks, one row per entry: the 4-byte ``word`` flags, then the
    digits [lo, hi) of a 20-digit slot; as 3 x entries 64-bit words."""
    at = np.arange(20)
    keep = np.concatenate([word, (at >= lo[:, None]) & (at < hi[:, None])],
                          axis=1)
    return (keep.astype(np.uint8) * np.uint8(255)).view(np.uint64).T.copy()


# Sign words are [separator, sign, "0", NUL], point words [".", NUL x 3].
_k = np.arange(21)
_yes, _no = np.ones(21, bool), np.zeros(21, bool)
# A float's integer part, by k: the digits [3, 20 - k) of its slot, or the
# sign word's "0" when there are none (k >= 17).
_WHOLE = _masks(np.stack([_yes, _yes, _k >= 17, _no], axis=1),
                np.full(21, 3), 20 - _k)
# A float's decimals, by 21 start + end: the digits [start, end) of its
# slot, start = 20 - k and end past the last nonzero digit, and the point
# when they are not empty.
_start, _end = np.divmod(np.arange(21 * 21), 21)
_DECIMALS = _masks(np.stack([_end > _start] + [np.zeros(441, bool)] * 3,
                            axis=1), _start, _end)
# An integer, by its leading zeros f: the digits [f, 20).
_INTEGER = _masks(np.stack([_yes, _yes, _no, _no], axis=1), _k,
                  np.full(21, 20))
del _k, _yes, _no, _start, _end
_SIGN = np.frombuffer(b"\0\x000\0" b"\0-0\0" b",\x000\0" b",-0\0",
                      np.uint32).reshape(2, 2)  # by (separator, negative)
_DOT = np.frombuffer(b".\0\0\0", np.uint32)[0]
_NEWLINE = np.frombuffer(b"\n" + bytes(7), np.uint64)[0]

_POW10 = np.array([float(10**k) for k in range(21)])  # each exact


def _split(a):
    """Veltkamp's split: a = hi + lo exactly, each half 26 bits."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)
_INT_POW10 = 10 ** np.arange(1, 17, dtype=np.int64)


def _significand(a, k):
    """round_half_even(a * 10**k) for 1e-4 <= a < 1e17, 0 <= k <= 20."""
    hi = a * _POW10[k]
    a_hi, a_lo = _split(a)
    p_hi, p_lo = _POW10_HI[k], _POW10_LO[k]
    lo = ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _slot(v, half):
    """Write 0 <= v < 1e17 as 20 ASCII digits, leading zeros included,
    into the n x 5 32-bit word view ``half``; return the 5 x n groups."""
    groups = np.empty((5, v.size), np.int64)
    top = v // 10**12
    low = v - top * 10**12
    np.floor_divide(top, _E4, out=groups[0])
    np.subtract(top, groups[0] * _E4, out=groups[1])
    np.floor_divide(low, _E8, out=groups[2])
    rest = low - groups[2] * _E8
    np.floor_divide(rest, _E4, out=groups[3])
    np.subtract(rest, groups[3] * _E4, out=groups[4])
    half[:] = _QUADS[groups].T
    return groups


def _float_field(x, words, sep):
    """Write ``%.17g`` of the fixed-notation entries of ``x``, and of its
    zeros, into ``words`` (n x 6) after the separator ``sep`` (0 or 1) and
    return the mask of entries written."""
    a = np.abs(x)
    fixed = (a >= 1e-4) & (a < 1e17)
    zero = a == 0.0
    a = np.where(fixed, a, 1.0)  # no warning from the rows printed by %
    k = 16 - np.floor(np.log10(a)).astype(np.intp)
    np.clip(k, 0, 20, out=k)
    m = _significand(a, k)
    off = np.flatnonzero((m < _E16) | (m >= _E17))
    if off.size:
        k[off] += np.where(m[off] < _E16, 1, -1)
        m[off] = _significand(a[off], k[off])
    m[zero] = 0  # prints as "0": k = 16 there, where a = 1.0 put it
    # m's digits fill both slots, [3, 20) of each; the masks keep the
    # integer part in the first and the decimals in the second.
    half = words.view(np.uint32)
    half[:, 0] = _SIGN[sep][np.signbit(x).view(np.uint8)]
    groups = _slot(m, half[:, 1:6])
    half[:, 6] = _DOT
    half[:, 7:] = half[:, 1:6]
    end = _END[groups + _END_OFFSET].max(axis=0)
    decimals = (20 - k) * 21 + end
    for w in range(3):
        words[:, w] &= _WHOLE[w][k]
        words[:, 3 + w] &= _DECIMALS[w][decimals]
    return fixed | zero


def _int_field(v, words, sep):
    """Write ``%d`` of the entries of ``v`` with |v| < 1e17 into ``words``
    (n x 3) after the separator ``sep`` and return the mask of entries
    written."""
    inside = (v > -_E17) & (v < _E17)
    a = np.abs(np.where(inside, v, 0))
    half = words.view(np.uint32)
    half[:, 0] = _SIGN[sep][(v < 0).view(np.uint8)]
    _slot(a, half[:, 1:])
    zeros = 19 - np.searchsorted(_INT_POW10, a, "right")
    for w in range(3):
        words[:, w] &= _INTEGER[w][zeros]
    return inside


def format_rows(columns) -> str:
    """The CSV lines of equal-length 1-d ``columns``: ``%d`` for integer
    columns, ``%.17g`` for the others, ``,`` between fields, ``\\n`` after
    each row.  The text equals ``template % row`` for every row."""
    columns = [np.asarray(c) for c in columns]
    ints = [c.dtype.kind in "iu" for c in columns]
    # An integer column that int64 cannot hold (uint64) raises TypeError.
    columns = [c.astype(np.int64, casting="safe", copy=False) if i
               else c.astype(float, copy=False)
               for c, i in zip(columns, ints)]
    template = ",".join("%d" if i else "%.17g" for i in ints) + "\n"
    n = columns[0].size
    words = np.empty((n, sum(3 if i else 6 for i in ints) + 1), np.uint64)
    ok = np.ones(n, bool)
    start = 0
    for j, (c, i) in enumerate(zip(columns, ints)):
        field = _int_field if i else _float_field
        width = 3 if i else 6
        ok &= field(c, words[:, start:start + width], min(j, 1))
        start += width
    words[:, -1] = _NEWLINE
    pieces = []
    done = 0
    for row in np.flatnonzero(~ok).tolist():
        pieces.append(words[done:row].tobytes())
        pieces.append((template % tuple(c[row].item() for c in columns)).encode())
        done = row + 1
    pieces.append(words[done:].tobytes())
    return b"".join(pieces).translate(None, b"\0").decode("ascii")


def write_table(stream, header, columns, comment=None):
    """Write one ``# comment`` line (if given), the ``header`` line and the
    rows of ``columns`` (see :func:`format_rows`) to the text ``stream``.

    Rows are formatted ``BLOCK_ROWS`` at a time, so memory stays flat in
    the row count."""
    columns = [np.asarray(c) for c in columns]
    if comment is not None:
        stream.write(f"# {comment}\n")
    stream.write(header + "\n")
    for start in range(0, columns[0].size, BLOCK_ROWS):
        stream.write(format_rows([c[start:start + BLOCK_ROWS] for c in columns]))

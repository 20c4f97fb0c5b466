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

**Layout.**  A row is a run of 32-bit words, each field only as wide as
its block's values need; a field is built as a words x rows matrix, so
that every pass over it is contiguous.  A field starts with the word
``[separator, sign, NUL, NUL]``.  The first field's separator is the
newline that ends the row before, so a block's text is its bytes less the
first, with a newline after.  An integer's digits follow in as many
4-digit groups as the block's largest ``|v|`` needs (snapshot ids take
two).  A float's integer part ``m // 10**k`` follows in ``g`` words,
``4 g - 1`` digits and the point, ``g`` set by the block's largest
integer part, and then one 20-digit slot of ``m`` (3 zeros, then its 17
digits), whose last ``k`` digits are the decimals.  A snapshot row, ids
below 1e8 and radii below 1000, takes 40 bytes.  Each 4-digit group is
copied from a lookup table as one word; every word is built from bytes,
so nothing depends on byte order.  Then leading zeros (an empty integer
part keeps its ``0``), the decimals past their last nonzero digit and
the point before empty decimals are cleared to NUL by masks looked up by
digit count and by the position of the last nonzero digit, and the NUL
bytes are deleted.  A row with any other value (subnormal, non-finite,
or outside those ranges) is printed by the ``%`` template, so every value
prints as ``%`` prints it.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

__all__ = ["format_rows", "write_table"]

BLOCK_ROWS = 2048  # rows formatted at once; bounds the temporaries

_E4, _E16, _E17 = 10**4, 10**16, 10**17


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


def _keep(flags):
    """Keep masks from per-byte flags (entries x 20), as 5 x entries words."""
    return (flags.astype(np.uint8) * np.uint8(255)).view(np.uint32).T.copy()


# Each table masks a field's 20-byte region, or its last 4 g bytes when
# the block's region is g words wide.
_k = np.arange(21)
_at = np.arange(20)
# An integer, by its digit count d (0 for 0, which keeps one digit).
_INTEGER = _keep(_at >= 20 - np.maximum(_k, 1)[:, None])
# A float's integer part, by k + 21 (decimals not empty): its 17 - k
# digits (one 0 when k >= 17) before the point in the region's last byte,
# and the point when decimals follow.
_whole = (_at >= 19 - np.maximum(17 - _k, 1)[:, None]) & (_at < 19)
_WHOLE = _keep(np.concatenate([_whole, _whole | (_at == 19)]))
# A float's decimals, by 21 start + end: the digits [start, end) of its
# slot, start = 20 - k and end past the last nonzero digit.
_start, _end = np.divmod(np.arange(21 * 21), 21)
_DECIMALS = _keep((_at >= _start[:, None]) & (_at < _end[:, None]))
del _k, _at, _whole, _start, _end
# [separator, sign, NUL, NUL], by (separator, negative); the first field's
# separator is the newline of the row before.
_SIGN = np.frombuffer(b"\n\0\0\0" b"\n-\0\0" b",\0\0\0" b",-\0\0",
                      np.uint32).reshape(2, 2)

_POW10 = np.array([float(10**k) for k in range(21)])  # each exact


def _split(a):
    """Veltkamp's split: a = hi + lo exactly, each half 26 bits."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)
_INT_POW10 = 10 ** np.arange(18, dtype=np.int64)


def _significand(a, k):
    """round_half_even(a * 10**k) for 1e-4 <= a < 1e17, 0 <= k <= 20."""
    hi = a * _POW10[k]
    a_hi, a_lo = _split(a)
    p_hi, p_lo = _POW10_HI[k], _POW10_LO[k]
    lo = ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _groups(v, count):
    """The ``count`` 4-digit groups of 0 <= v < 10**(4 count), most
    significant first, as a count x n array."""
    groups = np.empty((count, v.size), np.int64)
    for j in range(count - 1, 0, -1):
        high = v // _E4
        np.subtract(v, high * _E4, out=groups[j])
        v = high
    groups[0] = v
    return groups


def _float_field(x, sep):
    """The words of ``%.17g`` of the fixed-notation entries of ``x`` and of
    its zeros after the separator ``sep`` (0 or 1), one row of ``x.size``
    per word, and the mask of the entries written."""
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
    slot = _groups(m, 5)
    start = 20 - k
    end = _END[slot + _END_OFFSET].max(axis=0)
    # The integer part, then a 0 where the point goes: 4 g digits.
    whole = m // _INT_POW10[np.minimum(k, 17)]
    g = (max(17 - int(k.min()), 1) + 4) // 4
    words = np.empty((6 + g, x.size), np.uint32)
    words[0] = np.where(np.signbit(x), *_SIGN[sep, ::-1])
    np.take(_QUADS, _groups(whole * 10, g), out=words[1:1 + g])
    words[g].view(np.uint8)[3::4] = ord(".")
    np.take(_QUADS, slot, out=words[1 + g:])
    words[1:1 + g] &= np.take(_WHOLE[5 - g:], k + 21 * (end > start), axis=1)
    words[1 + g:] &= np.take(_DECIMALS, 21 * start + end, axis=1)
    return fixed | zero, words


def _int_field(v, sep):
    """The words of ``%d`` of the entries of ``v`` with |v| < 1e17 after
    the separator ``sep``, one row of ``v.size`` per word, and the mask of
    the entries written."""
    inside = (v > -_E17) & (v < _E17)
    a = np.abs(np.where(inside, v, 0))
    digits = _INT_POW10.searchsorted(a, "right")
    g = (max(int(digits.max()), 1) + 3) // 4
    words = np.empty((1 + g, v.size), np.uint32)
    words[0] = np.where(v < 0, *_SIGN[sep, ::-1])
    np.take(_QUADS, _groups(a, g), out=words[1:])
    words[1:] &= np.take(_INTEGER[5 - g:], digits, axis=1)
    return inside, words


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
    if not columns[0].size:
        return ""
    template = "\n" + ",".join("%d" if i else "%.17g" for i in ints)
    fields = [(_int_field if i else _float_field)(c, min(j, 1))
              for j, (c, i) in enumerate(zip(columns, ints))]
    ok = reduce(np.logical_and, [written for written, _ in fields])
    rows = np.concatenate([w for _, w in fields]).T
    pieces = []
    done = 0
    for row in np.flatnonzero(~ok).tolist():
        pieces.append(rows[done:row].tobytes())
        pieces.append((template % tuple(c[row].item() for c in columns)).encode())
        done = row + 1
    pieces.append(rows[done:].tobytes())
    # Each row starts with its newline: drop the first and end the last.
    return b"".join(pieces).translate(None, b"\0")[1:].decode("ascii") + "\n"


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

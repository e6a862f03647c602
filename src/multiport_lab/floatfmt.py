"""Float64 values as CSV text, byte-identical to Python's ``repr``, for
whole arrays at once (`format_rows`, or `iter_rows` for the bytes).

``repr(float)`` is the shortest decimal that reads back as the same double,
the nearest such decimal when several have that length (ties to an even last
digit), laid out as ``0.000ddd``, ``dd.ddd``, ``ddd000.0`` or ``d.ddde±XX``.
`iter_rows` builds those bytes with numpy integer arithmetic, 2048 rows of a
table at a time, in two steps:

- Digits, by Schubfach (R. Giulietti, "The Schubfach way to render doubles",
  2020): the value and both ends of its rounding interval are scaled by a
  128-bit power of ten with round-to-odd, which leaves the shortest nearest
  decimal ``d * 10**e`` among four candidates.
- Layout, by word arithmetic: each value owns four ``uint64`` words, byte j
  of a word being its bits 8j..8j+7.  The first holds the sign, the ``0.``
  and zeros of ``0.000ddd`` and the first digit.  The next two hold the
  other 16 digits in ASCII, moved up one byte from the decimal point's place
  to let the '.' in, and cut at the value's length.  The last holds the byte
  moved out and the exponent.  The separator follows the value's last byte.
  Zeros, infinities and nans are laid out as 0.5, and their first word is
  then swapped.  The bytes a layout leaves zero are dropped in one pass.

Both steps work in place in one `_Workspace` of scratch arrays per thread,
made on first use: a ufunc writes to its last argument (``out=`` for
``np.maximum`` and ``np.minimum``) and a ``take`` to ``out=``, so a slice
allocates almost nothing and the allocator neither grows nor returns pages.
They avoid numpy's slow paths, masked ufuncs (``where=``) and ``np.divmod``:
a choice between two values is arithmetic on a bool.

Every integer operand is an explicit ``np.uint64``/``np.int64`` array or
scalar: numpy < 2 promotes ``uint64`` mixed with a Python int or an ``int64``
to float64, which would lose bits.  No shift count reaches 64.  The tables
are built on first use, so commands that write no CSV do not pay for them.
"""

from __future__ import annotations

import functools
import sys
import threading

import numpy as np

_U = np.uint64
_I = np.int64
_M32 = _U(0xFFFFFFFF)
_NDIG = 17  # a double's shortest decimal has at most 17 digits

#: decimal exponents e of the 128-bit powers of ten g(e): e = -k for the
#: k = floor(log10 2**q) of every double's binary exponent q
_E_MIN, _E_MAX = -292, 324
#: least and greatest exponent of a double's scientific form
_X_MIN, _X_MAX = -324, 308
#: repr writes a value 0.d1d2... * 10**decpt in fixed notation for
#: _FIX_MIN <= decpt <= _FIX_MAX, else in scientific notation
_FIX_MIN, _FIX_MAX = -3, 16
#: rows of a table formatted per step, and bytes per step of the drop (its
#: kept bytes stay below malloc's mmap threshold)
_SLICE_ROWS, _DROP = 2048, 65536
#: length codes per kind of column (see `_Tables`)
_LENGTHS = 177

_local = threading.local()  # each thread's _Workspace


def format_rows(table) -> str:
    """The CSV lines of the 2-D float64 `table`: each value as its ``repr``,
    ',' between the values of a row and '\\n' after each row."""
    return "".join([str(chunk, "ascii") for chunk in iter_rows(table)])


def iter_rows(table):
    """The bytes of `format_rows(table)`, one slice of rows at a time.  Each
    chunk is a view of this thread's workspace, valid until the thread
    formats its next slice."""
    table = np.ascontiguousarray(table, dtype=np.float64)
    bits, cols, step = table.reshape(-1).view(_U), table.shape[1], _SLICE_ROWS * table.shape[1]
    if bits.size == 0:
        return
    ws = getattr(_local, "workspace", None)
    if ws is None or ws.size < min(step, bits.size):
        ws = _local.workspace = _Workspace(min(step, bits.size))
    for i in range(0, bits.size, step):
        yield _format_slice(ws, bits[i:i + step], cols)


class _Workspace:
    """Scratch arrays of `_format_slice` for up to `size` values."""

    def __init__(self, size):
        self.size, self.f, self.out = size, np.empty((2, size)), np.empty(size * 25, np.uint8)
        self.u, self.b = np.empty((21, size), dtype=_U), np.empty((10, size), dtype=bool)
        self.words, self.keep = np.empty((size, 4), dtype=_U), np.empty(size * 32, dtype=bool)


def _format_slice(ws, bits, cols):
    """The CSV bytes of the doubles `bits` (whole rows of `cols` values, as
    uint64), as a view of ``ws.out``."""
    t, n = _tables(), bits.size
    u, b, f = ws.u[:, :n], ws.b[:, :n], ws.f[:, :n]
    i, tmp, frac, c = u.view(_I), u[0], u[1], u[2]
    zero, nonfinite, nan, up_in, wp_in, short, u_in, w_in, up, b10 = b
    inf2 = _U(0x7FF << 53)  # an infinity's bits shifted left by one
    np.equal(np.left_shift(bits, _U(1), tmp), _U(0), zero)
    np.greater_equal(tmp, inf2, nonfinite)
    np.greater(tmp, inf2, nan)
    np.subtract(_U(0x3FE0000000000000), bits, tmp)  # those three take 0.5's bits
    tmp *= np.logical_or(zero, nonfinite, b10)
    tmp += bits
    np.bitwise_and(tmp, _U((1 << 52) - 1), frac)
    biased = np.bitwise_and(np.right_shift(tmp, _U(52), tmp), _U(0x7FF), tmp)

    # Schubfach: the value is c * 2**q
    np.bitwise_or(np.left_shift(np.minimum(biased, _U(1), out=c), _U(52), c), frac, c)
    # Below a power of two the next double down is half as far away.
    irregular = np.logical_and(np.equal(frac, _U(0), b10), np.greater(biased, _U(1), up),
                               up_in)
    q = np.maximum(biased, _U(1), out=biased).view(_I)
    q -= _I(1075)
    # k = floor(log10 2**q), or floor(log10 (3/4 * 2**q)) if irregular
    k = np.multiply(q, _I(1262611), i[3])
    k -= np.multiply(irregular, _I(524031), i[4])
    k >>= _I(22)
    # h = q + floor(log2 10**-k) + 1, in 1..4; the ends' shifts are h + 1 -
    # irregular and h + 1
    ends = np.right_shift(np.multiply(k, _I(-1741647), i[6]), _I(19), i[4:6])
    ends += q
    ends += _I(2)
    ends[0] -= irregular
    g = t.g.take(np.subtract(_I(-_E_MIN), k, q), axis=1, out=u[6:8], mode="clip")
    # The value and its interval's ends, scaled by 10**-k and times 4,
    # rounded to odd.  An even c reads back from either end.
    vbl, vb, vbr = _scaled_interval(g, c, ends.view(_U), u[8:21], b[3:6])
    tmp = np.bitwise_and(c, _U(1), u[0])
    lower, upper = np.add(vbl, tmp, vbl), np.subtract(vbr, tmp, vbr)
    # One digit shorter: at most one multiple of 10 lies in the interval.
    s = np.right_shift(vb, _U(2), u[1])
    sp40 = np.multiply(np.floor_divide(s, _U(10), u[2]), _U(40), u[2])
    np.less_equal(lower, sp40, up_in)
    np.less_equal(np.add(sp40, _U(40), tmp), upper, wp_in)
    np.logical_and(np.not_equal(up_in, wp_in, short), np.greater_equal(s, _U(10), b10),
                   short)
    # Otherwise s or s + 1: the one inside, or the nearer, ties to even:
    # s + 1 is nearer or tied with an odd s if vb + (s & 1) > 4s + 2.
    s4 = np.left_shift(s, _U(2), u[4])
    np.less_equal(lower, s4, u_in)
    np.less_equal(np.add(s4, _U(4), tmp), upper, w_in)
    np.add(np.bitwise_and(s, _U(1), tmp), vb, tmp)
    np.greater(tmp, np.add(s4, _U(2), s4), up)
    up &= np.greater_equal(w_in, u_in, b10)  # not if only s is inside
    up |= np.greater(w_in, u_in, b10)  # but if only s + 1 is
    d = np.add(s, up, u[5])
    sp40 >>= _U(2)
    sp40 += np.multiply(wp_in, _U(10), tmp)
    sp40 -= d
    d += np.multiply(sp40, short, sp40)  # the shortest nearest decimal is d * 10**k

    # Layout.  d has as many digits as 2**floor(log2 d) or one more, that
    # power of two read from float(d)'s exponent (which may round up to a
    # power of two, but not past a power of ten).  `full` is d left-aligned
    # to 17 digits: its first digit, and two halves of two quads.
    e2 = np.right_shift(np.multiply(d.view(_I), 2.0**-1000, f[0]).view(_U), _U(52), u[6])
    np.greater_equal(d, t.p10.take(e2.view(_I), out=tmp, mode="clip"), b10)
    e2 <<= _U(1)
    e2 += b10
    t.digits.take(e2.view(_I), axis=1, out=u[7:9], mode="clip")
    decpt = np.add(k, i[7], k)
    full = np.multiply(d, u[8], d)
    lead = np.floor_divide(full, _U(10**16), u[6])
    full -= np.multiply(lead, _U(10**16), tmp)
    halves, quads = u[0:2], u[7:9]
    np.floor_divide(full, _U(10**8), halves[0])
    np.subtract(full, np.multiply(halves[0], _U(10**8), halves[1]), halves[1])
    np.floor_divide(halves, _U(10**4), quads)
    halves -= np.multiply(quads, _U(10**4), u[9:11])
    # digits 2..9 and 10..17 as ASCII words
    w = t.quads.take(quads.view(_I), out=u[9:11], mode="clip")
    w |= np.left_shift(t.quads.take(halves.view(_I), out=u[11:13], mode="clip"), _U(32),
                       u[11:13])
    # top = 127 + the count of those 16 digits up to the last that is not
    # '0', or 0 if all are: x = w ^ '0'... has bytes <= 9, so float(x) has
    # the exponent 8j..8j+3 of its highest nonzero byte j exactly, and the
    # top 9 bits of 2.0 * x and 2.0**65 * x read 128 + j and 136 + j.
    x = np.bitwise_xor(w, _U(0x3030303030303030), u[0:2])
    np.right_shift(np.multiply(x.view(_I), t.scales, f).view(_U), _U(55), x)
    top = np.maximum(x[0], x[1], out=u[0])

    # What the point's place decides, and then the length code and the
    # column: see `_Tables`.
    exponent = t.exponent.take(np.subtract(decpt, _I(_X_MIN + 1), i[1]), out=u[19], mode="clip")
    v = t.by_point.take(np.subtract(decpt, _I(_FIX_MIN - 1), i[1]), axis=1, out=u[11:19],
                        mode="clip")
    length = np.maximum(np.add(top, v[0], top), v[1], out=top)
    length.reshape(-1, cols)[:, -1] += _U(_LENGTHS)
    lo = np.bitwise_and(w, v[2:4], u[1:3])
    w ^= lo  # from the '.' on, to move up a byte
    lo |= v[4:6]
    lo |= np.left_shift(w, _U(8), u[3:5])
    w >>= _U(56)
    lo[1] |= w[0]
    cut = t.by_length.take(length.view(_I), axis=1, out=u[11:17], mode="clip")
    lo &= cut[0:2]
    words = ws.words[:n]
    np.bitwise_or(lo, cut[3:5], words[:, 1:3].T)
    last = np.bitwise_and(w[1], cut[2], w[1])
    last |= cut[5]
    np.bitwise_or(last, exponent, words[:, 3])
    # the sign (none for a nan), the prefix, the first digit, and the
    # first words of 0.0, inf and nan
    sign = v[6]
    sign *= np.greater(np.right_shift(bits, _U(63), tmp), nan, b10)
    sign |= v[7]
    sign |= np.left_shift(lead, _U(56), lead)
    special = np.add(zero, nan, i[3], dtype=_I)  # 1, 2 and 3 for 0.0, inf and nan
    special += np.multiply(nonfinite, _I(2), i[4])
    np.bitwise_xor(sign, t.specials.take(special, out=tmp, mode="clip"), words[:, 0])

    if sys.byteorder == "big":
        words.byteswap(inplace=True)
    src, keep, end = words.view(np.uint8).reshape(-1), ws.keep[:32 * n], 0
    np.not_equal(src, np.uint8(0), keep)
    for j in range(0, src.size, _DROP):
        kept = src[j:j + _DROP][keep[j:j + _DROP]]
        ws.out[end:end + kept.size] = kept
        end += kept.size
    return memoryview(ws.out[:end])


def _scaled_interval(g, c, ends, u, b):
    """Round-to-odd floor(g * cp / 2**128) for cp = (4c - 2 + irregular,
    4c, 4c + 2) << h, for g = g[1] * 2**64 + g[0]: the top word of the
    192-bit product, its last bit set if the word below it is above 1.
    `ends` are h + 1 - irregular and h + 1, and the interval's ends are
    P -+ g << ends for P = g * (2c << ends[1]), added in 192 bits, in the
    scratch rows `u` (uint64) and `b` (bool)."""
    cp, (x_hi, p2), (p0, p1), (carry, b1, b2) = u[0], u[1:3], u[3:5], b
    np.left_shift(np.left_shift(c, _U(1), cp), ends[1], cp)
    _mul(g, cp, u[1:3], u[3:5], u[5:13])
    p1 += x_hi
    p2 += np.less(p1, x_hi, carry)
    # g << s for both ends' s, 0 < s < 64, as three words each
    r, d2, d1, d0 = u[5:7], u[7:9], u[9:11], u[11:13]
    np.subtract(_U(64), ends, r)
    np.right_shift(g[1], r, d2)
    np.bitwise_or(np.left_shift(g[1], ends, d1), np.right_shift(g[0], r, d0), d1)
    np.left_shift(g[0], ends, d0)

    borrow = np.less(p0, d0[0], carry)
    low1, top = np.subtract(p1, d1[0], r[0]), np.subtract(p2, d2[0], r[1])
    top -= np.logical_or(np.less(p1, d1[0], b1), np.less(low1, borrow, b2), b1)
    low1 -= borrow
    vbl = np.bitwise_or(top, np.greater(low1, _U(1), b1), cp)

    np.less(np.add(p0, d0[1], r[1]), d0[1], carry)
    low1, top = np.add(p1, d1[1], r[0]), np.add(p2, d2[1], r[1])
    top += np.less(low1, d1[1], b1)
    low1 += carry
    top += np.less(low1, carry, b1)
    vbr = np.bitwise_or(top, np.greater(low1, _U(1), b1), top)
    return vbl, np.bitwise_or(p2, np.greater(p1, _U(1), b1), p2), vbr


def _mul(a, b, high, low, s):
    """High and low 64 bits of the 128-bit products a * b, by 32-bit limbs,
    into `high` and `low` (shaped as `a`, two rows), with the eight scratch
    rows `s`."""
    np.multiply(a, b, low)
    a0, a1 = np.bitwise_and(a, _M32, s[0:2]), np.right_shift(a, _U(32), s[2:4])
    lo_hi, mask = s[4:6], s[6:8]
    b0, b1 = np.bitwise_and(b, _M32, mask[0]), np.right_shift(b, _U(32), mask[1])
    np.multiply(a1, b1, high)
    np.multiply(a0, b1, lo_hi)
    a1 *= b0  # hi_lo
    a0 *= b0  # lo_lo, and then mid = (lo_lo >> 32) + (hi_lo & M32) + (lo_hi & M32)
    a0 >>= _U(32)
    a0 += np.bitwise_and(a1, _M32, mask)
    a0 += np.bitwise_and(lo_hi, _M32, mask)
    for x in (a1, lo_hi, a0):  # high += (hi_lo >> 32) + (lo_hi >> 32) + (mid >> 32)
        x >>= _U(32)
        high += x


def _word(chars, at=0):
    """The integer whose bytes from `at` on are `chars`."""
    return int.from_bytes(chars, "little") << 8 * at


def _words(value, count):
    """The low `count` 64-bit words of `value`."""
    return [value >> 64 * j & 2**64 - 1 for j in range(count)]


class _Tables:
    """The constant tables of `format_rows`."""

    def __init__(self):
        # g(e) = floor(10**e * 2**(127 - floor(log2 10**e))) + 1, in [2**127, 2**128)
        self.g = np.empty((2, _E_MAX - _E_MIN + 1), dtype=_U)
        for e in range(_E_MIN, _E_MAX + 1):  # 10**e for e < 0 is no power of two
            s = 127 - ((10**e).bit_length() - 1 if e >= 0 else -(10**-e).bit_length())
            g = (10**max(e, 0) << max(s, 0) >> max(-s, 0)) // 10**max(-e, 0) + 1
            self.g[:, e - _E_MIN] = _words(g, 2)
        # by float(d * 2**-1000)'s biased exponent 23 + floor(log2 d): the
        # least power of ten above 2**floor(log2 d); by twice that exponent,
        # plus one if d reaches that power: d's digit count, and the power of
        # ten that left-aligns d to 17 digits
        nd = [len(str(2**max(e - 23, 0))) for e in range(81)]
        self.p10 = np.array([10**m for m in nd], dtype=_U)
        nd = [m + up for m in nd for up in (0, 1)]
        self.digits = np.array([nd, [10**max(_NDIG - m, 0) for m in nd]], dtype=_U)
        m, self.scales = np.arange(10**4, dtype=_U), np.array([[2.0], [2.0**65]])
        self.quads = sum((m // _U(10**(3 - j)) % _U(10) + _U(48)) << _U(8 * j) for j in range(4))
        # by decpt - 1 - _X_MIN, the exponent; by decpt - _FIX_MIN + 1 (0, 21
        # in scientific form): the length code's increment and least value,
        # the bytes of digits 2..17 that stay put and the '.' (2 words each;
        # the '.' goes before digit at + 2, nowhere at 16), sign and prefix
        self.exponent = np.array([0 if _FIX_MIN <= x + 1 <= _FIX_MAX else
                                  _word(b"e%+03d" % x, 3 - (abs(x) >= 100))
                                  for x in range(_X_MIN, _X_MAX + 1)], dtype=_U)
        self.by_point = np.empty((8, _FIX_MAX - _FIX_MIN + 3), dtype=_U)
        for decpt in range(_FIX_MIN - 1, _FIX_MAX + 2):
            fixed = _FIX_MIN <= decpt <= _FIX_MAX
            at = 0 if not fixed else 16 if decpt <= 0 else decpt - 1
            pre = b"0." + b"0" * -decpt if fixed and decpt <= 0 else b""
            self.by_point[:, decpt - _FIX_MIN + 1] = (
                *((33, 160) if not fixed else (1, 128 + decpt) if decpt > 0 else (0, 0)),
                *_words((1 << 8 * at) - 1, 2), *_words(_word(b".", at), 2),
                _word(b"-", 6 - len(pre)), _word(b"0", 7) | _word(pre, 7 - len(pre)))
        # by the length code m = max(top + increment, least value): 127 +
        # the bytes kept of digits 2..17 and the '.' (in scientific form
        # 159 +, or 160 for none), _LENGTHS more in the last column: the cut
        # and the separator, 3 words each
        self.by_length = np.empty((6, 2 * _LENGTHS), dtype=_U)
        for j in range(2 * _LENGTHS):
            m, sep = j % _LENGTHS, (b",", b"\n")[j // _LENGTHS]
            kept = max(m - 127, 0) if m < 145 else m - 159 if m > 160 else 0
            self.by_length[:, j] = (*_words((1 << 8 * kept) - 1, 3),
                                    *_words(_word(sep, 23 if m >= 145 else kept), 3))
        # the first words of 0.5 to those of 0.0, inf and nan
        self.specials = np.array([0, 5 << 56] + [_word(b"0.5", 5) ^ _word(w, 5)
                                                  for w in (b"inf", b"nan")], dtype=_U)


@functools.cache
def _tables() -> _Tables:
    return _Tables()

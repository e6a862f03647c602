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
- Layout: every value gets a 32-byte source row (its digits, its exponent,
  its sign, the constant characters and its separator), and a template per
  layout, chosen by the digit count and the decimal point's place, gathers
  the output bytes from that row, 1024 values at a time.  Unused template
  slots gather a zero byte, and the zero bytes are dropped.

Both steps work in place (ufunc ``out=``, ``np.take(..., out=)``) in one
`_Workspace` of scratch arrays per thread, made on first use: a slice
allocates almost nothing, so the allocator neither grows nor returns pages.

Every integer operand is an explicit ``np.uint64``/``np.int64`` array or
scalar: numpy < 2 promotes ``uint64`` mixed with a Python int or an ``int64``
to float64, which would lose bits.  The tables are built on first use, so
commands that write no CSV do not pay for them.
"""

from __future__ import annotations

import functools
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

# The source row: byte offsets of what a template gathers.  The 17 digits
# sit at _DIG.._DIG + 16, the exponent as sign, hundreds (a zero byte below
# 100), tens and units at _XSIGN.._XSIGN + 3, and the last 8 bytes are the
# constant characters and the separator.
_PAD, _SIGN, _ZERO, _DIG = 0, 1, 2, 3
_XSIGN = 20
_DOT, _E, _SEP, _LI, _LN, _LF, _LA = 24, 25, 26, 27, 28, 29, 30
_ROW = 32
_TAIL = b".e?infa\0"  # bytes 24..31, '?' standing for the separator
#: output slots per value: sign, 17 digits, '.', 'e', exponent, separator
_WIDTH = 25

# Template keys: repr writes a decimal point position decpt (value =
# 0.d1d2... * 10**decpt) in fixed notation for -4 < decpt <= 16, else in
# scientific notation.  With decpt clipped to one step beyond those bounds,
# the key is (decpt + 4) * 17 + nd - 1 for nd significant digits; the special
# values follow.
_FIX_MIN, _FIX_MAX = -3, 16
_KEY_ZERO = (_FIX_MAX - _FIX_MIN + 3) * _NDIG
_KEY_INF, _KEY_NAN = _KEY_ZERO + 1, _KEY_ZERO + 2
#: rows of a table formatted per step, and values laid out per gather
_SLICE_ROWS, _GATHER = 2048, 1024

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
        self.size, g = size, min(size, _GATHER)
        self.u, self.b = np.empty((19, size), dtype=_U), np.empty((11, size), dtype=bool)
        self.row = np.zeros((size, _ROW), dtype=np.uint8)  # _PAD stays zero
        self.row[:, _ZERO] = ord("0")
        self.codes, self.words = np.empty((size, 5), _U), np.empty((size, 5), np.uint32)
        self.index = np.empty((g, _WIDTH), dtype=np.intp)
        self.base = np.arange(0, g * _ROW, _ROW, dtype=np.intp)[:, None]
        self.gathered, self.keep = np.empty((g, _WIDTH), np.uint8), np.empty((g, _WIDTH), bool)
        self.nonzero, self.out = np.empty((size, _NDIG), bool), np.empty(size * _WIDTH, np.uint8)


def _format_slice(ws, bits, cols):
    """The CSV bytes of the doubles `bits` (whole rows of `cols` values, as
    uint64), as a view of ``ws.out``."""
    t, n = _tables(), bits.size
    u, b, i = ws.u[:, :n], ws.b[:, :n], ws.u[:, :n].view(_I)
    frac, biased, tmp, c = *u[:3], u[14]  # rows 0..13 are also _scaled_interval's scratch
    zero, nonfinite, nan, irregular, up_in, wp_in, short, u_in, w_in, up, b10 = b
    np.bitwise_and(bits, _U((1 << 52) - 1), out=frac)
    np.bitwise_and(np.right_shift(bits, _U(52), out=biased), _U(0x7FF), out=biased)
    np.equal(np.left_shift(bits, _U(1), out=tmp), _U(0), out=zero)
    np.equal(biased, _U(0x7FF), out=nonfinite)
    np.logical_and(np.not_equal(frac, _U(0), out=nan), nonfinite, out=nan)
    np.logical_or(zero, nonfinite, out=b10)  # shaped as 1.0: their templates take nothing of it
    np.copyto(frac, _U(0), where=b10)
    np.copyto(biased, _U(1023), where=b10)

    # Schubfach: the value is c * 2**q
    np.bitwise_or(frac, _U(1 << 52), out=c)
    np.copyto(c, frac, where=np.equal(biased, _U(0), out=b10))
    # Below a power of two the next double down is half as far away.
    np.logical_and(np.equal(frac, _U(0), out=irregular), np.greater(biased, _U(1), out=b10),
                   out=irregular)
    q = np.maximum(biased, _U(1), out=biased).view(_I)
    q -= _I(1075)
    # k = floor(log10 2**q), or floor(log10 (3/4 * 2**q)) if irregular
    k = np.multiply(q, _I(1262611), out=i[15])
    np.subtract(k, _I(524031), out=k, where=irregular)
    k >>= _I(22)
    # h = q + floor(log2 10**-k) + 1, in 1..4
    h = np.right_shift(np.multiply(k, _I(-1741647), out=i[16]), _I(19), out=i[16])
    h += q
    h += _I(1)
    g = np.subtract(_I(-_E_MIN), k, out=i[0])
    gh, gl = np.take(t.g_hi, g, out=u[17], mode="clip"), np.take(t.g_lo, g, out=u[18], mode="clip")

    # The value and its rounding interval's ends, scaled by 10**-k and
    # times 4, rounded to odd: 4*c*2**q and (4*c -+ 2)*2**q, or 4*c - 1 for
    # an irregular lower end.
    vbl, vb, vbr = _scaled_interval(gh, gl, c, h.view(_U), irregular, u[:14], b[4:])
    # An even c reads back from either end of its interval.
    tmp = np.bitwise_and(c, _U(1), out=u[0])
    lower, upper = np.add(vbl, tmp, out=vbl), np.subtract(vbr, tmp, out=vbr)
    # One digit shorter: at most one multiple of 10 lies in the interval.
    s = np.right_shift(vb, _U(2), out=u[1])
    sp40 = np.multiply(np.floor_divide(s, _U(10), out=u[2]), _U(40), out=u[2])
    np.less_equal(lower, sp40, out=up_in)
    np.less_equal(np.add(sp40, _U(40), out=tmp), upper, out=wp_in)
    np.logical_and(np.not_equal(up_in, wp_in, out=short), np.greater_equal(s, _U(10), out=b10),
                   out=short)
    # Otherwise s or s + 1: the one inside, or the nearer, ties to even:
    # s + 1 is nearer or tied with an odd s if vb + (s & 1) > 4s + 2.
    s4 = np.left_shift(s, _U(2), out=u[3])
    np.less_equal(lower, s4, out=u_in)
    np.less_equal(np.add(s4, _U(4), out=tmp), upper, out=w_in)
    np.add(np.bitwise_and(s, _U(1), out=tmp), vb, out=tmp)
    np.greater(tmp, np.add(s4, _U(2), out=s4), out=up)
    np.copyto(up, w_in, where=np.not_equal(u_in, w_in, out=b10))
    d = np.add(s, up, out=u[4])
    sp40 >>= _U(2)
    np.add(sp40, _U(10), out=sp40, where=wp_in)
    np.copyto(d, sp40, where=short)  # the shortest nearest decimal is d * 10**k

    # Layout: the digits left-aligned to 17, and the decimal point's place
    ndig = np.searchsorted(t.pow10, d, side="right")
    decpt = np.add(k, ndig, out=i[5])
    full = np.take(t.pow10, np.subtract(_I(_NDIG), ndig, out=i[6]), out=u[7], mode="clip")
    full *= d
    lead, rest, hi8, lo8 = u[8:12]
    codes = ws.codes[:n]  # table indices: four quads of digits, the exponent
    np.divmod(full, _U(10**16), out=(lead, rest))
    np.divmod(rest, _U(10**8), out=(hi8, lo8))
    np.divmod(hi8, _U(10**4), out=(codes[:, 0], codes[:, 1]))
    np.divmod(lo8, _U(10**4), out=(codes[:, 2], codes[:, 3]))
    np.add(decpt, _I(10**4 - 1 - _X_MIN), out=codes.view(_I)[:, 4])
    row = ws.row[:n]
    row.view(np.uint32)[:, 1:6] = np.take(t.codes, codes.view(_I), out=ws.words[:n], mode="clip")
    row[:, _DIG] = np.add(lead, _U(ord("0")), out=lead)
    row[:, _SIGN] = np.multiply(np.right_shift(bits, _U(63), out=lead), _U(ord("-")), out=lead)
    row.view(_U)[:, 3].reshape(-1, cols)[:] = np.where(np.arange(cols) == cols - 1, t.tail_nl,
                                                       t.tail_comma)

    # significant digits: 17 less the trailing zeros of `full`
    nonzero = np.not_equal(row[:, _DIG + _NDIG - 1:_DIG - 1:-1], np.uint8(ord("0")),
                           out=ws.nonzero[:n])
    key = np.clip(decpt, _I(_FIX_MIN - 1), _I(_FIX_MAX + 1), out=i[12])
    key *= _I(_NDIG)
    key -= np.argmax(nonzero, axis=1, out=i[13])
    key += _I((2 - _FIX_MIN) * _NDIG - 1)
    for mask, special in ((zero, _KEY_ZERO), (nonfinite, _KEY_INF), (nan, _KEY_NAN)):
        np.copyto(key, _I(special), where=mask)

    # Gather the bytes in sub-slices, and drop the templates' zero bytes.
    src, out, end = row.reshape(-1), ws.out, 0
    for j in range(0, n, _GATHER):
        m = min(n - j, _GATHER)
        index, gathered, keep = ws.index[:m], ws.gathered[:m], ws.keep[:m]
        np.take(t.templates, key[j:j + m], axis=0, out=index, mode="clip")
        index += ws.base[:m]
        np.take(src[j * _ROW:(j + m) * _ROW], index, out=gathered, mode="clip")
        kept = gathered[np.not_equal(gathered, np.uint8(0), out=keep)]
        out[end:end + kept.size] = kept
        end += kept.size
    return memoryview(out[:end])


def _scaled_interval(g_hi, g_lo, c, shift, irregular, u, b):
    """Round-to-odd floor(g * cp / 2**128) for cp = (4c - 2 + irregular,
    4c, 4c + 2) << shift, for g = g_hi * 2**64 + g_lo: the top word of the
    192-bit product, its last bit set if the word below it is above 1.
    The ends are P -+ g << (shift + 1) for P = g * (4c << shift), or
    P - g << shift for an irregular lower end, added in 192 bits, in the
    scratch arrays `u` (uint64) and `b` (bool)."""
    cp, x_hi, p0, p2, p1, s, r, d2, d1, d0, low1, top, vbl, vb = u[:14]
    carry, b1, b2 = b[-3:]
    np.left_shift(np.left_shift(c, _U(2), out=cp), shift, out=cp)
    _mul(g_lo, cp, x_hi, p0, (s, r, d2, d1))
    _mul(g_hi, cp, p2, p1, (s, r, d2, d1))
    p1 += x_hi
    p2 += np.less(p1, x_hi, out=carry)

    def limbs():  # g << s, 0 < s < 64, as three words
        np.subtract(_U(64), s, out=r)
        np.right_shift(g_hi, r, out=d2)
        np.bitwise_or(np.left_shift(g_hi, s, out=d1), np.right_shift(g_lo, r, out=d0), out=d1)
        np.left_shift(g_lo, s, out=d0)
    np.subtract(np.add(shift, _U(1), out=s), irregular, out=s)
    limbs()
    borrow = np.less(p0, d0, out=carry)
    np.subtract(p1, d1, out=low1)
    np.subtract(p2, d2, out=top)
    top -= np.logical_or(np.less(p1, d1, out=b1), np.less(low1, borrow, out=b2), out=b1)
    low1 -= borrow
    np.bitwise_or(top, np.greater(low1, _U(1), out=b1), out=vbl)

    np.add(shift, _U(1), out=s)
    limbs()
    np.less(np.add(p0, d0, out=top), d0, out=carry)
    np.add(p1, d1, out=low1)
    np.add(p2, d2, out=top)
    top += np.less(low1, d1, out=b1)
    low1 += carry
    top += np.less(low1, carry, out=b1)
    vbr = np.bitwise_or(top, np.greater(low1, _U(1), out=b1), out=top)
    np.bitwise_or(p2, np.greater(p1, _U(1), out=b1), out=vb)
    return vbl, vb, vbr


def _mul(a, b, high, low, s):
    """High and low 64 bits of the 128-bit products a * b, by 32-bit limbs,
    into `high` and `low`, with the four scratch arrays `s`."""
    np.multiply(a, b, out=low)
    a0, a1 = np.bitwise_and(a, _M32, out=s[0]), np.right_shift(a, _U(32), out=s[1])
    b0, b1 = np.bitwise_and(b, _M32, out=s[2]), np.right_shift(b, _U(32), out=s[3])
    np.multiply(a1, b1, out=high)
    a1 *= b0  # hi_lo
    b1 *= a0  # lo_hi
    a0 *= b0  # lo_lo, and then mid = (lo_lo >> 32) + (hi_lo & M32) + (lo_hi & M32)
    a0 >>= _U(32)
    a0 += np.bitwise_and(a1, _M32, out=b0)
    a0 += np.bitwise_and(b1, _M32, out=b0)
    for x in (a1, b1, a0):  # high += (hi_lo >> 32) + (lo_hi >> 32) + (mid >> 32)
        x >>= _U(32)
        high += x


class _Tables:
    """The constant tables of `format_rows`."""

    def __init__(self):
        # g(e) = floor(10**e * 2**(127 - floor(log2 10**e))) + 1, in [2**127, 2**128)
        g = []
        for e in range(_E_MIN, _E_MAX + 1):
            if e >= 0:
                p = 10**e
                shift = 127 - (p.bit_length() - 1)
                g.append((p << shift if shift >= 0 else p >> -shift) + 1)
            else:
                p = 10**-e  # not a power of two: floor(log2 10**e) = -bit_length
                g.append((1 << (127 + p.bit_length())) // p + 1)
        self.g_hi = np.array([v >> 64 for v in g], dtype=_U)
        self.g_lo = np.array([v & ((1 << 64) - 1) for v in g], dtype=_U)
        self.pow10 = np.array([10**i for i in range(_NDIG + 1)], dtype=_U)
        n = np.arange(10**4, dtype=np.uint16)  # the ASCII of 0000..9999 as 4-byte words
        quads = np.stack([(n // np.uint16(p) % np.uint16(10)).astype(np.uint8) + np.uint8(48)
                               for p in (1000, 100, 10, 1)], axis=1).view(np.uint32).ravel()
        exponents = np.frombuffer(b"".join(
            b"%c%c%02d" % (b"-+"[x >= 0], ord("0") + abs(x) // 100 if abs(x) >= 100 else 0,
                           abs(x) % 100)
            for x in range(_X_MIN, _X_MAX + 1)), dtype=np.uint32)
        self.codes = np.concatenate([quads, exponents])  # exponent x at 10**4 - _X_MIN + x
        self.tail_comma = np.frombuffer(_TAIL.replace(b"?", b","), dtype=_U)[0]
        self.tail_nl = np.frombuffer(_TAIL.replace(b"?", b"\n"), dtype=_U)[0]
        self.templates = np.array([_template(key) for key in range(_KEY_NAN + 1)],
                                  dtype=np.intp)


def _template(key: int) -> list:
    """Source-row offsets of the output bytes for template `key`, padded
    to _WIDTH with _PAD."""
    if key < _KEY_ZERO:
        decpt, nd = divmod(key, _NDIG)
        decpt, digits = decpt + _FIX_MIN - 1, list(range(_DIG, _DIG + nd + 1))
        if not _FIX_MIN <= decpt <= _FIX_MAX:  # d.ddde±XX
            out = [_SIGN, _DIG] + ([_DOT] + digits[1:] if nd else [])
            out += [_E, _XSIGN, _XSIGN + 1, _XSIGN + 2, _XSIGN + 3]
        elif decpt <= 0:  # 0.000ddd
            out = [_SIGN, _ZERO, _DOT] + [_ZERO] * -decpt + digits
        elif decpt < len(digits):  # dd.ddd
            out = [_SIGN] + digits[:decpt] + [_DOT] + digits[decpt:]
        else:  # ddd000.0
            out = [_SIGN] + digits + [_ZERO] * (decpt - len(digits)) + [_DOT, _ZERO]
    else:
        out = {_KEY_ZERO: [_SIGN, _ZERO, _DOT, _ZERO],
               _KEY_INF: [_SIGN, _LI, _LN, _LF],
               _KEY_NAN: [_LN, _LA, _LN]}[key]
    out.append(_SEP)
    return out + [_PAD] * (_WIDTH - len(out))


@functools.cache
def _tables() -> _Tables:
    return _Tables()

"""Float64 values as CSV text, byte-identical to Python's ``repr``, for
whole arrays at once (`format_rows`).

``repr(float)`` is the shortest decimal that reads back as the same double,
the nearest such decimal when several have that length (ties to an even last
digit), laid out as ``0.000ddd``, ``dd.ddd``, ``ddd000.0`` or ``d.ddde±XX``.
`format_rows` builds those bytes for a whole table at once with numpy
integer arithmetic, in two steps:

- Digits, by Schubfach (R. Giulietti, "The Schubfach way to render doubles",
  2020): the value and both ends of its rounding interval are scaled by a
  128-bit power of ten with round-to-odd, which leaves the shortest nearest
  decimal ``d * 10**e`` among four candidates.
- Layout: every value gets a 32-byte source row (its digits, its exponent,
  its sign, the constant characters and its separator), and a template per
  layout, chosen by the digit count and the decimal point's place, gathers
  the output bytes from that row.  Unused template slots gather a zero byte,
  and the zero bytes are dropped.

Every integer operand is an explicit ``np.uint64``/``np.int64`` array or
scalar: numpy < 2 promotes ``uint64`` mixed with a Python int or an ``int64``
to float64, which would lose bits.  The tables are built on first use, so
commands that write no CSV do not pay for them.
"""

from __future__ import annotations

import functools

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
# 0.d1d2... * 10**decpt) in fixed notation for -4 < decpt <= 16, as key
# (decpt + 3) * 17 + nd - 1 for nd significant digits; scientific notation
# follows by nd, then the special values.
_FIX_MIN, _FIX_MAX = -3, 16
_KEY_SCI = (_FIX_MAX - _FIX_MIN + 1) * _NDIG
_KEY_ZERO = _KEY_SCI + _NDIG
_KEY_INF = _KEY_ZERO + 1
_KEY_NAN = _KEY_ZERO + 2


def format_rows(table) -> str:
    """The CSV lines of the 2-D float64 `table`: each value as its ``repr``,
    ',' between the values of a row and '\\n' after each row."""
    table = np.ascontiguousarray(table, dtype=np.float64)
    rows, cols = table.shape
    t = _tables()
    bits = table.ravel().view(_U)
    frac = bits & _U((1 << 52) - 1)
    biased = (bits >> _U(52)) & _U(0x7FF)
    zero = (bits << _U(1)) == _U(0)
    nonfinite = biased == _U(0x7FF)
    special = zero | nonfinite
    nan = nonfinite & (frac != _U(0))
    frac[special] = _U(0)  # shaped as 1.0; their templates take nothing of it
    biased[special] = _U(1023)

    digits, exp10 = _shortest(frac, biased, t.g_hi, t.g_lo)
    ndig = np.searchsorted(t.pow10, digits, side="right")
    full = digits * t.pow10[_NDIG - ndig]  # the digits, left-aligned to 17
    decpt = ndig.astype(_I) + exp10

    src = np.empty((rows, cols, _ROW), dtype=np.uint8)
    src.view(_U)[..., 3] = np.where(np.arange(cols) == cols - 1, t.tail_nl, t.tail_comma)
    words = src.view(np.uint32).reshape(-1, _ROW // 4)
    lead = full // _U(10**16)
    rest = full - lead * _U(10**16)
    hi8 = rest // _U(10**8)
    lo8 = rest - hi8 * _U(10**8)
    hi4 = hi8 // _U(10**4)
    lo4 = lo8 // _U(10**4)
    words[:, 1] = t.quads[hi4]
    words[:, 2] = t.quads[hi8 - hi4 * _U(10**4)]
    words[:, 3] = t.quads[lo4]
    words[:, 4] = t.quads[lo8 - lo4 * _U(10**4)]
    words[:, 5] = t.exponents[decpt - _I(1 + _X_MIN)]
    row = words.view(np.uint8)
    row[:, _PAD] = 0
    row[:, _SIGN] = (bits >> _U(63)).astype(np.uint8) * np.uint8(ord("-"))
    row[:, _ZERO] = ord("0")
    row[:, _DIG] = lead.astype(np.uint8) + np.uint8(ord("0"))

    # significant digits: 17 less the trailing zeros of `full`
    nd = _NDIG - np.argmax(row[:, _DIG + _NDIG - 1:_DIG - 1:-1] != ord("0"), axis=1)
    fixed = (decpt >= _I(_FIX_MIN)) & (decpt <= _I(_FIX_MAX))
    key = np.where(fixed, (decpt - _I(_FIX_MIN)) * _I(_NDIG), _I(_KEY_SCI)) + (nd - 1)
    key[zero] = _KEY_ZERO
    key[nonfinite] = _KEY_INF
    key[nan] = _KEY_NAN

    base = np.arange(0, row.size, _ROW, dtype=np.intp)[:, None]
    out = np.take(row.ravel(), t.templates[key] + base)
    return out[out != 0].tobytes().decode("ascii")


def _shortest(frac, biased, g_hi, g_lo):
    """Schubfach on finite nonzero doubles given as fraction and biased
    exponent fields: (d, k) with d * 10**k the shortest decimal that rounds
    back to the double, the nearest one if several, ties to even d."""
    c = np.where(biased == _U(0), frac, frac | _U(1 << 52))
    q = np.maximum(biased.astype(_I), _I(1)) - _I(1075)  # value = c * 2**q
    # Below a power of two the next double down is half as far away.
    irregular = (frac == _U(0)) & (biased > _U(1))
    # k = floor(log10 2**q), or floor(log10 (3/4 * 2**q)) if irregular
    k = (q * _I(1262611) - np.where(irregular, _I(524031), _I(0))) >> _I(22)
    # h = q + floor(log2 10**-k) + 1, in 1..4
    shift = (q + ((-k * _I(1741647)) >> _I(19)) + _I(1)).astype(_U)
    g = -k - _I(_E_MIN)
    gh, gl = g_hi[g], g_lo[g]

    # The value and its rounding interval's ends, scaled by 10**-k and
    # times 4, rounded to odd: 4*c*2**q and (4*c -+ 2)*2**q, or 4*c - 1 for
    # an irregular lower end.
    vbl, vb, vbr = _scaled_interval(gh, gl, c << _U(2), shift, irregular.astype(_U))
    # An even c reads back from either end of its interval.
    odd = c & _U(1)
    lower = vbl + odd
    upper = vbr - odd

    # One digit shorter: at most one multiple of 10 lies in the interval.
    s = vb >> _U(2)
    sp40 = (s // _U(10)) * _U(40)
    up_in = lower <= sp40
    wp_in = sp40 + _U(40) <= upper
    short = (s >= _U(10)) & (up_in != wp_in)
    # Otherwise s or s + 1: the one inside, or the nearer, ties to even.
    s4 = s << _U(2)
    u_in = lower <= s4
    w_in = s4 + _U(4) <= upper
    mid = s4 + _U(2)
    nearer_up = (vb > mid) | ((vb == mid) & (s & _U(1)).astype(bool))
    up = np.where(u_in != w_in, w_in, nearer_up)
    d = np.where(short, (sp40 >> _U(2)) + wp_in.astype(_U) * _U(10), s + up.astype(_U))
    return d, k


def _scaled_interval(g_hi, g_lo, cb, shift, irregular):
    """Round-to-odd floor(g * cp / 2**128) for cp = (cb - 2 + irregular,
    cb, cb + 2) << shift, for g = g_hi * 2**64 + g_lo: the top word of the
    192-bit product, its last bit set if the word below it is above 1.
    The ends are P -+ g << (shift + 1) for P = g * (cb << shift), or
    P - g << shift for an irregular lower end, added in 192 bits."""
    cp = cb << shift
    x_hi, p0 = _mul(g_lo, cp)
    y_hi, y_lo = _mul(g_hi, cp)
    p1 = y_lo + x_hi
    p2 = y_hi + (p1 < x_hi).astype(_U)

    def limbs(s):  # g << s, 0 < s < 64, as three words
        r = _U(64) - s
        return (g_hi >> r), (g_hi << s) | (g_lo >> r), g_lo << s

    d2, d1, d0 = limbs(shift + _U(1) - irregular)
    borrow = (p0 < d0).astype(_U)
    low1 = p1 - d1
    top = p2 - d2 - ((p1 < d1) | (low1 < borrow)).astype(_U)
    low1 = low1 - borrow
    vbl = top | (low1 > _U(1)).astype(_U)

    d2, d1, d0 = limbs(shift + _U(1))
    carry = (p0 + d0 < d0).astype(_U)
    low1 = p1 + d1
    top = p2 + d2 + (low1 < d1).astype(_U)
    low1 = low1 + carry
    top = top + (low1 < carry).astype(_U)
    vbr = top | (low1 > _U(1)).astype(_U)

    return vbl, p2 | (p1 > _U(1)).astype(_U), vbr


def _mul(a, b):
    """High and low 64 bits of the 128-bit products a * b, by 32-bit limbs."""
    a0, a1 = a & _M32, a >> _U(32)
    b0, b1 = b & _M32, b >> _U(32)
    lo_lo = a0 * b0
    hi_lo = a1 * b0
    lo_hi = a0 * b1
    mid = (lo_lo >> _U(32)) + (hi_lo & _M32) + (lo_hi & _M32)
    high = a1 * b1 + (hi_lo >> _U(32)) + (lo_hi >> _U(32)) + (mid >> _U(32))
    return high, a * b


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
        self.quads = np.stack([(n // np.uint16(p) % np.uint16(10)).astype(np.uint8) + np.uint8(48)
                               for p in (1000, 100, 10, 1)], axis=1).view(np.uint32).ravel()
        self.exponents = np.frombuffer(b"".join(
            b"%c%c%02d" % (b"-+"[x >= 0], ord("0") + abs(x) // 100 if abs(x) >= 100 else 0,
                           abs(x) % 100)
            for x in range(_X_MIN, _X_MAX + 1)), dtype=np.uint32)
        self.tail_comma = np.frombuffer(_TAIL.replace(b"?", b","), dtype=_U)[0]
        self.tail_nl = np.frombuffer(_TAIL.replace(b"?", b"\n"), dtype=_U)[0]
        self.templates = np.array([_template(key) for key in range(_KEY_NAN + 1)],
                                  dtype=np.uint8)


def _template(key: int) -> list:
    """Source-row offsets of the output bytes for template `key`, padded
    to _WIDTH with _PAD."""
    if key < _KEY_SCI:
        decpt = key // _NDIG + _FIX_MIN
        digits = list(range(_DIG, _DIG + key % _NDIG + 1))
        if decpt <= 0:  # 0.000ddd
            out = [_SIGN, _ZERO, _DOT] + [_ZERO] * -decpt + digits
        elif decpt < len(digits):  # dd.ddd
            out = [_SIGN] + digits[:decpt] + [_DOT] + digits[decpt:]
        else:  # ddd000.0
            out = [_SIGN] + digits + [_ZERO] * (decpt - len(digits)) + [_DOT, _ZERO]
    elif key < _KEY_ZERO:  # d.ddde±XX
        nd = key - _KEY_SCI + 1
        out = [_SIGN, _DIG] + ([_DOT] + list(range(_DIG + 1, _DIG + nd)) if nd > 1 else [])
        out += [_E, _XSIGN, _XSIGN + 1, _XSIGN + 2, _XSIGN + 3]
    else:
        out = {_KEY_ZERO: [_SIGN, _ZERO, _DOT, _ZERO],
               _KEY_INF: [_SIGN, _LI, _LN, _LF],
               _KEY_NAN: [_LN, _LA, _LN]}[key]
    out.append(_SEP)
    return out + [_PAD] * (_WIDTH - len(out))


@functools.cache
def _tables() -> _Tables:
    return _Tables()

"""The text of ``repr(float(x))`` for whole float64 arrays, as bytes.

:func:`repr_bytes` gives each value of an array the bytes of its ``repr``:
the shortest digits that read back to the same double, nearest to it, ties
to an even last digit, laid out as ``repr`` lays them out. The digits come
from Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020),
computed for all values at once in ``uint64`` arithmetic; its output is the
one of Ryu (U. Adams, PLDI 2018) and of CPython's ``repr``. NaN, the
infinities and subnormal values are rare in the grids and are formatted by
``repr`` one at a time.

Every constant has an explicit ``uint64`` or ``int64`` type and the two are
never mixed in one operation, so numpy 1.x value-based casting and NEP 50
promotion give the same results.
"""
from __future__ import annotations

import numpy as np

_U64 = np.uint64
_M32 = _U64(0xFFFF_FFFF)
_M63 = _U64(2**63 - 1)
_ONE, _TWO, _TEN = _U64(1), _U64(2), _U64(10)
_E10, _E16 = _U64(10**10), _U64(10**16)

_EXP_MASK = _U64(0x7FF)
_FRAC_MASK = _U64(2**52 - 1)
_C_MIN = _U64(2**52)  # the hidden bit
_Q_MIN = -1074  # value = c * 2**q with q = biased exponent - 1075

# Text is built eight characters to a uint64 word, the first in the low byte
# (little-endian order, whatever the machine's). A value's row is three body
# words, up to 17 digits with the point among them and then the exponent, at
# byte 18; before them, when some value of the array needs it, a prefix word
# for the sign and the "0.000" of 0.0001 .. 0.999.


def _word(text: bytes, at: int = 0) -> int:
    """The word holding ``text`` from byte ``at``."""
    return int.from_bytes(text, "little") << 8 * at


def _digit_table(width: int) -> np.ndarray:
    """The characters of 0 .. 10**width - 1, zero-padded to ``width``, a word each."""
    i = np.arange(10**width, dtype=np.int64)
    words = np.zeros(len(i), dtype=_U64)
    for at in range(width):
        words |= (i // 10**(width - 1 - at) % 10 + ord("0")).astype(_U64) << _U64(8 * at)
    return words


_PAIRS, _QUADS = _digit_table(2), _digit_table(4)  # "00".."99", "0000".."9999"
_QUAD_ZEROS = sum((np.arange(10**4) % 10**n == 0).astype(np.int64) for n in range(1, 5))
# _KEEP[w, j]: the bytes of body word w before byte j of the body; _POINT[w, j]:
# "." at byte j of the body, in word w
_KEEP = np.array([[2**(8 * min(max(j - 8 * w, 0), 8)) - 1 for j in range(26)]
                  for w in range(3)], dtype=_U64)
_POINT = np.array([[_word(b".", j - 8 * w) if 0 <= j - 8 * w < 8 else 0 for j in range(26)]
                   for w in range(3)], dtype=_U64)
# after the sign: nothing, or the "0." and zeros before the digits of 0.5 .. 0.0005
_LEADS = np.array([0, *(_word(b"0." + b"0" * k, 1) for k in range(4))], dtype=_U64)
_ZEROS = _word(b"0" * 8)
# the exponent of scientific notation, from byte 18 of the body (byte 2 of its
# last word), by decimal point + _EXP_OFFSET; none for a point of fixed notation
_EXP_OFFSET = 400
_EXPONENTS = np.array([_word(f"e{p - 1:+03d}".encode(), 2) if p > 16 or p < -3 else 0
                       for p in range(-_EXP_OFFSET, _EXP_OFFSET)], dtype=_U64)
_NONE = 8 * 3  # a point position past the body words: no point
_DIGITS = 17  # every shortest double has at most 17 significant digits


def repr_bytes(values: np.ndarray) -> np.ndarray:
    """``repr(float(x))`` of each value of the 1-D ``values``, one ``uint8``
    row each: the characters of the text in order, with NUL bytes between and
    after them where the row has more room than the text."""
    x = np.ascontiguousarray(values, dtype=np.float64)
    bits = x.view(_U64)
    biased = (bits >> _U64(52)) & _EXP_MASK
    frac = bits & _FRAC_MASK
    # zeros, and the NaN, infinities and subnormals that repr formats one by
    # one, have no shortest digits computed: they are laid out as 0.0
    special = (biased == _EXP_MASK) | (biased == 0)
    normal = np.flatnonzero(~special) if special.any() else slice(None)
    digits, exp10 = _shortest(biased[normal], frac[normal])
    words = np.full((3, len(x)), _ZEROS, dtype=_U64)
    point = np.ones(len(x), dtype=np.int64)
    ndigits = np.ones(len(x), dtype=np.int64)
    words[:, normal], ndigits[normal] = _digit_words(digits)
    point[normal] = exp10 + np.where(digits >= _E16, 17, 16)
    out, width = _layout(bits >> _U64(63) != 0, point, ndigits, words)

    odd = np.flatnonzero(special & ((biased != 0) | (frac != 0)))
    for i, value in zip(odd.tolist(), x[odd].tolist()):
        text = repr(value).encode()
        out[i] = 0
        out[i, :len(text)] = np.frombuffer(text, np.uint8)
        width = max(width, len(text))
    return out[:, :width]


# ---------------------------------------------------------------------------
# Schubfach: shortest digits of finite positive normal doubles

def _mul(a: np.ndarray, b1: np.ndarray, b0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(high, low) 64-bit halves of the 128-bit products ``a * b``, with b
    given as its 32-bit limbs ``b1 * 2**32 + b0``, ``b1 < 2**27``."""
    a1, a0 = a >> _U64(32), a & _M32
    cross, low = a1 * b0, a0 * b0
    mid = (low >> _U64(32)) + (cross & _M32) + a0 * b1  # below 2**60
    return (a1 * b1 + (cross >> _U64(32)) + (mid >> _U64(32)),
            (mid << _U64(32)) | (low & _M32))


def _g(k: int) -> tuple[int, int]:
    """(high 64 bits, low 64 bits) of Schubfach's g for 10**-k:
    ``g = floor(10**-k * 2**-r) + 1`` with ``r = floor(log2 10**-k) - 125``, so
    ``2**125 < g <= 2**126``."""
    e = -k
    log2 = (10**e).bit_length() - 1 if e >= 0 else -((10**-e).bit_length())
    r = log2 - 125
    if e >= 0:
        g = (10**e >> r if r >= 0 else 10**e << -r) + 1
    else:
        g = (1 << -r) // 10**-e + 1
    return g >> 64, g & (2**64 - 1)


# g for k = -324 .. 292, the decimal exponents of the normal doubles, each
# entry computed when its exponent first occurs
_K_MIN, _K_COUNT = -324, 617
_G = np.zeros((2, _K_COUNT), dtype=_U64)
_G_READY = np.zeros(_K_COUNT, dtype=bool)


def _table(k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two words of :func:`_g` of each of ``k``."""
    i = k - _K_MIN
    for j in np.flatnonzero(np.bincount(i, minlength=_K_COUNT).astype(bool) & ~_G_READY).tolist():
        _G[:, j] = _g(j + _K_MIN)
        _G_READY[j] = True
    return _G[0].take(i), _G[1].take(i)


def _shortest(biased: np.ndarray, frac: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d, e) with ``d * 10**e`` the shortest decimal that reads back to
    ``(2**52 + frac) * 2**(biased - 1075)``, nearest to it, ties to even d."""
    c = frac | _C_MIN
    q = biased.astype(np.int64) - 1075
    # the interval below a power of two is half as wide as the one above
    asym = (frac == 0) & (q != _Q_MIN)
    # floor(log10(2**q)), or floor(log10(3/4 * 2**q))
    k = (q * 661_971_961_083 - asym * 274_743_187_321) >> 41
    vb, vbl, vbr = _scaled(c, q, k, asym)

    # the ends of the interval, 4 * 10**k units, moved in when c is odd, which excludes them
    out = c & _ONE
    lower, upper = vbl + out, vbr - out
    s = vb >> _TWO
    sp10 = (s // _TEN) * _TEN
    upin = lower <= sp10 << _TWO
    wpin = (sp10 + _TEN) << _TWO <= upper
    uin = lower <= vb & ~_U64(3)
    win = (s + _ONE) << _TWO <= upper
    # t = s + 1 is nearer when vb is past the middle, 4s + 2, or on it with s odd
    nearer_t = (vb & _U64(3)) + (s & _ONE) > _TWO
    # one of sp10, sp10 + 10 in the interval; else one of s, t; else the nearer
    d = s + (win & (~uin | nearer_t))
    return np.where(upin != wpin, sp10 + _TEN * wpin, d), k


def _scaled(c, q, k, asym) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Schubfach's vb, vbl and vbr: 4 * c * 2**q and the ends of its rounding
    interval in units of 10**k, rounded to odd."""
    g_hi, g_lo = _table(k)
    h = (q + ((-k * 913_124_641_741) >> 38) + 2).astype(_U64)  # q + floor(log2 10**-k) + 2: 1..4
    cp = c << (h + _TWO)  # 4c * 2**h
    # x = g * cp, 190 bits: top * 2**128 + mid * 2**64 + low
    cp1, cp0 = cp >> _U64(32), cp & _M32
    a1, low = _mul(g_lo, cp1, cp0)
    b1, b0 = _mul(g_hi, cp1, cp0)
    mid = b0 + a1
    top = b1 + (mid < a1)
    vb = _round_to_odd(top, mid)
    # the interval ends are x -/+ g * 2 * 2**h (g * 2**h below a power of two)
    vbl = _round_to_odd(*_sub(top, mid, low, *_shifted(g_hi, g_lo, h + (~asym).astype(_U64))))
    vbr = _round_to_odd(*_add(top, mid, low, *_shifted(g_hi, g_lo, h + _ONE)))
    return vb, vbl, vbr


def _shifted(hi, lo, n):
    """The three 64-bit limbs of ``(hi * 2**64 + lo) << n``, 1 <= n < 64."""
    return hi >> (_U64(64) - n), (hi << n) | (lo >> (_U64(64) - n)), lo << n


def _add(a2, a1, a0, b2, b1, b0):
    """The two high limbs of the sum of two numbers of three 64-bit limbs."""
    r0 = a0 + b0
    r1 = a1 + b1
    carry = (r1 < b1) | ((r1 == ~_U64(0)) & (r0 < b0))
    return a2 + b2 + carry, r1 + (r0 < b0)


def _sub(a2, a1, a0, b2, b1, b0):
    """The two high limbs of the difference of two numbers of three 64-bit limbs."""
    r0 = a0 - b0
    r1 = a1 - b1
    borrow = (a1 < b1) | ((r1 == 0) & (a0 < b0))
    return a2 - b2 - borrow, r1 - (a0 < b0)


def _round_to_odd(top, mid):
    """``floor(x / 2**127)``, made odd when bits 64 to 126 of x are not all
    zero, for ``x = top * 2**128 + mid * 2**64 + low``. The bits below 2**64
    hold no more than the excess of g over its exact value, so they are left
    out, as in Schubfach's ``rop``: a value exactly halfway, or exactly on an
    end of its interval, is then seen to be."""
    return (top << _ONE) | (mid >> _U64(63)) | ((mid & _M63) != 0)


# ---------------------------------------------------------------------------
# Digits to text

def _digit_words(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The digit characters of each ``d`` (16 or 17 digits) as three words of
    18 characters, the last a 0; and the number of significant digits, the
    digits without trailing zeros."""
    d = d * np.where(d < _E16, _U64(100), _TEN)
    head = d // _E10
    tail = d - head * _E10
    middle = tail // _U64(100)
    quads = []
    for eight in (head.astype(np.int64), middle.astype(np.int64)):  # eight digits each
        upper = eight // 10**4
        quads += [upper, eight - upper * 10**4]
    last = (tail - middle * _U64(100)).astype(np.int64)
    words = np.stack([_QUADS.take(quads[0]) | _QUADS.take(quads[1]) << _U64(32),
                      _QUADS.take(quads[2]) | _QUADS.take(quads[3]) << _U64(32),
                      _PAIRS.take(last)])
    # trailing zeros among digits 0..16: digit 16, then the four-digit groups from the last
    zeros = _QUAD_ZEROS.take(quads[0])  # never 4: the first digit is not 0
    for quad in quads[1:]:
        zeros = _QUAD_ZEROS.take(quad) + (quad == 0) * zeros
    return words, _DIGITS - (last < 10) * (1 + zeros)


def _layout(negative, point, ndigits, words) -> tuple[np.ndarray, int]:
    """Rows of repr text from the sign, decimal point and digit words
    (:func:`_digit_words`) of each value, built word by word for all rows at
    once, and the number of their leading columns that any text reaches. A
    row leaves NUL where its text has no character."""
    fixed = (point > 0) & (point <= 16)
    small = (point <= 0) & (point >= -3)
    sci = ~fixed & ~small
    # digits shown: the significant ones, and in fixed notation every one up to
    # the first after the point, as in 100.0
    shown = np.where(fixed, np.maximum(ndigits, point + 1), ndigits)
    # the point goes before digit `dot`: none in 0.00123 or 1e+16
    dot = np.where(fixed, point, np.where(~small & (ndigits > 1), 1, _NONE))
    cut = [digits & _KEEP[w].take(shown) for w, digits in enumerate(words)]
    # the digits one byte on, to make room for the point
    moved = [cut[0] << _U64(8), *(cut[w] << _U64(8) | cut[w - 1] >> _U64(56) for w in (1, 2))]
    body = [cut[w] & _KEEP[w].take(dot) | moved[w] & ~_KEEP[w].take(dot + 1)
            | _POINT[w].take(dot) for w in range(3)]
    if sci.any():
        body[2] |= _EXPONENTS.take(point + _EXP_OFFSET)
    if negative.any() or small.any():
        body.insert(0, _LEADS.take(np.where(small, 1 - point, 0))
                    | negative.astype(_U64) * _U64(ord("-")))
    text = np.stack(body, axis=1).astype("<u8", copy=False).view(np.uint8)
    # the body holds at most 17 digits and a point, and an exponent from byte 18
    return text, text.shape[1] - (1 if sci.any() else 6)

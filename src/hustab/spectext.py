"""A reader for large table and period spec documents that makes no
Python object per number.

read takes the bytes of a document of the shape json.dumps writes for a
table or period spec: a JSON object whose one non-string member is the
array of pairs under "table" or "period", every other member a string.
It checks the array's JSON grammar and its [[n, n, n, n], ...] shape
with whole-block byte operations and converts every number to the
float64 that json.loads, then float(), gives it, bit for bit: the
Eisel-Lemire algorithm (D. Lemire, "Number parsing at a gigabyte per
second", Software: Practice and Experience, 2021) in uint64 arithmetic,
which with a 128-bit table of powers of five needs no fallback up to 19
significant digits (N. Mushtak and D. Lemire, "Fast number parsing
without fallback", Software: Practice and Experience, 2023). Everything
outside the array is parsed by json.loads, on the document with the
array cut down to [], and the array goes in its place as one read-only
(n, 4) float64 array. A document of any other form, or one that breaks
the grammar anywhere, is refused (read returns None), and json.loads
then reads it whole.
"""

from __future__ import annotations

import json
import re
from functools import cache

import numpy as np

from .csvtext import _product

# Numbers a block holds, about. Its temporaries take some 300 bytes a
# number; at 2^15 numbers, a 4e4-number table's read took a process's
# peak memory 5 MB above what json.loads took, at 2^14 not. Below 2^13
# the fixed work of a block, about 150 numpy calls, shows.
_BLOCK_NUMBERS = 1 << 14
# Bytes of text whose brackets are counted at a time.
_COUNT_BYTES = 1 << 20
# Longest number read, in characters; a longer one, possible only with
# runs of leading zeros, has the document refused.
_WIDTH = 32
_M64 = (1 << 64) - 1
_INFINITY = 0x7FF << 52
_LOW_NIBBLES = 0x0F0F0F0F0F0F0F0F
# The powers 5^q of the table, q = _Q_MIN.._Q_MAX: w 10^q for w < 2^64 is
# 0 below it and infinite above it.
_Q_MIN, _Q_MAX = -342, 308

# Each byte's code, by bytes.translate: its class in the low 3 bits, 0 for
# '0', then '1'-'9', '.', 'e' and 'E', '+', '-', and 6 for whitespace and
# the structural characters; _TERM set on all but number characters,
# _STRUCT on the structural ones, which bits 4-5 tell apart. _BAD, for
# every other byte, is no other code.
_NONZERO, _DOT, _EXP, _PLUS, _MINUS, _OTHER = 1, 2, 3, 4, 5, 6
_TERM, _STRUCT, _BAD = 0x40, 0xC0, 0xFF
_COMMA, _OPEN, _CLOSE = _STRUCT | _OTHER, _STRUCT | 0x10 | _OTHER, _STRUCT | 0x20 | _OTHER


def _code_table() -> bytes:
    table = bytearray([_BAD]) * 256
    for chars, code in (
        (b"0", 0),
        (b"123456789", _NONZERO),
        (b".", _DOT),
        (b"eE", _EXP),
        (b"+", _PLUS),
        (b"-", _MINUS),
        (b" \t\n\r", _TERM | _OTHER),
        (b",", _COMMA),
        (b"[", _OPEN),
        (b"]", _CLOSE),
    ):
        for c in chars:
            table[c] = code
    return bytes(table)


_CODES = _code_table()
# The codes of one pair's symbols in a block, class bits cleared, so that
# a number's first character reads 0: the comma before it (a virtual one
# before a block's first pair), then [n, n, n, n].
_PAIR = np.array([_COMMA, _OPEN, 0, _COMMA, 0, _COMMA, 0, _COMMA, 0, _CLOSE], np.uint8) & 0xF8
_PAD = b" " * _WIDTH
_WS = b" \t\n\r"
_STRING = rb'"[^"\\]*"'
_MEMBER = _STRING + rb"[ \t\n\r]*:[ \t\n\r]*" + _STRING
# Up to the array's opening bracket, and from its closing bracket on.
_HEAD = re.compile(
    rb"[ \t\n\r]*\{[ \t\n\r]*(?:" + _MEMBER + rb"[ \t\n\r]*,[ \t\n\r]*)*"
    rb'"(table|period)"[ \t\n\r]*:[ \t\n\r]*\['
)
_TAIL = re.compile(rb"\][ \t\n\r]*(?:,[ \t\n\r]*" + _MEMBER + rb"[ \t\n\r]*)*\}[ \t\n\r]*")


def read(data: bytes) -> dict | None:
    """The JSON document data, with its array of pairs as a read-only
    (n, 4) float64 array, or None when the document is not of the one
    form read takes: pure ASCII, an object whose members are strings but
    for the array under "table" or "period", no backslash in any string,
    and an array of pairs of JSON numbers of at most 19 significant
    digits and fewer than _WIDTH characters each."""
    head = _HEAD.match(data)
    end = data.rfind(b"]")
    if head is None or end < head.end() or not _TAIL.fullmatch(data, end):
        return None
    start = head.end() - 1
    cut = data[: start + 1] + data[end:]
    if not cut.isascii():
        return None
    try:
        doc = json.loads(cut.decode("ascii"))
    except json.JSONDecodeError:
        return None
    key = head.group(1).decode("ascii")
    if doc.get(key) != []:  # a later string member of the same name
        return None
    pairs = _read_pairs(data, start, end)
    if pairs is None:
        return None
    doc[key] = pairs
    return doc


def _read_pairs(data: bytes, start: int, end: int) -> np.ndarray | None:
    """The pairs of the array between the brackets at start and end, or
    None where its text is not [[n, n, n, n], ...]. The text is cut into
    blocks of about _BLOCK_NUMBERS numbers, each after a pair's closing
    bracket, so every block is whole pairs."""
    last = data.rfind(b"]", start, end)  # the last pair's closing bracket
    if last < 0 or data[last + 1 : end].strip(_WS):
        return None
    text = np.frombuffer(data, np.uint8, last - start, start + 1)
    slices = range(0, len(text), _COUNT_BYTES)
    count = sum(int(np.count_nonzero(text[i : i + _COUNT_BYTES] == ord("["))) for i in slices)
    if not count:
        return None
    out = np.empty((count, 4))
    flat = out.reshape(-1)
    step = max(1, (last - start) * _BLOCK_NUMBERS // (4 * count))
    lo, done = start + 1, 0
    while lo <= last:
        hi = data.find(b"]", min(lo + step, last), last + 1) + 1
        values = _block(memoryview(data)[lo:hi], first=lo == start + 1)
        if values is None or done + len(values) > flat.size:
            return None
        flat[done : done + len(values)] = values
        done += len(values)
        lo = hi
    if done != flat.size:
        return None
    out.flags.writeable = False
    return out


def _block(text: memoryview, first: bool) -> np.ndarray | None:
    """The numbers of text, whole pairs each led by a comma (the first
    block's first pair by none), or None where it breaks the grammar."""
    padded = b"".join((_PAD, text, _PAD))
    coded = padded.translate(_CODES)
    if bytes([_BAD]) in coded:
        return None
    codes = np.frombuffer(coded, np.uint8)
    body = codes[_WIDTH:-_WIDTH]
    number = body < _TERM
    symbol = body >= _STRUCT  # a structural character, or a number's first
    symbol[1:] |= number[1:] > number[:-1]
    symbol[0] |= number[0]
    at = np.flatnonzero(symbol)
    at += _WIDTH
    if (len(at) + first) % len(_PAIR):
        return None
    grid = np.empty(len(at) + first, np.intp)
    grid[first:] = at
    grid[:first] = at[0]  # the first block's virtual comma, checked apart
    grid = grid.reshape(-1, len(_PAIR))
    symbols = codes.take(grid) & 0xF8
    symbols[0, :first] = _PAIR[0]
    if not (symbols == _PAIR).all():
        return None
    starts = grid[:, 2::2].reshape(-1)
    fields = _fields(np.lib.stride_tricks.sliding_window_view(codes, _WIDTH)[starts])
    if fields is None:
        return None
    length, mantissa_end, fraction, significant, exp_start, negative, integer = fields
    raw = np.frombuffer(padded, np.uint8)
    w = _digits(raw, starts + mantissa_end, fraction, significant)
    q = _exponents(raw, codes, starts, length, exp_start) - fraction
    bits = _eisel_lemire(w, q)
    bits |= (negative & ~(integer & (w == 0))).astype(np.uint64) << np.uint64(63)  # float(int("-0")) is +0.0
    return bits.view(np.float64)


def _ctz(x: np.ndarray) -> np.ndarray:
    """The trailing zero count of each positive int64 x, from the float
    exponent of its lowest set bit."""
    return ((x & -x).astype(np.float64).view(np.int64) >> 52) - 1023


def _fields(windows: np.ndarray) -> tuple[np.ndarray, ...] | None:
    """The length, mantissa end, fraction digit count, significant digit
    count and exponent digits' start of each number whose codes start a
    row of windows, its sign, and whether it is an int; None when one
    breaks the grammar -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?, or
    is too long or has too many digits to read.

    A run of number characters whose dots, exponent marks and signs
    stand where the grammar lets them, each followed by a digit, is a
    JSON number. Each bit of a code becomes a mask over a row's columns,
    and the masks of the classes check that in whole-array operations."""
    # the class bits, per column: 0 000, 1-9 001, . 010, e 011, + 100, - 101, other 110
    p0, p1, p2 = (
        np.packbits((windows & bit).reshape(-1), bitorder="little").view("<u4").astype(np.int64) for bit in (1, 2, 4)
    )
    other = p1 & p2
    if not other.all():  # a number as wide as the window
        return None
    length = _ctz(other)
    inside = (1 << length) - 1
    nondigit = p1 | p2
    nonzero = p0 & ~nondigit
    dot = p1 & ~(p0 | p2) & inside
    exp = p1 & p0 & ~p2 & inside
    sign = p2 & ~p1 & inside
    negative = windows[:, 0] == _MINUS
    lead = negative.astype(np.int64)
    after_exp = exp << 1
    exp_digits = np.where(sign & after_exp, after_exp << 1, after_exp)
    ok = (
        (dot & (dot - 1) == 0)
        & (exp & (exp - 1) == 0)
        & ((sign & ~(lead | after_exp)) == 0)  # a sign leads the number or follows the exponent mark
        & ((exp == 0) | (dot < exp))
        & ((nondigit >> lead) & 1 == 0)  # an integer part
        & ((nondigit & (dot << 1 | exp_digits)) == 0)  # digits after the dot and the exponent
        # no leading zero: a first digit 0 is the integer part's last
        & ((((nondigit | nonzero) >> lead) & 1 != 0) | ((nondigit >> (lead + 1)) & 1 != 0))
    )
    if not ok.all():
        return None
    has_exp = exp != 0
    mantissa_end = np.where(has_exp, _ctz(exp | ~has_exp), length)
    has_dot = dot != 0
    point = _ctz(dot | ~has_dot)  # the dot's column, or 0
    fraction = np.where(has_dot, mantissa_end - point - 1, 0)
    leading = nonzero & ((1 << mantissa_end) - 1)
    first = _ctz(np.where(leading != 0, leading, 1 << 62))  # the first significant digit
    significant = np.maximum(mantissa_end - first - (has_dot & (point > first)), 0)
    if (significant > 19).any():
        return None
    exp_start = np.where(has_exp, mantissa_end + 1 + ((sign & after_exp) != 0), length)
    return length, mantissa_end, fraction, significant, exp_start, negative, ~(has_dot | has_exp)


@cache
def _byte_masks() -> np.ndarray:
    """The masks of a 24-byte row's 3 words, indexed [word, count], of
    its bytes before column count, count = 0..24."""
    counts = np.clip(np.arange(25) - 8 * np.arange(3)[:, None], 0, 8).astype(np.uint64)
    return np.uint64(_M64) >> (np.uint64(64) - 8 * counts)


def _eight_digits(words: np.ndarray) -> np.ndarray:
    """The value of each uint64 of 8 digit values, its first byte the
    most significant."""
    words = (words * np.uint64(10 * 256 + 1)) >> np.uint64(8)
    words = ((words & np.uint64(0x00FF00FF00FF00FF)) * np.uint64(100 * 65536 + 1)) >> np.uint64(16)
    return ((words & np.uint64(0x0000FFFF0000FFFF)) * np.uint64(10000 * (1 << 32) + 1)) >> np.uint64(32)


def _digits(raw: np.ndarray, ends: np.ndarray, fraction: np.ndarray, significant: np.ndarray) -> np.ndarray:
    """The uint64 integer of each number's significant digits: the 24
    characters before its mantissa end, in 3 words, with the dot taken out
    (up to its column, each word takes the bytes one to the left) and
    the characters before the first significant digit read as 0."""
    rows = np.lib.stride_tricks.sliding_window_view(raw, _WIDTH)[ends - _WIDTH]
    words = rows.view("<u8").T.copy()
    masks = _byte_masks()
    from_dot = np.maximum(24 - np.where(fraction > 0, fraction, 24), 0)  # columns read one to the left
    zeros = 24 - significant
    w = np.zeros(len(rows), np.uint64)
    for j in range(3):
        here = words[j + 1]
        left = (here << np.uint64(8)) | (words[j] >> np.uint64(56))
        word = here ^ ((here ^ left) & masks[j].take(from_dot))
        word &= np.uint64(_LOW_NIBBLES) & ~masks[j].take(zeros)
        w = w * np.uint64(10**8) + _eight_digits(word)
    return w


def _exponents(
    raw: np.ndarray, codes: np.ndarray, starts: np.ndarray, length: np.ndarray, exp_start: np.ndarray
) -> np.ndarray:
    """The exponent of each number, 0 without one, saturated at +-10^9:
    its last 8 digits are read as one word, and a nonzero digit before
    them makes it at least 10^8."""
    q = np.zeros(len(starts), np.int64)
    has = np.flatnonzero(exp_start < length)
    if not has.size:
        return q
    ends = starts[has] + length[has]
    digits = length[has] - exp_start[has]
    word = raw[ends[:, None] + np.arange(-8, 0)].view("<u8").reshape(-1)
    # the bytes before the exponent's digits cleared, as in _digits' last word
    word &= np.uint64(_LOW_NIBBLES) & ~_byte_masks()[2].take(np.maximum(24 - digits, 16))
    value = _eight_digits(word).astype(np.int64)
    for k in np.flatnonzero(digits > 8):  # leading zeros, or an exponent past any float
        if (codes[ends[k] - digits[k] : ends[k] - 8] == _NONZERO).any():
            value[k] = 10**9
    negative = raw[starts[has] + exp_start[has] - 1] == ord("-")
    q[has] = np.where(negative, -value, value)
    return q


@cache
def _powers() -> tuple[np.ndarray, np.ndarray]:
    """The 128-bit truncated 5^q, q = _Q_MIN.._Q_MAX, normalized to
    [2^127, 2^128), as its high and low 64-bit halves: for q < 0 the
    reciprocal, rounded up from -27 on and truncated below it, as the
    table of the fast_float library."""
    table = []
    for q in range(_Q_MIN, _Q_MAX + 1):
        power = 5 ** abs(q)
        if q >= 0:
            t = power << max(0, 128 - power.bit_length())
        else:
            z = power.bit_length()
            t = (1 << (z + 127 if q >= -27 else 2 * z + 128)) // power + 1
        t >>= max(0, t.bit_length() - 128)
        table.append(t)
    return np.array([t >> 64 for t in table], np.uint64), np.array([t & _M64 for t in table], np.uint64)


def _eisel_lemire(w: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The bits of the float64 nearest w 10^q (ties to even), for uint64 w
    < 10^19 and any int64 q, sign bit clear: w is normalized to its top
    bit, multiplied by the truncated 5^q, and the product's top 55 bits,
    with one more 64-bit product where the first leaves them uncertain,
    give the rounded mantissa."""
    qc = np.minimum(np.maximum(q, _Q_MIN), _Q_MAX)
    top = (w.astype(np.float64).view(np.int64) >> 52) - 1023  # the top bit, or one above
    top -= (w >> top.astype(np.uint64)) == 0
    lz = 63 - top
    w = w << lz.astype(np.uint64)
    p_hi, p_lo = _powers()
    i = qc - _Q_MIN
    g_hi = p_hi.take(i)
    hi, lo = _multiply(w, g_hi)
    unsure = np.flatnonzero((hi & np.uint64(0x1FF)) == np.uint64(0x1FF))
    if unsure.size:
        _, lo[unsure], hi[unsure] = _product(w[unsure], g_hi[unsure], p_lo.take(i[unsure]))
    upper = hi >> np.uint64(63)
    mantissa = hi >> (upper + np.uint64(9))  # in [2^53, 2^54)
    power2 = ((217706 * qc) >> 16) + 1086 + upper.astype(np.int64) - lz
    # halfway between two floats where the product is exact: round to even
    tie = np.flatnonzero(lo <= 1)
    tie = tie[(qc[tie] >= -4) & (qc[tie] <= 23) & (mantissa[tie] & np.uint64(3) == 1)]
    tie = tie[mantissa[tie] << (upper[tie] + np.uint64(9)) == hi[tie]]
    mantissa[tie] -= np.uint64(1)
    sub = np.flatnonzero(power2 <= 0)  # a subnormal: shifted down to the least exponent
    mantissa[sub] >>= np.minimum(1 - power2[sub], 63).astype(np.uint64)
    mantissa = (mantissa + (mantissa & np.uint64(1))) >> np.uint64(1)  # in [2^52, 2^53] if normal
    # the implicit bit carries into the exponent, as does a mantissa rounded up to 2^53
    bits = ((power2 - 1) << 52).astype(np.uint64) + mantissa
    bits = np.minimum(bits, np.uint64(_INFINITY))
    bits[sub] = mantissa[sub]
    bits[q > _Q_MAX] = _INFINITY
    bits[(w == 0) | (q < _Q_MIN)] = 0
    return bits


def _multiply(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a b for uint64 a and b, as its high and low 64-bit halves."""
    m32 = np.uint64(0xFFFFFFFF)
    a0, a1 = a & m32, a >> np.uint64(32)
    b0, b1 = b & m32, b >> np.uint64(32)
    low, cross, other = a0 * b0, a0 * b1, a1 * b0
    middle = (low >> np.uint64(32)) + (cross & m32) + (other & m32)
    high = a1 * b1 + (cross >> np.uint64(32)) + (other >> np.uint64(32)) + (middle >> np.uint64(32))
    return high, (middle << np.uint64(32)) | (low & m32)

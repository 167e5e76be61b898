"""The CSV writer every artifact shares, and its shortest-digits kernel.

A cell is the repr of a column's entry as a Python int or float, which
prints every float round-trip exact. A block of at least _VECTOR_MIN_ROWS
rows is formatted by numpy, all its cells at once: each float's
shortest round-trip digits come from the Schubfach algorithm (R. Giulietti,
"The Schubfach way to render doubles", 2020) in uint64 arithmetic, and
Python's repr layout from one gather through a table of patterns. The
bytes are those of repr, cell for cell. A smaller block calls repr per
value, which costs less than the kernel's fixed work there.

A large table is split into one row slice per CPU this process may run on,
the later slices formatted in forked children. A process with live
threads, or without os.fork, formats every row itself.
"""

from __future__ import annotations

import os
import threading
from functools import cache

import numpy as np

# Fewest cells a forked slice gets. A fork costs this process 5-9 ms at
# 80 MB resident: 2.3 ms to fork and reap a child, the rest in the slower
# work of both processes after it (copy-on-write faults). The kernel takes
# 0.2-0.3 us a cell, whether a row has 3 cells (a trajectory or a
# divergence curve) or 7 (a shadow), so a slice of 2^17 cells, 30-35 ms,
# is 3-6 times the cost of its fork. On 2 CPUs, 2^18 cells took 50-53 ms
# forked against 62-72 ms inline.
_FORK_MIN_CELLS = 2**17
# Fewest rows a block is formatted by the kernel in: its fixed work, about
# 1 ms a block, outweighs per-value repr below about 200 rows of 3 columns
# and 100 of 7.
_VECTOR_MIN_ROWS = 256
# Most rows a block holds: at 2048 rows of 7 columns the kernel's
# temporaries stay in cache (231 ns a cell, against 243 at 4096 rows).
_BLOCK_ROWS = 2048


def csv_text(header: str, *columns: np.ndarray) -> str:
    """The header, then per row the comma-joined repr of each column's entry
    as a Python int or float; the columns are int or float arrays.

    The bytes do not depend on how the rows are formatted: a large table is
    split into one row slice per CPU this process may run on, the later
    slices formatted in forked children."""
    n = len(columns[0])
    children = _child_count(n * len(columns))
    bounds = [n * i // (children + 1) for i in range(children + 2)]
    return "".join([header + "\n", *_forked_rows(columns, bounds)])


def _child_count(cells: int) -> int:
    """One forked child for each CPU this process may run on but one; none
    when this process may not fork (no os.fork, or another thread alive),
    and fewer where a slice would get under _FORK_MIN_CELLS cells."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity") or threading.active_count() != 1:
        return 0
    return max(0, min(len(os.sched_getaffinity(0)), cells // _FORK_MIN_CELLS) - 1)


def _forked_rows(columns: tuple[np.ndarray, ...], bounds: list[int]) -> list[str]:
    """The text of the row slices [bounds[i], bounds[i+1]), in order.
    Slice 0 is formatted here while forked children format the later
    slices. A slice whose child could not be made or did not exit cleanly
    is formatted here, and every child is reaped, also when this raises."""
    pids, pipes = {}, {}
    try:
        for i in range(1, len(bounds) - 1):
            child = _fork_slice(columns, bounds[i], bounds[i + 1])
            if child is None:  # the slices left are formatted here
                break
            pids[i], pipes[i] = child
        parts = []
        for i in range(len(bounds) - 1):
            if i in pids:
                with open(pipes.pop(i), "rb") as pipe:
                    data = pipe.read()
                _, status = os.waitpid(pids[i], 0)
                del pids[i]
                if os.waitstatus_to_exitcode(status) == 0:
                    parts.append(data.decode("ascii"))
                    continue
            parts += _csv_rows(columns, bounds[i], bounds[i + 1])
        return parts
    finally:
        for r in pipes.values():
            os.close(r)
        for pid in pids.values():
            os.waitpid(pid, 0)


def _fork_slice(columns: tuple[np.ndarray, ...], start: int, stop: int) -> tuple[int, int] | None:
    """The pid and the pipe's read end of a child that writes rows
    start..stop-1 to the pipe as ASCII, or None when no process can be
    made."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # out of processes or memory
        os.close(r)
        os.close(w)
        return None
    if pid == 0:  # the child: leave by os._exit, running no exit handler
        code = 1
        try:
            os.close(r)
            blocks = _csv_rows(columns, start, stop)
            with open(w, "wb") as pipe:
                pipe.writelines(block.encode("ascii") for block in blocks)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, r


def _csv_rows(columns: tuple[np.ndarray, ...], start: int, stop: int) -> list[str]:
    """Rows start..stop-1 of the table, each ending in a newline, as one
    string per block: the slice is cut into equal blocks of at most
    _BLOCK_ROWS rows, so no block of a slice of _VECTOR_MIN_ROWS rows or
    more falls below it, and no list of row strings outlives its block."""
    blocks = max(1, -(-(stop - start) // _BLOCK_ROWS))
    cuts = [start + (stop - start) * i // blocks for i in range(blocks + 1)]
    return [_block_text(columns, lo, hi) for lo, hi in zip(cuts, cuts[1:])]


def _block_text(columns: tuple[np.ndarray, ...], lo: int, hi: int) -> str:
    """Rows lo..hi-1: by the kernel from _VECTOR_MIN_ROWS rows on, else by
    per-value repr."""
    if hi - lo < _VECTOR_MIN_ROWS:
        cells = [c[lo:hi].tolist() for c in columns]
        return "".join([",".join(map(repr, row)) + "\n" for row in zip(*cells)])
    return _cells_text([c[lo:hi] for c in columns])


# The kernel writes each cell's characters into a 32-byte alphabet (eight
# little-endian uint32 words), then picks them out by its pattern: the
# alphabet slots of the cell's characters, then its separator, padded with
# an empty slot. Slots 0-19 hold the significant digits right-aligned, as
# five 4-digit ASCII words; the other slots follow.
_EXP = 20  # 20-23: |exponent| as a 4-digit word
_SIGN, _SEP, _DOT, _E = 24, 25, 26, 27  # '-' or empty, ',' or '\n', '.', 'e'
_ESIGN, _ZERO, _EMPTY = 28, 29, 30  # '+' or '-', '0', empty
_WIDTH = 25  # the longest cell, '-1.2345678901234567e-308', and its separator
# Pattern rows: a float of n significant digits and decimal point position
# `point` (the value is 0.DIGITS x 10^point) at row (n - 1) * 22 + f, with
# f = point + 3 where repr is positional (-3 <= point <= 16), else 20 for a
# 2-digit and 21 for a 3-digit exponent; then nan, inf, and an int of n
# digits at _INT_ROW + n - 1.
_NAN_ROW = 17 * 22
_INT_ROW = _NAN_ROW + 2
# The Schubfach multipliers g_j, j = _G_MIN.._G_MAX: read by j = -k for
# every decimal exponent k = floor(log10(2^q)) of a float64.
_G_MIN, _G_MAX = -292, 325
_M32, _M64 = (1 << 32) - 1, (1 << 64) - 1


def _word(text: bytes) -> int:
    return int.from_bytes(text, "little")


@cache
def _words() -> np.ndarray:
    """The ASCII of 0000..9999 as little-endian uint32 words, first digit
    in the lowest byte."""
    i = np.arange(10_000, dtype=np.uint32)
    return sum(((i // 10**p % 10 + ord("0")) << (8 * (3 - p)) for p in range(4)), np.uint32(0))


@cache
def _pow10() -> np.ndarray:
    return np.array([10**i for i in range(20)], dtype=np.uint64)


@cache
def _multipliers() -> tuple[np.ndarray, np.ndarray]:
    """g_j = floor(10^j 2^(127 - floor(log2 10^j))) + 1, in [2^127, 2^128),
    as its high and low 64-bit halves."""
    gs = []
    for j in range(_G_MIN, _G_MAX + 1):
        p = 10 ** abs(j)
        if j >= 0:
            shift = 128 - p.bit_length()
            gs.append((p << shift if shift >= 0 else p >> -shift) + 1)
        else:  # floor(log2 10^j) = -bit_length(10^-j)
            gs.append((1 << (127 + p.bit_length())) // p + 1)
    return np.array([g >> 64 for g in gs], np.uint64), np.array([g & _M64 for g in gs], np.uint64)


@cache
def _patterns() -> np.ndarray:
    """The alphabet slots of each pattern row's characters and separator,
    padded with _EMPTY."""
    rows = []
    for n in range(1, 18):
        digits = list(range(20 - n, 20))
        for point in range(-3, 17):
            if point <= 0:
                rows.append([_SIGN, _ZERO, _DOT] + [_ZERO] * -point + digits)
            elif point < n:
                rows.append([_SIGN] + digits[:point] + [_DOT] + digits[point:])
            else:
                rows.append([_SIGN] + digits + [_ZERO] * (point - n) + [_DOT, _ZERO])
        fraction = [_DOT] + digits[1:] if n > 1 else []
        for width in (2, 3):
            rows.append([_SIGN, digits[0]] + fraction + [_E, _ESIGN] + list(range(_EXP + 4 - width, _EXP + 4)))
    rows += [[0, 1, 2], [_SIGN, 0, 1, 2]]  # nan and inf, spelled in slots 0-2
    rows += [[_SIGN] + list(range(20 - n, 20)) for n in range(1, 21)]
    table = np.full((len(rows), _WIDTH), _EMPTY, dtype=np.intp)
    for row, slots in zip(table, rows):
        row[: len(slots) + 1] = slots + [_SEP]
    return table


def _cells_text(columns: list[np.ndarray]) -> str:
    """The rows of the equal-length int and float columns, each ending in a
    newline: the float columns go through the kernel as one array, then
    the int columns, and one gather lays out every cell."""
    rows, width = len(columns[0]), len(columns)
    words = np.empty((width, rows, 8), dtype="<u4")
    pattern = np.empty((width, rows), dtype=np.intp)
    floats = [j for j, c in enumerate(columns) if c.dtype.kind == "f"]
    ints = [j for j, c in enumerate(columns) if c.dtype.kind != "f"]
    for group, dtype, kernel in ((floats, np.float64, _float_cells), (ints, np.int64, _int_cells)):
        if group:
            group_words, group_pattern = kernel(np.concatenate([columns[j] for j in group]).astype(dtype, copy=False))
            words[group] = group_words.reshape(len(group), rows, 8)
            pattern[group] = group_pattern.reshape(len(group), rows)
    words[:-1, :, 6] |= ord(",") << 8
    words[-1, :, 6] |= ord("\n") << 8
    slots = _patterns()[pattern.T]  # (rows, width, _WIDTH), in row order
    slots += (np.arange(width) * rows + np.arange(rows)[:, None])[..., None] * 32
    chars = words.view(np.uint8).reshape(-1).take(slots, mode="clip")
    return chars[chars != 0].tobytes().decode("ascii")


def _float_cells(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The alphabet words and pattern rows of repr of each float64 of x."""
    bits = x.view(np.uint64)
    exponent = (bits >> 52) & 0x7FF
    fraction = bits & ((1 << 52) - 1)
    digits, k = _shortest(exponent, fraction)
    zero = (exponent == 0) & (fraction == 0)
    digits[zero] = 0
    strip = np.flatnonzero((digits // 10 * 10 == digits) & (digits != 0))
    while strip.size:  # drop trailing zeros
        digits[strip] //= 10
        k[strip] += 1
        strip = strip[digits[strip] % 10 == 0]
    n = np.maximum(_digit_count(digits), 1)
    point = n + k  # the value is 0.DIGITS x 10^point
    point[zero] = 1
    e = point - 1  # the exponent of the d.ddd form
    row = point + 3
    sci = (row < 0) | (row > 19)
    row[sci] = 20 + (np.abs(e[sci]) >= 100)
    row += (n - 1) * 22
    words = _digit_words(digits)
    words[..., 5] = _words().take(np.abs(e), mode="clip")
    words[..., 6] = (bits >> 63).astype(np.uint32) * ord("-") | _word(b"\0\0.e")
    words[..., 7] = np.where(e < 0, _word(b"-0"), _word(b"+0"))
    special = exponent == 0x7FF
    if special.any():
        nan = special & (fraction != 0)
        row[special] = _NAN_ROW + 1
        row[nan] = _NAN_ROW
        words[special, 0] = _word(b"inf")
        words[nan, 0] = _word(b"nan")
    return words, row


def _int_cells(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The alphabet words and pattern rows of repr of each int64 of x."""
    neg = x < 0
    magnitude = x.view(np.uint64).copy()
    np.negative(magnitude, out=magnitude, where=neg)  # 2^64 - u: exact for int64's min too
    words = _digit_words(magnitude)
    words[..., 6] = neg.astype(np.uint32) * ord("-")
    words[..., 7] = 0
    return words, _INT_ROW - 1 + np.maximum(_digit_count(magnitude), 1)


def _digit_words(u: np.ndarray) -> np.ndarray:
    """Eight alphabet words per entry of u < 10^20, the first five set to
    its decimal digits, right-aligned and zero-padded to 20."""
    words = np.empty(u.shape + (8,), dtype="<u4")
    top = u // np.uint64(10**16)
    low = u - top * np.uint64(10**16)
    high = low // np.uint64(10**8)
    low -= high * np.uint64(10**8)
    words[..., 0] = _words().take(top, mode="clip")
    for i, v in ((1, high), (3, low)):
        left = v // 10_000
        words[..., i] = _words().take(left, mode="clip")
        words[..., i + 1] = _words().take(v - left * 10_000, mode="clip")
    return words


def _digit_count(u: np.ndarray) -> np.ndarray:
    """The number of decimal digits of each entry of u (0 for 0). The bit
    length b comes from the float exponent, one too high only just below a
    power of 2, where no power of 10 lies; u has (b * 1233) >> 12 digits,
    or one more."""
    bits = (u.astype(np.float64).view(np.uint64) >> 52).astype(np.int64) - 1022
    t = (np.maximum(bits, 0) * 1233) >> 12
    return t + (u >= _pow10().take(t))


def _shortest(exponent: np.ndarray, fraction: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The shortest decimal digits * 10^k that round to each finite nonzero
    float64 of the given exponent and fraction fields (the nearest such,
    ties to an even last digit), by Schubfach: the float is c 2^q, and its
    rounding interval [4c - 2, 4c + 2] 2^(q - 2) (from 4c - 1 at the
    closer lower boundary of a power of 2) is scaled by 10^-k through the
    128-bit multiplier g_{-k}, rounded to odd. Digits may end in zeros."""
    normal = exponent != 0
    c = fraction | (normal.astype(np.uint64) << 52)
    q = exponent.astype(np.int64) - 1075 + ~normal
    closer = (fraction == 0) & (exponent > 1)
    k = (q * 1262611 - closer * 524031) >> 22
    h = q + ((-k * 1741647) >> 19) + 1  # 1..4
    hi, lo = _multipliers()
    g_hi, g_lo = hi.take(-k - _G_MIN, mode="clip"), lo.take(-k - _G_MIN, mode="clip")
    h = h.astype(np.uint64)
    p = _product(c << (h + 2), g_hi, g_lo)  # 4c 2^h g
    v = _round_to_odd(*p[1:])
    upper = _round_to_odd(*_add(p, _shifted(g_hi, g_lo, h + 1)))  # (4c + 2) 2^h g
    lower = _round_to_odd(*_subtract(p, _shifted(g_hi, g_lo, h + 1 - closer)))  # (4c - 2 + closer) 2^h g
    odd = c & 1  # an odd c's interval excludes its ends
    lower += odd
    upper -= odd
    s = v >> 2
    # one digit fewer: s' 10^(k+1) or (s' + 1) 10^(k+1), where one alone lies inside
    s10 = s // 10 * 40
    up, wp = lower <= s10, s10 + 40 <= upper
    shorter = (s >= 10) & (up != wp)
    # else s 10^k or (s + 1) 10^k: the one inside, or the nearer, ties to even
    u, w = lower <= 4 * s, 4 * s + 4 <= upper
    mid = 4 * s + 2
    nearer = np.where(u != w, w, (v > mid) | ((v == mid) & (s & 1).astype(bool)))
    digits = np.where(shorter, s // 10 + wp, s + nearer)
    return digits, k + shorter


def _product(a: np.ndarray, g_hi: np.ndarray, g_lo: np.ndarray) -> tuple[np.ndarray, ...]:
    """a g for a < 2^64 and g = g_hi 2^64 + g_lo, as its 64-bit limbs (low,
    middle, top), summed from the products of 32-bit halves."""
    a0, a1 = a & _M32, a >> 32
    g = (g_lo & _M32, g_lo >> 32, g_hi & _M32, g_hi >> 32)
    t = a0 * g[0]
    digits, carry = [t & _M32], t >> 32
    for i in range(1, 4):
        x, y = a0 * g[i], a1 * g[i - 1]
        t = carry + (x & _M32) + (y & _M32)
        digits.append(t & _M32)
        carry = (t >> 32) + (x >> 32) + (y >> 32)
    return digits[0] | digits[1] << 32, digits[2] | digits[3] << 32, carry + a1 * g[3]


def _shifted(g_hi: np.ndarray, g_lo: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, ...]:
    """g 2^s for 0 < s < 64, as its 64-bit limbs (low, middle, top)."""
    return g_lo << s, g_hi << s | g_lo >> (64 - s), g_hi >> (64 - s)


def _add(p: tuple[np.ndarray, ...], b: tuple[np.ndarray, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The middle and top limbs of p + b."""
    carry = p[0] + b[0] < b[0]
    middle = p[1] + b[1]
    over = middle < b[1]
    middle += carry
    over |= middle < carry
    return middle, p[2] + b[2] + over


def _subtract(p: tuple[np.ndarray, ...], b: tuple[np.ndarray, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The middle and top limbs of p - b, for p >= b."""
    borrow = p[0] < b[0]
    middle = p[1] - b[1]
    under = (p[1] < b[1]) | (middle < borrow)
    middle -= borrow
    return middle, p[2] - b[2] - under


def _round_to_odd(middle: np.ndarray, top: np.ndarray) -> np.ndarray:
    """The top limb, its last bit set where the middle limb exceeds 1, that
    is where the scaled value is no integer: g's excess over the exact
    multiplier adds under one unit to the middle limb."""
    return top | (middle > 1)

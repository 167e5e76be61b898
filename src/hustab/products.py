"""Log-domain partial products p(m, k) = prod_{j=k}^{m-1} a_j and derived sums.

The ledger stores prefix sums of log|a_j|, and of arg(a_j) once read, so
that |p(m, k)| = exp(L_m - L_k) never has to be formed from a linear-scale
product of many factors: for |a| = 2 the product leaves binary64 range
near m = 1000. Readers work with differences of these sums. A series of
product magnitudes is summed by log_cumsum_exp, which returns its prefix
log-sums; a series of complex terms by scaled_cumsum. Phase is
accumulated unreduced in binary64; its error grows like O(n ulp), which
none of the magnitude criteria depend on.

Array convention throughout the package: slot k of an index-aligned array
holds the subscript-k quantity; slot 0 is padding.
"""

from __future__ import annotations

import bisect
import math
import os
import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import IndexOutOfRange
from .sequences import CoefficientSpec, coeff_arrays


@dataclass(frozen=True)
class PartialProductLedger:
    """Prefix accumulators of the coefficients up to a horizon.

    logmag:  slots 1..horizon+1, L_n = sum_{j<n} log|a_j| (L_1 = 0), so
             |p(n, 1)| = exp(L_n).
    phase:   slots 1..horizon+1, Theta_n = sum_{j<n} arg(a_j), unreduced;
             built on first read, since a verdict reads L alone.

    Immutable once built; concurrent reads are safe (racing first reads of
    phase build the same bits).
    """

    spec: CoefficientSpec
    horizon: int
    logmag: np.ndarray

    @cached_property
    def phase(self) -> np.ndarray:
        return _prefix_sums(self.spec, self.horizon, "arg")


# Fewest rows a forked slice gets. Forking, binding and reaping a child and
# the copy-on-write faults after the fork cost this process about 5 ms
# (measured at 60-100 MB resident); a shadow row, with its two always
# distinct error columns, takes 2-7 us to format, so a slice of 8192 rows
# is 3-10 times the cost of its fork.
_FORK_MIN_ROWS = 8192
_BLOCK_ROWS = 4096


def _csv_text(header: str, *columns: np.ndarray) -> str:
    """The header, then per row the comma-joined repr of each column's entry
    as a Python int or float, which prints every float round-trip exact.

    The bytes do not depend on how the rows are formatted: a large table is
    split into one row slice per CPU this process may run on, the later
    slices formatted in forked children. A process with live threads, or
    without os.fork, formats every row itself."""
    n = len(columns[0])
    cpus = _child_cpus(n)
    if not cpus:
        return "".join([header + "\n", *_csv_rows(columns, 0, n)])
    bounds = [n * i // (len(cpus) + 1) for i in range(len(cpus) + 2)]
    return "".join([header + "\n", *_forked_rows(columns, bounds, cpus)])


def _child_cpus(rows: int) -> list[int]:
    """One CPU per forked child, none when this process may not fork (no
    os.fork, or another thread alive) or when a slice would get fewer than
    _FORK_MIN_ROWS rows. The CPU this process runs on is left out: a kernel
    that does not balance load keeps a forked child on its parent's CPU."""
    if (rows < 2 * _FORK_MIN_ROWS or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or threading.active_count() != 1):
        return []
    allowed = sorted(os.sched_getaffinity(0))
    here = _current_cpu()
    return [c for c in allowed if c != here][: min(len(allowed), rows // _FORK_MIN_ROWS) - 1]


def _current_cpu() -> int | None:
    """The CPU this process last ran on (field 39 of /proc/self/stat), or
    None where that cannot be read."""
    try:
        with open("/proc/self/stat") as f:
            return int(f.read().rsplit(")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def _forked_rows(columns: tuple[np.ndarray, ...], bounds: list[int], cpus: list[int]) -> list[str]:
    """The text of the row slices [bounds[i], bounds[i+1]), in order.
    Slice 0 is formatted here while forked children, one bound to each of
    cpus, format the later slices. A slice whose child could not be made or
    did not exit cleanly is formatted here, and every child is reaped, also
    when this raises."""
    pids, pipes = {}, {}
    try:
        for i, cpu in enumerate(cpus, 1):
            child = _fork_slice(columns, bounds[i], bounds[i + 1], cpu)
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


def _fork_slice(columns: tuple[np.ndarray, ...], start: int, stop: int, cpu: int) -> tuple[int, int] | None:
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
    # Bound from here, the child moves at once; it would call
    # sched_setaffinity itself only once this process left the CPU.
    try:
        os.sched_setaffinity(pid, {cpu})
    except OSError:  # the child formats where it is
        pass
    return pid, r


def _csv_rows(columns: tuple[np.ndarray, ...], start: int, stop: int) -> list[str]:
    """Rows start..stop-1 of the table, each ending in a newline, as one
    string per block of rows: no list of row strings outlives its block."""
    blocks = []
    for lo in range(start, stop, _BLOCK_ROWS):
        cells = [_reprs(c[lo : min(lo + _BLOCK_ROWS, stop)]) for c in columns]
        blocks.append("\n".join([*map(",".join, zip(*cells)), ""]))
    return blocks


def _reprs(values: np.ndarray) -> list[str]:
    """repr of each entry as a Python scalar, computed once per distinct bit
    pattern, so -0.0 and 0.0 (and NaN payloads) stay apart."""
    unique, inverse = np.unique(values.view(f"u{values.itemsize}"), return_inverse=True)
    texts = np.array(list(map(repr, unique.view(values.dtype).tolist())), dtype=object)
    return texts[inverse].tolist()


def build_ledger(spec: CoefficientSpec, horizon: int) -> PartialProductLedger:
    """The ledger of L_1..L_{horizon+1}; Theta is built on first read."""
    if horizon < 1:
        raise IndexOutOfRange(f"horizon must be >= 1, got {horizon}")
    return PartialProductLedger(spec=spec, horizon=horizon, logmag=_prefix_sums(spec, horizon, "log_abs"))


def _prefix_sums(spec: CoefficientSpec, horizon: int, column: str) -> np.ndarray:
    """Slot n holds the sum of one coefficient column over j < n (slot 0
    NaN): slot k reads index k - 1, then np.cumsum adds in place, in index
    order, so L_{n+1} = L_n + log|a_n| exactly as a sequential loop would."""
    (sums,) = coeff_arrays(spec, np.maximum(np.arange(-1, horizon + 1), 1), column)
    sums[0] = np.nan
    sums[1] = 0.0
    np.cumsum(sums[1:], out=sums[1:])
    return sums


def _check_index(n: int, low: int, high: int, what: str) -> None:
    if not low <= n <= high:
        raise IndexOutOfRange(f"{what}={n} outside [{low}, {high}]")


def geometric_mean_exponent(ledger: PartialProductLedger, n: int) -> float:
    """L_n / n, the log of the n-th root of |p(n, 1)|.

    Its sign regime over large n (negative / inside a small band around 0 /
    positive) drives the stability trichotomy.
    """
    _check_index(n, 2, ledger.horizon + 1, "n")
    return float(ledger.logmag[n]) / n


def tracking_sum_max(ledger: PartialProductLedger, upto: int) -> float:
    """log of the largest tracking sum T_n = sum_{j=1}^{n} |p(n+1, j+1)|
    = 1 + |a_n| + |a_n a_{n-1}| + ... over n = 1..upto, in O(upto).

    Taken as log T_n = L_{n+1} + log sum_{j<=n} exp(-L_{j+1}), the sums by
    log_cumsum_exp, so the result stays finite where the linear value
    overflows to inf.
    """
    _check_index(upto, 1, ledger.horizon, "upto")
    L = ledger.logmag
    log_t = log_cumsum_exp(np.negative(L[2 : upto + 2]))  # the one full-length array
    log_t += L[2 : upto + 2]
    return float(np.max(log_t))


# log_cumsum_exp sums chunks of _CHUNK terms at a time; a chunk that must be
# redone is split into _SPLIT pieces, and those down to single terms.
_CHUNK = 256
_SPLIT = 16
# Every exp argument is kept in [-_FLOOR, 0], where exp is normal and takes
# its fast path (a subnormal result costs it about 100 times as long).
_FLOOR = 700.0
# A chunk is summed at its own maximum only where each of its prefixes,
# carry included, lies within e^-_REACH of that maximum.
_REACH = 600.0


def log_cumsum_exp(x: np.ndarray) -> np.ndarray:
    """y_k = log sum_{i<=k} exp(x_i) for a contiguous 1-D array of finite
    floats, written over x, which is returned.

    The terms are taken in chunks of 256. Each chunk is scaled by its own
    maximum m and summed by exp, a row-wise cumsum and log over all chunks
    at once. A short running log-sum-exp of the chunk totals gives each
    chunk's carry, the log of all terms before it, and each prefix is
    c + log(local e^(m - c) + e^(carry - c)) with c = max(m, carry). It is
    rounded once per chunk, not once per term as a running logaddexp is.

    Exponents below -700 are raised to -700. That moves a prefix by under
    256 e^-100 relative wherever the prefix lies within e^-600 of its
    chunk's maximum. A chunk whose first term and carry both lie further
    below is redone from its saved terms, split into pieces of 16 and those,
    where needed, into single terms, so every prefix comes out exact.
    """
    if x.ndim != 1 or not x.flags.c_contiguous:
        raise ValueError("log_cumsum_exp works in place on a contiguous 1-D array")
    n = len(x)
    full = n - n % _CHUNK
    carry = np.full(1, -np.inf)
    with np.errstate(under="ignore", divide="ignore"):
        for lo, hi, width in ((0, full, _CHUNK), (full, n, n - full)):
            if hi > lo:
                _log_cumsum_rows(x[None, lo:hi], carry, width)
                carry = x[hi - 1 : hi]
    return x


def _log_cumsum_rows(x: np.ndarray, carry: np.ndarray, width: int) -> None:
    """log_cumsum_exp of each row of x (rows, n), in place, with n a multiple
    of width and row r preceded by terms whose log-sum is carry[r]."""
    if width == 1:  # each term is its own chunk
        x[:] = _running_log_sum(carry, x)[1:].T
        return
    rows, n = x.shape
    chunks = x.reshape(rows, n // width, width)
    top = chunks.max(axis=2)
    low = chunks[:, :, 0] < top - _REACH
    saved = chunks[low]  # the terms of the chunks that may need redoing
    chunks -= top[..., None]
    _floored_exp(chunks)
    np.cumsum(chunks, axis=2, out=chunks)
    totals = np.log(chunks[:, :, -1])
    totals += top
    before = _running_log_sum(carry, totals)[:-1].T
    c = np.maximum(top, before)
    chunks *= _floored_exp(top - c)[..., None]
    chunks += _floored_exp(before - c)[..., None]
    np.log(chunks, out=chunks)
    chunks += c[..., None]
    redo = low & (before < top - _REACH)
    if redo.any():
        pieces = saved[redo[low]]
        _log_cumsum_rows(pieces, before[redo], width // _SPLIT if width % _SPLIT == 0 else 1)
        chunks[redo] = pieces


def _running_log_sum(carry: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """Slot (k, r) holds log(exp(carry[r]) + sum_{j<k} exp(terms[r, j])), for
    terms of shape (rows, n); the running sum is the join of the chunks."""
    acc = np.empty((terms.shape[1] + 1, len(carry)))
    acc[0] = carry
    acc[1:] = terms.T
    return np.logaddexp.accumulate(acc, axis=0, out=acc)


def _floored_exp(d: np.ndarray) -> np.ndarray:
    """exp(max(d, -_FLOOR)), in place."""
    np.maximum(d, -_FLOOR, out=d)
    return np.exp(d, out=d)


def scaled_cumsum(log_mag: np.ndarray, phase: np.ndarray, cuts=()):
    """Prefix sums of the complex terms exp(log_mag_j + i phase_j), scaled.

    Returns (scale, mantissa) arrays of length len(terms) + 1 with
    prefix_m = exp(scale[m]) * mantissa[m]; slot 0 is the empty sum. The
    mantissas stay O(number of terms) even when the prefixes themselves
    are far outside binary64 range, which is what the shadow and witness
    error curves need on strongly expanding or contracting sequences.

    The terms are summed in blocks, each carried at the scale of its
    largest term. A block ends only where the running maximum of log_mag
    climbs more than 700 above its level at the block's start: prefixes
    lower than that against the block's scale would underflow past e^-708.
    The scale starts at the first nonzero term, since from any fixed start
    terms below e^-745 would sum to zero. NaN terms count as -inf in the
    running maximum, so they never count as a rise; they still make every
    later prefix NaN.

    A block also ends before each term index in cuts. A prefix past a cut
    is then its block's own sum plus the carry, rounded once, so prefixes
    past the same cut differ by their own terms' rounding alone, not by
    that of every sum before the cut.
    """
    m = len(log_mag)
    cuts = sorted(cuts)
    scale = np.empty(m + 1)
    mant = np.empty(m + 1, dtype=complex)
    scale[0] = 0.0
    mant[0] = 0.0j
    run = np.maximum.accumulate(np.where(np.isnan(log_mag), -math.inf, log_mag))
    carry_scale = -math.inf
    carry = 0.0 + 0.0j
    start = 0
    while start < m:
        # run is nondecreasing, so the block's end is one binary search; with
        # run[start] = -inf it is the first nonzero term.
        end = int(np.searchsorted(run, run[start] + 700.0, side="right"))
        i = bisect.bisect_right(cuts, start)
        if i < len(cuts):
            end = min(end, cuts[i])
        top = float(run[end - 1])
        sigma = top if top > -math.inf else 0.0  # only zero or NaN terms so far
        with np.errstate(under="ignore", invalid="ignore"):
            prefixes = np.cumsum(np.exp((log_mag[start:end] - sigma) + 1j * phase[start:end]))
        if carry:  # carry_scale <= sigma, so the factor never overflows
            prefixes += carry * math.exp(carry_scale - sigma)
        scale[start + 1 : end + 1] = sigma
        mant[start + 1 : end + 1] = prefixes
        carry_scale = top
        carry = prefixes[-1]
        start = end
    return scale, mant

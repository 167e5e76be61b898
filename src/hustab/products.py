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


def tracking_sum_max(ledger: PartialProductLedger, upto: int, start: int = 1, log_past: float = -math.inf) -> float:
    """log of the largest tracking sum T_n = sum_{j=1}^{n} |p(n+1, j+1)|
    = 1 + |a_n| + |a_n a_{n-1}| + ... over n = start..upto, in O(upto).

    The sums before start are given as log_past = log T_{start-1} (the
    empty T_0 by default), carried on by T_n = 1 + |a_n| T_{n-1}. Taken as
    log T_n = L_{n+1} + log(e^{log_past - L_start} + sum_{start<j<=n+1}
    e^{-L_j}), the sums by log_cumsum_exp with the past as its carry, so the
    result stays finite where the linear value overflows to inf.
    """
    _check_index(upto, start, ledger.horizon, "upto")
    L = ledger.logmag
    log_t = log_cumsum_exp(np.negative(L[start + 1 : upto + 2]), log_past - L[start])  # the one full-length array
    log_t += L[start + 1 : upto + 2]
    return float(np.max(log_t))


def log_series_envelope(ledger: PartialProductLedger, N: int, log_tail: float = -math.inf) -> float:
    """log sup_{m<=N} |p(m, 1)| (e^{log_tail} + sum_{m<k<=N+1} 1 / |p(k, 1)|),
    by log_cumsum_exp of the reciprocal products taken from the horizon down,
    with log_tail, the log of what lies past N + 1, as its carry.

    The series shadow's error at m is |p(m, 1)| times a tail of
    r_j / p(j+1, 1), so this envelope times epsilon bounds its sup_error
    for every perturbation within budget, and the phase-aligned one
    attains it up to the truncation at the horizon. One full-length array
    is summed and shifted in place.
    """
    L = ledger.logmag
    log_e = log_cumsum_exp(-L[N + 1 : 1 : -1], log_tail)  # summed from -L_{N+1} down to -L_2
    log_e = log_e[::-1]  # slot i: log of the tail plus sum_{i+2<=k<=N+1} 1 / |p(k, 1)|
    log_e += L[1 : N + 1]
    return float(np.max(log_e))


# log_cumsum_exp sums chunks of _CHUNK terms at a time; a chunk that must be
# redone is split into pieces of _SPLIT terms, and those down to single terms.
# Terms padded past a row's end change none of its earlier prefixes.
_CHUNK = 256
_SPLIT = 16
# Every exp argument is kept in [-_FLOOR, 0], where exp is normal and takes
# its fast path (a subnormal result costs it about 100 times as long).
_FLOOR = 700.0
# A chunk is summed at its own maximum only where each of its prefixes,
# carry included, lies within e^-_REACH of that maximum. A prefix's log is
# found as a difference from the maximum, rounded to the spacing of that
# difference: below 512 that spacing is 2^-44, about 5.7e-14.
_REACH = 500.0


def log_cumsum_exp(x: np.ndarray, carry: float = -math.inf) -> np.ndarray:
    """y_k = log(exp(carry) + sum_{i<=k} exp(x_i)) for a contiguous 1-D array
    of finite floats, written over x, which is returned; carry, -inf by
    default, is the log of what precedes x_0.

    The terms are taken in chunks of 256. Each chunk is scaled by its own
    maximum m and summed by exp, a row-wise cumsum and log over all chunks
    at once. A short running log-sum-exp of the chunk totals gives each
    chunk's carry, the log of all that precedes it, and each prefix is
    c + log(local e^(m - c) + e^(carry - c)) with c = max(m, carry). It is
    rounded once per chunk, not once per term as a running logaddexp is.

    Exponents below -700 are raised to -700. That moves a prefix by under
    256 e^-200 relative wherever the prefix lies within e^-500 of its
    chunk's maximum. A chunk whose first term and carry both lie further
    below is redone from its saved terms, split into pieces of 16 and those,
    where needed, into single terms, so every prefix comes out exact.
    """
    if x.ndim != 1 or not x.flags.c_contiguous:
        raise ValueError("log_cumsum_exp works in place on a contiguous 1-D array")
    n = len(x)
    full = n - n % _CHUNK
    carry = np.full(1, carry)
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
        split = _SPLIT if width > _SPLIT else 1
        if width % split:  # a short last chunk, padded with its own last term
            pieces = np.pad(pieces, ((0, 0), (0, split - width % split)), mode="edge")
        _log_cumsum_rows(pieces, before[redo], split)
        chunks[redo] = pieces[:, :width]


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

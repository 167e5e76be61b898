"""Shared test helpers: random spec generation and brute-force oracles.

The oracles here are deliberately naive (repeated multiplication, direct
summation, direct recursion) so they stay independent of the log-domain
paths they check.
"""

import cmath
import math

import numpy as np

import hustab as hs
from hustab.errors import InvalidSpec
from hustab.sequences import coeff_arrays


def random_table_spec(rng, n, amin=0.25, amax=4.0, bmax=10.0, tail="repeat"):
    """Random complex coefficients with |a| log-uniform in [amin, amax]."""
    loga = rng.uniform(np.log(amin), np.log(amax), n)
    a = np.exp(loga) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
    b = bmax * np.sqrt(rng.uniform(0, 1, n)) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
    return hs.table_spec(list(zip(a, b)), tail=tail)


def random_disc(rng, n, radius=1.0):
    """n samples uniform on the closed disc of the given radius."""
    return radius * np.sqrt(rng.uniform(0, 1, n)) * np.exp(2j * np.pi * rng.uniform(0, 1, n))


def padded(values):
    """Prepend the slot-0 padding, making a 1-based index-aligned array."""
    return np.concatenate([[np.nan], np.asarray(values, dtype=complex)])


def coeff_at(spec, n):
    """(a_n, b_n) for index n >= 1: one element of the a and b columns of
    coeff_arrays, so no log or phase of a listed entry is taken."""
    a, b = coeff_arrays(spec, [n], "a", "b")
    return complex(a[0]), complex(b[0])


def coeff_full(spec, n):
    """(a_n, b_n, log|a_n|, arg a_n) for index n >= 1: one element of all
    four columns of coeff_arrays."""
    a, b, log_mag, angle = coeff_arrays(spec, [n])
    return complex(a[0]), complex(b[0]), float(log_mag[0]), float(angle[0])


def coeffs_upto(spec, n):
    """a and b as 1-based padded arrays, via coeff_at only."""
    a = [np.nan]
    b = [np.nan]
    for j in range(1, n + 1):
        aj, bj = coeff_at(spec, j)
        a.append(aj)
        b.append(bj)
    return np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)


def brute_partial_product(a, m, k):
    """p(m, k) by repeated multiplication; a is 1-based padded."""
    out = 1.0 + 0.0j
    for j in range(k, m):
        out *= a[j]
    return out


def closed_form_at(ledger, b, z1, n):
    """z_n = p(n, 1) z_1 + sum_{j=1}^{n-1} b_j p(n, j+1), for 2 <= n <= horizon + 1.
    Each summand is exp of a difference of the ledger's prefix logs and
    phases, the parts summed by math.fsum; b is 1-based padded, as
    coeffs_upto reads it through coeff_at."""
    L, th = ledger.logmag, ledger.phase
    bj = b[1:n]
    with np.errstate(over="ignore", divide="ignore"):
        terms = np.exp((L[n] - L[2 : n + 1] + np.log(np.abs(bj))) + 1j * (th[n] - th[2 : n + 1] + np.angle(bj)))
        head = np.exp(L[n] + 1j * th[n]) * complex(z1)
    return complex(math.fsum(terms.real) + head.real, math.fsum(terms.imag) + head.imag)


def brute_reciprocal_sum(a, n):
    """sum_{j=1}^{n-1} 1 / |p(j, 1)|: products by repeated multiplication,
    summed by math.fsum; a is 1-based padded, of length at least n."""
    terms = []
    prod = 1.0 + 0.0j
    for j in range(1, n):
        terms.append(1.0 / abs(prod))  # prod is p(j, 1)
        prod *= a[j]
    return math.fsum(terms)


def brute_tracking_sum(a, n):
    """1 + |a_n| + |a_n a_{n-1}| + ... + |a_n ... a_2| by direct products."""
    total = 1.0
    prod = 1.0
    for j in range(n, 1, -1):
        prod *= abs(a[j])
        total += prod
    return total


def brute_series_envelope(a, N):
    """max_{1<=m<=N} sum_{m<k<=N+1} |p(m, 1)| / |p(k, 1)| in mpmath, each
    ratio 1 / |a_m ... a_{k-1}| by repeated division; a is 1-based padded,
    of length at least N + 1. Returned as an mpmath number, which does not
    overflow where the envelope leaves float range."""
    import mpmath

    with mpmath.workprec(200):
        best = mpmath.mpf(0)
        for m in range(1, N + 1):
            total, ratio = mpmath.mpf(0), mpmath.mpf(1)
            for k in range(m + 1, N + 2):
                ratio /= abs(mpmath.mpc(a[k - 1]))
                total += ratio
            best = max(best, total)
        return +best


def _log_sum_exp(x):
    """log sum exp(x), the mantissas summed by math.fsum."""
    top = float(np.max(x))
    return top + math.log(math.fsum(np.exp(x - top)))


def subexponential_ratio(t, n):
    """t_n / sum_{j=1}^{n-1} t_j for a positive sequence t (t[0] = t_1).
    It tends to 0 exactly when t grows subexponentially. Taken in log
    space, so t may span the whole positive float range."""
    log_t = np.log(np.asarray(t[:n], dtype=float))
    return math.exp(log_t[n - 1] - _log_sum_exp(log_t[: n - 1]))


def balance_ratio(t, K, n):
    """t_n K^n / sum_{j=1}^{n-1} t_j K^j for K > 1 (t[0] = t_1). It tends
    to K - 1 exactly when t_n^(1/n) -> 1. Taken in log space: K^n
    overflows binary64 at n = 1000."""
    weighted = np.log(np.asarray(t[:n], dtype=float)) + math.log(K) * np.arange(1, n + 1)
    return math.exp(weighted[n - 1] - _log_sum_exp(weighted[: n - 1]))


def brute_orbit(a, b, x1, upto, r=None):
    """x_1 = x1, x_{n+1} = a_n x_n + b_n (+ r_n) by direct recursion in
    Python complex arithmetic; 1-based padded output of length upto + 1."""
    out = [np.nan, complex(x1)]
    x = complex(x1)
    for n in range(1, upto):
        x = complex(a[n]) * x + complex(b[n])
        if r is not None:
            x = x + complex(r[n])
        out.append(x)
    return np.asarray(out, dtype=complex)


def brute_residuals(a, r, upto):
    """R_n = a_n R_{n-1} + r_n by direct recursion; 1-based padded output."""
    out = [0.0 + 0.0j]
    R = 0.0 + 0.0j
    for n in range(1, upto + 1):
        R = a[n] * R + r[n]
        out.append(R)
    return np.asarray(out, dtype=complex)


def naive_csv_text(header: str, *columns: np.ndarray) -> str:
    """The per-row CSV writer: the header, then per row the comma-joined
    repr of each column's entry as a Python int or float. .tolist() runs
    4096 rows at a time, so the Python copies stay small."""
    rows = [header]
    for start in range(0, len(columns[0]), 4096):
        lists = [c[start : start + 4096].tolist() for c in columns]
        rows += (",".join(map(repr, row)) for row in zip(*lists))
    return "\n".join(rows) + "\n"


_NUMBER_TYPES = frozenset({int, float})


def naive_pair_from_list(vals):
    """The per-pair wire-format parse: one (complex, complex) pair from a
    JSON list of four numbers, or InvalidSpec naming the list."""
    # type checks through C-level map, since tables run to 1e5+ pairs
    if type(vals) is not list or len(vals) != 4 or not _NUMBER_TYPES.issuperset(map(type, vals)):
        raise InvalidSpec(f"a coefficient pair must be 4 numbers [re a, im a, re b, im b], got {vals!r}")
    try:
        re_a, im_a, re_b, im_b = map(float, vals)
    except OverflowError:
        raise InvalidSpec(f"coefficient pair {vals!r} leaves float range") from None
    return complex(re_a, im_a), complex(re_b, im_b)


def naive_abs(a):
    """Python's abs of a complex a. CPython's abs of an a with a NaN part
    reads a stale errno, so it raises OverflowError when the abs before it
    overflowed; math.hypot gives the C99 modulus (inf or NaN) there."""
    return abs(a) if cmath.isfinite(a) else math.hypot(a.real, a.imag)


def naive_entry_columns(pairs):
    """(a, b, log|a|, arg a) of a tuple of (complex, complex) pairs, in
    listed order: one Python abs, math.log and math.atan2 per entry."""
    n = len(pairs)
    log_mag = np.fromiter((math.log(naive_abs(a)) if a else -math.inf for a, _ in pairs), float, n)
    # math.atan2 is cmath.phase without its refusal of a subnormal angle
    phase = np.fromiter((math.atan2(a.imag, a.real) for a, _ in pairs), float, n)
    a = np.fromiter((x for x, _ in pairs), complex, n)
    b = np.fromiter((y for _, y in pairs), complex, n)
    return a, b, log_mag, phase


def rel_close(x, y, tol):
    """|x - y| <= tol * (1 + |y|), elementwise."""
    return np.all(np.abs(np.asarray(x) - np.asarray(y)) <= tol * (1.0 + np.abs(np.asarray(y))))

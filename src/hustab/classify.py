"""Stability classification of coefficient sequences.

Every spec of listed entries, except a table with an error tail, is a
finite prefix plus a cycle that repeats for ever, and admits an exact
verdict through the cycle product q = prod a_k: |q| < 1 and |q| > 1 are
both Stable (with different shadow constructions and tracking constants)
while |q| = 1 is Unstable because the partial products stay bounded and
bounded away from zero. Formula families and error-tail tables are
estimated at the horizon N from the geometric-mean exponent L_n / n over
the trailing half of the indices (WINDOW), compared with a band of half
width BAND around 0, and labelled as finite-horizon verdicts.

A Stable verdict's tracking constant c is the exact error envelope of the
shadow construction it names, so sup_n |w_n - z_n| <= c epsilon for every
perturbation within budget: the supremum of the tracking sums for the
equal-start shadow, and sup_m sum_{k>m} |p(m, 1) / p(k, 1)| for the
reciprocal series. It is computed once, as its natural log, because it
leaves float range wherever the products swing by more than e^709.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRange
from .products import (
    PartialProductLedger,
    build_ledger,
    log_cumsum_exp,
    log_series_envelope,
    tracking_sum_max,
)
from .sequences import CoefficientSpec, coeff_arrays

STABLE = "Stable"
UNSTABLE = "Unstable"
UNDETERMINED = "Undetermined"

EXPANDING_CRITERIA = frozenset({"periodic_expanding", "geomean_expanding"})
UNSTABLE_CRITERIA = frozenset({"geomean_subexponential", "bounded_products", "linear_growth_products"})

# The finite-horizon detector reads L_n / n over the trailing WINDOW share
# of the indices 1..N and counts it as vanishing within BAND of 0.
WINDOW = 0.5
BAND = 0.02

# Finite-horizon detector thresholds for the bounded-products branch:
# products count as bounded while max L_n stays under this log bound, and
# n |p(n, 1)| counts as divergent when L_n regressed against -log n has a
# slope below the growth threshold (|p| ~ n^{-alpha} with alpha < 1 makes
# n |p| ~ n^{1 - alpha} unbounded).
LOG_PRODUCT_BOUND = 50.0
GROWTH_SLOPE_MAX = 0.9

# Values at or above e^709 are written to JSON as their log (see log_scaled).
JSON_LOG_MAX = 709.0


def log_scaled(name: str, log_value: float | None) -> dict:
    """The JSON entry of a value kept as its log: {name: e^log_value} below
    e^709, {"log_" + name: log_value} at or above it, {name: None} when
    there is no value. A document never holds Infinity this way."""
    if log_value is not None and log_value >= JSON_LOG_MAX:
        return {f"log_{name}": log_value}
    return {name: None if log_value is None else math.exp(log_value)}


@dataclass(frozen=True)
class StabilityVerdict:
    """Outcome of a classification.

    Stable verdicts carry the natural log of their tracking constant c,
    with sup_n |w_n - z_n| <= c * epsilon for the matching shadow
    construction; the other verdicts carry their criterion and estimates
    (witness.make_witness picks the plan an Unstable criterion gets).
    Numeric verdicts are finite-horizon and say so.
    """

    status: str
    criterion: str | None
    log_constant: float | None
    estimates: dict
    finite_horizon: bool
    horizon: int | None

    def __post_init__(self):
        if self.status == STABLE and not (self.log_constant is not None and math.isfinite(self.log_constant)):
            raise ValueError("Stable verdicts need a finite log tracking constant")
        if self.status != STABLE and self.log_constant is not None:
            raise ValueError("only Stable verdicts carry a tracking constant")

    @property
    def constant(self) -> float | None:
        """The tracking constant c, inf past float range; None unless Stable."""
        if self.log_constant is None:
            return None
        try:
            return math.exp(self.log_constant)
        except OverflowError:
            return math.inf

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "criterion": self.criterion,
            **log_scaled("constant", self.log_constant),
            "estimates": dict(self.estimates),
            "finite_horizon": self.finite_horizon,
            "horizon": self.horizon,
        }


def classify_periodic(spec: CoefficientSpec, N: int) -> StabilityVerdict:
    """Exact trichotomy on |q|, q = product of the cycle a_s..a_k that
    follows the prefix a_1..a_{s-1}, s = spec.cycle_start.

    The constants hold at infinite horizon: each is a horizon constant over
    the first k indices with the cycle's tail carried in. With Q = |q| and
    one = log sum_{s<j<=k+1} e^{-L_j}, the cycle's own sum:
    - expanding, the envelope at m >= s repeats with period p, and the
      reciprocal products past L_{k+1} sum to e^one / (Q - 1);
    - contracting, T_{n+p} = A_n + Q T_n once a_{n+1} is in the cycle, so
      each residue class moves monotonically to its limit A_n / (1 - Q):
      the supremum is a tracking sum within the first k indices or a limit,
      and the limits are the tracking sums from s on, carried from
      T*_{s-1} = e^{L_{k+1} + one} / (1 - Q). With no prefix (s = 1) every
      class rises from T_0 = 0, so the limits alone are the supremum.
    Both denominators are -expm1(-|log Q|), which stays exact where Q rounds
    to 1. The tail's shift by a cycle is the ledger's own L_{k+1} - L_s, so
    it carries the same rounding as the terms it continues.
    log_sup_abs_p, max L_1..L_N over the horizon N, is read off the first
    cycle and the count of cycles that fit.
    """
    s = spec.cycle_start
    if s is None:
        raise ValueError("exact cycle classification needs constant or periodic entries, or a table with "
                         f"tail 'repeat'; got a {spec.kind} spec with no cycle")
    k = len(spec.entries)
    p = k - s + 1
    ledger = build_ledger(spec, k)
    L = ledger.logmag
    (log_mag,) = coeff_arrays(spec, np.arange(s, k + 1), "log_abs")
    log_q = math.fsum(log_mag.tolist())
    log_sup_p = float(np.max(L[1 : min(N, k) + 1]))
    if log_q > 0.0 and N > k:  # each slot of the cycle at its last index up to N
        log_sup_p = max(log_sup_p, float(np.max(L[s : k + 1] + (N - np.arange(s, k + 1)) // p * log_q)))
    estimates = {
        "geomean_exponent": log_q / p,
        "log_abs_cycle_product": log_q,
        "log_sup_abs_p": log_sup_p,
        "period": float(p),
    }

    def verdict(status, criterion, log_constant=None):
        return StabilityVerdict(
            status=status, criterion=criterion, log_constant=log_constant,
            estimates=estimates, finite_horizon=False, horizon=None,
        )

    if log_q == 0.0:
        return verdict(UNSTABLE, "bounded_products")
    log_geom = -math.log(-math.expm1(-abs(log_q)))  # log 1 / (1 - min(Q, 1/Q))
    one = float(log_cumsum_exp(np.negative(L[s + 1 : k + 2]))[-1])  # log sum_{s<j<=k+1} e^{-L_j}
    if log_q < 0.0:
        log_past = float(L[k + 1]) + one + log_geom  # log T*_{s-1}
        log_c = tracking_sum_max(ledger, k, s, log_past)
        if s > 1:  # with no prefix, each T_n rises from T_0 = 0 to its limit
            log_c = max(tracking_sum_max(ledger, k), log_c)
        return verdict(STABLE, "periodic_contracting", log_c)
    log_tail = one - float(L[k + 1] - L[s]) + log_geom
    return verdict(STABLE, "periodic_expanding", log_series_envelope(ledger, k, log_tail))


def classify_numeric(ledger: PartialProductLedger) -> StabilityVerdict:
    """Finite-horizon decision procedure on the windowed L_n / n values,
    over the ledger's horizon N.

    In order: windowed max below -BAND is Stable (contracting, constant is
    the horizon supremum of the tracking sums); windowed min above +BAND
    is Stable (expanding, constant is the series envelope over the
    horizon, log_series_envelope); the whole window inside
    the band is Unstable (subexponential products); bounded products whose
    n-weighted supremum still grows is Unstable (linear growth); anything
    else is Undetermined. All verdicts carry their estimates.
    """
    N = ledger.horizon
    if N < 2:  # the window starts at n = 2
        raise IndexOutOfRange(f"horizon must be >= 2, got {N}")
    L = ledger.logmag
    w0 = max(2, int(N * (1.0 - WINDOW)) + 1)
    ns = np.arange(w0, N + 1)
    g = L[w0 : N + 1] / ns
    gmin, gmax = float(np.min(g)), float(np.max(g))
    del g  # at most one full-length temporary lives beside the ledger
    log_sup_track = tracking_sum_max(ledger, N)
    with np.errstate(over="ignore"):
        sup_track = float(np.exp(log_sup_track))
    log_sup_p = float(np.max(L[1 : N + 1]))
    log_inf_p = float(np.min(L[1 : N + 1]))
    log_n_p = np.arange(1.0, N + 1)
    np.log(log_n_p, out=log_n_p)
    log_n_p += L[1 : N + 1]
    log_sup_np = float(np.max(log_n_p))
    del log_n_p
    estimates = {
        "geomean_window_min": gmin,
        "geomean_window_max": gmax,
        "log_sup_tracking_sum": log_sup_track,
        "log_sup_abs_p": log_sup_p,
        "log_inf_abs_p": log_inf_p,
        "log_sup_n_abs_p": log_sup_np,
    }
    if math.isfinite(sup_track):
        # JSON has no infinity: past ~709 only the log estimate is reported
        estimates["sup_tracking_sum"] = sup_track

    def verdict(status, criterion, log_constant=None):
        return StabilityVerdict(
            status=status, criterion=criterion, log_constant=log_constant,
            estimates=estimates, finite_horizon=True, horizon=N,
        )

    if gmax < -BAND:
        return verdict(STABLE, "geomean_contracting", log_constant=log_sup_track)
    if gmin > BAND:
        return verdict(STABLE, "geomean_expanding", log_constant=log_series_envelope(ledger, N))
    if max(abs(gmin), abs(gmax)) <= BAND:
        return verdict(UNSTABLE, "geomean_subexponential")
    if log_sup_p < LOG_PRODUCT_BOUND:
        slope = float(np.polyfit(-np.log(ns), L[w0 : N + 1], 1)[0])
        estimates["decay_slope_vs_log_n"] = slope
        if slope < GROWTH_SLOPE_MAX:
            return verdict(UNSTABLE, "linear_growth_products")
    return verdict(UNDETERMINED, None)


def classify(
    spec: CoefficientSpec,
    N: int = 10_000,
    ledger: PartialProductLedger | None = None,
) -> StabilityVerdict:
    """Front door at horizon N >= 2: exact classification of every spec
    that ends in a cycle, finite-horizon estimation of the rest (formula
    families, error tails) over a ledger of horizon N, the given one when
    it has that horizon. Both take their constants from tracking_sum_max
    and log_series_envelope, the exact ones with the cycle's tail carried
    in."""
    if N < 2:
        raise ValueError(f"horizon must be >= 2, got {N}")
    if spec.cycle_start is not None:
        return classify_periodic(spec, N)
    if ledger is None or ledger.horizon != N:
        ledger = build_ledger(spec, N)
    return classify_numeric(ledger)


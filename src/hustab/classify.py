"""Stability classification of coefficient sequences.

Constant and periodic specs admit an exact verdict through the cycle
product q = prod_{k<=p} a_k: |q| < 1 and |q| > 1 are both Stable (with
different shadow constructions and tracking constants) while |q| = 1 is
Unstable because the partial products stay bounded and bounded away from
zero. Everything else is estimated at a finite horizon from the windowed
behaviour of the geometric-mean exponent L_n / n and labelled as such.

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
    tracking_sum_max,
)
from .sequences import CoefficientSpec, coeff_arrays

STABLE = "Stable"
UNSTABLE = "Unstable"
UNDETERMINED = "Undetermined"

EXPANDING_CRITERIA = frozenset({"periodic_expanding", "geomean_expanding"})
UNSTABLE_CRITERIA = frozenset({"geomean_subexponential", "bounded_products", "linear_growth_products"})

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
class HorizonConfig:
    """Finite-horizon estimation knobs.

    N:       horizon (indices materialized and classified over)
    window:  trailing fraction of indices used for liminf/limsup estimates
    band:    half-width around 0 inside which L_n / n counts as vanishing
    """

    N: int = 10_000
    window: float = 0.5
    band: float = 0.02

    def __post_init__(self):
        if self.N < 2:
            raise ValueError(f"horizon must be >= 2, got {self.N}")
        if not 0.0 < self.window <= 1.0:
            raise ValueError(f"window must lie in (0, 1], got {self.window}")
        if not 0.0 < self.band < math.inf:
            raise ValueError(f"band must be positive and finite, got {self.band}")

    def to_json(self) -> dict:
        return {"N": self.N, "window": self.window, "band": self.band}


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
    config: HorizonConfig | None = None

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
            "config": self.config.to_json() if self.config else None,
        }


def _cycle_log_sup(log_x: np.ndarray) -> float:
    """log of max over rotations l of sum_{t=1..p} prod_{j<t} x_{l+j}, for
    the cycle x_0..x_{p-1} given as log x.

    With C_k = log x_0 + ... + log x_{k-1} and s = C_p, the rotation-l sum
    is e^{-C_l} (sum_{l<k<=p} e^{C_k} + e^s sum_{1<=k<=l} e^{C_k}): two sums
    of positive terms, summed by log_cumsum_exp from either end of the
    cycle, so no rotation is summed twice and nothing cancels.
    """
    C = np.cumsum(log_x)  # slot k - 1: C_k
    tail = log_cumsum_exp(C[::-1].copy())[::-1]  # slot l: log sum_{l<k<=p} e^{C_k}
    head = np.concatenate([[-np.inf], C[:-1]])
    log_cumsum_exp(head[1:])  # slot l: log sum_{k<=l} e^{C_k}
    start = np.concatenate([[0.0], C[:-1]])  # slot l: C_l
    return float(np.max(np.logaddexp(tail, C[-1] + head) - start))


def classify_periodic(spec: CoefficientSpec, cfg: HorizonConfig | None = None) -> StabilityVerdict:
    """Exact trichotomy on |q|, q = product of one full cycle of a-values.

    Constant specs classify as period 1. Both Stable constants are closed
    forms over one cycle of the reciprocal magnitudes x_k = 1/|a_k|, with
    S = max_l sum_{t=1..p} prod_{j<t} x_{l+j} and Q = |q|. Expanding, the
    series envelope sup_m sum_{k>m} |p(m, 1) / p(k, 1)| is S / (1 - 1/Q).
    Contracting, the supremum of the tracking sums 1 + |a_n| + |a_n a_{n-1}|
    + ... is the limit of their largest residue class, Q S / (1 - Q). Both
    denominators are -expm1(-|log Q|), which stays exact where Q rounds
    to 1; the sums are carried in log space.
    """
    cfg = cfg or HorizonConfig()
    if spec.kind not in ("constant", "periodic"):
        raise ValueError(f"exact cycle classification needs constant or periodic, got {spec.kind}")
    p = len(spec.entries)
    (log_mag,) = coeff_arrays(spec, np.arange(1, p + 1), "log_abs")
    log_q = math.fsum(log_mag.tolist())
    estimates = {
        "geomean_exponent": log_q / p,
        "log_abs_cycle_product": log_q,
        "period": float(p),
    }
    if log_q == 0.0:
        return StabilityVerdict(
            status=UNSTABLE, criterion="bounded_products", log_constant=None,
            estimates=estimates, finite_horizon=False, horizon=None, config=cfg,
        )
    log_c = _cycle_log_sup(-log_mag) - math.log(-math.expm1(-abs(log_q))) + min(log_q, 0.0)
    return StabilityVerdict(
        status=STABLE, criterion="periodic_contracting" if log_q < 0.0 else "periodic_expanding",
        log_constant=log_c, estimates=estimates, finite_horizon=False, horizon=None, config=cfg,
    )


def classify_numeric(
    spec: CoefficientSpec,
    ledger: PartialProductLedger,
    cfg: HorizonConfig | None = None,
) -> StabilityVerdict:
    """Finite-horizon decision procedure on the windowed L_n / n values.

    In order: windowed max below -band is Stable (contracting, constant is
    the horizon supremum of the tracking sums); windowed min above +band
    is Stable (expanding, constant is the series envelope over the
    horizon, log_series_envelope); the whole window inside
    the band is Unstable (subexponential products); bounded products whose
    n-weighted supremum still grows is Unstable (linear growth); anything
    else is Undetermined. All verdicts carry their estimates.
    """
    cfg = cfg or HorizonConfig()
    N = cfg.N
    if ledger.horizon < N:
        raise IndexOutOfRange(f"ledger horizon {ledger.horizon} < configured N {N}")
    L = ledger.logmag
    w0 = max(2, int(N * (1.0 - cfg.window)) + 1)
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
            estimates=estimates, finite_horizon=True, horizon=N, config=cfg,
        )

    eta = cfg.band
    if gmax < -eta:
        return verdict(STABLE, "geomean_contracting", log_constant=log_sup_track)
    if gmin > eta:
        return verdict(STABLE, "geomean_expanding", log_constant=log_series_envelope(ledger, N))
    if max(abs(gmin), abs(gmax)) <= eta:
        return verdict(UNSTABLE, "geomean_subexponential")
    if log_sup_p < LOG_PRODUCT_BOUND:
        slope = float(np.polyfit(-np.log(ns), L[w0 : N + 1], 1)[0])
        estimates["decay_slope_vs_log_n"] = slope
        if slope < GROWTH_SLOPE_MAX:
            return verdict(UNSTABLE, "linear_growth_products")
    return verdict(UNDETERMINED, None)


def classify(
    spec: CoefficientSpec,
    cfg: HorizonConfig | None = None,
    ledger: PartialProductLedger | None = None,
) -> StabilityVerdict:
    """Front door: exact cycle classification when the spec allows it,
    finite-horizon estimation otherwise."""
    cfg = cfg or HorizonConfig()
    if spec.kind in ("constant", "periodic"):
        return classify_periodic(spec, cfg)
    if ledger is None or ledger.horizon < cfg.N:
        ledger = build_ledger(spec, cfg.N)
    return classify_numeric(spec, ledger, cfg)


def log_series_envelope(ledger: PartialProductLedger, N: int) -> float:
    """log sup_{m<=N} sum_{m<k<=N+1} |p(m, 1)| / |p(k, 1)|, by
    log_cumsum_exp of the reciprocal products taken from the horizon down.

    The series shadow's error at m is |p(m, 1)| times a tail of
    r_j / p(j+1, 1), so this envelope times epsilon bounds its sup_error
    for every perturbation within budget, and the phase-aligned one
    attains it up to the truncation at the horizon. One full-length array
    is summed and shifted in place.
    """
    L = ledger.logmag
    log_e = log_cumsum_exp(-L[N + 1 : 1 : -1])  # summed from -L_{N+1} down to -L_2
    log_e = log_e[::-1]  # slot i: log sum_{i+2<=k<=N+1} 1 / |p(k, 1)|
    log_e += L[1 : N + 1]
    return float(np.max(log_e))

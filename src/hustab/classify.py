"""Stability classification of coefficient sequences.

Constant and periodic specs admit an exact verdict through the cycle
product q = prod_{k<=p} a_k: |q| < 1 and |q| > 1 are both Stable (with
different shadow constructions and tracking constants) while |q| = 1 is
Unstable because the partial products stay bounded and bounded away from
zero. Everything else is estimated at a finite horizon from the windowed
behaviour of the geometric-mean exponent L_n / n and labelled as such.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import HorizonTooSmall, NotPeriodic, NotStable
from .products import (
    PartialProductLedger,
    build_ledger,
    tracking_sum_max,
)
from .sequences import CoefficientSpec, coeff_arrays

STABLE = "Stable"
UNSTABLE = "Unstable"
UNDETERMINED = "Undetermined"

CRITERIA = (
    "periodic_contracting",
    "periodic_expanding",
    "periodic_unimodular",
    "bounded_tracking_sum",
    "geomean_subexponential",
    "geomean_expanding",
    "geomean_contracting",
    "bounded_products",
    "linear_growth_products",
)
CONTRACTING_CRITERIA = frozenset({"periodic_contracting", "geomean_contracting", "bounded_tracking_sum"})
EXPANDING_CRITERIA = frozenset({"periodic_expanding", "geomean_expanding"})
UNSTABLE_CRITERIA = frozenset({"geomean_subexponential", "bounded_products", "linear_growth_products"})

# Finite-horizon detector thresholds for the bounded-products branch:
# products count as bounded while max L_n stays under this log bound, and
# n |p(n, 1)| counts as divergent when L_n regressed against -log n has a
# slope below the growth threshold (|p| ~ n^{-alpha} with alpha < 1 makes
# n |p| ~ n^{1 - alpha} unbounded).
LOG_PRODUCT_BOUND = 50.0
GROWTH_SLOPE_MAX = 0.9


@dataclass(frozen=True)
class HorizonConfig:
    """Finite-horizon estimation knobs.

    N:       horizon (indices materialized and classified over)
    window:  trailing fraction of indices used for liminf/limsup estimates
    band:    half-width around 0 inside which L_n / n counts as vanishing
    delta:   safety margin in (0, 1) used in the expanding tail bound
    """

    N: int = 10_000
    window: float = 0.5
    band: float = 0.02
    delta: float = 0.1

    def __post_init__(self):
        if self.N < 2:
            raise ValueError(f"horizon must be >= 2, got {self.N}")
        if not 0.0 < self.window <= 1.0:
            raise ValueError(f"window must lie in (0, 1], got {self.window}")
        if self.band <= 0.0:
            raise ValueError(f"band must be positive, got {self.band}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")

    def to_json(self) -> dict:
        return {"N": self.N, "window": self.window, "band": self.band, "delta": self.delta}


@dataclass(frozen=True)
class StabilityVerdict:
    """Outcome of a classification.

    Stable verdicts carry a finite tracking constant c with
    sup_n |w_n - z_n| <= c * epsilon for the matching shadow construction;
    Unstable verdicts carry the witness-plan variant that realizes the
    divergence; Undetermined verdicts carry estimates only. Numeric
    verdicts are finite-horizon and say so.
    """

    status: str
    criterion: str | None
    constant: float | None
    witness_variant: str | None
    estimates: dict
    finite_horizon: bool
    horizon: int | None
    config: HorizonConfig | None = None

    def __post_init__(self):
        if self.status == STABLE and not (self.constant is not None and math.isfinite(self.constant)):
            raise ValueError("Stable verdicts need a finite tracking constant")
        if self.status == UNSTABLE and not self.witness_variant:
            raise ValueError("Unstable verdicts need a witness plan")

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "criterion": self.criterion,
            "constant": self.constant,
            "witness_plan": self.witness_variant,
            "estimates": dict(self.estimates),
            "finite_horizon": self.finite_horizon,
            "horizon": self.horizon,
            "config": self.config.to_json() if self.config else None,
        }


def _cycle_tracking_sup(mags, Q: float) -> float:
    """Exact sup of the tracking sums for a periodic magnitude cycle.

    Within each residue class the sums increase toward A_l / (1 - Q),
    where A_l collects the p trailing partial products ending at that
    class; the supremum over n is the largest of those limits.
    """
    p = len(mags)
    best = 0.0
    for l in range(p):
        acc = 1.0
        prod = 1.0
        for t in range(p - 1):
            prod *= mags[(l - t) % p]
            acc += prod
        best = max(best, acc / (1.0 - Q))
    return best


def classify_periodic(spec: CoefficientSpec, cfg: HorizonConfig | None = None) -> StabilityVerdict:
    """Exact trichotomy on |q|, q = product of one full cycle of a-values.

    Constant specs classify as period 1. The contracting constant is the
    exact supremum of the tracking sums; the expanding constant comes from
    the tail bound 1 / (K^{1-delta} - 1) at K = |q|^{1/p}.
    """
    cfg = cfg or HorizonConfig()
    if spec.kind not in ("constant", "periodic"):
        raise NotPeriodic(f"exact cycle classification needs constant or periodic, got {spec.kind}")
    p = spec.period_length
    a, _, log_mag, _ = coeff_arrays(spec, np.arange(1, p + 1))
    mags = [abs(x) for x in a.tolist()]
    log_q = math.fsum(log_mag.tolist())
    estimates = {
        "geomean_exponent": log_q / p,
        "log_abs_cycle_product": log_q,
        "period": float(p),
    }
    if log_q < 0.0:
        Q = math.exp(log_q)
        c = _cycle_tracking_sup(mags, Q)
        estimates["sup_tracking_sum"] = c
        return StabilityVerdict(
            status=STABLE, criterion="periodic_contracting", constant=c,
            witness_variant=None, estimates=estimates, finite_horizon=False,
            horizon=None, config=cfg,
        )
    if log_q > 0.0:
        K = math.exp(log_q / p)
        c = 1.0 / (K ** (1.0 - cfg.delta) - 1.0)
        return StabilityVerdict(
            status=STABLE, criterion="periodic_expanding", constant=c,
            witness_variant=None, estimates=estimates, finite_horizon=False,
            horizon=None, config=cfg,
        )
    return StabilityVerdict(
        status=UNSTABLE, criterion="bounded_products", constant=None,
        witness_variant="phase_aligned", estimates=estimates, finite_horizon=False,
        horizon=None, config=cfg,
    )


def classify_numeric(
    spec: CoefficientSpec,
    ledger: PartialProductLedger,
    cfg: HorizonConfig | None = None,
) -> StabilityVerdict:
    """Finite-horizon decision procedure on the windowed L_n / n values.

    In order: windowed max below -band is Stable (contracting, constant is
    the horizon supremum of the tracking sums); windowed min above +band
    is Stable (expanding, tail-bound constant); the whole window inside
    the band is Unstable (subexponential products); bounded products whose
    n-weighted supremum still grows is Unstable (linear growth); anything
    else is Undetermined. All verdicts carry their estimates.
    """
    cfg = cfg or HorizonConfig()
    N = cfg.N
    if ledger.horizon < N:
        raise HorizonTooSmall(f"ledger horizon {ledger.horizon} < configured N {N}")
    L = ledger.logmag
    w0 = max(2, int(N * (1.0 - cfg.window)) + 1)
    ns = np.arange(w0, N + 1)
    g = L[w0 : N + 1] / ns
    gmin, gmax = float(np.min(g)), float(np.max(g))
    _, log_sup_track = tracking_sum_max(ledger, N, log=True)
    with np.errstate(over="ignore"):
        sup_track = float(np.exp(log_sup_track))
    all_n = np.arange(1, N + 1)
    log_sup_p = float(np.max(L[1 : N + 1]))
    log_inf_p = float(np.min(L[1 : N + 1]))
    log_sup_np = float(np.max(np.log(all_n) + L[1 : N + 1]))
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

    def verdict(status, criterion, constant=None, witness=None):
        return StabilityVerdict(
            status=status, criterion=criterion, constant=constant,
            witness_variant=witness, estimates=estimates, finite_horizon=True,
            horizon=N, config=cfg,
        )

    eta = cfg.band
    if gmax < -eta:
        return verdict(STABLE, "geomean_contracting", constant=sup_track)
    if gmin > eta:
        c = 1.0 / (math.exp((1.0 - cfg.delta) * gmin) - 1.0)
        return verdict(STABLE, "geomean_expanding", constant=c)
    if max(abs(gmin), abs(gmax)) <= eta:
        return verdict(UNSTABLE, "geomean_subexponential", witness="phase_aligned")
    if log_sup_p < LOG_PRODUCT_BOUND:
        slope = float(np.polyfit(-np.log(ns), L[w0 : N + 1], 1)[0])
        estimates["decay_slope_vs_log_n"] = slope
        if slope < GROWTH_SLOPE_MAX:
            return verdict(UNSTABLE, "linear_growth_products", witness="scaled_product")
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


def tracking_constant(
    spec: CoefficientSpec,
    ledger: PartialProductLedger,
    cfg: HorizonConfig | None = None,
) -> float:
    """Sharpest computable multiplier c with sup_n |w_n - z_n| <= c epsilon.

    Contracting verdicts use the supremum of the tracking sums (exact for
    cycles, horizon supremum otherwise). Expanding verdicts use the
    supremum over m of the forward reciprocal tails
    sum_{k>m} |p(m, 1)| / |p(k, 1)|, the exact error envelope of the
    series shadow, truncated at the ledger horizon.
    """
    cfg = cfg or HorizonConfig()
    v = classify(spec, cfg, ledger=ledger)
    if v.status != STABLE:
        raise NotStable(f"tracking constants exist only for Stable specs, got {v.status}")
    if v.criterion in CONTRACTING_CRITERIA:
        if spec.kind in ("constant", "periodic"):
            return float(v.constant)
        _, sup_track = tracking_sum_max(ledger, min(cfg.N, ledger.horizon))
        return float(sup_track)
    return series_envelope(ledger, min(cfg.N, ledger.horizon))


def series_envelope(ledger: PartialProductLedger, N: int) -> float:
    """sup_{m<=N} sum_{m<k<=N+1} |p(m, 1)| / |p(k, 1)|, by a reverse
    log-sum-exp of the reciprocal products.

    The series shadow's error at m is |p(m, 1)| times a tail of
    r_j / p(j+1, 1), so this envelope times epsilon bounds its sup_error
    for every admissible perturbation. The verdict's 1 / (K^{1-delta} - 1)
    does not: it can lie below the envelope.
    """
    L = ledger.logmag
    x = -L[2 : N + 2]
    racc = np.logaddexp.accumulate(x[::-1])[::-1]  # slot i: tail from k = i + 2
    log_e = L[1 : N + 1] + racc
    return float(np.exp(np.max(log_e)))

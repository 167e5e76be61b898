"""Adversarial perturbations witnessing instability, and the exact
best-shadow oracle used as ground truth.

The witness plans realize the instability constructions: the
phase-aligned r_j = epsilon p(j+1, 1) / |p(j+1, 1)| that turns the error
series p(n+1, 1) [ (w_1 - z_1) + sum_j r_j / p(j+1, 1) ] + r_n into a real,
positive, maximal sum (on real positive products it is the constant
r_j = epsilon), and the product-scaled r_n = (C epsilon / M) p(n, 1) with
M the product supremum over the horizon. Divergence is evidenced
operationally: the min-max value of the best shadow over doubling
horizons grows without bound, matching the n p(n, 1) growth mechanism of
the accumulated residuals.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .classify import UNSTABLE_CRITERIA, log_scaled
from .dynamics import PerturbedOrbit, _series_term_logs
from .errors import IndexOutOfRange
from .products import (
    PartialProductLedger,
    _csv_text,
    _floored_exp,
    build_ledger,
    scaled_cumsum,
)
from .sequences import CoefficientSpec

_LN10 = math.log(10.0)

# Fraction of the reciprocal-product sum allowed to arrive in the second
# half of the horizon before the sum counts as convergent. A convergent
# sum starves the phase-aligned construction (its divergence rate drops
# below linear), so those specs get the product-scaled plan instead.
RECIP_CONVERGED_FRACTION = 0.01


@dataclass(frozen=True)
class PerturbationPlan:
    """Recipe for the perturbations r_n; realized values satisfy |r_n| <= epsilon,
    which must be positive and finite.

    log_M is the log of the product supremum M = sup_n |p(n, 1)| over the
    horizon; it and C in (0, 1] are meaningful for the scaled_product
    variant only. to_json reports M in linear scale while it stays below
    e^709, and log_M beyond (classify.log_scaled), so the document remains
    strict JSON.
    """

    variant: str
    epsilon: float
    C: float | None = None
    log_M: float | None = None

    def __post_init__(self):
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")

    def to_json(self) -> dict:
        return {"variant": self.variant, "epsilon": self.epsilon, "C": self.C, **log_scaled("M", self.log_M)}


@dataclass(frozen=True)
class OracleResult:
    """Optimal shadow start and the min-max tracking error it achieves."""

    z1: complex
    d: complex          # w_1 - z_1 at the optimum
    value: float        # min over d of max_{2<=n<=N} |p(n,1) d + R_{n-1}|
    log10_value: float


@dataclass(frozen=True)
class DivergenceCurve:
    """Best-shadow oracle values over a grid of prefix horizons.

    Values are cumulative maxima over the sampled prefixes, matching the
    monotonicity of the underlying quantity.
    """

    ns: np.ndarray
    values: np.ndarray

    def growth_factor(self) -> tuple[int, int, float | None]:
        """(from_n, to_n, factor) comparing the last prefix to the one
        nearest a quarter of it. The factor is None where the earlier value
        is 0 and the last is not: the ratio has no finite value, and JSON
        prints None as null."""
        to_n = int(self.ns[-1])
        target = to_n / 4.0
        i = int(np.argmin(np.abs(self.ns.astype(float) - target)))
        from_n, from_v, to_v = int(self.ns[i]), float(self.values[i]), float(self.values[-1])
        if from_v == 0.0:
            return from_n, to_n, (1.0 if to_v == 0.0 else None)
        return from_n, to_n, to_v / from_v

    def to_csv(self) -> str:
        with np.errstate(divide="ignore"):
            logs = np.log10(self.values)
        return _csv_text("n,d_n,log10_d_n", self.ns.astype(int), self.values, logs)


def reciprocal_sum_converged(ledger: PartialProductLedger) -> bool:
    """True when the reciprocal-product sum sum_{j=1}^{h} 1 / |p(j, 1)| over
    the ledger's horizon h has numerically saturated: all but
    RECIP_CONVERGED_FRACTION of it arrives before j = h / 2. Both sums are
    taken over the terms scaled by the largest, so the terms may leave float
    range; raising those below e^-700 of it to e^-700 moves neither sum by
    more than h e^-700 relative."""
    h = ledger.horizon
    terms = np.negative(ledger.logmag[1 : h + 1])  # slot j - 1: log 1 / |p(j, 1)|
    terms -= np.max(terms)
    _floored_exp(terms)
    half, full = np.sum(terms[: max(2, h // 2) - 1]), np.sum(terms)
    return bool(half >= full * (1.0 - RECIP_CONVERGED_FRACTION))


def make_witness(
    spec: CoefficientSpec,
    ledger: PartialProductLedger,
    criterion: str,
    epsilon: float,
) -> PerturbationPlan:
    """Build the perturbation plan matching an Unstable criterion.

    linear_growth_products gets the product-scaled plan with C = 1 and M
    read off the ledger. The subexponential and bounded-products criteria
    get the phase-aligned plan, except that a numerically convergent
    reciprocal-product sum (products growing, just subexponentially)
    starves phase alignment of its linear divergence, so the
    product-scaled plan is used there as well.
    """
    if criterion not in UNSTABLE_CRITERIA:
        raise ValueError(f"{criterion!r} is not an instability criterion")
    if criterion == "linear_growth_products" or reciprocal_sum_converged(ledger):
        log_m = float(np.max(ledger.logmag[1:]))  # log sup_n |p(n, 1)|
        return PerturbationPlan(variant="scaled_product", epsilon=float(epsilon), C=1.0, log_M=log_m)
    return PerturbationPlan(variant="phase_aligned", epsilon=float(epsilon))


def _clip_budget(r: np.ndarray, epsilon: float) -> np.ndarray:
    """Pull any rounding overshoot back strictly inside the budget."""
    mag = np.abs(r[1:])
    bad = mag > epsilon
    if np.any(bad):
        r[1:][bad] *= (epsilon / mag[bad]) * (1.0 - 1e-15)
    return r


def realize_plan(plan: PerturbationPlan, ledger: PartialProductLedger, N: int) -> np.ndarray:
    """Materialize r_1..r_{N-1} (index-aligned, slot 0 padding)."""
    if ledger.horizon + 1 < N:
        raise IndexOutOfRange(f"ledger horizon {ledger.horizon} too small for N={N}")
    eps = plan.epsilon
    r = np.empty(N, dtype=complex)
    r[0] = np.nan
    if plan.variant == "phase_aligned":
        # r_j = eps * p(j+1, 1) / |p(j+1, 1)|: unit-modulus phase rotations
        r[1:] = eps * np.exp(1j * ledger.phase[2 : N + 1])
    elif plan.variant == "scaled_product":
        # r_n = (C eps / M) p(n, 1), staged as exp(L_n - log M)
        with np.errstate(under="ignore"):
            r[1:] = (plan.C * eps) * np.exp((ledger.logmag[1:N] - plan.log_M) + 1j * ledger.phase[1:N])
    else:
        raise ValueError(f"unknown plan variant {plan.variant!r}")
    return _clip_budget(r, eps)


# A center x_n (see _Objective) with log|x_n| above this bound is kept out of
# the exact solve as the floor e^{log_w} |x_n|. The heaviest constraint reads
# |y|, so the optimum has |y| <= its value v, and a floor varies by a relative
# v e^{-700} at most over the points that compete. The bound leaves headroom
# for differences of representable centers.
_LOG_CENTER_MAX = 700.0
# Slack on a log value v, as a multiple of 1 + |v|, within which two values
# count as equal: one ulp of v is about 1e-16 (1 + |v|).
_LOG_TOL = 1e-12
# Safety cap on active-set iterations; two to five suffice in practice.
_MAX_ITERATIONS = 64
# Deepest dip of L below a prefix's root across which the prefix may share an
# objective rooted further right (see _shares). A dip of depth D makes the
# tail every center of the prefix carries e^D times the prefix's own scale,
# so each center is rounded to e^D ulp (2^-52) of it. D is kept where that
# stays a tenth of the _LOG_TOL accuracy: e^D 2^-52 <= 1e-13, D ~ 6.1.
_DIP_MAX = math.log(0.1 * _LOG_TOL / 2.0**-52)


def _exceeds(v: float, ref: float) -> bool:
    """Whether log value v lies above ref by more than rounding."""
    if not math.isfinite(ref):
        return v > ref
    return v > ref + _LOG_TOL * (1.0 + abs(ref))


def _log_abs(z: complex) -> float:
    m = abs(z)
    return math.log(m) if m > 0.0 else -math.inf


class _Objective:
    """The constraints w_n |d - c_n|, n = 2..N, of the best-shadow min-max.

    |p(n, 1) d + R_{n-1}| = w_n |d - c_n| with w_n = |p(n, 1)| = e^{L_n}
    and c_n = -S_{n-1}, S the prefix series of t_j = r_j / p(j+1, 1).

    Everything is measured from the heaviest constraint m = argmax L_n, in
    the unknown y = w_m (d - c_m): constraint n reads
    e^{log_w} |y - x_n| with log_w = L_n - L_m <= 0 and x_n = w_m (c_n - c_m),
    which is the scaled log form L_n + sigma + log|d e^{-sigma} + s| with the
    scale folded into a representable x_n, so e^{-sigma} is never formed.
    The x_n are sums of u_j = w_m t_j accumulated outward from m (reverse
    tails below m, forward sums above). A center's rounding then costs
    w_n ulp times terms no larger than those next to n, so the tails that
    expanding products magnify keep their digits, and |u_j| >= |r_j| keeps
    the scaled sums clear of underflow. Constraints whose x_n is not
    representable are floors; log_floor is the largest of their values.

    The constraints depend on N only through which n they cover, and the
    change of unknown leaves every constraint's value as it is, so the
    objective of any prefix 2..n is a restriction of this one (see prefix),
    whether or not the prefix's own root is m. Only the centers' rounding
    and range depend on m; _shares says when they match a fresh build's.
    """

    def __init__(self, ledger: PartialProductLedger, r: np.ndarray, N: int, cuts=()):
        log_t, phase = _series_term_logs(ledger, r[1:N])  # slot j - 1 holds t_j
        L = np.asarray(ledger.logmag[2 : N + 1])  # n = 2..N
        m = self.root = int(np.argmax(L)) + 2
        self.log_wm = float(L[m - 2])
        log_u = log_t + self.log_wm
        f_scale, f_mant = scaled_cumsum(log_u[m - 1 :], phase[m - 1 :])  # slot k: u_m..u_{m+k-1}
        # slot k: u_{m-1}..u_{m-k}. The reverse tails restart at each prefix
        # length n < m in cuts, so the centers of prefix n carry the tail
        # beyond it as one rounded sum.
        b_cuts = [m - n for n in cuts if 2 <= n < m]
        b_scale, b_mant = scaled_cumsum(log_u[m - 2 :: -1], phase[m - 2 :: -1], b_cuts)
        scale = np.concatenate([b_scale[m - 2 : 0 : -1], f_scale])
        mant = np.concatenate([b_mant[m - 2 : 0 : -1], -f_mant])
        log_w = L - self.log_wm
        with np.errstate(divide="ignore"):
            log_x = scale + np.log(np.abs(mant))
        floor = log_x > _LOG_CENTER_MAX
        # slot n - 2: the largest floor, and the count of representable
        # constraints, among constraints 2..n
        self._floor_upto = np.maximum.accumulate(np.where(floor, log_w + log_x, -math.inf))
        self._kept_upto = np.cumsum(~floor)
        self.log_floor = float(self._floor_upto[-1])
        self.log_w = log_w[~floor]
        self.x = _linear(scale[~floor], mant[~floor])
        # c_m = -S_{m-1} = -(u_1 + ... + u_{m-1}) / w_m
        self.c_m = complex(_linear(b_scale[m - 1 : m] - self.log_wm, -b_mant[m - 1 : m])[0])

    def prefix(self, n: int) -> _Objective:
        """The objective of the prefix 2..n, for 2 <= n <= N.

        Its root is this one's, and its constraints are this one's first
        n - 1; the representable ones among them come first in log_w and x,
        so they are views, and an index into them means the same constraint
        in every prefix.
        """
        sub = copy.copy(self)
        k = int(self._kept_upto[n - 2])
        sub.log_w, sub.x = self.log_w[:k], self.x[:k]
        sub.log_floor = float(self._floor_upto[n - 2])
        return sub

    def log_values(self, y: complex) -> np.ndarray:
        """log of every representable constraint at y."""
        with np.errstate(divide="ignore"):
            return self.log_w + np.log(np.abs(y - self.x))

    def log_value_at(self, y: complex, i: int) -> float:
        return float(self.log_w[i]) + _log_abs(y - complex(self.x[i]))

    def d_at(self, y: complex) -> complex:
        """d = c_m + y / w_m; overflows only when the optimal start itself does."""
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            return self.c_m + complex(y * np.exp(-self.log_wm))


def _linear(scale: np.ndarray, mant: np.ndarray) -> np.ndarray:
    """mant e^scale, through the log of the modulus where e^scale alone
    would leave float range."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        out = mant * np.exp(scale)
        far = np.flatnonzero(np.abs(scale) > _LOG_CENTER_MAX)
        if far.size:
            s, z = scale[far], mant[far]
            unit = np.where(z != 0, z / np.abs(z), 0.0)
            out[far] = np.exp(s + np.log(np.abs(z))) * unit
    return out


def _pair_point(obj: _Objective, i: int, j: int) -> complex:
    """The point on [x_i, x_j] where the two weighted distances are equal.

    Stepped from the heavier center by t = w_light / (w_i + w_j) <= 1/2,
    which underflows cleanly to the heavy center when the weights are
    e^{745} apart.
    """
    if obj.log_w[i] < obj.log_w[j]:
        i, j = j, i
    e = math.exp(float(obj.log_w[j] - obj.log_w[i]))
    ci = complex(obj.x[i])
    return ci + (e / (1.0 + e)) * (complex(obj.x[j]) - ci)


def _triple_points(obj: _Objective, idx: tuple[int, int, int]) -> list[complex]:
    """The up to two points where three weighted distances are equal.

    With the heaviest center moved to 0, coordinates scaled by the spread
    and q_k = (w_k / w_max)^2, each pair condition reads
    A_k |x|^2 + 2 Re(x conj B_k) + C_k = 0 with A_k = 1 - q_k, B_k = q_k x_k,
    C_k = -q_k |x_k|^2: an Apollonius circle, or the bisector line when the
    weights are equal. Two lines meet in their solution; otherwise a
    combination cancelling |x|^2 gives the radical line, which meets the
    circle of larger |A| at the roots of a quadratic, taken in the stable
    form so a nearly flat circle still yields its near root.
    """
    order = sorted(idx, key=lambda k: -float(obj.log_w[k]))
    top = float(obj.log_w[order[0]])
    origin = complex(obj.x[order[0]])
    rel = [complex(obj.x[k]) - origin for k in order[1:]]
    spread = max(abs(x) for x in rel)
    if not 0.0 < spread < math.inf:
        return []
    x = [z / spread for z in rel]
    q = [math.exp(2.0 * (float(obj.log_w[k]) - top)) for k in order[1:]]
    A = [1.0 - qk for qk in q]
    B = [qk * xk for qk, xk in zip(q, x)]
    C = [-qk * abs(xk) ** 2 for qk, xk in zip(q, x)]
    big = 0 if abs(A[0]) >= abs(A[1]) else 1
    small = 1 - big
    if A[big] == 0.0:
        det = B[0].real * B[1].imag - B[0].imag * B[1].real
        if det == 0.0:
            return []
        px = (-C[0] * B[1].imag + C[1] * B[0].imag) / (2.0 * det)
        py = (-C[1] * B[0].real + C[0] * B[1].real) / (2.0 * det)
        roots_xy = [complex(px, py)]
    else:
        rho = A[small] / A[big]
        G = B[small] - rho * B[big]
        H = C[small] - rho * C[big]
        g = abs(G)
        if g == 0.0:
            return []
        p0 = (-0.5 * H / g) * (G / g)  # foot of the line Re(x conj G) = -H/2
        u = 1j * G / g
        a = A[big]
        b = a * (p0 * u.conjugate()).real + (u * B[big].conjugate()).real
        c = a * abs(p0) ** 2 + 2.0 * (p0 * B[big].conjugate()).real + C[big]
        root = math.sqrt(max(b * b - a * c, 0.0))
        qq = -(b + math.copysign(root, b))
        ts = [c / qq] if qq != 0.0 else [0.0]
        if qq != 0.0:
            ts.append(qq / a)
        roots_xy = [p0 + t * u for t in ts]
    out = []
    for z in roots_xy:
        d = origin + spread * z
        if math.isfinite(d.real) and math.isfinite(d.imag):
            out.append(d)
    return out


def _certifies(obj: _Objective, y: complex, support: list[int], v: float) -> bool:
    """Whether y, with max v over the enlarged set, is its weighted 1-center.

    The problem is convex, so y is optimal exactly when no other member
    exceeds the support's common value and 0 lies in the convex hull of the
    support's gradient directions y - x_i: automatic for a pair point,
    an angular gap of at most pi for a triple, and a single center only
    when every member coincides with it.
    """
    if _exceeds(v, max(obj.log_value_at(y, i) for i in support)):
        return False
    if len(support) == 1:
        return v == -math.inf
    if len(support) == 2:
        return True
    dirs = [y - complex(obj.x[i]) for i in support]
    if any(z == 0 for z in dirs):
        return False
    ang = sorted(math.atan2(z.imag, z.real) for z in dirs)
    gaps = [ang[1] - ang[0], ang[2] - ang[1], 2.0 * math.pi + ang[0] - ang[2]]
    return max(gaps) <= math.pi + 1e-9


def _small_center(obj: _Objective, basis: list[int], k: int):
    """Exact weighted 1-center of basis + [k], with k in its support.

    k violates the basis optimum, so every support of the enlarged problem
    contains k: the candidates are x_k, the pair points of k with one basis
    member and the triple points of k with two. The optimum is the
    certified candidate (see _certifies) of least value, the first on ties.
    Choosing by certificate rather than by value alone matters where a
    nearly flat constraint makes several points tie below rounding: only
    the optimum carries the certificate. Should rounding leave no candidate
    certified, the one with the least max is used. Returns (y, log value,
    support).
    """
    members = basis + [k]
    cands = [(complex(obj.x[k]), [k])]
    cands += [(_pair_point(obj, k, b), [k, b]) for b in basis]
    for i, b1 in enumerate(basis):
        for b2 in basis[i + 1 :]:
            cands += [(y, [k, b1, b2]) for y in _triple_points(obj, (k, b1, b2))]
    best = fallback = None
    for y, support in cands:
        v = max(obj.log_value_at(y, i) for i in members)
        if fallback is None or v < fallback[1]:
            fallback = (y, v, support)
        if (best is None or v < best[1]) and _certifies(obj, y, support, v):
            best = (y, v, support)
    return best or fallback


# Start of an active-set solve: (y, basis, basis value) with nothing solved.
_COLD = (0.0 + 0.0j, (), -math.inf)


def _one_center(obj: _Objective, start=_COLD) -> tuple[complex, float, tuple]:
    """(y, log max, end state) at the weighted 1-center of the representable
    constraints.

    Active-set iteration (Elzinga & Hearn 1972, weighted as in Hearn &
    Vijay 1982) from start = (y, basis, basis value): solve the basis of at
    most three constraints exactly, add the worst violator of the full set,
    and repeat until no constraint exceeds the basis value beyond rounding.
    The basis value is a lower bound on the optimum and the returned log
    max an attained upper bound; at exit they agree, which certifies
    optimality. Where rounding flattens a constraint, the basis value can
    stop rising; the latest point whose max is within rounding of the
    smallest max seen is kept.

    The cold start is y = 0 with an empty basis. The end state of a solve
    of any subset of these constraints, with its basis indexed as here, is
    also a valid start: its basis value is the optimum of a subset, hence
    still a lower bound, and y is that basis's center.
    """
    y, basis, log_v = start
    basis = list(basis)
    vals = obj.log_values(y)
    best_y, best_max = y, float(np.max(vals))
    lowest = best_max
    for _ in range(_MAX_ITERATIONS):
        k = int(np.argmax(vals))
        if not _exceeds(vals[k], log_v):
            break
        y, v, basis = _small_center(obj, basis, k)
        log_v = max(log_v, v)
        vals = obj.log_values(y)
        top = float(np.max(vals))
        lowest = min(lowest, top)
        if not _exceeds(top, lowest):
            best_y, best_max = y, top
    return best_y, best_max, (y, tuple(basis), log_v)


def _solve(obj: _Objective, start=_COLD) -> tuple[complex, float, tuple]:
    """(y, log value, end state) of the best shadow: the 1-center of the
    representable constraints, with the value raised to the largest floor."""
    y, log_v, state = _one_center(obj, start)
    return y, max(log_v, obj.log_floor), state


def best_shadow_oracle(
    orbit: PerturbedOrbit,
    spec: CoefficientSpec,
    ledger: PartialProductLedger,
    N: int,
) -> OracleResult:
    """Minimize over z_1 the worst tracking error of any exact solution.

    Exact shadow optimality over all solution sequences: z is determined
    by z_1, and the error at index n is p(n, 1)(w_1 - z_1) + R_{n-1}, of
    modulus w_n |d - c_n| with w_n = |p(n, 1)| and c_n = -S_{n-1}. The
    problem is the weighted Euclidean 1-center of the points c_n in the
    complex unknown d = w_1 - z_1, solved exactly by an active-set method
    in log form. A constraint whose center lies outside float range is a
    d-independent floor w_n |c_n| (to a relative e^{-600}); when a floor
    sets the value the optimal d is not unique, and d is then the 1-center
    of the remaining constraints. Deterministic.
    """
    if N < 2 or N > len(orbit):
        raise IndexOutOfRange(f"need 2 <= N <= orbit length, got N={N}")
    if ledger.horizon + 1 < N:
        raise IndexOutOfRange(f"ledger horizon {ledger.horizon} too small for N={N}")
    obj = _Objective(ledger, orbit.perturbations, N)
    y, log_v, _ = _solve(obj)
    d = obj.d_at(y)
    with np.errstate(over="ignore"):
        value = float(np.exp(log_v))
    return OracleResult(z1=orbit.w1 - d, d=d, value=value, log10_value=log_v / _LN10)


def default_prefixes(N: int) -> list[int]:
    """Geometric prefix grid for divergence curves, always containing
    N // 4 and N."""
    ns = {N, max(2, N // 4)}
    n = max(4, N // 64)
    while n < N:
        ns.add(n)
        n *= 2
    return sorted(ns)


def run_witness(
    spec: CoefficientSpec,
    plan: PerturbationPlan,
    N: int,
    ledger: PartialProductLedger | None = None,
    prefixes: list[int] | None = None,
) -> DivergenceCurve:
    """The divergence curve of the plan's perturbations r_1..r_{N-1}.

    The curve reports the best-shadow oracle restricted to prefixes of the
    perturbed orbit, on a geometric grid of prefix lengths; it is
    nondecreasing in n because longer prefixes only add constraints to the
    min-max. The oracle reads only r and the ledger, so neither the orbit
    nor its start is materialized.
    """
    if N < 2:
        raise IndexOutOfRange(f"need N >= 2, got {N}")
    if ledger is None or ledger.horizon + 1 < N:
        ledger = build_ledger(spec, N)
    r = realize_plan(plan, ledger, N)
    ns = sorted(set(prefixes) | {N}) if prefixes else default_prefixes(N)
    if ns[0] < 2 or ns[-1] > N:
        raise IndexOutOfRange(f"prefixes must lie in [2, {N}], got {ns}")
    with np.errstate(over="ignore"):
        values = np.exp(_prefix_log_values(ledger, r, ns))
    values = np.maximum.accumulate(values)
    return DivergenceCurve(ns=np.asarray(ns), values=values)


def _prefix_log_values(ledger: PartialProductLedger, r: np.ndarray, ns: list[int]) -> list[float]:
    """log of the best-shadow value of each prefix 2..n, n in the sorted ns.

    Prefixes are grouped from the largest down: each group solves
    restrictions of one objective, built at its largest prefix, as long as
    the smaller prefixes share it (_shares). Within a group the prefixes
    are solved in increasing order, each warm-started from the end state of
    the one before, whose constraints are a subset of its own.
    """
    L = ledger.logmag
    groups = []  # (objective, prefixes), largest prefixes first
    for n in reversed(ns):
        if not groups or not _shares(groups[-1][0], L, n):
            groups.append((_Objective(ledger, r, n, cuts=ns), []))
        groups[-1][1].append(n)
    logs = []
    for obj, group in reversed(groups):
        state = _COLD
        for n in reversed(group):
            _, log_v, state = _solve(obj.prefix(n), state)
            logs.append(log_v)
    return logs


def _shares(obj: _Objective, L: np.ndarray, n: int) -> bool:
    """Whether the prefix 2..n, n <= the objective's N, may be solved on obj.

    With the prefix's own root m = argmax L_2..L_n equal to obj's, its
    restriction is a fresh build's objective, summed outward from the same
    root. Otherwise obj's root lies beyond n, higher up, and the prefix's
    centers are the fresh ones scaled by e^{L_root - L_m} and shifted by
    the sum of the terms u_j between m and the root. The prefix shares obj
    when two things hold:

    - every center of the prefix is representable in obj: a floor assumes
      y near 0, but the prefix's optimum lies near its own root's center;
    - L stays above L_m - _DIP_MAX from m to the root. A dip of depth D
      there makes those terms e^D times the prefix's own, and every center
      carries their sum, rounded to e^D ulps of the prefix's scale: a dip
      of 575 (250 steps of a = 0.1 before 250 of a = 10) leaves no digit
      of the prefix's value.
    """
    m = int(np.argmax(L[2 : n + 1])) + 2
    if m == obj.root:
        return True
    representable = obj.prefix(n).log_floor == -math.inf
    return representable and float(np.min(L[m : obj.root + 1])) >= L[m] - _DIP_MAX

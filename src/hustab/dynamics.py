"""Exact orbits, perturbed orbits, and the shadow constructions of the residual identity.

The driving identity: for w_{n+1} = a_n w_n + b_n + r_n and any exact
solution z of z_{n+1} = a_n z_n + b_n,

    w_n - z_n = p(n, 1) (w_1 - z_1) + R_{n-1},
    R_n = a_n R_{n-1} + r_n,  R_0 = 0,
    R_n = p(n+1, 1) * sum_{j<=n} r_j / p(j+1, 1).

Shadow constructions pick z_1 so the right-hand side stays small: equal
initial values when the tracking sums are bounded (contracting regimes),
or w_1 plus the reciprocal-product series when the products expand. Both
are one kernel, _shadow: with d = w_1 - z_1 the error is
p(n, 1) (d + S_{n-1}), S the prefix sums of r_j / p(j+1, 1), formed in log
form from scaled sums rather than by subtracting materialized orbits: on
expanding sequences the subtraction cancels catastrophically and the
rounding of z_1 alone grows like |p(n, 1)| ulp. Each returned trajectory
is checked against its curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import IndexOutOfRange, TailNotConvergent
from .csvtext import csv_text
from .products import PartialProductLedger, scaled_cumsum
from .sequences import CoefficientSpec, coeff_arrays

_LN10 = math.log(10.0)
_BUDGET_SLACK = 1.0 + 4e-16  # one-ulp slack for |r_n| <= epsilon checks


@dataclass(frozen=True)
class Trajectory:
    """Exact orbit z_1..z_N; values slot n holds z_n, slot 0 is padding."""

    values: np.ndarray

    @property
    def z1(self) -> complex:
        return complex(self.values[1])

    def __len__(self) -> int:
        return len(self.values) - 1


@dataclass(frozen=True)
class PerturbedOrbit:
    """Orbit of w_{n+1} = a_n w_n + b_n + r_n with |r_n| <= epsilon.

    values slot n holds w_n (n = 1..N); perturbations slot n holds r_n
    (n = 1..N-1).
    """

    values: np.ndarray
    perturbations: np.ndarray
    epsilon: float

    def __post_init__(self):
        r = self.perturbations[1:]
        if len(r) and np.max(np.abs(r)) > self.epsilon * _BUDGET_SLACK:
            raise ValueError("perturbation exceeds the epsilon budget")

    @property
    def w1(self) -> complex:
        return complex(self.values[1])

    def __len__(self) -> int:
        return len(self.values) - 1


@dataclass(frozen=True)
class ShadowResult:
    """A shadow trajectory with its tracking-error curve.

    errors slot n holds |w_n - z_n| for the constructed shadow (linear
    scale, inf when out of float range); log10_errors is the same curve
    kept in log10, which stays meaningful when the linear value does not.
    The curve is the constructed shadow's own error, so the series
    construction's truncation at the horizon is already in it.
    """

    trajectory: Trajectory
    errors: np.ndarray
    log10_errors: np.ndarray
    sup_error: float


# Indices the recurrence kernel converts to Python complex numbers at a time;
# whole-orbit lists would cost about 40 B per index each.
_CHUNK = 4096


def _recur(x1: complex, a: np.ndarray, b: np.ndarray | None, r: np.ndarray | None) -> np.ndarray:
    """x_{n+1} = a_n x_n + b_n + r_n from x_1, index-aligned (slot 0 NaN).

    The one recurrence kernel. a, b and r are complex arrays of one length;
    b or r is None where a recursion has none, and then adds 0. It is
    sequential on purpose, because direct recursion is the reference
    semantics of every orbit here; it runs in Python arithmetic, _CHUNK
    indices at a time, into a preallocated complex array. Where x_1, a, b
    and r have no imaginary part it recurs over floats, which take the real
    parts' operations in the same order: complex arithmetic would make an
    orbit past float range NaN, as (inf+0j)*(2+0j) takes inf*0.
    """
    out = np.empty(len(a) + 2, dtype=complex)
    out[0] = np.nan
    x, zero = complex(x1), 0j
    if x.imag == 0 and not any(c is not None and c.imag.any() for c in (a, b, r)):
        x, zero = x.real, 0.0
        a, b, r = (c if c is None else c.real for c in (a, b, r))
    out[1] = x
    for start in range(0, len(a), _CHUNK):
        stop = start + _CHUNK
        an = a[start:stop].tolist()
        bn = repeat(zero) if b is None else b[start:stop].tolist()
        rn = repeat(zero) if r is None else r[start:stop].tolist()
        out[start + 2 : start + 2 + len(an)] = [x := ak * x + bk + rk for ak, bk, rk in zip(an, bn, rn)]
    return out


def iterate(spec: CoefficientSpec, z1: complex, N: int) -> Trajectory:
    """Direct recursion z_{n+1} = a_n z_n + b_n, materialized to length N."""
    if N < 1:
        raise IndexOutOfRange(f"orbit length must be >= 1, got {N}")
    a, b = coeff_arrays(spec, np.arange(1, N), "a", "b")
    return Trajectory(values=_recur(z1, a, b, None))


def perturbed_orbit(spec: CoefficientSpec, w1: complex, r: np.ndarray, epsilon: float) -> PerturbedOrbit:
    """Materialize w from w_1 and index-aligned perturbations r_1..r_{N-1}."""
    r = np.asarray(r, dtype=complex)  # slots 0..N-1, slot 0 padding
    a, b = coeff_arrays(spec, np.arange(1, len(r)), "a", "b")
    values = _recur(w1, a, b, r[1:])
    return PerturbedOrbit(values=values, perturbations=r, epsilon=float(epsilon))


def _series_term_logs(ledger: PartialProductLedger, t: np.ndarray):
    """log-magnitude and phase of t_j / p(j+1, 1) for j = 1..N-1, where t
    holds t_1..t_{N-1}."""
    t = np.asarray(t, dtype=complex)
    N = len(t) + 1
    with np.errstate(divide="ignore"):
        log_mag = np.log(np.abs(t)) - ledger.logmag[2 : N + 1]
    phase = np.angle(t) - ledger.phase[2 : N + 1]
    return log_mag, phase


def _check_identity(orbit: PerturbedOrbit, exact: Trajectory, R: np.ndarray, L: np.ndarray) -> None:
    """Raise ArithmeticError unless w_n - z_n = R_{n-1} for n = 2..N, with z
    the orbit `exact`, wherever both sides are float-representable.

    R slot n - 1 holds the predicted w_n - z_n: the residual R_{n-1} when z
    starts at w_1, a shadow's signed error curve otherwise; L slot n holds
    L_n. Rounding committed at index m, relative to s_m = max(|w_m|, |z_m|),
    persists while the products stay bounded (an orbit of a = i,
    b = 2^21 i returns near 0 every fourth step carrying it) and is carried
    to index n times |p(n, m)|, which an orbit near the bounded solution of
    an expanding map does not show in its own size. So the tolerance is
    1e-9 (1 + max_{m<=n} s_m max(1, |p(n, m)|)).
    """
    N = len(orbit)
    w = orbit.values[2:]
    with np.errstate(invalid="ignore"):  # inf - inf where both orbits overflow
        gap = (w - exact.values[2:]) - R[1:N]
    size = np.fmax(np.abs(orbit.values[1:]), np.abs(exact.values[1 : N + 1]))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        carried = np.exp(L[1 : N + 1] + np.maximum.accumulate(np.log(size) - L[1 : N + 1]))
    tol = 1e-9 * (1.0 + np.fmax(np.fmax.accumulate(size), carried)[1:])
    ok = np.isfinite(gap) & np.isfinite(tol)
    if np.any(np.abs(gap[ok]) > tol[ok]):
        raise ArithmeticError("residual identity w_n = z_n + R_{n-1} failed tolerance")


def _shadow(orbit: PerturbedOrbit, spec: CoefficientSpec, ledger: PartialProductLedger,
            series_start: bool) -> ShadowResult:
    """The shadow z from z_1 = w_1 - d, with the error curve of the identity
    w_n - z_n = p(n, 1) (d + S_{n-1}), S_m = sum_{j<=m} c_j, c_j = r_j / p(j+1, 1).

    d + S_{n-1} is carried as a scaled sum, slot n - 1 for index n, so the
    curve is kept in log form wherever L_n goes. The equal start has d = 0:
    prefix sums of the terms. The series start has d = -S_{N-1}, so
    d + S_{n-1} = -sum_{j=n}^{N-1} c_j: prefix sums of the reversed terms,
    each tail formed from its own leading terms. Either way slot 0 is d.
    The trajectory is checked against the curve with _check_identity.
    """
    N = len(orbit)
    if ledger.horizon + 1 < N:
        raise IndexOutOfRange(f"ledger horizon {ledger.horizon} too small for orbit length {N}")
    log_mag, phase = _series_term_logs(ledger, orbit.perturbations[1:N])
    if series_start:
        scale, mant = scaled_cumsum(log_mag[::-1], phase[::-1])
        scale, mant = scale[::-1], -mant[::-1]
    else:
        scale, mant = scaled_cumsum(log_mag, phase)
    with np.errstate(over="ignore", invalid="ignore"):
        z1 = orbit.w1 - complex(np.exp(scale[0]) * mant[0])
    if not np.isfinite(z1):
        log_d = scale[0] + math.log(abs(mant[0]))
        raise TailNotConvergent(f"shadow start out of float range: log|z_1 - w_1| = {log_d:.6g}")
    traj = iterate(spec, z1, N)
    log_err = np.empty(N + 1)
    log_err[0] = np.nan
    with np.errstate(divide="ignore"):
        log_err[1:] = ledger.logmag[1 : N + 1] + scale + np.log(np.abs(mant))
    with np.errstate(over="ignore", invalid="ignore"):
        errors = np.exp(log_err)
        signed = np.exp(log_err[1:] + 1j * (ledger.phase[1 : N + 1] + np.angle(mant)))
    _check_identity(orbit, traj, signed, ledger.logmag)  # signed slot n - 1 holds w_n - z_n
    return ShadowResult(trajectory=traj, errors=errors, log10_errors=log_err / _LN10,
                        sup_error=float(np.max(errors[1:])))


def shadow_contracting(orbit: PerturbedOrbit, spec: CoefficientSpec,
                       ledger: PartialProductLedger) -> ShadowResult:
    """Shadow with equal initial value: z = exact orbit from w_1.

    Then |w_n - z_n| = |p(n, 1) S_{n-1}| = |R_{n-1}| identically; the
    construction is always definable and its boundedness is what the
    contracting criteria guarantee.
    """
    return _shadow(orbit, spec, ledger, series_start=False)


def shadow_expanding(orbit: PerturbedOrbit, spec: CoefficientSpec,
                     ledger: PartialProductLedger) -> ShadowResult:
    """Shadow via z_1 = w_1 + sum_{j=1}^{N-1} r_j / p(j+1, 1) (truncated series).

    Then |w_n - z_n| = |p(n, 1)| |sum_{j=n}^{N-1} r_j / p(j+1, 1)|, which
    vanishes at the horizon and is at most epsilon times the series
    envelope sup_m sum_{m<k<=N} |p(m, 1) / p(k, 1)| at every horizon, so
    the truncation needs no tail of its own. TailNotConvergent only when
    the series start z_1 is past float range.
    """
    return _shadow(orbit, spec, ledger, series_start=True)


# ---------------------------------------------------------------------------
# CSV dumps (columns are part of the external interface)

def trajectory_csv(traj: Trajectory) -> str:
    z = traj.values[1:]
    return csv_text("n,re_z,im_z", np.arange(1, len(z) + 1), z.real, z.imag)


def shadow_csv(result: ShadowResult, orbit: PerturbedOrbit) -> str:
    N = len(orbit)
    z = result.trajectory.values[1 : N + 1]
    w = orbit.values[1:]
    cols = (z.real, z.imag, w.real, w.imag, result.errors[1 : N + 1], result.log10_errors[1 : N + 1])
    return csv_text("n,re_z,im_z,re_w,im_w,abs_err,log10_abs_err", np.arange(1, N + 1), *cols)

"""Naive correctness oracles for benchmark jobs.

Each check takes a job, its exit code, its stdout and the bytes of its
--out file (empty when there is none), and returns the list of failure reasons (empty when the job's
output is right). The oracles recompute what they need from the job's own
inputs by direct formulas, without the library's log-domain machinery.

A reason is "<check>" or "<check>:<detail>". KNOWN_SEED_DEFECTS lists the
reasons the unmodified program is known to produce; each is still counted as
a failed job. A run is reported correct only while every failure it sees is
one of them, so a new kind of wrong output fails the run outright. Remove an
entry once the defect behind it is fixed.
"""

from __future__ import annotations

import io
import json
import math

import numpy as np

REL_TOL = 1e-9
MIN_GROWTH = 3.0  # acceptance criterion 5: divergence across a quadrupled horizon

KNOWN_SEED_DEFECTS = {
    "shadow.csv_mismatch:reciprocal_series":
        "expanding shadow starts from w1 - series instead of w1 + series, so the CSV's z "
        "columns are not the shadow the abs_err column describes",
    "shadow.bound_violated:reciprocal_series":
        "expanding verdict constant 1/(K^(1-delta)-1) is below the series shadow's "
        "attained envelope, so sup_error exceeds c*eps",
    "classify.nonfinite_estimate:sup_tracking_sum":
        "numeric verdicts report the tracking-sum supremum in linear scale, which "
        "overflows to Infinity once L_n passes ~709",
}


def _rel_ok(x: float, ref: float, tol: float = REL_TOL) -> bool:
    return abs(x - ref) <= tol * (1.0 + abs(ref))


def _parse_csv(data: bytes) -> np.ndarray:
    return np.loadtxt(io.BytesIO(data), delimiter=",", skiprows=1, ndmin=2)


def naive_log_abs_a(job, N: int) -> np.ndarray:
    """log|a_j| for j = 1..N, from the spec entries or the family formulas."""
    if job.spec is not None:
        logs = np.log(np.abs(job.spec.a))
        if job.spec.kind != "table":
            return np.resize(logs, N)
        return np.concatenate([logs[:N], np.full(max(0, N - len(logs)), logs[-1])])
    n = np.arange(1, N + 1, dtype=float)
    family = job.builtin[0]
    if family == "near_parabolic":
        return np.log((1.0 + 1.0 / (n * n)) ** 2)
    if family == "sparse3_squares":
        r = np.round(np.sqrt(n))
        return np.where(r * r == n, math.log(3.0), 0.0)
    raise ValueError(f"no naive coefficients for builtin {family!r}")


def naive_log_sup_abs_p(job, N: int) -> float:
    """max_{1<=n<=N} L_n with L_1 = 0, as an extended-precision running sum."""
    L = np.cumsum(naive_log_abs_a(job, N - 1), dtype=np.longdouble)
    return float(max(np.max(L), 0.0))


def check_classify(job, code, stdout: str, out: bytes) -> list[str]:
    if code not in (0, 2):
        return [f"exit_code:{code}"]
    doc = json.loads(stdout)
    if job.spec is not None and job.spec.kind != "table":
        log_q = math.fsum(math.log(abs(a)) for a in job.spec.a)
        expected = "Unstable" if log_q == 0.0 else "Stable"
        return [] if doc["status"] == expected else [f"classify.exact_verdict:{doc['status']}"]
    fails = [
        f"classify.nonfinite_estimate:{name}"
        for name, value in sorted(doc["estimates"].items())
        if not math.isfinite(value)
    ]
    ref = naive_log_sup_abs_p(job, job.horizon)
    if not _rel_ok(doc["estimates"]["log_sup_abs_p"], ref):
        fails.append("classify.log_sup_abs_p")
    return fails


def check_shadow(job, code, stdout: str, out: bytes) -> list[str]:
    if code != 0:
        return [f"exit_code:{code}"]
    doc = json.loads(stdout)
    construction = doc["construction"]
    fails = []
    if doc["bound_satisfied"] is not True:
        fails.append(f"shadow.bound_violated:{construction}")
    rows = _parse_csv(out)
    if len(rows) != job.horizon:
        return fails + ["shadow.csv_rows"]
    _, re_z, im_z, re_w, im_w, abs_err, _ = rows.T
    finite = np.all(np.isfinite(rows), axis=1)
    w = re_w[finite] + 1j * im_w[finite]
    z = re_z[finite] + 1j * im_z[finite]
    if np.any(np.abs(np.abs(w - z) - abs_err[finite]) > REL_TOL * (1.0 + np.abs(w))):
        fails.append(f"shadow.csv_mismatch:{construction}")
    return fails


def check_witness(job, code, stdout: str, out: bytes) -> list[str]:
    if code != 0:
        return [f"exit_code:{code}"]
    doc = json.loads(stdout)
    fails = []
    curve = _parse_csv(out)
    if np.any(np.diff(curve[:, 1]) < 0.0):
        fails.append("witness.curve_decreasing")
    if not doc["growth_factor"] >= MIN_GROWTH:
        fails.append("witness.growth_below_3")
    return fails


CHECKS = {"classify": check_classify, "shadow": check_shadow, "witness": check_witness}


def check(job, code, stdout: str, out: bytes) -> list[str]:
    """Failure reasons for one job; an output that cannot be parsed fails too."""
    try:
        return CHECKS[job.command](job, code, stdout, out)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"{job.command}.unreadable_output:{type(exc).__name__}"]

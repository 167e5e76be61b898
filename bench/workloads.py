"""Seeded job streams for the three benchmark workloads.

A workload is an endless sequence of rounds. Round k is drawn from
``np.random.default_rng([seed, workload_id, k])`` alone, so a seed gives the
same jobs however many rounds a run completes, and round 0 is reserved for
the untimed warm-up job. Every round of a workload has the same fixed slots;
only the parameters inside a slot are drawn. That keeps the mix of horizons
and spec kinds, and with it the per-job time distribution, the same from
seed to seed. The program sees only the argv and the spec file of a job.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

WORKLOAD_IDS = {"classify_survey": 1, "shadow_stable": 2, "witness_divergence": 3}


@dataclass(frozen=True)
class Spec:
    """Coefficients of a --spec job: one entry (constant), one cycle
    (periodic) or a table with tail "repeat". Kept as arrays; the wire
    format is made only when the spec file is written."""

    kind: str
    a: np.ndarray
    b: np.ndarray

    def to_json(self) -> str:
        pairs = np.column_stack([self.a.real, self.a.imag, self.b.real, self.b.imag]).tolist()
        if self.kind == "constant":
            return json.dumps({"kind": "constant", "constant": pairs[0]})
        if self.kind == "periodic":
            return json.dumps({"kind": "periodic", "period": pairs})
        return json.dumps({"kind": "table", "table": pairs, "tail": "repeat"})


@dataclass(frozen=True)
class Job:
    """One ``hustab`` CLI call.

    command:  classify / shadow / witness
    horizon:  the --horizon value; the benchmark's index count for the job
    builtin:  builtin name plus its flags, or None when ``spec`` is given
    spec:     coefficients written to a spec file and passed via --spec
    flags:    further flags (--seed, --epsilon)
    label:    the round slot the job fills, for reports
    """

    command: str
    horizon: int
    builtin: tuple[str, ...] | None = None
    spec: Spec | None = None
    flags: tuple[str, ...] = ()
    label: str = ""

    def argv(self, spec_path: str, out_path: str) -> list[str]:
        argv = [self.command]
        argv += ["--spec", spec_path] if self.spec is not None else ["--builtin", *self.builtin]
        argv += ["--horizon", str(self.horizon), *self.flags]
        if self.command != "classify":
            argv += ["--out", out_path]
        return argv


def _jitter(rng: np.random.Generator, n: float) -> int:
    """n +- 1%: enough that (spec, horizon) pairs of the parameterless
    builtins rarely repeat, small enough not to spread per-slot job times."""
    return int(n * rng.uniform(0.99, 1.01))


def _random_b(rng: np.random.Generator, n: int, bmax: float = 10.0) -> np.ndarray:
    return bmax * np.sqrt(rng.uniform(0, 1, n)) * np.exp(2j * np.pi * rng.uniform(0, 1, n))


def _log_uniform_a(rng: np.random.Generator, n: int, amin: float, amax: float) -> np.ndarray:
    """|a| log-uniform in [amin, amax] with uniform phase, as the test suite's tables."""
    loga = rng.uniform(math.log(amin), math.log(amax), n)
    return np.exp(loga) * np.exp(2j * np.pi * rng.uniform(0, 1, n))


def table(rng, n: int, tail: tuple[float, float], amin=0.25, amax=4.0) -> Spec:
    """Random table of n entries; |a| of the last (repeated) entry lies in `tail`."""
    a = _log_uniform_a(rng, n, amin, amax)
    a[-1] = rng.uniform(*tail) * np.exp(2j * np.pi * rng.uniform())
    return Spec("table", a, _random_b(rng, n))


CONTRACTING_TAIL = (0.3, 0.9)
EXPANDING_TAIL = (1.2, 3.0)


def signed_table(rng, n: int, horizon: int, sign: int) -> Spec:
    """Table whose L_n / n stays clearly below (sign -1) or above (sign +1)
    zero over the classifier's trailing half-window, so it classifies Stable."""
    amin, amax, tail = (0.25, 2.0, CONTRACTING_TAIL) if sign < 0 else (0.5, 4.0, EXPANDING_TAIL)
    while True:
        spec = table(rng, n, tail, amin, amax)
        logs = np.log(np.abs(spec.a))
        L = np.cumsum(np.concatenate([[0.0], logs, np.full(horizon - n, logs[-1])]))  # L[m] = L_{m+1}
        ns = np.arange(horizon // 2, horizon + 1)
        g = L[ns - 1] / ns
        if (g.min() > 0.05) if sign > 0 else (g.max() < -0.05):
            return spec


def cycle(a, rng) -> Spec:
    a = np.asarray(a, dtype=complex)
    return Spec("constant" if len(a) == 1 else "periodic", a, _random_b(rng, len(a)))


def nonunimodular_cycle(rng, sign: int, min_abs_log_q: float = 0.2) -> np.ndarray:
    """Random cycle of 2-5 entries whose log |q| has the given sign and is at least min_abs_log_q."""
    a = _log_uniform_a(rng, int(rng.integers(2, 6)), 0.25, 4.0)
    log_q = math.fsum(math.log(abs(x)) for x in a)
    if sign * log_q < min_abs_log_q:
        a[0] *= math.exp(sign * min_abs_log_q - log_q)
    return a


def unimodular_cycle(rng) -> np.ndarray:
    """Cycle of +-2^k or +-i 2^k entries whose log-magnitudes sum to exactly 0.0."""
    while True:
        p = int(rng.integers(2, 7))
        k = rng.integers(-3, 4, p)
        k[-1] = -int(k[:-1].sum())
        a = np.array([1, -1, 1j, -1j])[rng.integers(0, 4, p)] * np.ldexp(1.0, k)
        if math.fsum(math.log(abs(x)) for x in a) == 0.0:
            return a


def _alpha(rng) -> tuple[str, str]:
    return ("--alpha", repr(float(rng.uniform())))


def _const_flags(rng, lo: float, hi: float) -> tuple[str, ...]:
    a = complex(_log_uniform_a(rng, 1, lo, hi)[0])
    return ("--a", repr(a), "--b", repr(complex(_random_b(rng, 1)[0])))


def classify_round(rng: np.random.Generator) -> list[Job]:
    """11 classify jobs, no spec shared: 4 small (exact cycles and horizon
    ~1e4), 4 at ~1e5 and 3 at ~1e6, so the median falls inside the middle
    group and the tail inside the largest. Table tails alternate between
    contracting and expanding."""
    cyc = unimodular_cycle(rng) if rng.uniform() < 0.5 else nonunimodular_cycle(rng, rng.choice([-1, 1]))
    def job(horizon, label, **kw):
        return Job("classify", horizon, label=label, **kw)
    return [
        job(10_000, "exact_constant", spec=cycle(_log_uniform_a(rng, 1, 0.25, 4.0), rng)),
        job(10_000, "exact_periodic", spec=cycle(cyc, rng)),
        job(_jitter(rng, 1e4), "near_parabolic_1e4", builtin=("near_parabolic", *_alpha(rng))),
        job(_jitter(rng, 1e4), "table_1e3_1e4", spec=table(rng, 1_000, CONTRACTING_TAIL)),
        job(_jitter(rng, 1e5), "near_parabolic_1e5", builtin=("near_parabolic", *_alpha(rng))),
        job(_jitter(rng, 1e5), "sparse3_squares_1e5", builtin=("sparse3_squares",)),
        job(_jitter(rng, 1e5), "table_1e4_1e5", spec=table(rng, 10_000, EXPANDING_TAIL)),
        job(_jitter(rng, 1e5), "table_3e4_1e5", spec=table(rng, 30_000, CONTRACTING_TAIL)),
        job(_jitter(rng, 1e6), "near_parabolic_1e6", builtin=("near_parabolic", *_alpha(rng))),
        job(_jitter(rng, 1e6), "sparse3_squares_1e6", builtin=("sparse3_squares",)),
        job(_jitter(rng, 1e6), "table_1e5_1e6", spec=table(rng, 100_000, EXPANDING_TAIL)),
    ]


def shadow_round(rng: np.random.Generator) -> list[Job]:
    """8 Stable specs, each shadowed under two (seed, epsilon) pairs: four
    contracting (equal_start shadow) and four expanding (reciprocal_series).
    The two cycle slots cost about the same, so the median falls between
    equal-cost jobs rather than on a step of the time distribution."""
    n_con, n_exp = _jitter(rng, 5e4), _jitter(rng, 2e4)
    slots = [
        ("period3_2_i_third", _jitter(rng, 1e5), dict(builtin=("period3_2_i_third",))),
        ("constant_contracting", _jitter(rng, 5e4), dict(builtin=("constant", *_const_flags(rng, 0.3, 0.9)))),
        ("cycle_contracting", _jitter(rng, 3e4), dict(spec=cycle(nonunimodular_cycle(rng, -1), rng))),
        ("table_contracting", n_con, dict(spec=signed_table(rng, int(rng.integers(1_000, 10_000)), n_con, -1))),
        ("sparse3_periodic", _jitter(rng, 2e4),
         dict(builtin=("sparse3_periodic", "--p", str(int(rng.integers(1, 7)))))),
        ("constant_expanding", _jitter(rng, 1e4), dict(builtin=("constant", *_const_flags(rng, 1.2, 3.0)))),
        ("cycle_expanding", _jitter(rng, 4e4), dict(spec=cycle(nonunimodular_cycle(rng, +1), rng))),
        ("table_expanding", n_exp, dict(spec=signed_table(rng, int(rng.integers(1_000, 10_000)), n_exp, +1))),
    ]
    return [
        Job("shadow", horizon, label=label, **kw,
            flags=("--seed", str(int(rng.integers(2**31))), "--epsilon", repr(float(rng.uniform(0.001, 0.1)))))
        for label, horizon, kw in slots
        for _ in range(2)
    ]


def witness_round(rng: np.random.Generator) -> list[Job]:
    """7 Unstable witness jobs at horizons 500-4000, plus sparse3_squares at
    >= 16000 (below ~1e4 it does not classify Unstable). The cycle at ~850
    and near_parabolic at ~1000 cost about the same and sit mid-distribution,
    so the median falls between equal-cost jobs."""
    def job(horizon, label, **kw):
        return Job("witness", horizon, label=label, flags=("--epsilon", repr(float(rng.uniform(0.1, 1.0)))), **kw)
    return [
        job(_jitter(rng, 4000), "alternating_4000", builtin=("alternating_2_half",)),
        job(_jitter(rng, 17_600), "sparse3_squares_16000", builtin=("sparse3_squares",)),
        job(_jitter(rng, 2000), "near_parabolic_2000", builtin=("near_parabolic", *_alpha(rng))),
        job(_jitter(rng, 850), "unimodular_cycle_850", spec=cycle(unimodular_cycle(rng), rng)),
        job(_jitter(rng, 1000), "near_parabolic_1000", builtin=("near_parabolic", *_alpha(rng))),
        job(_jitter(rng, 500), "unimodular_cycle_500", spec=cycle(unimodular_cycle(rng), rng)),
        job(_jitter(rng, 550), "alternating_500", builtin=("alternating_2_half",)),
    ]


ROUNDS = {
    "classify_survey": classify_round,
    "shadow_stable": shadow_round,
    "witness_divergence": witness_round,
}


def round_jobs(workload: str, seed: int, k: int) -> list[Job]:
    """The jobs of round k >= 1 of a workload under a seed."""
    return ROUNDS[workload](np.random.default_rng([seed, WORKLOAD_IDS[workload], k]))


def warmup_job(workload: str, seed: int) -> Job:
    """The untimed warm-up job: the first slot of the reserved round 0."""
    return round_jobs(workload, seed, 0)[0]

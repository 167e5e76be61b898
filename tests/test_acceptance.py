"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s to see them inline).
Criteria touch asymptotic behaviour, so they are phrased as
property checks at fixed horizons plus the two concrete worked numbers
(the period-3 tracking bound 16 and the expanding tail bound).
"""

import math
import time

import numpy as np

import hustab as hs
from conftest import (
    balance_ratio,
    closed_form_at,
    closed_form_curve,
    coeffs_upto,
    padded,
    random_disc,
    random_table_spec,
    residual_ledger,
    second_order_reduce,
    subexponential_ratio,
)
from hustab.classify import STABLE, UNSTABLE


def _report(tag, ok, detail=""):
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{tag} {detail}"


def test_criterion_1_closed_form_equivalence():
    # 200 random specs, |a_n| in [1/4, 4], |b_n| <= 10, all n <= 1e3,
    # relative tolerance 1e-9, runtime < 5 s. closed_form_curve evaluates
    # the closed form at every index; the naive closed_form_at oracle is
    # additionally spot-checked against the recursion at sampled indices.
    # The runtime counts the package's calls, not the oracle's per-index
    # coefficient reads.
    elapsed = 0.0
    rng = np.random.default_rng(20240811)
    N = 1000
    worst = 0.0
    for _ in range(200):
        t0 = time.time()
        spec = random_table_spec(rng, N)
        z1 = complex(random_disc(rng, 1, 5.0)[0])
        led = hs.build_ledger(spec, N)
        traj = hs.iterate(spec, z1, N)
        curve = closed_form_curve(spec, led, z1, N)
        elapsed += time.time() - t0
        rel = np.abs(curve[1:] - traj.values[1:]) / (1.0 + np.abs(traj.values[1:]))
        worst = max(worst, float(np.max(rel)))
        _, b = coeffs_upto(spec, N)
        for n in (2, 357, N):
            got = closed_form_at(led, b, z1, n)
            worst = max(worst, abs(got - traj.values[n]) / (1.0 + abs(traj.values[n])))
    _report("1 closed-form equivalence", worst <= 1e-9 and elapsed < 5.0,
            f"worst rel {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_residual_round_trip():
    # 200 random perturbed orbits: forward-recursion residuals reconstruct
    # w_{n+1} from the exact orbit of w_1 within 1e-9 relative, < 5 s.
    t0 = time.time()
    rng = np.random.default_rng(7777)
    N = 1000
    worst = 0.0
    for _ in range(200):
        spec = random_table_spec(rng, N, amin=0.5, amax=2.0)
        r = padded(random_disc(rng, N - 1, 1.0))
        orbit = hs.perturbed_orbit(spec, complex(random_disc(rng, 1, 3.0)[0]), r, 1.0)
        res = residual_ledger(orbit, spec, check=False)
        exact = hs.iterate(spec, orbit.w1, N)
        recon = exact.values[2:] + res[1:N]
        rel = np.abs(orbit.values[2:] - recon) / (1.0 + np.abs(orbit.values[2:]))
        worst = max(worst, float(np.max(rel)))
    elapsed = time.time() - t0
    _report("2 residual round-trip", worst <= 1e-9 and elapsed < 5.0,
            f"worst rel {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_period3_worked_bound():
    # (2, i, 1/3) with b = 5: 100 random draws at three budgets, horizon
    # 1e4, equal starts: sup |w_n - z_n| = sup |R_{n-1}| <= 16 eps, and the
    # tracking sums stay below 16. Runtime < 10 s.
    t0 = time.time()
    spec = hs.builtin_example("period3_2_i_third")
    N = 10_000
    a, _ = coeffs_upto(spec, N)
    rng = np.random.default_rng(31415)
    draws = 100
    ok = True
    detail = []
    for eps in (1e-3, 1e-2, 1e-1):
        # vectorize the residual recursion across the 100 draws
        R = np.zeros(draws, dtype=complex)
        sup = np.zeros(draws)
        for n in range(1, N):
            r_n = eps * random_disc(rng, draws)
            R = a[n] * R + r_n
            np.maximum(sup, np.abs(R), out=sup)
        ok = ok and bool(np.all(sup <= 16 * eps))
        detail.append(f"eps={eps:g}: sup/eps={np.max(sup) / eps:.3f}")
    # one draw cross-checked through the library shadow construction
    r = padded(1e-2 * random_disc(rng, N - 1))
    orbit = hs.perturbed_orbit(spec, 0.5 - 0.5j, r, 1e-2)
    led = hs.build_ledger(spec, N)
    res = hs.shadow_contracting(orbit, spec, led)
    ok = ok and res.sup_error <= 16 * 1e-2 and res.trajectory.z1 == orbit.w1
    sup_track = math.exp(hs.tracking_sum_max(led, N))
    ok = ok and sup_track < 16.0
    elapsed = time.time() - t0
    _report("3 period-3 worked bound", ok and elapsed < 10.0,
            "; ".join(detail) + f"; sup tracking {sup_track:.3f}; {elapsed:.2f}s")


def test_criterion_4_expanding_shadow_bound():
    # constant a = 2, b = 5, phase-aligned r at eps = 1e-2, N = 1e3:
    # shadow error <= eps/(2^{0.9} - 1); oracle <= eps and within 5% of
    # the series prediction. Runtime < 10 s.
    t0 = time.time()
    eps = 1e-2
    N = 1000
    delta = 0.1
    spec = hs.builtin_example("constant", a=2, b=5)
    led = hs.build_ledger(spec, N)
    r = hs.realize_plan(hs.PerturbationPlan(variant="phase_aligned", epsilon=eps), led, N)
    orbit = hs.perturbed_orbit(spec, 1.0 + 0.5j, r, eps)
    shadow = hs.shadow_expanding(orbit, spec, led)
    bound = eps / (2.0 ** (1.0 - delta) - 1.0)
    oracle = hs.best_shadow_oracle(orbit, led, N)
    prediction = eps * (1.0 - 2.0 ** -(N - 2))  # geometric-tail series value
    ok = (
        shadow.sup_error <= bound
        and oracle.value <= eps * (1 + 1e-9)
        and abs(oracle.value - prediction) <= 0.05 * prediction
    )
    elapsed = time.time() - t0
    _report("4 expanding shadow bound", ok and elapsed < 10.0,
            f"shadow {shadow.sup_error:.4e} <= {bound:.4e}; oracle {oracle.value:.4e}; {elapsed:.2f}s")


def test_criterion_5_instability_signatures():
    # four unstable builtins, module witness plan at eps = 1: the
    # best-shadow value at N = 4000 exceeds 3x its value at N = 1000.
    # Runtime < 60 s total.
    t0 = time.time()
    cases = [
        ("alternating_2_half", {}),
        ("near_parabolic", {"alpha": 0.0}),
        ("near_parabolic", {"alpha": 1 / 3}),
        ("sparse3_squares", {}),
    ]
    ok = True
    details = []
    for name, kw in cases:
        spec = hs.builtin_example(name, **kw)
        verdict = hs.classify(spec)  # default config
        led = hs.build_ledger(spec, 4000)
        plan = hs.make_witness(led, verdict.criterion, epsilon=1.0)
        r = hs.realize_plan(plan, led, 4000)
        orbit = hs.perturbed_orbit(spec, 0.0, r, 1.0)
        v_lo = hs.best_shadow_oracle(orbit, led, 1000).value
        v_hi = hs.best_shadow_oracle(orbit, led, 4000).value
        ratio = math.inf if v_lo == 0 else v_hi / v_lo
        ok = ok and verdict.status == UNSTABLE and ratio >= 3.0
        details.append(f"{name}{'' if not kw else kw}: x{ratio:.3g} ({plan.variant})")
    elapsed = time.time() - t0
    _report("5 instability signatures", ok and elapsed < 60.0,
            "; ".join(details) + f"; {elapsed:.1f}s")


def test_criterion_6_classifier_agreement():
    # verdict table at the default config, zero disagreements
    expectations = [
        (hs.builtin_example("alternating_2_half"), UNSTABLE),
        (hs.builtin_example("near_parabolic", alpha=0.0), UNSTABLE),
        (hs.builtin_example("near_parabolic", alpha=1 / 3), UNSTABLE),
        (hs.builtin_example("near_parabolic", alpha=0.5), UNSTABLE),
        (hs.builtin_example("near_parabolic", alpha=0.789), UNSTABLE),
        (hs.builtin_example("period3_2_i_third"), STABLE),
        (hs.builtin_example("sparse3_periodic", p=1), STABLE),
        (hs.builtin_example("sparse3_periodic", p=2), STABLE),
        (hs.builtin_example("sparse3_periodic", p=3), STABLE),
        (hs.builtin_example("sparse3_periodic", p=5), STABLE),
        (hs.builtin_example("sparse3_periodic", p=7), STABLE),
        (hs.builtin_example("sparse3_squares"), UNSTABLE),
        (hs.builtin_example("constant", a=0.3, b=5), STABLE),
        (hs.builtin_example("constant", a=0.5 + 0.5j, b=5), STABLE),
        (hs.builtin_example("constant", a=1, b=0), UNSTABLE),
        (hs.builtin_example("constant", a=-1, b=2), UNSTABLE),
        (hs.builtin_example("constant", a=1j, b=5), UNSTABLE),
        (hs.builtin_example("constant", a=2, b=5), STABLE),
        (hs.builtin_example("constant", a=-3, b=5), STABLE),
        (hs.builtin_example("constant", a=2j, b=5), STABLE),
    ]
    disagreements = []
    for spec, expected in expectations:
        got = hs.classify(spec).status
        if got != expected:
            disagreements.append((spec, expected, got))
    _report("6 classifier agreement", not disagreements,
            f"{len(expectations)} verdicts, {len(disagreements)} disagreements")


def test_criterion_7_key_lemma_finite_horizon():
    n = 1000
    js = np.arange(1.0, n + 1)
    families = {
        "1": np.ones(n),
        "n": js,
        "n^2": js**2,
        "sqrt(n)": np.sqrt(js),
        "exp(sqrt(n))": np.exp(np.sqrt(js)),
    }
    worst_sub = max(subexponential_ratio(t, n) for t in families.values())
    ok = worst_sub <= 0.05
    worst_bal = 0.0
    for t in (np.ones(n), js, 1.0 / js):
        for K in (1.5, 2.0, 4.0):
            err = abs(balance_ratio(t, K, n) - (K - 1.0)) / (K - 1.0)
            worst_bal = max(worst_bal, err)
    ok = ok and worst_bal <= 0.05
    _report("7 key-lemma finite-horizon checks", ok,
            f"max subexp ratio {worst_sub:.4f}; max balance err {worst_bal:.4f}")


def test_criterion_8_second_order_reduction():
    # s = 2, q = 1/2, u = v = 5: the reduced sequence matches the
    # first-order alternating orbit to 1e-9 relative for n <= 1e3, and
    # injected |r_n| <= eps gives second-order residuals of size <= 2 eps.
    s, q, u, v = 2.0, 0.5, 5.0, 5.0
    N = 1000
    z0 = 0.75 - 0.25j
    zm1 = (z0 - u) / s
    seq = second_order_reduce(s, q, u, v, zm1, z0, N)
    first = hs.iterate(hs.periodic_spec([(q, v), (s, u)]), z0, N + 1)
    rel = np.abs(seq[1:] - first.values[2:]) / (1.0 + np.abs(first.values[2:]))
    ok = bool(np.max(rel) <= 1e-9)

    eps = 0.02
    rng = np.random.default_rng(99)
    spec = hs.periodic_spec([(q, v), (s, u)])
    r = padded(eps * random_disc(rng, N - 1))
    orbit = hs.perturbed_orbit(spec, z0, r, eps)
    w = orbit.values
    a, _ = coeffs_upto(spec, N)
    worst_res = 0.0
    for m in range(2, N):
        residual = w[m + 1] - ((a[m] - 1.0) * w[m] + a[m - 1] * w[m - 1] + u + v)
        worst_res = max(worst_res, abs(residual))
        ok = ok and abs(residual - (r[m] + r[m - 1])) <= 1e-9 * (1.0 + abs(residual))
    ok = ok and worst_res <= 2 * eps * (1 + 1e-9)
    _report("8 second-order reduction", ok,
            f"max rel {np.max(rel):.2e}; max residual {worst_res:.4f} <= {2*eps}")

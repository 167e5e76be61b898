import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hustab as hs
from conftest import brute_reciprocal_sum, brute_residuals, coeffs_upto, padded, random_disc
from hustab import witness
from hustab.errors import IndexOutOfRange, NotUnstable
from hustab.witness import _Objective, default_prefixes, reciprocal_sum_converged


def test_alternating_gets_phase_aligned_equal_to_constant_eps():
    spec = hs.builtin_example("alternating_2_half")
    led = hs.build_ledger(spec, 500)
    v = hs.classify_periodic(spec)
    plan = hs.make_witness(spec, led, v.criterion, epsilon=1.0)
    assert plan.variant == "phase_aligned"
    aligned = hs.realize_plan(plan, led, 400)
    # phases of the partial products are all zero for real positive a, so
    # the aligned plan coincides with the constant-budget plan
    const = hs.realize_plan(hs.PerturbationPlan(variant="constant_eps", epsilon=1.0), led, 400)
    assert np.allclose(aligned[1:], const[1:], rtol=0, atol=1e-12)


def test_phase_aligned_budget_is_saturated():
    spec = hs.builtin_example("near_parabolic", alpha=0.5)
    led = hs.build_ledger(spec, 300)
    plan = hs.make_witness(spec, led, "geomean_subexponential", epsilon=0.1)
    assert plan.variant == "phase_aligned"
    r = hs.realize_plan(plan, led, 300)
    mags = np.abs(r[1:])
    assert np.max(mags) <= 0.1
    assert np.min(mags) >= 0.1 * (1 - 1e-12)


def test_sparse3_squares_converged_sum_switches_to_scaled_product():
    spec = hs.builtin_example("sparse3_squares")
    led = hs.build_ledger(spec, 4000)
    assert reciprocal_sum_converged(led)
    plan = hs.make_witness(spec, led, "geomean_subexponential", epsilon=1.0)
    assert plan.variant == "scaled_product"
    assert plan.C == 1.0
    assert plan.log_M == pytest.approx(63 * math.log(3.0), rel=1e-12)  # 63 squares below 4001
    r = hs.realize_plan(plan, led, 4000)
    assert np.max(np.abs(r[1:])) <= 1.0
    # r_n tracks |p(n, 1)| / M exactly
    assert abs(r[1]) == pytest.approx(math.exp(-plan.log_M), rel=1e-9)


def test_divergent_reciprocal_sum_keeps_phase_alignment():
    spec = hs.builtin_example("near_parabolic", alpha=0.0)
    led = hs.build_ledger(spec, 4000)
    assert not reciprocal_sum_converged(led)


def test_reciprocal_sum_converged_past_float_range():
    # 1 / |p(j, 1)| climbs to 2^1100 before a = 2 takes over, and to 2^2999
    # under a = 1/2: the sums stay in log space, where linear sums overflow
    run = hs.table_spec([(0.5, 0.0)] * 1100 + [(2.0, 0.0)], tail="repeat")
    assert reciprocal_sum_converged(hs.build_ledger(run, 10_000))
    assert not reciprocal_sum_converged(hs.build_ledger(hs.builtin_example("constant", a=0.5, b=0), 3000))


@pytest.mark.parametrize("eps", [0.0, -1.0, math.nan, math.inf])
def test_plan_epsilon_must_be_positive_and_finite(eps):
    with pytest.raises(ValueError):
        hs.PerturbationPlan(variant="phase_aligned", epsilon=eps)
    led = hs.build_ledger(hs.builtin_example("alternating_2_half"), 50)
    with pytest.raises(ValueError):
        hs.make_witness(hs.builtin_example("alternating_2_half"), led, "bounded_products", eps)


def test_make_witness_rejects_stable_criteria():
    spec = hs.builtin_example("alternating_2_half")
    led = hs.build_ledger(spec, 50)
    with pytest.raises(NotUnstable):
        hs.make_witness(spec, led, "periodic_contracting", 1.0)


def test_constant_eps_requires_real_positive_products():
    led_rot = hs.build_ledger(hs.builtin_example("near_parabolic", alpha=0.5), 50)
    with pytest.raises(ValueError):
        hs.make_witness(hs.builtin_example("near_parabolic", alpha=0.5), led_rot,
                        "geomean_subexponential", 1.0, variant="constant_eps")
    led_ok = hs.build_ledger(hs.builtin_example("alternating_2_half"), 50)
    plan = hs.make_witness(hs.builtin_example("alternating_2_half"), led_ok,
                           "bounded_products", 1.0, variant="constant_eps")
    assert plan.variant == "constant_eps"


def test_budget_exact_across_plans():
    eps = 0.37
    for name, kw in [("alternating_2_half", {}), ("near_parabolic", {"alpha": 1 / 3}), ("sparse3_squares", {})]:
        spec = hs.builtin_example(name, **kw)
        led = hs.build_ledger(spec, 600)
        for variant in ("phase_aligned", "scaled_product"):
            plan = hs.make_witness(spec, led, "geomean_subexponential", eps, variant=variant)
            r = hs.realize_plan(plan, led, 600)
            assert np.max(np.abs(r[1:])) <= eps


def test_oracle_zero_perturbations_zero_at_zero():
    spec = hs.builtin_example("alternating_2_half")
    led = hs.build_ledger(spec, 100)
    orbit = hs.perturbed_orbit(spec, 1.0, padded(np.zeros(99)), 0.0)
    res = hs.best_shadow_oracle(orbit, spec, led, 100)
    assert res.value == 0.0
    assert res.d == 0.0
    assert res.z1 == orbit.w1


def test_alternating_residual_growth_slope():
    # brute-force residual oracle: with r = eps the residual gains at least
    # eps/2 per index pair
    eps = 1.0
    spec = hs.builtin_example("alternating_2_half")
    n = 2000
    a, _ = coeffs_upto(spec, n)
    rr = brute_residuals(a, padded(np.full(n - 1, eps)), n - 1)
    mags = np.abs(rr)
    for k in range(2, n // 2 - 1):
        assert mags[2 * k] - mags[2 * k - 2] >= eps / 2 - 1e-9
        # the recursion telescopes exactly: R_{2k} = 1.5 k eps, R_{2k+1} = (3k+1) eps
        assert mags[2 * k] == pytest.approx(1.5 * k * eps, rel=1e-12)
        assert mags[2 * k + 1] == pytest.approx((3 * k + 1) * eps, rel=1e-12)


def test_near_parabolic_residual_linear_growth():
    eps = 1.0
    spec = hs.builtin_example("near_parabolic", alpha=0.0)
    n = 4000
    a, _ = coeffs_upto(spec, n)
    rr = brute_residuals(a, padded(np.full(n - 1, eps)), n - 1)
    assert abs(rr[3999]) / abs(rr[999]) == pytest.approx(4.0, rel=0.15)
    assert 0.8 <= abs(rr[3999]) / (3999 * eps) <= 1.5


def test_oracle_expanding_matches_series_prediction():
    eps = 1e-2
    N = 600
    spec = hs.builtin_example("constant", a=2, b=5)
    led = hs.build_ledger(spec, N)
    r = hs.realize_plan(hs.PerturbationPlan(variant="phase_aligned", epsilon=eps), led, N)
    orbit = hs.perturbed_orbit(spec, 0.2 + 0.4j, r, eps)
    res = hs.best_shadow_oracle(orbit, spec, led, N)
    assert res.value <= eps * (1 + 1e-9)
    assert res.value == pytest.approx(eps, rel=0.05)
    # the optimal start is the reciprocal series
    assert res.d == pytest.approx(-eps * (1 - 2.0 ** -(N - 1)), rel=1e-6)


def test_oracle_dominates_shadow_constructions():
    rng = np.random.default_rng(33)
    eps = 0.02
    # contracting side
    spec_c = hs.builtin_example("period3_2_i_third")
    led_c = hs.build_ledger(spec_c, 400)
    orbit_c = hs.perturbed_orbit(spec_c, 1 - 1j, padded(eps * random_disc(rng, 399)), eps)
    shadow_c = hs.shadow_contracting(orbit_c, spec_c, led_c)
    oracle_c = hs.best_shadow_oracle(orbit_c, spec_c, led_c, 400)
    assert oracle_c.value <= shadow_c.sup_error * (1 + 1e-12)
    # expanding side
    spec_e = hs.builtin_example("constant", a=2, b=5)
    led_e = hs.build_ledger(spec_e, 400)
    orbit_e = hs.perturbed_orbit(spec_e, 0.5, padded(eps * random_disc(rng, 399)), eps)
    shadow_e = hs.shadow_expanding(orbit_e, spec_e, led_e)
    oracle_e = hs.best_shadow_oracle(orbit_e, spec_e, led_e, 400)
    assert oracle_e.value <= shadow_e.sup_error * (1 + 1e-12)


def test_oracle_growth_factor_alternating():
    eps = 1.0
    N = 1600
    spec = hs.builtin_example("alternating_2_half")
    led = hs.build_ledger(spec, N)
    plan = hs.make_witness(spec, led, "bounded_products", eps)
    r = hs.realize_plan(plan, led, N)
    orbit = hs.perturbed_orbit(spec, 0.0, r, eps)
    v_lo = hs.best_shadow_oracle(orbit, spec, led, N // 4).value
    v_hi = hs.best_shadow_oracle(orbit, spec, led, N).value
    assert v_hi / v_lo >= 3.0


def test_phase_aligned_error_identity():
    # with z_1 = w_1 the aligned plan stacks every term on one ray:
    # |w_{n+1} - z_{n+1}| = |p(n+1,1)| eps (recip(n+1) - 1) + eps exactly,
    # with recip(n) = sum_{j<n} 1 / |p(j, 1)| formed by direct products
    eps = 0.1
    N = 400
    spec = hs.builtin_example("near_parabolic", alpha=1 / 3)
    led = hs.build_ledger(spec, N)
    a, _ = coeffs_upto(spec, N)
    r = hs.realize_plan(hs.PerturbationPlan(variant="phase_aligned", epsilon=eps), led, N)
    orbit = hs.perturbed_orbit(spec, 1 + 2j, r, eps)
    traj = hs.iterate(spec, orbit.w1, N)
    for n in range(1, N - 1):
        got = abs(orbit.values[n + 1] - traj.values[n + 1])
        p_mag = math.exp(led.logmag[n + 1])
        recip = brute_reciprocal_sum(a, n + 1)
        expect = p_mag * eps * (recip - 1.0) + eps
        assert abs(got - expect) <= 1e-9 * (1 + expect)
        # consequence used by the divergence argument
        assert got >= p_mag * eps * (recip - 1.0) - eps


def test_run_witness_curve_monotone_and_csv():
    spec = hs.builtin_example("alternating_2_half")
    led = hs.build_ledger(spec, 512)
    plan = hs.make_witness(spec, led, "bounded_products", 0.5)
    curve = hs.run_witness(spec, plan, 512, ledger=led)
    vals = curve.values
    assert np.all(np.diff(vals) >= 0)
    assert curve.ns[-1] == 512
    from_n, to_n, factor = curve.growth_factor()
    assert (from_n, to_n) == (128, 512)
    assert factor >= 3.0
    text = curve.to_csv()
    assert text.startswith("n,d_n,log10_d_n\n")
    assert "np.float64" not in text


def test_default_prefixes_contain_quarter_and_full():
    for N in (64, 1000, 4096):
        ns = default_prefixes(N)
        assert N in ns and max(2, N // 4) in ns
        assert ns == sorted(ns)


def test_plan_json_round_trip_fields():
    spec = hs.builtin_example("sparse3_squares")
    led = hs.build_ledger(spec, 1000)
    plan = hs.make_witness(spec, led, "geomean_subexponential", 2.0)
    doc = plan.to_json()
    assert doc["variant"] == "scaled_product"
    assert doc["epsilon"] == 2.0
    assert doc["C"] == 1.0
    assert doc["M"] == pytest.approx(3.0**31, rel=1e-9)


def test_plan_json_is_strict_past_float_range():
    # sup |p(n, 1)| = 2^2000 overflows binary64; the plan then reports
    # log_M in place of a linear M of Infinity.
    spec = hs.builtin_example("constant", a=2, b=5)
    led = hs.build_ledger(spec, 2000)
    plan = hs.make_witness(spec, led, "linear_growth_products", 1.0, variant="scaled_product")

    def refuse(name):
        raise ValueError(f"non-strict JSON constant {name}")

    doc = json.loads(json.dumps(plan.to_json()), parse_constant=refuse)
    assert "M" not in doc
    assert doc["log_M"] == pytest.approx(2000 * math.log(2.0), rel=1e-12)


# ---------------------------------------------------------------------------
# Best-shadow oracle against naive direct recursion. The naive objective
# max_n |p(n, 1) d + R_{n-1}| is formed in linear scale from repeated
# multiplication, so the cases keep |p(n, 1)| moderate.

def naive_constraints(spec, r, N):
    """p(n, 1) and R_{n-1} for n = 2..N, by repeated multiplication and
    direct recursion."""
    a, _ = coeffs_upto(spec, N)
    R = brute_residuals(a, r, N - 1)
    p = np.cumprod(a[1:N])  # slot n - 2 holds p(n, 1)
    return p, R[1:N]


def naive_objective(p, R, d):
    return float(np.max(np.abs(p * d + R)))


@st.composite
def oracle_cases(draw):
    """(spec, N, r): unimodular cycles, near_parabolic and small tables,
    under random or phase-aligned perturbations."""
    kind = draw(st.sampled_from(["cycle", "near_parabolic", "table"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "cycle":
        k = draw(st.integers(1, 5))
        logs = rng.uniform(-1.0, 1.0, k)
        a = np.exp(logs - logs.mean() + 2j * np.pi * rng.uniform(0, 1, k))
        spec = hs.periodic_spec([(x, 1.0) for x in a])
        N = draw(st.integers(2, 400))
    elif kind == "near_parabolic":
        spec = hs.builtin_example("near_parabolic", alpha=draw(st.floats(0.0, 1.0)))
        N = draw(st.integers(2, 400))
    else:
        k = draw(st.integers(2, 12))
        a = np.exp(rng.uniform(np.log(0.5), np.log(2.0), k) + 2j * np.pi * rng.uniform(0, 1, k))
        spec = hs.table_spec([(x, 0.0) for x in a], tail="error")
        N = draw(st.integers(2, k))
    eps = draw(st.floats(0.01, 1.0))
    led = hs.build_ledger(spec, N)
    if draw(st.booleans()):
        r = hs.realize_plan(hs.PerturbationPlan(variant="phase_aligned", epsilon=eps), led, N)
    else:
        r = padded(eps * random_disc(rng, N - 1))
    return spec, led, N, r, eps, rng


def assert_certified(p, R, res, tol):
    """The oracle's value is attained at its d, and 0 lies in the convex hull
    of the unit gradients of the constraints within 1e-9 of the max."""
    err = p * res.d + R
    f = np.abs(err)
    assert res.value == pytest.approx(float(np.max(f)), rel=1e-9, abs=tol)
    if res.value == 0.0:
        return
    active = f >= np.max(f) * (1.0 - 1e-9)
    # the gradient of |p d + R| in d points along conj(p) (p d + R)
    ang = np.sort(np.angle(err[active] * np.conj(p[active])))
    gaps = np.diff(np.concatenate([ang, [ang[0] + 2.0 * np.pi]]))
    # 0 lies in the convex hull of unit vectors iff no open half-plane holds them all
    assert np.max(gaps) <= np.pi + 1e-6


@settings(max_examples=60, deadline=None)
@given(case=oracle_cases())
def test_oracle_certificate_zero_in_hull_of_active_gradients(case):
    spec, led, N, r, eps, _ = case
    orbit = hs.perturbed_orbit(spec, 0.3 - 0.1j, r, eps)
    res = hs.best_shadow_oracle(orbit, spec, led, N)
    p, R = naive_constraints(spec, r, N)
    assert_certified(p, R, res, 1e-14 * eps)


@settings(max_examples=60, deadline=None)
@given(case=oracle_cases())
def test_oracle_beats_naive_objective_at_other_starts(case):
    spec, led, N, r, eps, rng = case
    orbit = hs.perturbed_orbit(spec, 1.0 + 0.5j, r, eps)
    res = hs.best_shadow_oracle(orbit, spec, led, N)
    p, R = naive_constraints(spec, r, N)
    starts = [0.0j, -R[-1] / p[-1]]  # equal start, and the reciprocal series S_{N-1}
    for scale in (1e-6, 1e-3, 1e-1):
        starts += list(res.d + scale * (1.0 + abs(res.d)) * random_disc(rng, 4))
    for d in starts:
        assert res.value <= naive_objective(p, R, d) * (1.0 + 1e-9)


@pytest.mark.parametrize("name, N, variant", [
    ("alternating_2_half", 3000, "phase_aligned"),
    ("sparse3_squares", 4000, "scaled_product"),
])
def test_oracle_certified_on_builtin_witnesses(name, N, variant):
    spec = hs.builtin_example(name)
    led = hs.build_ledger(spec, N)
    plan = hs.make_witness(spec, led, "geomean_subexponential", 0.5, variant=variant)
    r = hs.realize_plan(plan, led, N)
    orbit = hs.perturbed_orbit(spec, 0.0, r, 0.5)
    res = hs.best_shadow_oracle(orbit, spec, led, N)
    p, R = naive_constraints(spec, r, N)
    assert_certified(p, R, res, 0.0)
    for d in (0.0, -R[-1] / p[-1], res.d + 1e-4 * (1 + abs(res.d)), res.d - 1e-4j * (1 + abs(res.d))):
        assert res.value <= naive_objective(p, R, d) * (1.0 + 1e-9)


def test_oracle_sparse3_squares_regression():
    # the grid oracle reported 124.44 here; 280/3 is attained and certified
    N = 16000
    spec = hs.builtin_example("sparse3_squares")
    led = hs.build_ledger(spec, N)
    plan = hs.make_witness(spec, led, "geomean_subexponential", 1.0, variant="scaled_product")
    orbit = hs.perturbed_orbit(spec, 0.0, hs.realize_plan(plan, led, N), 1.0)
    res = hs.best_shadow_oracle(orbit, spec, led, N)
    assert res.value == pytest.approx(280.0 / 3.0, rel=1e-9)


@pytest.mark.parametrize("a, N, factor", [(2.0, 2000, 1.0), (0.5, 4000, 2.0)])
def test_oracle_log_domain_phase_aligned(a, N, factor):
    # L_N is about +1386 for a = 2 and -2773 for a = 0.5, both far outside
    # exp's range; the phase-aligned optimum is eps and 2 eps exactly
    eps = 0.01
    spec = hs.builtin_example("constant", a=a, b=5)
    led = hs.build_ledger(spec, N)
    assert abs(led.logmag[N]) > 1000
    r = hs.realize_plan(hs.PerturbationPlan(variant="phase_aligned", epsilon=eps), led, N)
    orbit = hs.perturbed_orbit(spec, 0.2 + 0.4j, r, eps)
    res = hs.best_shadow_oracle(orbit, spec, led, N)
    assert res.value == pytest.approx(factor * eps, rel=1e-12)
    assert res.log10_value == pytest.approx(math.log10(factor * eps), rel=1e-12)


# ---------------------------------------------------------------------------
# run_witness solves each prefix on one objective shared by a run of prefixes
# (witness._shares), warm-started from the prefix before; its curve must equal
# the cold single-prefix oracle at every prefix.

def assert_curve_matches_cold_oracle(spec, led, plan, N, w1=0.2 - 0.3j, prefixes=None):
    """Returns the prefixes' roots m = argmax L_n and the number of
    objectives run_witness built."""
    builds = []

    class Counted(witness._Objective):
        def __init__(self, *args, **kwargs):
            builds.append(args[2])
            super().__init__(*args, **kwargs)

    with mock.patch.object(witness, "_Objective", Counted):
        curve = hs.run_witness(spec, plan, N, ledger=led, prefixes=prefixes)
    orbit = hs.perturbed_orbit(spec, w1, hs.realize_plan(plan, led, N), plan.epsilon)
    cold = [hs.best_shadow_oracle(orbit, spec, led, int(n)).value for n in curve.ns]
    np.testing.assert_allclose(curve.values, np.maximum.accumulate(cold), rtol=1e-12, atol=0.0)
    return {int(np.argmax(led.logmag[2 : int(n) + 1])) for n in curve.ns}, len(builds)


@pytest.mark.parametrize("name, N, variant, roots, objectives", [
    pytest.param("alternating_2_half", 4000, "phase_aligned", 1, 1, id="alternating_2_half-4000-phase_aligned-1"),
    # L_n never decreases, so every prefix shares the objective of the last
    pytest.param("sparse3_squares", 16000, "scaled_product", 7, 1, id="sparse3_squares-16000-scaled_product-7"),
    pytest.param("near_parabolic", 4000, "phase_aligned", 9, 1, id="near_parabolic-4000-phase_aligned-9"),
    # a = 2, forced: each prefix has its own root, and centers 1000 or more
    # steps from a root leave float range, so the prefixes 1472, 2944 and
    # 3000 each need an objective; the six up to 750 share the one at 750
    pytest.param("constant", 3000, "phase_aligned", 9, 4, id="constant-3000-phase_aligned-9"),
])
def test_run_witness_matches_cold_oracle_on_builtins(name, N, variant, roots, objectives):
    spec = hs.builtin_example(name)
    led = hs.build_ledger(spec, N)
    plan = hs.make_witness(spec, led, "geomean_subexponential", 0.7, variant=variant)
    seen, built = assert_curve_matches_cold_oracle(spec, led, plan, N)
    assert (len(seen), built) == (roots, objectives)


def test_run_witness_does_not_share_across_a_dip():
    # L falls 575 below the early prefixes' root before it climbs past it
    # at n = 501: centers summed from the later root across that dip keep
    # no digit of the early values (d_31..d_248 = 1/3), so the early
    # prefixes get an objective of their own.
    spec = hs.table_spec([(0.1, 1 + 0.5j)] * 250 + [(10, 1 + 0.5j)] * 250 + [(1, 1 + 0.5j)], tail="repeat")
    N = 2000
    led = hs.build_ledger(spec, N)
    plan = hs.PerturbationPlan("phase_aligned", 0.3)
    roots, objectives = assert_curve_matches_cold_oracle(spec, led, plan, N)
    assert (roots, objectives) == ({0, 499}, 2)
    assert hs.run_witness(spec, plan, N, ledger=led).values[0] == pytest.approx(1 / 3, rel=1e-12)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), N=st.integers(40, 2000))
def test_run_witness_matches_cold_oracle_on_dipping_tables(seed, N):
    # log|a| uniform in [-2, 2] with its mean removed: L_n wanders up and
    # down by tens, so roots move right across dips of every depth
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, N))
    logs = rng.uniform(-2.0, 2.0, k)
    a = np.exp(logs - logs.mean() + 2j * np.pi * rng.uniform(0, 1, k))
    spec = hs.table_spec([(x, 1.0) for x in a], tail="repeat")
    led = hs.build_ledger(spec, N)
    plan = hs.PerturbationPlan(variant="phase_aligned", epsilon=float(rng.uniform(0.1, 1.0)))
    assert_curve_matches_cold_oracle(spec, led, plan, N)


@pytest.mark.parametrize("name, N, variant", [
    ("near_parabolic", 3000, "phase_aligned"),
    ("sparse3_squares", 16000, "scaled_product"),
    ("alternating_2_half", 3000, "phase_aligned"),
])
def test_warm_start_equals_cold_start(name, N, variant):
    # Each prefix of one shared objective, solved from the previous prefix's
    # end state and from y = 0, reaches the same value.
    spec = hs.builtin_example(name)
    led = hs.build_ledger(spec, N)
    plan = hs.make_witness(spec, led, "geomean_subexponential", 0.7, variant=variant)
    ns = default_prefixes(N)
    obj = _Objective(led, hs.realize_plan(plan, led, N), N, cuts=ns)
    state = witness._COLD
    for n in ns:
        _, warm, state = witness._solve(obj.prefix(n), state)
        _, cold, _ = witness._solve(obj.prefix(n))
        assert math.exp(warm - cold) == pytest.approx(1.0, rel=1e-12, abs=0.0)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 6), N=st.integers(40, 1500))
def test_run_witness_matches_cold_oracle_on_unimodular_cycles(seed, k, N):
    rng = np.random.default_rng(seed)
    logs = rng.uniform(-1.0, 1.0, k)
    a = np.exp(logs - logs.mean() + 2j * np.pi * rng.uniform(0, 1, k))
    spec = hs.periodic_spec([(x, 1.0) for x in a])
    led = hs.build_ledger(spec, N)
    plan = hs.PerturbationPlan(variant="phase_aligned", epsilon=float(rng.uniform(0.1, 1.0)))
    prefixes = sorted({2, 3, int(rng.integers(2, N + 1))})
    assert_curve_matches_cold_oracle(spec, led, plan, N, prefixes=prefixes)
    assert_curve_matches_cold_oracle(spec, led, plan, N)


@settings(max_examples=6, deadline=None)
@given(alpha=st.floats(0.0, 1.0), N=st.integers(200, 2500))
def test_run_witness_matches_cold_oracle_on_near_parabolic(alpha, N):
    spec = hs.builtin_example("near_parabolic", alpha=alpha)
    led = hs.build_ledger(spec, N)
    plan = hs.make_witness(spec, led, "geomean_subexponential", 0.5)
    assert_curve_matches_cold_oracle(spec, led, plan, N)


def test_run_witness_matches_cold_oracle_with_floors():
    # A contracting spec, witnessed by force: the centers grow like 2^n and
    # leave float range past n ~ 1010, so the later prefixes have floors.
    N = 3000
    spec = hs.builtin_example("constant", a=0.5, b=5)
    led = hs.build_ledger(spec, N)
    plan = hs.PerturbationPlan(variant="phase_aligned", epsilon=1.0)
    r = hs.realize_plan(plan, led, N)
    full = _Objective(led, r, N)
    assert full.log_floor > -math.inf
    assert full.prefix(500).log_floor == -math.inf
    prefixes = [2, 500, 1000, 1020, 1100, 2000]
    assert assert_curve_matches_cold_oracle(spec, led, plan, N, prefixes=prefixes) == ({0}, 1)


def test_run_witness_rejects_prefixes_outside_the_orbit():
    spec = hs.builtin_example("alternating_2_half")
    plan = hs.PerturbationPlan(variant="phase_aligned", epsilon=1.0)
    for bad in ([1, 10], [10, 51]):
        with pytest.raises(IndexOutOfRange):
            hs.run_witness(spec, plan, 50, prefixes=bad)

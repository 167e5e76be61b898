import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hustab as hs
from conftest import (
    brute_orbit,
    brute_partial_product,
    brute_residuals,
    closed_form_at,
    coeffs_upto,
    padded,
    random_disc,
    random_table_spec,
)
from hustab.dynamics import _check_identity
from hustab.errors import TailNotConvergent


def test_iterate_hand_recursion():
    traj = hs.iterate(hs.builtin_example("constant", a=2, b=5), 1.0, 3)
    assert traj.at(2) == 7 + 0j
    assert traj.at(3) == 19 + 0j


def test_iterate_identity_map():
    c = 3.5 - 2j
    traj = hs.iterate(hs.builtin_example("constant", a=1, b=0), c, 50)
    assert np.all(traj.values[1:] == c)


def test_iterate_period3_from_zero():
    traj = hs.iterate(hs.builtin_example("period3_2_i_third"), 0.0, 3)
    assert traj.at(2) == 5 + 0j
    assert traj.at(3) == 5 + 5j  # i * 5 + 5


def test_closed_form_hand_values():
    spec = hs.builtin_example("constant", a=2, b=5)
    led = hs.build_ledger(spec, 10)
    _, b = coeffs_upto(spec, 10)
    assert closed_form_at(led, b, 1.0, 3) == pytest.approx(19 + 0j, rel=1e-12)

    # n = 2 reduces to a_1 z_1 + b_1 for any spec
    rng = np.random.default_rng(5)
    spec2 = random_table_spec(rng, 10)
    led2 = hs.build_ledger(spec2, 10)
    z1 = 0.7 - 0.2j
    a, b = coeffs_upto(spec2, 10)
    assert closed_form_at(led2, b, z1, 2) == pytest.approx(a[1] * z1 + b[1], rel=1e-12)

    # pure translation: z_n = (n - 1) b from z_1 = 0
    spec3 = hs.builtin_example("constant", a=1, b=2 - 1j)
    led3 = hs.build_ledger(spec3, 100)
    _, b = coeffs_upto(spec3, 100)
    for n in (2, 17, 100):
        assert closed_form_at(led3, b, 0.0, n) == pytest.approx((n - 1) * (2 - 1j), rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_closed_form_equals_iterate(seed):
    rng = np.random.default_rng(seed)
    n = 400
    spec = random_table_spec(rng, n)
    led = hs.build_ledger(spec, n)
    z1 = complex(random_disc(rng, 1, 5.0)[0])
    traj = hs.iterate(spec, z1, n)
    curve = hs.closed_form_curve(spec, led, z1, n)
    assert np.all(np.abs(curve[1:] - traj.values[1:]) <= 1e-9 * (1 + np.abs(traj.values[1:])))
    _, b = coeffs_upto(spec, n)
    for m in (2, n // 3, n):
        got = closed_form_at(led, b, z1, m)
        assert abs(got - traj.at(m)) <= 1e-9 * (1 + abs(traj.at(m)))


def test_residuals_zero_perturbation():
    spec = hs.builtin_example("period3_2_i_third")
    orbit = hs.perturbed_orbit(spec, 1.0, padded(np.zeros(49)), 0.0)
    res = hs.residual_ledger(orbit, spec)
    assert np.all(res.values == 0)


def test_residuals_product_pattern_gives_n_times_product():
    # perturbing proportionally to the partial products makes every series
    # term equal, so R_n = n r_n: with r_n = p(n+1, 1) the recursion gives
    # R_n = n p(n+1, 1) (the linear-growth mechanism)
    for name in ("alternating_2_half", "period3_2_i_third"):
        spec = hs.builtin_example(name)
        n = 60
        a, _ = coeffs_upto(spec, n)
        r = padded([brute_partial_product(a, j + 1, 1) for j in range(1, n)])
        eps = float(np.max(np.abs(r[1:])))
        orbit = hs.perturbed_orbit(spec, 0.3 + 0.1j, r, eps)
        res = hs.residual_ledger(orbit, spec)
        for m in range(1, n - 1):
            expect = m * brute_partial_product(a, m + 1, 1)
            assert abs(res.values[m] - expect) <= 1e-9 * (1 + abs(expect))


def test_residuals_geometric_recursion():
    # constant a = 2 with r = 1: R_n = 2^n - 1 by the geometric recursion
    spec = hs.builtin_example("constant", a=2, b=0)
    orbit = hs.perturbed_orbit(spec, 0.0, padded(np.ones(39)), 1.0)
    res = hs.residual_ledger(orbit, spec)
    for m in range(1, 39):
        assert res.values[m] == pytest.approx(2.0**m - 1.0, rel=1e-12)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_residual_round_trip(seed):
    rng = np.random.default_rng(seed)
    n = 300
    spec = random_table_spec(rng, n, amin=0.5, amax=2.0)
    r = padded(random_disc(rng, n - 1, 1.0))
    orbit = hs.perturbed_orbit(spec, complex(random_disc(rng, 1, 3)[0]), r, 1.0)
    res = hs.residual_ledger(orbit, spec, check=True)  # raises on violation
    exact = hs.iterate(spec, orbit.w1, n)
    recon = exact.values[2:] + res.values[1 : n - 1 + 1]
    assert np.all(np.abs(orbit.values[2:] - recon) <= 1e-9 * (1 + np.abs(orbit.values[2:])))


def test_orbits_equal_naive_recursion_exactly():
    # iterate, perturbed_orbit and residual_ledger share one kernel; each
    # must reproduce direct recursion over coeff_at bit for bit, not just
    # within a tolerance.
    rng = np.random.default_rng(12)
    cases = [
        (hs.builtin_example("alternating_2_half"), 2000),
        (hs.builtin_example("period3_2_i_third"), 2000),
        (hs.builtin_example("near_parabolic", alpha=1 / 3), 2000),
        (hs.builtin_example("sparse3_squares"), 1000),
        (hs.builtin_example("constant", a=0.9 - 0.3j, b=1j), 2000),
        (random_table_spec(rng, 300, amin=0.5, amax=2.0), 300),
    ]
    for spec, n in cases:
        a, b = coeffs_upto(spec, n)
        r = padded(random_disc(rng, n - 1, 0.1))
        z = hs.iterate(spec, 0.5 - 0.25j, n).values
        assert np.array_equal(z[1:], brute_orbit(a, b, 0.5 - 0.25j, n)[1:])
        orbit = hs.perturbed_orbit(spec, 1j, r, 0.1)
        assert np.array_equal(orbit.values[1:], brute_orbit(a, b, 1j, n, r)[1:])
        res = hs.residual_ledger(orbit, spec, check=False)
        assert np.array_equal(res.values, brute_residuals(a, r, n - 1))


def test_error_decomposition_with_distinct_starts():
    # w_{n+1} - z_{n+1} = p(n+1,1) [ (w_1 - z_1) + sum_{j<n} r_j / p(j+1,1) ] + r_n
    rng = np.random.default_rng(21)
    n = 250
    spec = random_table_spec(rng, n, amin=0.5, amax=2.0)
    a, _ = coeffs_upto(spec, n)
    r = padded(random_disc(rng, n - 1, 0.5))
    w1, z1 = 1.2 - 0.4j, -0.3 + 0.9j
    orbit = hs.perturbed_orbit(spec, w1, r, 0.5)
    traj = hs.iterate(spec, z1, n)
    for m in range(1, n - 1):  # error at index m + 1
        p_m1 = brute_partial_product(a, m + 1, 1)
        series = sum(r[j] / brute_partial_product(a, j + 1, 1) for j in range(1, m))
        expect = p_m1 * ((w1 - z1) + series) + r[m]
        got = orbit.values[m + 1] - traj.values[m + 1]
        assert abs(got - expect) <= 1e-9 * (1 + abs(expect))


def test_shadow_contracting_geometric_bound():
    # constant a = 1/2, r = eps: R_n = 2 eps (1 - 2^{-n}) stays under 2 eps
    eps = 1e-2
    spec = hs.builtin_example("constant", a=0.5, b=3)
    orbit = hs.perturbed_orbit(spec, 2.0, padded(np.full(499, eps)), eps)
    res = hs.shadow_contracting(orbit, spec, hs.build_ledger(spec, 500))
    assert res.sup_error <= 2 * eps * (1 + 1e-9)
    assert res.sup_error == pytest.approx(2 * eps, rel=1e-3)
    # error curve literally equals |R_{n-1}|
    rr = brute_residuals(coeffs_upto(spec, 500)[0], padded(np.full(499, eps)), 499)
    assert np.allclose(res.errors[2:], np.abs(rr[1:500]), rtol=1e-9)


def test_shadow_contracting_period3_stays_under_16eps():
    rng = np.random.default_rng(9)
    spec = hs.builtin_example("period3_2_i_third")
    led = hs.build_ledger(spec, 1000)
    for eps in (1e-3, 1e-1):
        r = padded(eps * random_disc(rng, 999))
        orbit = hs.perturbed_orbit(spec, complex(random_disc(rng, 1, 4)[0]), r, eps)
        res = hs.shadow_contracting(orbit, spec, led)
        assert res.trajectory.z1 == orbit.w1
        assert res.sup_error <= 16 * eps


def test_shadow_contracting_zero_perturbation_is_exact():
    spec = hs.builtin_example("alternating_2_half")
    orbit = hs.perturbed_orbit(spec, 1 + 1j, padded(np.zeros(99)), 0.0)
    res = hs.shadow_contracting(orbit, spec, hs.build_ledger(spec, 100))
    assert res.sup_error == 0.0
    assert np.all(res.trajectory.values[1:] == orbit.values[1:])


def test_shadow_contracting_orbit_through_large_values():
    # a = i, b = 2^21 i: the orbit visits |w| ~ 2^21 and returns near 0
    # every fourth step, carrying rounding of ulp(2^21) ~ 5e-10 there. The
    # error curve is |R_{n-1}| to rounding, and the identity check passes.
    rng = np.random.default_rng(17)
    spec = hs.constant_spec(1j, 2.0**21 * 1j)
    r = padded(0.01 * random_disc(rng, 63))
    orbit = hs.perturbed_orbit(spec, 0.0, r, 0.01)
    led = hs.build_ledger(spec, 64)
    res = hs.shadow_contracting(orbit, spec, led)
    rr = brute_residuals(coeffs_upto(spec, 64)[0], r, 63)
    assert np.allclose(res.errors[2:], np.abs(rr[1:64]), rtol=1e-12, atol=0.0)
    hs.residual_ledger(orbit, spec, check=True)
    # a trajectory off by a relative 1e-6 still fails the identity
    off = hs.Trajectory(spec=spec, values=res.trajectory.values * (1.0 + 1e-6))
    with pytest.raises(ArithmeticError):
        _check_identity(orbit, off, hs.residual_ledger(orbit, spec, check=False).values, led.logmag)


def test_shadow_expanding_constant2_bound():
    # forward-tail oracle: with r_j = eps the error at n+1 is
    # 2^n eps sum_{j>n} 2^{-j} = eps (1 - 2^{-(N-1-n)}) <= eps
    eps = 1e-2
    N = 500
    spec = hs.builtin_example("constant", a=2, b=5)
    led = hs.build_ledger(spec, N)
    orbit = hs.perturbed_orbit(spec, 1.0, padded(np.full(N - 1, eps)), eps)
    res = hs.shadow_expanding(orbit, spec, led)
    assert res.sup_error <= eps * (1 + 1e-9)
    assert res.sup_error == pytest.approx(eps, rel=1e-3)
    assert res.tail_estimate < 1e-100
    # the error at the horizon itself vanishes: the truncated series shadow
    # is built to land on w at n = N
    assert res.errors[N] == 0.0


@pytest.mark.parametrize("construction", ["reciprocal_series", "equal_start"])
def test_shadow_expanding_trajectory_matches_errors(construction):
    # the returned orbit is the shadow the error curve describes: at a
    # horizon where w and z stay in range, subtracting them reproduces it
    eps = 0.01
    N = 40
    spec = hs.builtin_example("constant", a=2, b=5)
    led = hs.build_ledger(spec, N)
    r = padded(eps * random_disc(np.random.default_rng(0), N - 1))
    orbit = hs.perturbed_orbit(spec, 0.0, r, eps)
    if construction == "reciprocal_series":
        res = hs.shadow_expanding(orbit, spec, led)
        assert res.sup_error <= eps
    else:
        res = hs.shadow_contracting(orbit, spec, led)
        assert res.trajectory.z1 == orbit.w1
    w = orbit.values[1:]
    got = np.abs(w - res.trajectory.values[1:])
    assert np.all(np.abs(got - res.errors[1:]) <= 1e-9 * (1.0 + np.abs(w)))


def test_shadow_expanding_near_the_bounded_solution():
    # w_1 = -0.3 is the fixed point of a = 2, b = 0.3 and eps is tiny, so w
    # and z stay near it while the rounding of every step is doubled at each
    # later one: the identity check allows rounding carried by |p(n, m)|,
    # which the orbits' own size does not show
    eps = 1e-12
    N = 1000
    spec = hs.builtin_example("constant", a=2, b=0.3)
    led = hs.build_ledger(spec, N)
    r = padded(eps * random_disc(np.random.default_rng(2), N - 1))
    res = hs.shadow_expanding(hs.perturbed_orbit(spec, -0.3, r, eps), spec, led)
    assert res.sup_error <= eps * (1 + 1e-9)


def test_shadow_expanding_zero_perturbation():
    spec = hs.builtin_example("constant", a=3, b=1)
    led = hs.build_ledger(spec, 100)
    orbit = hs.perturbed_orbit(spec, 0.5j, padded(np.zeros(99)), 0.0)
    res = hs.shadow_expanding(orbit, spec, led)
    assert res.trajectory.z1 == orbit.w1
    assert res.sup_error == 0.0


def test_shadow_expanding_all_threes_half_eps():
    # every a_n = 3: error envelope is eps * sum_{j>=1} 3^{-j} = eps / 2
    eps = 0.05
    N = 400
    spec = hs.builtin_example("sparse3_periodic", p=1)
    led = hs.build_ledger(spec, N)
    orbit = hs.perturbed_orbit(spec, 1.0, padded(np.full(N - 1, eps)), eps)
    res = hs.shadow_expanding(orbit, spec, led)
    assert res.sup_error <= 0.5 * eps * (1 + 1e-9)
    assert res.sup_error == pytest.approx(0.5 * eps, rel=1e-3)


def test_shadow_expanding_phase_aligned_sparse3_periodic():
    # r_j aligned with p(j+1, 1) makes every series term add in phase, so the
    # error attains the envelope: 3.5 eps for a = (1, 1, 3) repeating. The
    # reversed tails start below e^-745 and must not come out as zero.
    N = 3000
    spec = hs.builtin_example("sparse3_periodic", p=3)
    led = hs.build_ledger(spec, N)
    r = padded(np.exp(1j * led.phase[2 : N + 1]))
    res = hs.shadow_expanding(hs.perturbed_orbit(spec, 0.0, r, 1.0), spec, led)
    assert res.sup_error == pytest.approx(3.5, rel=1e-12)
    assert np.count_nonzero(res.errors[1:N] == 0.0) == 0


def test_shadow_expanding_no_underflow_within_a_block():
    # |a| = 100 climbs ~4.6 per index in log, so one block of the reversed
    # tails spans ~1180: its early prefixes underflowed to 0 unless the
    # block is cut. The exact error is sum_{k=1}^{N-n} 100^{-k}.
    N = 2000
    spec = hs.builtin_example("constant", a=100, b=1)
    led = hs.build_ledger(spec, N)
    r = padded(np.exp(1j * led.phase[2 : N + 1]))
    res = hs.shadow_expanding(hs.perturbed_orbit(spec, 0.0, r, 1.0), spec, led)
    k = (N - np.arange(1, N)).astype(float)
    exact = (1.0 - 100.0**-k) / 99.0
    assert np.all(np.abs(res.errors[1:N] - exact) <= 1e-10 * exact)


def test_shadow_expanding_rejects_contracting_tail():
    spec = hs.builtin_example("constant", a=0.5, b=1)
    led = hs.build_ledger(spec, 100)
    orbit = hs.perturbed_orbit(spec, 1.0, padded(np.full(99, 0.01)), 0.01)
    with pytest.raises(TailNotConvergent):
        hs.shadow_expanding(orbit, spec, led)


def test_second_order_identity_pair_is_constant():
    c = 2.5 + 1j
    seq = hs.second_order_reduce(1, 1, 0, 0, c, c, 40)
    assert np.all(seq[1:] == c)


def test_second_order_hand_values():
    seq = hs.second_order_reduce(2, 0.5, 0, 0, 1.0, 2.0, 2)
    assert seq[1] == pytest.approx(1.0 + 0j)  # (1/2 - 1) * 2 + 2 * 1
    assert seq[2] == pytest.approx(2.0 + 0j)  # (2 - 1) * 1 + (1/2) * 2


def test_second_order_matches_alternating_first_order():
    s, q, u, v = 2.0, 0.5, 5.0, 5.0
    z0 = 1 + 0.5j
    zm1 = (z0 - u) / s  # consistency: z_0 = s z_{-1} + u
    N = 500
    seq = hs.second_order_reduce(s, q, u, v, zm1, z0, N)
    first = hs.iterate(hs.periodic_spec([(q, v), (s, u)]), z0, N + 1)
    assert np.all(np.abs(seq[1:] - first.values[2:]) <= 1e-9 * (1 + np.abs(first.values[2:])))


def test_second_order_perturbed_residual_bound():
    # first-order perturbations |r_n| <= eps collapse pairwise in the
    # second-order form: the residual is r_n + r_{n-1}, magnitude <= 2 eps
    rng = np.random.default_rng(2)
    s, q, u, v = 2.0, 0.5, 5.0, 5.0
    eps = 0.01
    N = 300
    spec = hs.periodic_spec([(q, v), (s, u)])
    r = padded(eps * random_disc(rng, N - 1))
    orbit = hs.perturbed_orbit(spec, 1.0, r, eps)
    w = orbit.values
    a, _ = coeffs_upto(spec, N)
    for m in range(2, N):
        residual = w[m + 1] - ((a[m] - 1) * w[m] + a[m - 1] * w[m - 1] + u + v)
        assert abs(residual - (r[m] + r[m - 1])) <= 1e-9 * (1 + abs(residual))
        assert abs(residual) <= 2 * eps * (1 + 1e-12)


def test_alternating_three_step_relations_as_printed():
    # the alternating orbit satisfies z_{2k+2} = 2 z_{2k-1} + 20 and
    # z_{2k+3} = z_{2k} / 2 + 25/2: three-step relations through single
    # hyperbolic maps
    traj = hs.iterate(hs.builtin_example("alternating_2_half"), 0.7 - 0.1j, 101)
    z = traj.values
    for k in range(1, 49):
        assert z[2 * k + 2] == pytest.approx(2 * z[2 * k - 1] + 20, rel=1e-12)
        assert z[2 * k + 3] == pytest.approx(0.5 * z[2 * k] + 12.5, rel=1e-12)


def test_csv_dumps():
    spec = hs.builtin_example("constant", a=0.5, b=1)
    orbit = hs.perturbed_orbit(spec, 1.0, padded(np.full(9, 0.01)), 0.01)
    res = hs.shadow_contracting(orbit, spec, hs.build_ledger(spec, 10))
    text = hs.dynamics.shadow_csv(res, orbit)
    lines = text.strip().split("\n")
    assert lines[0] == "n,re_z,im_z,re_w,im_w,abs_err,log10_abs_err"
    assert len(lines) == 11
    assert "np.float64" not in text
    t2 = hs.dynamics.trajectory_csv(res.trajectory)
    assert t2.startswith("n,re_z,im_z\n1,1.0,0.0")


def test_perturbation_budget_enforced():
    spec = hs.builtin_example("constant", a=1, b=0)
    with pytest.raises(ValueError):
        hs.perturbed_orbit(spec, 0.0, padded(np.full(9, 0.02)), 0.01)

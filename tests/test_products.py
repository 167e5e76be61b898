import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hustab as hs
from conftest import (
    balance_ratio,
    brute_partial_product,
    brute_reciprocal_sum,
    brute_tracking_sum,
    coeff_full,
    coeffs_upto,
    random_table_spec,
    subexponential_ratio,
)
from hustab.errors import IndexOutOfRange, InvalidSpec
from hustab.products import log_cumsum_exp, scaled_cumsum
from hustab.sequences import coeff_arrays
from hustab.witness import RECIP_CONVERGED_FRACTION, reciprocal_sum_converged


def test_alternating_product_magnitudes():
    led = hs.build_ledger(hs.builtin_example("alternating_2_half"), 200)
    for k in range(1, 100):
        assert math.exp(led.logmag[2 * k + 1]) == pytest.approx(1.0, rel=1e-12)
        assert math.exp(led.logmag[2 * k]) == pytest.approx(2.0, rel=1e-12)


def test_empty_product_is_one():
    spec = hs.builtin_example("constant", a=3, b=1)
    led = hs.build_ledger(spec, 10)
    a, _ = coeffs_upto(spec, 10)
    assert brute_partial_product(a, 5, 5) == 1.0 + 0.0j
    # p(m, k) = exp((L_m - L_k) + i (Theta_m - Theta_k)), empty at m = k
    assert led.logmag[5] - led.logmag[5] == 0.0
    assert led.phase[5] - led.phase[5] == 0.0
    assert led.logmag[1] == 0.0 and led.phase[1] == 0.0


def test_period3_cycle_magnitude_two_thirds():
    led = hs.build_ledger(hs.builtin_example("period3_2_i_third"), 10)
    assert math.exp(led.logmag[4]) == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_period3_single_step_is_i():
    led = hs.build_ledger(hs.builtin_example("period3_2_i_third"), 10)
    log_mag, phase = led.logmag[3] - led.logmag[2], led.phase[3] - led.phase[2]  # p(3, 2) = a_2
    assert log_mag == pytest.approx(0.0, abs=1e-14)
    assert phase == pytest.approx(math.pi / 2, abs=1e-14)
    assert np.exp(log_mag + 1j * phase) == pytest.approx(1j, abs=1e-12)


def test_constant2_eleventh_product_against_brute_force():
    spec = hs.builtin_example("constant", a=2, b=0)
    led = hs.build_ledger(spec, 12)
    a, _ = coeffs_upto(spec, 12)
    expect = brute_partial_product(a, 11, 1)  # repeated multiplication: 2^10
    assert expect == 1024 + 0j
    assert np.exp(led.logmag[11] + 1j * led.phase[11]) == pytest.approx(expect, rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    entries=st.lists(
        st.tuples(
            st.complex_numbers(min_magnitude=0.25, max_magnitude=4, allow_nan=False, allow_infinity=False),
            st.just(0j),
        ),
        min_size=1,
        max_size=7,
    ),
    m=st.integers(min_value=1, max_value=400),
    k=st.integers(min_value=1, max_value=400),
)
def test_quotient_identity_against_direct_log_sums(entries, m, k):
    k, m = min(k, m), max(k, m)
    spec = hs.periodic_spec(entries)
    led = hs.build_ledger(spec, 400)
    a, _ = coeffs_upto(spec, 400)
    direct = math.fsum(math.log(abs(a[j])) for j in range(k, m))
    assert abs((led.logmag[m] - led.logmag[k]) - direct) <= 1e-10


def test_recurrence_identity_linear_scale():
    rng = np.random.default_rng(3)
    from conftest import random_table_spec

    for spec in [
        hs.builtin_example("period3_2_i_third"),
        hs.builtin_example("alternating_2_half"),
        random_table_spec(rng, 200),
    ]:
        led = hs.build_ledger(spec, 200)
        a, _ = coeffs_upto(spec, 200)
        L, th = led.logmag, led.phase

        def p(m, k):  # p(m, k) from the ledger's prefix sums
            return np.exp((L[m] - L[k]) + 1j * (th[m] - th[k]))

        for k in range(1, 200, 13):
            for m in range(k, 200, 17):
                lhs = a[m] * p(m, k)
                rhs = p(m + 1, k)
                if 1e-300 < abs(rhs) < 1e300:
                    assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_tracking_sum_contracting_geometric():
    # The sums increase with n, so the supremum up to n is the n-th sum.
    spec = hs.builtin_example("constant", a=0.5, b=0)
    led = hs.build_ledger(spec, 2000)
    a, _ = coeffs_upto(spec, 60)
    for n in (1, 5, 50):
        sup = math.exp(hs.tracking_sum_max(led, n))
        assert sup == pytest.approx(brute_tracking_sum(a, n), rel=1e-12)
        assert sup < 2.0
    # at large n the sum saturates at its geometric limit 2, up to the
    # O(n ulp) prefix-accumulation error of the log ledger
    for n in (100, 2000):
        assert math.exp(hs.tracking_sum_max(led, n)) <= 2.0 * (1 + 1e-11)
    assert math.exp(hs.tracking_sum_max(led, 2000)) == pytest.approx(2.0, rel=1e-11)


def test_tracking_sum_constant2_n3():
    spec = hs.builtin_example("constant", a=2, b=0)
    led = hs.build_ledger(spec, 5)
    a, _ = coeffs_upto(spec, 5)
    assert brute_tracking_sum(a, 3) == 7.0  # 1 + 2 + 4
    assert math.exp(hs.tracking_sum_max(led, 3)) == pytest.approx(7.0, rel=1e-13)


def test_tracking_sum_period3_sup_below_16():
    spec = hs.builtin_example("period3_2_i_third")
    led = hs.build_ledger(spec, 10_000)
    sup = math.exp(hs.tracking_sum_max(led, 10_000))
    assert sup < 16.0
    assert sup == pytest.approx(12.0, rel=1e-9)
    # streamed maximum agrees with per-index evaluation over a window
    a, _ = coeffs_upto(spec, 300)
    direct = max(brute_tracking_sum(a, n) for n in range(1, 300))
    assert abs(sup - direct) <= 1e-9 * sup
    assert math.exp(hs.tracking_sum_max(led, 299)) == pytest.approx(direct, rel=1e-12)


def test_reciprocal_product_sum_cases():
    # sum_{j<n} 1 / |p(j, 1)| by direct products: the geometric limit 2 for
    # a = 2, n - 1 for a = 1, and 3/4 per index for alternating_2_half, whose
    # terms alternate 1 and 1/2. The witness's convergence test, which sums
    # in log space, decides as the direct sums do.
    const2 = hs.builtin_example("constant", a=2, b=0)
    const1 = hs.builtin_example("constant", a=1, b=0)
    alt = hs.builtin_example("alternating_2_half")
    a2, _ = coeffs_upto(const2, 300)
    s = brute_reciprocal_sum(a2, 300)
    assert s <= 2.0 * (1 + 1e-15)
    assert s == pytest.approx(math.fsum(0.5**j for j in range(299)), rel=1e-12)
    assert brute_reciprocal_sum(a2, 40) < 2.0
    a1, _ = coeffs_upto(const1, 300)
    for n in (2, 10, 300):
        assert brute_reciprocal_sum(a1, n) == float(n - 1)
    aa, _ = coeffs_upto(alt, 2001)
    s1 = brute_reciprocal_sum(aa, 1001)
    s2 = brute_reciprocal_sum(aa, 2001)
    assert (s2 - s1) / 1000 == pytest.approx(0.75, rel=1e-9)

    for spec, h, converged in ((const2, 299, True), (const1, 299, False), (alt, 2000, False), (alt, 1, True)):
        a, _ = coeffs_upto(spec, h + 1)
        full, half = brute_reciprocal_sum(a, h + 1), brute_reciprocal_sum(a, max(2, h // 2))
        assert (full - half <= RECIP_CONVERGED_FRACTION * full) is converged
        assert reciprocal_sum_converged(hs.build_ledger(spec, h)) is converged


def test_subexponential_ratio_reference_sequences():
    n = 400
    ones = np.ones(n)
    assert subexponential_ratio(ones, n) == pytest.approx(1.0 / (n - 1), rel=1e-12)
    lin = np.arange(1.0, n + 1)
    # closed-form partial sum oracle: sum_{j<n} j = n(n-1)/2
    assert subexponential_ratio(lin, n) == pytest.approx(n / (n * (n - 1) / 2.0), rel=1e-12)
    geo = 2.0 ** np.arange(1.0, 41.0)
    # geometric partial sum oracle: sum_{j<n} 2^j = 2^n - 2
    expect = 2.0**40 / (2.0**40 - 2.0)
    assert subexponential_ratio(geo, 40) == pytest.approx(expect, rel=1e-12)
    assert abs(subexponential_ratio(geo, 40) - 1.0) < 1e-9


def test_balance_ratio_reference_values():
    ones = np.ones(1000)
    assert balance_ratio(ones, 3.0, 4) == pytest.approx(81.0 / 39.0, rel=1e-12)
    # geometric-sum oracle: ratio = (K-1) / (1 - K^{1-n})
    for K in (1.5, 2.0, 4.0):
        expect = (K - 1.0) / (1.0 - K ** (1 - 200))
        assert balance_ratio(ones, K, 200) == pytest.approx(expect, rel=1e-12)
    geo = 2.0 ** np.arange(1.0, 31.0)
    # t_n = 2^n with K = 2: t_n K^n = 4^n, sum oracle gives 3 * 4^n / (4^n - 4)
    expect = 3.0 * 4.0**30 / (4.0**30 - 4.0)
    assert balance_ratio(geo, 2.0, 30) == pytest.approx(expect, rel=1e-12)
    assert balance_ratio(geo, 2.0, 30) == pytest.approx(3.0, rel=1e-6)


def test_ledger_reads_refuse_indices_past_the_horizon():
    led = hs.build_ledger(hs.builtin_example("constant", a=2, b=0), 10)
    with pytest.raises(IndexOutOfRange):
        hs.tracking_sum_max(led, 11)


def test_zero_coefficient_propagates_through_ledger():
    # The ledger reads log|a| alone, which is -inf exactly where a = 0.
    spec = hs.CoefficientSpec(kind="table", entries=((1 + 0j, 0j), (0j, 0j)), tail="repeat")
    with pytest.raises(InvalidSpec, match="a_2 = 0"):
        hs.build_ledger(spec, 5)
    cycle = hs.CoefficientSpec(kind="periodic", entries=np.array([(1 + 0j, 0j), (0j, 0j)]))
    with pytest.raises(InvalidSpec, match="a_2 = 0"):
        hs.build_ledger(cycle, 5)
    with pytest.raises(InvalidSpec, match="a_2 = 0"):
        hs.classify(cycle)


def test_classify_reads_L_alone_and_theta_is_built_on_first_read():
    N = 3000
    table = random_table_spec(np.random.default_rng(8), 500, tail="repeat")
    for spec in (hs.builtin_example("near_parabolic", alpha=0.25), hs.builtin_example("sparse3_squares"), table):
        led = hs.build_ledger(spec, N)
        hs.classify(spec, N, ledger=led)
        assert "phase" not in led.__dict__
    assert "_arg" not in table.__dict__
    cycle = hs.builtin_example("period3_2_i_third")
    hs.classify(cycle, N)
    assert "_arg" not in cycle.__dict__
    # Theta, built on its first read, is the sequential sum of the phases
    led = hs.build_ledger(table, 50)
    theta = np.cumsum([0.0] + [math.atan2(a.imag, a.real) for a in coeffs_upto(table, 50)[0][1:]])
    assert led.phase[1:].tolist() == theta.tolist()
    led = hs.build_ledger(cycle, 10)
    assert led.phase[3] - led.phase[2] == pytest.approx(math.pi / 2, abs=1e-14)
    assert "phase" in led.__dict__


def test_key_lemma_one_finite_horizon():
    n = 1000
    js = np.arange(1.0, n + 1)
    for t in (np.ones(n), js, js**2, np.sqrt(js), np.exp(np.sqrt(js))):
        assert subexponential_ratio(t, n) <= 0.05


def test_key_lemma_two_finite_horizon():
    n = 1000
    js = np.arange(1.0, n + 1)
    for t in (np.ones(n), js, 1.0 / js):
        for K in (1.5, 2.0, 4.0):
            assert abs(balance_ratio(t, K, n) - (K - 1.0)) <= 0.05 * (K - 1.0)


def test_scaled_cumsum_matches_direct_in_range():
    rng = np.random.default_rng(11)
    log_mag = rng.uniform(-3, 3, 900)
    phase = rng.uniform(-10, 10, 900)
    scale, mant = scaled_cumsum(log_mag, phase)
    direct = np.concatenate([[0], np.cumsum(np.exp(log_mag + 1j * phase))])
    got = np.exp(scale) * mant
    assert np.max(np.abs(got - direct)) <= 1e-10 * (1 + np.max(np.abs(direct)))


def test_scaled_cumsum_cut_rounds_the_head_once():
    # A head of 1e8, then 2000 terms below 1. Past a cut after the head,
    # each prefix is the block's own sum plus the head, rounded once, so
    # prefixes differ from the head by their own terms to one ulp of it;
    # summed straight through, the roundings against 1e8 accumulate.
    rng = np.random.default_rng(5)
    log_mag = np.concatenate([[math.log(1e8)], rng.uniform(-3.0, 0.0, 2000)])
    phase = np.concatenate([[0.0], rng.uniform(-4.0, 4.0, 2000)])
    terms = np.exp(log_mag + 1j * phase)
    exact = np.array([complex(math.fsum(terms[1:k].real), math.fsum(terms[1:k].imag)) for k in range(2, 2002)])
    ulp = np.spacing(1e8)
    scale, mant = scaled_cumsum(log_mag, phase, cuts=[1])
    prefixes = np.exp(scale) * mant
    assert np.max(np.abs(prefixes[2:] - prefixes[1] - exact)) <= 1.5 * ulp
    scale, mant = scaled_cumsum(log_mag, phase)
    straight = np.exp(scale) * mant
    assert np.max(np.abs(straight[2:] - straight[1] - exact)) > 4 * ulp
    assert np.max(np.abs(straight - prefixes)) <= 20 * ulp


def test_scaled_cumsum_far_outside_float_range():
    # terms growing like e^{2j}: prefixes reach e^{2000}, far beyond binary64
    j = np.arange(1, 1001)
    scale, mant = scaled_cumsum(2.0 * j.astype(float), np.zeros(1000))
    log_prefix = scale[-1] + math.log(abs(mant[-1]))
    # geometric oracle: log(sum e^{2j}) = 2000 + log(1/(1 - e^{-2})) approx
    expect = 2000.0 + math.log(1.0 / (1.0 - math.exp(-2.0)))
    assert log_prefix == pytest.approx(expect, abs=1e-9)


def test_scaled_cumsum_below_underflow():
    # terms e^{-2000 + j}: the first blocks lie wholly below e^-745 and
    # must not sum to zero
    j = np.arange(1000, dtype=float)
    scale, mant = scaled_cumsum(j - 2000.0, np.zeros(1000))
    log_prefix = scale[1:] + np.log(np.abs(mant[1:]))
    expect = (j - 2000.0) + np.log((1.0 - np.exp(-(j + 1.0))) / (1.0 - math.exp(-1.0)))
    assert np.max(np.abs(log_prefix - expect)) <= 1e-9


def test_ledger_sums_coeff_full_logs_exactly():
    # The vectorized ledger must equal the sequential sums of the per-index
    # logs and phases bit for bit: L_{n+1} = L_n + log|a_n| with == . The
    # ledger holds no a or b; the two-column read must match coeff_full.
    rng = np.random.default_rng(5)
    N = 5000
    specs = [hs.builtin_example(name) for name in hs.BUILTIN_NAMES]
    specs += [
        hs.builtin_example("near_parabolic", alpha=1 / 3),
        hs.periodic_spec(zip(np.exp(rng.normal(0, 1, 7) + 2j * np.pi * rng.uniform(0, 1, 7)), np.ones(7))),
        random_table_spec(rng, 700, tail="repeat"),
    ]
    for spec in specs:
        led = hs.build_ledger(spec, N)
        assert led.logmag[1] == 0.0 and led.phase[1] == 0.0
        a_col, b_col = coeff_arrays(spec, np.arange(1, N + 1), "a", "b")
        for n in range(1, N + 1):
            a, b, log_mag, angle = coeff_full(spec, n)
            assert (a_col[n - 1], b_col[n - 1]) == (a, b)
            assert led.logmag[n + 1] == led.logmag[n] + log_mag
            assert led.phase[n + 1] == led.phase[n] + angle


def test_scaled_cumsum_splits_blocks_wider_than_underflow():
    # log-magnitudes rising by 10 per term span 2550 within one block of
    # 256: every prefix is dominated by its last term and must stay nonzero.
    j = np.arange(1000, dtype=float)
    scale, mant = scaled_cumsum(10.0 * j - 5000.0, np.zeros(1000))
    log_prefix = scale[1:] + np.log(np.abs(mant[1:]))
    expect = (10.0 * j - 5000.0) + np.log((1.0 - np.exp(-10.0 * (j + 1.0))) / (1.0 - math.exp(-10.0)))
    assert np.max(np.abs(log_prefix - expect)) <= 1e-9


def test_scaled_cumsum_nan_terms_end_the_scan():
    # A NaN coefficient makes every later log-magnitude NaN; NaN never
    # counts as a rise, so block splitting still ends.
    lm = np.concatenate([10.0 * np.arange(300.0), np.full(300, np.nan)])
    scale, mant = scaled_cumsum(lm, np.zeros(600))
    assert len(scale) == len(mant) == 601
    assert np.all(np.isfinite(mant[1:301]))


def _rise_blocks(log_mag):
    """Blocks by the rule, counted naively: one starts at the first term and
    wherever the running maximum (NaN skipped) passes the level at the
    current block's start by more than 700."""
    blocks, level, run = 0, None, -math.inf
    for v in log_mag:
        if not math.isnan(v):
            run = max(run, v)
        if level is None or run > level + 700.0:
            blocks, level = blocks + 1, run
    return blocks


def test_scaled_cumsum_one_block_per_700_of_rise():
    # Each block is carried at its own scale, so distinct scales count blocks.
    rng = np.random.default_rng(21)
    flat = rng.uniform(-300.0, 300.0, 5000)  # never 700 above its start
    scale, _ = scaled_cumsum(flat, rng.uniform(-4.0, 4.0, 5000))
    assert np.unique(scale[1:]).size == 1
    walk = np.cumsum(rng.normal(1.5, 4.0, 5000))  # rises about 7500 in all
    scale, mant = scaled_cumsum(walk, np.zeros(5000))
    assert np.unique(scale[1:]).size == _rise_blocks(walk) >= 10
    # no prefix's largest term lies more than 700 below its block's scale
    assert np.all(np.maximum.accumulate(walk) - scale[1:] >= -700.0)
    assert np.all(mant[1:] != 0)


def test_scaled_cumsum_leading_zero_and_nan_terms():
    rng = np.random.default_rng(22)
    lm, ph = rng.uniform(-5.0, 5.0, 400), rng.uniform(-3.0, 3.0, 400)
    direct = np.cumsum(np.exp(lm + 1j * ph))
    scale, mant = scaled_cumsum(np.concatenate([np.full(50, -np.inf), lm]), np.concatenate([np.zeros(50), ph]))
    assert np.all(scale[:51] == 0.0) and np.all(mant[:51] == 0.0)
    got = np.exp(scale[51:]) * mant[51:]
    assert np.max(np.abs(got - direct)) <= 1e-12 * np.sum(np.exp(lm))
    # a leading NaN term neither splits blocks nor stops the scan; every
    # prefix holding it is NaN
    lm_nan = np.concatenate([[np.nan, -np.inf], 10.0 * np.arange(400.0)])
    scale, mant = scaled_cumsum(lm_nan, np.zeros(402))
    assert len(scale) == len(mant) == 403
    assert np.all(np.isnan(mant[1:]))
    assert np.unique(scale[3:]).size == _rise_blocks(lm_nan[2:])


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_scaled_cumsum_matches_mpmath_across_rises(seed):
    # A random walk rising about 4800 over 600 terms, falling by hundreds
    # in places, against an exact log-sum-exp. Each prefix may err by
    # rounding relative to the sum of its terms' moduli.
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(seed)
    lm = np.cumsum(rng.normal(8.0, 30.0, 600))
    ph = rng.uniform(-math.pi, math.pi, 600)
    scale, mant = scaled_cumsum(lm, ph)
    assert np.unique(scale[1:]).size == _rise_blocks(lm)
    with mpmath.workdps(40):
        exact, mass = mpmath.mpc(0), mpmath.mpf(0)
        for k in range(600):
            exact += mpmath.exp(mpmath.mpc(lm[k], ph[k]))
            mass += mpmath.exp(lm[k])
            got = mpmath.exp(scale[k + 1]) * mpmath.mpc(mant[k + 1])
            assert abs(got - exact) <= 1e-12 * mass


def _mpmath_log_cumsum_exp(x, carry=-math.inf):
    """log(exp(carry) + sum_{i<=k} exp(x_i)) for every k, summed exactly
    enough in mpmath."""
    mpmath = pytest.importorskip("mpmath")
    out = []
    with mpmath.workprec(160):
        total = mpmath.exp(carry) if carry > -math.inf else mpmath.mpf(0)
        for v in x.tolist():
            total += mpmath.exp(v)
            out.append(float(mpmath.log(total)))
    return np.array(out)


def _assert_log_sums_exact(x, carry=-math.inf):
    ref = _mpmath_log_cumsum_exp(x, carry)
    got = log_cumsum_exp(x.copy(), carry)
    assert np.all(np.abs(got - ref) <= 1e-13 + 8 * np.spacing(np.abs(ref)))


# The kernel sums chunks of 256 terms, each at its own maximum; a chunk
# whose first term and carry both lie more than 500 below that maximum is
# redone in pieces of 16 and, where those rise as fast, single terms.
_SEGMENTS = st.lists(
    st.tuples(st.sampled_from(["flat", "walk", "ramp", "cliff"]), st.integers(1, 300)),
    min_size=1, max_size=6,
)


# A carry is none, near the first term, or about 700 above or below it:
# below, a first chunk that climbs past it is redone from the carry.
_CARRY_OFFSETS = st.one_of(
    st.just(-math.inf), st.floats(-60.0, 60.0), st.floats(-750.0, -650.0), st.floats(650.0, 750.0),
)


@settings(max_examples=40, deadline=None)
@given(segments=_SEGMENTS, start=st.floats(-1e4, 1e4), seed=st.integers(0, 2**32 - 1), offset=_CARRY_OFFSETS)
@example(segments=[("cliff", 300)], start=0.0, seed=1, offset=-math.inf)  # every piece of 16 split to single terms
@example(segments=[("cliff", 300)], start=0.0, seed=1, offset=-700.0)  # the same, after a carry
@example(segments=[("ramp", 1)], start=3.0, seed=0, offset=-math.inf)
@example(segments=[("walk", 55), ("flat", 27), ("cliff", 1)], start=43.0, seed=0, offset=-math.inf)  # a short chunk, in pieces of 16
@example(segments=[("walk", 236)], start=0.0, seed=108, offset=0.0)  # a prefix and its carry 530 below the maximum
def test_log_cumsum_exp_matches_mpmath(segments, start, seed, offset):
    # Runs of constant terms, random walks, steady ramps of up to 60 per
    # term, and cliffs of 700 to 709 per term either way, in any order,
    # after a carry offset from the first term.
    rng = np.random.default_rng(seed)
    steps = []
    for kind, n in segments:
        if kind == "flat":
            steps.append(np.zeros(n))
        elif kind == "walk":
            steps.append(rng.normal(0.0, rng.uniform(0.1, 20.0), n))
        elif kind == "ramp":
            steps.append(np.full(n, rng.uniform(-60.0, 60.0)))
        else:
            steps.append(rng.choice([-1.0, 1.0], n) * rng.uniform(700.0, 709.0, n))
    x = start + np.cumsum(np.concatenate(steps))
    _assert_log_sums_exact(x, x[0] + offset)


@pytest.mark.parametrize("n", [512, 600, 1000])
def test_log_cumsum_exp_redoes_a_chunk_rising_past_its_carry(n):
    # 256 terms of -5 make a carry of about 0.5. The next chunk climbs from
    # -900 to 800, so its early prefixes, about 0.5, lie e^-800 below the
    # chunk's maximum: summed at that maximum they would be lost, and the
    # chunk is redone in pieces. A steep fall follows.
    x = np.full(n, -5.0)
    x[256:512] = np.linspace(-900.0, 800.0, 256)
    x[512:] = np.linspace(790.0, -2000.0, n - 512)
    _assert_log_sums_exact(x)
    # A climb of 5.5 per term opening the array, with no carry at all.
    _assert_log_sums_exact(np.linspace(-2000.0, 800.0, n))


def test_log_cumsum_exp_works_in_place():
    x = np.log(np.arange(1.0, 1001.0))
    y = log_cumsum_exp(x)
    assert y is x
    assert np.allclose(np.exp(y), np.cumsum(np.arange(1.0, 1001.0)), rtol=1e-13)
    with pytest.raises(ValueError, match="contiguous"):
        log_cumsum_exp(np.zeros(600)[::-1])

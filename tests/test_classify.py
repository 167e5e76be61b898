import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hustab as hs
from conftest import brute_series_envelope, brute_tracking_sum, coeff_at, coeffs_upto, random_table_spec
from hustab.classify import (
    EXPANDING_CRITERIA,
    STABLE,
    UNDETERMINED,
    UNSTABLE,
    HorizonConfig,
    log_series_envelope,
)
from hustab.errors import IndexOutOfRange


def test_period3_stable_with_constant_below_16():
    v = hs.classify_periodic(hs.builtin_example("period3_2_i_third"))
    assert v.status == STABLE
    assert v.criterion == "periodic_contracting"
    assert v.constant < 16.0
    assert not v.finite_horizon


def test_alternating_unimodular_cycle_unstable():
    v = hs.classify_periodic(hs.builtin_example("alternating_2_half"))
    assert v.status == UNSTABLE
    assert v.criterion == "bounded_products"


def test_sparse3_periodic_expanding():
    for p in (1, 2, 4):
        v = hs.classify_periodic(hs.builtin_example("sparse3_periodic", p=p))
        assert v.status == STABLE
        assert v.criterion == "periodic_expanding"
        # reciprocals 1, ..., 1, 1/3: the series envelope starts after the 3,
        # (p - 1 + 1/3) / (1 - 1/3) = 1.5 p - 1
        assert v.constant == pytest.approx(1.5 * p - 1.0, rel=1e-12)


def test_constant_trichotomy():
    cases = [
        (0.5, STABLE, "periodic_contracting"),
        (2.0, STABLE, "periodic_expanding"),
        (1.0, UNSTABLE, "bounded_products"),
        (1j, UNSTABLE, "bounded_products"),
        (-1.0, UNSTABLE, "bounded_products"),
    ]
    for a, status, criterion in cases:
        v = hs.classify_periodic(hs.builtin_example("constant", a=a, b=3))
        assert (v.status, v.criterion) == (status, criterion)


def test_classify_periodic_rejects_formula_specs():
    with pytest.raises(ValueError, match="exact cycle classification needs constant or periodic"):
        hs.classify_periodic(hs.builtin_example("sparse3_squares"))


def test_numeric_near_parabolic_subexponential():
    for alpha in (0.0, 1 / 3):
        spec = hs.builtin_example("near_parabolic", alpha=alpha)
        v = hs.classify(spec)
        assert v.status == UNSTABLE
        assert v.criterion == "geomean_subexponential"
        assert v.finite_horizon


def test_numeric_sparse3_squares_subexponential():
    v = hs.classify(hs.builtin_example("sparse3_squares"))
    assert v.status == UNSTABLE
    assert v.criterion == "geomean_subexponential"


def test_numeric_constant_expanding_constant_value():
    # table copy of constant 2 forces the numeric path; the series envelope
    # sum_{k>m} 2^{m-k} up to the horizon is 1 - 2^{-N}
    spec = hs.table_spec([(2.0, 5.0)], tail="repeat")
    cfg = HorizonConfig(N=10_000)
    led = hs.build_ledger(spec, cfg.N)
    v = hs.classify_numeric(spec, led, cfg)
    assert v.status == STABLE
    assert v.criterion == "geomean_expanding"
    assert v.constant == pytest.approx(1.0, rel=1e-12)
    assert v.finite_horizon and v.horizon == 10_000


def test_numeric_constant_contracting_constant_value():
    spec = hs.table_spec([(0.5, 5.0)], tail="repeat")
    cfg = HorizonConfig(N=4000)
    led = hs.build_ledger(spec, cfg.N)
    v = hs.classify_numeric(spec, led, cfg)
    assert v.status == STABLE
    assert v.criterion == "geomean_contracting"
    assert v.constant == pytest.approx(2.0, rel=1e-6)


def test_periodic_and_numeric_agree_on_builtins():
    cfg = HorizonConfig(N=10_000)
    specs = [
        hs.builtin_example("alternating_2_half"),
        hs.builtin_example("period3_2_i_third"),
        hs.builtin_example("constant", a=0.5, b=5),
        hs.builtin_example("constant", a=2, b=5),
        hs.builtin_example("constant", a=1j, b=5),
    ] + [hs.builtin_example("sparse3_periodic", p=p) for p in (1, 2, 3, 5, 7)]
    for spec in specs:
        exact = hs.classify_periodic(spec, cfg)
        # rebuild as an aperiodic-looking table so the numeric path runs
        table = hs.table_spec(
            [coeff_at(spec, n) for n in range(1, cfg.N + 2)], tail="error"
        )
        led = hs.build_ledger(table, cfg.N)
        numeric = hs.classify_numeric(table, led, cfg)
        assert numeric.status == exact.status, spec


def test_verdicts_ignore_b_values():
    base = hs.builtin_example("period3_2_i_third")
    moved = hs.periodic_spec([(a, b + 17j - 3) for a, b in base.entries])
    v0, v1 = hs.classify_periodic(base), hs.classify_periodic(moved)
    assert (v0.status, v0.criterion, v0.constant) == (v1.status, v1.criterion, v1.constant)

    spec = hs.builtin_example("sparse3_squares")
    led = hs.build_ledger(spec, 10_000)
    v2 = hs.classify_numeric(spec, led)
    # b never enters the ledger's log-magnitude accumulators
    assert v2.criterion == "geomean_subexponential"


@settings(max_examples=25, deadline=None)
@given(
    entries=st.lists(
        st.tuples(
            st.complex_numbers(min_magnitude=0.3, max_magnitude=3, allow_nan=False, allow_infinity=False),
            st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False),
        ),
        min_size=1,
        max_size=6,
    ),
    angle=st.floats(min_value=0.0, max_value=6.28),
)
def test_verdicts_ignore_phase_rotations(entries, angle):
    spec = hs.periodic_spec(entries)
    rot = complex(math.cos(angle), math.sin(angle))
    rotated = hs.periodic_spec([(a * rot, b) for a, b in entries])
    v0, v1 = hs.classify_periodic(spec), hs.classify_periodic(rotated)
    assert v0.status == v1.status
    assert v0.criterion == v1.criterion
    if v0.constant is not None:
        assert v1.constant == pytest.approx(v0.constant, rel=1e-6)


@settings(max_examples=25, deadline=None)
@given(
    entries=st.lists(
        st.tuples(
            st.complex_numbers(min_magnitude=0.3, max_magnitude=3, allow_nan=False, allow_infinity=False),
            st.just(0j),
        ),
        min_size=1,
        max_size=6,
    ),
    s=st.floats(min_value=1.0001, max_value=4.0),
)
def test_upward_scaling_never_turns_expanding_into_contracting(entries, s):
    base = hs.classify_periodic(hs.periodic_spec(entries))
    scaled = hs.classify_periodic(hs.periodic_spec([(a * s, b) for a, b in entries]))
    if base.criterion == "periodic_expanding":
        assert scaled.criterion == "periodic_expanding"


def test_linear_growth_products_branch():
    # a_n = sqrt(n / (n+1)) telescopes to |p(n, 1)| = n^{-1/2}: products stay
    # bounded while n |p(n, 1)| = sqrt(n) diverges
    n = 1000
    pairs = [(math.sqrt(j / (j + 1.0)), 1.0) for j in range(1, n + 1)]
    spec = hs.table_spec(pairs, tail="repeat")
    cfg = HorizonConfig(N=n, window=0.99, band=0.005)
    led = hs.build_ledger(spec, n)
    v = hs.classify_numeric(spec, led, cfg)
    assert v.status == UNSTABLE
    assert v.criterion == "linear_growth_products"
    assert v.estimates["log_sup_abs_p"] <= 0.0
    assert v.estimates["decay_slope_vs_log_n"] == pytest.approx(0.5, abs=0.05)


def _oscillating_spec(n):
    # alternating power-of-two blocks of 2s then 1/2s: L_n swings between 0
    # and large positive values, so no single growth regime fits
    a = np.ones(n)
    k = 1
    while 2**k < n:
        lo, mid, hi = 2**k, min(3 * 2 ** (k - 1), n), min(2 ** (k + 1), n)
        a[lo - 1 : mid - 1] = 2.0
        a[mid - 1 : hi - 1] = 0.5
        k += 1
    return hs.table_spec([(x, 1.0) for x in a], tail="repeat")


def test_undetermined_for_oscillating_geometry():
    n = 1024
    spec = _oscillating_spec(n)
    cfg = HorizonConfig(N=n)
    led = hs.build_ledger(spec, n)
    v = hs.classify_numeric(spec, led, cfg)
    assert v.status == UNDETERMINED
    assert v.criterion is None
    assert v.constant is None


def test_horizon_too_small():
    spec = hs.builtin_example("sparse3_squares")
    led = hs.build_ledger(spec, 100)
    with pytest.raises(IndexOutOfRange, match="ledger horizon 100 < configured N 1000"):
        hs.classify_numeric(spec, led, HorizonConfig(N=1000))


def test_tracking_constant_values():
    cfg = HorizonConfig(N=2000)
    assert hs.classify(hs.builtin_example("constant", a=0.5, b=5), cfg).constant == pytest.approx(2.0, rel=1e-12)
    # forward-tail oracle: sum_{j>=1} 3^{-j} = 1/2
    assert hs.classify(hs.builtin_example("constant", a=3, b=5), cfg).constant == pytest.approx(0.5, rel=1e-12)
    c = hs.classify(hs.builtin_example("period3_2_i_third"), cfg).constant
    assert c < 16.0
    assert c == pytest.approx(12.0, rel=1e-12)
    # the same sequences through the numeric path, as tables
    for a, expect in ((0.5, 2.0), (3.0, 0.5)):
        v = hs.classify(hs.table_spec([(a, 5.0)], tail="repeat"), cfg)
        assert v.constant == pytest.approx(expect, rel=1e-12)
        assert v.log_constant == pytest.approx(math.log(expect), abs=1e-12)


def test_tracking_constant_requires_stable():
    v = hs.classify(hs.builtin_example("alternating_2_half"), HorizonConfig(N=100))
    assert v.status == UNSTABLE
    assert v.constant is None and v.log_constant is None
    fields = dict(criterion=None, estimates={}, finite_horizon=False, horizon=None)
    with pytest.raises(ValueError):
        hs.StabilityVerdict(status=UNSTABLE, log_constant=0.0, **fields)
    for bad in (None, math.inf, math.nan):
        with pytest.raises(ValueError):
            hs.StabilityVerdict(status=STABLE, log_constant=bad, **fields)


def test_verdict_json_schema():
    v = hs.classify(hs.builtin_example("sparse3_squares"))
    doc = json.loads(json.dumps(v.to_json()))
    assert set(doc) == {
        "status", "criterion", "constant", "estimates",
        "finite_horizon", "horizon", "config",
    }
    assert doc["config"] == {"N": 10_000, "window": 0.5, "band": 0.02}
    assert doc["status"] == "Unstable"

    v2 = hs.classify(hs.builtin_example("constant", a=0.5, b=0))
    doc2 = v2.to_json()
    assert doc2["constant"] == 2.0
    assert doc2["finite_horizon"] is False


def test_config_validation():
    with pytest.raises(ValueError):
        HorizonConfig(N=1)
    with pytest.raises(ValueError):
        HorizonConfig(window=0.0)
    for band in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError):
            HorizonConfig(band=band)


# Each Stable constant is the exact error envelope of the shadow its verdict
# names. A table of 60 entries a = 0.5, then a = 3 repeating, has the series
# envelope sum_{k=2}^{61} 2^{k-1} + 2^60 sum_{j>=1} 3^{-j} at m = 1, whatever
# the horizon past the run.
_RUN_TABLE = hs.table_spec([(0.5, 1.0)] * 60 + [(3.0, 1.0)], tail="repeat")


@pytest.mark.parametrize("spec, N, expect", [
    (hs.builtin_example("sparse3_periodic", p=3), 200, 3.5),
    (hs.periodic_spec([(0.5, 1.0), (8.0, 1.0)]), 200, 3.0),
    (hs.builtin_example("constant", a=2, b=5), 200, 1.0),
    (_RUN_TABLE, 200, 2.0**61 + 2.0**59 - 2.0),
    (_RUN_TABLE, 2000, 2.0**61 + 2.0**59 - 2.0),
])
def test_stable_constants_are_exact_envelopes(spec, N, expect):
    v = hs.classify(spec, HorizonConfig(N=N))
    assert v.status == STABLE
    assert v.constant == pytest.approx(expect, rel=1e-12)


def _phase_aligned_shadow(spec, N, eps):
    """The verdict, and the log of the sup error its own shadow construction
    makes against r_j = eps p(j+1, 1) / |p(j+1, 1)|."""
    led = hs.build_ledger(spec, N)
    v = hs.classify(spec, HorizonConfig(N=N), ledger=led)
    if v.status != STABLE:
        return v, None
    r = hs.realize_plan(hs.PerturbationPlan(variant="phase_aligned", epsilon=eps), led, N)
    orbit = hs.perturbed_orbit(spec, 0.3 - 0.1j, r, eps)
    if v.criterion in EXPANDING_CRITERIA:
        res = hs.shadow_expanding(orbit, spec, led, tail_tol=math.inf)
    else:
        res = hs.shadow_contracting(orbit, spec, led)
    return v, float(np.nanmax(res.log10_errors)) * math.log(10.0)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["cycle", "table"]),
       sign=st.sampled_from([-1.0, 1.0]), N=st.integers(400, 2000))
def test_phase_aligned_adversary_meets_the_constant(seed, kind, sign, N):
    # The constant bounds what the phase-aligned adversary makes its shadow
    # do, and on a cycle it is attained once the geometric tail past the
    # horizon, exp(-|log q| (N / p - 2)), has died out.
    rng = np.random.default_rng(seed)
    eps = 0.01
    if kind == "cycle":
        p = int(rng.integers(1, 6))
        logs = rng.uniform(-0.5, 0.5, p)
        log_q = sign * rng.uniform(0.2, 1.0)
        logs += (log_q - logs.sum()) / p
        tail = math.exp(-abs(log_q) * (N / p - 2))
    else:
        n = int(rng.integers(10, N // 2))
        logs = rng.uniform(-1.0, 1.0, n) + sign * rng.uniform(0.05, 0.5)
        logs[-1] = sign * rng.uniform(0.05, 0.5)  # the repeated tail keeps the drift's sign
        tail = math.inf
    a = np.exp(logs + 2j * np.pi * rng.uniform(0, 1, len(logs)))
    pairs = list(zip(a, rng.uniform(-1, 1, len(logs))))
    spec = hs.periodic_spec(pairs) if kind == "cycle" else hs.table_spec(pairs, tail="repeat")
    v, log_sup = _phase_aligned_shadow(spec, N, eps)
    assume(v.status == STABLE)
    log_bound = v.log_constant + math.log(eps)
    assert log_sup <= log_bound + math.log1p(1e-9)
    if tail < 1e-12:
        assert log_sup >= log_bound + math.log1p(-1e-9)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60), N=st.integers(1, 120))
def test_horizon_envelopes_match_mpmath_on_wide_tables(seed, n, N):
    # |a| log-uniform in [1e-3, 1e3], so the products swing far past float
    # range. The ledger sums up to N + 1 rounded logs, which may move each
    # log-domain result by 2 (N + 1) ulp of the sum of their moduli.
    mpmath = pytest.importorskip("mpmath")
    spec = random_table_spec(np.random.default_rng(seed), n, amin=1e-3, amax=1e3)
    led = hs.build_ledger(spec, N)
    a, _ = coeffs_upto(spec, N + 1)
    mods = [mpmath.mpf(abs(complex(x))) for x in a[1:]]
    slack = 2 * (N + 1) * 2.0**-52 * math.fsum(abs(math.log(abs(x))) for x in a[1:])
    with mpmath.workprec(200):
        track = max(brute_tracking_sum([None, *mods], k) for k in range(1, N + 1))
        expect = {"track": float(mpmath.log(track)), "env": float(mpmath.log(brute_series_envelope(a, N)))}
    got = {"track": hs.tracking_sum_max(led, N), "env": log_series_envelope(led, N)}
    for key, ref in expect.items():
        assert abs(got[key] - ref) <= 1e-13 + 8 * np.spacing(abs(ref)) + slack, key


@pytest.mark.skipif(np.finfo(np.longdouble).nmant <= 52, reason="long double is binary64 here")
@pytest.mark.parametrize("name", ["near_parabolic", "sparse3_squares"])
def test_horizon_envelopes_at_1e6_against_long_double(name):
    # The tracking supremum and the series envelope over the ledger's own L,
    # against both summed in long double: |L| stays below 1100, so no term
    # of exp(-L) leaves its range. Summed at the chunk maxima they are
    # within 8.6e-14; a running logaddexp, rounding once per term, missed
    # the near_parabolic supremum by 6.5e-13 and the sparse3_squares
    # envelope by 1.7e-12.
    N = 10**6
    led = hs.build_ledger(hs.builtin_example(name), N)
    L = led.logmag.astype(np.longdouble)
    assert np.max(np.abs(L[1:])) < 1100
    recip = np.exp(-L[2 : N + 2])  # slot j - 2: 1 / |p(j, 1)|
    track = np.max(L[2 : N + 2] + np.log(np.cumsum(recip)))
    env = np.max(L[1 : N + 1] + np.log(np.cumsum(recip[::-1])[::-1]))
    for got, ref in ((hs.tracking_sum_max(led, N), track), (log_series_envelope(led, N), env)):
        ref = float(ref)
        assert abs(got - ref) <= 2e-13 + 8 * np.spacing(abs(ref))

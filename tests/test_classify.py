import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hustab as hs
from conftest import (
    brute_horizon_sups,
    brute_series_envelope,
    brute_tracking_sum,
    coeff_at,
    coeffs_upto,
    random_table_spec,
)
from hustab.classify import (
    BAND,
    EXPANDING_CRITERIA,
    STABLE,
    UNDETERMINED,
    UNSTABLE,
)
from hustab.products import log_series_envelope


def test_period3_stable_with_constant_below_16():
    v = hs.classify_periodic(hs.builtin_example("period3_2_i_third"), 10_000)
    assert v.status == STABLE
    assert v.criterion == "periodic_contracting"
    assert v.constant < 16.0
    assert not v.finite_horizon


def test_alternating_unimodular_cycle_unstable():
    v = hs.classify_periodic(hs.builtin_example("alternating_2_half"), 10_000)
    assert v.status == UNSTABLE
    assert v.criterion == "bounded_products"


def test_sparse3_periodic_expanding():
    for p in (1, 2, 4):
        v = hs.classify_periodic(hs.builtin_example("sparse3_periodic", p=p), 10_000)
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
        v = hs.classify_periodic(hs.builtin_example("constant", a=a, b=3), 10_000)
        assert (v.status, v.criterion) == (status, criterion)


def test_classify_periodic_rejects_formula_specs():
    with pytest.raises(ValueError, match="exact cycle classification needs constant or periodic"):
        hs.classify_periodic(hs.builtin_example("sparse3_squares"), 10_000)


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
    # the numeric path, called on a table copy of constant 2: the series
    # envelope sum_{k>m} 2^{m-k} up to the horizon is 1 - 2^{-N}
    spec = hs.table_spec([(2.0, 5.0)], tail="repeat")
    v = hs.classify_numeric(hs.build_ledger(spec, 10_000))
    assert v.status == STABLE
    assert v.criterion == "geomean_expanding"
    assert v.constant == pytest.approx(1.0, rel=1e-12)
    assert v.finite_horizon and v.horizon == 10_000


def test_numeric_constant_contracting_constant_value():
    spec = hs.table_spec([(0.5, 5.0)], tail="repeat")
    v = hs.classify_numeric(hs.build_ledger(spec, 4000))
    assert v.status == STABLE
    assert v.criterion == "geomean_contracting"
    assert v.constant == pytest.approx(2.0, rel=1e-6)


def test_periodic_and_numeric_agree_on_builtins():
    N = 10_000
    specs = [
        hs.builtin_example("alternating_2_half"),
        hs.builtin_example("period3_2_i_third"),
        hs.builtin_example("constant", a=0.5, b=5),
        hs.builtin_example("constant", a=2, b=5),
        hs.builtin_example("constant", a=1j, b=5),
    ] + [hs.builtin_example("sparse3_periodic", p=p) for p in (1, 2, 3, 5, 7)]
    for spec in specs:
        exact = hs.classify_periodic(spec, N)
        # rebuild as an aperiodic-looking table so the numeric path runs
        table = hs.table_spec(
            [coeff_at(spec, n) for n in range(1, N + 2)], tail="error"
        )
        numeric = hs.classify_numeric(hs.build_ledger(table, N))
        assert numeric.status == exact.status, spec


def test_verdicts_ignore_b_values():
    base = hs.builtin_example("period3_2_i_third")
    moved = hs.periodic_spec([(a, b + 17j - 3) for a, b in base.entries])
    v0, v1 = hs.classify_periodic(base, 10_000), hs.classify_periodic(moved, 10_000)
    assert (v0.status, v0.criterion, v0.constant) == (v1.status, v1.criterion, v1.constant)

    spec = hs.builtin_example("sparse3_squares")
    led = hs.build_ledger(spec, 10_000)
    v2 = hs.classify_numeric(led)
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
    v0, v1 = hs.classify_periodic(spec, 10_000), hs.classify_periodic(rotated, 10_000)
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
    base = hs.classify_periodic(hs.periodic_spec(entries), 10_000)
    scaled = hs.classify_periodic(hs.periodic_spec([(a * s, b) for a, b in entries]), 10_000)
    if base.criterion == "periodic_expanding":
        assert scaled.criterion == "periodic_expanding"


def test_linear_growth_products_branch():
    # a_n = sqrt(n / (n+1)) telescopes to |p(n, 1)| = n^{-1/2}: products stay
    # bounded while n |p(n, 1)| = sqrt(n) diverges. At N = 150 the windowed
    # L_n / n lies across -BAND, so neither the geometric-mean branches nor
    # the subexponential one decide, and the slope of L_n against -log n does.
    n = 150
    pairs = [(math.sqrt(j / (j + 1.0)), 1.0) for j in range(1, n + 1)]
    v = hs.classify(hs.table_spec(pairs, tail="error"), n)
    assert v.estimates["geomean_window_min"] < -BAND < v.estimates["geomean_window_max"]
    assert v.status == UNSTABLE
    assert v.criterion == "linear_growth_products"
    assert v.estimates["log_sup_abs_p"] <= 0.0
    assert v.estimates["decay_slope_vs_log_n"] == pytest.approx(0.5, abs=1e-9)


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
    v = hs.classify_numeric(hs.build_ledger(_oscillating_spec(n), n))
    assert v.status == UNDETERMINED
    assert v.criterion is None
    assert v.constant is None


def test_horizon_too_small():
    # classify reuses a given ledger only at its own horizon; a shorter or a
    # longer one is rebuilt, and the numeric verdict reads its ledger's.
    spec = hs.builtin_example("sparse3_squares")
    for other in (100, 2000):
        v = hs.classify(spec, 1000, ledger=hs.build_ledger(spec, other))
        assert v.horizon == 1000
        assert v.to_json() == hs.classify(spec, 1000).to_json()
    assert hs.classify_numeric(hs.build_ledger(spec, 100)).horizon == 100


def test_numeric_verdict_refuses_a_horizon_1_ledger():
    # The windowed L_n / n starts at n = 2: a ledger of one index has none.
    ledger = hs.build_ledger(hs.builtin_example("sparse3_squares"), 1)
    with pytest.raises(hs.errors.IndexOutOfRange, match=r"^horizon must be >= 2, got 1$"):
        hs.classify_numeric(ledger)
    assert hs.classify_numeric(hs.build_ledger(hs.builtin_example("sparse3_squares"), 2)).horizon == 2


def test_tracking_constant_values():
    N = 2000
    assert hs.classify(hs.builtin_example("constant", a=0.5, b=5), N).constant == pytest.approx(2.0, rel=1e-12)
    # forward-tail oracle: sum_{j>=1} 3^{-j} = 1/2
    assert hs.classify(hs.builtin_example("constant", a=3, b=5), N).constant == pytest.approx(0.5, rel=1e-12)
    c = hs.classify(hs.builtin_example("period3_2_i_third"), N).constant
    assert c < 16.0
    assert c == pytest.approx(12.0, rel=1e-12)
    # the same sequences as repeat-tail tables: a prefix plus a cycle of one
    for a, expect in ((0.5, 2.0), (3.0, 0.5)):
        v = hs.classify(hs.table_spec([(a, 5.0)], tail="repeat"), N)
        assert v.constant == pytest.approx(expect, rel=1e-12)
        assert v.log_constant == pytest.approx(math.log(expect), abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 12))
def test_pure_contracting_cycle_constant_is_its_limits(seed, k):
    # With no prefix each residue class of tracking sums rises from T_0 = 0
    # to its limit, so no sum within the first cycle exceeds the constant,
    # and taking those sums in too, as a cycle with a prefix must, would
    # leave every bit of it as it is.
    rng = np.random.default_rng(seed)
    logs = rng.uniform(-1.0, 1.0, k)
    logs += (-(10.0 ** rng.uniform(-8.0, 0.0)) - logs.sum()) / k
    a = np.exp(logs + 2j * np.pi * rng.uniform(0.0, 1.0, k))
    spec = hs.periodic_spec([(x, 1.0) for x in a])
    v = hs.classify(spec)
    assert v.criterion == "periodic_contracting"
    assert hs.tracking_sum_max(hs.build_ledger(spec, k), k) <= v.log_constant


def test_tracking_constant_requires_stable():
    v = hs.classify(hs.builtin_example("alternating_2_half"), 100)
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
        "finite_horizon", "horizon",
    }
    assert doc["horizon"] == 10_000
    assert doc["status"] == "Unstable"

    v2 = hs.classify(hs.builtin_example("constant", a=0.5, b=0))
    doc2 = v2.to_json()
    assert doc2["constant"] == 2.0
    assert doc2["finite_horizon"] is False


def test_config_validation():
    for spec in (hs.builtin_example("sparse3_squares"), hs.builtin_example("period3_2_i_third")):
        with pytest.raises(ValueError, match="horizon must be >= 2, got 1"):
            hs.classify(spec, 1)


# Each Stable constant is the exact error envelope of the shadow its verdict
# names. A table of 60 entries a = 0.5, then a = 3 repeating, has the series
# envelope sum_{k=2}^{61} 2^{k-1} + 2^60 sum_{j>=1} 3^{-j} at m = 1, at
# every horizon, inside the run or past it.
_RUN_TABLE = hs.table_spec([(0.5, 1.0)] * 60 + [(3.0, 1.0)], tail="repeat")


@pytest.mark.parametrize("spec, N, expect", [
    (hs.builtin_example("sparse3_periodic", p=3), 200, 3.5),
    (hs.periodic_spec([(0.5, 1.0), (8.0, 1.0)]), 200, 3.0),
    (hs.builtin_example("constant", a=2, b=5), 200, 1.0),
    (_RUN_TABLE, 200, 2.0**61 + 2.0**59 - 2.0),
    (_RUN_TABLE, 2000, 2.0**61 + 2.0**59 - 2.0),
    (_RUN_TABLE, 2, 2.0**61 + 2.0**59 - 2.0),
    (_RUN_TABLE, 61, 2.0**61 + 2.0**59 - 2.0),
    (_RUN_TABLE, 10**6, 2.0**61 + 2.0**59 - 2.0),
])
def test_stable_constants_are_exact_envelopes(spec, N, expect):
    v = hs.classify(spec, N)
    assert v.status == STABLE
    assert v.constant == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("x, status, criterion", [
    (1.01, STABLE, "periodic_expanding"),
    (0.99, STABLE, "periodic_contracting"),
    (0.981, STABLE, "periodic_contracting"),
    (1.019, STABLE, "periodic_expanding"),
    (1.0, UNSTABLE, "bounded_products"),
])
def test_repeat_table_of_a_constant_is_the_constant(x, status, criterion):
    # A tail |a| inside the estimator's band, which a windowed estimate of
    # L_n / n cannot tell from 1; the cycle decides exactly.
    const = hs.classify(hs.constant_spec(x, 1))
    table = hs.classify(hs.table_spec([(x, 1)] * 3, tail="repeat"))
    for v in (const, table):
        assert (v.status, v.criterion, v.finite_horizon, v.horizon) == (status, criterion, False, None)
    if status == STABLE:
        assert table.constant == pytest.approx(const.constant, rel=1e-12)
        assert table.log_constant == pytest.approx(const.log_constant, abs=1e-12)


def test_error_tail_has_no_cycle_and_is_estimated():
    spec = hs.table_spec([(0.5, 1.0)] * 100, tail="error")
    assert spec.cycle_start is None
    v = hs.classify(spec, 100)
    assert v.finite_horizon and v.horizon == 100 and v.criterion == "geomean_contracting"
    with pytest.raises(ValueError, match="got a table spec with no cycle"):
        hs.classify_periodic(spec, 10_000)


_MODULUS_NEAR_ONE = st.one_of(st.floats(0.5, 2.0), st.floats(1 - 1e-9, 1 + 1e-9), st.just(1.0))
# quarter turns keep |a| = r exact, so r = 1 gives |a| = 1
_PHASES = st.sampled_from([1, 1j, -1, -1j, complex(math.cos(0.6), math.sin(0.6))])


@settings(max_examples=40, deadline=None)
@given(r=_MODULUS_NEAR_ONE, phase=_PHASES, b=st.complex_numbers(max_magnitude=5),
       k=st.integers(1, 50), N=st.sampled_from([2, 3, 49, 50, 51, 1000, 10**6]))
def test_constant_and_its_repeat_table_give_one_answer(r, phase, b, k, N):
    a = r * phase
    const = hs.classify(hs.constant_spec(a, b), N)
    table = hs.classify(hs.table_spec([(a, b)] * k, tail="repeat"), N)
    assert (table.status, table.criterion) == (const.status, const.criterion)
    assert table.finite_horizon is const.finite_horizon is False
    if const.log_constant is None:
        assert table.log_constant is None
    else:
        assert table.log_constant == pytest.approx(const.log_constant, abs=1e-12)
    for key, value in const.estimates.items():
        assert table.estimates[key] == pytest.approx(value, rel=1e-12, abs=1e-12), key


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 30), r=st.one_of(st.floats(0.98, 1.02), st.just(1.0)),
       unit=st.sampled_from([1, -1, 1j, -1j]), N=st.sampled_from([2, 100, 10_000, 10**6]))
def test_repeat_tail_status_follows_the_last_modulus(seed, n, r, unit, N):
    # Whatever the prefix, the products end up ruled by |a_last|: above 1
    # expanding, below 1 contracting, at 1 bounded. A windowed estimate
    # cannot tell these apart within its band.
    rng = np.random.default_rng(seed)
    logs = rng.uniform(math.log(0.25), math.log(4.0), n)
    a = [*np.exp(logs + 2j * np.pi * rng.uniform(0, 1, n)), r * unit]
    spec = hs.table_spec([(x, 1.0) for x in a], tail="repeat")
    v = hs.classify(spec, N)
    last = abs(complex(a[-1]))
    if last == 1.0:
        assert (v.status, v.criterion) == (UNSTABLE, "bounded_products")
    else:
        assert v.status == STABLE and math.isfinite(v.log_constant)
        assert v.criterion == ("periodic_expanding" if last > 1.0 else "periodic_contracting")
    assert all(math.isfinite(x) for x in v.estimates.values())


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 20), sign=st.sampled_from([-1, 1]),
       kind=st.sampled_from(["table", "cycle"]))
def test_exact_table_constants_bound_every_horizon_and_match_mpmath(seed, n, sign, kind):
    # The exact constant bounds the horizon constant at every N, and at a
    # horizon whose dropped tail is below e^-30 it is the mpmath supremum
    # of the tracking sums (contracting) or of the series envelope
    # (expanding) over that horizon. A table is n entries before a cycle of
    # one; a cycle has 2-12 entries and |log q| >= 0.05.
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(seed)
    if kind == "table":
        logs = np.array([*rng.uniform(math.log(0.25), math.log(4.0), n), sign * rng.uniform(0.5, 1.4)])
        p = 1
    else:
        p = int(rng.integers(2, 13))
        logs = rng.uniform(math.log(0.25), math.log(4.0), p)
        logs += (sign * rng.uniform(0.05, 1.4) - logs.sum()) / p
    a = np.exp(logs + 2j * np.pi * rng.uniform(0, 1, len(logs)))
    pairs = [(x, 1.0) for x in a]
    spec = hs.table_spec(pairs, tail="repeat") if kind == "table" else hs.periodic_spec(pairs)
    v = hs.classify(spec)
    assert v.criterion == ("periodic_contracting" if sign < 0 else "periodic_expanding")
    k = len(logs)
    log_q = float(logs[k - p :].sum())
    L = hs.build_ledger(spec, k).logmag
    spread = float(np.max(L[1 : k + 2]) - np.min(L[1 : k + 2]))
    # Contracting, each residue class of T_n nears its limit by Q a cycle.
    # Expanding, every L_j past the horizon lies that many cycles of log q
    # above the first cycle, the envelope is at least e^-spread, and at most
    # p / (1 - 1/Q) < e^6 cycles' worth of tail is summed.
    cycles = math.ceil((30.0 if sign < 0 else 36.0 + 2.0 * spread) / abs(log_q))
    far = k + 1 + p * cycles
    horizon = hs.tracking_sum_max if sign < 0 else log_series_envelope
    for N in sorted({1, 2, k, k + 1, k + 2, 2 * k + 5, far}):
        assert horizon(hs.build_ledger(spec, N), N) <= v.log_constant + 1e-12, N
    a_far, _ = coeffs_upto(spec, far + 1)
    track, env = brute_horizon_sups(a_far, far)
    ref = float(mpmath.log(track if sign < 0 else env))
    assert abs(v.log_constant - ref) <= 1e-12 + 8 * np.spacing(abs(ref))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["cycle", "table"]), k=st.integers(1, 40),
       N=st.integers(2, 3000))
def test_exact_log_sup_abs_p_is_the_horizon_maximum(seed, kind, k, N):
    # The exact path reads max L_1..L_N off the first cycle; the numeric
    # path scans a ledger of N indices. They agree to the ledger's rounding.
    rng = np.random.default_rng(seed)
    a = np.exp(rng.uniform(-1.0, 1.0, k) + 2j * np.pi * rng.uniform(0, 1, k))
    pairs = [(x, 1.0) for x in a]
    spec = hs.periodic_spec(pairs) if kind == "cycle" else hs.table_spec(pairs, tail="repeat")
    exact = hs.classify(spec, N).estimates["log_sup_abs_p"]
    numeric = hs.classify_numeric(hs.build_ledger(spec, N)).estimates["log_sup_abs_p"]
    assert exact == pytest.approx(numeric, rel=1e-12, abs=1e-12)


def _phase_aligned_shadow(spec, N, eps):
    """The verdict, and the log of the sup error its own shadow construction
    makes against r_j = eps p(j+1, 1) / |p(j+1, 1)|."""
    led = hs.build_ledger(spec, N)
    v = hs.classify(spec, N, ledger=led)
    if v.status != STABLE:
        return v, None
    r = hs.realize_plan(hs.PerturbationPlan(variant="phase_aligned", epsilon=eps), led, N)
    orbit = hs.perturbed_orbit(spec, 0.3 - 0.1j, r, eps)
    if v.criterion in EXPANDING_CRITERIA:
        res = hs.shadow_expanding(orbit, spec, led)
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


_OFFSETS = st.one_of(st.just(-math.inf), st.floats(-60.0, 60.0), st.sampled_from([-700.0, 700.0]))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60), N=st.integers(1, 120), start=st.integers(1, 120),
       past=_OFFSETS, tail=_OFFSETS)
def test_horizon_envelopes_match_mpmath_on_wide_tables(seed, n, N, start, past, tail):
    # |a| log-uniform in [1e-3, 1e3], so the products swing far past float
    # range. The ledger sums up to N + 1 rounded logs, which may move each
    # log-domain result by 2 (N + 1) ulp of the sum of their moduli. The
    # tracking sums start at index start from a past T_{start-1}, and the
    # envelope carries a tail past N + 1: each none, or offset from the
    # first term it is summed with.
    mpmath = pytest.importorskip("mpmath")
    spec = random_table_spec(np.random.default_rng(seed), n, amin=1e-3, amax=1e3)
    led = hs.build_ledger(spec, N)
    L = led.logmag
    start = min(start, N)
    log_past = past + float(L[start] - L[start + 1])  # the past's term against e^{-L_{start+1}}
    log_tail = tail - float(L[N + 1])
    a, _ = coeffs_upto(spec, N + 1)
    mods = [mpmath.mpf(abs(complex(x))) for x in a[1:]]
    slack = 2 * (N + 1) * 2.0**-52 * math.fsum(abs(math.log(abs(x))) for x in a[1:])
    with mpmath.workprec(200):
        track = max(brute_tracking_sum([None, *mods], k, start, mpmath.exp(log_past)) for k in range(start, N + 1))
        env = brute_series_envelope(a, N, mpmath.exp(log_tail))
        expect = {"track": float(mpmath.log(track)), "env": float(mpmath.log(env))}
    got = {"track": hs.tracking_sum_max(led, N, start, log_past), "env": log_series_envelope(led, N, log_tail)}
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

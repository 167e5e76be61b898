import json
import math
import struct
import warnings

import numpy as np
import pytest
from conftest import coeff_at, coeff_full, naive_abs, naive_entry_columns, naive_pair_from_list
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hustab as hs
from hustab.errors import IndexOutOfRange, InvalidSpec
from hustab.sequences import (
    COLUMNS,
    CoefficientSpec,
    _entries_from_lists,
    coeff_arrays,
    spec_from_json,
    spec_to_json,
)


def test_period3_entry_lookup():
    spec = hs.builtin_example("period3_2_i_third")
    assert coeff_at(spec, 1) == (2 + 0j, 5 + 0j)
    assert coeff_at(spec, 2) == (1j, 5 + 0j)
    assert coeff_at(spec, 3) == (1 / 3 + 0j, 5 + 0j)
    assert coeff_at(spec, 5) == coeff_at(spec, 2)


def test_constant_identity_map():
    spec = hs.builtin_example("constant", a=1, b=0)
    assert coeff_at(spec, 7) == (1 + 0j, 0j)


def test_alternating_fourth_index():
    spec = hs.builtin_example("alternating_2_half")
    assert coeff_at(spec, 4) == (0.5 + 0j, 5 + 0j)
    assert coeff_at(spec, 3) == (2 + 0j, 5 + 0j)


def test_near_parabolic_limit_is_translation_by_minus_two():
    spec = hs.builtin_example("near_parabolic", alpha=0.0)
    a, b = coeff_at(spec, 10**6)
    assert abs(a - 1) < 1e-11
    assert abs(b + 2) < 1e-11
    # each map sends z to a_n (z - 2), so b_n = -2 a_n at every index
    a5, b5 = coeff_at(spec, 5)
    assert b5 == -2 * a5


def test_near_parabolic_rotation():
    spec = hs.builtin_example("near_parabolic", alpha=0.25)
    a, _ = coeff_at(spec, 1000)
    assert a.real == pytest.approx(0.0, abs=1e-9)
    assert a.imag == pytest.approx(1.0, rel=1e-5)


def test_sparse3_squares_values():
    spec = hs.builtin_example("sparse3_squares")
    assert coeff_at(spec, 1)[0] == 3  # 1 = 1^2
    assert coeff_at(spec, 4)[0] == 3  # 4 = 2^2
    assert coeff_at(spec, 5)[0] == 1
    assert coeff_at(spec, 9)[0] == 3
    assert all(coeff_at(spec, n)[1] == 5 for n in (1, 4, 5))


def test_sparse3_periodic_layout():
    spec = hs.builtin_example("sparse3_periodic", p=4)
    assert [coeff_at(spec, n)[0] for n in range(1, 9)] == [1, 1, 1, 3, 1, 1, 1, 3]
    every = hs.builtin_example("sparse3_periodic", p=1)
    assert coeff_at(every, 17)[0] == 3


def test_validate_rejects_zero_coefficient():
    with pytest.raises(InvalidSpec, match="period entry 1 has a = 0"):
        hs.periodic_spec([(0.0, 1.0)])
    with pytest.raises(InvalidSpec, match="constant spec has a = 0"):
        hs.constant_spec(0.0, 1.0)


def test_validate_accepts_alternating_pairs():
    spec = hs.periodic_spec([(2, 5), (0.5, 5)])
    assert hs.validate(spec) is spec


def test_empty_table_and_period_rejected():
    with pytest.raises(InvalidSpec, match="table spec has no entries"):
        hs.table_spec([])
    with pytest.raises(InvalidSpec, match="periodic spec has no entries"):
        hs.periodic_spec([])


def test_table_tail_rules():
    spec = hs.table_spec([(2, 1), (3, 1)], tail="error")
    assert coeff_at(spec, 2) == (3 + 0j, 1 + 0j)
    with pytest.raises(IndexOutOfRange):
        coeff_at(spec, 3)
    rep = hs.table_spec([(2, 1), (3, 1)], tail="repeat")
    assert coeff_at(rep, 10) == (3 + 0j, 1 + 0j)


def test_cycle_start_is_derived_from_kind_and_tail():
    # Every listed spec is a prefix plus a cycle from slot cycle_start; an
    # error tail and a formula have no cycle. Not a field, not on the wire.
    pairs = [(2, 1), (0.5, 1), (3, 1)]
    cases = [
        (hs.constant_spec(2, 1), 1),
        (hs.periodic_spec(pairs), 1),
        (hs.table_spec(pairs, tail="repeat"), 3),
        (hs.table_spec(pairs, tail="error"), None),
        (hs.builtin_example("near_parabolic"), None),
    ]
    for spec, start in cases:
        assert spec.cycle_start == start
        assert "cycle_start" not in json.dumps(spec_to_json(spec))
    with pytest.raises(TypeError):
        CoefficientSpec(kind="periodic", entries=hs.periodic_spec(pairs).entries, cycle_start=2)
    # the one gather: a prefix read once, then the cycle for ever
    n = np.arange(1, 13)
    for spec, want in ((cases[1][0], [2, 0.5, 3] * 4), (cases[2][0], [2, 0.5] + [3] * 10)):
        (a,) = coeff_arrays(spec, n, "a")
        assert a.tolist() == want


def test_unknown_builtin():
    with pytest.raises(InvalidSpec, match="no builtin example named 'no_such_family'"):
        hs.builtin_example("no_such_family")


@settings(max_examples=40, deadline=None)
@given(
    entries=st.lists(
        st.tuples(
            st.complex_numbers(min_magnitude=0.1, max_magnitude=8, allow_nan=False, allow_infinity=False),
            st.complex_numbers(max_magnitude=8, allow_nan=False, allow_infinity=False),
        ),
        min_size=1,
        max_size=9,
    ),
    n=st.integers(min_value=1, max_value=500),
)
def test_periodicity_is_exact(entries, n):
    spec = hs.periodic_spec(entries)
    p = len(spec.entries)
    assert coeff_at(spec, n + p) == coeff_at(spec, n)


def _all_builtins():
    return [
        hs.builtin_example("near_parabolic", alpha=0.0),
        hs.builtin_example("near_parabolic", alpha=1 / 3),
        hs.builtin_example("alternating_2_half"),
        hs.builtin_example("period3_2_i_third"),
        hs.builtin_example("sparse3_periodic", p=3),
        hs.builtin_example("sparse3_squares"),
        hs.builtin_example("constant", a=2, b=5),
    ]


def test_builtins_never_produce_zero_a():
    probes = list(range(1, 2001)) + [10**4, 10**5, 10**6, 999983]
    for spec in _all_builtins():
        for n in probes:
            a, _ = coeff_at(spec, n)
            assert a != 0


def test_near_parabolic_magnitude_sum_bound():
    # sum | |a_n| - 1 | <= sum 3/n^2, checkable per term: |a_n| - 1 = 2/n^2 + 1/n^4
    spec = hs.builtin_example("near_parabolic", alpha=0.7)
    lhs = 0.0
    rhs = 0.0
    for n in range(1, 1001):
        a, _ = coeff_at(spec, n)
        term = abs(abs(a) - 1.0)
        assert term <= 3.0 / n**2 + 1e-15
        lhs += term
        rhs += 3.0 / n**2
    assert lhs <= rhs


def test_exact_log_channel_matches_linear():
    for spec in _all_builtins():
        for n in (1, 2, 17, 100, 9999):
            a, _, la, ang = coeff_full(spec, n)
            assert la == pytest.approx(math.log(abs(a)), abs=1e-14)
            assert math.cos(ang) == pytest.approx((a / abs(a)).real, abs=1e-12)


def test_json_round_trip_all_builtins():
    for spec in _all_builtins():
        doc = json.loads(json.dumps(spec_to_json(spec)))
        back = spec_from_json(doc)
        for n in range(1, 1001):
            assert coeff_at(back, n) == coeff_at(spec, n)


def test_json_round_trip_table():
    spec = hs.table_spec([(2 + 1j, -1), (0.5, 3j)], tail="repeat")
    back = spec_from_json(json.loads(json.dumps(spec_to_json(spec))))
    assert back.tail == "repeat"
    for n in (1, 2, 3, 50):
        assert coeff_at(back, n) == coeff_at(spec, n)


def test_coeff_at_takes_no_phase_of_a_listed_entry():
    # The test oracle coeff_at reads the a and b columns alone, so a table's
    # or cycle's entry phases stay untaken until a phase is read.
    rng = np.random.default_rng(4)
    table = hs.table_spec(list(zip(np.exp(2j * np.pi * rng.uniform(0, 1, 1000)), np.ones(1000))))
    for spec in (table, hs.builtin_example("period3_2_i_third")):
        a, b = coeff_at(spec, 7)
        assert "_arg" not in spec.__dict__
        assert (a, b) == coeff_full(spec, 7)[:2]
        assert "_arg" in spec.__dict__


def test_coeff_full_subnormal_phase():
    # cmath.phase raises OverflowError when the angle itself is subnormal
    spec = hs.periodic_spec([(complex(2.0, 5e-324), 0j)])
    _, _, log_mag, angle = coeff_full(spec, 1)
    assert log_mag == math.log(2.0)
    assert 0.0 <= angle <= 5e-324


@pytest.mark.parametrize("doc, needle", [
    ([1, 2], "JSON object"),
    ("periodic", "JSON object"),
    ({"kind": "periodic"}, "'period'"),
    ({"kind": "constant"}, "'constant'"),
    ({"kind": "table", "table": {"a": 1}}, "'table'"),
    ({"kind": "formula"}, "'formula'"),
    ({"kind": "formula", "formula": {"params": {}}}, "'name'"),
    ({"kind": "formula", "formula": {"name": "near_parabolic", "params": [0.1]}}, "params"),
    ({"kind": "constant", "constant": [2, 0, 5]}, "4 numbers"),
    ({"kind": "periodic", "period": [[2, 0, 5, 0], [1, 0, "5", 0]]}, "4 numbers"),
    ({"kind": "constant", "constant": [True, 0, 5, 0]}, "4 numbers"),
    ({"kind": "constant", "constant": [10**400, 0, 5, 0]}, "float range"),
    ({"kind": "nope"}, "unknown spec kind"),
])
def test_spec_from_json_rejects_malformed_documents(doc, needle):
    with pytest.raises(InvalidSpec, match=needle):
        spec_from_json(doc)


def test_validate_rejects_non_finite_values_naming_the_entry():
    with pytest.raises(InvalidSpec, match="constant spec is not finite"):
        hs.constant_spec(float("nan"), 1.0)
    with pytest.raises(InvalidSpec, match="constant spec is not finite"):
        spec_from_json(json.loads('{"kind": "constant", "constant": [1e400, 0, 5, 0]}'))
    with pytest.raises(InvalidSpec, match="period entry 3 is not finite"):
        hs.periodic_spec([(2, 5), (0.5, 5), (1, complex(0, math.inf)), (1, math.nan)])
    with pytest.raises(InvalidSpec, match="table entry 2 is not finite"):
        hs.table_spec([(2, 5), (math.inf, 5), (0.5, 5)])
    with pytest.raises(InvalidSpec, match="'alpha'"):
        hs.builtin_example("near_parabolic", alpha=math.nan)
    with pytest.raises(InvalidSpec, match="period entry 2"):
        hs.periodic_spec([(2, 5), (0, 5), (0, 5)])
    # the new checks are ValueErrors too, as the old ones were
    assert issubclass(InvalidSpec, ValueError)


def test_overflowing_modulus_is_refused_naming_the_entry():
    # |a| = 2.1e308 is past float range though both parts are finite
    doc = {"kind": "periodic", "period": [[1.5e308, 1.5e308, 1, 0], [1e-300, 0, 1, 0]]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidSpec, match=r"^period entry 1 has \|a\| past float range"):
            spec_from_json(doc)
        with pytest.raises(InvalidSpec, match=r"^table entry 3 has \|a\| past float range"):
            hs.table_spec([(2, 5), (0.5, 5), (complex(-1e308, 1.7e308), 0)])
    assert coeff_full(hs.periodic_spec([(complex(1e308, 1e308), 0)]), 1)[2] == math.log(abs(complex(1e308, 1e308)))


def _from_bits(u):
    return struct.unpack("<d", struct.pack("<Q", u))[0]


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


def _modulus_fits(a):
    try:
        naive_abs(a)
    except OverflowError:
        return False
    return True


# JSON numbers as json.loads returns them: floats of any bit pattern
# (json.loads reads NaN and Infinity; validate, not the reader, refuses
# them), and ints, some of which round when read as floats
_WIRE_NUMBERS = st.one_of(
    st.integers(0, 2**64 - 1).map(_from_bits),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1.5e308, -1.7976931348623157e308]),
    st.sampled_from([2**53 + 1, 2**63 + 1, 3 * 2**64 + 1, 10**308, -(2**53 + 1), 0, 1]),
    st.integers(-(2**70), 2**70),
)


@settings(max_examples=300, deadline=None)
@given(pairs=st.lists(st.lists(_WIRE_NUMBERS, min_size=4, max_size=4), min_size=1, max_size=12))
@example(pairs=[[2**53 + 1, 2**63 + 1, 3 * 2**64 + 1, 10**308], [-0.0, 5e-324, 1e308, -1e308]])
@example(pairs=[[1.5e308, 10**308, 0, 0], [0.0, math.nan, 0, 0]])  # a NaN part right after an overflow
def test_entry_columns_bit_identical_to_per_entry_oracle(pairs):
    naive = tuple(naive_pair_from_list(p) for p in pairs)
    spec = CoefficientSpec(kind="table", entries=_entries_from_lists(pairs), tail="repeat")
    got = [spec._entry_column(c) for c in COLUMNS]
    # the per-entry oracle's abs raises where a finite a's modulus overflows;
    # the new columns hold log|a| = inf there, which validate refuses
    fits = np.array([_modulus_fits(a) for a, _ in naive])
    assert (got[2][~fits] == math.inf).all()
    want = naive_entry_columns(tuple(p for p, f in zip(naive, fits) if f))
    a, b, log_mag, phase = (c[fits] for c in got)
    assert (_bits(a) == _bits(want[0])).all() and (_bits(b) == _bits(want[1])).all()
    assert (_bits(phase) == _bits(want[3])).all()
    # abs of a complex with a NaN part returns the canonical NaN, np.hypot
    # keeps the payload; validate refuses every non-finite entry, so a NaN
    # log|a| is compared as NaN
    nan = np.isnan(want[2])
    assert (np.isnan(log_mag) == nan).all()
    assert (_bits(log_mag[~nan]) == _bits(want[2][~nan])).all()


@settings(max_examples=100, deadline=None)
@given(
    pairs=st.lists(
        st.lists(st.floats(allow_nan=False, allow_infinity=False, min_value=-1e300, max_value=1e300), min_size=4, max_size=4)
        .filter(lambda p: p[0] or p[1]),
        min_size=1,
        max_size=9,
    ),
    kind=st.sampled_from(["constant", "periodic", "table"]),
)
def test_spec_to_json_round_trips_byte_for_byte(pairs, kind):
    if kind == "constant":  # one pair, held as the field itself
        pairs = pairs[:1]
        doc = {"kind": kind, "constant": pairs[0]}
    else:
        doc = {"kind": kind, ("period" if kind == "periodic" else "table"): pairs}
    if kind == "table":
        doc["tail"] = "repeat"
    text = json.dumps(doc)
    spec = spec_from_json(json.loads(text))
    entries = spec.entries
    assert entries.shape == (len(pairs), 2) and not entries.flags.writeable
    assert json.dumps(spec_to_json(spec)) == text
    # the columns match the per-entry oracle on what validate accepts
    want = naive_entry_columns(tuple(naive_pair_from_list(p) for p in pairs))
    columns = [spec._entry_column(c) for c in COLUMNS]
    for got, exp in zip(columns, want):
        assert (_bits(got) == _bits(exp)).all()


_GOOD_PAIR = [2, 0.5, 5, -1]
_BAD_PAIRS = [
    [True, 0, 5, 0],
    [1, 0, "5", 0],
    [1, 0, 5],
    (1, 0, 5, 0),
    {"re": 1},
    [10**400, 0, 5, 0],
]


@pytest.mark.parametrize("bad", _BAD_PAIRS, ids=["bool", "string", "length3", "tuple", "object", "int_past_float"])
@pytest.mark.parametrize("at", [0, 50_000, 99_999])
def test_malformed_pair_in_long_list_gets_the_per_pair_message(bad, at):
    pairs = [_GOOD_PAIR] * 100_000
    pairs[at] = bad
    with pytest.raises(InvalidSpec) as want:
        for p in pairs:
            naive_pair_from_list(p)
    for kind, key in (("periodic", "period"), ("table", "table")):
        with pytest.raises(InvalidSpec) as got:
            spec_from_json({"kind": kind, key: pairs})
        assert str(got.value) == str(want.value)


def test_first_of_two_malformed_pairs_is_named():
    pairs = [_GOOD_PAIR] * 1000
    pairs[400] = [10**400, 0, 1, 0]  # fails only the conversion
    pairs[700] = [False, 0, 1, 0]  # fails the type check
    with pytest.raises(InvalidSpec, match=r"^coefficient pair \[1000000"):
        spec_from_json({"kind": "table", "table": pairs})
    pairs[200] = [1, 2, 3, None]
    with pytest.raises(InvalidSpec, match=r"got \[1, 2, 3, None\]$"):
        spec_from_json({"kind": "table", "table": pairs})


_ENTRY = st.tuples(
    st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False, allow_infinity=False),
    st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["constant", "periodic", "table_repeat", "table_error", "near_parabolic", "sparse3_squares"]),
    data=st.data(),
)
def test_each_column_read_alone_matches_the_four_column_read(kind, data):
    # Every spec kind, index arrays that cross a cycle's wrap and a table's
    # tail: a column read alone is the same column of the full read, bit for
    # bit, and an error tail refuses both reads alike.
    entries = data.draw(st.lists(_ENTRY, min_size=1, max_size=6))
    if kind == "constant":
        spec = hs.constant_spec(*entries[0])
    elif kind == "periodic":
        spec = hs.periodic_spec(entries)
    elif kind.startswith("table"):
        spec = hs.table_spec(entries, tail=kind.split("_")[1])
    elif kind == "near_parabolic":
        spec = hs.builtin_example(kind, alpha=data.draw(st.floats(-1e6, 1e6)))
    else:
        spec = hs.builtin_example(kind)
    top = 10**7 if spec.kind == "formula" else 3 * len(entries) + 3
    n = np.array(data.draw(st.lists(st.integers(1, top), max_size=40)), dtype=np.int64)
    if kind == "table_error" and n.size and n.max() > len(entries):
        for names in [(), *((c,) for c in COLUMNS)]:
            with pytest.raises(IndexOutOfRange):
                coeff_arrays(spec, n, *names)
        return
    full = coeff_arrays(spec, n)
    assert len(full) == len(COLUMNS)
    for name, want in zip(COLUMNS, full):
        (got,) = coeff_arrays(spec, n, name)
        assert got.dtype == want.dtype and got.shape == want.shape == n.shape
        assert (_bits(got.view(float)) == _bits(want.view(float))).all()


def test_unknown_column_refused():
    with pytest.raises(ValueError, match="columns"):
        coeff_arrays(hs.builtin_example("sparse3_squares"), [1, 2], "phase")


@pytest.mark.parametrize("a, b", [(0.5, 2.0), (3.0, 5.0), (1j, 1.0), (-1.0, 0.0), (0.6 - 0.7j, 2.0 + 1.0j)])
def test_constant_reads_and_classifies_as_a_cycle_of_one(a, b):
    const, cycle = hs.constant_spec(a, b), hs.periodic_spec([(a, b)])
    n = np.arange(1, 5001)
    for got, want in zip(coeff_arrays(const, n), coeff_arrays(cycle, n)):
        assert (_bits(got.view(float)) == _bits(want.view(float))).all()
    v0, v1 = hs.classify(const), hs.classify(cycle)
    assert (v0.status, v0.criterion, v0.log_constant) == (v1.status, v1.criterion, v1.log_constant)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@pytest.mark.parametrize("make", [
    lambda v: _frozen(v.astype(np.int64)),  # would read as denormals bit for bit
    lambda v: v.copy(),  # writable: the caller could change the spec later
    lambda v: _frozen(v.copy()[:]),  # a read-only view of a writable array
    lambda v: _frozen(np.ascontiguousarray(v[:, :3])),
    lambda v: _frozen(v.astype(object)),
    lambda v: _frozen(v.reshape(-1)),
    lambda v: _frozen(v.astype(np.float32)),
], ids=["int64", "writable", "view", "three-columns", "object", "flat", "float32"])
def test_spec_from_json_refuses_arrays_the_reader_does_not_make(make):
    values = np.array([[2, 0, 5, 0], [3, 1, 0, 0]], float)
    for kind, key in (("periodic", "period"), ("table", "table")):
        pairs = make(values)
        with pytest.raises(InvalidSpec, match=f"needs a '{key}' field holding a JSON array"):
            spec_from_json({"kind": kind, key: pairs})


def test_spec_from_json_takes_the_readers_array_as_the_list():
    values = np.array([[2, 0, 5, 0], [3, 1, 0, 0]], float)
    for kind, key in (("periodic", "period"), ("table", "table")):
        got = spec_from_json({"kind": kind, key: _frozen(values.copy())})
        want = spec_from_json({"kind": kind, key: values.tolist()})
        assert got.entries.tolist() == want.entries.tolist() and got.kind == want.kind
    with pytest.raises(InvalidSpec) as want:
        spec_from_json({"kind": "table", "table": []})
    with pytest.raises(InvalidSpec) as got:
        spec_from_json({"kind": "table", "table": _frozen(np.empty((0, 4)))})
    assert str(got.value) == str(want.value)

import json
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import hustab as hs
from hustab.cli import main
from hustab.sequences import coeff_full


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_period3(capsys):
    code, out, _ = run(capsys, "classify", "--builtin", "period3_2_i_third")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "Stable"
    assert doc["constant"] < 16.0


def test_classify_unimodular_constant(capsys):
    code, out, _ = run(capsys, "classify", "--builtin", "constant", "--a", "1", "--b", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "Unstable"
    assert doc["criterion"] == "bounded_products"


def test_classify_sparse3_squares_large_horizon(capsys):
    code, out, _ = run(capsys, "classify", "--builtin", "sparse3_squares", "--horizon", "40000")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "Unstable"
    assert doc["criterion"] == "geomean_subexponential"
    assert doc["horizon"] == 40000


def test_classify_undetermined_exit_code(tmp_path, capsys):
    n = 1024
    a = np.ones(n)
    k = 1
    while 2**k < n:
        lo, mid, hi = 2**k, min(3 * 2 ** (k - 1), n), min(2 ** (k + 1), n)
        a[lo - 1 : mid - 1] = 2.0
        a[mid - 1 : hi - 1] = 0.5
        k += 1
    spec = hs.table_spec([(x, 1.0) for x in a], tail="repeat")
    path = tmp_path / "osc.json"
    path.write_text(json.dumps(hs.spec_to_json(spec)))
    code, out, _ = run(capsys, "classify", "--spec", str(path), "--horizon", str(n))
    assert code == 2
    assert json.loads(out)["status"] == "Undetermined"


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_classify_stdout_is_strict_json_past_overflow(tmp_path, capsys):
    # an |a| = 3 tail drives L_n to ~2200, far past exp's range at ~709
    spec = hs.table_spec([(0.5, 1.0)] * 10 + [(3.0, 5.0)], tail="repeat")
    path = tmp_path / "tail3.json"
    path.write_text(json.dumps(hs.spec_to_json(spec)))
    code, out, _ = run(capsys, "classify", "--spec", str(path), "--horizon", "2000")
    assert code == 0
    doc = json.loads(out, parse_constant=_reject_constant)
    est = doc["estimates"]
    assert "sup_tracking_sum" not in est
    # T_n = sum_k |a_n ... a_{n-k+1}| >= |p(n+1, 11)| = |p(n+1, 1)| 2^10
    assert est["log_sup_tracking_sum"] >= est["log_sup_abs_p"] + 10 * np.log(2.0)
    assert est["log_sup_tracking_sum"] > 709.0


@pytest.mark.parametrize("period", [
    [[1.0000000000000002, 0, 1, 0], [1, 0, 1, 0]],  # expanding, K rounds to 1
    [[1.0000000000000002, 0, 1, 0], [0.9999999999999998, 0, 1, 0]],  # log q = -7.4e-32, Q rounds to 1
])
def test_classify_near_unit_cycle_has_finite_constant(tmp_path, capsys, period):
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps({"kind": "periodic", "period": period}))
    code, out, _ = run(capsys, "classify", "--spec", str(path))
    assert code == 0
    doc = json.loads(out, parse_constant=_reject_constant)
    assert doc["status"] == "Stable"
    assert math.isfinite(doc["constant"]) and doc["constant"] > 1e15


@pytest.mark.parametrize("head, tail, log_c", [
    (0.5, 2.0, 1100 * math.log(2.0) + math.log(3.0)),  # series envelope at m = 1
    (2.0, 0.5, 1100 * math.log(2.0)),  # tracking sum at the end of the run
])
def test_classify_constant_past_float_range_is_its_log(tmp_path, capsys, head, tail, log_c):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"kind": "table", "table": [[head, 0, 1, 0]] * 1100 + [[tail, 0, 1, 0]],
                                "tail": "repeat"}))
    code, out, _ = run(capsys, "classify", "--spec", str(path))
    assert code == 0
    doc = json.loads(out, parse_constant=_reject_constant)
    assert doc["status"] == "Stable" and "constant" not in doc
    assert doc["log_constant"] == pytest.approx(log_c, rel=1e-12)


def test_classify_invalid_spec_is_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"kind": "periodic", "period": [[0, 0, 1, 0]]}))
    code, _, err = run(capsys, "classify", "--spec", str(path))
    assert code == 1
    assert "error" in err


def test_missing_spec_source_is_error(capsys):
    code, _, err = run(capsys, "classify")
    assert code == 1
    assert "exactly one" in err


def test_shadow_period3_bound_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "curve1.csv"
    out2 = tmp_path / "curve2.csv"
    args = ["shadow", "--builtin", "period3_2_i_third", "--horizon", "500",
            "--epsilon", "0.01", "--seed", "7"]
    code1, sum1, _ = run(capsys, *args, "--out", str(out1))
    code2, sum2, _ = run(capsys, *args, "--out", str(out2))
    assert code1 == code2 == 0
    assert sum1 == sum2
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(sum1)
    assert doc["bound_satisfied"] is True
    assert doc["sup_error"] <= doc["bound"]
    assert doc["construction"] == "equal_start"
    lines = out1.read_text().strip().split("\n")
    assert lines[0] == "n,re_z,im_z,re_w,im_w,abs_err,log10_abs_err"
    assert len(lines) == 501


def test_shadow_expanding_construction(capsys):
    code, out, _ = run(capsys, "shadow", "--builtin", "constant", "--a", "2", "--b", "5",
                       "--horizon", "400", "--epsilon", "0.01", "--seed", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["construction"] == "reciprocal_series"
    assert doc["bound_satisfied"] is True
    assert doc["tail_estimate"] < 1e-50


def test_shadow_expanding_bound_is_series_envelope(tmp_path, capsys):
    # The verdict's constant is the series shadow's envelope
    # sup_m sum_k |p(m,1)/p(k,1)|, and the shadow's bound is that constant.
    table = tmp_path / "table.json"
    table.write_text(json.dumps({"kind": "table", "table": [[0.5, 0, 1, 0]] * 60 + [[3, 0, 1, 0]],
                                 "tail": "repeat"}))
    cycle = tmp_path / "cycle.json"
    cycle.write_text(json.dumps({"kind": "periodic", "period": [[0.5, 0, 1, 0], [8, 0, 1, 0]]}))
    for path, envelope in ((table, 2.0**61 + 2.0**59 - 2.0), (cycle, 3.0)):
        _, verdict, _ = run(capsys, "classify", "--spec", str(path), "--horizon", "2000")
        assert json.loads(verdict)["constant"] == pytest.approx(envelope, rel=1e-12)
        for seed in range(3):
            code, out, _ = run(capsys, "shadow", "--spec", str(path), "--horizon", "2000",
                               "--epsilon", "0.01", "--seed", str(seed), "--out", str(tmp_path / "z.csv"))
            assert code == 0
            doc = json.loads(out)
            assert doc["construction"] == "reciprocal_series"
            assert doc["bound"] == pytest.approx(0.01 * envelope, rel=1e-9)
            assert doc["bound_satisfied"] is True


def test_shadow_refuses_unstable_without_force(capsys):
    code, _, err = run(capsys, "shadow", "--builtin", "alternating_2_half", "--horizon", "200")
    assert code == 1
    assert "force" in err
    code2, out2, _ = run(capsys, "shadow", "--builtin", "alternating_2_half",
                         "--horizon", "200", "--force")
    assert code2 == 0
    assert json.loads(out2)["bound"] is None


@pytest.mark.parametrize("flag, value", [("--epsilon", "-1"), ("--tail-tol", "-1"), ("--tail-tol", "0")])
@pytest.mark.parametrize("builtin", ["period3_2_i_third", "constant"])
def test_shadow_refuses_negative_epsilon_or_tail_tol(capsys, builtin, flag, value):
    code, out, err = run(capsys, "shadow", "--builtin", builtin, "--horizon", "200", flag, value)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {flag} must be") and err.count("\n") == 1


def test_shadow_zero_epsilon_is_the_exact_orbit(capsys):
    code, out, _ = run(capsys, "shadow", "--builtin", "period3_2_i_third", "--horizon", "200", "--epsilon", "0")
    assert code == 0
    doc = json.loads(out)
    assert (doc["epsilon"], doc["sup_error"], doc["bound"], doc["bound_satisfied"]) == (0.0, 0.0, 0.0, True)


def test_shadow_unconverged_tail_is_an_error_line(capsys):
    code, out, err = run(capsys, "shadow", "--builtin", "constant", "--a", "1.01", "--horizon", "100")
    assert (code, out) == (1, "")
    assert err.startswith("error: tail estimate") and err.count("\n") == 1


def test_shadow_csv_does_not_depend_on_the_cpu_count(tmp_path, capsys, monkeypatch):
    # Large enough to be split across forked children where two CPUs are
    # allowed; with one, every row is formatted in this process.
    argv = ("shadow", "--builtin", "period3_2_i_third", "--horizon", "40000", "--seed", "7")
    outs = []
    for cpus in ({0, 1}, {0}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        path = tmp_path / f"z{len(cpus)}.csv"
        code, out, err = run(capsys, *argv, "--out", str(path))
        assert (code, err) == (0, "")
        outs.append((out, path.read_bytes()))
    assert outs[0] == outs[1]


def _run_table(path, head, tail):
    """1100 entries a = head, then a = tail repeating, b = 1."""
    path.write_text(json.dumps({"kind": "table", "table": [[head, 0, 1, 0]] * 1100 + [[tail, 0, 1, 0]],
                                "tail": "repeat"}))
    return str(path)


def test_shadow_error_curve_past_float_range(tmp_path, capsys):
    # 1100 x a = 2, then 1/2: the equal start's error climbs past e^709 and
    # falls back into float range. Summed in scaled form, it is reported as
    # log_sup_error, the bound holds, and the curve's last row is finite.
    spec = _run_table(tmp_path / "run.json", 2.0, 0.5)
    curve = tmp_path / "z.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run(capsys, "shadow", "--spec", spec, "--out", str(curve))
    assert code == 0
    doc = json.loads(out, parse_constant=_reject_constant)
    assert doc["construction"] == "equal_start" and doc["bound_satisfied"] is True
    assert "sup_error" not in doc and doc["log_sup_error"] <= doc["log_bound"]
    last = curve.read_text().strip().split("\n")[-1].split(",")
    assert math.isfinite(float(last[5])) and float(last[5]) > 0.0


def test_shadow_refuses_series_start_past_float_range(tmp_path, capsys):
    # 1100 x a = 1/2, then 2: the series start z_1 - w_1 ~ eps 2^1100 is not
    # a float, so the command refuses in one line
    spec = _run_table(tmp_path / "run.json", 0.5, 2.0)
    code, out, err = run(capsys, "shadow", "--spec", spec)
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and "log|z_1 - w_1|" in err


def test_witness_reciprocal_sum_past_float_range(tmp_path, capsys):
    # a_n = exp(-1.5 / sqrt(n)): L_n ~ -3 sqrt(n) reaches about -846 at the
    # horizon, so the reciprocal products 1 / |p(j, 1)| leave float range
    n = np.arange(1, 80_001)
    path = tmp_path / "sqrt.json"
    path.write_text(json.dumps({"kind": "table", "table": [[a, 0, 1, 0] for a in np.exp(-1.5 / np.sqrt(n)).tolist()]}))
    code, out, _ = run(capsys, "witness", "--spec", str(path), "--horizon", "80000")
    assert code == 0
    doc = json.loads(out, parse_constant=_reject_constant)
    assert doc["status"] == "Unstable" and doc["plan"]["variant"] == "phase_aligned"


def test_witness_refuses_stable_without_force(capsys):
    code, _, err = run(capsys, "witness", "--builtin", "constant", "--a", "0.5", "--b", "5",
                       "--horizon", "256")
    assert code == 1
    assert "force" in err


def test_witness_forced_on_contracting_is_bounded(capsys):
    code, out, _ = run(capsys, "witness", "--builtin", "constant", "--a", "0.5", "--b", "5",
                       "--horizon", "256", "--epsilon", "0.5", "--force")
    assert code == 0
    doc = json.loads(out)
    assert doc["growth_factor"] < 2.0


def test_witness_alternating_growth(capsys, tmp_path):
    out = tmp_path / "curve.csv"
    code, summary, _ = run(capsys, "witness", "--builtin", "alternating_2_half",
                           "--horizon", "800", "--epsilon", "1", "--out", str(out))
    assert code == 0
    doc = json.loads(summary)
    assert doc["growth_factor"] >= 3.0
    assert doc["plan"]["variant"] == "phase_aligned"
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "n,d_n,log10_d_n"


def test_examples_single_round_trip(tmp_path, capsys):
    path = tmp_path / "np.json"
    code, _, _ = run(capsys, "examples", "--builtin", "near_parabolic",
                     "--alpha", "0.25", "--out", str(path))
    assert code == 0
    reloaded = hs.spec_from_json(json.loads(path.read_text()))
    original = hs.builtin_example("near_parabolic", alpha=0.25)
    for n in range(1, 1001):
        assert hs.coeff_at(reloaded, n) == hs.coeff_at(original, n)


def test_examples_catalog_round_trips_every_builtin(capsys):
    code, out, _ = run(capsys, "examples")
    assert code == 0
    catalog = json.loads(out)
    assert set(catalog) == set(hs.BUILTIN_NAMES)
    for name, doc in catalog.items():
        reloaded = hs.spec_from_json(doc)
        original = hs.builtin_example(name)
        for n in range(1, 1001, 37):
            assert hs.coeff_at(reloaded, n) == hs.coeff_at(original, n)


def test_simulate_csv(capsys):
    code, out, _ = run(capsys, "simulate", "--builtin", "constant", "--a", "2", "--b", "5",
                       "--z1", "1", "--horizon", "3", "--format", "csv")
    assert code == 0
    assert out == "n,re_z,im_z\n1,1.0,0.0\n2,7.0,0.0\n3,19.0,0.0\n"


def test_bad_command_line_exits_2(capsys):
    for argv in (["nope"], []):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--help"])
    assert exc.value.code == 0
    assert "--tail-tol" in capsys.readouterr().out


@pytest.mark.parametrize("flag, argv", [
    ("--epsilon", ["witness", "--builtin", "alternating_2_half", "--epsilon", "nan"]),
    ("--epsilon", ["witness", "--builtin", "alternating_2_half", "--epsilon", "inf"]),
    ("--epsilon", ["shadow", "--builtin", "period3_2_i_third", "--epsilon", "nan"]),
    ("--band", ["classify", "--builtin", "period3_2_i_third", "--band", "nan"]),
    ("--tail-tol", ["shadow", "--builtin", "constant", "--tail-tol", "nan"]),
    ("--z1", ["simulate", "--builtin", "constant", "--z1", "nan"]),
    ("--z1", ["shadow", "--builtin", "period3_2_i_third", "--z1", "nan"]),
    ("--z1", ["shadow", "--builtin", "constant", "--z1", "nan"]),
])
def test_non_finite_flag_is_one_line_error(capsys, flag, argv):
    # argparse reads "nan" and "inf" as numbers; main refuses them before
    # any command computes from them.
    code, out, err = run(capsys, *argv, "--horizon", "200")
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {flag} must be a finite number") and err.count("\n") == 1


def test_parser_keeps_no_state_between_calls(tmp_path, capsys):
    # The parser is built once per process; each call still starts from the
    # defaults, so no flag of one call reaches the next.
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(hs.spec_to_json(hs.builtin_example("constant"))))
    out_path = tmp_path / "first.csv"
    code, _, _ = run(capsys, "witness", "--spec", str(spec), "--force", "--out", str(out_path), "--horizon", "200")
    assert code == 0 and out_path.exists()
    code, out, _ = run(capsys, "simulate", "--builtin", "constant", "--horizon", "3", "--format", "csv")
    assert code == 0 and out.startswith("n,re_z,im_z\n")  # no --spec, no --out
    code, out, err = run(capsys, "witness", "--builtin", "period3_2_i_third", "--horizon", "200")
    assert (code, out) == (1, "") and "pass --force" in err  # no --force


@pytest.mark.parametrize("doc", [
    '{"kind": "periodic"}',
    "[1, 2]",
    '{"kind": "constant", "constant": [NaN, 0, 1, 0]}',
    '{"kind": "constant", "constant": [1e400, 0, 1, 0]}',
    '{"kind": "periodic", "period": [[1.5e308, 1.5e308, 1, 0], [1e-300, 0, 1, 0]]}',
    "[" * 100_000 + "]" * 100_000,
])
def test_malformed_or_non_finite_spec_is_one_line_error(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(doc)
    code, out, err = run(capsys, "classify", "--spec", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


_NUMBERS = st.one_of(
    st.floats(),
    st.integers(-(10**400), 10**400),
    st.sampled_from([0, 1, -1, 0.5, 2.0, 3, 5e-324, 1e-300, 1e300]),
)
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), _NUMBERS, st.text(max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=10,
)
_PAIR = st.one_of(st.lists(_NUMBERS, min_size=4, max_size=4), _JSON)
_SPEC_DOCS = st.one_of(
    _JSON,
    st.fixed_dictionaries({"kind": st.just("constant"), "constant": _PAIR}),
    st.fixed_dictionaries({"kind": st.just("periodic"), "period": st.lists(_PAIR, max_size=4)}),
    st.fixed_dictionaries({
        "kind": st.just("table"),
        "table": st.lists(_PAIR, max_size=4),
        "tail": st.sampled_from(["repeat", "error", "wrap", 3]),
    }),
    st.fixed_dictionaries({
        "kind": st.just("formula"),
        "formula": st.fixed_dictionaries({
            "name": st.sampled_from(["near_parabolic", "sparse3_squares", "nope"]),
            "params": st.one_of(st.dictionaries(st.sampled_from(["alpha", "p"]), _NUMBERS, max_size=2), _JSON),
        }),
    }),
)


_LARGE_ALPHA = {"kind": "formula", "formula": {"name": "near_parabolic", "params": {"alpha": 5337092}}}


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_SPEC_DOCS, command=st.sampled_from(["classify", "simulate", "shadow", "witness"]))
@example(doc=_LARGE_ALPHA, command="shadow")
def test_wire_format_fuzz_exit_codes(tmp_path, capsys, doc, command):
    # Whatever the document, the CLI exits 0, 1 or 2; an error is one
    # "error:" line, never a traceback.
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, command, "--spec", str(path), "--horizon", "64", "--force")
    assert code in (0, 1, 2)
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1


def test_large_alpha_is_taken_mod_one(capsys):
    # 2 pi alpha = 3.4e7 rad unreduced: the phases summed to 2e9 and lost
    # about 7 digits, and shadow's identity check refused its own orbit
    argv = ["shadow", "--builtin", "near_parabolic", "--horizon", "64", "--force"]
    code, out, err = run(capsys, *argv, "--alpha", "5337092")
    assert (code, err) == (0, "")
    assert out == run(capsys, *argv, "--alpha", "0")[1]
    big = coeff_full(hs.builtin_example("near_parabolic", alpha=5337092.25), 7)
    assert big == coeff_full(hs.builtin_example("near_parabolic", alpha=0.25), 7)

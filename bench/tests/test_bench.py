"""Tests of the benchmark itself: generator, span arithmetic, correctness oracles.

    python -m pytest bench/tests
"""

import contextlib
import io
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import spans
import workloads
from hustab import cli, products

ROOT = Path(__file__).resolve().parents[2]


def _fingerprint(jobs):
    return [(j.argv("S", "O"), j.label, j.spec.to_json() if j.spec else None) for j in jobs]


@pytest.mark.parametrize("workload", sorted(workloads.ROUNDS))
def test_generator_is_deterministic_per_seed(workload):
    a = _fingerprint(workloads.round_jobs(workload, 7, 2))
    b = _fingerprint(workloads.round_jobs(workload, 7, 2))
    assert a == b
    assert a != _fingerprint(workloads.round_jobs(workload, 8, 2))
    assert a != _fingerprint(workloads.round_jobs(workload, 7, 3))
    assert _fingerprint([workloads.warmup_job(workload, 7)]) == _fingerprint([workloads.warmup_job(workload, 7)])


def test_classify_survey_never_repeats_a_job():
    jobs = [j for k in (1, 2) for j in workloads.round_jobs("classify_survey", 3, k)]
    assert len(set(map(str, _fingerprint(jobs)))) == len(jobs)


def test_unimodular_cycles_sum_to_exact_zero():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = workloads.unimodular_cycle(rng)
        assert math.fsum(math.log(abs(x)) for x in a) == 0.0


def _span(name, parent, start, end, job=0):
    return spans.Span(name, parent, job, start, end)


def test_self_times_on_nested_spans():
    s = [
        _span("root", -1, 0, 100),
        _span("a", 0, 10, 40),
        _span("a.inner", 1, 20, 30),
        _span("b", 0, 50, 90),
    ]
    assert spans.self_times(s) == [30, 20, 10, 40]
    assert sum(spans.self_times(s)) == 100


def test_self_times_count_overlapping_children_once():
    s = [_span("root", -1, 0, 100), _span("a", 0, 10, 60), _span("b", 0, 40, 80), _span("c", 0, 95, 120)]
    assert spans.self_times(s)[0] == 100 - 70 - 5


def test_summarize_checks_self_sum_per_job():
    s = [_span("root", -1, 0, 100, job=0), _span("a", 0, 10, 40, job=0), _span("root", -1, 200, 250, job=1)]
    summary = spans.summarize(s)
    assert summary["jobs"] == 2
    assert summary["self_sum_mismatched_jobs"] == 0
    assert summary["layers"]["root"]["calls"] == 2
    assert summary["layers"]["root"]["self_ns"] == 70 + 50


def test_write_lists_every_span_with_its_self_time(tmp_path):
    s = [_span("root", -1, 0, 100), _span("a", 0, 10, 40)]
    spans.write(s, tmp_path / "spans.jsonl")
    rows = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert [(r["name"], r["parent"], r["self_ns"]) for r in rows] == [("root", -1, 70), ("a", 0, 30)]


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def test_tracing_rebinds_imported_names_and_restores_them():
    original = products.build_ledger
    rec = spans.Recorder()
    with spans.tracing(rec):
        assert cli.build_ledger is not original
        rec.job = 0
        with rec.span("bench.job"):
            code, _ = _cli(["classify", "--builtin", "near_parabolic", "--horizon", "2000"])
    assert code == 0
    assert cli.build_ledger is original and products.build_ledger is original
    summary = spans.summarize(rec.spans)
    layers = summary["layers"]
    for name in ("cli.main", "classify.classify", "classify.classify_numeric", "products.build_ledger",
                 "products.tracking_sum_max"):
        assert layers[name]["calls"] == 1, name
    assert layers["products.build_ledger"]["size"] == 2000
    assert summary["self_sum_mismatched_jobs"] == 0


def test_counting_counts_one_call_per_ledger_index():
    counts = Counter()
    with spans.counting(counts):
        _cli(["classify", "--builtin", "sparse3_squares", "--horizon", "3000"])
    assert counts == {"sequences.coeff_full": 3000}


def _job(command, horizon, **kw):
    return workloads.Job(command, horizon, **kw)


def _shadow(tmp_path, *builtin, horizon=300):
    out = tmp_path / "s.csv"
    job = _job("shadow", horizon, builtin=builtin, flags=("--seed", "1"))
    code, stdout = _cli(job.argv("", str(out)))
    return job, code, stdout, out.read_bytes()


def _rewrite_csv(data: bytes, fn) -> bytes:
    lines = data.decode().strip().split("\n")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    rows = fn(np.array(rows))
    body = "\n".join(",".join(repr(float(x)) for x in row) for row in rows)
    return (lines[0] + "\n" + body + "\n").encode()


def test_shadow_check_passes_contracting_and_flags_flipped_z(tmp_path):
    job, code, stdout, csv = _shadow(tmp_path, "period3_2_i_third")
    assert checks.check(job, code, stdout, csv) == []

    def flip(rows):
        rows[:, 1:3] *= -1.0
        return rows

    assert checks.check(job, code, stdout, _rewrite_csv(csv, flip)) == ["shadow.csv_mismatch:equal_start"]


def test_shadow_check_flags_violated_bound_and_exit_code(tmp_path):
    job, code, stdout, csv = _shadow(tmp_path, "period3_2_i_third")
    doc = json.loads(stdout)
    doc["bound_satisfied"] = False
    assert checks.check(job, code, json.dumps(doc), csv) == ["shadow.bound_violated:equal_start"]
    assert checks.check(job, 1, "", b"") == ["exit_code:1"]


def test_shadow_check_finds_the_expanding_sign_defect(tmp_path):
    job, code, stdout, csv = _shadow(tmp_path, "constant", "--a", "2", horizon=200)
    assert "shadow.csv_mismatch:reciprocal_series" in checks.check(job, code, stdout, csv)


def _witness(tmp_path):
    out = tmp_path / "w.csv"
    job = _job("witness", 400, builtin=("alternating_2_half",), flags=("--epsilon", "1"))
    code, stdout = _cli(job.argv("", str(out)))
    return job, code, stdout, out.read_bytes()


def test_witness_check_flags_decreasing_curve_and_low_growth(tmp_path):
    job, code, stdout, csv = _witness(tmp_path)
    assert checks.check(job, code, stdout, csv) == []

    def dip(rows):
        rows[-2, 1] = rows[-1, 1] * 2.0
        return rows

    assert checks.check(job, code, stdout, _rewrite_csv(csv, dip)) == ["witness.curve_decreasing"]
    doc = json.loads(stdout)
    doc["growth_factor"] = 2.5
    assert checks.check(job, code, json.dumps(doc), csv) == ["witness.growth_below_3"]


def test_classify_checks_flag_wrong_verdict_and_estimates():
    spec = workloads.Spec("periodic", np.array([2.0, 0.5], dtype=complex), np.array([1.0, 1.0], dtype=complex))
    job = _job("classify", 1000, spec=spec)
    stable = json.dumps({"status": "Stable", "estimates": {}})
    assert checks.check(job, 0, stable, b"") == ["classify.exact_verdict:Stable"]
    assert checks.check(job, 0, json.dumps({"status": "Unstable", "estimates": {}}), b"") == []

    num = _job("classify", 5000, builtin=("sparse3_squares",))
    code, stdout = _cli(num.argv("", ""))
    assert checks.check(num, code, stdout, b"") == []
    doc = json.loads(stdout)
    doc["estimates"]["log_sup_abs_p"] *= 1.0 + 1e-6
    doc["estimates"]["sup_tracking_sum"] = float("inf")
    assert checks.check(num, code, json.dumps(doc), b"") == [
        "classify.nonfinite_estimate:sup_tracking_sum",
        "classify.log_sup_abs_p",
    ]
    assert checks.check(num, 1, "", b"") == ["exit_code:1"]


def test_benchmark_json_lists_the_metrics_run_prints():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in doc["workloads"]) == sorted(workloads.ROUNDS)

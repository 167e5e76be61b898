#!/usr/bin/env python3
"""hustab benchmark: seeded CLI workloads, end-to-end metrics, traced per-layer run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (any directory works; paths are resolved from
this file). Each job is ``hustab.cli.main(argv)`` called in this one
single-threaded process, closed loop, one job at a time, with BLAS threads
pinned to 1; the program is imported from ``src/`` next to this directory.
Every job's output is checked by the naive oracles in ``checks.py``.

--trace 0 measures the end-to-end metrics. --trace 1 runs part of the time
untraced and then the same rounds traced, reports the per-layer metrics,
including the tracing overhead, and writes the raw spans to
bench/results/spans-<workload>-seed<seed>.jsonl. A report object (environment, counts,
failure reasons, output digest) is printed first; the last line of stdout
is the result object.
"""

from __future__ import annotations

import os

BLAS_PIN = {
    var: "1"
    for var in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    )
}
os.environ.update(BLAS_PIN)  # before numpy is first imported, here or in a child

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"

SETUP_SAMPLES = 9       # fresh-interpreter imports per run; setup_s is their median
TAIL_BEYOND = 10        # job_s_tail: the slowest time with at least this many beyond it
UNTRACED_SHARE = 0.4    # --trace 1: share of --seconds spent on the untraced rounds

END_TO_END = {
    "setup_s": "s",
    "indices_per_s": "1/s",
    "job_s_p50": "s",
    "job_s_tail": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}

SELF_LAYERS = (
    "products.build_ledger", "products.tracking_sum_max", "products.scaled_cumsum",
    "sequences.spec_from_json",
    "classify.classify", "classify.classify_numeric",
    "dynamics.perturbed_orbit", "dynamics.iterate", "dynamics.residual_ledger",
    "dynamics.shadow_contracting", "dynamics.shadow_expanding", "dynamics.shadow_csv",
    "witness.best_shadow_oracle", "witness.run_witness", "witness.realize_plan",
    "witness.make_witness",
    "cli.main",
)
PER_LAYER = {
    **{f"{name}.self_s": "s/job" for name in SELF_LAYERS},
    "products.build_ledger.ns_per_index": "ns",
    "products.ledgers_per_job": "ledgers/job",
    "sequences.coeff_calls_per_index": "calls/index",
    "cli.output_bytes": "B/job",
    "witness.best_shadow_oracle.calls": "calls/job",
    "witness.oracle_s_per_prefix": "s",
    "trace.overhead_ratio": "ratio",
    "trace.self_sum_mismatched_jobs": "count",
}


def load_program():
    """Import hustab.cli from the sources beside the benchmark, or exit 1."""
    if not (SRC / "hustab" / "cli.py").is_file():
        sys.stderr.write(f"error: no program sources at {SRC / 'hustab'}\n")
        sys.exit(1)
    sys.path.insert(0, str(SRC))
    import hustab.cli

    if Path(hustab.cli.__file__).resolve().parent != (SRC / "hustab").resolve():
        sys.stderr.write(f"error: imported hustab from {hustab.cli.__file__}, not {SRC}\n")
        sys.exit(1)
    return hustab.cli


def measure_setup(work: Path, samples: int = SETUP_SAMPLES) -> list[float]:
    """Seconds for ``import hustab.cli`` in fresh interpreters, after one
    untimed import that fills a bytecode cache under `work`. The cache is
    the benchmark's own, so the figure does not depend on whether the
    caller's environment allows writing bytecode."""
    code = "import time; t = time.perf_counter(); import hustab.cli; print(time.perf_counter() - t)"
    pypath = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p)
    env = dict(os.environ, PYTHONPATH=pypath, PYTHONPYCACHEPREFIX=str(work / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    out = []
    for _ in range(samples + 1):
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
        )
        out.append(float(proc.stdout))
    return out[1:]


@dataclass
class JobResult:
    label: str
    horizon: int
    ns: int
    failures: list[str]
    output_bytes: int
    digest: bytes


class Runner:
    """Runs jobs through one ``main`` in this process; spans them when given a recorder."""

    def __init__(self, main, work: Path, recorder: spans.Recorder | None = None):
        self.main = main
        self.spec_path = work / "spec.json"
        self.out_path = work / "out.csv"
        self.recorder = recorder
        self.jobs = 0

    def _call(self, argv):
        if self.recorder is None:
            return self.main(argv)
        self.recorder.job = self.jobs
        with self.recorder.span("bench.job"):
            return self.main(argv)

    def run(self, job: workloads.Job) -> JobResult:
        if job.spec is not None:
            self.spec_path.write_text(job.spec.to_json())
        # A fresh --out file per job: truncating one whose pages are still being
        # written back would stall the timed job on the disk.
        self.out_path.unlink(missing_ok=True)
        argv = job.argv(str(self.spec_path), str(self.out_path))
        stdout, stderr = io.StringIO(), io.StringIO()
        t0 = time.perf_counter_ns()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = self._call(argv)
        except SystemExit as exc:  # argparse rejecting the argv
            code = f"system_exit:{exc.code}"
        except Exception as exc:  # a traceback is a failed job, not a failed benchmark
            traceback.print_exc(file=sys.stderr)
            code = f"exception:{type(exc).__name__}"
        ns = time.perf_counter_ns() - t0
        self.jobs += 1
        out = self.out_path.read_bytes() if self.out_path.exists() else b""
        text = stdout.getvalue()
        failures = [code] if isinstance(code, str) else checks.check(job, code, text, out)
        body = text.encode()
        digest = hashlib.sha256(body + b"\0" + out + b"\0" + str(code).encode()).digest()
        return JobResult(job.label, job.horizon, ns, failures, len(body) + len(out), digest)


def run_rounds(runner: Runner, workload: str, seed: int, seconds: float | None = None,
               rounds: int | None = None) -> tuple[list[JobResult], int]:
    """Whole rounds, from round 1, until `seconds` have passed or `rounds` are done."""
    results, k, t0 = [], 0, time.monotonic()
    while (k < rounds) if rounds is not None else (k == 0 or time.monotonic() - t0 < seconds):
        k += 1
        results += [runner.run(job) for job in workloads.round_jobs(workload, seed, k)]
    return results, k


def indices_per_s(results: list[JobResult]) -> float:
    return sum(r.horizon for r in results) / (sum(r.ns for r in results) / 1e9)


def correctness(results: list[JobResult]) -> dict:
    reasons = Counter(f for r in results for f in r.failures)
    failed = sum(1 for r in results if r.failures)
    return {
        "correct": all(reason in checks.KNOWN_SEED_DEFECTS for reason in reasons),
        "attempted": len(results),
        "failed": failed,
        "failed_ratio": failed / len(results),
        "failure_reasons": dict(sorted(reasons.items())),
        "failed_by_slot": dict(sorted(Counter(r.label for r in results if r.failures).items())),
    }


def outputs_digest(results: list[JobResult]) -> str:
    """sha256 over the given jobs' outputs; same seed and same code give the same digest."""
    h = hashlib.sha256()
    for r in results:
        h.update(r.digest)
    return h.hexdigest()


def end_to_end(results: list[JobResult], setup: list[float], report: dict) -> dict:
    times = sorted(r.ns / 1e9 for r in results)
    n = len(times)
    tail_at = max(0, n - TAIL_BEYOND - 1)
    report.update(
        jobs=n,
        total_indices=sum(r.horizon for r in results),
        job_s_tail_percentile=100.0 * tail_at / n if n > TAIL_BEYOND else 100.0,
        job_s_tail_samples_beyond=n - 1 - tail_at,
        setup_samples_s=setup,
    )
    by_slot = {}
    for r in results:
        by_slot.setdefault(r.label, []).append(r.ns / 1e9)
    report["slot_median_s"] = {label: statistics.median(t) for label, t in sorted(by_slot.items())}
    return {
        "setup_s": statistics.median(setup),
        "indices_per_s": indices_per_s(results),
        "job_s_p50": statistics.median(times),
        "job_s_tail": times[tail_at],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_ratio": sum(1 for r in results if not r.failures) / len(results),
    }


def per_layer(recorder: spans.Recorder, traced: list[JobResult], untraced: list[JobResult],
              coeff_calls: int, counted_indices: int, report: dict) -> dict:
    summary = spans.summarize(recorder.spans)
    layers, jobs = summary["layers"], summary["jobs"]
    empty = {"calls": 0, "self_ns": 0, "total_ns": 0, "size": 0}
    get = lambda name: layers.get(name, empty)  # noqa: E731
    metrics = {f"{name}.self_s": get(name)["self_ns"] / 1e9 / jobs for name in SELF_LAYERS}
    ledger, oracle = get("products.build_ledger"), get("witness.best_shadow_oracle")
    metrics.update({
        "products.build_ledger.ns_per_index": ledger["self_ns"] / ledger["size"] if ledger["size"] else 0.0,
        "products.ledgers_per_job": ledger["calls"] / jobs,
        "sequences.coeff_calls_per_index": coeff_calls / counted_indices,
        "cli.output_bytes": sum(r.output_bytes for r in traced) / len(traced),
        "witness.best_shadow_oracle.calls": oracle["calls"] / jobs,
        "witness.oracle_s_per_prefix": oracle["total_ns"] / 1e9 / oracle["calls"] if oracle["calls"] else 0.0,
        "trace.overhead_ratio": indices_per_s(traced) / indices_per_s(untraced),
        "trace.self_sum_mismatched_jobs": summary["self_sum_mismatched_jobs"],
    })
    total_self = sum(v["self_ns"] for v in layers.values())
    report["self_share"] = {
        name: round(v["self_ns"] / total_self, 6)
        for name, v in sorted(layers.items(), key=lambda kv: -kv[1]["self_ns"])
    }
    report.update(traced_jobs=jobs, untraced_jobs=len(untraced), counted_indices=counted_indices,
                  coeff_calls=coeff_calls)
    return metrics


def traced_run(main, runner: Runner, work: Path, args, report: dict):
    """Untraced rounds for a share of the time, the same rounds traced, then
    round 1 once more with the per-index calls counted. Writes the spans out."""
    untraced, k = run_rounds(runner, args.workload, args.seed, seconds=args.seconds * UNTRACED_SHARE)
    recorder = spans.Recorder()
    with spans.tracing(recorder):
        traced, _ = run_rounds(Runner(main, work, recorder), args.workload, args.seed, rounds=k)
    counts = Counter()
    first_round = workloads.round_jobs(args.workload, args.seed, 1)
    with spans.counting(counts):
        for job in first_round:
            runner.run(job)
    path = BENCH_DIR / "results" / f"spans-{args.workload}-seed{args.seed}.jsonl"
    path.parent.mkdir(exist_ok=True)
    spans.write(recorder.spans, path)
    report["spans_file"] = str(path.relative_to(BENCH_DIR.parent))
    metrics = per_layer(recorder, traced, untraced, sum(counts.values()), sum(j.horizon for j in first_round), report)
    return untraced + traced, k, metrics


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas_pin": BLAS_PIN,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.ROUNDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cli = load_program()
    report = {"environment": environment(args)}
    work = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR))
    try:
        runner = Runner(cli.main, work)
        runner.run(workloads.warmup_job(args.workload, args.seed))
        if args.trace:
            results, k, metrics = traced_run(cli.main, runner, work, args, report)
            units = PER_LAYER
        else:
            setup = measure_setup(work)
            results, k = run_rounds(runner, args.workload, args.seed, seconds=args.seconds)
            metrics = end_to_end(results, setup, report)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    verdict = correctness(results)
    round1 = results[: len(workloads.round_jobs(args.workload, args.seed, 1))]
    report.update(rounds=k, outputs_sha256_round1=outputs_digest(round1), **verdict)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": verdict["correct"],
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 bench/collect.py --workloads classify_survey shadow_stable \\
        --seeds 1 2 3 4 5 6 7 8 9 10 --seconds 30 [--trace 1] [--out FILE]

Runs ``run.py`` once per (workload, seed), one at a time, and prints per
workload and metric the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread (interquartile distance / median), with each run's result.
This is how the baseline in ``baseline.json`` was measured.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return {"report": json.loads(lines[-2])["report"], "result": json.loads(lines[-1])}


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    summary = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            run = run_once(workload, seed, args.seconds, args.trace)
            runs.append({"seed": seed, **run})
            metrics = {k: round(v["value"], 6) for k, v in run["result"]["metrics"].items()}
            print(workload, seed, run["result"]["correct"], run["result"]["attempted"],
                  run["result"]["failed"], json.dumps(metrics), flush=True)
        names = runs[0]["result"]["metrics"]
        stats = {
            name: spread([r["result"]["metrics"][name]["value"] for r in runs]) for name in names
        }
        for name, st in stats.items():
            print(f"  {workload} {name}: median {st['median']:.6g}  spread {st['spread']:.4f}", flush=True)
        summary[workload] = {"stats": stats, "runs": runs}
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Divergence curves for the unstable builtins.

For each unstable example, build the module's witness plan, run the
perturbed orbit, and dump the best-shadow divergence curve to CSV. The
growth factor across a quadrupled horizon is the operational instability
signature (bounded for stable specs, >= 3 here).
"""

import argparse
import json
import sys
from pathlib import Path

import hustab as hs

CASES = [
    ("alternating_2_half", {}),
    ("near_parabolic", {"alpha": 0.0}),
    ("near_parabolic", {"alpha": 1 / 3}),
    ("sparse3_squares", {}),
]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--horizon", type=int, default=4000)
    ap.add_argument("--epsilon", type=float, default=1.0)
    ap.add_argument("--outdir", type=Path, default=Path("divergence_curves"))
    args = ap.parse_args()

    args.outdir.mkdir(parents=True, exist_ok=True)
    for name, params in CASES:
        spec = hs.builtin_example(name, **params)
        verdict = hs.classify(spec)
        ledger = hs.build_ledger(spec, args.horizon)
        plan = hs.make_witness(ledger, verdict.criterion, args.epsilon)
        curve = hs.run_witness(spec, plan, args.horizon, ledger=ledger)
        tag = name if not params else f"{name}_{next(iter(params.values()))}"
        (args.outdir / f"{tag}.csv").write_text(curve.to_csv())
        from_n, to_n, factor = curve.growth_factor()
        sys.stdout.write(json.dumps({
            "name": name,
            "plan": plan.to_json(),
            "growth_from_n": from_n,
            "growth_to_n": to_n,
            "growth_factor": factor,
        }, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

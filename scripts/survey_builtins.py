#!/usr/bin/env python3
"""Classify every builtin example and tabulate verdicts and constants.

Writes one JSON line per spec to stdout (or --out); the verdict carries
the tracking constant of the Stable ones. Deterministic.
"""

import argparse
import json
import sys
from pathlib import Path

import hustab as hs

CASES = [
    ("alternating_2_half", {}),
    ("period3_2_i_third", {}),
    ("near_parabolic", {"alpha": 0.0}),
    ("near_parabolic", {"alpha": 1 / 3}),
    ("sparse3_periodic", {"p": 1}),
    ("sparse3_periodic", {"p": 3}),
    ("sparse3_periodic", {"p": 7}),
    ("sparse3_squares", {}),
    ("constant", {"a": 0.5, "b": 5}),
    ("constant", {"a": 1, "b": 0}),
    ("constant", {"a": 2, "b": 5}),
]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--horizon", type=int, default=10_000)
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args()

    lines = []
    for name, params in CASES:
        spec = hs.builtin_example(name, **params)
        verdict = hs.classify(spec, args.horizon)
        row = {
            "name": name,
            "params": {k: (v if not isinstance(v, complex) else [v.real, v.imag]) for k, v in params.items()},
            "verdict": verdict.to_json(),
        }
        lines.append(json.dumps(row, sort_keys=True))
    text = "\n".join(lines) + "\n"
    if args.out:
        args.out.write_text(text)
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())

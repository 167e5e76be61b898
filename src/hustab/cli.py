"""Command-line front door: classify specs, run orbits, shadows, witnesses.

Exit codes: 0 success, 1 invalid input or refused precondition,
2 Undetermined verdict (distinct from errors so scripts can branch).
Identical configurations, including the seed, produce byte-identical
outputs.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import dynamics, sequences, witness
from .classify import (
    EXPANDING_CRITERIA,
    STABLE,
    UNDETERMINED,
    UNSTABLE,
    HorizonConfig,
    classify,
    log_scaled,
)
from .errors import InvalidSpec, StabilityToolError, TailNotConvergent
from .products import build_ledger


def _horizon_config(cfg: argparse.Namespace) -> HorizonConfig:
    return HorizonConfig(N=cfg.horizon, window=cfg.window, band=cfg.band)


def _build_spec(cfg: argparse.Namespace) -> sequences.CoefficientSpec:
    if (cfg.builtin is None) == (cfg.spec_path is None):
        raise ValueError("give exactly one of --builtin NAME or --spec PATH")
    if cfg.spec_path is not None:
        try:
            data = json.loads(Path(cfg.spec_path).read_text())
        except RecursionError:
            raise InvalidSpec("spec JSON nests too deeply") from None
        return sequences.spec_from_json(data)
    return sequences.builtin_example(cfg.builtin, alpha=cfg.alpha, p=cfg.p, a=cfg.a, b=cfg.b)


def _dump_json(data: dict) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def _emit(cfg: argparse.Namespace, artifact: str, summary: dict) -> None:
    """The artifact (a CSV, or a JSON document) goes to --out when given;
    the JSON summary goes to stdout. Without --out, --format picks which
    of the two streams to print."""
    if cfg.out is not None:
        Path(cfg.out).write_text(artifact)
        sys.stdout.write(_dump_json(summary))
    elif cfg.fmt == "csv":
        sys.stdout.write(artifact)
    else:
        sys.stdout.write(_dump_json(summary))


def _random_perturbations(rng: np.random.Generator, epsilon: float, N: int) -> np.ndarray:
    """epsilon times uniform draws from the closed unit disc, index-aligned."""
    u = rng.uniform(0.0, 1.0, N - 1)
    ang = rng.uniform(0.0, 2.0 * np.pi, N - 1)
    r = np.empty(N, dtype=complex)
    r[0] = np.nan
    r[1:] = epsilon * np.sqrt(u) * np.exp(1j * ang)
    return r


def cmd_classify(cfg: argparse.Namespace) -> int:
    spec = _build_spec(cfg)
    verdict = classify(spec, _horizon_config(cfg))
    doc = verdict.to_json()
    _emit(cfg, _dump_json(doc), doc)  # the verdict is both artifact and summary
    return 2 if verdict.status == UNDETERMINED else 0


def cmd_simulate(cfg: argparse.Namespace) -> int:
    spec = _build_spec(cfg)
    traj = dynamics.iterate(spec, cfg.z1, cfg.horizon)
    csv_text = dynamics.trajectory_csv(traj)
    summary = {
        "command": "simulate",
        "n": cfg.horizon,
        "z1": [cfg.z1.real, cfg.z1.imag],
        "final": [traj.values[-1].real, traj.values[-1].imag],
    }
    _emit(cfg, csv_text, summary)
    return 0


def cmd_shadow(cfg: argparse.Namespace) -> int:
    if cfg.epsilon < 0:
        raise ValueError(f"--epsilon must be >= 0, got {cfg.epsilon}")
    if cfg.tail_tol <= 0:
        raise ValueError(f"--tail-tol must be > 0, got {cfg.tail_tol}")
    spec = _build_spec(cfg)
    N = cfg.horizon
    ledger = build_ledger(spec, N)
    verdict = classify(spec, _horizon_config(cfg), ledger=ledger)
    if verdict.status != STABLE and not cfg.force:
        sys.stderr.write(f"spec is {verdict.status}; pass --force to shadow anyway\n")
        return 1
    rng = np.random.default_rng(cfg.seed)
    r = _random_perturbations(rng, cfg.epsilon, N)
    orbit = dynamics.perturbed_orbit(spec, cfg.z1, r, cfg.epsilon)
    # The verdict's constant bounds the construction it names; a forced
    # fallback to the equal start has no bound.
    log_eps = math.log(cfg.epsilon) if cfg.epsilon > 0 else -math.inf
    log_bound = None if verdict.log_constant is None else verdict.log_constant + log_eps
    construction = "equal_start"
    if verdict.criterion in EXPANDING_CRITERIA:
        construction = "reciprocal_series"
        try:
            result = dynamics.shadow_expanding(orbit, spec, ledger, tail_tol=cfg.tail_tol)
        except TailNotConvergent as exc:
            if not cfg.force:
                sys.stderr.write(f"error: {exc}\n")
                return 1
            construction = "equal_start"
            log_bound = None
            result = dynamics.shadow_contracting(orbit, spec, ledger)
    else:
        result = dynamics.shadow_contracting(orbit, spec, ledger)
    log_sup_error = float(np.nanmax(result.log10_errors)) * math.log(10.0)  # finite past e^709
    summary = {
        "command": "shadow",
        "status": verdict.status,
        "criterion": verdict.criterion,
        "construction": construction,
        "epsilon": cfg.epsilon,
        "horizon": N,
        "seed": cfg.seed,
        **log_scaled("sup_error", log_sup_error),
        **log_scaled("bound", log_bound),
        "bound_satisfied": None if log_bound is None else bool(log_sup_error <= log_bound),
        "tail_estimate": result.tail_estimate,
    }
    _emit(cfg, dynamics.shadow_csv(result, orbit), summary)
    return 0


def cmd_witness(cfg: argparse.Namespace) -> int:
    spec = _build_spec(cfg)
    N = cfg.horizon
    ledger = build_ledger(spec, N)
    verdict = classify(spec, _horizon_config(cfg), ledger=ledger)
    if verdict.status == STABLE and not cfg.force:
        sys.stderr.write("spec is Stable; pass --force to run a witness anyway\n")
        return 1
    if verdict.status == UNSTABLE:
        plan = witness.make_witness(spec, ledger, verdict.criterion, cfg.epsilon)
    else:
        plan = witness.PerturbationPlan(variant="phase_aligned", epsilon=cfg.epsilon)
    curve = witness.run_witness(spec, plan, N, ledger=ledger)
    from_n, to_n, factor = curve.growth_factor()
    summary = {
        "command": "witness",
        "status": verdict.status,
        "criterion": verdict.criterion,
        "plan": plan.to_json(),
        "horizon": N,
        "growth_factor": factor,
        "growth_from_n": from_n,
        "growth_to_n": to_n,
        "final_divergence": float(curve.values[-1]),
    }
    _emit(cfg, curve.to_csv(), summary)
    return 0


def cmd_examples(cfg: argparse.Namespace) -> int:
    if cfg.builtin is not None:
        spec = sequences.builtin_example(cfg.builtin, alpha=cfg.alpha, p=cfg.p, a=cfg.a, b=cfg.b)
        doc = sequences.spec_to_json(spec)
    else:
        doc = {}
        for name in sequences.BUILTIN_NAMES:
            spec = sequences.builtin_example(name, alpha=cfg.alpha, p=cfg.p, a=cfg.a, b=cfg.b)
            doc[name] = sequences.spec_to_json(spec)
    _emit(cfg, _dump_json(doc), doc)
    return 0


_COMMANDS = {
    "classify": cmd_classify,
    "simulate": cmd_simulate,
    "shadow": cmd_shadow,
    "witness": cmd_witness,
    "examples": cmd_examples,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """One parser for every command: they all take the same flags. Built
    on first use and kept: parse_args fills a new namespace per call."""
    p = argparse.ArgumentParser(prog="hustab", description=__doc__)
    p.add_argument("command", choices=tuple(_COMMANDS))
    p.add_argument("--builtin", help="builtin example name")
    p.add_argument("--spec", dest="spec_path", help="path to a spec JSON file")
    p.add_argument("--alpha", type=float, default=0.0, help="near_parabolic rotation parameter")
    p.add_argument("--p", type=int, default=3, help="sparse3_periodic period")
    p.add_argument("--a", type=complex, default=2.0 + 0.0j, help="constant builtin a")
    p.add_argument("--b", type=complex, default=5.0 + 0.0j, help="constant builtin b")
    p.add_argument("--horizon", type=int, default=10_000)
    p.add_argument("--epsilon", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
    p.add_argument("--out", help="output path for the CSV/JSON artifact")
    p.add_argument("--force", action="store_true")
    p.add_argument("--band", type=float, default=0.02)
    p.add_argument("--window", type=float, default=0.5)
    p.add_argument("--z1", type=complex, default=0.0 + 0.0j, help="initial value")
    p.add_argument("--tail-tol", dest="tail_tol", type=float, default=1e-9)
    return p


def _check_finite(cfg: argparse.Namespace) -> None:
    """Refuse a NaN or infinite value of any float or complex flag. argparse
    parses "nan" and "inf" as numbers, and the commands would compute from
    them."""
    for name, value in vars(cfg).items():
        if isinstance(value, (float, complex)) and not cmath.isfinite(value):
            raise ValueError(f"--{name.replace('_', '-')} must be a finite number, got {value}")


def main(argv=None) -> int:
    cfg = _parser().parse_args(argv)
    try:
        _check_finite(cfg)
        return _COMMANDS[cfg.command](cfg)
    except (StabilityToolError, ValueError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())

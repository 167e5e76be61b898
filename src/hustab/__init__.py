"""Hyers-Ulam stability analysis for z_{n+1} = a_n z_n + b_n over the complexes.

Classifies coefficient sequences by the growth of their partial products,
constructs the shadow orbits that witness stability and the adversarial
perturbations that witness instability, and verifies every bound
numerically at finite horizons.
"""

from .classify import (
    StabilityVerdict,
    classify,
    classify_numeric,
    classify_periodic,
)
from .dynamics import (
    PerturbedOrbit,
    ShadowResult,
    Trajectory,
    iterate,
    perturbed_orbit,
    shadow_contracting,
    shadow_expanding,
)
from .products import (
    PartialProductLedger,
    build_ledger,
    tracking_sum_max,
)
from .sequences import (
    BUILTIN_NAMES,
    CoefficientSpec,
    builtin_example,
    coeff_arrays,
    constant_spec,
    periodic_spec,
    spec_from_json,
    spec_to_json,
    table_spec,
    validate,
)
from .witness import (
    DivergenceCurve,
    OracleResult,
    PerturbationPlan,
    best_shadow_oracle,
    make_witness,
    realize_plan,
    run_witness,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

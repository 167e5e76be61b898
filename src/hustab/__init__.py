"""Hyers-Ulam stability analysis for z_{n+1} = a_n z_n + b_n over the complexes.

Classifies coefficient sequences by the growth of their partial products,
constructs the shadow orbits that witness stability and the adversarial
perturbations that witness instability, and verifies every bound
numerically at finite horizons.
"""

from .classify import (
    HorizonConfig,
    StabilityVerdict,
    classify,
    classify_numeric,
    classify_periodic,
)
from .dynamics import (
    PerturbedOrbit,
    ResidualLedger,
    ShadowResult,
    Trajectory,
    closed_form_curve,
    iterate,
    perturbed_orbit,
    residual_ledger,
    second_order_reduce,
    shadow_contracting,
    shadow_expanding,
)
from .products import (
    PartialProduct,
    PartialProductLedger,
    balance_ratio,
    build_ledger,
    geometric_mean_exponent,
    partial_product,
    subexponential_ratio,
    tracking_sum,
    tracking_sum_max,
)
from .sequences import (
    BUILTIN_NAMES,
    CoefficientSpec,
    builtin_example,
    coeff_arrays,
    coeff_at,
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

"""Desk-scale numerics for gauge norms on finite tracial models.

Computes generalized singular values, Luxemburg / Amemiya / weighted gauge
norms, rearrangement pairings, exponential-moment regularity, and the
composition operators induced by block Jordan *-morphisms, together with a
verification suite for every identity and inequality the machinery rests on.
"""

from .algebra import (
    AlgebraElement,
    TracedAlgebra,
    abs_value,
    apply_function,
    apply_function_many,
    is_projection,
    projection_trace_norm,
    trace,
)
from .errors import (
    DomainError,
    InvalidOrliczError,
    NcorliczError,
    NotMeasurableError,
    NumericError,
    SpecError,
    StructuralError,
    UnboundedNormError,
    UndecidedError,
)
from .morphisms import (
    Assignment,
    BlockImage,
    JordanMorphism,
    KrausGroup,
    PositiveMap,
    absolute_continuity_check,
    apply_jordan,
    build_tau_T,
    composition_bound_check,
    interpolation_contraction_check,
    modular_chain_check,
    modular_chain_checks,
    purity_check,
    radon_nikodym,
)
from .norms import (
    amemiya_norm,
    amemiya_norms,
    holder_check,
    holder_checks,
    kunze_norm,
    kunze_norms,
    laplace_probe,
    luxemburg_norm,
    luxemburg_norms,
    modular,
    moment_bound_check,
    moment_bound_checks,
    pairing_integral,
    pistone_sempi_equivalence,
    quant_membership,
    tau_x,
)
from .orlicz import (
    Delta2Report,
    OrliczFunction,
    compose_orlicz,
    conjugate,
    cosh_minus_one,
    custom,
    delta2_probe,
    eval_gauge,
    exp_minus_one,
    formal_inverse,
    linear_until_cap,
    power,
    power_over_p,
    t_log1p,
    zero_then_linear,
)
from .rearrangement import (
    ParametricForm,
    StepForm,
    WeightedContext,
    constant,
    exp_decay,
    fack_kosaki_checks,
    log_reciprocal,
    power_decay,
    rearrange_step,
    reciprocal,
    singular_values,
    singular_values_many,
    submajorizes,
    weighted_rearrangement,
)
from .verify import CHECKS, SuiteConfig, Tolerances, run_suite

__version__ = "0.1.0"

"""scenrisk: scenario-space engine for transformed-norm risk measures.

Finite probability spaces stand in for general ones; on them the package
evaluates AVaR and the transformed-norm family, extends functionals through
conditional-expectation coarsenings, and numerically certifies the extension,
dual-representation and Kusuoka-mixture identities.
"""

from .duality import (
    Density,
    MixingMeasure,
    conjugate_dilatation_check,
    conjugate_sharp,
    dual_higher_order,
    fenchel_gap,
    kusuoka_constraint,
    kusuoka_value,
    t_sharp_eta,
)
from .errors import (
    CoercivityError,
    InvalidOrliczError,
    ParameterError,
    ScenRiskError,
    SpaceMismatchError,
    SpaceTooCoarseError,
    UnresolvedConjugateError,
    UnsupportedSpaceError,
)
from .extension import (
    ConvergencePoint,
    ExtensionResult,
    discretization_slack,
    extend_sup,
    lemma21_sequence,
    random_partition,
    refinement_convergence,
)
from .harness import (
    DEFAULT_SEED,
    BatteryConfig,
    CheckRecord,
    RunReport,
    ScenarioTable,
    emit_report,
    ingest_csv,
    run_battery,
)
from .orlicz import (
    HFunction,
    OrliczFunction,
    cap_at,
    conjugate,
    conjugate_value_numeric,
    custom,
    custom_h,
    exp_minus_one,
    exponential,
    g_inv_one,
    linear,
    luxemburg_norm,
    orlicz_norm,
    positive_part,
    power,
    validate_orlicz,
)
from .prob_core import (
    FiniteProbSpace,
    Partition,
    RandomVariable,
    cell_shuffle_average,
    cond_exp,
    dyadic_chain,
    full_cycle,
    quantile_var,
    refine,
)
from .risk_core import (
    OrliczTriple,
    RiskFunctional,
    TriState,
    avar,
    avar_many,
    cash_hull,
    f_transformed,
    fgh1_check,
    fgh2_check,
    higher_order_T,
    transformed_T,
)

__version__ = "0.1.0"

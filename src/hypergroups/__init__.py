"""Exact computation in discrete fusion hypergroups arising as duals of compact groups."""

from .core import (
    AxiomReport,
    AxiomViolationError,
    CapacityError,
    FiniteFunction,
    FiniteMeasure,
    Hypergroup,
    HypergroupError,
    InternalInvariantError,
    InvalidTableError,
    LabelDomainError,
    NumericError,
    UsageError,
    check_axioms,
    convolve_h,
    exact,
    involute,
    support_product,
)
from .duals import (
    CharacterTable,
    ExactComplex,
    FiniteDual,
    ProductDual,
    Su2Dual,
    builtin_table,
    central_function,
    finite_group_dual,
    load_character_table,
    parse_character_table,
    product_dual,
    su2_dual,
)
from .fourier import (
    BumpFunction,
    QuadratureConfig,
    Su2IntervalBump,
    a_norm,
    a_norm_exact_finite,
    a_norm_su2,
    bump,
    lp_h_norm,
)
from .leptin import (
    LeptinCertificate,
    leptin_product,
    leptin_ratio,
    leptin_search,
    leptin_search_exhaustive,
    leptin_search_greedy,
    leptin_search_interval,
)
from .segal import (
    BlowupReport,
    CheckReport,
    WitnessSequence,
    blowup_report,
    build_witness,
    check_multiplier_bounded,
)

__version__ = "0.1.0"

__all__ = [
    "AxiomReport", "AxiomViolationError", "BlowupReport", "BumpFunction",
    "CapacityError", "CharacterTable", "CheckReport",
    "ExactComplex", "FiniteDual", "FiniteFunction", "FiniteMeasure",
    "Hypergroup", "HypergroupError", "InternalInvariantError",
    "InvalidTableError", "LabelDomainError", "LeptinCertificate",
    "NumericError", "ProductDual", "QuadratureConfig", "Su2Dual",
    "Su2IntervalBump", "UsageError", "WitnessSequence",
    "a_norm", "a_norm_exact_finite", "a_norm_su2", "blowup_report", "builtin_table",
    "bump", "build_witness", "central_function", "check_axioms",
    "check_multiplier_bounded", "convolve_h",
    "exact", "finite_group_dual", "involute", "leptin_product", "leptin_ratio",
    "leptin_search", "leptin_search_exhaustive", "leptin_search_greedy",
    "leptin_search_interval", "load_character_table", "lp_h_norm",
    "parse_character_table", "product_dual",
    "su2_dual", "support_product",
]

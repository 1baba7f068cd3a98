"""Symbolic-numeric wave splitting in anisotropic acoustic media.

The package computes the polyhomogeneous expansion of the acoustic
admittance symbol for heterogeneous anisotropic instantaneously
reacting media, derives the one-way generators and composition maps of
the up/down splitting (approximate eta=0 and true-amplitude eta=1),
verifies everything against independent oracles, and applies the
splitting in spectral depth propagation on the transverse torus.
"""

from .expr import (
    DivisionByZeroError,
    EvalError,
    Expr,
    ExprError,
    ParseError,
    SqrtDomainError,
    UnboundVariableError,
    VarId,
    const,
    diff,
    eval_expr,
    free_vars,
    node_count,
    parse,
    taylor_eval,
    to_text,
    variable,
)
from .medium import (
    MediumError,
    MediumSpec,
    SchurData,
    ValidationReport,
    is_depth_independent,
    is_homogeneous,
    load_medium,
    schur,
    validate,
)
from .symbols import (
    SymbolError,
    SymbolForm,
    SymbolMatrix22,
    TransverseGrid,
    apply_systems_operator,
    compose_degree_part,
    quantize_apply,
    random_smooth_field,
    spectral_derivative,
    symbol_total,
    systems_symbols,
)
from .expansion import (
    MAX_ORDER,
    AdmittanceExpansion,
    ExpansionError,
    SplitSymbols,
    collector_step,
    expand,
    gamma1,
    leading_term,
    riccati_degree_part,
    split_symbols,
)
from .normalization import (
    NormalizationError,
    NormalizationSpec,
    apply_normalization,
    apply_normalization_symbols,
    symbol_inverse,
)
from .oracle import (
    DEFAULT_LAMBDAS,
    GlancingIncidenceError,
    GridOracleResult,
    OracleError,
    OrderClaimReport,
    QuadRoots,
    ResidualReport,
    SpectralGapError,
    draw_probe_points,
    fit_loglog,
    grid_riccati_oracle,
    operator_distance,
    order_claim_check,
    quad_oracle,
    riccati_residual,
)
from .propagate import (
    PropagationError,
    decompose_homogeneous,
    full_solve,
    oneway_solve,
    recompose,
)
from . import presets

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "presets",
    # expressions
    "Expr",
    "VarId",
    "ExprError",
    "ParseError",
    "EvalError",
    "UnboundVariableError",
    "DivisionByZeroError",
    "SqrtDomainError",
    "const",
    "variable",
    "parse",
    "to_text",
    "eval_expr",
    "taylor_eval",
    "diff",
    "free_vars",
    "node_count",
    # media
    "MediumSpec",
    "MediumError",
    "SchurData",
    "ValidationReport",
    "load_medium",
    "validate",
    "schur",
    "is_homogeneous",
    "is_depth_independent",
    # symbols
    "SymbolForm",
    "SymbolMatrix22",
    "SymbolError",
    "TransverseGrid",
    "systems_symbols",
    "compose_degree_part",
    "quantize_apply",
    "symbol_total",
    "spectral_derivative",
    "random_smooth_field",
    # expansion
    "MAX_ORDER",
    "AdmittanceExpansion",
    "SplitSymbols",
    "ExpansionError",
    "gamma1",
    "leading_term",
    "expand",
    "collector_step",
    "riccati_degree_part",
    "split_symbols",
    # normalization
    "NormalizationError",
    "NormalizationSpec",
    "symbol_inverse",
    "apply_normalization",
    "apply_normalization_symbols",
    # oracles
    "OracleError",
    "GlancingIncidenceError",
    "SpectralGapError",
    "ResidualReport",
    "QuadRoots",
    "GridOracleResult",
    "OrderClaimReport",
    "riccati_residual",
    "quad_oracle",
    "grid_riccati_oracle",
    "operator_distance",
    "order_claim_check",
    "draw_probe_points",
    "fit_loglog",
    "DEFAULT_LAMBDAS",
    # propagation
    "PropagationError",
    "apply_systems_operator",
    "full_solve",
    "oneway_solve",
    "recompose",
    "decompose_homogeneous",
]

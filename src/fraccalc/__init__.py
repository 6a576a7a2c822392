"""Numerical engine for left-sided fractional calculus on an interval.

The library parses one-variable expressions, computes Riemann-Liouville
integrals and derivatives (plus the Caputo form) with one product rule
on a uniform grid, locates fractional mean values and critical points,
traces how the largest critical point migrates with the order, and runs
sampled shape analysis (windowed monotone order, convexity bridging,
step-monotonicity certificates, periodicity-defect measurements).
"""

__version__ = "0.1.0"

from .errors import (
    AssumptionError,
    DomainError,
    FracCalcError,
    HypothesisError,
    MeanValueNotFoundError,
    ParseError,
    SolverError,
    UnknownIdentifierError,
)
from .expr import Expression, TaylorJet, derivative_values, derivatives, parse
from .fracops import (
    ADAPTIVE_ORACLE,
    PRODUCT_TRAPEZOID,
    FractionalParams,
    OperatorValue,
    caputo_derivative,
    f_lower,
    gamma,
    integral_on_grid,
    rl_derivative,
    rl_integral,
)
from .meanval import (
    MeanValueResult,
    PolynomialEstimate,
    mean_value,
    mean_value_polynomial,
    mean_path_witness,
    xi_smoothness_profile,
)
from .critical import (
    CriticalPointReport,
    DilationResult,
    OrderDualityResult,
    RAlphaCurve,
    RAlphaSample,
    DerivativeZeroResult,
    critical_points,
    dilation_scenario,
    order_duality_check,
    r_alpha_curve,
    derivative_zero_before,
)
from .shape import (
    ConvexityReport,
    ShapeVerdict,
    Violation,
    WindowPairSample,
    comparison_check,
    convexity_equivalence,
    delta_increasing_check,
    monotonicity_certificate,
    periodicity_defect,
    property_P_check,
    sample_window_pairs,
)

__all__ = [
    "__version__",
    # errors
    "AssumptionError", "DomainError", "FracCalcError", "HypothesisError",
    "MeanValueNotFoundError", "ParseError", "SolverError", "UnknownIdentifierError",
    # expressions
    "Expression", "TaylorJet", "parse", "derivatives", "derivative_values",
    # operators
    "ADAPTIVE_ORACLE", "PRODUCT_TRAPEZOID", "FractionalParams", "OperatorValue",
    "gamma", "rl_integral", "rl_derivative", "caputo_derivative",
    "f_lower", "integral_on_grid",
    # mean values
    "MeanValueResult", "PolynomialEstimate", "mean_value", "mean_value_polynomial",
    "xi_smoothness_profile", "mean_path_witness",
    # critical points
    "CriticalPointReport", "RAlphaSample", "RAlphaCurve", "DerivativeZeroResult",
    "OrderDualityResult", "DilationResult", "critical_points", "order_duality_check",
    "derivative_zero_before", "r_alpha_curve", "dilation_scenario",
    # shape analysis
    "WindowPairSample", "Violation", "ShapeVerdict", "ConvexityReport", "sample_window_pairs",
    "delta_increasing_check", "property_P_check", "convexity_equivalence",
    "monotonicity_certificate", "comparison_check", "periodicity_defect",
]

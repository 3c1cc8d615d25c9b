"""Forward variable selection for sparse varying coefficient models.

Coefficient functions are approximated with a clamped equi-spaced B-spline
basis; candidates are added greedily by the drop in the residual variance
and selection stops through a BIC/EBIC rule with a patience window. A
simulation laboratory reproduces the built-in synthetic benchmarks.
"""

from .data import Dataset, from_arrays, load_csv
from .errors import (
    ConfigError,
    DataError,
    DegenerateCandidateError,
    NoCandidateError,
    NumericalError,
    OverparameterizedError,
    SingularDesignError,
)
from .regression import (
    FitResult,
    ProjectionCache,
    build_projection_cache,
    coefficient_curve,
    extend_cache,
    fit_full,
    predict_response,
    rss_reduction,
)
from .selection import (
    EbicConfig,
    SelectionStep,
    SelectionTrace,
    auto_eta,
    ebic,
    marginal_rank_screen,
    run_forward,
    select_candidate,
)
from .simulation import (
    AggregateMetrics,
    RepMetrics,
    SimScenario,
    aggregate,
    evaluate_rep,
    generate,
    robust_sd,
    run_rep,
    snr,
    true_correlations,
)
from .splines import (
    DesignBlock,
    SplineBasis,
    basis_matrix,
    build_basis,
    design_block,
)

__version__ = "0.1.0"

__all__ = [
    "AggregateMetrics",
    "ConfigError",
    "DataError",
    "Dataset",
    "DegenerateCandidateError",
    "DesignBlock",
    "EbicConfig",
    "FitResult",
    "NoCandidateError",
    "NumericalError",
    "OverparameterizedError",
    "ProjectionCache",
    "RepMetrics",
    "SelectionStep",
    "SelectionTrace",
    "SimScenario",
    "SingularDesignError",
    "SplineBasis",
    "aggregate",
    "auto_eta",
    "basis_matrix",
    "build_basis",
    "build_projection_cache",
    "coefficient_curve",
    "design_block",
    "ebic",
    "evaluate_rep",
    "extend_cache",
    "fit_full",
    "from_arrays",
    "generate",
    "load_csv",
    "marginal_rank_screen",
    "predict_response",
    "robust_sd",
    "rss_reduction",
    "run_forward",
    "run_rep",
    "select_candidate",
    "snr",
    "true_correlations",
]

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
)
from .selection import (
    EbicConfig,
    SelectionStep,
    SelectionTrace,
    auto_eta,
    ebic,
    marginal_rank_screen,
    run_forward,
)
from .simulation import (
    AggregateMetrics,
    RepMetrics,
    SimScenario,
    aggregate,
    evaluate_rep,
    generate,
    held_out,
    robust_sd,
    run_rep,
    snr,
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
    "DesignBlock",
    "EbicConfig",
    "FitResult",
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
    "held_out",
    "load_csv",
    "marginal_rank_screen",
    "predict_response",
    "robust_sd",
    "run_forward",
    "run_rep",
    "snr",
]

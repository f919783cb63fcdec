"""Context-dependent pairwise preference modeling.

Pairwise comparisons are modeled as logistic outcomes on the feature
difference of the two items, masked to the coordinate subset a selection
function deems salient for that pair.  The package learns the judgment
weights by convex maximum likelihood, builds the implied universal ranking,
diagnoses the intransitivity the masking can create, and computes the
sample-complexity certificates (identifiability, error bounds, thresholds)
that say when the estimate can be trusted.
"""

__version__ = "0.1.0"

from .diagnostics import (
    InconsistencyReport,
    TransitivityReport,
    count_transitivity_violations,
    model_transitivity_report,
    pairwise_inconsistency,
)
from .errors import (
    DimensionError,
    InvalidPairError,
    NotSingleCoordinateError,
    NumericalFailureError,
    ParseError,
    PreconditionError,
    SalientPrefError,
    UndefinedMetricError,
    UnknownItemError,
)
from .estimator import FitConfig, FitResult, fit, max_abs_margin, within_margin_band
from .features import (
    FeatureMatrix,
    center_columns,
    mask,
    min_singular_value_after_centering,
)
from .model import (
    ComparisonDataset,
    Provenance,
    all_pair_probabilities,
    nll,
    nll_gradient,
    nll_hessian,
    sample_comparisons,
    win_probability,
)
from .ranking import (
    Ranking,
    kendall_correlation,
    kendall_distance,
    pairwise_accuracy,
    rank_from_weights,
    subset_kendall,
    utility_gaps,
)
from .selection import RealizedSelection, SelectionSpec, realize
from .theory import (
    FullSelectionBounds,
    GuaranteeCheck,
    IdentifiabilityResult,
    RankingRecoveryBounds,
    SampleComplexityReport,
    SingleCoordinateBounds,
    empirical_guarantee_check,
    full_selection_report,
    identifiability_check,
    ranking_recovery_report,
    sample_complexity_report,
    single_coordinate_report,
)

__all__ = [
    "__version__",
    # features
    "FeatureMatrix",
    "mask",
    "center_columns",
    "min_singular_value_after_centering",
    # selection
    "SelectionSpec",
    "RealizedSelection",
    "realize",
    # model
    "ComparisonDataset",
    "Provenance",
    "win_probability",
    "all_pair_probabilities",
    "sample_comparisons",
    "nll",
    "nll_gradient",
    "nll_hessian",
    # estimator
    "FitConfig",
    "FitResult",
    "fit",
    "max_abs_margin",
    "within_margin_band",
    # ranking
    "Ranking",
    "rank_from_weights",
    "kendall_distance",
    "kendall_correlation",
    "pairwise_accuracy",
    "subset_kendall",
    "utility_gaps",
    # diagnostics
    "TransitivityReport",
    "InconsistencyReport",
    "count_transitivity_violations",
    "model_transitivity_report",
    "pairwise_inconsistency",
    # theory
    "IdentifiabilityResult",
    "SampleComplexityReport",
    "FullSelectionBounds",
    "SingleCoordinateBounds",
    "RankingRecoveryBounds",
    "GuaranteeCheck",
    "identifiability_check",
    "sample_complexity_report",
    "full_selection_report",
    "single_coordinate_report",
    "ranking_recovery_report",
    "empirical_guarantee_check",
    # errors
    "SalientPrefError",
    "DimensionError",
    "InvalidPairError",
    "NotSingleCoordinateError",
    "PreconditionError",
    "UndefinedMetricError",
    "NumericalFailureError",
    "ParseError",
    "UnknownItemError",
]

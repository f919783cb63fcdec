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
from .estimator import FitResult, fit
from .features import FeatureMatrix, center_columns
from .model import (
    ComparisonDataset,
    all_pair_probabilities,
    nll,
    sample_comparisons,
)
from .ranking import (
    Ranking,
    kendall_correlation,
    kendall_distance,
    pairwise_accuracy,
    rank_from_weights,
    subset_kendall,
)
from .selection import RealizedSelection, SelectionSpec, realize
from .theory import (
    FullSelectionBounds,
    RankingRecoveryBounds,
    SampleComplexityReport,
    SingleCoordinateBounds,
    full_selection_report,
    ranking_recovery_report,
    sample_complexity_report,
    single_coordinate_report,
)

__all__ = [
    "__version__",
    # features
    "FeatureMatrix",
    "center_columns",
    # selection
    "SelectionSpec",
    "RealizedSelection",
    "realize",
    # model
    "ComparisonDataset",
    "all_pair_probabilities",
    "sample_comparisons",
    "nll",
    # estimator
    "FitResult",
    "fit",
    # ranking
    "Ranking",
    "rank_from_weights",
    "kendall_distance",
    "kendall_correlation",
    "pairwise_accuracy",
    "subset_kendall",
    # diagnostics
    "TransitivityReport",
    "InconsistencyReport",
    "count_transitivity_violations",
    "pairwise_inconsistency",
    # theory
    "SampleComplexityReport",
    "FullSelectionBounds",
    "SingleCoordinateBounds",
    "RankingRecoveryBounds",
    "sample_complexity_report",
    "full_selection_report",
    "single_coordinate_report",
    "ranking_recovery_report",
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

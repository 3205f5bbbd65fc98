"""Stability analysis of multi-system human-evaluation methodologies.

Simulates rating studies from fully annotated multi-rater datasets under
configurable methodology features (item grouping, load balancing,
normalization, ratings per item, document counts) and scores each
methodology's stability by how often significant system differences are
preserved across repeated studies.
"""

__version__ = "0.1.0"

from .assignment import Grouping, LoadBalancing
from .corpus import RatingDataset, ingest
from .experiment import (
    GeneratorSpec,
    StudyConfig,
    generate_synthetic,
    run_sweep,
    simulate_study,
)
from .scoring import NormalizationScheme, WeightTable, normalize, segment_score, system_means
from .stats import (
    SignificanceMatrix,
    kendall_tau,
    normalized_entropy,
    permutation_test,
    significance_matrix,
    sr,
    srp,
)

__all__ = [
    "__version__",
    "GeneratorSpec",
    "Grouping",
    "LoadBalancing",
    "NormalizationScheme",
    "RatingDataset",
    "SignificanceMatrix",
    "StudyConfig",
    "WeightTable",
    "generate_synthetic",
    "ingest",
    "kendall_tau",
    "normalize",
    "normalized_entropy",
    "permutation_test",
    "run_sweep",
    "segment_score",
    "significance_matrix",
    "simulate_study",
    "sr",
    "srp",
    "system_means",
]

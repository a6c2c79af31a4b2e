"""Probabilistic spatial queries over discretely-uncertain databases.

Exact possible-worlds semantics for small inputs, polynomial-time
Poisson-binomial kernels for per-object probabilities, Monte-Carlo sampling
with representative-result selection, and Apriori-pruned nearest-neighbor
queries over uncertain trajectories.
"""

from .bernoulli import (
    CountDistribution,
    generating_function,
    poisson_binomial_recurrence,
)
from .model import (
    CapExceededError,
    Instance,
    QueryPoint,
    UncertainDatabase,
    UncertainObject,
    UncertainSpatialError,
    ValidationError,
    euclidean_distance,
    load_database,
    loads_database,
)
from .predicates import KnnPredicate, RangePredicate
from .queries import (
    ProbabilisticPredicate,
    RangeQuery,
    in_range_probability,
    knn_object_probability,
    object_probabilities,
    range_count_distribution,
    rank_distribution,
)
from .representatives import (
    alpha_confidence,
    cluster_representatives,
    jaccard_distance,
    max_cover_representatives,
    pam_kmedoids,
    standard_normal_quantile,
)
from .sampling import (
    PossibleResult,
    estimate_object_probabilities,
    estimate_result_probabilities,
    sample_worlds,
)
from .trajectories import (
    ExactTrajectoryBackend,
    SampledTrajectoryBackend,
    TrajectoryDataset,
    UncertainTrajectory,
    load_trajectory_dataset,
    loads_trajectory_dataset,
    maximal_timestamp_sets,
    pc_tau_nn,
    pcnn_query,
)
from .worlds import (
    ResultSet,
    enumerate_worlds,
    evaluate_world,
    object_based,
    object_based_from_result_based,
    query_probability,
    result_based,
    world_count,
)

__version__ = "0.1.0"

"""iCrowd core: estimation, assignment, qualification (the paper's
primary contribution, Sections 3-5)."""

from repro.core.assigner import (
    AdaptiveAssigner,
    TaskBoard,
    TaskState,
    TopWorkerSet,
    greedy_assign,
    scheme_value,
)
from repro.core.config import (
    AssignerConfig,
    EstimatorConfig,
    GraphConfig,
    ICrowdConfig,
    QualificationConfig,
)
from repro.core.estimator import AccuracyEstimator
from repro.core.early_stop import EarlyStopICrowd
from repro.core.framework import ICrowd
from repro.core.graph import SimilarityGraph
from repro.core.hungarian import MatchingAssigner, hungarian, max_accuracy_matching
from repro.core.indexes import SparseEstimateIndex
from repro.core.streaming import FrozenGraph, GrowableGraph, StreamingAssigner
from repro.core.graph_selection import (
    GraphScore,
    score_graph,
    select_similarity,
)
from repro.core.observed import (
    ObservedAccuracyComputer,
    consensus_observed_accuracy,
)
from repro.core.persistence import (
    basis_cache_key,
    load_basis,
    load_checkpoint,
    restore_state,
    save_basis,
    save_checkpoint,
)
from repro.core.optimal import approximation_error, bitmask_optimal
from repro.core.ppr import (
    ConvergenceWarning,
    PPRBasis,
    PushKernel,
    PushStats,
    forward_push,
    forward_push_reference,
    power_iteration,
    solve_exact,
)
from repro.core.qualification import (
    WarmUp,
    influence,
    select_qualification_tasks,
    select_random_tasks,
)
from repro.core.testing import PerformanceTester, beta_variance
from repro.core.types import (
    Answer,
    Assignment,
    Label,
    Task,
    TaskId,
    TaskSet,
    VoteState,
    WorkerId,
)

__all__ = [
    "AccuracyEstimator",
    "AdaptiveAssigner",
    "Answer",
    "Assignment",
    "AssignerConfig",
    "ConvergenceWarning",
    "PushKernel",
    "PushStats",
    "EarlyStopICrowd",
    "EstimatorConfig",
    "FrozenGraph",
    "GraphConfig",
    "ICrowd",
    "GraphScore",
    "GrowableGraph",
    "ICrowdConfig",
    "Label",
    "MatchingAssigner",
    "ObservedAccuracyComputer",
    "PerformanceTester",
    "PPRBasis",
    "QualificationConfig",
    "SimilarityGraph",
    "SparseEstimateIndex",
    "StreamingAssigner",
    "Task",
    "TaskBoard",
    "TaskId",
    "TaskSet",
    "TaskState",
    "TopWorkerSet",
    "VoteState",
    "WarmUp",
    "WorkerId",
    "approximation_error",
    "basis_cache_key",
    "beta_variance",
    "bitmask_optimal",
    "consensus_observed_accuracy",
    "forward_push",
    "forward_push_reference",
    "greedy_assign",
    "hungarian",
    "influence",
    "load_basis",
    "load_checkpoint",
    "max_accuracy_matching",
    "power_iteration",
    "restore_state",
    "save_basis",
    "save_checkpoint",
    "scheme_value",
    "score_graph",
    "select_similarity",
    "select_qualification_tasks",
    "select_random_tasks",
    "solve_exact",
]

"""iCrowd core: estimation, assignment, qualification (the paper's
primary contribution, Sections 3-5)."""

from repro.core.assigner import (
    AdaptiveAssigner,
    TaskState,
    TopWorkerSet,
    compute_top_worker_set,
    compute_top_worker_sets,
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
from repro.core.framework_multi import MultiICrowd, MultiTask
from repro.core.graph import SimilarityGraph
from repro.core.hungarian import MatchingAssigner, hungarian, max_accuracy_matching
from repro.core.multichoice import (
    MultiVoteState,
    multichoice_observed_accuracy,
    plurality_vote,
)
from repro.core.indexes import (
    ScalableAssigner,
    SparseEstimateIndex,
)
from repro.core.streaming import GrowableGraph, StreamingAssigner
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
from repro.core.optimal import (
    approximation_error,
    bitmask_optimal,
    enumerate_optimal,
)
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
    TaskResult,
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
    "GraphConfig",
    "ICrowd",
    "GraphScore",
    "GrowableGraph",
    "ICrowdConfig",
    "Label",
    "MatchingAssigner",
    "MultiICrowd",
    "MultiTask",
    "MultiVoteState",
    "ObservedAccuracyComputer",
    "PerformanceTester",
    "PPRBasis",
    "QualificationConfig",
    "ScalableAssigner",
    "SimilarityGraph",
    "SparseEstimateIndex",
    "StreamingAssigner",
    "Task",
    "TaskId",
    "TaskResult",
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
    "compute_top_worker_set",
    "compute_top_worker_sets",
    "consensus_observed_accuracy",
    "enumerate_optimal",
    "forward_push",
    "forward_push_reference",
    "greedy_assign",
    "hungarian",
    "influence",
    "load_basis",
    "load_checkpoint",
    "max_accuracy_matching",
    "multichoice_observed_accuracy",
    "plurality_vote",
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

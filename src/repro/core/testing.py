"""Worker performance testing (Section 4.1, Step 3).

When a worker is not part of any top worker set — because she is new, or
because she already exhausted the tasks she is demonstrably good at —
the framework *actively* tests her on a microtask chosen by two factors:

1. **Uncertainty** of the current accuracy estimate on the task,
   modelled as the variance of a Beta(N₁+1, N₀+1) posterior where N₁/N₀
   count the worker's (estimated-)correct/incorrect completions among
   tasks similar to the candidate (its graph neighbourhood):

       Var = (N₁+1)(N₀+1) / ((N₁+N₀+2)² (N₁+N₀+3))

2. **Quality of the co-workers** already assigned to the candidate task:
   a test wedged between accurate workers yields a trustworthy consensus
   to grade the tested worker against.

The score is a convex combination of the normalised variance (its
maximum, 1/12, occurs at the uninformed Beta(1, 1)) and the mean
estimated accuracy of the existing workers.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from typing import overload

import numpy as np

from repro.core.assigner import TaskBoard, TaskState
from repro.core.graph import SimilarityGraph
from repro.core.ppr import csr_row_positions
from repro.core.types import TaskId, WorkerId

#: Maximum variance of a Beta(a, b) with a, b >= 1 (attained at a=b=1).
_MAX_BETA_VARIANCE = 1.0 / 12.0

#: Callback returning a worker's sparse observed accuracies ``q^w``.
ObservedLookup = Callable[[WorkerId], Mapping[TaskId, float]]


@overload
def beta_variance(n_correct: float, n_incorrect: float) -> float: ...


@overload
def beta_variance(
    n_correct: np.ndarray, n_incorrect: np.ndarray
) -> np.ndarray: ...


def beta_variance(
    n_correct: float | np.ndarray, n_incorrect: float | np.ndarray
) -> float | np.ndarray:
    """Variance of Beta(n_correct + 1, n_incorrect + 1), elementwise
    for arrays of counts.

    ``n_correct`` / ``n_incorrect`` may be fractional: Eq. (5) grades
    consensus answers with probabilities, so counts are expected values.
    """
    if np.any(np.less(n_correct, 0)) or np.any(np.less(n_incorrect, 0)):
        raise ValueError("counts must be non-negative")
    a = n_correct + 1.0
    b = n_incorrect + 1.0
    total = a + b
    return (a * b) / (total * total * (total + 1.0))


class PerformanceTester:
    """Chooses test microtasks for idle workers.

    Parameters
    ----------
    graph:
        Similarity graph, used to define "tasks similar to the candidate"
        for the uncertainty term.
    observed_of:
        Lookup for a worker's observed accuracies on globally completed
        tasks.
    uncertainty_weight:
        Weight of the variance factor; the co-worker quality factor gets
        the complement.
    prior_accuracy:
        Accuracy assumed for co-workers without an estimate.
    """

    def __init__(
        self,
        graph: SimilarityGraph,
        observed_of: ObservedLookup,
        uncertainty_weight: float = 0.5,
        prior_accuracy: float = 0.5,
    ) -> None:
        if not 0 <= uncertainty_weight <= 1:
            raise ValueError("uncertainty_weight must be in [0, 1]")
        self.graph = graph
        self.observed_of = observed_of
        self.uncertainty_weight = uncertainty_weight
        self.prior_accuracy = prior_accuracy
        self._hoods: tuple[np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------
    def _neighbourhoods(self) -> tuple[np.ndarray, np.ndarray]:
        """Every task's neighbourhood ``{t} ∪ N(t)`` as CSR arrays.

        Task ``t``'s members are ``members[bounds[t]:bounds[t + 1]]``,
        in the iteration order of the set ``{t} | set(row)`` built from
        its row of ``graph.matrix``.  Uncertainty sums run in that
        order, which is also the order of the set built from
        :meth:`SimilarityGraph.neighbors`.  Built on the first test
        choice.
        """
        if self._hoods is None:
            matrix = self.graph.matrix
            indptr, indices = matrix.indptr, matrix.indices
            members: list[int] = []
            bounds = [0]
            for task_id in range(matrix.shape[0]):
                row = indices[indptr[task_id]:indptr[task_id + 1]]
                # set order (deterministic for int ids) is the order of
                # the neighbourhood sums
                hood = {task_id} | set(row.tolist())
                members.extend(hood)
                bounds.append(len(members))
            self._hoods = (
                np.array(bounds, dtype=np.int64),
                np.array(members, dtype=np.int64),
            )
        return self._hoods

    def choose_test_task(
        self,
        worker_id: WorkerId,
        states: TaskBoard | Sequence[TaskState],
        accuracies: Mapping[WorkerId, np.ndarray],
    ) -> TaskId | None:
        """Best test task for an idle worker, or None when nothing fits.

        Candidates are tasks that other workers have been assigned to
        (so a graded consensus will exist) and that the requesting worker
        has not seen.  Each candidate ``t`` scores

            w · Var(t) / (1/12) + (1 - w) · mean co-worker accuracy on t

        where ``Var(t)`` is :func:`beta_variance` of the worker's
        observed-correct and observed-incorrect counts over ``{t} ∪
        N(t)``.  Ties go to the lowest task id.

        The candidates are the tasks with ``crew > 0`` on which the
        worker's marks are zero, in ascending id order (a sequence of
        task states is packed into a :class:`TaskBoard` first).  Each
        one's co-worker accuracies are summed left to right, in the
        iteration order of ``assigned_workers``.  The rest runs on
        candidate arrays: the neighbourhood counts are ``np.bincount``
        sums, which also add left to right, in the order of
        :meth:`_neighbourhoods` (unobserved members add +0.0).  The
        score keeps the operation order of the formula above.
        """
        observed = self.observed_of(worker_id)
        prior = self.prior_accuracy
        board = TaskBoard.of(states)
        unseen = board.marks_of([worker_id])[0] == 0
        task_ids = np.flatnonzero((board.crew > 0) & unseen)
        if not len(task_ids):
            return None
        candidates: list[TaskId] = task_ids.tolist()
        quality: list[float] = []
        for task_id in candidates:
            assigned = board.states[task_id].assigned_workers
            summed = 0.0
            for other in assigned:
                vector = accuracies.get(other)
                summed += prior if vector is None else float(vector[task_id])
            quality.append(summed / len(assigned))

        bounds, members = self._neighbourhoods()
        positions, lengths = csr_row_positions(bounds, task_ids)
        hood = members[positions]
        owner = np.repeat(np.arange(len(candidates)), lengths)
        correct = np.zeros(self.graph.num_tasks)
        seen = np.zeros(self.graph.num_tasks)
        if observed:
            keys = np.fromiter(observed.keys(), np.int64, len(observed))
            correct[keys] = np.fromiter(
                observed.values(), np.float64, len(observed)
            )
            seen[keys] = 1.0
        n_correct = np.bincount(
            owner, weights=correct[hood], minlength=len(candidates)
        )
        n_total = np.bincount(
            owner, weights=seen[hood], minlength=len(candidates)
        )
        variance = beta_variance(n_correct, n_total - n_correct)
        uncertainty = variance / _MAX_BETA_VARIANCE
        w = self.uncertainty_weight
        score = w * uncertainty + (1.0 - w) * np.array(quality)
        # highest score first, then lowest task id; NaN sorts last
        best = np.lexsort((task_ids, -score))[0]
        return int(task_ids[best]) if score[best] > -1.0 else None

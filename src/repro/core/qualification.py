"""Qualification microtask selection and warm-up (Sections 2.2 & 5).

**Selection** (Definition 5): pick at most Q tasks whose combined
*influence* — the number of non-zero entries of ``Σ_{t∈T^q} p_t`` over
the PPR basis — is maximal.  The problem is NP-hard (Lemma 5, reduction
from maximum coverage); Algorithm 4 greedily adds the task with the
largest marginal influence and attains the classic ``1 − 1/e``
guarantee.  Because influence counts *non-zero* coordinates, the greedy
marginal is exactly the number of newly covered basis-support
coordinates; ties go to the residual mass a candidate adds beyond the
coverage so far, then to the lower task id.

:func:`select_qualification_tasks` runs the greedy lazily (CELF).  A
candidate's key only falls as coverage grows: the new support counts
non-zeros outside a growing support, and the residual sums
``max(row - covered, 0)`` over a growing ``covered`` in a fixed order,
and rounded subtraction, ``max`` and a fixed-order float sum are all
monotone.  So a key scored before the last pick is an upper bound of
the current one, and a candidate whose key is current and tops every
bound is the greedy pick.  First-round bounds come from the CSR rows
without a dense row: the support count is exact, and the residual is
the sparse row sum times ``1 + 4·|T|·eps``, which covers the rounding
of any order of summing |T| non-negative terms.  A key is scored
exactly, with the dense row, only when it reaches the top of the heap,
so the picks are the eager greedy's picks, and a selection costs a few
O(|T|) rows per pick instead of O(|T|²) per pick.

**Warm-up** (Section 2.2): new workers answer the qualification tasks
first; their average qualification accuracy seeds the estimator, and
workers below a threshold are rejected as unqualified.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from collections.abc import Mapping, Sequence

import numpy as np

from repro.core.ppr import PPRBasis
from repro.core.types import Label, TaskId, WorkerId


def influence(basis: PPRBasis, tasks: Sequence[TaskId]) -> int:
    """``INF(T^q)``: non-zero entries of the summed basis vectors."""
    if not tasks:
        return 0
    total = np.zeros(basis.num_tasks)
    for task_id in tasks:
        total += basis.row(task_id)
    return int(np.count_nonzero(total))


def select_qualification_tasks(
    basis: PPRBasis,
    budget: int,
    candidates: Sequence[TaskId] | None = None,
) -> list[TaskId]:
    """Algorithm 4: greedy influence-maximising qualification selection.

    Parameters
    ----------
    basis:
        Precomputed PPR basis (Algorithm 4 lines 2-3).
    budget:
        Number Q of qualification tasks (Algorithm 4 runs exactly Q
        greedy iterations).
    candidates:
        Optional restriction of the candidate pool (defaults to all
        tasks).

    Returns
    -------
    list of TaskId
        Selected tasks in pick order (``min(budget, |pool|)`` entries).

    Notes
    -----
    The paper's marginal gain counts newly *non-zero* coordinates of the
    summed basis vectors.  On well-connected graphs this saturates after
    one pick per connected component, leaving later iterations with an
    arbitrary argmax.  We therefore break count ties by the residual
    probability *mass* a candidate adds beyond the per-coordinate
    maximum already covered — a facility-location-style secondary
    objective that spreads the remaining picks across weakly covered
    regions (it is also submodular, so the greedy guarantee survives).
    """
    if budget <= 0:
        raise ValueError(f"budget must be positive, got {budget}")
    n = basis.num_tasks
    pool = (
        np.arange(n)
        if candidates is None
        else np.unique(np.asarray(candidates, dtype=np.int64))
    )
    if pool.size and (pool[0] < 0 or pool[-1] >= n):
        raise ValueError(f"candidate task ids must lie in [0, {n})")
    # first-round bounds from the CSR rows, one sum per stored row
    indptr = basis.matrix.indptr
    values = basis.matrix.data[: indptr[-1]]
    filled = np.flatnonzero(np.diff(indptr))
    support = np.zeros(n, dtype=np.int64)
    mass = np.zeros(n)
    if filled.size:
        starts = indptr[filled]
        support[filled] = np.add.reduceat(values != 0, starts, dtype=np.int64)
        mass[filled] = np.add.reduceat(np.maximum(values, 0.0), starts)
    mass *= 1.0 + 4.0 * n * np.finfo(np.float64).eps
    # min-heap of (-support, -residual, task id, pick it was scored
    # for); -1 marks a first-round bound
    heap = [
        (-count, -bound, task_id, -1)
        for count, bound, task_id in zip(
            support[pool].tolist(), mass[pool].tolist(), pool.tolist()
        )
    ]
    heapq.heapify(heap)
    covered_mass = np.zeros(n)
    uncovered = np.ones(n, dtype=bool)
    selected: list[TaskId] = []
    while heap and len(selected) < budget:
        _, _, task_id, scored_for = heapq.heappop(heap)
        row = basis.row(task_id)
        if scored_for == len(selected):
            selected.append(task_id)
            covered_mass = np.maximum(covered_mass, row)
            uncovered = ~(covered_mass > 0)
            continue
        new_support = int(np.count_nonzero((row != 0) & uncovered))
        residual = float(np.maximum(row - covered_mass, 0.0).sum())
        heapq.heappush(
            heap, (-new_support, -residual, task_id, len(selected))
        )
    return selected


def select_random_tasks(
    num_tasks: int, budget: int, rng: np.random.Generator
) -> list[TaskId]:
    """The RandomQF baseline of Section 6.3.1: uniform selection."""
    if budget <= 0:
        raise ValueError(f"budget must be positive, got {budget}")
    budget = min(budget, num_tasks)
    return [int(t) for t in rng.choice(num_tasks, size=budget, replace=False)]


@dataclass
class WarmUpState:
    """Per-worker warm-up progress."""

    pending: list[TaskId] = field(default_factory=list)
    graded: dict[TaskId, bool] = field(default_factory=dict)
    rejected: bool = False

    @property
    def num_answered(self) -> int:
        return len(self.graded)

    @property
    def num_correct(self) -> int:
        return sum(1 for ok in self.graded.values() if ok)

    @property
    def average_accuracy(self) -> float:
        if not self.graded:
            return 0.0
        return self.num_correct / self.num_answered

    @property
    def finished(self) -> bool:
        return not self.pending


class WarmUp:
    """Cold-start qualification component (Section 2.2).

    Assigns every new worker the qualification microtasks (the worker is
    unaware they are tests), grades answers against ground truth, and
    rejects workers whose average accuracy falls below the threshold.
    """

    def __init__(
        self,
        qualification_truth: Mapping[TaskId, Label],
        threshold: float = 0.6,
    ) -> None:
        if not qualification_truth:
            raise ValueError("warm-up needs at least one qualification task")
        if not 0 <= threshold <= 1:
            raise ValueError("threshold must be in [0, 1]")
        self.qualification_truth = dict(qualification_truth)
        self.threshold = threshold
        self._states: dict[WorkerId, WarmUpState] = {}

    # ------------------------------------------------------------------
    def state_of(self, worker_id: WorkerId) -> WarmUpState:
        """State for a worker, registering her on first contact."""
        state = self._states.get(worker_id)
        if state is None:
            state = WarmUpState(
                pending=sorted(self.qualification_truth)
            )
            self._states[worker_id] = state
        return state

    def next_task(self, worker_id: WorkerId) -> TaskId | None:
        """Next ungraded qualification task for the worker, if any."""
        state = self.state_of(worker_id)
        if state.rejected or not state.pending:
            return None
        return state.pending[0]

    def grade(self, worker_id: WorkerId, task_id: TaskId, answer: Label) -> bool:
        """Grade a qualification answer; returns correctness.

        Applies the elimination rule once all qualification tasks are
        answered (Section 2.2: reject when the average accuracy is below
        the threshold).
        """
        truth = self.qualification_truth.get(task_id)
        if truth is None:
            raise ValueError(f"task {task_id} is not a qualification task")
        state = self.state_of(worker_id)
        if task_id in state.graded:
            raise ValueError(
                f"worker {worker_id!r} already graded on task {task_id}"
            )
        correct = answer == truth
        state.graded[task_id] = correct
        if task_id in state.pending:
            state.pending.remove(task_id)
        if state.finished and state.average_accuracy < self.threshold:
            state.rejected = True
        return correct

    def is_qualified(self, worker_id: WorkerId) -> bool:
        """True unless the worker was eliminated."""
        return not self.state_of(worker_id).rejected

    def has_finished(self, worker_id: WorkerId) -> bool:
        """True once the worker answered every qualification task."""
        return self.state_of(worker_id).finished

    def average_accuracy(self, worker_id: WorkerId) -> float:
        """Average qualification accuracy (the paper's initial estimate
        for Eq. (5) before any graph-based estimate exists)."""
        return self.state_of(worker_id).average_accuracy

    def qualified_workers(self) -> list[WorkerId]:
        """Workers that finished warm-up and were not rejected."""
        return [
            w
            for w, s in self._states.items()
            if s.finished and not s.rejected
        ]

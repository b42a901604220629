"""Per-worker estimate index of the Section 6.5 assigner (Figure 10).

The paper's efficiency experiment inserts 0.2M microtasks at a time (up
to 1M) with a bounded neighbour count per task and reports sub-linear
growth of assignment time, crediting "effective index structures".  The
key to sub-linearity is that per-request work must depend on the *local*
neighbourhood a worker's evidence reaches — never on |T|.
:class:`repro.core.streaming.StreamingAssigner` therefore keeps each
worker's accuracy estimates **sparse**, as a :class:`SparseEstimateIndex`:
a dict over the tasks her observations reached (everything else sits at
the prior), with a lazy max-heap, so "best task for this worker" pops in
O(log |support|).
"""

from __future__ import annotations

import heapq
from collections.abc import Container, Mapping

from repro.core.types import TaskId


class SparseEstimateIndex:
    """Per-worker sparse accuracy estimate with a lazy max-heap.

    The estimate is what the worker's observed accuracies spread to
    their one-hop neighbourhoods; coordinates outside the support are
    implicitly at ``prior``.
    """

    def __init__(self, prior: float = 0.5) -> None:
        self.prior = prior
        self._values: dict[TaskId, float] = {}
        self._heap: list[tuple[float, TaskId]] = []

    def update(self, values: Mapping[TaskId, float]) -> None:
        """Merge new estimate entries (heap entries are lazily refreshed)."""
        for task_id, value in values.items():
            self._values[task_id] = value
            heapq.heappush(self._heap, (-value, task_id))

    def value(self, task_id: TaskId) -> float:
        """Current estimate for a task (prior when unobserved)."""
        return self._values.get(task_id, self.prior)

    def observed(self, task_id: TaskId) -> bool:
        """True when the task has an explicit estimate entry (i.e. is
        inside the support rather than implicitly at ``prior``)."""
        return task_id in self._values

    def __contains__(self, task_id: TaskId) -> bool:
        return self.observed(task_id)

    @property
    def support_size(self) -> int:
        return len(self._values)

    def pop_best(self, *excluded: Container[TaskId]) -> TaskId | None:
        """Highest-estimate task in none of ``excluded`` (lazy deletion).

        Stale heap entries (superseded values or excluded tasks) are
        discarded on the way; each entry is popped at most once, so the
        amortised cost is O(log |support|).  Each collection is only
        asked for membership, so excluding a large set costs nothing.
        """
        while self._heap:
            neg_value, task_id = heapq.heappop(self._heap)
            if any(task_id in tasks for tasks in excluded):
                continue
            if self._values.get(task_id) != -neg_value:
                continue  # superseded by an update
            return task_id
        return None

    def restore(self, task_id: TaskId) -> None:
        """Re-push a task consumed by :meth:`pop_best` but not served.

        An assigner that pops the best entry and then decides to serve
        something else (e.g. a frontier candidate) must put the entry
        back, or the task could never again be reached by estimate
        order.  No-op for tasks outside the support; duplicate pushes
        are harmless under lazy deletion.
        """
        value = self._values.get(task_id)
        if value is not None:
            heapq.heappush(self._heap, (-value, task_id))

"""BestEffort ablation (Section 6.3.2, strategy 2).

Adaptively updates accuracy estimates exactly like iCrowd, but assigns
each requesting worker her *own* best task — the eligible uncompleted
microtask with the highest estimated accuracy for that worker — with no
global scheme and no performance testing.  The paper shows this local
view backfires: the worker's best task usually has better candidates,
so low-accuracy votes leak into the majority and poison subsequent
estimation.
"""

from __future__ import annotations

import numpy as np

from repro.core.framework import ICrowd
from repro.core.types import Assignment, WorkerId


class BestEffort(ICrowd):
    """iCrowd estimation + greedy per-worker (non-global) assignment."""

    def _choose_assignment(
        self, worker_id: WorkerId, actives: list[WorkerId]
    ) -> Assignment | None:
        board = self._board
        unseen = board.marks_of([worker_id])[0] == 0
        values = np.where(
            (board.free > 0) & unseen, self._estimates[worker_id], -np.inf
        )
        # the first maximum is the lowest task id
        best = int(np.argmax(values))
        if np.isneginf(values[best]):
            return None
        return Assignment(task_id=best, worker_id=worker_id)

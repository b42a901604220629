"""Matching-based assignment comparator (related work [20]).

Uses iCrowd's estimation pipeline unchanged but replaces the greedy
set-packing assigner (Algorithm 3) with one-round maximum bipartite
matching via the Hungarian algorithm: each active worker is matched to
the task slot where her estimated accuracy is highest, subject to
one-slot-per-worker.  The ablation bench compares this against the
paper's set-packing view, which additionally prefers *completing*
tasks so consensus (and hence estimation feedback) arrives sooner.
"""

from __future__ import annotations

from repro.core.framework import ICrowd
from repro.core.hungarian import MatchingAssigner
from repro.core.types import Assignment, WorkerId


class MatchingPolicy(ICrowd):
    """iCrowd estimation + Hungarian matching assignment."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._matcher = MatchingAssigner()

    def _choose_assignment(
        self, worker_id: WorkerId, actives: list[WorkerId]
    ) -> Assignment | None:
        assignments = self._matcher.assign(
            list(self._board.states.values()), actives, self._estimates
        )
        for assignment in assignments:
            if assignment.worker_id == worker_id:
                return assignment
        return None

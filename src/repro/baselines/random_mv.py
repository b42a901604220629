"""RandomMV baseline: random task assignment + majority voting.

The paper's simplest baseline: every request is served with a uniformly
random uncompleted microtask the worker has not answered yet, and each
task's result is the majority of its ``k`` collected answers.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.core.types import (
    Answer,
    AnswerOutcome,
    Assignment,
    Label,
    TaskId,
    TaskSet,
    VoteState,
    WorkerId,
)
from repro.obs.metrics import NULL_RECORDER, Recorder
from repro.utils.rng import spawn_rng


class RandomMV:
    """Random-assignment, majority-voting policy.

    Parameters
    ----------
    tasks:
        The full microtask set.
    k:
        Assignment size per microtask.
    seed:
        RNG seed for assignment choices.
    excluded_tasks:
        Tasks not crowdsourced (the shared qualification set, already
        gold-labelled by the requester); their predictions fall back to
        ground truth like every other approach.
    recorder:
        Observability recorder (``None`` = disabled); counts served
        assignments so baseline runs expose the same policy-side
        telemetry surface as iCrowd (the platform records the rest).
    """

    def __init__(
        self,
        tasks: TaskSet,
        k: int = 3,
        seed: int = 0,
        excluded_tasks: Sequence[TaskId] = (),
        recorder: Recorder = NULL_RECORDER,
    ) -> None:
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        self.recorder = recorder
        self.tasks = tasks
        self.k = k
        self.excluded: set[TaskId] = set(excluded_tasks)
        self._rng = spawn_rng(seed, "random-mv")
        self._votes: dict[TaskId, VoteState] = {
            t: VoteState(task_id=t, k=k)
            for t in tasks.ids()
            if t not in self.excluded
        }
        #: outstanding (worker, task) slots
        self._pending: set[tuple[WorkerId, TaskId]] = set()
        self._holding: dict[TaskId, int] = {t: 0 for t in self._votes}
        self._seq = 0

    # ------------------------------------------------------------------
    def _eligible_tasks(self, worker_id: WorkerId) -> list[TaskId]:
        """Uncompleted tasks with spare capacity the worker hasn't seen."""
        eligible = []
        for task_id, votes in self._votes.items():
            if votes.is_complete():
                continue
            outstanding = len(votes.answers) + self._holding[task_id]
            if outstanding >= self.k:
                continue
            if worker_id in votes.workers():
                continue
            if (worker_id, task_id) in self._pending:
                continue
            eligible.append(task_id)
        return eligible

    def on_worker_request(
        self,
        worker_id: WorkerId,
        active_workers: Iterable[WorkerId] | None = None,
    ) -> Assignment | None:
        """Serve a uniformly random eligible task."""
        eligible = self._eligible_tasks(worker_id)
        if not eligible:
            return None
        task_id = eligible[int(self._rng.integers(0, len(eligible)))]
        self._pending.add((worker_id, task_id))
        self._holding[task_id] += 1
        self.recorder.counter(
            "repro_policy_assignments_total",
            "Assignments served by the policy.",
        ).inc()
        return Assignment(task_id=task_id, worker_id=worker_id)

    def on_answer(
        self,
        worker_id: WorkerId,
        task_id: TaskId,
        label: Label,
        is_test: bool = False,
    ) -> AnswerOutcome:
        """Record a vote, idempotently.

        A repeated ``(worker, task)`` delivery reports ``DUPLICATE``
        and changes nothing; a vote for a task that completed after the
        slot was requeued is ``IGNORED`` instead of stacking past ``k``.
        """
        if task_id in self.excluded:
            return AnswerOutcome.IGNORED
        votes = self._votes[task_id]
        if worker_id in votes.workers():
            return AnswerOutcome.DUPLICATE
        # the answer ends the worker's hold on the slot
        self.release_assignment(worker_id, task_id)
        if votes.is_complete():
            return AnswerOutcome.IGNORED
        self._seq += 1
        votes.add(
            Answer(
                task_id=task_id,
                worker_id=worker_id,
                label=label,
                seq=self._seq,
            )
        )
        return AnswerOutcome.ACCEPTED

    def release_assignment(self, worker_id: WorkerId, task_id: TaskId) -> bool:
        """Reopen an outstanding (unanswered) slot after lease expiry."""
        key = (worker_id, task_id)
        if key not in self._pending:
            return False
        self._pending.remove(key)
        self._holding[task_id] -= 1
        return True

    def is_worker_rejected(self, worker_id: WorkerId) -> bool:
        """Random assignment never rejects a worker (platform hook)."""
        return False

    # ------------------------------------------------------------------
    def is_finished(self) -> bool:
        """True once every crowdsourced task reached its k votes."""
        return all(v.is_complete() for v in self._votes.values())

    def all_answers(self) -> list[Answer]:
        """Every collected answer (used by EM-style aggregations)."""
        return [a for votes in self._votes.values() for a in votes.answers]

    def predictions(self) -> dict[TaskId, Label]:
        """Majority vote per task; excluded tasks map to ground truth."""
        out: dict[TaskId, Label] = {}
        for task_id in self.tasks.ids():
            if task_id in self.excluded:
                out[task_id] = self.tasks[task_id].truth
            else:
                out[task_id] = self._votes[task_id].consensus()
        return out

    def completed_tasks(self) -> list[TaskId]:
        """Globally completed task ids (platform hook)."""
        return [t for t, v in self._votes.items() if v.is_complete()]

    def consensus(self, task_id: TaskId) -> Label | None:
        """This policy's result for a globally completed task (majority,
        or a subclass's aggregation); None while the task is open."""
        votes = self._votes.get(task_id)
        if votes is None or not votes.is_complete():
            return None
        return self.predictions()[task_id]

"""Multi-choice iCrowd orchestrator (the full Section 2.1 extension).

:class:`MultiICrowd` is the m-choice counterpart of
:class:`repro.core.ICrowd`: plurality voting replaces majority voting
(:class:`repro.core.multichoice.MultiVoteState`), and the generalised
Eq. (5) grades workers against the plurality consensus.  Everything
above the voting layer — the similarity graph, the PPR estimator, the
adaptive assigner with top worker sets, warm-up elimination — is reused
unchanged, which is precisely the paper's point that the techniques
"can be extended to microtasks with more than two choices".
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Sequence

import numpy as np

from repro.core.assigner import AdaptiveAssigner, TaskState
from repro.core.config import ICrowdConfig
from repro.core.estimator import AccuracyEstimator
from repro.core.graph import SimilarityGraph
from repro.core.multichoice import (
    Choice,
    MultiVoteState,
    multichoice_observed_accuracy,
)
from repro.core.qualification import WarmUp, select_qualification_tasks
from repro.core.testing import PerformanceTester
from repro.core.types import AnswerOutcome, Assignment, TaskId, WorkerId
from repro.obs.metrics import NULL_RECORDER, Recorder


@dataclass(frozen=True)
class MultiTask:
    """A microtask whose answer is one of ``m`` choices."""

    task_id: TaskId
    text: str
    domain: str
    truth: Choice
    features: tuple[float, ...] | None = None


class MultiICrowd:
    """Adaptive crowdsourcing over multi-choice microtasks.

    Parameters
    ----------
    tasks:
        Dense-id :class:`MultiTask` sequence.
    choices:
        The shared answer alphabet (every task offers the same
        choices; per-task alphabets only need a per-task ``m`` in the
        observed-accuracy call).
    config:
        Standard framework configuration.
    graph / qualification_tasks:
        As in :class:`repro.core.ICrowd`.
    """

    def __init__(
        self,
        tasks: Sequence[MultiTask],
        choices: Sequence[Choice],
        config: ICrowdConfig | None = None,
        graph: SimilarityGraph | None = None,
        qualification_tasks: Sequence[TaskId] | None = None,
        recorder: Recorder = NULL_RECORDER,
    ) -> None:
        self.recorder = recorder
        tasks = list(tasks)
        for expected, task in enumerate(tasks):
            if task.task_id != expected:
                raise ValueError("task ids must be dense 0..n-1")
        if len(set(choices)) < 2:
            raise ValueError("need at least two distinct choices")
        for task in tasks:
            if task.truth not in set(choices):
                raise ValueError(
                    f"task {task.task_id} truth {task.truth!r} not in "
                    f"the choice set"
                )
        self.tasks = tasks
        self.choices = tuple(choices)
        self.config = config or ICrowdConfig.paper_defaults()
        self.graph = graph or SimilarityGraph.from_tasks(
            tasks, self.config.graph, seed=self.config.seed
        )
        if self.graph.num_tasks != len(tasks):
            raise ValueError("graph size does not match the task set")
        self.estimator = AccuracyEstimator(
            self.graph, self.config.estimator, recorder=self.recorder
        )
        self.estimator.precompute()

        if qualification_tasks is None:
            qualification_tasks = select_qualification_tasks(
                self.estimator.basis,
                self.config.qualification.num_qualification,
            )
        self.qualification_tasks = list(qualification_tasks)
        truth = {t: tasks[t].truth for t in self.qualification_tasks}
        self.warmup = WarmUp(
            truth,
            threshold=self.config.qualification.qualification_threshold,
        )

        k = self.config.assigner.k
        self._votes: dict[TaskId, MultiVoteState] = {
            t.task_id: MultiVoteState(
                task_id=t.task_id, k=k, choices=self.choices
            )
            for t in tasks
            if t.task_id not in truth
        }
        self._states: dict[TaskId, TaskState] = {
            t: TaskState(task_id=t, k=k) for t in self._votes
        }
        self._consensus: dict[TaskId, Choice] = {}
        self._answers: dict[WorkerId, list[tuple[TaskId, Choice]]] = {}
        self._estimates: dict[WorkerId, np.ndarray] = {}
        self._dirty: set[WorkerId] = set()
        self._assign_epoch = 0
        tester = PerformanceTester(
            self.graph,
            observed_of=self._observed_of,
            uncertainty_weight=self.config.assigner.uncertainty_weight,
            prior_accuracy=self.config.estimator.prior_accuracy,
        )
        self.assigner = AdaptiveAssigner(
            self.config.assigner, tester=tester, recorder=self.recorder
        )

    # ------------------------------------------------------------------
    def on_worker_request(
        self,
        worker_id: WorkerId,
        active_workers: Iterable[WorkerId] | None = None,
    ) -> Assignment | None:
        """Serve the next assignment (warm-up first, then adaptive)."""
        if not self.warmup.is_qualified(worker_id):
            return None
        pending = self.warmup.next_task(worker_id)
        if pending is not None:
            return Assignment(
                task_id=pending, worker_id=worker_id, is_test=True
            )
        actives = list(active_workers or [])
        if worker_id not in actives:
            actives.append(worker_id)
        actives = [
            w
            for w in actives
            if self.warmup.is_qualified(w) and self.warmup.has_finished(w)
        ]
        self._refresh_estimates(actives)
        assignment = self.assigner.assign_for_worker(
            worker_id, list(self._states.values()), actives,
            self._estimates, epoch=self._assign_epoch,
        )
        if assignment is not None:
            state = self._states[assignment.task_id]
            if assignment.is_test:
                state.tested_workers.add(worker_id)
            else:
                state.assigned_workers.add(worker_id)
        return assignment

    def on_answer(
        self,
        worker_id: WorkerId,
        task_id: TaskId,
        choice: Choice,
        is_test: bool = False,
    ) -> AnswerOutcome:
        """Record a multi-choice answer.

        Idempotent like :meth:`repro.core.ICrowd.on_answer`: duplicate
        ``(worker, task)`` deliveries and votes for already-completed
        tasks leave all state untouched.
        """
        if task_id in self.warmup.qualification_truth:
            if task_id in self.warmup.state_of(worker_id).graded:
                return AnswerOutcome.DUPLICATE
            self._assign_epoch += 1
            self.warmup.grade(worker_id, task_id, choice)
            self._answers.setdefault(worker_id, []).append(
                (task_id, choice)
            )
            self._dirty.add(worker_id)
            return AnswerOutcome.ACCEPTED
        vote_state = self._votes[task_id]
        state = self._states[task_id]
        if is_test:
            if worker_id in state.tested_workers and any(
                t == task_id for t, _ in self._answers.get(worker_id, ())
            ):
                return AnswerOutcome.DUPLICATE
            self._assign_epoch += 1
            state.tested_workers.add(worker_id)
        else:
            if worker_id in state.tested_workers or any(
                w == worker_id for w, _ in vote_state.answers
            ):
                # tested_workers covers a vote held past its lease
                # expiry that arrives after the task was re-leased to
                # the same worker as a performance test
                return AnswerOutcome.DUPLICATE
            if state.completed:
                # the slot was requeued and filled by someone else first
                return AnswerOutcome.IGNORED
            self._assign_epoch += 1
            vote_state.add(worker_id, choice)
            state.assigned_workers.add(worker_id)
            if vote_state.is_complete() and not state.completed:
                state.completed = True
                self._consensus[task_id] = vote_state.consensus()
                for voter, _ in vote_state.answers:
                    self._dirty.add(voter)
        self._answers.setdefault(worker_id, []).append((task_id, choice))
        self._dirty.add(worker_id)
        return AnswerOutcome.ACCEPTED

    # ------------------------------------------------------------------
    def _observed_of(self, worker_id: WorkerId) -> dict[TaskId, float]:
        """Sparse ``q^w`` from qualification grades and plurality
        consensus via the generalised Eq. (5)."""
        observed: dict[TaskId, float] = {}
        truth = self.warmup.qualification_truth
        for task_id, choice in self._answers.get(worker_id, ()):
            gold = truth.get(task_id)
            if gold is not None:
                observed[task_id] = 1.0 if choice == gold else 0.0
                continue
            consensus = self._consensus.get(task_id)
            if consensus is None:
                continue
            votes = [
                (c, self._accuracy_of(w, task_id))
                for w, c in self._votes[task_id].answers
            ]
            observed[task_id] = multichoice_observed_accuracy(
                choice, consensus, votes, num_choices=len(self.choices)
            )
        return observed

    def _accuracy_of(self, worker_id: WorkerId, task_id: TaskId) -> float:
        vector = self._estimates.get(worker_id)
        if vector is not None:
            return float(vector[task_id])
        if self.warmup.state_of(worker_id).num_answered:
            return self.warmup.average_accuracy(worker_id)
        return self.config.estimator.prior_accuracy

    def _refresh_estimates(self, workers: Iterable[WorkerId]) -> None:
        for worker_id in workers:
            if worker_id in self._estimates and worker_id not in self._dirty:
                continue
            observed = self._observed_of(worker_id)
            self._estimates[worker_id] = self.estimator.estimate(observed)
            self._dirty.discard(worker_id)

    def estimate_for(self, worker_id: WorkerId) -> np.ndarray:
        """Current accuracy vector of a worker (lazily recomputed)."""
        self._refresh_estimates([worker_id])
        return self._estimates[worker_id]

    # ------------------------------------------------------------------
    def release_assignment(self, worker_id: WorkerId, task_id: TaskId) -> bool:
        """Reopen a slot whose assignment lease expired unanswered.

        Returns False when there is nothing to release — the vote
        already landed, or the worker never held the slot.
        """
        state = self._states.get(task_id)
        if state is None:
            return False
        if any(w == worker_id for w, _ in self._votes[task_id].answers):
            return False
        if worker_id not in state.assigned_workers:
            return False
        state.assigned_workers.discard(worker_id)
        self._assign_epoch += 1
        return True

    def expire_stale_assignments(
        self, max_age: int
    ) -> list[tuple[WorkerId, TaskId]]:
        """Policy-clock expiry hook (documented protocol default).

        ``MultiICrowd`` keeps no per-assignment issue clock; slot
        reclamation is driven by the platform's lease ledger calling
        :meth:`release_assignment`, so this is a no-op returning ``[]``.
        """
        if max_age < 0:
            raise ValueError("max_age must be >= 0")
        return []

    def is_finished(self) -> bool:
        """True once every non-qualification task reached k votes."""
        return all(s.completed for s in self._states.values())

    def completed_tasks(self) -> list[TaskId]:
        """Globally completed task ids."""
        return [t for t, s in self._states.items() if s.completed]

    def is_worker_rejected(self, worker_id: WorkerId) -> bool:
        """Whether warm-up eliminated this worker."""
        return not self.warmup.is_qualified(worker_id)

    def predictions(self) -> dict[TaskId, Choice]:
        """Plurality results; qualification tasks map to ground truth."""
        out: dict[TaskId, Choice] = {}
        for task in self.tasks:
            task_id = task.task_id
            if task_id in self.warmup.qualification_truth:
                out[task_id] = self.warmup.qualification_truth[task_id]
            elif task_id in self._consensus:
                out[task_id] = self._consensus[task_id]
            else:
                votes = self._votes[task_id]
                out[task_id] = (
                    votes.consensus() if votes.answers else self.choices[0]
                )
        return out

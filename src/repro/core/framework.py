"""The iCrowd framework (Figure 1): adaptive assigner + warm-up.

This is the stateful orchestrator a platform interacts with:

- :meth:`ICrowd.on_worker_request` — a worker asks for work; warm-up
  tasks come first, then adaptive assignment (Algorithm 2) over the
  currently active workers, then performance testing for idle workers.
- :meth:`ICrowd.on_answer` — a worker submits an answer; qualification
  answers are graded, consensus answers accumulate toward global
  completion, and the accuracy estimates of every worker touching the
  task are invalidated for lazy re-estimation.
- :meth:`ICrowd.predictions` — consensus results for evaluation.

Accuracy estimation follows Section 3 exactly: observed accuracies
``q^w`` via Eq. (5) over globally completed tasks (qualification tasks
count as globally completed), estimated vectors ``p^w`` via the offline
PPR basis and Lemma 3's linear combination.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

import numpy as np

from repro.core.assigner import AdaptiveAssigner, TaskState
from repro.core.config import ICrowdConfig
from repro.core.estimator import AccuracyEstimator
from repro.core.graph import SimilarityGraph
from repro.core.observed import ObservedAccuracyComputer
from repro.core.qualification import (
    WarmUp,
    select_qualification_tasks,
    select_random_tasks,
)
from repro.core.testing import PerformanceTester
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


class ICrowd:
    """Adaptive crowdsourcing framework over a task set.

    Parameters
    ----------
    tasks:
        The microtask set ``T``.
    config:
        Framework configuration (paper defaults when omitted).
    graph:
        Pre-built similarity graph; built from ``config.graph`` when
        omitted.
    qualification_tasks:
        Explicit qualification set; selected per
        ``config.qualification.selection`` when omitted.
    recorder:
        Observability recorder threaded into the estimator and the
        adaptive assigner (``None`` = disabled).  When both a recorder
        and a pre-built ``estimator`` are supplied, the estimator is
        re-bound to this recorder so a telemetry run observes the
        shared setup's estimator too.
    """

    def __init__(
        self,
        tasks: TaskSet,
        config: ICrowdConfig | None = None,
        graph: SimilarityGraph | None = None,
        qualification_tasks: Sequence[TaskId] | None = None,
        estimator: AccuracyEstimator | None = None,
        recorder: Recorder = NULL_RECORDER,
    ) -> None:
        self.recorder = recorder
        self.tasks = tasks
        self.config = config or ICrowdConfig.paper_defaults()
        self.graph = graph or (
            estimator.graph
            if estimator is not None
            else SimilarityGraph.from_tasks(
                list(tasks), self.config.graph, seed=self.config.seed
            )
        )
        if self.graph.num_tasks != len(tasks):
            raise ValueError(
                f"graph covers {self.graph.num_tasks} tasks but task set "
                f"has {len(tasks)}"
            )
        if estimator is not None and estimator.graph is not self.graph:
            raise ValueError("estimator was built on a different graph")
        self.estimator = estimator or AccuracyEstimator(
            self.graph, self.config.estimator, recorder=self.recorder
        )
        if estimator is not None and recorder is not None:
            self.estimator.recorder = self.recorder
        self.estimator.precompute()

        if qualification_tasks is None:
            qualification_tasks = self._select_qualification()
        self.qualification_tasks: list[TaskId] = list(qualification_tasks)
        truth = {t: tasks[t].truth for t in self.qualification_tasks}
        self.warmup = WarmUp(
            truth,
            threshold=self.config.qualification.qualification_threshold,
        )
        self._observed_computer = ObservedAccuracyComputer(truth)

        k = self.config.assigner.k
        self._votes: dict[TaskId, VoteState] = {
            t: VoteState(task_id=t, k=k)
            for t in tasks.ids()
            if t not in truth
        }
        self._states: dict[TaskId, TaskState] = {
            t: TaskState(task_id=t, k=k) for t in self._votes
        }
        self._consensus: dict[TaskId, Label] = {}
        self._answers: dict[WorkerId, list[Answer]] = {}
        self._test_answers: dict[WorkerId, list[Answer]] = {}
        self._estimates: dict[WorkerId, np.ndarray] = {}
        self._dirty: set[WorkerId] = set()
        self._last_seen: dict[WorkerId, int] = {}
        #: outstanding real assignments: (worker, task) → clock issued
        self._pending: dict[tuple[WorkerId, TaskId], int] = {}
        self._clock = 0
        self._seq = 0
        #: Assignment invalidation epoch: bumped on every state change
        #: that can alter the greedy scheme (answers, releases), so the
        #: assigner can serve a whole round of worker requests from one
        #: cached scheme computation.
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
    # qualification selection
    # ------------------------------------------------------------------
    def _select_qualification(self) -> list[TaskId]:
        budget = self.config.qualification.num_qualification
        if self.config.qualification.selection == "influence":
            return select_qualification_tasks(self.estimator.basis, budget)
        rng = spawn_rng(self.config.seed, "random-qualification")
        return select_random_tasks(len(self.tasks), budget, rng)

    # ------------------------------------------------------------------
    # worker interaction
    # ------------------------------------------------------------------
    def on_worker_request(
        self,
        worker_id: WorkerId,
        active_workers: Iterable[WorkerId] | None = None,
    ) -> Assignment | None:
        """Handle a task request from ``worker_id``.

        Returns the assignment for the worker, or None when she is
        rejected / nothing remains assignable.  ``active_workers``
        defaults to workers seen within the configured activity window.
        """
        self._clock += 1
        self._last_seen[worker_id] = self._clock
        if not self.warmup.is_qualified(worker_id):
            return None
        pending = self.warmup.next_task(worker_id)
        if pending is not None:
            return Assignment(
                task_id=pending, worker_id=worker_id, is_test=True
            )
        if not self.warmup.has_finished(worker_id):
            return None  # defensive: unreachable with next_task above
        actives = (
            list(active_workers)
            if active_workers is not None
            else self.active_workers()
        )
        if worker_id not in actives:
            actives.append(worker_id)
        actives = [w for w in actives if self._is_assignable(w)]
        self._refresh_estimates(actives)
        assignment = self._choose_assignment(worker_id, actives)
        if assignment is not None:
            state = self._states[assignment.task_id]
            if assignment.is_test:
                state.tested_workers.add(worker_id)
            else:
                state.assigned_workers.add(worker_id)
                self._pending[(worker_id, assignment.task_id)] = self._clock
        return assignment

    def on_answer(
        self, worker_id: WorkerId, task_id: TaskId, label: Label,
        is_test: bool = False,
    ) -> AnswerOutcome:
        """Record a submitted answer and update framework state.

        Idempotent: re-delivered submissions (client retries, duplicate
        POSTs) leave every piece of state — votes, clocks, estimates —
        untouched and report :attr:`AnswerOutcome.DUPLICATE`; votes for
        tasks that completed in the meantime are ``IGNORED`` rather
        than appended past ``k``.
        """
        outcome = self._classify_answer(worker_id, task_id, is_test)
        if not outcome.accepted:
            return outcome
        self._clock += 1
        self._last_seen[worker_id] = self._clock
        self._seq += 1
        self._assign_epoch += 1
        answer = Answer(
            task_id=task_id, worker_id=worker_id, label=label, seq=self._seq
        )
        if task_id in self.warmup.qualification_truth:
            self.warmup.grade(worker_id, task_id, label)
            self._answers.setdefault(worker_id, []).append(answer)
            self._dirty.add(worker_id)
            return outcome
        if is_test:
            self._test_answers.setdefault(worker_id, []).append(answer)
            self._states[task_id].tested_workers.add(worker_id)
            self._dirty.add(worker_id)
            return outcome
        vote_state = self._votes[task_id]
        vote_state.add(answer)
        self._answers.setdefault(worker_id, []).append(answer)
        self._pending.pop((worker_id, task_id), None)
        state = self._states[task_id]
        state.assigned_workers.add(worker_id)
        if vote_state.is_complete() and not state.completed:
            state.completed = True
            self._consensus[task_id] = self._consensus_label(vote_state)
            # a fresh consensus re-grades everyone who voted on the task
            for vote in vote_state.answers:
                self._dirty.add(vote.worker_id)
        else:
            self._dirty.add(worker_id)
        return outcome

    def _classify_answer(
        self, worker_id: WorkerId, task_id: TaskId, is_test: bool
    ) -> AnswerOutcome:
        """Decide whether an incoming answer may mutate state."""
        if task_id in self.warmup.qualification_truth:
            if task_id in self.warmup.state_of(worker_id).graded:
                return AnswerOutcome.DUPLICATE
            return AnswerOutcome.ACCEPTED
        if is_test:
            already = any(
                a.task_id == task_id
                for a in self._test_answers.get(worker_id, ())
            )
            return (
                AnswerOutcome.DUPLICATE if already else AnswerOutcome.ACCEPTED
            )
        vote_state = self._votes[task_id]
        state = self._states[task_id]
        if (
            worker_id in vote_state.workers()
            or worker_id in state.tested_workers
        ):
            # tested_workers covers a vote held past its lease expiry
            # that arrives after the task was re-leased to the same
            # worker as a performance test: that worker has seen it
            return AnswerOutcome.DUPLICATE
        if state.completed:
            # the slot was requeued and filled by someone else first
            return AnswerOutcome.IGNORED
        return AnswerOutcome.ACCEPTED

    def _choose_assignment(
        self, worker_id: WorkerId, actives: list[WorkerId]
    ) -> Assignment | None:
        """Assignment decision for one requesting worker.

        The default is the full adaptive scheme of Algorithm 2;
        baseline strategies (BestEffort, QF-Only) override this hook.
        """
        return self.assigner.assign_for_worker(
            worker_id,
            list(self._states.values()),
            actives,
            self._estimates,
            epoch=self._assign_epoch,
        )

    def _consensus_label(self, vote_state: VoteState) -> Label:
        """Consensus under the configured rule (Section 2.1).

        "majority" is the paper's default simple majority; "weighted"
        weighs each vote by the voter's current estimated accuracy on
        the task, which lets one demonstrated expert overrule two
        doubtful voters.
        """
        if self.config.consensus == "majority":
            return vote_state.consensus()
        score = 0.0
        for vote in vote_state.answers:
            weight = self._accuracy_of(vote.worker_id, vote.task_id)
            score += weight if vote.label is Label.YES else -weight
        return Label.YES if score > 0 else Label.NO

    # ------------------------------------------------------------------
    # estimation plumbing
    # ------------------------------------------------------------------
    def _observed_of(self, worker_id: WorkerId) -> dict[TaskId, float]:
        """Sparse observed accuracies ``q^w`` (Eq. 5) for a worker."""
        answers = self._answers.get(worker_id, [])
        tests = self._test_answers.get(worker_id, [])
        # vote lists of the tasks this worker answered (qualification
        # tasks have none)
        votes_by_task: dict[TaskId, list[Answer]] = {}
        for answer in answers + tests:
            vote_state = self._votes.get(answer.task_id)
            if vote_state is not None and vote_state.answers:
                votes_by_task[answer.task_id] = vote_state.answers
        observed = self._observed_computer.compute(
            answers,
            votes_by_task,
            self._consensus,
            self._accuracy_of,
        )
        # grade test answers against the (already formed) consensus; the
        # test vote itself joins the Eq. (5) vote list
        for answer in tests:
            consensus = self._consensus.get(answer.task_id)
            if consensus is None:
                continue
            votes = list(votes_by_task.get(answer.task_id, ())) + [answer]
            observed[answer.task_id] = (
                self._observed_computer.observed_for_answer(
                    answer, votes, consensus, self._accuracy_of
                )
            )
        return observed

    def _accuracy_of(self, worker_id: WorkerId, task_id: TaskId) -> float:
        """Previously estimated accuracy of a co-voter (Section 3.2)."""
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
        """Current accuracy vector ``p^w`` (recomputed when stale)."""
        self._refresh_estimates([worker_id])
        return self._estimates[worker_id]

    # ------------------------------------------------------------------
    # bookkeeping / results
    # ------------------------------------------------------------------
    def _is_assignable(self, worker_id: WorkerId) -> bool:
        return self.warmup.is_qualified(worker_id) and self.warmup.has_finished(
            worker_id
        )

    def release_assignment(self, worker_id: WorkerId, task_id: TaskId) -> bool:
        """Release an outstanding (unanswered) assignment.

        The MTurk analogue is a worker *returning* a HIT (Appendix A):
        the slot reopens so another worker can take it, and the
        returning worker may even receive the task again later.
        Returns False when no such assignment is outstanding.
        """
        if self._pending.pop((worker_id, task_id), None) is None:
            return False
        state = self._states.get(task_id)
        if state is not None:
            state.assigned_workers.discard(worker_id)
        self._assign_epoch += 1
        return True

    @property
    def assignment_epoch(self) -> int:
        """Current assignment invalidation epoch (see ``_assign_epoch``)."""
        return self._assign_epoch

    def expire_stale_assignments(self, max_age: int) -> list[tuple[WorkerId, TaskId]]:
        """Release every outstanding assignment older than ``max_age``
        clock ticks (abandoned HITs).  Returns the released pairs."""
        if max_age < 0:
            raise ValueError("max_age must be >= 0")
        stale = [
            pair
            for pair, issued in self._pending.items()
            if self._clock - issued > max_age
        ]
        for worker_id, task_id in stale:
            self.release_assignment(worker_id, task_id)
        return stale

    def pending_assignments(self) -> dict[tuple[WorkerId, TaskId], int]:
        """Outstanding real assignments with their issue ticks."""
        return dict(self._pending)

    def active_workers(self) -> list[WorkerId]:
        """Workers seen within the activity window (Section 4.1, Step 1)."""
        window = self.config.assigner.active_window
        return [
            w
            for w, seen in self._last_seen.items()
            if self._clock - seen <= window
        ]

    def uncompleted_tasks(self) -> list[TaskId]:
        """Tasks not yet globally completed (qualification excluded)."""
        return [t for t, s in self._states.items() if not s.completed]

    def completed_tasks(self) -> list[TaskId]:
        """Globally completed non-qualification tasks (platform hook)."""
        return [t for t, s in self._states.items() if s.completed]

    def is_worker_rejected(self, worker_id: WorkerId) -> bool:
        """Whether warm-up eliminated this worker (platform hook)."""
        return not self.warmup.is_qualified(worker_id)

    def is_finished(self) -> bool:
        """True once every non-qualification task reached consensus."""
        return all(state.completed for state in self._states.values())

    def predictions(self) -> dict[TaskId, Label]:
        """Current results: consensus where complete, else running
        majority (ties toward NO); qualification tasks map to their
        ground truth (the requester labelled them)."""
        out: dict[TaskId, Label] = {}
        for task_id in self.tasks.ids():
            if task_id in self.warmup.qualification_truth:
                out[task_id] = self.warmup.qualification_truth[task_id]
            elif task_id in self._consensus:
                out[task_id] = self._consensus[task_id]
            else:
                out[task_id] = self._votes[task_id].consensus()
        return out

    def answers_of(self, worker_id: WorkerId) -> list[Answer]:
        """All recorded (non-test) answers of a worker."""
        return list(self._answers.get(worker_id, ()))

    def assignment_counts(self) -> dict[WorkerId, int]:
        """Completed assignments per worker (Figure 15's distribution)."""
        counts: dict[WorkerId, int] = {}
        for worker_id, answers in self._answers.items():
            non_qual = [
                a
                for a in answers
                if a.task_id not in self.warmup.qualification_truth
            ]
            counts[worker_id] = len(non_qual)
        return counts

    def votes(self) -> Mapping[TaskId, VoteState]:
        """Read-only view of per-task vote state."""
        return dict(self._votes)

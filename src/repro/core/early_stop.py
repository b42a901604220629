"""Confidence-based early stopping (related work [26]).

The paper fixes the assignment size at ``k`` votes per task;
Parameswaran et al. (CrowdScreen, cited as [26]) study how many
assignments a task actually *needs*.  iCrowd's accuracy estimates make
a simple adaptive rule possible: after each answer, compute the
probabilistic-verification posterior of the current vote set under the
voters' estimated accuracies, and declare the task globally completed
as soon as that posterior clears a confidence threshold — up to at most
``k`` votes as before.

The effect is budget savings: easy tasks (two confident agreeing
experts) finish with 2 votes instead of 3, and the saved assignments
flow to harder tasks.  The cost-efficiency bench quantifies the trade.
"""

from __future__ import annotations

from typing import Any

from repro.aggregation.pv import verification_posterior
from repro.core.framework import ICrowd
from repro.core.types import (
    BINARY_CHOICES,
    AnswerOutcome,
    Label,
    TaskId,
    WorkerId,
)


class EarlyStopICrowd(ICrowd):
    """iCrowd with confidence-based early task completion.

    Parameters (beyond :class:`ICrowd`)
    -----------------------------------
    confidence_threshold:
        Posterior confidence at which a task completes early.  The
        calibrated estimator is deliberately conservative (estimates
        hover near the prior until real evidence accumulates), so
        thresholds in the 0.6-0.8 range are the practical operating
        points; 0.95+ effectively disables early stopping early in a
        job.  At least ``min_votes`` answers are required so a single
        confident voter cannot close a task alone.
    min_votes:
        Minimum answers before early stopping may trigger.
    """

    def __init__(
        self,
        *args: Any,
        confidence_threshold: float = 0.75,
        min_votes: int = 2,
        **kwargs: Any,
    ) -> None:
        if not 0.5 < confidence_threshold < 1.0:
            raise ValueError(
                "confidence_threshold must be in (0.5, 1.0), got "
                f"{confidence_threshold}"
            )
        if min_votes < 1:
            raise ValueError("min_votes must be >= 1")
        super().__init__(*args, **kwargs)
        if self.tasks.choices != BINARY_CHOICES:
            # the verification posterior below is binary
            raise ValueError("early stopping needs a binary task set")
        self.confidence_threshold = confidence_threshold
        self.min_votes = min_votes

    def on_answer(
        self,
        worker_id: WorkerId,
        task_id: TaskId,
        label: Label,
        is_test: bool = False,
    ) -> AnswerOutcome:
        """Record the answer; an accepted vote may complete its task
        early on confident consensus."""
        outcome = super().on_answer(worker_id, task_id, label, is_test)
        if (
            outcome is AnswerOutcome.ACCEPTED
            and not is_test
            and task_id not in self.warmup.qualification_truth
            and not self._board.states[task_id].completed
        ):
            self._stop_early(task_id)
        return outcome

    def _stop_early(self, task_id: TaskId) -> None:
        """Complete an open task whose votes clear the threshold."""
        vote_state = self._votes[task_id]
        if len(vote_state.answers) < self.min_votes:
            return
        votes = [
            (vote.label, self._accuracy_of(vote.worker_id, task_id))
            for vote in vote_state.answers
        ]
        posterior_yes = verification_posterior(votes)
        confidence = max(posterior_yes, 1.0 - posterior_yes)
        if confidence >= self.confidence_threshold:
            self._board.complete(task_id)
            self._consensus[task_id] = (
                Label.YES if posterior_yes > 0.5 else Label.NO
            )
            for vote in vote_state.answers:
                self._dirty.add(vote.worker_id)

    def votes_spent(self) -> int:
        """Total non-test answers collected (the budget actually used)."""
        qualification = set(self.warmup.qualification_truth)
        return sum(
            1
            for answers in self._answers.values()
            for answer in answers
            if answer.task_id not in qualification
        )

"""Observed accuracy estimation (Section 3.2, Equation 5).

The observed accuracy ``q_i^w`` models how well worker ``w`` did on a
globally completed microtask ``t_i``:

- For a **qualification** task with ground truth, ``q_i^w`` is 1 when
  the answer matches the gold label and 0 otherwise.
- For a **consensus** task, partition the task's workers into ``W1``
  (answer equals consensus) and ``W2`` (answer differs).  With
  ``P1 = Π_{w'∈W1} p_i^{w'}`` and bars denoting complements,

      q_i^w = P1·P̄2 / (P1·P̄2 + P̄1·P2)    if ans_i^w = ans_i*
      q_i^w = P̄1·P2 / (P1·P̄2 + P̄1·P2)    otherwise

  i.e. the posterior probability that the consensus (resp. minority)
  answer is the correct one, given the current accuracy estimates of
  everyone who voted — the worker herself included.

With ``m`` choices (the Section 2.1 extension) a wrong worker picks
each specific wrong label with probability ``(1 - p) / (m - 1)``, and
``q_i^w`` is the posterior of the worker's own label over all ``m``
labels.  At ``m = 2`` that is the formula above, bit for bit.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping

from repro.core.types import Answer, Label, TaskId, WorkerId

#: Callback giving the current accuracy estimate of a worker on a task.
AccuracyLookup = Callable[[WorkerId, TaskId], float]


def _clamp(p: float, floor: float = 1e-6) -> float:
    """Keep probabilities strictly inside (0, 1) so products stay sane."""
    return min(max(p, floor), 1.0 - floor)


def consensus_observed_accuracy(
    worker_label: Label,
    consensus: Label,
    votes: Iterable[tuple[Label, float]],
    num_choices: int = 2,
) -> float:
    """Equation (5) for one worker on one consensus task.

    Parameters
    ----------
    worker_label:
        The answer submitted by the worker being scored.
    consensus:
        The task's consensus answer.  Eq. (5) scores agreement with it
        and disagreement with it alike as the posterior of the worker's
        own label, so the value does not depend on it.
    votes:
        ``(label, estimated_accuracy)`` for *every* worker that voted on
        the task, including the worker being scored.
    num_choices:
        Size ``m`` of the answer alphabet.

    Returns
    -------
    float
        ``q_i^w`` in (0, 1).

    A label's likelihood is ``Π p`` over its voters times
    ``Π (1 - p) / (m - 1)`` over all other voters; the posterior
    normalises over all ``m`` labels, the ones nobody voted for
    included.  Labels are visited in first-vote order.
    """
    if num_choices < 2:
        raise ValueError("num_choices must be at least 2")
    spread = num_choices - 1
    scored: list[tuple[Label, float, float]] = []
    unvoted = 1.0  # likelihood of a label nobody voted for
    for label, accuracy in votes:
        accuracy = _clamp(accuracy)
        miss = (1.0 - accuracy) / spread  # P(picks a given wrong label)
        unvoted *= miss
        scored.append((label, accuracy, miss))
    likelihood: dict[Label, float] = {}
    for candidate, _, _ in scored:
        if candidate in likelihood:
            continue
        right = 1.0  # Π p over the candidate's voters
        wrong = 1.0  # Π (1 - p) / (m - 1) over everyone else
        for label, accuracy, miss in scored:
            if label == candidate:
                right *= accuracy
            else:
                wrong *= miss
        likelihood[candidate] = right * wrong
    if len(likelihood) > num_choices:
        raise ValueError(
            f"{len(likelihood)} distinct labels voted, num_choices is "
            f"{num_choices}"
        )
    denominator = (
        sum(likelihood.values()) + (num_choices - len(likelihood)) * unvoted
    )
    # repro-lint: disable=RL004 -- exact-zero guard before division
    if denominator == 0.0:
        # degenerate accuracies cancelled out; fall back to a uniform guess
        return 1.0 / num_choices
    return likelihood.get(worker_label, unvoted) / denominator


class ObservedAccuracyComputer:
    """Builds the sparse observed-accuracy vector ``q^w`` (Algorithm 1,
    function ``ComputeObserved``).

    The computer is stateless with respect to workers: callers pass the
    worker's answers on globally completed tasks, the per-task vote
    records, and an accuracy lookup for co-voters.
    """

    def __init__(
        self,
        qualification_truth: Mapping[TaskId, Label],
        num_choices: int = 2,
    ) -> None:
        """``qualification_truth`` maps qualification task id → gold
        label; ``num_choices`` is the task set's alphabet size ``m``."""
        self._qualification_truth = dict(qualification_truth)
        self._num_choices = num_choices

    @property
    def qualification_tasks(self) -> set[TaskId]:
        return set(self._qualification_truth)

    def observed_for_answer(
        self,
        answer: Answer,
        task_votes: Iterable[Answer],
        consensus: Label,
        accuracy_of: AccuracyLookup,
    ) -> float:
        """Observed accuracy of a single answer.

        Qualification tasks short-circuit to exact 0/1 grading; consensus
        tasks evaluate Eq. (5) over all recorded votes.
        """
        truth = self._qualification_truth.get(answer.task_id)
        if truth is not None:
            return 1.0 if answer.label == truth else 0.0
        votes = [
            (vote.label, accuracy_of(vote.worker_id, vote.task_id))
            for vote in task_votes
        ]
        return consensus_observed_accuracy(
            answer.label, consensus, votes, self._num_choices
        )

    def compute(
        self,
        worker_answers: Iterable[Answer],
        votes_by_task: Mapping[TaskId, list[Answer]],
        consensus_by_task: Mapping[TaskId, Label],
        accuracy_of: AccuracyLookup,
    ) -> dict[TaskId, float]:
        """Observed-accuracy vector ``q^w`` as a sparse dict.

        Only answers on globally completed tasks (present in
        ``consensus_by_task`` or among the qualification tasks) receive
        an entry; in-flight tasks are skipped, matching the paper's use
        of ``T^d`` only.
        """
        observed: dict[TaskId, float] = {}
        for answer in worker_answers:
            task_id = answer.task_id
            if task_id in self._qualification_truth:
                truth = self._qualification_truth[task_id]
                observed[task_id] = 1.0 if answer.label == truth else 0.0
                continue
            consensus = consensus_by_task.get(task_id)
            if consensus is None:
                continue  # task not globally completed yet
            observed[task_id] = self.observed_for_answer(
                answer,
                votes_by_task.get(task_id, [answer]),
                consensus,
                accuracy_of,
            )
        return observed

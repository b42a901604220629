"""Core value types shared across the iCrowd reproduction.

The paper (Section 2.1) models crowdsourcing as a set of binary
*microtasks* answered by a dynamic set of *workers*.  Each microtask is
assigned to ``k`` workers and resolved by majority voting; a task set
with ``m`` choices (the extension the paper notes) is resolved by
plurality.  These types are deliberately small, immutable where
possible, and free of behaviour that belongs to the estimator /
assigner layers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from collections.abc import Iterator, Sequence

#: Identifier of a microtask within a :class:`TaskSet` (dense, 0-based).
TaskId = int

#: Opaque worker identifier (the simulated platform uses ``"w<N>"`` strings,
#: mirroring MTurk worker ids such as ``A2YEBGPVQ41ESM``).
WorkerId = str


class AnswerOutcome(enum.Enum):
    """What a policy did with a submitted answer.

    Real platforms re-deliver submissions (client retries, duplicated
    POSTs), so ``on_answer`` must be idempotent: the first delivery of a
    ``(worker, task)`` vote is ``ACCEPTED``; any repeat is reported as
    ``DUPLICATE`` and leaves the policy's state untouched; answers that
    can no longer count (e.g. the task already reached consensus after
    the slot was requeued) are ``IGNORED``.
    """

    ACCEPTED = "accepted"
    DUPLICATE = "duplicate"
    IGNORED = "ignored"

    @property
    def accepted(self) -> bool:
        return self is AnswerOutcome.ACCEPTED


class Label(enum.IntEnum):
    """Binary answer to a microtask (paper restricts to YES/NO choices)."""

    NO = 0
    YES = 1

    def flipped(self) -> "Label":
        """Return the opposite label."""
        return Label.NO if self is Label.YES else Label.YES

    @classmethod
    def from_bool(cls, value: bool) -> "Label":
        """Map ``True`` to YES and ``False`` to NO."""
        return cls.YES if value else cls.NO


#: The answer alphabet of a binary task set, in tie-breaking order.
BINARY_CHOICES: tuple[Label, ...] = (Label.NO, Label.YES)


@dataclass(frozen=True)
class Task:
    """A microtask (binary unless its :class:`TaskSet` has more choices).

    Attributes
    ----------
    task_id:
        Dense index of the task in its :class:`TaskSet`.
    text:
        Natural-language payload shown to workers; tokenised for the
        similarity graph (Table 1 of the paper shows entity-resolution
        pairs with their token sets).
    domain:
        Topical domain of the task (e.g. ``"NBA"``).  Ground truth for
        evaluation of accuracy diversity; *never* revealed to the
        estimator, which must discover structure via the similarity
        graph.
    truth:
        Gold answer, used by the evaluation harness and by the warm-up
        component when the task is chosen as a qualification microtask.
    features:
        Optional numeric feature vector (e.g. POI coordinates) for the
        Euclidean similarity variant of Section 3.3.
    """

    task_id: TaskId
    text: str
    domain: str
    truth: Label
    features: tuple[float, ...] | None = None

    def tokens(self) -> frozenset[str]:
        """Lower-cased token set of the task text (cached per call site)."""
        return frozenset(self.text.lower().split())


@dataclass(frozen=True)
class Answer:
    """A single worker's submitted answer to a task."""

    task_id: TaskId
    worker_id: WorkerId
    label: Label
    #: Monotone submission sequence number assigned by the platform.
    seq: int = 0

    def is_correct(self, truth: Label) -> bool:
        """Whether this answer matches the supplied gold label."""
        return self.label == truth


@dataclass(frozen=True)
class Assignment:
    """A pending (worker, task) pairing produced by an assignment policy."""

    task_id: TaskId
    worker_id: WorkerId
    #: True when the assignment is a qualification / performance test
    #: rather than a contribution toward the task's ``k`` votes.
    is_test: bool = False


class TaskSet:
    """An ordered, indexable collection of :class:`Task` objects.

    Provides O(1) lookup by id and convenience accessors used throughout
    the estimator and the experiment harness.

    ``choices`` is the answer alphabet every task shares:
    :data:`BINARY_CHOICES` by default, or any ``m >= 2`` distinct
    hashable labels for the m-choice extension of Section 2.1 (strings
    in practice; the static types name the binary :class:`Label`).
    Its order breaks consensus ties toward the earlier choice.
    """

    def __init__(
        self,
        tasks: Sequence[Task],
        choices: Sequence[Label] = BINARY_CHOICES,
    ) -> None:
        tasks = list(tasks)
        for expected, task in enumerate(tasks):
            if task.task_id != expected:
                raise ValueError(
                    f"task ids must be dense 0..n-1; got {task.task_id} at "
                    f"position {expected}"
                )
        self.choices: tuple[Label, ...] = tuple(choices)
        distinct = len(set(self.choices))
        if distinct < 2 or distinct < len(self.choices):
            raise ValueError(
                f"need at least two distinct choices, got {self.choices}"
            )
        for task in tasks:
            if task.truth not in self.choices:
                raise ValueError(
                    f"task {task.task_id} truth {task.truth!r} not in "
                    f"the choice set"
                )
        self._tasks: list[Task] = tasks

    def __len__(self) -> int:
        return len(self._tasks)

    def __iter__(self) -> Iterator[Task]:
        return iter(self._tasks)

    def __getitem__(self, task_id: TaskId) -> Task:
        return self._tasks[task_id]

    def ids(self) -> range:
        """All task ids in order."""
        return range(len(self._tasks))

    def domains(self) -> list[str]:
        """Distinct domains in first-appearance order."""
        seen: dict[str, None] = {}
        for task in self._tasks:
            seen.setdefault(task.domain, None)
        return list(seen)

    def by_domain(self, domain: str) -> list[Task]:
        """All tasks belonging to ``domain``."""
        return [t for t in self._tasks if t.domain == domain]

    def truths(self) -> list[Label]:
        """Gold labels in task-id order."""
        return [t.truth for t in self._tasks]


@dataclass
class VoteState:
    """Mutable per-task voting state maintained by the platform.

    Tracks who answered what, and whether the task has reached its
    consensus ("globally completed" in the paper's terminology).
    ``choices`` is the task set's answer alphabet.
    """

    task_id: TaskId
    k: int
    choices: tuple[Label, ...] = BINARY_CHOICES
    answers: list[Answer] = field(default_factory=list)

    def workers(self) -> set[WorkerId]:
        """Workers that have already answered this task."""
        return {a.worker_id for a in self.answers}

    def add(self, answer: Answer) -> None:
        """Record an answer; a worker may vote at most once per task,
        and only for one of the choices."""
        if answer.label not in self.choices:
            raise ValueError(
                f"choice {answer.label!r} not among {self.choices}"
            )
        if answer.worker_id in self.workers():
            raise ValueError(
                f"worker {answer.worker_id} already answered task "
                f"{self.task_id}"
            )
        self.answers.append(answer)

    def is_complete(self) -> bool:
        """True once ``k`` answers are collected (global completion)."""
        return len(self.answers) >= self.k

    def consensus(self) -> Label:
        """Plurality label; ties break toward the earlier choice (toward
        NO on binary tasks, where k is odd in the paper)."""
        labels = [a.label for a in self.answers]
        return max(self.choices, key=labels.count)

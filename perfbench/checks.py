"""Correctness checks run on every benchmark episode.

A check that fails raises :class:`CheckFailed`; the benchmark then
reports a failure instead of numbers.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from repro.core import Label, TaskId, TaskSet
from repro.platform import (
    AnswerEvent,
    AssignEvent,
    CompleteEvent,
    EventLog,
    ExpireEvent,
    PaymentLedger,
)


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def check_votes(events: EventLog, k: int) -> None:
    """Each completed task has exactly ``k`` accepted non-test votes and
    its ``CompleteEvent`` consensus is their majority; no other task has
    ``k`` votes."""
    votes: dict[TaskId, list[Label]] = {}
    completions: dict[TaskId, Label] = {}
    for event in events:
        if isinstance(event, AnswerEvent) and not event.is_test:
            votes.setdefault(event.task_id, []).append(event.label)
        elif isinstance(event, CompleteEvent):
            if event.task_id in completions:
                raise CheckFailed(f"task {event.task_id} completed twice")
            completions[event.task_id] = event.consensus
    for task_id, consensus in completions.items():
        labels = votes.get(task_id, [])
        if len(labels) != k:
            raise CheckFailed(
                f"completed task {task_id} has {len(labels)} accepted "
                f"votes, expected {k}"
            )
        yes = sum(1 for label in labels if label is Label.YES)
        majority = Label.YES if yes > len(labels) - yes else Label.NO
        if consensus is not majority:
            raise CheckFailed(
                f"task {task_id} consensus {consensus.name} is not the "
                f"majority {majority.name} of its votes"
            )
    for task_id, labels in votes.items():
        if task_id not in completions and len(labels) >= k:
            raise CheckFailed(
                f"task {task_id} has {len(labels)} votes but never completed"
            )


def check_leases(events: EventLog, timeout: int) -> None:
    """No answer is accepted after its lease expired."""
    issued: dict[tuple[str, TaskId], int] = {}
    expired: set[tuple[str, TaskId]] = set()
    for event in events:
        if isinstance(event, AssignEvent):
            key = (event.worker_id, event.task_id)
            issued[key] = event.step
            expired.discard(key)
        elif isinstance(event, ExpireEvent):
            expired.add((event.worker_id, event.task_id))
        elif isinstance(event, AnswerEvent):
            key = (event.worker_id, event.task_id)
            if key not in issued:
                raise CheckFailed(f"answer {key} was never assigned")
            if key in expired or event.step - issued[key] > timeout:
                raise CheckFailed(
                    f"answer {key} at step {event.step} accepted after its "
                    f"lease from step {issued[key]} expired"
                )


def check_payments(
    events: EventLog, payments: PaymentLedger, workers: Iterable[str]
) -> int:
    """Payments equal accepted answers; returns the number paid."""
    answers = len(events.answers())
    paid = sum(payments.payments_made(w) for w in workers)
    if paid != answers:
        raise CheckFailed(f"{paid} payments for {answers} accepted answers")
    return paid


def check_http_completions(
    status: Mapping[str, object], replies: int, stalled: bool
) -> None:
    """The job finished (or stalled with no assignable work left), and
    the server's final completed-task count equals the number of
    ``task_completed`` replies the clients saw."""
    if not (status.get("finished") or stalled):
        raise CheckFailed(f"job did not finish: {dict(status)}")
    if status.get("completed_tasks") != replies:
        raise CheckFailed(
            f"/status reports {status.get('completed_tasks')} completed "
            f"tasks but clients saw {replies} task_completed replies"
        )


def consensus_accuracy(events: EventLog, tasks: TaskSet) -> tuple[int, int]:
    """(completed tasks whose consensus equals ground truth, completed)."""
    completions = events.completions()
    right = sum(1 for e in completions if e.consensus is tasks[e.task_id].truth)
    return right, len(completions)

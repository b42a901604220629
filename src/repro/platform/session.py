"""One job's Appendix A interaction loop, shared by both front-ends.

The paper's ExternalQuestion cycle is request → assign → answer → pay
→ aggregate.  :class:`Session` owns the state that cycle needs — the
job's :class:`LeaseLedger`, :class:`EventLog` and
:class:`PaymentLedger` — and its three transitions:

- :meth:`Session.sweep` expires every lease past its deadline, hands
  the slot back to the policy and logs an ``ExpireEvent``;
- :meth:`Session.request` logs the ``RequestEvent``, asks the policy,
  opens the lease and logs the ``AssignEvent``;
- :meth:`Session.submit` settles the lease and delivers an in-time
  answer; an ``ACCEPTED`` answer is logged, paid, and — when it
  completed its task — followed by a ``CompleteEvent`` carrying the
  policy's :meth:`~PolicyProtocol.consensus`.

:class:`repro.platform.SimulatedPlatform` and
:class:`repro.platform.ICrowdHTTPServer` drive one session each and
keep only what is theirs: the simulator its worker pool and faults,
the server HTTP.  Each passes its own clock: a simulator step is one
request plus its answer, a server tick is one HTTP call.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Protocol, runtime_checkable

from repro.core.types import (
    AnswerOutcome,
    Assignment,
    Label,
    TaskId,
    WorkerId,
)
from repro.obs.metrics import NULL_RECORDER, Recorder
from repro.platform.events import (
    AnswerEvent,
    AssignEvent,
    CompleteEvent,
    EventLog,
    ExpireEvent,
    RequestEvent,
)
from repro.platform.hits import DEFAULT_PRICE_PER_ASSIGNMENT, DEFAULT_TASKS_PER_HIT
from repro.platform.leases import Lease, LeaseLedger, SettleResult
from repro.platform.payments import PaymentLedger


@runtime_checkable
class PolicyProtocol(Protocol):
    """What an assignment policy provides to be served by a session.

    :class:`repro.core.ICrowd` (over binary or m-choice task sets) and
    every baseline in :mod:`repro.baselines` implement every member;
    the session and both front-ends call them directly.
    """

    def on_worker_request(
        self,
        worker_id: WorkerId,
        active_workers: Sequence[WorkerId] | None = None,
    ) -> Assignment | None:
        """Serve a task request; None when nothing is assignable."""
        ...

    def on_answer(
        self,
        worker_id: WorkerId,
        task_id: TaskId,
        label: Label,
        is_test: bool = False,
    ) -> AnswerOutcome:
        """Record a submitted answer, idempotently.

        The first delivery of a ``(worker, task)`` vote is
        ``ACCEPTED``; a repeat is ``DUPLICATE`` and leaves the policy
        unchanged; a vote that can no longer count (its task already
        completed) is ``IGNORED``.
        """
        ...

    def release_assignment(self, worker_id: WorkerId, task_id: TaskId) -> bool:
        """Reopen an outstanding (unanswered) slot after its lease
        expired; False when the pair held no slot."""
        ...

    def is_worker_rejected(self, worker_id: WorkerId) -> bool:
        """Whether the policy has permanently rejected a worker."""
        ...

    def consensus(self, task_id: TaskId) -> Label | None:
        """Result of a globally completed task; None while it is open."""
        ...

    def completed_tasks(self) -> list[TaskId]:
        """Globally completed task ids."""
        ...

    def is_finished(self) -> bool:
        """True once every task is globally completed."""
        ...

    def predictions(self) -> dict[TaskId, Label]:
        """Current aggregated result per task."""
        ...


class Session:
    """The request → assign → answer → pay → aggregate loop of one job.

    Parameters
    ----------
    policy:
        The assignment policy.  Its methods are looked up on every
        call, so wrappers installed on the instance after the session
        was built (timers, tracers) still see each call.
    lease_timeout:
        Lease lifetime in the caller's clock ticks.
    price_per_microtask:
        Payment per accepted answer (paper default: one cent).
    recorder:
        Observability recorder shared with the lease ledger; the
        session adds a ``session.lease_issue`` span around each lease
        it opens and a ``session.aggregate`` span around each answer
        it delivers.
    """

    def __init__(
        self,
        policy: PolicyProtocol,
        lease_timeout: int,
        price_per_microtask: float = (
            DEFAULT_PRICE_PER_ASSIGNMENT / DEFAULT_TASKS_PER_HIT
        ),
        recorder: Recorder = NULL_RECORDER,
    ) -> None:
        self.policy = policy
        self.recorder = recorder
        self.leases = LeaseLedger(lease_timeout, recorder=recorder)
        self.events = EventLog()
        self.payments = PaymentLedger(price_per_microtask=price_per_microtask)

    def sweep(self, step: int) -> list[Lease]:
        """Expire every lease past its deadline and requeue its slot.

        Returns the expired leases.
        """
        due = self.leases.expire_due(step)
        for lease in due:
            self.policy.release_assignment(lease.worker_id, lease.task_id)
            self.events.append(
                ExpireEvent(
                    step=step, worker_id=lease.worker_id, task_id=lease.task_id
                )
            )
        return due

    def request(
        self,
        worker_id: WorkerId,
        step: int,
        actives: Sequence[WorkerId] | None,
    ) -> Lease | None:
        """Serve one task request: the lease of the assignment, or None
        when the policy had nothing for the worker."""
        self.events.append(RequestEvent(step=step, worker_id=worker_id))
        assignment = self.policy.on_worker_request(worker_id, actives)
        if assignment is None:
            return None
        with self.recorder.span("session.lease_issue", worker=worker_id):
            lease = self.leases.issue(
                worker_id, assignment.task_id, step, assignment.is_test
            )
        self.events.append(
            AssignEvent(
                step=step,
                worker_id=worker_id,
                task_id=assignment.task_id,
                is_test=assignment.is_test,
            )
        )
        return lease

    def submit(
        self,
        worker_id: WorkerId,
        task_id: TaskId,
        label: Label,
        is_test: bool,
        step: int,
    ) -> SettleResult | AnswerOutcome:
        """Settle one submission's lease and deliver it if in time.

        Returns the ledger's verdict when the lease did not settle
        (``LATE``, ``DUPLICATE`` or ``UNKNOWN``: the policy never sees
        the answer), else the policy's :class:`AnswerOutcome`.
        """
        settle = self.leases.settle(worker_id, task_id, step)
        if settle is not SettleResult.ANSWERED:
            return settle
        with self.recorder.span(
            "session.aggregate", worker=worker_id, task=task_id
        ):
            outcome = self.policy.on_answer(worker_id, task_id, label, is_test)
        if outcome is not AnswerOutcome.ACCEPTED:
            return outcome
        self.events.append(
            AnswerEvent(
                step=step,
                worker_id=worker_id,
                task_id=task_id,
                label=label,
                is_test=is_test,
            )
        )
        self.payments.pay_once(worker_id, task_id)
        if not is_test:
            # an accepted vote can complete only its own, open task
            consensus = self.policy.consensus(task_id)
            if consensus is not None:
                self.events.append(
                    CompleteEvent(
                        step=step, task_id=task_id, consensus=consensus
                    )
                )
        return outcome

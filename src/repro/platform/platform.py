"""The simulated platform driver (Appendix A's interaction loop).

``SimulatedPlatform.run`` iterates the paper's cycle: an active worker
requests work → the policy assigns a microtask → the worker answers →
the platform records the answer and processes payment → the policy
updates its state.  The loop ends when the policy reports all tasks
globally completed, when no progress is possible (every active worker
drew a blank repeatedly), or at a step cap.

The cycle itself — leases, events, payments, completions — is the
:class:`repro.platform.session.Session` that the HTTP facade drives
too; this module adds the simulation around it.  Unlike the paper's
idealised loop, every issued assignment is covered by a *lease*
(:mod:`repro.platform.leases`): if the answer does not arrive within
``assignment_timeout`` steps — the worker walked away, blacked out, or
submitted garbage — the lease expires, the slot is requeued with the
policy, and a later answer for it is dropped instead of corrupting the
vote state.  A :class:`repro.platform.faults.FaultConfig` additionally
injects the failure modes real microtask markets exhibit (duplicate
submissions, late answers, blackout bursts, malformed submits) to
exercise exactly those paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.types import AnswerOutcome, Label, TaskId, TaskSet, WorkerId
from repro.obs.metrics import NULL_RECORDER, Recorder
from repro.platform.events import EventLog, RejectEvent
from repro.platform.faults import FaultConfig, FaultInjector, FaultStats
from repro.platform.hits import DEFAULT_PRICE_PER_ASSIGNMENT, DEFAULT_TASKS_PER_HIT
from repro.platform.leases import LeaseStats, SettleResult
from repro.platform.payments import PaymentLedger
from repro.platform.session import PolicyProtocol, Session
from repro.workers.pool import WorkerPool


@dataclass
class PlatformReport:
    """Outcome of one platform run."""

    steps: int
    finished: bool
    predictions: dict[TaskId, Label]
    events: EventLog
    payments: PaymentLedger
    stalled: bool = False
    rejected_workers: list[WorkerId] = field(default_factory=list)
    leases: LeaseStats = field(default_factory=LeaseStats)
    faults: FaultStats = field(default_factory=FaultStats)
    #: flat metric snapshot (``recorder.snapshot()``) of the run; empty
    #: when the platform ran without a recorder.
    metrics: dict[str, float] = field(default_factory=dict)

    @property
    def num_answers(self) -> int:
        return len(self.events.answers())

    @property
    def total_cost(self) -> float:
        return self.payments.total_cost

    def accuracy(
        self, tasks: TaskSet, exclude: set[TaskId] | None = None
    ) -> float:
        """Fraction of tasks whose predicted result matches ground truth.

        ``exclude`` typically holds the qualification task ids so the
        gold-labelled freebies do not inflate the metric.  An empty
        denominator (every task excluded) is *not* "all wrong": it
        returns NaN so experiment reports cannot mistake it for 0%.
        """
        exclude = exclude or set()
        considered = [t for t in tasks if t.task_id not in exclude]
        if not considered:
            return float("nan")
        correct = sum(
            1
            for t in considered
            if self.predictions.get(t.task_id) == t.truth
        )
        return correct / len(considered)

    def accuracy_by_domain(
        self, tasks: TaskSet, exclude: set[TaskId] | None = None
    ) -> dict[str, float]:
        """Per-domain accuracy (the paper's per-domain bars).

        Domains whose every task is excluded map to NaN, mirroring
        :meth:`accuracy`'s empty-denominator convention.
        """
        exclude = exclude or set()
        totals: dict[str, int] = {}
        corrects: dict[str, int] = {}
        for task in tasks:
            totals.setdefault(task.domain, 0)
            if task.task_id in exclude:
                continue
            totals[task.domain] += 1
            if self.predictions.get(task.task_id) == task.truth:
                corrects[task.domain] = corrects.get(task.domain, 0) + 1
        return {
            domain: (
                corrects.get(domain, 0) / total
                if total
                else float("nan")
            )
            for domain, total in totals.items()
        }


class SimulatedPlatform:
    """Drives a policy against a simulated worker pool.

    Parameters
    ----------
    tasks:
        The microtask set being crowdsourced.
    pool:
        The dynamic worker pool.
    policy:
        The assignment policy under evaluation.
    price_per_assignment / tasks_per_hit:
        Pricing used by the payment ledger (paper defaults: $0.10 for a
        10-microtask HIT, i.e. one cent per answered microtask).
    abandonment:
        Probability a worker walks away from an issued assignment
        without answering (the MTurk "returned HIT" case); the lease
        ledger reclaims the slot after ``assignment_timeout`` steps.
    assignment_timeout:
        Lease lifetime in platform steps; expiry runs every step.
    faults:
        Optional :class:`FaultConfig`; ``None`` and
        ``FaultConfig.disabled()`` behave identically.
    recorder:
        Observability recorder (``None`` = disabled).  Shared with the
        session and the fault injector; the run loop records step,
        request, assignment and answer-outcome counters and a
        ``platform.run`` span, and :attr:`PlatformReport.metrics`
        carries the final snapshot.  The recorder never draws from any
        RNG stream, so a seeded run's event log is byte-identical with
        and without one.
    """

    def __init__(
        self,
        tasks: TaskSet,
        pool: WorkerPool,
        policy: PolicyProtocol,
        price_per_assignment: float = DEFAULT_PRICE_PER_ASSIGNMENT,
        tasks_per_hit: int = DEFAULT_TASKS_PER_HIT,
        abandonment: float = 0.0,
        assignment_timeout: int = 50,
        faults: FaultConfig | None = None,
        seed: int = 0,
        recorder: Recorder = NULL_RECORDER,
    ) -> None:
        if not 0.0 <= abandonment < 1.0:
            raise ValueError(
                f"abandonment must be in [0, 1), got {abandonment}"
            )
        if assignment_timeout <= 0:
            raise ValueError("assignment_timeout must be positive")
        self.tasks = tasks
        self.pool = pool
        self.policy = policy
        self.abandonment = abandonment
        self.assignment_timeout = assignment_timeout
        self.recorder = recorder
        self.session = Session(
            policy,
            assignment_timeout,
            price_per_microtask=price_per_assignment / tasks_per_hit,
            recorder=recorder,
        )
        self.events = self.session.events
        self.payments = self.session.payments
        self.leases = self.session.leases
        self.injector = FaultInjector(
            faults or FaultConfig.disabled(),
            seed=seed,
            recorder=self.recorder,
        )
        self._rejected: list[WorkerId] = []
        #: late-fault answers held until after their lease expired:
        #: (deliver_at_step, worker, task, label, is_test)
        self._held: list[tuple[int, WorkerId, TaskId, Label, bool]] = []
        from repro.utils.rng import spawn_rng

        self._rng = spawn_rng(seed, "platform-abandonment")

    def run(self, max_steps: int | None = None) -> PlatformReport:
        """Run the interaction loop until completion, stall or cap.

        ``max_steps`` defaults to a generous multiple of the total work
        (k answers per task plus warm-up), so broken policies terminate.
        """
        with self.recorder.span("platform.run"):
            report = self._run_loop(max_steps)
        report.metrics = self.recorder.snapshot()
        return report

    def _run_loop(self, max_steps: int | None) -> PlatformReport:
        if max_steps is None:
            max_steps = 200 * max(1, len(self.tasks))
        step = 0
        consecutive_blanks = 0
        stall_limit = 3 * max(1, len(self.pool))
        if self.injector.config.blackout_rate > 0.0:
            # blanks during a blackout burst are downtime, not a stall
            stall_limit += 2 * self.injector.config.blackout_duration
        stalled = False
        while step < max_steps and not self.policy.is_finished():
            step += 1
            self.pool.tick()
            self._apply_blackouts()
            self._deliver_held(step)
            if self.session.sweep(step):
                self.recorder.counter(
                    "repro_platform_lease_sweeps_total",
                    "Expiry sweeps that reclaimed at least one lease.",
                ).inc()
            requester = self.pool.sample_requester()
            if requester is None:
                consecutive_blanks += 1
                if consecutive_blanks > stall_limit:
                    stalled = True
                    break
                continue
            self.recorder.counter(
                "repro_platform_requests_total",
                "Task requests issued by sampled workers.",
            ).inc()
            lease = self.session.request(
                requester, step, self.pool.active_workers()
            )
            if lease is None:
                self.recorder.counter(
                    "repro_platform_blank_requests_total",
                    "Requests the policy served with no assignment.",
                ).inc()
                # nothing for this worker: rejected, or no eligible task
                if self.policy.is_worker_rejected(requester):
                    self.pool.remove(requester)
                    self._rejected.append(requester)
                    self.events.append(
                        RejectEvent(step=step, worker_id=requester)
                    )
                consecutive_blanks += 1
                if consecutive_blanks > stall_limit:
                    stalled = True
                    break
                continue
            consecutive_blanks = 0
            self.recorder.counter(
                "repro_platform_assignments_total",
                "Assignments issued, split by qualification tests.",
                is_test=str(lease.is_test).lower(),
            ).inc()
            if (
                self.abandonment
                and not lease.is_test
                and self._rng.random() < self.abandonment
            ):
                # the worker walks away without answering: no submission
                # is credited, and the open lease is reclaimed by expiry
                self.pool.note_abandonment(requester)
                self.recorder.counter(
                    "repro_platform_abandonments_total",
                    "Assignments abandoned without a submission.",
                ).inc()
                continue
            worker = self.pool.worker(requester)
            label = worker.answer(self.tasks[lease.task_id])
            if self.injector.malformed_submission():
                # garbage submit: dropped before it reaches the policy;
                # the lease stays open and expiry requeues the slot
                self.pool.note_submission(requester)
                continue
            if not lease.is_test and self.injector.late_answer():
                # the worker sits on the answer until after expiry
                self._held.append(
                    (
                        lease.expires_at + 2,
                        requester,
                        lease.task_id,
                        label,
                        lease.is_test,
                    )
                )
                self.pool.note_submission(requester)
                continue
            self._deliver(step, requester, lease.task_id, label, lease.is_test)
            if self.injector.duplicate_submission():
                # the same submission arrives again (client retry): the
                # ledger flags it and the policy must shrug it off
                self._deliver(
                    step, requester, lease.task_id, label, lease.is_test
                )
            self.pool.note_submission(requester)
        if step:
            self.recorder.counter(
                "repro_platform_steps_total", "Interaction-loop steps run."
            ).inc(step)
        completions = len(self.events.completions())
        if completions:
            self.recorder.counter(
                "repro_platform_completions_total",
                "Tasks whose vote reached global completion.",
            ).inc(completions)
        return PlatformReport(
            steps=step,
            finished=self.policy.is_finished(),
            predictions=self.policy.predictions(),
            events=self.events,
            payments=self.payments,
            stalled=stalled,
            rejected_workers=list(self._rejected),
            leases=self.leases.stats,
            faults=self.injector.stats,
        )

    # ------------------------------------------------------------------
    def _deliver(
        self,
        step: int,
        worker_id: WorkerId,
        task_id: TaskId,
        label: Label,
        is_test: bool,
    ) -> bool:
        """Submit one answer through the session; True when accepted.

        Late, duplicate and policy-refused answers are dropped and
        counted by result.
        """
        verdict = self.session.submit(worker_id, task_id, label, is_test, step)
        if verdict in (SettleResult.DUPLICATE, SettleResult.UNKNOWN):
            # probe the policy anyway: an idempotent policy leaves its
            # state untouched and reports the duplicate
            probe = self.policy.on_answer(worker_id, task_id, label, is_test)
            if probe.accepted:
                raise RuntimeError(
                    f"policy accepted a duplicate submission for "
                    f"({worker_id!r}, {task_id}); on_answer must be "
                    f"idempotent"
                )
            self.injector.stats.duplicates_dropped += 1
        self.recorder.counter(
            "repro_platform_answers_total",
            "Submissions delivered through the lease ledger, by result.",
            result=verdict.value,
        ).inc()
        return verdict is AnswerOutcome.ACCEPTED

    def _deliver_held(self, step: int) -> None:
        """Deliver answers the late-fault held past their lease expiry."""
        if not self._held:
            return
        due = [item for item in self._held if item[0] <= step]
        if not due:
            return
        self._held = [item for item in self._held if item[0] > step]
        for _, worker_id, task_id, label, is_test in due:
            if not self._deliver(step, worker_id, task_id, label, is_test):
                self.injector.stats.late_dropped += 1

    def _apply_blackouts(self) -> None:
        """Suspend blackout-burst victims for the configured duration."""
        victims = self.injector.blackout_victims(self.pool.active_workers())
        for worker_id in victims:
            self.pool.suspend(
                worker_id, self.injector.config.blackout_duration
            )


def is_empty_accuracy(value: float) -> bool:
    """Whether an accuracy value is the empty-denominator NaN marker."""
    return isinstance(value, float) and math.isnan(value)

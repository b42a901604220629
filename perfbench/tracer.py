"""In-memory span tracer the benchmark installs around layer entry points.

The tracer patches public callables (class methods and module
functions) of the program with thin wrappers.  Each call becomes one
span: name, start, end, the span that called it, and the id of the
worker request it belongs to.  Spans stay in memory and are written out
as JSONL once the run ends.  A span's self time is its duration minus
the time covered by its child spans; children of one span run on the
same thread one after another, so that is the sum of their durations.

Nothing is patched unless :meth:`Tracer.install` is called, so an
untraced run executes the program unmodified.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass

#: Callback turning a call's result into ``(tally name, amount)`` pairs.
Tally = Callable[[object], Iterable[tuple[str, int]]]


@dataclass(frozen=True)
class Span:
    span_id: int
    parent_id: int
    request_id: int
    name: str
    start: float
    end: float
    self_s: float


@dataclass
class Aggregate:
    """Count, total duration and self time of one span name."""

    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Records spans around patched callables.

    ``auto_request`` gives every root span (one opened with no span
    open on its thread) a fresh request id; a server, where each handler
    call is its own request, uses it.
    """

    def __init__(self, auto_request: bool = False) -> None:
        self.auto_request = auto_request
        self.spans: list[Span] = []
        self.tallies: dict[str, int] = {}
        self._taken = 0
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._local = threading.local()
        self._tally_lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def _state(self) -> threading.local:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.request = 0
        return local

    def new_request(self) -> None:
        """Start a new worker request on the calling thread."""
        self._state().request = next(self._requests)

    def _tally(self, pairs: Iterable[tuple[str, int]]) -> None:
        with self._tally_lock:
            for key, amount in pairs:
                self.tallies[key] = self.tallies.get(key, 0) + amount

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        tally: Tally | None = None,
        starts_request: bool = False,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper."""
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(
            owner, attr
        )
        tracer = self
        clock = time.perf_counter

        def traced(*args: object, **kwargs: object) -> object:
            state = tracer._state()
            stack = state.stack
            if starts_request or (tracer.auto_request and not stack):
                state.request = next(tracer._requests)
            span_id = next(tracer._ids)
            # frame: [span id, accumulated child time]
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent_id = 0
                if stack:
                    stack[-1][1] += duration
                    parent_id = stack[-1][0]
                tracer.spans.append(
                    Span(
                        span_id, parent_id, state.request, name, start, end,
                        duration - frame[1],
                    )
                )
            if tally is not None:
                tracer._tally(tally(result))
            return result

        traced.__wrapped__ = original  # type: ignore[attr-defined]
        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every patched callable."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- reading -------------------------------------------------------
    def take(self) -> tuple[dict[str, Aggregate], dict[str, int]]:
        """Aggregates and tallies of the spans recorded since the last
        call (tallies are reset as well)."""
        fresh = self.spans[self._taken :]
        self._taken = len(self.spans)
        with self._tally_lock:
            tallies, self.tallies = self.tallies, {}
        return aggregate(fresh), tallies

    def write_jsonl(self, path: str) -> None:
        """Write every recorded span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "span_id": span.span_id,
                            "parent_id": span.parent_id,
                            "request_id": span.request_id,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "self_s": span.self_s,
                        }
                    )
                    + "\n"
                )


def aggregate(spans: Iterable[Span]) -> dict[str, Aggregate]:
    """Per-name count, total and self time."""
    out: dict[str, Aggregate] = {}
    for span in spans:
        agg = out.get(span.name)
        if agg is None:
            agg = out[span.name] = Aggregate()
        agg.count += 1
        agg.total_s += span.end - span.start
        agg.self_s += span.self_s
    return out


def install_layers(tracer: Tracer, sim_requests: bool) -> None:
    """Wrap the public calls into each layer of the program.

    ``sim_requests`` starts a new request id at every simulator step
    (``WorkerPool.tick`` opens each step); without it, request ids come
    from the client (``request_task``) or from ``auto_request``.
    Spans named ``workers.*`` belong to the load generator and never
    count as system time.
    """
    import repro.core.assigner as assigner_module
    from repro.core import (
        AccuracyEstimator,
        AdaptiveAssigner,
        ICrowd,
        ObservedAccuracyComputer,
        PerformanceTester,
    )
    from repro.platform import (
        EventLog,
        FaultInjector,
        ICrowdClient,
        LeaseLedger,
        PaymentLedger,
        SimulatedPlatform,
    )
    from repro.workers import SimulatedWorker, WorkerPool

    def blank(result: object) -> Iterable[tuple[str, int]]:
        return [("framework.blank", int(result is None))]

    def chosen(result: object) -> Iterable[tuple[str, int]]:
        return [("testing.chosen", int(result is not None))]

    def settled(result: object) -> Iterable[tuple[str, int]]:
        return [(f"leases.{result.value}", 1)]  # type: ignore[attr-defined]

    def expired(result: object) -> Iterable[tuple[str, int]]:
        return [("leases.expired", len(result))]  # type: ignore[arg-type]

    wrap = tracer.wrap
    wrap(ICrowd, "on_worker_request", "framework.request", tally=blank)
    wrap(ICrowd, "on_answer", "framework.answer")
    wrap(ICrowd, "is_finished", "framework.is_finished")
    wrap(ICrowd, "completed_tasks", "framework.completed_tasks")
    wrap(ICrowd, "release_assignment", "framework.release")
    wrap(ICrowd, "predictions", "framework.predictions")
    wrap(AdaptiveAssigner, "assign_for_worker", "assigner.assign_for_worker")
    wrap(assigner_module, "compute_top_worker_sets_fast", "assigner.top_sets")
    wrap(assigner_module, "greedy_assign", "assigner.greedy")
    wrap(AccuracyEstimator, "estimate", "estimator.estimate")
    wrap(ObservedAccuracyComputer, "compute", "observed.compute")
    wrap(PerformanceTester, "choose_test_task", "testing.choose", tally=chosen)
    wrap(SimulatedPlatform, "run", "platform.run")
    wrap(LeaseLedger, "issue", "leases.issue")
    wrap(LeaseLedger, "settle", "leases.settle", tally=settled)
    wrap(LeaseLedger, "expire_due", "leases.expire", tally=expired)
    wrap(EventLog, "append", "events.append")
    wrap(PaymentLedger, "pay_once", "payments.pay_once")
    for method in (
        "duplicate_submission",
        "late_answer",
        "malformed_submission",
        "blackout_victims",
    ):
        wrap(FaultInjector, method, "faults.decide")
    wrap(ICrowdClient, "request_task", "client.request", starts_request=True)
    wrap(ICrowdClient, "submit", "client.submit")
    wrap(WorkerPool, "tick", "workers.tick", starts_request=sim_requests)
    for method in (
        "sample_requester",
        "active_workers",
        "worker",
        "note_submission",
        "note_abandonment",
        "suspend",
        "remove",
    ):
        wrap(WorkerPool, method, "workers.pool")
    wrap(SimulatedWorker, "answer", "workers.answer")

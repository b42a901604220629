"""HTTP facade over an assignment policy (Appendix A).

The paper deploys iCrowd behind MTurk's *ExternalQuestion* mechanism:
each HIT embeds a URL of the iCrowd web server; when a worker accepts
the HIT, AMT requests the actual microtask from that server, displays
it in an iframe, and posts the answer back.  This module reproduces
that integration surface as a small threaded HTTP server:

- ``GET /request?worker=<id>`` — ask for the next microtask; returns
  ``{"task_id", "text", "is_test"}`` or HTTP 204 when nothing is
  assignable to the worker;
- ``POST /submit`` with JSON ``{"worker", "task_id", "label",
  "is_test"}`` — submit an answer; returns the task's completion state;
- ``GET /status`` — job progress (answers collected, finished flag,
  lease counters).

Because request and submit are separate HTTP calls, a worker may
simply never post back.  Every served assignment therefore opens a
lease (:mod:`repro.platform.leases`); leases are swept on every
interaction, expired slots are requeued with the policy, and submits
are classified against the ledger:

====== ==============================================================
status meaning
====== ==============================================================
200    answer accepted (or idempotently ignored; see ``accepted``)
400    malformed JSON / missing or invalid fields
404    unknown route, unknown task id, or never-seen worker
409    duplicate submit, or no outstanding assignment for the pair
410    the assignment lease expired before the answer arrived
====== ==============================================================

The server serialises access to the policy with a lock (policies are
deliberately single-threaded state machines) and binds to an ephemeral
localhost port by default.  :class:`repro.platform.client.ICrowdClient`
is the matching bounded-retry client.

Connections are HTTP/1.1 and persistent: one handler thread serves
every request of its connection until the client closes it, the
connection sits idle for :data:`IDLE_TIMEOUT_S`, or :meth:`stop`
closes it.  Every reply but 204 carries ``Content-Length`` and every
request body is read before the reply, so the next request on the
connection parses cleanly; a body that cannot be framed (bad
``Content-Length``, chunked) gets a 400 and the connection is closed.

Two observability surfaces make served rounds reconstructable after
the fact:

- **causal tracing** — handlers honour the W3C ``traceparent`` header
  (malformed or absent → a fresh trace): each request runs inside a
  ``server.<endpoint>`` span joined to the caller's trace, with the
  session's nested ``session.lease_issue`` / ``session.aggregate``
  spans around the two state transitions that matter;
- **flight data** — the session's :class:`EventLog` records
  request/assign/answer/complete/expire events at interaction-tick
  granularity, so :class:`repro.obs.FlightRecorder` can join it with
  the span trace into per-task lifecycle timelines.

The leases, events, payments and completions themselves are the
:class:`repro.platform.session.Session` the simulator drives too; the
server adds HTTP, its lock and its interaction clock.
"""

from __future__ import annotations

import json
import logging
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import parse_qs, urlparse

from repro.core.types import AnswerOutcome, Label, TaskSet, WorkerId
from repro.obs.exposition import CONTENT_TYPE, render_prometheus
from repro.obs.ids import (
    TRACEPARENT_HEADER,
    TraceContext,
    parse_traceparent,
)
from repro.obs.logging import get_logger, log_event
from repro.obs.metrics import MetricsRegistry, Recorder
from repro.platform.leases import SettleResult
from repro.platform.session import PolicyProtocol, Session

_LOGGER = get_logger("platform.server")

#: Seconds a persistent connection may wait for its next request
#: before the server closes it (and its handler thread ends).
IDLE_TIMEOUT_S = 30.0
#: Seconds :meth:`ICrowdHTTPServer.stop` waits, in all, for the
#: handler threads of the connections it closed.
STOP_JOIN_S = 5.0

#: Submits turned away by the lease ledger or the policy: verdict →
#: (HTTP status, rejection counter reason, error message template).
_REJECTIONS: dict[SettleResult | AnswerOutcome, tuple[int, str, str]] = {
    SettleResult.LATE: (
        410,
        "late",
        "assignment lease for task {task} expired; the slot was requeued",
    ),
    SettleResult.DUPLICATE: (
        409,
        "duplicate",
        "worker {worker!r} already submitted task {task}",
    ),
    SettleResult.UNKNOWN: (
        409,
        "unknown",
        "no outstanding assignment of task {task} for worker {worker!r}",
    ),
    AnswerOutcome.DUPLICATE: (
        409,
        "policy_duplicate",
        "worker {worker!r} already answered task {task}",
    ),
}


class _ConnectionServer(ThreadingHTTPServer):
    """A threading HTTP server that can close its open connections.

    Each accepted socket and its handler thread are registered by the
    serving thread before the handler starts, and dropped when the
    handler returns; so once ``shutdown()`` has returned, every
    connection still open is in ``connections``.
    """

    def __init__(
        self,
        address: tuple[str, int],
        handler: type[BaseHTTPRequestHandler],
    ) -> None:
        self._connections_lock = threading.Lock()
        self.connections: dict[socket.socket, threading.Thread] = {}
        super().__init__(address, handler)

    # ``Any`` matches the stdlib signatures these methods override.
    def process_request(self, request: Any, client_address: Any) -> None:
        thread = threading.Thread(
            target=self.process_request_thread,
            args=(request, client_address),
            daemon=True,
        )
        with self._connections_lock:
            self.connections[request] = thread
        thread.start()

    def process_request_thread(
        self, request: Any, client_address: Any
    ) -> None:
        try:
            super().process_request_thread(request, client_address)
        finally:
            with self._connections_lock:
                del self.connections[request]

    def close_connections(self, timeout: float) -> None:
        """Shut every open connection down and join its handler thread,
        waiting at most ``timeout`` seconds in all."""
        with self._connections_lock:
            open_now = list(self.connections.items())
        for sock, _ in open_now:
            try:
                # wakes a handler blocked reading its next request
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # its handler closed it meanwhile
        deadline = time.perf_counter() + timeout
        for _, thread in open_now:
            thread.join(max(0.0, deadline - time.perf_counter()))


class ICrowdHTTPServer:
    """Threaded HTTP wrapper around a :class:`PolicyProtocol` policy.

    Parameters
    ----------
    tasks:
        Task set (supplies the text shown to workers).
    policy:
        Any assignment policy (ICrowd or a baseline).
    host / port:
        Bind address; port 0 picks an ephemeral port (see
        :attr:`address` after :meth:`start`).
    lease_timeout:
        Assignment lease lifetime, measured in server interactions
        (each handled /request or /submit advances the clock by one).
        Defaults to ``max(50, 4 * len(tasks))``.
    recorder:
        Observability recorder.  Unlike the in-process components the
        server defaults to its *own* :class:`MetricsRegistry` (not the
        null recorder) so ``GET /metrics`` serves Prometheus text out
        of the box; pass an explicit registry to aggregate with policy
        metrics, or :data:`repro.obs.NULL_RECORDER` to disable.
    """

    def __init__(
        self,
        tasks: TaskSet,
        policy: PolicyProtocol,
        host: str = "127.0.0.1",
        port: int = 0,
        lease_timeout: int | None = None,
        # repro-lint: disable=RL005 -- None means "own a live registry":
        # the server serves GET /metrics, so its default is a real
        # MetricsRegistry created below, not the null recorder.
        recorder: Recorder | None = None,
    ) -> None:
        self.tasks = tasks
        self.policy = policy
        self.recorder = MetricsRegistry() if recorder is None else recorder
        self._clock = getattr(self.recorder, "clock", time.perf_counter)
        if lease_timeout is None:
            lease_timeout = max(50, 4 * len(tasks))
        #: the job's leases, events and payments (guarded by the lock)
        self.session = Session(policy, lease_timeout, recorder=self.recorder)
        self.leases = self.session.leases
        #: Flight data: every served interaction as a typed event, at
        #: interaction-tick granularity.
        self.events = self.session.events
        #: the answer alphabet by wire value: a JSON label equal to a
        #: choice (an int for binary ``Label`` choices) names it
        self._choices: dict[object, Label] = {
            choice: choice for choice in tasks.choices
        }
        self._tick = 0
        self._known_workers: set[WorkerId] = set()
        self._lock = threading.Lock()
        self._httpd = _ConnectionServer((host, port), self._make_handler())
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """(host, port) actually bound."""
        return self._httpd.server_address[:2]

    def start(self) -> None:
        """Serve requests on a daemon thread until :meth:`stop`."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop serving and join the serving thread.

        Closes the listening socket and every open connection, then
        joins the connections' handler threads (up to
        :data:`STOP_JOIN_S` in all), so nothing is served after this
        returns.  A server that was never started only closes its
        listening socket: ``shutdown()`` would wait for a serve loop
        that never ran.
        """
        if self._thread is not None:
            self._httpd.shutdown()
        self._httpd.server_close()
        self._httpd.close_connections(STOP_JOIN_S)
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "ICrowdHTTPServer":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    def _advance_and_sweep(self) -> None:
        """Advance the interaction clock and reclaim expired leases.

        Caller must hold the lock.  Expired slots are handed back to
        the policy so another worker can take them — the HTTP analogue
        of an MTurk HIT expiring unanswered.
        """
        self._tick += 1
        self.session.sweep(self._tick)

    def _handle_request(
        self, worker_id: str
    ) -> tuple[int, dict[str, object] | None]:
        with self._lock:
            self._advance_and_sweep()
            self._known_workers.add(worker_id)
            lease = self.session.request(worker_id, self._tick, None)
        if lease is None:
            return 204, None
        task = self.tasks[lease.task_id]
        return 200, {
            "task_id": lease.task_id,
            "text": task.text,
            "is_test": lease.is_test,
        }

    def _handle_submit(
        self, payload: object
    ) -> tuple[int, dict[str, object]]:
        if not isinstance(payload, dict):
            return 400, {"error": "submit payload must be a JSON object"}
        try:
            worker_id = str(payload["worker"])
            task_id = int(payload["task_id"])
            label = self._parse_label(payload["label"])
            is_test = bool(payload.get("is_test", False))
        except (KeyError, ValueError, TypeError) as exc:
            return 400, {"error": f"bad submit payload: {exc}"}
        if not 0 <= task_id < len(self.tasks):
            return 404, {"error": f"unknown task {task_id}"}
        with self._lock:
            if worker_id not in self._known_workers:
                return 404, {"error": f"unknown worker {worker_id!r}"}
            self._advance_and_sweep()
            verdict = self.session.submit(
                worker_id, task_id, label, is_test, self._tick
            )
            rejection = _REJECTIONS.get(verdict)
            if rejection is not None:
                status, reason, message = rejection
                self._count_rejection(reason)
                return status, {
                    "error": message.format(worker=worker_id, task=task_id)
                }
            completed = self.policy.consensus(task_id) is not None
        return 200, {
            "accepted": verdict is AnswerOutcome.ACCEPTED,
            "outcome": verdict.value,
            "task_completed": completed,
        }

    def _parse_label(self, value: object) -> Label:
        """The task set's choice a submitted JSON label names.

        Checked before the session sees the answer: the session settles
        the lease first, so a label the policy then refused would lose
        the slot.
        """
        try:
            return self._choices[value]
        except (KeyError, TypeError):
            raise ValueError(
                f"label {value!r} is not one of the job's choices"
            ) from None

    def _count_rejection(self, reason: str) -> None:
        """Count a rejected submit (the HTTP-visible fault surface)."""
        self.recorder.counter(
            "repro_http_submit_rejections_total",
            "Submits rejected by the lease ledger or the policy.",
            reason=reason,
        ).inc()

    def _handle_metrics(self) -> tuple[int, str | None]:
        """Render the registry as Prometheus text (0.0.4 exposition)."""
        if not self.recorder.enabled:
            return 503, None
        with self._lock:
            return 200, render_prometheus(self.recorder)

    def _handle_status(self) -> tuple[int, dict[str, object]]:
        with self._lock:
            finished = self.policy.is_finished()
            completed = len(self.policy.completed_tasks())
            lease_stats = self.leases.stats.as_dict()
            outstanding = len(self.leases.outstanding())
        return 200, {
            "finished": finished,
            "completed_tasks": completed,
            "total_tasks": len(self.tasks),
            "leases": {**lease_stats, "outstanding": outstanding},
        }

    # ------------------------------------------------------------------
    def _make_handler(self) -> type[BaseHTTPRequestHandler]:
        server = self

        class Handler(BaseHTTPRequestHandler):
            """Routes /request, /submit, /status and /metrics."""

            protocol_version = "HTTP/1.1"
            # The headers and the body of a reply are two writes: with
            # Nagle on, the body waits for the client's delayed ACK.
            disable_nagle_algorithm = True
            timeout = IDLE_TIMEOUT_S
            #: the current request's body, read in full by parse_request
            body = b""

            def setup(self) -> None:
                super().setup()
                server.recorder.counter(
                    "repro_http_connections_total",
                    "HTTP connections accepted.",
                ).inc()

            def parse_request(self) -> bool:
                # Read the whole body before routing, so that every
                # reply leaves the connection at the first byte of the
                # next request.  A body without a usable length cannot
                # be skipped: a 400 then closes the connection.
                if not super().parse_request():
                    return False
                try:
                    length = int(self.headers.get("Content-Length", "0"))
                except ValueError:
                    length = -1
                if length < 0 or "Transfer-Encoding" in self.headers:
                    self.send_error(400, "request body needs a Content-Length")
                    return False
                self.body = self.rfile.read(length)
                return True

            def log_message(self, format: str, *args: object) -> None:
                # Stdlib access lines go to the structured "repro"
                # logger at DEBUG: stderr stays clean unless a caller
                # attaches a handler and opts in.
                log_event(
                    _LOGGER,
                    logging.DEBUG,
                    "http.access",
                    client=self.address_string(),
                    line=format % args,
                )

            def _observe(
                self, endpoint: str, status: int, started: float
            ) -> None:
                server.recorder.counter(
                    "repro_http_requests_total",
                    "HTTP requests handled, by endpoint and status.",
                    endpoint=endpoint,
                    status=str(status),
                ).inc()
                server.recorder.histogram(
                    "repro_http_request_seconds",
                    "Request handling latency, by endpoint.",
                    endpoint=endpoint,
                ).observe(server._clock() - started)

            def _reply(
                self, status: int, body: dict[str, object] | None
            ) -> None:
                data = (
                    json.dumps(body).encode("utf-8")
                    if body is not None
                    else b""
                )
                self._reply_raw(status, data, "application/json")

            def _reply_raw(
                self, status: int, data: bytes, content_type: str
            ) -> None:
                self.send_response(status)
                if data:
                    self.send_header("Content-Type", content_type)
                if status != 204:
                    self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                if data:
                    self.wfile.write(data)

            def _remote_context(self) -> TraceContext | None:
                # A malformed or absent traceparent header must never
                # fail a request: parse_traceparent returns None and
                # the handler span roots a fresh trace instead.
                header = self.headers.get(TRACEPARENT_HEADER) or ""
                return parse_traceparent(header)

            def do_GET(self) -> None:
                started = server._clock()
                parsed = urlparse(self.path)
                endpoint = parsed.path
                remote = self._remote_context()
                if parsed.path == "/request":
                    params = parse_qs(parsed.query)
                    workers = params.get("worker")
                    if not workers:
                        status, body = (
                            400, {"error": "missing worker parameter"}
                        )
                    else:
                        with server.recorder.span(
                            "server.request", remote_context=remote
                        ):
                            status, body = server._handle_request(
                                workers[0]
                            )
                elif parsed.path == "/status":
                    with server.recorder.span(
                        "server.status", remote_context=remote
                    ):
                        status, body = server._handle_status()
                elif parsed.path == "/metrics":
                    with server.recorder.span(
                        "server.metrics", remote_context=remote
                    ):
                        status, text = server._handle_metrics()
                    self._reply_raw(
                        status,
                        text.encode("utf-8") if text else b"",
                        CONTENT_TYPE,
                    )
                    self._observe(endpoint, status, started)
                    return
                else:
                    endpoint = "(unknown)"
                    status, body = 404, {"error": "not found"}
                self._reply(status, body)
                self._observe(endpoint, status, started)

            def do_POST(self) -> None:
                started = server._clock()
                parsed = urlparse(self.path)
                if parsed.path != "/submit":
                    self._reply(404, {"error": "not found"})
                    self._observe("(unknown)", 404, started)
                    return
                try:
                    payload = json.loads(self.body or b"{}")
                except json.JSONDecodeError:
                    self._reply(400, {"error": "invalid JSON"})
                    self._observe("/submit", 400, started)
                    return
                with server.recorder.span(
                    "server.submit", remote_context=self._remote_context()
                ):
                    status, body = server._handle_submit(payload)
                self._reply(status, body)
                self._observe("/submit", status, started)

        return Handler

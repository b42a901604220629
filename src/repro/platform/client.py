"""Bounded-retry HTTP client for :class:`ICrowdHTTPServer`.

Worker-side integrations talk to the iCrowd server over a network that
drops connections and loses responses.  The client implements the
at-least-once delivery discipline the hardened server is built for:

- transport errors and 5xx responses are retried up to ``max_retries``
  times with exponential backoff;
- 4xx responses are **never** retried — they are protocol verdicts, not
  transient failures;
- a 409 on ``/submit`` after a retry means the first POST landed and
  only its response was lost; the server's idempotent answer handling
  makes that a success (``SubmitResult.ok``), not an error.

Each calling thread keeps one persistent HTTP/1.1 connection open
across calls (a ``threading.local``), so a worker's request/submit
loop pays for the TCP connect once.  A reused connection may have been
closed by the server in the meantime (idle timeout, restart): when a
call on one fails with :class:`ConnectionError`, the request is sent
once more, at once, on a fresh connection, and that resend does not
count as an attempt.  Timeouts, and any failure on a fresh connection,
go through the bounded retry above.  Resending a ``POST /submit`` is as
safe as a retry: a repeat gets 409, which ``SubmitResult.ok`` accepts.

With a live recorder attached, every endpoint call runs inside a
``client.<endpoint>`` span and stamps each HTTP attempt with a W3C
``traceparent`` header carrying that span's identity — retries reuse
the same span, so the server-side handler spans of all delivery
attempts parent under one client span and share one ``trace_id``.
With the default :data:`NULL_RECORDER` no header is sent and the wire
format is unchanged.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass

from repro.core.types import Label, TaskId, WorkerId
from repro.obs.ids import TRACEPARENT_HEADER, format_traceparent
from repro.obs.metrics import NULL_RECORDER, Recorder


class TransportError(RuntimeError):
    """All retries were exhausted without reaching the server."""


@dataclass(frozen=True)
class SubmitResult:
    """Outcome of one (possibly retried) answer submission."""

    status: int
    body: dict | None
    #: attempts actually made (1 = first try succeeded)
    attempts: int

    @property
    def accepted(self) -> bool:
        """The answer was recorded by this submission."""
        return self.status == 200 and bool(
            (self.body or {}).get("accepted", False)
        )

    @property
    def deduplicated(self) -> bool:
        """The answer was already on record (idempotent replay)."""
        return self.status == 409

    @property
    def expired(self) -> bool:
        """The assignment lease expired before the answer arrived."""
        return self.status == 410

    @property
    def ok(self) -> bool:
        """The answer is durably recorded — directly or via replay."""
        return self.accepted or self.deduplicated


class ICrowdClient:
    """Thin bounded-retry wrapper over the server's three endpoints.

    One client may be shared by several threads; each gets its own
    connection.  :meth:`close` (or leaving a ``with`` block) closes
    them all; a later call reconnects.

    Parameters
    ----------
    address:
        ``(host, port)`` of a running :class:`ICrowdHTTPServer`.
    max_retries:
        Additional attempts after the first (3 → up to 4 requests).
    backoff:
        Initial sleep between attempts, doubled each retry.
    timeout:
        Socket timeout of each connect, send and receive, in seconds.
    recorder:
        Metrics/tracing sink; a live registry wraps every endpoint
        call in a ``client.<endpoint>`` span and propagates its
        identity server-side via the ``traceparent`` header.
    """

    def __init__(
        self,
        address: tuple[str, int],
        max_retries: int = 3,
        backoff: float = 0.05,
        timeout: float = 5.0,
        recorder: Recorder = NULL_RECORDER,
    ) -> None:
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if backoff < 0:
            raise ValueError("backoff must be >= 0")
        self.address = address
        self.max_retries = max_retries
        self.backoff = backoff
        self.timeout = timeout
        self.recorder = recorder
        self._local = threading.local()
        #: each thread's connection, for :meth:`close`
        self._connections: dict[
            threading.Thread, http.client.HTTPConnection
        ] = {}
        self._connections_lock = threading.Lock()

    def close(self) -> None:
        """Close the connection of every thread that used the client.

        Call it once no call is in flight; a later call opens a new
        connection.
        """
        with self._connections_lock:
            connections = list(self._connections.values())
        for conn in connections:
            conn.close()

    def __enter__(self) -> ICrowdClient:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _connection(self) -> http.client.HTTPConnection:
        """The calling thread's connection (it connects on first use).

        A thread's first call also closes the connections of threads
        that have ended since, so they do not pile up.
        """
        conn: http.client.HTTPConnection | None = getattr(
            self._local, "conn", None
        )
        if conn is None:
            conn = http.client.HTTPConnection(
                *self.address, timeout=self.timeout
            )
            self._local.conn = conn
            with self._connections_lock:
                ended = [t for t in self._connections if not t.is_alive()]
                stale = [self._connections.pop(t) for t in ended]
                self._connections[threading.current_thread()] = conn
            for old in stale:
                old.close()
        return conn

    # ------------------------------------------------------------------
    def _call(
        self, method: str, path: str, payload: dict | None = None
    ) -> tuple[int, dict | None, int]:
        """One endpoint call with bounded retries on transport/5xx.

        The whole retry loop runs inside a single ``client.<endpoint>``
        span, so every delivery attempt carries the same traceparent
        and the server-side handler spans of all attempts join one
        trace under one client parent.
        """
        endpoint = path.partition("?")[0].lstrip("/") or "root"
        with self.recorder.span(
            f"client.{endpoint}", method=method
        ) as span:
            headers: dict[str, str] = {}
            if span.trace_id:
                headers[TRACEPARENT_HEADER] = format_traceparent(
                    span.context
                )
            status, data, attempts = self._send(
                method, path, payload, headers
            )
            if span.trace_id:
                span.attrs["attempts"] = attempts
                span.attrs["status"] = status
            return status, data, attempts

    def _send(
        self,
        method: str,
        path: str,
        payload: dict | None,
        headers: dict[str, str],
    ) -> tuple[int, dict | None, int]:
        """The bounded-retry delivery loop behind :meth:`_call`."""
        body = json.dumps(payload) if payload is not None else None
        delay = self.backoff
        last_error: Exception | None = None
        for attempt in range(1, self.max_retries + 2):
            try:
                status, raw = self._exchange(method, path, body, headers)
            except (OSError, http.client.HTTPException) as exc:
                last_error = exc
                if attempt <= self.max_retries:
                    if delay:
                        time.sleep(delay)
                        delay *= 2
                    continue
                raise TransportError(
                    f"{method} {path} failed after {attempt} attempts: "
                    f"{exc}"
                ) from exc
            if status >= 500 and attempt <= self.max_retries:
                if delay:
                    time.sleep(delay)
                    delay *= 2
                continue
            data = json.loads(raw) if raw else None
            return status, data, attempt
        raise TransportError(
            f"{method} {path} failed after {self.max_retries + 1} "
            f"attempts: {last_error}"
        )

    def _exchange(
        self,
        method: str,
        path: str,
        body: str | None,
        headers: dict[str, str],
    ) -> tuple[int, bytes]:
        """One delivery attempt on the calling thread's connection.

        When a reused connection turns out to be closed, the request
        is sent again on a fresh one within the same attempt.
        """
        conn = self._connection()
        reused = conn.sock is not None
        try:
            return _round_trip(conn, method, path, body, headers)
        except ConnectionError:
            if not reused:
                raise
        return _round_trip(conn, method, path, body, headers)

    # ------------------------------------------------------------------
    def request_task(self, worker_id: WorkerId) -> dict | None:
        """Ask for the next microtask; None when nothing is assignable."""
        status, data, _ = self._call(
            "GET", f"/request?worker={worker_id}"
        )
        if status == 204:
            return None
        if status != 200:
            raise RuntimeError(
                f"/request returned {status}: {data}"
            )
        return data

    def submit(
        self,
        worker_id: WorkerId,
        task_id: TaskId,
        label: Label | int | str,
        is_test: bool = False,
    ) -> SubmitResult:
        """Submit one answer; retried deliveries dedupe server-side.

        A binary label goes out as its int; any other label (an
        m-choice job's choice) goes out unchanged.
        """
        status, data, attempts = self._call(
            "POST",
            "/submit",
            {
                "worker": worker_id,
                "task_id": int(task_id),
                "label": int(label) if isinstance(label, int) else label,
                "is_test": is_test,
            },
        )
        return SubmitResult(status=status, body=data, attempts=attempts)

    def status(self) -> dict:
        """Job progress (finished flag, completion and lease counters)."""
        status, data, _ = self._call("GET", "/status")
        if status != 200 or data is None:
            raise RuntimeError(f"/status returned {status}: {data}")
        return data


def _round_trip(
    conn: http.client.HTTPConnection,
    method: str,
    path: str,
    body: str | None,
    headers: dict[str, str],
) -> tuple[int, bytes]:
    """Send one request and read its whole reply; on any failure the
    connection is closed, so the next request starts on a fresh one."""
    try:
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    except BaseException:
        conn.close()
        raise

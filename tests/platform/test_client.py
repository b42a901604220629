"""Tests for the bounded-retry HTTP client."""

import sys
import threading
import time

import pytest

from repro.baselines import RandomMV
from repro.core.types import Label, Task, TaskSet
from repro.platform import ICrowdClient, SubmitResult, TransportError
from repro.platform.server import ICrowdHTTPServer


@pytest.fixture
def tasks():
    return TaskSet(
        [
            Task(i, f"microtask {i} shared tokens", "d",
                 Label.YES if i % 2 == 0 else Label.NO)
            for i in range(4)
        ]
    )


@pytest.fixture
def server(tasks):
    policy = RandomMV(tasks, k=1, seed=0)
    with ICrowdHTTPServer(tasks, policy) as srv:
        yield srv


class TestAgainstLiveServer:
    def test_full_job_through_the_client(self, server):
        with ICrowdClient(server.address) as client:
            while True:
                task = client.request_task("w1")
                if task is None:
                    break
                result = client.submit("w1", task["task_id"], 1)
                assert result.accepted
                assert result.ok
                assert result.attempts == 1
            status = client.status()
        assert status["finished"] is True
        assert status["leases"]["answered"] == 4

    def test_replayed_submit_is_ok_not_error(self, server):
        with ICrowdClient(server.address) as client:
            task = client.request_task("w1")
            first = client.submit("w1", task["task_id"], 1)
            # the at-least-once case: the POST landed but its response
            # was lost and the client sent it again
            replay = client.submit("w1", task["task_id"], 1)
        assert first.accepted
        assert replay.deduplicated
        assert replay.ok
        assert not replay.accepted

    def test_4xx_not_retried(self, server):
        with ICrowdClient(server.address, max_retries=3) as client:
            result = client.submit("ghost", 0, 1)
        assert result.status == 404
        assert result.attempts == 1
        assert not result.ok


def connections_accepted(server):
    return server.recorder.snapshot().get("repro_http_connections_total", 0)


class TestPersistentConnections:
    def test_calls_from_one_thread_share_one_connection(self, server):
        with ICrowdClient(server.address) as client:
            for _ in range(3):
                task = client.request_task("w1")
                assert client.submit("w1", task["task_id"], 1).attempts == 1
            client.status()
        assert connections_accepted(server) == 1

    @pytest.mark.parametrize("num_threads", [2, 6])
    def test_threads_sharing_a_client_open_one_connection_each(
        self, tasks, num_threads
    ):
        server = ICrowdHTTPServer(tasks, RandomMV(tasks, k=1, seed=0))
        server.start()
        client = ICrowdClient(server.address)
        barrier = threading.Barrier(num_threads)
        errors = []

        def poll():
            try:
                barrier.wait(timeout=10)
                for _ in range(20):
                    client.status()
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=poll) for _ in range(num_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert connections_accepted(server) == num_threads
        # a new thread's first call closes the ended threads' connections
        client.status()
        assert list(client._connections) == [threading.current_thread()]
        client.close()
        server.stop()
        assert server._httpd.connections == {}

    def test_closed_connection_is_resent_at_once_after_a_restart(
        self, tasks
    ):
        first = ICrowdHTTPServer(tasks, RandomMV(tasks, k=1, seed=0))
        first.start()
        # a retry would sleep 30 s; the resend must not
        client = ICrowdClient(first.address, max_retries=3, backoff=30.0)
        assert client.request_task("w1") is not None
        first.stop()
        second = ICrowdHTTPServer(
            tasks, RandomMV(tasks, k=1, seed=0), port=first.address[1]
        )
        with second:
            with ICrowdClient(second.address) as other:
                task = other.request_task("w1")
            # the client's connection still points at the first server
            started = time.perf_counter()
            result = client.submit("w1", task["task_id"], 1)
            elapsed = time.perf_counter() - started
            client.close()
        assert result.accepted
        assert result.attempts == 1
        assert elapsed < 10.0
        assert connections_accepted(second) == 2

    def test_stop_closes_open_connections_and_joins_handlers(self, tasks):
        server = ICrowdHTTPServer(tasks, RandomMV(tasks, k=1, seed=0))
        server.start()
        client = ICrowdClient(server.address, max_retries=0)
        client.status()
        handlers = list(server._httpd.connections.values())
        assert len(handlers) == 1
        assert handlers[0].is_alive()
        server.stop()
        assert not any(thread.is_alive() for thread in handlers)
        with pytest.raises(TransportError):
            client.status()


class TestTransportFailures:
    def test_retries_then_raises_transport_error(self, tasks):
        # bind-then-close to get a port nothing listens on
        policy = RandomMV(tasks, k=1, seed=0)
        probe = ICrowdHTTPServer(tasks, policy)
        dead_address = probe.address
        probe.stop()
        client = ICrowdClient(dead_address, max_retries=2, backoff=0.0)
        with pytest.raises(TransportError, match="3 attempts"):
            client.request_task("w1")

    def test_validation(self):
        with pytest.raises(ValueError, match="max_retries"):
            ICrowdClient(("127.0.0.1", 1), max_retries=-1)
        with pytest.raises(ValueError, match="backoff"):
            ICrowdClient(("127.0.0.1", 1), backoff=-0.1)


class TestSubmitResult:
    def test_flags(self):
        accepted = SubmitResult(200, {"accepted": True}, attempts=1)
        ignored = SubmitResult(200, {"accepted": False}, attempts=1)
        dup = SubmitResult(409, {"error": "already"}, attempts=2)
        late = SubmitResult(410, {"error": "expired"}, attempts=1)
        assert accepted.ok and accepted.accepted
        assert not ignored.ok and not ignored.accepted
        assert dup.ok and dup.deduplicated and not dup.accepted
        assert late.expired and not late.ok

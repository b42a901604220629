"""Integration tests for the Appendix A HTTP facade."""

import http.client
import json
import socket
import threading

import pytest

from repro.baselines import RandomMV
from repro.core.types import Label, Task, TaskSet
from repro.platform.server import ICrowdHTTPServer
from tests.platform.http_script import (
    EXPECTED_EVENTS,
    EXPECTED_REPLIES,
    run_over_http,
)


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
    policy = RandomMV(tasks, k=2, seed=0)
    with ICrowdHTTPServer(tasks, policy) as srv:
        yield srv


def call(server, method, path, payload=None):
    host, port = server.address
    conn = http.client.HTTPConnection(host, port, timeout=5)
    body = json.dumps(payload) if payload is not None else None
    conn.request(method, path, body=body)
    response = conn.getresponse()
    raw = response.read()
    conn.close()
    data = json.loads(raw) if raw else None
    return response.status, data


class TestRequestEndpoint:
    def test_serves_a_task(self, server):
        status, body = call(server, "GET", "/request?worker=w1")
        assert status == 200
        assert 0 <= body["task_id"] < 4
        assert "microtask" in body["text"]
        assert body["is_test"] is False

    def test_missing_worker_param(self, server):
        status, body = call(server, "GET", "/request")
        assert status == 400
        assert "worker" in body["error"]

    def test_204_when_nothing_assignable(self, tasks):
        policy = RandomMV(tasks, k=1, seed=0)
        with ICrowdHTTPServer(tasks, policy) as srv:
            served = set()
            for _ in range(4):
                status, body = call(srv, "GET", "/request?worker=w1")
                assert status == 200
                served.add(body["task_id"])
                call(
                    srv,
                    "POST",
                    "/submit",
                    {
                        "worker": "w1",
                        "task_id": body["task_id"],
                        "label": 1,
                    },
                )
            status, _ = call(srv, "GET", "/request?worker=w1")
            assert status == 204


class TestSubmitEndpoint:
    def test_accepts_answer(self, server):
        status, body = call(server, "GET", "/request?worker=w1")
        task_id = body["task_id"]
        status, body = call(
            server,
            "POST",
            "/submit",
            {"worker": "w1", "task_id": task_id, "label": 1},
        )
        assert status == 200
        assert body["accepted"] is True

    def test_completion_reported(self, server):
        """With k=2, the second answer on a task reports completion."""
        completions = 0
        for worker in ("w1", "w2"):
            for _ in range(4):
                status, body = call(
                    server, "GET", f"/request?worker={worker}"
                )
                if status != 200:
                    break
                status, body = call(
                    server,
                    "POST",
                    "/submit",
                    {"worker": worker, "task_id": body["task_id"],
                     "label": 1},
                )
                assert status == 200
                completions += int(body["task_completed"])
        assert completions >= 1
        status, body = call(server, "GET", "/status")
        assert body["completed_tasks"] >= 1

    def test_duplicate_submit_conflict(self, server):
        status, body = call(server, "GET", "/request?worker=w1")
        task_id = body["task_id"]
        status, _ = call(
            server,
            "POST",
            "/submit",
            {"worker": "w1", "task_id": task_id, "label": 1},
        )
        assert status == 200
        # a re-delivered POST (client retry) must not double-record
        status, body = call(
            server,
            "POST",
            "/submit",
            {"worker": "w1", "task_id": task_id, "label": 0},
        )
        assert status == 409
        assert "already" in body["error"]

    def test_submit_without_assignment_conflict(self, server):
        """A known worker posting a task it was never assigned: 409."""
        status, body = call(server, "GET", "/request?worker=w1")
        other = (body["task_id"] + 1) % 4
        status, body = call(
            server,
            "POST",
            "/submit",
            {"worker": "w1", "task_id": other, "label": 1},
        )
        assert status == 409
        assert "no outstanding assignment" in body["error"]

    def test_unknown_worker_404(self, server):
        status, body = call(
            server,
            "POST",
            "/submit",
            {"worker": "ghost", "task_id": 0, "label": 1},
        )
        assert status == 404
        assert "worker" in body["error"]

    def test_bad_payloads(self, server):
        status, _ = call(server, "POST", "/submit", {"worker": "w"})
        assert status == 400
        # unknown task id is 404 (resource), not 400 (syntax)
        status, _ = call(
            server,
            "POST",
            "/submit",
            {"worker": "w", "task_id": 99, "label": 1},
        )
        assert status == 404
        status, _ = call(
            server,
            "POST",
            "/submit",
            {"worker": "w", "task_id": 0, "label": 7},
        )
        assert status == 400
        status, _ = call(server, "POST", "/submit", [1, 2, 3])
        assert status == 400

    def test_expired_lease_410_and_requeue(self, tasks):
        """An answer arriving after lease expiry is refused and the
        slot is reassignable to another worker."""
        policy = RandomMV(tasks, k=1, seed=0)
        with ICrowdHTTPServer(tasks, policy, lease_timeout=2) as srv:
            status, body = call(srv, "GET", "/request?worker=w1")
            task_id = body["task_id"]
            # burn the lease: each interaction advances the clock
            for _ in range(4):
                call(srv, "GET", "/status")  # status does not tick
                call(srv, "GET", "/request?worker=w2")
            status, body = call(
                srv,
                "POST",
                "/submit",
                {"worker": "w1", "task_id": task_id, "label": 1},
            )
            assert status == 410
            assert "expired" in body["error"]
            # w1's slot reopened: some worker can still complete task_id
            done = False
            for _ in range(20):
                status, body = call(srv, "GET", "/request?worker=w3")
                if status != 200:
                    break
                status, body = call(
                    srv,
                    "POST",
                    "/submit",
                    {"worker": "w3", "task_id": body["task_id"],
                     "label": 1},
                )
                if body.get("task_completed"):
                    done = True
            status, body = call(srv, "GET", "/status")
            assert body["finished"] or done


class TestStatusAndLifecycle:
    def test_status_progression(self, tasks):
        policy = RandomMV(tasks, k=1, seed=0)
        with ICrowdHTTPServer(tasks, policy) as srv:
            status, body = call(srv, "GET", "/status")
            assert body["finished"] is False
            assert body["completed_tasks"] == 0
            assert body["total_tasks"] == 4
            assert body["leases"]["issued"] == 0
            for _ in range(4):
                status, body = call(srv, "GET", "/request?worker=w1")
                assert status == 200
                call(
                    srv,
                    "POST",
                    "/submit",
                    {"worker": "w1", "task_id": body["task_id"],
                     "label": 1},
                )
            status, body = call(srv, "GET", "/status")
            assert body["finished"] is True
            assert body["completed_tasks"] == 4
            assert body["leases"]["issued"] == 4
            assert body["leases"]["answered"] == 4
            assert body["leases"]["outstanding"] == 0

    def test_unknown_route(self, server):
        status, _ = call(server, "GET", "/nope")
        assert status == 404

    def test_stop_without_start_returns(self, tasks):
        server = ICrowdHTTPServer(tasks, RandomMV(tasks, k=1, seed=0))
        # in a thread, so that a stop() that blocks fails the test
        # instead of hanging the suite
        stopper = threading.Thread(target=server.stop, daemon=True)
        stopper.start()
        stopper.join(timeout=2)
        assert not stopper.is_alive()
        assert server._httpd.socket.fileno() == -1

    def test_double_start_rejected(self, tasks):
        policy = RandomMV(tasks, k=1, seed=0)
        server = ICrowdHTTPServer(tasks, policy)
        server.start()
        try:
            with pytest.raises(RuntimeError, match="already started"):
                server.start()
        finally:
            server.stop()


class TestServerWithICrowd:
    def test_full_icrowd_job_over_http(self):
        """The complete Appendix A loop with the real framework."""
        from repro.core import ICrowd, ICrowdConfig
        from repro.core.config import GraphConfig, QualificationConfig
        from repro.datasets import make_itemcompare
        from repro.workers import WorkerPool, generate_profiles

        tasks = make_itemcompare(seed=5, tasks_per_domain=6)
        config = ICrowdConfig(
            qualification=QualificationConfig(
                num_qualification=4, qualification_threshold=0.0
            ),
            graph=GraphConfig(measure="jaccard", threshold=0.3),
            seed=5,
        )
        icrowd = ICrowd(tasks, config)
        pool = WorkerPool(
            generate_profiles(tasks.domains(), 8, seed=5), seed=5
        )
        with ICrowdHTTPServer(tasks, icrowd) as server:
            for step in range(2000):
                pool.tick()
                worker = pool.sample_requester()
                if worker is None:
                    continue
                status, body = call(
                    server, "GET", f"/request?worker={worker}"
                )
                if status != 200:
                    continue
                label = pool.worker(worker).answer(
                    tasks[body["task_id"]]
                )
                status, _ = call(
                    server,
                    "POST",
                    "/submit",
                    {
                        "worker": worker,
                        "task_id": body["task_id"],
                        "label": int(label),
                        "is_test": body["is_test"],
                    },
                )
                assert status == 200
                pool.note_submission(worker)
                if icrowd.is_finished():
                    break
            status, body = call(server, "GET", "/status")
            assert body["finished"] is True


class TestMetricsEndpoint:
    def test_prometheus_text_with_request_metrics(self, server):
        # generate some traffic first: a request, a submit, a late one
        status, body = call(server, "GET", "/request?worker=w1")
        assert status == 200
        call(
            server,
            "POST",
            "/submit",
            {"worker": "w1", "task_id": body["task_id"], "label": 1},
        )
        call(
            server,
            "POST",
            "/submit",
            {"worker": "w1", "task_id": body["task_id"], "label": 1},
        )
        host, port = server.address
        conn = http.client.HTTPConnection(host, port, timeout=5)
        conn.request("GET", "/metrics")
        response = conn.getresponse()
        text = response.read().decode("utf-8")
        content_type = response.getheader("Content-Type")
        conn.close()
        assert response.status == 200
        assert "version=0.0.4" in content_type
        # request-latency histogram per endpoint
        assert 'repro_http_request_seconds_bucket{endpoint="/request"' in text
        assert 'repro_http_request_seconds_bucket{endpoint="/submit"' in text
        # status-code counters
        assert (
            'repro_http_requests_total{endpoint="/request",status="200"} 1'
            in text
        )
        # lease counters from the shared ledger
        assert "repro_lease_issued_total 1" in text
        assert "repro_lease_answered_total 1" in text
        # the duplicate submit surfaced as a rejection counter
        assert (
            'repro_http_submit_rejections_total{reason="duplicate"} 1'
            in text
        )

    def test_shared_registry_aggregates_policy_metrics(self, tasks):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        policy = RandomMV(tasks, k=2, seed=0, recorder=registry)
        with ICrowdHTTPServer(tasks, policy, recorder=registry) as srv:
            status, _ = call(srv, "GET", "/request?worker=w1")
            assert status == 200
            host, port = srv.address
            conn = http.client.HTTPConnection(host, port, timeout=5)
            conn.request("GET", "/metrics")
            text = conn.getresponse().read().decode("utf-8")
            conn.close()
        assert "repro_policy_assignments_total 1" in text

    def test_metrics_disabled_with_null_recorder(self, tasks):
        from repro.obs.metrics import NULL_RECORDER

        policy = RandomMV(tasks, k=2, seed=0)
        with ICrowdHTTPServer(tasks, policy, recorder=NULL_RECORDER) as srv:
            host, port = srv.address
            conn = http.client.HTTPConnection(host, port, timeout=5)
            conn.request("GET", "/metrics")
            response = conn.getresponse()
            response.read()
            conn.close()
            assert response.status == 503


def exchange(conn, method, path, payload=None):
    """One request on an open connection; a reply other than 204 must
    say its length, or the next reply could not be told apart."""
    body = json.dumps(payload) if payload is not None else None
    conn.request(method, path, body=body)
    response = conn.getresponse()
    raw = response.read()
    if response.status != 204:
        assert response.getheader("Content-Length") == str(len(raw))
    return response.status, raw


class TestPersistentConnections:
    def test_error_replies_are_framed_and_keep_the_connection(self, tasks):
        policy = RandomMV(tasks, k=1, seed=0)
        with ICrowdHTTPServer(tasks, policy, lease_timeout=2) as srv:
            conn = http.client.HTTPConnection(*srv.address, timeout=5)
            assert exchange(conn, "GET", "/request")[0] == 400
            assert exchange(conn, "GET", "/nope")[0] == 404
            # an unknown POST's body is read, not parsed as a request
            ghost = {"worker": "w1", "task_id": 0, "label": 1}
            assert exchange(conn, "POST", "/nope", ghost)[0] == 404
            status, raw = exchange(conn, "GET", "/request?worker=w1")
            task_id = json.loads(raw)["task_id"]
            answer = {"worker": "w1", "task_id": task_id, "label": 1}
            assert exchange(conn, "POST", "/submit", answer)[0] == 200
            assert exchange(conn, "POST", "/submit", answer)[0] == 409
            status, raw = exchange(conn, "GET", "/request?worker=w1")
            late = {"worker": "w1", "task_id": json.loads(raw)["task_id"],
                    "label": 1}
            for worker in ("w2", "w3", "w4"):
                exchange(conn, "GET", f"/request?worker={worker}")
            assert exchange(conn, "POST", "/submit", late)[0] == 410
            status, raw = exchange(conn, "GET", "/metrics")
            conn.close()
        assert status == 200
        assert "repro_http_connections_total 1" in raw.decode("utf-8")

    def test_null_recorder_503_is_framed(self, tasks):
        from repro.obs.metrics import NULL_RECORDER

        policy = RandomMV(tasks, k=2, seed=0)
        with ICrowdHTTPServer(tasks, policy, recorder=NULL_RECORDER) as srv:
            conn = http.client.HTTPConnection(*srv.address, timeout=5)
            status, raw = exchange(conn, "GET", "/metrics")
            assert (status, raw) == (503, b"")
            sock = conn.sock
            assert exchange(conn, "GET", "/status")[0] == 200
            assert conn.sock is sock
            conn.close()

    def test_unframed_body_is_400_and_closes(self, server):
        conn = http.client.HTTPConnection(*server.address, timeout=5)
        conn.putrequest("POST", "/submit")
        conn.putheader("Content-Length", "-1")
        conn.endheaders()
        response = conn.getresponse()
        response.read()
        assert response.status == 400
        assert response.getheader("Connection") == "close"
        conn.close()

    def test_accepted_sockets_run_without_nagle(self, server):
        conn = http.client.HTTPConnection(*server.address, timeout=5)
        assert exchange(conn, "GET", "/status")[0] == 200
        (accepted,) = server._httpd.connections
        assert accepted.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        conn.close()


class TestMultiChoiceJob:
    """An m-choice ICrowd behind the server: labels are its choices."""

    CHOICES = ("cat", "dog", "bird")

    def make_job(self):
        from repro.core import ICrowd, ICrowdConfig
        from repro.core.config import GraphConfig, QualificationConfig

        tasks = TaskSet(
            [
                Task(i, f"{'farm barn' if i < 6 else 'city flat'} photo {i}",
                     "farm" if i < 6 else "city", self.CHOICES[i % 3])
                for i in range(12)
            ],
            self.CHOICES,
        )
        config = ICrowdConfig(
            qualification=QualificationConfig(
                num_qualification=2, qualification_threshold=0.5
            ),
            graph=GraphConfig(measure="jaccard", threshold=0.3),
        )
        return tasks, ICrowd(tasks, config)

    def test_label_outside_the_choices_is_400_and_keeps_the_lease(self):
        tasks, icrowd = self.make_job()
        with ICrowdHTTPServer(tasks, icrowd) as srv:
            status, body = call(srv, "GET", "/request?worker=w1")
            assert status == 200
            answer = {"worker": "w1", "task_id": body["task_id"],
                      "is_test": body["is_test"]}
            for label in (0, 1, "horse", None, ["cat"]):
                status, reply = call(
                    srv, "POST", "/submit", {**answer, "label": label}
                )
                assert status == 400
                assert "choices" in reply["error"]
            assert list(srv.leases.outstanding()) == [
                ("w1", body["task_id"])
            ]
            truth = tasks[body["task_id"]].truth
            status, reply = call(
                srv, "POST", "/submit", {**answer, "label": truth}
            )
        assert status == 200
        assert reply["accepted"] is True

    def test_job_runs_to_completion_through_the_client(self):
        from repro.platform import ICrowdClient

        tasks, icrowd = self.make_job()
        workers = [f"w{i}" for i in range(5)]
        with ICrowdHTTPServer(tasks, icrowd) as srv, ICrowdClient(
            srv.address
        ) as client:
            for step in range(500):
                worker = workers[step % len(workers)]
                task = client.request_task(worker)
                if task is None:
                    continue
                truth = tasks[task["task_id"]].truth
                result = client.submit(
                    worker, task["task_id"], truth, task["is_test"]
                )
                assert result.accepted
                if client.status()["finished"]:
                    break
            assert client.status()["finished"] is True
        assert icrowd.predictions() == {t.task_id: t.truth for t in tasks}


class TestScriptedSession:
    def test_replies_and_events_match_the_recording(self, tmp_path):
        replies, events = run_over_http(tmp_path)
        assert replies == EXPECTED_REPLIES
        assert events == EXPECTED_EVENTS

"""End-to-end causal tracing and flight-recorder acceptance tests.

Two rounds, per the observability acceptance criteria:

- an HTTP round where a traced :class:`ICrowdClient` talks to a traced
  :class:`ICrowdHTTPServer` — server-side spans must carry the client's
  ``trace_id`` (one causal trace across the wire), and the server's
  flight data must reconstruct lifecycles including an expired-lease
  requeue forced by a tiny lease timeout;
- a chaos round through :func:`run_telemetry` with fault injection —
  every completed task gets a complete lifecycle and the Chrome trace
  export passes the schema check.
"""

import json

import pytest

from repro.baselines import RandomMV
from repro.core.types import Label, Task, TaskSet
from repro.obs.flight import FlightRecorder, validate_chrome_trace
from repro.obs.ids import TraceIdSource
from repro.obs.metrics import MetricsRegistry
from repro.platform import ICrowdClient
from repro.platform.server import ICrowdHTTPServer


def _spans(path):
    records = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                if record.get("type") == "span":
                    records.append(record)
    return records


class TestHTTPTracePropagation:
    @pytest.fixture
    def traced_round(self, tmp_path):
        """Run a full job over HTTP with both sides traced.

        ``lease_timeout=3`` with an abandoning first worker forces at
        least one lease to expire and requeue mid-round.
        """
        tasks = TaskSet(
            [
                Task(i, f"microtask {i} shared tokens", "d",
                     Label.YES if i % 2 == 0 else Label.NO)
                for i in range(6)
            ]
        )
        policy = RandomMV(tasks, k=2, seed=0)
        server_trace = tmp_path / "server_trace.jsonl"
        client_trace = tmp_path / "client_trace.jsonl"
        server_registry = MetricsRegistry(
            trace_path=server_trace, ids=TraceIdSource(seed=1)
        )
        client_registry = MetricsRegistry(
            trace_path=client_trace, ids=TraceIdSource(seed=2)
        )
        with ICrowdHTTPServer(
            tasks, policy, lease_timeout=3, recorder=server_registry
        ) as server:
            client = ICrowdClient(server.address, recorder=client_registry)
            # w1 takes a lease and walks away: after three more
            # interactions its lease expires and the slot requeues
            abandoned = client.request_task("w1")
            assert abandoned is not None
            for _ in range(200):
                status = client.status()
                if status["finished"]:
                    break
                for worker in ("w2", "w3"):
                    task = client.request_task(worker)
                    if task is not None:
                        client.submit(worker, task["task_id"], 1)
            client.close()
            events = server.events
        server_registry.close()
        client_registry.close()
        # one file, two record families: the server's spans, then the
        # server's flight data from the same round
        events.to_jsonl(server_trace, append=True)
        return {
            "abandoned_task": abandoned["task_id"],
            "server_trace": server_trace,
            "client_trace": client_trace,
        }

    def test_server_spans_join_client_traces(self, traced_round):
        client_traces = {
            record["trace_id"]
            for record in _spans(traced_round["client_trace"])
        }
        server_spans = _spans(traced_round["server_trace"])
        handler_spans = [
            record
            for record in server_spans
            if record["name"] in ("server.request", "server.submit")
        ]
        assert client_traces and handler_spans
        for record in handler_spans:
            # the handler joined the client's trace and parented under
            # the client span carried by the traceparent header
            assert record["trace_id"] in client_traces
            assert record["parent_id"] is not None

    def test_inner_spans_stay_inside_the_remote_trace(self, traced_round):
        spans = _spans(traced_round["server_trace"])
        client_traces = {
            record["trace_id"]
            for record in _spans(traced_round["client_trace"])
        }
        inner = [
            record
            for record in spans
            if record["name"] in ("session.lease_issue", "session.aggregate")
        ]
        assert inner
        for record in inner:
            assert record["trace_id"] in client_traces

    def test_flight_recorder_reconstructs_requeue(self, traced_round):
        recorder = FlightRecorder.from_jsonl(traced_round["server_trace"])
        timelines = recorder.timelines()
        # the abandoned lease expired and the task still completed
        timeline = timelines[traced_round["abandoned_task"]]
        assert timeline.expiries >= 1
        assert timeline.is_complete
        phases = timeline.phases()
        assert phases.index("expired") < len(phases) - 1
        assert phases[-1] == "aggregated"
        # every task in this round completes (k=2, cooperative workers)
        assert recorder.incomplete_tasks() == []
        assert len(timelines) == 6

    def test_chrome_export_of_the_round_validates(
        self, traced_round, tmp_path
    ):
        recorder = FlightRecorder.from_jsonl(traced_round["server_trace"])
        trace = recorder.chrome_trace()
        assert validate_chrome_trace(trace) == []
        out = recorder.write_chrome(tmp_path / "round.json")
        assert validate_chrome_trace(json.loads(out.read_text())) == []


class TestFaultyRoundFlightRecorder:
    @pytest.fixture(scope="class")
    def chaos_result(self, tmp_path_factory):
        from repro.experiments.telemetry import run_telemetry

        trace = tmp_path_factory.mktemp("chaos") / "trace.jsonl"
        result = run_telemetry(
            dataset="itemcompare",
            seed=13,
            scale=0.08,
            trace_path=trace,
            faults_rate=0.2,
        )
        return result, FlightRecorder.from_jsonl(trace)

    def test_completed_tasks_have_complete_lifecycles(self, chaos_result):
        result, recorder = chaos_result
        timelines = recorder.timelines()
        completed = {
            timeline.task_id
            for timeline in timelines.values()
            if "aggregated" in timeline.phases()
        }
        assert completed
        for task_id in completed:
            assert timelines[task_id].is_complete, task_id
        # incomplete lifecycles are only ever non-aggregating tasks
        # (qualification tasks never reach consensus)
        assert set(recorder.incomplete_tasks()).isdisjoint(completed)

    def test_chaos_round_recorded_expiries(self, chaos_result):
        result, recorder = chaos_result
        expiries = sum(
            timeline.expiries
            for timeline in recorder.timelines().values()
        )
        assert expiries >= 1

    def test_chrome_trace_validates(self, chaos_result):
        _, recorder = chaos_result
        assert validate_chrome_trace(recorder.chrome_trace()) == []

    def test_slo_report_attached(self, chaos_result):
        result, _ = chaos_result
        assert result.slo_report is not None
        assert result.slo_report.results

"""Load generator of the HTTP workload.

Each episode starts a fresh server process (``server_main.py``) and
drives one job to completion with ``ICrowdClient``: one closed-loop
thread per core, each cycling over its share of the YahooQA workers.
A worker waits for its task page before answering, so every thread
sends its next request only after the previous reply.
"""

from __future__ import annotations

import http.client
import json
import os
import subprocess
import sys
import threading
import time

from checks import (
    CheckFailed,
    check_http_completions,
    check_leases,
    check_votes,
    consensus_accuracy,
)
from repro.datasets import make_yahooqa
from repro.platform import EventLog, ICrowdClient, TransportError
from repro.workers import SimulatedWorker, generate_profiles
from workloads import POPULATION_SEED, Episode

#: Generator threads: one per core of the 2-core machine the benchmark
#: was written on.
THREADS = 2
#: An episode that has not finished its job by then has stalled.
EPISODE_LIMIT_S = 60.0

_HERE = os.path.dirname(os.path.abspath(__file__))


def handler_seconds(metrics_text: str) -> float:
    """Server-side handling time of ``/request`` and ``/submit`` from
    the ``repro_http_request_seconds`` histogram sums."""
    total = 0.0
    for line in metrics_text.splitlines():
        if not line.startswith("repro_http_request_seconds_sum{"):
            continue
        labels, _, value = line.partition("} ")
        if 'endpoint="/request"' in labels or 'endpoint="/submit"' in labels:
            total += float(value)
    return total


def fetch_metrics(address: tuple[str, int]) -> str:
    """``GET /metrics`` as Prometheus text."""
    conn = http.client.HTTPConnection(*address, timeout=10)
    try:
        conn.request("GET", "/metrics")
        response = conn.getresponse()
        body = response.read().decode("utf-8")
    finally:
        conn.close()
    if response.status != 200:
        raise RuntimeError(f"/metrics returned {response.status}")
    return body


class _Job:
    """Shared state of the generator threads of one episode.

    The job ends when every open task completed, or when it stalls:
    ``STALL_CYCLES`` times as many blanks in a row as there are workers
    (the simulator's rule), since ICrowd can leave a task that every
    remaining worker already saw.
    """

    STALL_CYCLES = 3

    def __init__(self, open_tasks: int, workers: int) -> None:
        self.open_tasks = open_tasks
        self.stall_limit = self.STALL_CYCLES * workers
        self.lock = threading.Lock()
        self.done = threading.Event()
        self.stalled = False
        self.request_s: list[float] = []
        self.submit_s: list[float] = []
        self.request_at: list[float] = []
        self.submit_at: list[float] = []
        self.accepted_at: list[float] = []
        self.blanks = 0
        self.streak = 0
        self.completed_replies = 0
        self.failures: list[str] = []

    def fail(self, message: str) -> None:
        with self.lock:
            self.failures.append(message)

    def note_reply(self, blank: bool) -> None:
        with self.lock:
            self.streak = self.streak + 1 if blank else 0
            if self.streak >= self.stall_limit:
                self.stalled = True
                self.done.set()


def _drive(
    job: _Job,
    client: ICrowdClient,
    workers: list[SimulatedWorker],
    tasks,
    start: float,
    deadline: float,
) -> None:
    clock = time.perf_counter
    request_s: list[float] = []
    submit_s: list[float] = []
    request_at: list[float] = []
    submit_at: list[float] = []
    accepted_at: list[float] = []
    blanks = 0
    turn = 0
    try:
        while not job.done.is_set() and clock() < deadline:
            worker = workers[turn % len(workers)]
            turn += 1
            t = clock()
            try:
                task = client.request_task(worker.worker_id)
            except (TransportError, RuntimeError) as exc:
                job.fail(f"request: {exc}")
                return
            request_s.append(clock() - t)
            request_at.append(t - start)
            job.note_reply(blank=task is None)
            if task is None:
                blanks += 1
                continue
            task_id = int(task["task_id"])
            label = worker.answer(tasks[task_id])
            t = clock()
            try:
                result = client.submit(
                    worker.worker_id, task_id, label, bool(task["is_test"])
                )
            except TransportError as exc:
                job.fail(f"submit: {exc}")
                return
            done = clock()
            submit_s.append(done - t)
            submit_at.append(t - start)
            if result.status != 200:
                job.fail(f"submit returned {result.status}: {result.body}")
                return
            if not result.accepted:
                continue
            accepted_at.append(done - start)
            if result.body.get("task_completed") and not task["is_test"]:
                with job.lock:
                    job.completed_replies += 1
                    if job.completed_replies >= job.open_tasks:
                        job.done.set()
    finally:
        with job.lock:
            job.request_s.extend(request_s)
            job.submit_s.extend(submit_s)
            job.request_at.extend(request_at)
            job.submit_at.extend(submit_at)
            job.accepted_at.extend(accepted_at)
            job.blanks += blanks


def run_http_episode(
    seed: int, size: dict[str, float], out_dir: str, tracer=None
) -> Episode:
    """One server process, one job to completion, checked."""
    tasks = make_yahooqa(seed=seed)
    profiles = generate_profiles(
        tasks.domains(), int(size["workers"]), seed=POPULATION_SEED
    )
    workers = [SimulatedWorker(p, seed=seed) for p in profiles]
    events_path = os.path.join(out_dir, f"server-events-{os.getpid()}.jsonl")
    process = subprocess.Popen(
        [
            sys.executable,
            os.path.join(_HERE, "server_main.py"),
            "--seed", str(seed),
            "--trace", str(int(tracer is not None)),
            "--events", events_path,
        ],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        line = process.stdout.readline()
        if not line:
            raise RuntimeError("server process exited before it was ready")
        ready = json.loads(line)
        address = ("127.0.0.1", int(ready["port"]))
        job = _Job(int(ready["open_tasks"]), len(workers))
        client = ICrowdClient(address)
        start = time.perf_counter()
        deadline = start + EPISODE_LIMIT_S
        threads = [
            threading.Thread(
                target=_drive,
                args=(job, client, workers[i::THREADS], tasks, start, deadline),
            )
            for i in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        if job.failures:
            raise CheckFailed("; ".join(job.failures))
        status = client.status()
        check_http_completions(status, job.completed_replies, job.stalled)
        handler_s = handler_seconds(fetch_metrics(address))
        process.stdin.write("stop\n")
        process.stdin.flush()
        final = json.loads(process.stdout.readline())
        process.wait(timeout=30)
    finally:
        if process.poll() is None:
            process.kill()
        process.wait()
    try:
        events = EventLog.from_jsonl(events_path)
    finally:
        os.remove(events_path)
    check_votes(events, int(ready["k"]))
    check_leases(events, int(ready["lease_timeout"]))
    correct, completed = consensus_accuracy(events, tasks)
    episode = Episode(
        setups=ready["setups"],
        request_s=job.request_s,
        submit_s=job.submit_s,
        request_at=job.request_at,
        submit_at=job.submit_at,
        accepted_at=job.accepted_at,
        window_s=elapsed,
        # every accepted answer is paid for
        paid=len(job.accepted_at),
        completed=completed,
        correct=correct,
        attempted=len(job.request_s) + len(job.submit_s),
        counts={"events": len(events), "stalled": int(job.stalled)},
        peak_rss_mb=float(final["peak_rss_mb"]),
        http={
            "handler_s": handler_s,
            "client_s": sum(job.request_s) + sum(job.submit_s),
            "requests": len(job.request_s),
            "blanks": job.blanks,
        },
    )
    if tracer is not None:
        aggregates, tallies = tracer.take()
        spans = {
            name: [agg.count, agg.total_s, agg.self_s]
            for name, agg in aggregates.items()
        }
        spans.update(final["spans"])
        for key, amount in final["tallies"].items():
            tallies[key] = tallies.get(key, 0) + amount
        episode.spans, episode.tallies = spans, tallies
    return episode

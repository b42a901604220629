"""Inputs, framework set-up and simulator episodes of the benchmark.

Every input is derived from the workload seed; the program under test
receives only the generated tasks, similarity matrix and worker pool.
All calls into the program go through the public API of ``repro.core``,
``repro.platform``, ``repro.datasets`` and ``repro.workers``.
"""

from __future__ import annotations

import hashlib
import os
import time
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from checks import (
    check_leases,
    check_payments,
    check_votes,
    consensus_accuracy,
)
from repro.core import (
    AccuracyEstimator,
    GraphConfig,
    ICrowd,
    ICrowdConfig,
    Label,
    SimilarityGraph,
    Task,
    TaskSet,
    select_qualification_tasks,
)
from repro.platform import FaultConfig, SimulatedPlatform
from repro.workers import WorkerPool, generate_profiles

#: Similarity settings of the YahooQA workload, as the experiment
#: harness uses them: free-form text needs IDF-weighted cosine at a low
#: threshold.
YAHOOQA_GRAPH = GraphConfig(measure="tfidf", threshold=0.1)

#: Seed of the worker populations.  The population is part of a
#: workload's definition: which experts a seed happened to draw would
#: otherwise move accuracy and cost more than the program does.  The
#: workload seed draws the tasks, the graph, answer noise and arrivals.
POPULATION_SEED = 0

#: Sizes per workload.  ``full`` is what the benchmark measures; ``toy``
#: only exercises the code paths (smoke run).  ``episodes`` independent
#: input draws (episode seeds derived from the workload seed) make up
#: one run: accuracy and cost early in a job swing with which workers
#: the first answers happen to favour, so a run averages over draws.
SIZES: dict[str, dict[str, dict[str, float]]] = {
    "full": {
        # |T| = 1,000 in 10 domains of 100 (the paper's domains hold ~90
        # tasks).  At this size one request costs ~10-15 ms; qualification
        # ends near step 900, and each episode times the ~850 requests
        # after it.  Chaos faults (duplicates, malformed submissions,
        # blackouts) and abandonment expire leases, which releases
        # assignments and invalidates the round cache.
        "sim_scale": {
            "domains": 10, "per_domain": 100, "degree": 8, "workers": 50,
            "steps": 1700, "fault_rate": 0.1, "abandonment": 0.1,
            "episodes": 3,
        },
        # One episode is one YahooQA job (110 tasks) run to completion,
        # with >= 1,000 requests and submits.  Accuracy and cost depend
        # on thread interleaving here, so they average over 8 jobs.
        "http_yahooqa": {"workers": 25, "episodes": 8},
    },
    "toy": {
        "sim_scale": {
            "domains": 3, "per_domain": 20, "degree": 4, "workers": 12,
            "steps": 300, "fault_rate": 0.1, "abandonment": 0.1,
            "episodes": 2,
        },
        "http_yahooqa": {"workers": 25, "episodes": 2},
    },
}


#: Timed requests per segment.  Each episode's window is cut into
#: segments of this many consecutive requests, and the simulator runs
#: each segment on the next CPU (``CpuRotation``).
SEGMENT_REQUESTS = {"full": 100, "toy": 10}


class CpuRotation:
    """Pins the calling thread to one CPU at a time, in turn.

    The simulator workload drives the system from one thread.  On the
    2-core virtual machine the benchmark was written on, one CPU often
    runs ~40% slower than the other for minutes at a time, which CPU
    changes, and the scheduler keeps a lone busy thread where it
    started: a run measured whichever CPU it happened to draw.  Turning
    the thread over every CPU the process may use makes each run
    measure each of them.  Only the calling thread is pinned; threads
    that exist already (the BLAS pool) keep every CPU.
    """

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self.turn = 0

    def next(self) -> int:
        cpu = self.cpus[self.turn % len(self.cpus)]
        self.turn += 1
        os.sched_setaffinity(0, {cpu})
        return cpu

    def release(self) -> None:
        os.sched_setaffinity(0, self.cpus)


#: Turns of the timed segments, and of the cold set-ups.
ROTATION = CpuRotation()
SETUP_ROTATION = CpuRotation()


def episode_seed(seed: int, episode: int) -> int:
    """Seed of one episode's inputs."""
    return seed * 1000 + episode


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag])


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
@dataclass
class SimInputs:
    """Generated inputs of one simulator workload."""

    tasks: TaskSet
    config: ICrowdConfig
    make_graph: Callable[[], SimilarityGraph]
    profiles: list
    steps: int
    abandonment: float = 0.0
    faults: FaultConfig | None = None


def scale_inputs(seed: int, size: dict[str, float]) -> SimInputs:
    """Synthetic tasks with a bounded-degree intra-domain similarity
    matrix, a Fig. 6 worker population, chaos faults and abandonment."""
    domains = int(size["domains"])
    per_domain = int(size["per_domain"])
    degree = int(size["degree"])
    rng = _rng(seed, 1)
    n = domains * per_domain
    tasks = TaskSet(
        [
            Task(
                task_id=i,
                text=f"synthetic task {i}",
                domain=f"D{i // per_domain:02d}",
                truth=Label(int(rng.integers(0, 2))),
            )
            for i in range(n)
        ]
    )
    similarity = np.zeros((n, n))
    for d in range(domains):
        members = np.arange(d * per_domain, (d + 1) * per_domain)
        for i in members:
            others = members[members != i]
            picks = rng.choice(others, size=min(degree, others.size), replace=False)
            similarity[i, picks] = rng.uniform(0.3, 1.0, size=picks.size)
    similarity = np.maximum(similarity, similarity.T)
    return SimInputs(
        tasks=tasks,
        config=ICrowdConfig(),
        make_graph=lambda: SimilarityGraph.from_matrix(similarity),
        profiles=generate_profiles(
            tasks.domains(), int(size["workers"]), seed=POPULATION_SEED
        ),
        steps=int(size["steps"]),
        abandonment=float(size["abandonment"]),
        # no late answers: ICrowd accepts a late non-test answer once its
        # task was leased again to the same worker as a performance test
        # (``SimulatedPlatform`` then raises on the duplicate), a fault
        # path that would fail runs rather than measure them
        faults=replace(
            FaultConfig.chaos(float(size["fault_rate"]), seed=seed),
            late_answer=0.0,
        ),
    )



# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
@dataclass
class Framework:
    icrowd: ICrowd
    #: ``setup.graph_s``, ``setup.basis_s``, ``setup.qualification_s``,
    #: ``setup.framework_s``
    timings: dict[str, float]


def pinned_setup(inputs: SimInputs) -> Framework:
    """A cold set-up of a simulator workload on the next CPU."""
    SETUP_ROTATION.next()
    try:
        return build_framework(inputs.tasks, inputs.config, inputs.make_graph)
    finally:
        SETUP_ROTATION.release()


def build_framework(
    tasks: TaskSet,
    config: ICrowdConfig,
    make_graph: Callable[[], SimilarityGraph],
) -> Framework:
    """Inputs in hand -> framework ready, timed per stage.  The offline
    basis is always computed cold: nothing is shared between calls."""
    clock = time.perf_counter
    t0 = clock()
    graph = make_graph()
    t1 = clock()
    estimator = AccuracyEstimator(graph, config.estimator)
    estimator.precompute()
    t2 = clock()
    qualification = select_qualification_tasks(
        estimator.basis, config.qualification.num_qualification
    )
    t3 = clock()
    icrowd = ICrowd(
        tasks,
        config,
        graph=graph,
        qualification_tasks=qualification,
        estimator=estimator,
    )
    t4 = clock()
    return Framework(
        icrowd,
        {
            "setup.graph_s": t1 - t0,
            "setup.basis_s": t2 - t1,
            "setup.qualification_s": t3 - t2,
            "setup.framework_s": t4 - t3,
        },
    )


# ----------------------------------------------------------------------
# simulator episodes
# ----------------------------------------------------------------------
@dataclass
class Episode:
    """What one episode measured (times in seconds)."""

    #: cold set-ups, each timed per stage
    setups: list[dict[str, float]]
    request_s: list[float] = field(default_factory=list)
    submit_s: list[float] = field(default_factory=list)
    #: when each timed call started and each accepted answer came back,
    #: in seconds since the window opened
    request_at: list[float] = field(default_factory=list)
    submit_at: list[float] = field(default_factory=list)
    accepted_at: list[float] = field(default_factory=list)
    window_s: float = 0.0
    #: requester's cost over the whole episode: paid answers
    paid: int = 0
    completed: int = 0
    correct: int = 0
    attempted: int = 0
    #: exact counts that must repeat on the same seed
    counts: dict[str, object] = field(default_factory=dict)
    #: the HTTP server process's peak memory (simulator episodes run in
    #: the measuring process, which reports its own)
    peak_rss_mb: float = 0.0
    #: HTTP round-trip and handler totals (HTTP workload only)
    http: dict[str, float] = field(default_factory=dict)
    #: traced runs: span name -> [count, total s, self s], and tallies
    spans: dict[str, list[float]] = field(default_factory=dict)
    tallies: dict[str, int] = field(default_factory=dict)


class _WindowTimer:
    """Times ``on_worker_request`` / ``on_answer`` on one ICrowd.

    The window opens at the first request after every worker of the
    pool finished qualification: warm-up requests cost microseconds,
    adaptive ones milliseconds, and a median over both would jump
    between the two with the share of warm-up requests.  Every
    ``segment`` timed requests, the thread moves to the next CPU.
    """

    def __init__(
        self, icrowd: ICrowd, worker_ids: list[str], segment: int
    ) -> None:
        clock = time.perf_counter
        self.start: float | None = None
        self.request_s: list[float] = []
        self.submit_s: list[float] = []
        self.request_at: list[float] = []
        self.submit_at: list[float] = []
        self.accepted_at: list[float] = []
        self._workers = worker_ids
        self._seen: set[str] = set()
        request = icrowd.on_worker_request
        answer = icrowd.on_answer
        warmup = icrowd.warmup

        def timed_request(worker_id, active_workers=None):
            if self.start is None:
                self._seen.add(worker_id)
                if len(self._seen) == len(self._workers) and all(
                    warmup.has_finished(w) for w in self._workers
                ):
                    self.start = clock()
                else:
                    return request(worker_id, active_workers)
            if len(self.request_s) % segment == 0:
                ROTATION.next()
            t = clock()
            result = request(worker_id, active_workers)
            done = clock()
            self.request_s.append(done - t)
            self.request_at.append(t - self.start)
            return result

        def timed_answer(worker_id, task_id, label, is_test=False):
            if self.start is None:
                return answer(worker_id, task_id, label, is_test)
            t = clock()
            outcome = answer(worker_id, task_id, label, is_test)
            done = clock()
            self.submit_s.append(done - t)
            self.submit_at.append(t - self.start)
            if outcome.accepted:
                self.accepted_at.append(done - self.start)
            return outcome

        icrowd.on_worker_request = timed_request  # type: ignore[method-assign]
        icrowd.on_answer = timed_answer  # type: ignore[method-assign]


def event_digest(events, scratch: str) -> str:
    """sha256 of the event log's JSONL form."""
    events.to_jsonl(scratch)
    try:
        with open(scratch, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    finally:
        os.remove(scratch)


def run_sim_episode(
    inputs: SimInputs, seed: int, scratch: str, segment: int
) -> Episode:
    """One cold set-up plus one simulator run of ``inputs.steps`` steps,
    checked for correctness."""
    framework = pinned_setup(inputs)
    icrowd = framework.icrowd
    pool = WorkerPool(list(inputs.profiles), seed=seed)
    worker_ids = [p.worker_id for p in inputs.profiles]
    platform = SimulatedPlatform(
        inputs.tasks,
        pool,
        icrowd,
        abandonment=inputs.abandonment,
        faults=inputs.faults,
        seed=seed,
    )
    timer = _WindowTimer(icrowd, worker_ids, segment)
    try:
        report = platform.run(max_steps=inputs.steps)
        end = time.perf_counter()
    finally:
        ROTATION.release()
    if timer.start is None:
        raise RuntimeError("the qualification phase never ended")
    events = report.events
    check_votes(events, inputs.config.assigner.k)
    check_leases(events, platform.assignment_timeout)
    paid = check_payments(events, report.payments, worker_ids)
    correct, completed = consensus_accuracy(events, inputs.tasks)
    return Episode(
        setups=[framework.timings],
        request_s=timer.request_s,
        submit_s=timer.submit_s,
        request_at=timer.request_at,
        submit_at=timer.submit_at,
        accepted_at=timer.accepted_at,
        window_s=end - timer.start,
        paid=paid,
        completed=completed,
        correct=correct,
        attempted=len(timer.request_s) + len(timer.submit_s),
        counts={
            "events": len(events),
            "event_digest": event_digest(events, scratch),
            "steps": report.steps,
            "scheme_computations": icrowd.assigner.scheme_computations,
            "leases_expired": report.leases.expired,
        },
    )

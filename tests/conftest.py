"""Shared fixtures: small task sets, graphs and worker populations."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import GraphConfig, ICrowdConfig
from repro.core.graph import SimilarityGraph
from repro.core.types import Label, Task, TaskSet


@pytest.fixture
def paper_tasks() -> TaskSet:
    """The twelve running-example microtasks of the paper's Table 1.

    Texts are the token sets of Table 1's third column; domains follow
    the paper's narrative (iPhone / iPod / iPad subgraphs of Figure 3).
    """
    rows = [
        ("iphone 4 wifi 32gb four 3g black", "iphone"),
        ("ipod touch 32gb wifi headphone", "ipod"),
        ("ipad 3 wifi 32gb black new cover white", "ipad"),
        ("iphone four wifi 16gb 3g", "iphone"),
        ("iphone 4 case black wifi 32gb", "iphone"),
        ("iphone 4 wifi 32gb four", "iphone"),
        ("ipod touch 32gb wifi case black", "ipod"),
        ("ipod touch nano headphone", "ipod"),
        ("ipod touch wifi nano headphone", "ipod"),
        ("ipad 3 wifi 32gb black iphone 4 cover white", "ipad"),
        ("ipad 4 wifi 16gb retina display", "ipad"),
        ("ipad 3 cover white new", "ipad"),
    ]
    return TaskSet(
        [
            Task(
                task_id=i,
                text=text,
                domain=domain,
                truth=Label.YES if i % 2 == 0 else Label.NO,
            )
            for i, (text, domain) in enumerate(rows)
        ]
    )


@pytest.fixture
def paper_graph(paper_tasks) -> SimilarityGraph:
    """Jaccard similarity graph over the Table 1 tasks (threshold 0.3)."""
    return SimilarityGraph.from_tasks(
        list(paper_tasks), GraphConfig(measure="jaccard", threshold=0.3)
    )


@pytest.fixture
def line_graph() -> SimilarityGraph:
    """A 5-node path graph with unit weights (easy to reason about)."""
    edges = [(i, i + 1, 1.0) for i in range(4)]
    return SimilarityGraph.from_edges(5, edges)


@pytest.fixture
def two_cliques() -> SimilarityGraph:
    """Two disjoint triangles: {0,1,2} and {3,4,5}."""
    edges = [
        (0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0),
        (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0),
    ]
    return SimilarityGraph.from_edges(6, edges)


@pytest.fixture
def tiny_config() -> ICrowdConfig:
    """A small-but-valid framework configuration for unit tests."""
    from repro.core.config import (
        AssignerConfig,
        EstimatorConfig,
        QualificationConfig,
    )

    return ICrowdConfig(
        estimator=EstimatorConfig(alpha=1.0),
        assigner=AssignerConfig(k=3),
        qualification=QualificationConfig(
            num_qualification=2, qualification_threshold=0.5
        ),
        graph=GraphConfig(measure="jaccard", threshold=0.3),
        seed=0,
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(42)


@pytest.fixture
def chaos_event_log(tmp_path):
    """Runs one seeded ``ICrowd`` simulation (60 tasks in 3 domains, 14
    workers, chaos faults and abandonment, 500 steps) and returns its
    ``EventLog.to_jsonl`` bytes with the policy; call it once per
    variant of the program to compare.  The run's task board must
    still equal its records at the end."""
    from repro.core import ICrowd
    from repro.platform import FaultConfig, SimulatedPlatform
    from repro.workers import WorkerPool, generate_profiles
    from tests.core.board_oracle import assert_board_matches_records

    seed = 6
    rng = np.random.default_rng([seed, 1])
    tasks = TaskSet(
        [
            Task(i, f"task {i}", f"D{i // 20}",
                 Label(int(rng.integers(0, 2))))
            for i in range(60)
        ]
    )
    similarity = np.zeros((60, 60))
    for lo in (0, 20, 40):
        members = np.arange(lo, lo + 20)
        for i in members:
            picks = rng.choice(
                members[members != i], size=4, replace=False
            )
            similarity[i, picks] = rng.uniform(0.3, 1.0, size=4)
    similarity = np.maximum(similarity, similarity.T)

    def event_log(name):
        graph = SimilarityGraph.from_matrix(similarity)
        policy = ICrowd(tasks, ICrowdConfig(), graph=graph)
        platform = SimulatedPlatform(
            tasks,
            WorkerPool(
                generate_profiles(tasks.domains(), 14, seed=0),
                seed=seed,
            ),
            policy,
            abandonment=0.1,
            faults=FaultConfig.chaos(0.1, seed=seed),
            seed=seed,
        )
        report = platform.run(max_steps=500)
        assert_board_matches_records(policy._board)
        path = tmp_path / f"{name}.jsonl"
        report.events.to_jsonl(path)
        return path.read_bytes(), policy

    return event_log

"""Unit tests for incremental task insertion (Section 6.5 protocol)."""

import numpy as np
import pytest
from scipy import sparse

from repro.core.graph import SimilarityGraph
from repro.core.streaming import FrozenGraph, GrowableGraph, StreamingAssigner
from repro.experiments.figures import random_normalized_graph
from repro.utils.rng import spawn_rng


class TestGrowableGraph:
    def test_add_tasks(self):
        graph = GrowableGraph()
        first = graph.add_tasks(3)
        assert list(first) == [0, 1, 2]
        second = graph.add_tasks(2)
        assert list(second) == [3, 4]
        assert graph.num_tasks == 5
        assert graph.num_edges == 0

    def test_add_edge_updates_degrees(self):
        graph = GrowableGraph()
        graph.add_tasks(3)
        graph.add_edge(0, 1, 0.5)
        graph.add_edge(1, 2, 1.0)
        assert graph.degree(1) == pytest.approx(1.5)
        assert graph.num_edges == 2

    def test_edge_overwrite_adjusts_degree(self):
        graph = GrowableGraph()
        graph.add_tasks(2)
        graph.add_edge(0, 1, 0.5)
        graph.add_edge(0, 1, 0.8)
        assert graph.degree(0) == pytest.approx(0.8)
        assert graph.num_edges == 1
        # an identical rewrite leaves the degree and S' exactly as they
        # were (exact float equality: the values are positive)
        degree, row = graph.degree(0), graph.normalized_row(0)
        graph.add_edge(0, 1, 0.8)
        assert graph.degree(0) == degree
        assert graph.normalized_row(0) == row
        assert graph.num_edges == 1

    def test_normalized_row_formula(self):
        graph = GrowableGraph()
        graph.add_tasks(3)
        graph.add_edge(0, 1, 1.0)
        graph.add_edge(1, 2, 1.0)
        row = graph.normalized_row(1)
        # d_1 = 2, d_0 = d_2 = 1 → entries 1/sqrt(2)
        assert row[0] == pytest.approx(2 ** -0.5)
        assert row[2] == pytest.approx(2 ** -0.5)

    def test_normalization_tracks_growth(self):
        """Inserting an edge later must change earlier rows' values."""
        graph = GrowableGraph()
        graph.add_tasks(3)
        graph.add_edge(0, 1, 1.0)
        before = graph.normalized_row(0)[1]
        graph.add_edge(1, 2, 1.0)  # raises d_1
        after = graph.normalized_row(0)[1]
        assert after < before

    def test_isolated_row_empty(self):
        graph = GrowableGraph()
        graph.add_tasks(1)
        assert graph.normalized_row(0) == {}

    def test_validation(self):
        graph = GrowableGraph()
        graph.add_tasks(2)
        with pytest.raises(ValueError):
            graph.add_tasks(-1)
        with pytest.raises(ValueError):
            graph.add_edge(0, 5, 1.0)
        with pytest.raises(ValueError):
            graph.add_edge(0, 0, 1.0)
        with pytest.raises(ValueError):
            graph.add_edge(0, 1, 0.0)

    def test_zero_count_batch_is_valid(self):
        """Regression: edge-only insertion rounds pass count == 0."""
        graph = GrowableGraph()
        graph.add_tasks(2)
        empty = graph.add_tasks(0)
        assert list(empty) == []
        assert graph.num_tasks == 2


def serve_until_refused_twice(assigner, workers, observed=0.8):
    """Round-robin requests, answering each served task, until every
    worker has been refused twice; returns the number of answers."""
    refusals = dict.fromkeys(workers, 0)
    answers = 0
    step = 0
    while min(refusals.values()) < 2:
        worker = workers[step % len(workers)]
        step += 1
        task = assigner.request(worker)
        if task is None:
            refusals[worker] += 1
        else:
            assigner.answer(worker, task, observed)
            answers += 1
    return answers


def build_assigner(num_tasks=30, k=2, seed=0):
    rng = spawn_rng(seed, "streaming-test")
    graph = GrowableGraph()
    graph.add_tasks(num_tasks)
    for i in range(num_tasks):
        for _ in range(3):
            j = int(rng.integers(0, num_tasks))
            if j != i:
                graph.add_edge(i, j, float(rng.uniform(0.5, 1.0)))
    return StreamingAssigner(graph, damping=0.5, k=k)


class TestStreamingAssigner:
    def test_completes_initial_batch(self):
        assigner = build_assigner(num_tasks=20, k=2)
        for r in range(200):
            worker = f"w{r % 4}"
            task = assigner.request(worker)
            if task is None:
                break
            assigner.answer(worker, task, 0.8)
            if assigner.num_completed == 20:
                break
        assert assigner.num_completed == 20

    def test_inserted_tasks_get_served(self):
        assigner = build_assigner(num_tasks=10, k=1)
        # drain the initial batch
        for r in range(10):
            task = assigner.request(f"w{r}")
            assigner.answer(f"w{r}", task, 0.9)
        assert assigner.num_completed == 10
        new_ids = assigner.insert_tasks(
            5, edges=[(10, 11, 0.8), (12, 3, 0.6)]
        )
        assert list(new_ids) == [10, 11, 12, 13, 14]
        served = set()
        for r in range(5):
            task = assigner.request(f"v{r}")
            assert task in set(new_ids)
            served.add(task)
            assigner.answer(f"v{r}", task, 0.9)
        assert served == set(new_ids)

    def test_no_worker_sees_task_twice_across_insertions(self):
        assigner = build_assigner(num_tasks=8, k=3)
        seen: dict[str, set[int]] = {}
        for round_index in range(3):
            if round_index:
                assigner.insert_tasks(4)
            for r in range(12):
                worker = f"w{r % 3}"
                task = assigner.request(worker)
                if task is None:
                    break
                assert task not in seen.setdefault(worker, set())
                seen[worker].add(task)
                assigner.answer(worker, task, 0.7)

    def test_tasks_without_edges_complete(self):
        """Regression: a frontier task left the frontier once served,
        so with no edges each task got one answer and none completed."""
        graph = GrowableGraph()
        graph.add_tasks(10)
        assigner = StreamingAssigner(graph, damping=0.5, k=2)
        answers = serve_until_refused_twice(assigner, ["a", "b", "c"])
        assert assigner.num_completed == 10
        assert answers == 20

    def test_isolated_tasks_of_a_frozen_graph_complete(self):
        """The same on a CSR snapshot where every fifth task is
        isolated: 320 of 400 tasks completed before the fix."""
        keep = np.ones(400)
        keep[::5] = 0.0
        mask = sparse.diags(keep)
        normalized = (mask @ random_normalized_graph(400, 6, 5) @ mask).tocsr()
        normalized.eliminate_zeros()
        assigner = StreamingAssigner(
            FrozenGraph(normalized), damping=0.5, k=3
        )
        answers = serve_until_refused_twice(
            assigner, [f"w{i}" for i in range(20)]
        )
        assert assigner.num_completed == 400
        assert answers == 400 * 3

    def test_insert_edges_to_existing_tasks(self):
        assigner = build_assigner(num_tasks=5, k=1)
        new_ids = assigner.insert_tasks(1, edges=[(5, 0, 0.9)])
        assert assigner.graph.degree(5) == pytest.approx(0.9)
        assert 0 in assigner.graph.neighbors(5)

    def test_observation_spreads_to_neighbors(self):
        graph = GrowableGraph()
        graph.add_tasks(3)
        graph.add_edge(0, 1, 1.0)
        assigner = StreamingAssigner(graph, damping=0.5, k=3)
        assigner.observe("w", 0, 1.0)
        index = assigner._indexes["w"]
        assert index.value(0) > 0.5
        assert index.value(1) > 0.5
        assert index.value(2) == 0.5  # disconnected

    def test_validation(self):
        graph = GrowableGraph()
        graph.add_tasks(1)
        with pytest.raises(ValueError):
            StreamingAssigner(graph, damping=1.5)
        with pytest.raises(ValueError):
            StreamingAssigner(graph, damping=0.5, k=0)

    def test_insert_zero_tasks_with_edges(self):
        """Regression: an edge-only batch between existing tasks used to
        raise ValueError out of ``GrowableGraph.add_tasks(0)``."""
        assigner = build_assigner(num_tasks=5, k=1)
        new_ids = assigner.insert_tasks(0, edges=[(0, 4, 0.9)])
        assert list(new_ids) == []
        assert assigner.graph.neighbors(0)[4] == pytest.approx(0.9)

    def test_request_survives_frontier_fallthrough(self):
        """Regression: when ``pop_best`` popped a below-prior task and a
        frontier candidate was served instead, the popped heap entry was
        silently consumed — the task could never again be served by
        estimate order."""
        graph = GrowableGraph()
        graph.add_tasks(1)  # task 0, isolated
        assigner = StreamingAssigner(graph, damping=0.5, k=1)
        # another worker's k servings close 0 in the frontier, but it
        # is not in w's seen set
        assert assigner.request("v") == 0
        # below-prior evidence for w on task 0
        assigner.observe("w", 0, 0.2)
        assigner.insert_tasks(1)
        # pop_best pops 0 (<= prior), the new task is served instead
        assert assigner.request("w") == 1
        # the heap entry must have been restored: 0 is still reachable
        assert assigner.request("w") == 0

    def test_streaming_matches_scalable_on_frozen_graph(self):
        """Differential: on a graph that stops growing, the assigner
        reading the live graph and the one reading its CSR snapshot
        serve identical sequences."""
        rng = spawn_rng(7, "streaming-differential")
        graph = GrowableGraph()
        graph.add_tasks(12)
        for i in range(12):
            for _ in range(2):
                j = int(rng.integers(0, 12))
                if j != i:
                    graph.add_edge(i, j, float(rng.uniform(0.5, 1.0)))
        edges = [
            (i, j, weight)
            for i in range(12)
            for j, weight in graph.neighbors(i).items()
            if i < j
        ]
        normalized = SimilarityGraph.from_edges(12, edges).normalized
        live = StreamingAssigner(graph, damping=0.5, k=2)
        frozen = StreamingAssigner(
            FrozenGraph(normalized), damping=0.5, k=2
        )
        for step in range(60):
            worker = f"w{step % 3}"
            expected = frozen.request(worker)
            actual = live.request(worker)
            assert actual == expected
            if expected is None:
                continue
            observed = float(rng.uniform(0.0, 1.0))
            frozen.answer(worker, expected, observed)
            live.answer(worker, expected, observed)
        assert live.num_completed == frozen.num_completed

    def test_request_does_not_copy_the_completed_set(self):
        """Regression: every request built ``seen | completed``, so its
        cost grew with the number of completed tasks.  A completed
        collection that supports only membership and insertion must
        be enough."""

        class MembershipOnly:
            def __init__(self):
                self._tasks = set()

            def __contains__(self, task_id):
                return task_id in self._tasks

            def add(self, task_id):
                self._tasks.add(task_id)

            def __len__(self):
                return len(self._tasks)

        assigner = build_assigner(num_tasks=20, k=2)
        assigner._completed = MembershipOnly()
        for r in range(200):
            worker = f"w{r % 4}"
            task = assigner.request(worker)
            if task is None:
                break
            assert task not in assigner._completed
            assigner.answer(worker, task, 0.8)
        assert assigner.num_completed > 0

    def test_frozen_graph_cannot_grow(self):
        normalized = sparse.csr_matrix((0, 0))
        assigner = StreamingAssigner(FrozenGraph(normalized), damping=0.5)
        with pytest.raises(TypeError):
            assigner.insert_tasks(1)

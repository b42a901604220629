"""Unit tests for the large-scale assignment indexes (Figure 10 path)."""

import numpy as np
import pytest

from repro.core.indexes import SparseEstimateIndex
from repro.core.streaming import FrozenGraph, StreamingAssigner
from repro.experiments.figures import random_normalized_graph


class TestSparseEstimateIndex:
    def test_prior_for_unknown(self):
        index = SparseEstimateIndex(prior=0.5)
        assert index.value(7) == 0.5
        assert index.support_size == 0

    def test_update_and_pop(self):
        index = SparseEstimateIndex()
        index.update({1: 0.9, 2: 0.7, 3: 0.8})
        assert index.pop_best(set()) == 1
        assert index.pop_best({2}) == 3

    def test_stale_entries_skipped(self):
        index = SparseEstimateIndex()
        index.update({1: 0.9})
        index.update({1: 0.4, 2: 0.6})
        assert index.pop_best(set()) == 2

    def test_exhausted_returns_none(self):
        index = SparseEstimateIndex()
        index.update({1: 0.9})
        assert index.pop_best({1}) is None

    def test_observed_and_contains(self):
        index = SparseEstimateIndex(prior=0.5)
        assert not index.observed(1)
        assert 1 not in index
        index.update({1: 0.5})  # explicit entry, even at prior value
        assert index.observed(1)
        assert 1 in index
        assert not index.observed(2)

    def test_restore_repushes_popped_entry(self):
        index = SparseEstimateIndex()
        index.update({1: 0.4})
        assert index.pop_best(set()) == 1
        assert index.pop_best(set()) is None  # consumed
        index.restore(1)
        assert index.pop_best(set()) == 1

    def test_restore_outside_support_is_noop(self):
        index = SparseEstimateIndex()
        index.restore(9)
        assert index.pop_best(set()) is None

    def test_excludes_membership_in_any_collection(self):
        index = SparseEstimateIndex()
        index.update({1: 0.9, 2: 0.8, 3: 0.7})
        assert index.pop_best({1}, {2}) == 3


class TestScalableAssigner:
    """The assigner over a frozen CSR, as Figure 10's sweep runs it."""

    def make_assigner(self, n=200, m=8, k=2, seed=0):
        normalized = random_normalized_graph(n, m, seed)
        return StreamingAssigner(FrozenGraph(normalized), damping=0.5, k=k)

    def test_serves_every_task_to_completion(self):
        n, k = 60, 2
        assigner = self.make_assigner(n=n, k=k)
        workers = [f"w{i}" for i in range(6)]
        served = 0
        for r in range(n * k * 3):
            worker = workers[r % len(workers)]
            task = assigner.request(worker)
            if task is None:
                continue
            assigner.answer(worker, task, 0.8)
            served += 1
            if assigner.num_completed == n:
                break
        assert assigner.num_completed == n

    def test_no_worker_sees_task_twice(self):
        assigner = self.make_assigner(n=50, k=3)
        seen: dict[str, set[int]] = {}
        for r in range(200):
            worker = f"w{r % 5}"
            task = assigner.request(worker)
            if task is None:
                break
            assert task not in seen.setdefault(worker, set())
            seen[worker].add(task)
            assigner.answer(worker, task, 0.9)

    def test_completed_tasks_not_served(self):
        assigner = self.make_assigner(n=30, k=1)
        delivered = []
        for r in range(30):
            task = assigner.request(f"w{r}")
            assert task is not None
            assigner.answer(f"w{r}", task, 0.9)
            delivered.append(task)
        assert len(set(delivered)) == 30

    def test_observation_biases_toward_neighborhood(self):
        """After positive evidence at a task, the worker's next request
        should prefer the evidence neighbourhood over the frontier."""
        normalized = random_normalized_graph(500, 10, seed=1)
        assigner = StreamingAssigner(
            FrozenGraph(normalized), damping=0.5, k=3
        )
        first = assigner.request("w")
        assigner.answer("w", first, 1.0)
        start, end = normalized.indptr[first], normalized.indptr[first + 1]
        neighborhood = set(normalized.indices[start:end].tolist())
        second = assigner.request("w")
        assert second in neighborhood

    def test_request_work_is_local(self):
        """Per-request touched state must not scale with |T|: a request
        reads no row of S', an answer reads one, and the worker indexes
        grow only by the rows read."""

        class CountingGraph(FrozenGraph):
            def normalized_row(self, task_id):
                row = super().normalized_row(task_id)
                self.row_sizes.append(len(row))
                return row

        support_per_answer = {}
        for n in (200, 2000):
            graph = CountingGraph(random_normalized_graph(n, 8, 0))
            graph.row_sizes = []
            assigner = StreamingAssigner(graph, damping=0.5, k=2)
            for r in range(20):
                worker = f"w{r % 4}"
                task = assigner.request(worker)
                assigner.answer(worker, task, 0.8)
            assert len(graph.row_sizes) == 20
            support = sum(
                index.support_size for index in assigner._indexes.values()
            )
            assert support <= sum(1 + size for size in graph.row_sizes)
            support_per_answer[n] = support / 20
        # supports are neighbourhood-sized at both sizes
        assert support_per_answer[2000] < 10 * support_per_answer[200] + 50

    def test_request_survives_frontier_fallthrough(self):
        """Regression: serving a frontier candidate after ``pop_best``
        popped a below-prior task used to consume that heap entry —
        the task then could never be served by estimate order."""
        from scipy import sparse

        normalized = sparse.csr_matrix((2, 2), dtype=np.float64)
        assigner = StreamingAssigner(
            FrozenGraph(normalized), damping=0.5, k=1
        )
        # serving task 0 k times closes it in the shared frontier
        assert assigner.request("v") == 0
        assigner.observe("w", 0, 0.2)  # below-prior evidence
        # pop_best pops 0 (<= prior); frontier serves 1 instead
        assert assigner.request("w") == 1
        # the popped entry must be restored: 0 is still reachable
        assert assigner.request("w") == 0

    def test_validation(self):
        normalized = random_normalized_graph(10, 3, seed=0)
        with pytest.raises(ValueError):
            StreamingAssigner(FrozenGraph(normalized), damping=0.5, k=0)


class TestRandomNormalizedGraph:
    def test_symmetric_and_bounded(self):
        import numpy as np

        normalized = random_normalized_graph(300, 6, seed=9)
        diff = abs(normalized - normalized.T)
        assert diff.nnz == 0 or diff.max() < 1e-12
        assert normalized.data.min() > 0
        # spectral bound of symmetric normalisation
        eigenvalue = float(
            np.max(
                np.abs(
                    np.linalg.eigvalsh(
                        normalized[:60, :60].toarray()
                    )
                )
            )
        )
        assert eigenvalue <= 1.5  # principal submatrix is looser

    def test_deterministic(self):
        a = random_normalized_graph(100, 5, seed=4)
        b = random_normalized_graph(100, 5, seed=4)
        assert (a != b).nnz == 0

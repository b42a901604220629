"""Unit tests for incremental PPR basis repair (ROADMAP item 2).

The contract under test: after any sequence of task/edge insertions,
``PPRBasis.repair`` seeded with the graph's change journal produces a
basis within the storage ``epsilon`` of a cold rebuild — without
re-pushing rows the change never reached.
"""

import numpy as np
import pytest
from scipy import sparse

from repro.core.config import EstimatorConfig
from repro.core.estimator import AccuracyEstimator
from repro.core.graph import SimilarityGraph
from repro.core.ppr import PPRBasis, RepairStats
from repro.core.streaming import GrowableGraph
from repro.utils.rng import spawn_rng

DAMPING = 0.5
EPSILON = 1e-6


def random_growable(num_tasks, edges_per_task=3, seed=0, tag="repair-test"):
    rng = spawn_rng(seed, tag)
    graph = GrowableGraph()
    graph.add_tasks(num_tasks)
    for i in range(num_tasks):
        for _ in range(edges_per_task):
            j = int(rng.integers(0, num_tasks))
            if j != i:
                graph.add_edge(i, j, float(rng.uniform(0.2, 1.0)))
    return graph


def grow(graph, count, new_edges, seed=1, tag="repair-grow"):
    """Append ``count`` tasks and ``new_edges`` random edges."""
    rng = spawn_rng(seed, tag)
    new_ids = graph.add_tasks(count)
    n = graph.num_tasks
    for _ in range(new_edges):
        i = int(rng.integers(0, n))
        j = int(rng.integers(0, n))
        if i != j:
            graph.add_edge(i, j, float(rng.uniform(0.2, 1.0)))
    return new_ids


def cold_basis(graph, epsilon=EPSILON):
    return PPRBasis.compute(
        graph.normalized_csr(), DAMPING, epsilon=epsilon, method="push"
    )


class TestPPRBasisRepair:
    def test_matches_cold_rebuild_after_growth(self):
        graph = random_growable(30)
        old = cold_basis(graph)
        graph.mark_clean()
        grow(graph, 8, 20)
        delta = graph.mark_clean()
        stats = RepairStats()
        repaired = old.repair(
            graph.normalized_csr(), delta.dirty_rows, DAMPING,
            epsilon=EPSILON, stats=stats,
        )
        cold = cold_basis(graph)
        diff = np.abs((repaired.matrix - cold.matrix).toarray()).max()
        assert diff <= EPSILON
        assert stats.new_rows == 8
        assert stats.repaired_rows + stats.reused_rows == 30

    def test_edge_only_change_same_size(self):
        graph = random_growable(20)
        old = cold_basis(graph)
        graph.mark_clean()
        graph.add_edge(0, 10, 0.9)
        delta = graph.mark_clean()
        repaired = old.repair(
            graph.normalized_csr(), delta.dirty_rows, DAMPING,
            epsilon=EPSILON,
        )
        cold = cold_basis(graph)
        diff = np.abs((repaired.matrix - cold.matrix).toarray()).max()
        assert diff <= EPSILON

    def test_noop_delta_reuses_every_row(self):
        graph = random_growable(15)
        old = cold_basis(graph)
        stats = RepairStats()
        repaired = old.repair(
            graph.normalized_csr(), (), DAMPING,
            epsilon=EPSILON, stats=stats,
        )
        assert stats.repaired_rows == 0
        assert stats.new_rows == 0
        assert stats.reused_rows == 15
        assert (repaired.matrix != old.matrix).nnz == 0

    def test_untouched_rows_carried_by_reference(self):
        """A change confined to one cluster must not re-push the other."""
        graph = GrowableGraph()
        graph.add_tasks(6)
        # two disconnected triangles: {0,1,2} and {3,4,5}
        for a, b in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]:
            graph.add_edge(a, b, 1.0)
        old = cold_basis(graph)
        graph.mark_clean()
        graph.add_edge(3, 5, 0.5)  # perturb the second triangle only
        delta = graph.mark_clean()
        stats = RepairStats()
        repaired = old.repair(
            graph.normalized_csr(), delta.dirty_rows, DAMPING,
            epsilon=EPSILON, stats=stats,
        )
        assert stats.repaired_rows == 3
        assert stats.reused_rows == 3
        for row in (0, 1, 2):
            old_cols, old_vals = old._row_slice(row)
            new_cols, new_vals = repaired._row_slice(row)
            assert np.array_equal(old_cols, new_cols)
            assert np.array_equal(old_vals, new_vals)

    def test_validation(self):
        graph = random_growable(10)
        basis = cold_basis(graph)
        smaller = sparse.csr_matrix((5, 5), dtype=np.float64)
        with pytest.raises(ValueError):
            basis.repair(smaller, (), DAMPING)
        with pytest.raises(ValueError):
            basis.repair(graph.normalized_csr(), (99,), DAMPING)
        rect = sparse.csr_matrix((10, 12), dtype=np.float64)
        with pytest.raises(ValueError):
            basis.repair(rect, (), DAMPING)


class TestEstimatorUpdateGraph:
    def test_incremental_repair_matches_cold(self, tmp_path):
        graph = random_growable(25)
        config = EstimatorConfig(incremental=True)
        estimator = AccuracyEstimator(
            SimilarityGraph(graph.similarity_csr()), config,
            basis_method="push", cache_dir=tmp_path,
        )
        estimator.precompute()
        graph.mark_clean()
        grow(graph, 5, 12)
        delta = graph.mark_clean()
        frozen = SimilarityGraph(graph.similarity_csr())
        estimator.update_graph(frozen, delta.dirty_rows)
        cold = AccuracyEstimator(
            frozen, EstimatorConfig(), basis_method="push"
        )
        diff = np.abs(
            (estimator.basis.matrix - cold.basis.matrix).toarray()
        ).max()
        assert diff <= config.basis_epsilon
        # the repaired basis was re-keyed into the cache: a fresh
        # estimator on the new graph loads it instead of recomputing
        warm = AccuracyEstimator(
            frozen, config, basis_method="push", cache_dir=tmp_path
        )
        warm.precompute()
        assert warm.basis_from_cache
        assert (
            warm.basis.matrix != estimator.basis.matrix
        ).nnz == 0

    def test_non_incremental_drops_basis(self):
        graph = random_growable(15)
        estimator = AccuracyEstimator(
            SimilarityGraph(graph.similarity_csr()),
            EstimatorConfig(incremental=False),
            basis_method="push",
        )
        estimator.precompute()
        grow(graph, 2, 4)
        estimator.update_graph(SimilarityGraph(graph.similarity_csr()))
        assert estimator._basis is None
        # next access recomputes on the new graph
        assert estimator.basis.num_tasks == 17

    def test_incremental_without_materialised_basis_recomputes(self):
        graph = random_growable(10)
        estimator = AccuracyEstimator(
            SimilarityGraph(graph.similarity_csr()),
            EstimatorConfig(incremental=True),
            basis_method="push",
        )
        grow(graph, 2, 4)
        estimator.update_graph(SimilarityGraph(graph.similarity_csr()))
        assert estimator.basis.num_tasks == 12

    def test_shrinking_graph_rejected(self):
        graph = random_growable(10)
        estimator = AccuracyEstimator(
            SimilarityGraph(graph.similarity_csr()),
            EstimatorConfig(incremental=True),
            basis_method="push",
        )
        estimator.precompute()
        smaller = random_growable(5, seed=2)
        with pytest.raises(ValueError):
            estimator.update_graph(
                SimilarityGraph(smaller.similarity_csr())
            )

    def test_repaired_estimates_match_cold(self):
        """Differential: online estimates through a repaired basis
        agree with a cold estimator on the frozen graph."""
        graph = random_growable(20, seed=4)
        estimator = AccuracyEstimator(
            SimilarityGraph(graph.similarity_csr()),
            EstimatorConfig(incremental=True),
            basis_method="push",
        )
        estimator.precompute()
        graph.mark_clean()
        grow(graph, 4, 8, seed=6)
        delta = graph.mark_clean()
        frozen = SimilarityGraph(graph.similarity_csr())
        estimator.update_graph(frozen, delta.dirty_rows)
        cold = AccuracyEstimator(
            frozen, EstimatorConfig(), basis_method="push"
        )
        observed = {0: 0.9, 5: 0.4, 21: 0.8}
        np.testing.assert_allclose(
            estimator.estimate(observed), cold.estimate(observed),
            atol=1e-4,
        )

"""Unit tests for the similarity graph (Section 3)."""

import numpy as np
import pytest
from scipy import sparse

from repro.core.config import GraphConfig
from repro.core.graph import SimilarityGraph, component_labels
from tests.core.ppr_oracle import clustered_graph


class TestConstruction:
    def test_from_matrix_thresholds(self):
        sim = np.array(
            [
                [0.0, 0.6, 0.2],
                [0.6, 0.0, 0.9],
                [0.2, 0.9, 0.0],
            ]
        )
        graph = SimilarityGraph.from_matrix(sim, threshold=0.5)
        assert graph.num_edges == 2
        assert graph.similarity(0, 2) == 0.0
        assert graph.similarity(1, 2) == pytest.approx(0.9)

    def test_threshold_keeps_equal_values(self):
        """The paper keeps pairs with similarity *not smaller than* the
        threshold."""
        sim = np.array([[0.0, 0.5], [0.5, 0.0]])
        graph = SimilarityGraph.from_matrix(sim, threshold=0.5)
        assert graph.num_edges == 1

    def test_diagonal_ignored(self):
        sim = np.array([[0.7, 0.6], [0.6, 0.7]])
        graph = SimilarityGraph.from_matrix(sim)
        assert graph.similarity(0, 0) == 0.0

    def test_rejects_asymmetric(self):
        matrix = sparse.csr_matrix(
            np.array([[0.0, 0.5], [0.4, 0.0]])
        )
        with pytest.raises(ValueError, match="symmetric"):
            SimilarityGraph(matrix)

    def test_rejects_negative(self):
        matrix = sparse.csr_matrix(
            np.array([[0.0, -0.5], [-0.5, 0.0]])
        )
        with pytest.raises(ValueError, match="non-negative"):
            SimilarityGraph(matrix)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            SimilarityGraph.from_matrix(np.zeros((2, 3)))

    def test_max_neighbors_bounds_edge_count(self):
        n = 10
        sim = np.ones((n, n)) * 0.5 + 0.01 * np.arange(n)[None, :]
        sim = (sim + sim.T) / 2
        graph = SimilarityGraph.from_matrix(sim, max_neighbors=3)
        # each node nominates at most max_neighbors edges; the union
        # re-symmetrisation therefore keeps at most n * max_neighbors
        # undirected edges (hub nodes may exceed the per-node bound,
        # as in any symmetric kNN graph)
        assert graph.num_edges <= n * 3
        full = SimilarityGraph.from_matrix(sim)
        assert graph.num_edges < full.num_edges

    def test_from_edges(self):
        graph = SimilarityGraph.from_edges(4, [(0, 1, 0.5), (2, 3, 0.7)])
        assert graph.num_edges == 2
        assert graph.similarity(1, 0) == pytest.approx(0.5)

    def test_from_edges_validates(self):
        with pytest.raises(ValueError, match="out of range"):
            SimilarityGraph.from_edges(2, [(0, 5, 0.5)])
        with pytest.raises(ValueError, match="positive"):
            SimilarityGraph.from_edges(2, [(0, 1, 0.0)])

    def test_from_edges_skips_self_loops(self):
        graph = SimilarityGraph.from_edges(3, [(1, 1, 0.9), (0, 1, 0.4)])
        assert graph.num_edges == 1


class TestNormalization:
    def test_normalized_formula(self, line_graph):
        """S' = D^{-1/2} S D^{-1/2} entrywise on the path graph."""
        normalized = line_graph.normalized.toarray()
        # node 0 has degree 1, node 1 has degree 2
        assert normalized[0, 1] == pytest.approx(1 / np.sqrt(1 * 2))
        assert normalized[1, 2] == pytest.approx(1 / np.sqrt(2 * 2))

    def test_normalized_symmetric(self, two_cliques):
        normalized = two_cliques.normalized.toarray()
        assert np.allclose(normalized, normalized.T)

    def test_spectral_radius_at_most_one(self, paper_graph):
        normalized = paper_graph.normalized.toarray()
        eigenvalues = np.linalg.eigvalsh(normalized)
        assert np.max(np.abs(eigenvalues)) <= 1.0 + 1e-9

    def test_isolated_node_row_is_zero(self):
        graph = SimilarityGraph.from_edges(3, [(0, 1, 1.0)])
        assert graph.normalized.getrow(2).nnz == 0


class TestAccessors:
    def test_neighbors_sorted_by_column(self, two_cliques):
        neighbors = dict(two_cliques.neighbors(0))
        assert set(neighbors) == {1, 2}

    def test_neighbors_out_of_range(self, two_cliques):
        with pytest.raises(ValueError):
            two_cliques.neighbors(99)

    def test_degree(self, two_cliques):
        assert two_cliques.degree(0) == pytest.approx(2.0)

    def test_connected_components(self, two_cliques):
        components = two_cliques.connected_components()
        assert sorted(map(sorted, components)) == [[0, 1, 2], [3, 4, 5]]

    def test_paper_graph_clusters_by_product(self, paper_tasks, paper_graph):
        """The Table 1 Jaccard graph must separate iPhone/iPod/iPad
        tasks into connected groups dominated by their domain."""
        components = paper_graph.connected_components()
        # all iPod tasks end up connected to each other
        ipod_ids = {t.task_id for t in paper_tasks if t.domain == "ipod"}
        containing = [c for c in components if c & ipod_ids]
        assert len(containing) == 1


def symmetric(n, heads, tails):
    matrix = sparse.csr_matrix(
        (np.ones(len(heads)), (heads, tails)), shape=(n, n)
    )
    return (matrix + matrix.T).tocsr()


class TestComponentLabels:
    """The numpy labelling gives scipy.sparse.csgraph's partition."""

    def assert_matches_csgraph(self, matrix):
        from scipy.sparse import csgraph

        labels = component_labels(matrix.indptr, matrix.indices)
        count, expected = csgraph.connected_components(matrix, directed=False)
        roots, compact = np.unique(labels, return_inverse=True)
        assert roots.size == count
        # csgraph numbers components in order of their smallest node,
        # and a label is that node
        assert np.array_equal(compact, expected)
        assert np.array_equal(labels[roots], roots)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_graphs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(50, 400))
        edges = int(rng.integers(0, 2 * n))
        self.assert_matches_csgraph(
            symmetric(n, rng.integers(0, n, edges), rng.integers(0, n, edges))
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_clustered_graphs_with_isolated_tasks(self, seed):
        graph = clustered_graph(300, 7, 2, 25, seed=seed)
        self.assert_matches_csgraph(graph.matrix)

    def test_no_edges(self):
        self.assert_matches_csgraph(sparse.csr_matrix((40, 40)))
        labels = component_labels(np.zeros(1, dtype=np.int64), np.zeros(0))
        assert labels.size == 0

    @pytest.mark.parametrize("order", ["ascending", "descending", "random"])
    def test_long_path(self, order):
        n = 5000
        ids = {
            "ascending": np.arange(n),
            "descending": np.arange(n)[::-1],
            "random": np.random.default_rng(0).permutation(n),
        }[order]
        path = symmetric(n, ids[:-1], ids[1:])
        labels = component_labels(path.indptr, path.indices)
        assert np.array_equal(labels, np.zeros(n))
        self.assert_matches_csgraph(path)

    def test_graph_components_keep_their_order(self):
        graph = clustered_graph(200, 5, 2, 10, seed=1)
        components = graph.connected_components()
        smallest = [min(c) for c in components]
        assert smallest == sorted(smallest)
        assert sum(map(len, components)) == 200


class TestFromTasks:
    def test_respects_config(self, paper_tasks):
        sparse_graph = SimilarityGraph.from_tasks(
            list(paper_tasks), GraphConfig(measure="jaccard", threshold=0.9)
        )
        dense_graph = SimilarityGraph.from_tasks(
            list(paper_tasks), GraphConfig(measure="jaccard", threshold=0.1)
        )
        assert sparse_graph.num_edges < dense_graph.num_edges

"""Unit tests for the PPR solvers and the linearity basis (Section 3.1)."""

import numpy as np
import pytest
from scipy import sparse

from repro.core import ppr
from repro.core.ppr import (
    PPRBasis,
    component_blocks,
    forward_push,
    power_iteration,
    solve_exact,
)
from tests.core.online_oracle import combine_rows
from tests.core.ppr_oracle import clustered_graph, dense_batch_basis


def dense_unit(n, i):
    q = np.zeros(n)
    q[i] = 1.0
    return q


class TestPowerIteration:
    def test_matches_closed_form(self, line_graph):
        """Eq. (4) must converge to Lemma 1's closed-form solution."""
        normalized = line_graph.normalized
        q = np.array([1.0, 0.0, 0.0, 0.5, 0.0])
        for damping in (0.3, 0.5, 0.8):
            iterated = power_iteration(normalized, q, damping, tol=1e-12)
            exact = solve_exact(normalized, q, damping)
            assert np.allclose(iterated, exact, atol=1e-8)

    def test_zero_restart_gives_zero(self, two_cliques):
        result = power_iteration(
            two_cliques.normalized, np.zeros(6), damping=0.5
        )
        assert np.allclose(result, 0.0)

    def test_mass_stays_in_source_component(self, two_cliques):
        result = power_iteration(
            two_cliques.normalized, dense_unit(6, 0), damping=0.5, tol=1e-12
        )
        assert result[:3].sum() > 0
        assert np.allclose(result[3:], 0.0)

    def test_rejects_bad_damping(self, line_graph):
        with pytest.raises(ValueError, match="damping"):
            power_iteration(line_graph.normalized, np.zeros(5), 1.0)

    def test_rejects_shape_mismatch(self, line_graph):
        with pytest.raises(ValueError, match="shape"):
            power_iteration(line_graph.normalized, np.zeros(3), 0.5)

    def test_restart_dominates_at_small_damping(self, line_graph):
        """damping → 0 means p ≈ q (alpha → ∞ in Eq. (2))."""
        q = np.array([0.9, 0.0, 0.4, 0.0, 0.0])
        result = power_iteration(line_graph.normalized, q, damping=1e-4)
        assert np.allclose(result, q, atol=1e-3)


class TestForwardPush:
    def test_agrees_with_power_iteration(self, paper_graph):
        normalized = paper_graph.normalized
        for source in range(paper_graph.num_tasks):
            pushed = forward_push(
                normalized, source, damping=0.5, epsilon=1e-10
            )
            dense = power_iteration(
                normalized,
                dense_unit(paper_graph.num_tasks, source),
                damping=0.5,
                tol=1e-12,
            )
            for j in range(paper_graph.num_tasks):
                assert pushed.get(j, 0.0) == pytest.approx(
                    dense[j], abs=1e-6
                )

    def test_locality(self, two_cliques):
        """Push from one clique never touches the other."""
        result = forward_push(
            two_cliques.normalized, 0, damping=0.5, epsilon=1e-10
        )
        assert set(result) <= {0, 1, 2}

    def test_rejects_bad_source(self, line_graph):
        with pytest.raises(ValueError, match="source"):
            forward_push(line_graph.normalized, 7, 0.5)

    def test_rejects_bad_epsilon(self, line_graph):
        with pytest.raises(ValueError, match="epsilon"):
            forward_push(line_graph.normalized, 0, 0.5, epsilon=0.0)

    def test_isolated_node(self):
        from repro.core.graph import SimilarityGraph

        graph = SimilarityGraph.from_edges(3, [(0, 1, 1.0)])
        result = forward_push(graph.normalized, 2, damping=0.5)
        # all mass stays on the isolated node: p = (1-c) * 1
        assert result == pytest.approx({2: 0.5})


class TestPPRBasis:
    @pytest.mark.parametrize("method", ["push", "batch"])
    def test_methods_agree(self, paper_graph, method):
        """Every basis row equals the exact solve on its unit restart."""
        basis = PPRBasis.compute(
            paper_graph.normalized, damping=0.5, epsilon=1e-9, method=method,
            tol=1e-12,
        )
        n = paper_graph.num_tasks
        for i in range(n):
            exact = solve_exact(
                paper_graph.normalized, dense_unit(n, i), damping=0.5
            )
            assert np.allclose(exact, basis.row(i), atol=1e-5)

    def test_linearity_property(self, paper_graph):
        """Lemma 3: combine(q) == power_iteration on q."""
        basis = PPRBasis.compute(
            paper_graph.normalized, damping=0.5, epsilon=0.0, method="batch",
            tol=1e-12,
        )
        q = {0: 1.0, 3: 0.5, 7: 0.25}
        combined = basis.combine(q)
        dense_q = np.zeros(paper_graph.num_tasks)
        for task_id, value in q.items():
            dense_q[task_id] = value
        direct = power_iteration(
            paper_graph.normalized, dense_q, damping=0.5, tol=1e-12
        )
        assert np.allclose(combined, direct, atol=1e-8)

    def test_combine_dense_and_sparse_agree(self, line_graph):
        basis = PPRBasis.compute(line_graph.normalized, damping=0.5)
        sparse_q = {1: 0.7, 4: 0.2}
        dense_q = np.zeros(5)
        dense_q[1], dense_q[4] = 0.7, 0.2
        assert np.allclose(
            basis.combine(sparse_q), basis.combine(dense_q), atol=1e-12
        )

    def test_truncation_reduces_nnz(self, paper_graph):
        fine = PPRBasis.compute(
            paper_graph.normalized, damping=0.5, epsilon=1e-12
        )
        coarse = PPRBasis.compute(
            paper_graph.normalized, damping=0.5, epsilon=1e-2
        )
        assert coarse.nnz <= fine.nnz

    def test_unknown_method(self, line_graph):
        with pytest.raises(ValueError, match="method"):
            PPRBasis.compute(line_graph.normalized, 0.5, method="magic")

    def test_combine_validates_shape(self, line_graph):
        basis = PPRBasis.compute(line_graph.normalized, damping=0.5)
        with pytest.raises(ValueError, match="shape"):
            basis.combine(np.zeros(3))

    def test_auto_uses_batch_for_small_graphs(self, line_graph):
        basis = PPRBasis.compute(
            line_graph.normalized, damping=0.5, method="auto"
        )
        assert basis.num_tasks == 5


def same_bits(a, b):
    return (
        np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.indices, b.indices)
        and a.data.tobytes() == b.data.tobytes()
    )


#: (tasks, groups, degree, isolated): below, at and just above the
#: minimum block, one component, many small components, and components
#: larger than the minimum block
BLOCK_SHAPES = [
    (60, 3, 3, 5),
    (128, 4, 3, 10),
    (129, 4, 3, 10),
    (300, 1, 4, 0),
    (400, 40, 2, 30),
    (700, 5, 6, 20),
]


class TestBlockBatch:
    """``method="batch"`` iterates blocks of whole components in
    lock-step; the basis is the whole-graph iteration's, bit for bit."""

    @pytest.mark.parametrize("epsilon", [0.0, 1e-6])
    @pytest.mark.parametrize("shape", BLOCK_SHAPES)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_dense_iteration(self, shape, epsilon, seed):
        graph = clustered_graph(*shape, seed=seed)
        expected = dense_batch_basis(graph.normalized, 0.5, epsilon)
        basis = PPRBasis.compute(
            graph.normalized, damping=0.5, epsilon=epsilon, method="batch"
        )
        assert same_bits(basis.matrix, expected)
        assert basis.matrix.indices.dtype == expected.indices.dtype

    @pytest.mark.parametrize("max_iter", [1, 3])
    def test_unconverged_blocks_stop_together(self, max_iter):
        graph = clustered_graph(400, 6, 3, 12, seed=4)
        expected = dense_batch_basis(
            graph.normalized, 0.8, 1e-6, max_iter=max_iter
        )
        basis = PPRBasis.compute(
            graph.normalized, damping=0.8, method="batch",
            max_iter=max_iter,
        )
        assert same_bits(basis.matrix, expected)

    def test_blocks_pack_whole_components(self):
        graph = clustered_graph(700, 30, 2, 40, seed=2)
        blocks = component_blocks(graph.normalized, 128)
        components = graph.connected_components()
        assert np.array_equal(
            np.sort(np.concatenate(blocks)), np.arange(700)
        )
        for block in blocks:
            assert np.array_equal(block, np.sort(block))
            members = set(block.tolist())
            inside = [c for c in components if c & members]
            assert all(c <= members for c in inside)
            assert block.size <= 128 or len(inside) == 1
        # no two neighbouring blocks would fit in one
        sizes = [block.size for block in blocks]
        assert all(a + b > 128 for a, b in zip(sizes, sizes[1:]))

    def test_small_graph_is_one_block_without_labelling(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("labelled a graph of one block")

        monkeypatch.setattr(ppr, "component_labels", refuse)
        graph = clustered_graph(PPRBasis.MIN_BLOCK, 4, 3, 10, seed=0)
        blocks = component_blocks(graph.normalized, PPRBasis.MIN_BLOCK)
        assert len(blocks) == 1
        assert np.array_equal(blocks[0], np.arange(PPRBasis.MIN_BLOCK))
        PPRBasis.compute(graph.normalized, damping=0.5, method="auto")


class TestAutoMethod:
    """``method="auto"`` takes batch when its largest block fits under
    ``AUTO_BATCH_LIMIT``, whatever |T| is, and push otherwise."""

    def methods(self, graph):
        normalized = graph.normalized
        auto, batch, push = (
            PPRBasis.compute(
                normalized, damping=0.5, method=method, num_workers=1
            ).matrix
            for method in ("auto", "batch", "push")
        )
        assert not same_bits(batch, push)
        return auto, batch, push

    def test_batch_on_a_large_graph_of_small_components(self, monkeypatch):
        monkeypatch.setattr(PPRBasis, "AUTO_BATCH_LIMIT", 200)
        graph = clustered_graph(600, 12, 4, 10, seed=3)
        assert max(map(len, graph.connected_components())) <= 200
        auto, batch, _ = self.methods(graph)
        assert same_bits(auto, batch)

    def test_push_when_a_component_exceeds_the_limit(self, monkeypatch):
        monkeypatch.setattr(PPRBasis, "AUTO_BATCH_LIMIT", 200)
        graph = clustered_graph(600, 2, 4, 0, seed=3)
        assert max(map(len, graph.connected_components())) > 200
        auto, _, push = self.methods(graph)
        assert same_bits(auto, push)


class TestCombineMatchesRowLoop:
    """The dict path of ``combine`` returns the per-row loop's floats,
    bit for bit: each column's products added left to right, in dict
    order, zero weights skipped."""

    @staticmethod
    def random_basis(seed, n=60, empty_rows=10):
        """A CSR basis with random rows, ``empty_rows`` of them with no
        stored entries."""
        rng = np.random.default_rng([seed, 3])
        dense = rng.uniform(size=(n, n)) * (rng.uniform(size=(n, n)) < 0.2)
        dense[rng.choice(n, size=empty_rows, replace=False)] = 0.0
        return PPRBasis(sparse.csr_matrix(dense))

    @staticmethod
    def assert_bit_equal(basis, q):
        got = basis.combine(q)
        want = combine_rows(basis, q)
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", range(8))
    def test_random_dicts(self, seed):
        basis = self.random_basis(seed)
        rng = np.random.default_rng([seed, 4])
        for size in (1, 2, 7, 30, 60):
            keys = rng.choice(basis.num_tasks, size=size, replace=False)
            weights = rng.uniform(size=size)
            weights[rng.uniform(size=size) < 0.2] = 0.0
            self.assert_bit_equal(
                basis, dict(zip(keys.tolist(), weights.tolist()))
            )
            # unit-weight support, as the support-mass memo builds it
            self.assert_bit_equal(basis, dict.fromkeys(keys.tolist(), 1.0))

    def test_edge_dicts(self):
        basis = self.random_basis(0)
        empty = [
            t for t in range(basis.num_tasks)
            if basis._row_slice(t)[0].size == 0
        ]
        assert empty
        for q in (
            {},
            {5: 0.5},
            {5: 0.0},
            {5: -0.0, 6: 0.0},
            {empty[0]: 0.7},
            {empty[0]: 0.7, 3: 0.2, empty[1]: 1.0},
            {3: 0.2, 4: 0.0, 2: 1.0},
        ):
            self.assert_bit_equal(basis, q)

    def test_real_basis(self, paper_graph):
        basis = PPRBasis.compute(paper_graph.normalized, damping=0.5)
        rng = np.random.default_rng(8)
        for _ in range(20):
            keys = rng.choice(paper_graph.num_tasks, size=5, replace=False)
            q = dict(zip(keys.tolist(), rng.uniform(size=5).tolist()))
            self.assert_bit_equal(basis, q)

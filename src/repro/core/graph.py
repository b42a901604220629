"""Microtask similarity graph (Section 3).

A similarity graph ``G = (T, E)`` is a weighted undirected graph over
microtasks; an edge ``e_ij`` with weight ``s_ij`` records that ``t_i``
and ``t_j`` are similar.  The estimator consumes the symmetric
normalisation ``S' = D^{-1/2} S D^{-1/2}`` where ``D_ii = Σ_j s_ij``
(Section 3.1).

The graph is stored sparsely (CSR) so that the Figure 10 scalability
experiment — millions of tasks with a bounded neighbour count — stays
memory-feasible.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np
from scipy import sparse

from repro.core.config import GraphConfig
from repro.core.similarity import compute_similarity
from repro.core.types import Task, TaskId


class SimilarityGraph:
    """Sparse weighted similarity graph with its normalised matrix.

    Construct directly from a dense similarity matrix via
    :meth:`from_matrix`, from tasks + config via :meth:`from_tasks`, or
    from an explicit edge list via :meth:`from_edges` (used by the
    random-graph scalability workload).
    """

    def __init__(self, matrix: sparse.csr_matrix) -> None:
        if matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"similarity matrix must be square, got {matrix.shape}")
        diff = abs(matrix - matrix.T)
        if diff.nnz and diff.max() > 1e-9:
            raise ValueError("similarity matrix must be symmetric")
        if matrix.nnz and matrix.data.min() < 0:
            raise ValueError("similarities must be non-negative")
        matrix = matrix.copy()
        matrix.setdiag(0.0)
        matrix.eliminate_zeros()
        self._matrix: sparse.csr_matrix = matrix.tocsr()
        self._normalized: sparse.csr_matrix | None = None
        self._adjacency: list[list[tuple[TaskId, float]]] | None = None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_matrix(
        cls,
        similarity: np.ndarray,
        threshold: float = 0.0,
        max_neighbors: int = 0,
    ) -> "SimilarityGraph":
        """Build a graph by thresholding a dense similarity matrix.

        Entries strictly below ``threshold`` are dropped (the paper keeps
        pairs whose similarity is "not smaller than" the threshold).
        When ``max_neighbors > 0`` each node keeps only its strongest
        ``max_neighbors`` edges (then the union is re-symmetrised) —
        this is Figure 10's neighbour bound.
        """
        sim = np.array(similarity, dtype=np.float64, copy=True)
        if sim.ndim != 2 or sim.shape[0] != sim.shape[1]:
            raise ValueError("similarity must be a square 2-D array")
        np.fill_diagonal(sim, 0.0)
        if threshold > 0:
            sim[sim < threshold] = 0.0
        if max_neighbors > 0:
            keep = np.zeros_like(sim, dtype=bool)
            n = sim.shape[0]
            for i in range(n):
                row = sim[i]
                nnz = np.flatnonzero(row)
                if len(nnz) > max_neighbors:
                    top = nnz[np.argsort(row[nnz])[::-1][:max_neighbors]]
                else:
                    top = nnz
                keep[i, top] = True
            keep |= keep.T  # keep an edge if either endpoint ranked it
            sim[~keep] = 0.0
        return cls(sparse.csr_matrix(sim))

    @classmethod
    def from_tasks(
        cls, tasks: Sequence[Task], config: GraphConfig, seed: int = 0
    ) -> "SimilarityGraph":
        """Compute similarities per ``config`` and threshold them."""
        sim = compute_similarity(
            tasks,
            measure=config.measure,
            num_topics=config.num_topics,
            seed=seed,
        )
        return cls.from_matrix(
            sim,
            threshold=config.threshold,
            max_neighbors=config.max_neighbors,
        )

    @classmethod
    def from_edges(
        cls,
        num_tasks: int,
        edges: Iterable[tuple[TaskId, TaskId, float]],
    ) -> "SimilarityGraph":
        """Build from an explicit undirected weighted edge list."""
        rows: list[int] = []
        cols: list[int] = []
        data: list[float] = []
        for i, j, weight in edges:
            if i == j:
                continue
            if not 0 <= i < num_tasks or not 0 <= j < num_tasks:
                raise ValueError(f"edge ({i}, {j}) out of range")
            if weight <= 0:
                raise ValueError(f"edge weight must be positive, got {weight}")
            rows.extend((i, j))
            cols.extend((j, i))
            data.extend((weight, weight))
        matrix = sparse.csr_matrix(
            (data, (rows, cols)), shape=(num_tasks, num_tasks)
        )
        # duplicate edges sum under COO→CSR conversion; rescale to the max
        matrix.sum_duplicates()
        return cls(matrix)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def num_tasks(self) -> int:
        return self._matrix.shape[0]

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return self._matrix.nnz // 2

    @property
    def matrix(self) -> sparse.csr_matrix:
        """Raw symmetric similarity matrix ``S`` (zero diagonal)."""
        return self._matrix

    @property
    def normalized(self) -> sparse.csr_matrix:
        """Symmetric normalisation ``S' = D^{-1/2} S D^{-1/2}``.

        Isolated nodes (zero degree) keep all-zero rows: the estimator's
        restart term alone determines their accuracy, which matches the
        paper's intent that estimation cannot propagate to disconnected
        tasks.
        """
        if self._normalized is None:
            degrees = np.asarray(self._matrix.sum(axis=1)).ravel()
            with np.errstate(divide="ignore"):
                inv_sqrt = 1.0 / np.sqrt(degrees)
            inv_sqrt[~np.isfinite(inv_sqrt)] = 0.0
            d_inv = sparse.diags(inv_sqrt)
            self._normalized = (d_inv @ self._matrix @ d_inv).tocsr()
        return self._normalized

    def neighbors(self, task_id: TaskId) -> list[tuple[TaskId, float]]:
        """Adjacent tasks of ``task_id`` with their similarities.

        Adjacency lists are materialised once on first use; repeated
        neighbourhood lookups (the performance tester's hot path) are
        then plain list reads.
        """
        if not 0 <= task_id < self.num_tasks:
            raise ValueError(f"task id {task_id} out of range")
        if self._adjacency is None:
            indptr = self._matrix.indptr
            indices = self._matrix.indices
            data = self._matrix.data
            self._adjacency = [
                [
                    (int(indices[k]), float(data[k]))
                    for k in range(indptr[i], indptr[i + 1])
                ]
                for i in range(self.num_tasks)
            ]
        return self._adjacency[task_id]

    def degree(self, task_id: TaskId) -> float:
        """Weighted degree ``D_ii`` of a task."""
        return float(self._matrix.getrow(task_id).sum())

    def similarity(self, i: TaskId, j: TaskId) -> float:
        """Similarity ``s_ij`` (0 when no edge)."""
        return float(self._matrix[i, j])

    def connected_components(self) -> list[set[TaskId]]:
        """Connected components (useful for diagnostics and tests)."""
        n_components, labels = sparse.csgraph.connected_components(
            self._matrix, directed=False
        )
        components: list[set[TaskId]] = [set() for _ in range(n_components)]
        for task_id, label in enumerate(labels):
            components[label].add(task_id)
        return components

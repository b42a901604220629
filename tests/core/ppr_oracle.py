"""Reference batch basis the block iteration is checked against.

:func:`dense_batch_basis` is ``PPRBasis.compute(method="batch")`` as it
ran before the iteration was split into blocks of connected components:
one dense n×n iterate of Eq. (4) over every unit restart.
:func:`clustered_graph` draws the graphs the two are compared on.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.core.graph import SimilarityGraph


def clustered_graph(num_tasks, groups, degree, isolated, seed):
    """Tasks drawn into ``groups`` random groups (ids interleave across
    groups), each linked to ``degree`` random members of its own group;
    ``isolated`` tasks get no edge."""
    rng = np.random.default_rng(seed)
    group = rng.integers(0, groups, num_tasks)
    group[rng.choice(num_tasks, isolated, replace=False)] = -1
    edges = []
    for g in range(groups):
        members = np.flatnonzero(group == g)
        for i in members:
            others = members[members != i]
            picks = rng.choice(others, min(degree, others.size), replace=False)
            weights = rng.uniform(0.1, 1.0, picks.size)
            edges.extend(
                (int(i), int(j), float(w)) for j, w in zip(picks, weights)
            )
    return SimilarityGraph.from_edges(num_tasks, edges)


def dense_batch_basis(normalized, damping, epsilon=1e-6, tol=1e-8, max_iter=200):
    """CSR basis (row i = ``p_{t_i}``) from the whole-graph iteration."""
    n = normalized.shape[0]
    basis = np.eye(n)
    restart = (1.0 - damping) * np.eye(n)
    for _ in range(max_iter):
        nxt = damping * (normalized @ basis) + restart
        if np.max(np.abs(nxt - basis)) < tol:
            basis = nxt
            break
        basis = nxt
    if epsilon > 0:
        basis[np.abs(basis) < epsilon] = 0.0
    # the iteration tracks columns (restart e_i per column)
    return sparse.csr_matrix(basis.T)

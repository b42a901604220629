"""Ablation — PPR solver and basis truncation (DESIGN.md §5).

Two design choices behind Algorithm 1's offline phase:

1. **Solver**: the batched dense iteration computes all basis rows at
   once and is much faster *when its dense iterate fits*.  It iterates
   blocks of whole connected components, so its iterate is O(m²) for
   the largest block of m tasks, and ``method="auto"`` uses it while
   no block exceeds ``AUTO_BATCH_LIMIT`` tasks.  The graphs here are
   connected, so each is one block of n tasks.  The localized forward
   push (vectorised ``PushKernel``) has a per-row cost that depends
   only on the neighbourhood pushed into, not on |T| — it is the only
   feasible solver for a component beyond the dense limit (a
   200k-task component as a dense iterate would need ~320 GB).
2. **Truncation ε**: larger ε stores fewer basis entries (memory) at
   the cost of estimation error; the error must grow and the memory
   shrink monotonically with ε.
"""

import time

import numpy as np
from conftest import run_once

from repro.core.ppr import PPRBasis, forward_push
from repro.experiments.figures import random_normalized_graph


def test_ablation_solver_scaling(benchmark, record):
    """Push's per-row cost stays flat as |T| grows; batch per-row cost
    grows with |T| (its iterate is n × n)."""

    def measure():
        rows = {}
        for n in (1500, 6000):
            normalized = random_normalized_graph(n, 8, seed=3)
            # push: time a fixed sample of source rows
            t0 = time.perf_counter()
            for source in range(0, 100):
                forward_push(normalized, source, damping=0.5, epsilon=1e-4)
            push_per_row = (time.perf_counter() - t0) / 100
            # batch: time the full dense iteration, amortised per row
            t0 = time.perf_counter()
            PPRBasis.compute(
                normalized, damping=0.5, epsilon=1e-4, method="batch",
                max_iter=30,
            )
            batch_per_row = (time.perf_counter() - t0) / n
            rows[n] = (push_per_row, batch_per_row)
        return rows

    rows = run_once(benchmark, measure)
    lines = ["PPR solver per-row cost (seconds)"]
    lines.append(f"{'n':<8}{'push/row':<12}{'batch/row':<12}")
    for n, (push_cost, batch_cost) in rows.items():
        lines.append(f"{n:<8}{push_cost:<12.5f}{batch_cost:<12.5f}")
    record("ablation_ppr_solver", "\n".join(lines))

    push_growth = rows[6000][0] / max(rows[1500][0], 1e-12)
    batch_growth = rows[6000][1] / max(rows[1500][1], 1e-12)
    # push is local: 4x more tasks must not cost ~4x per row
    assert push_growth < 3.0, f"push per-row cost grew {push_growth:.1f}x"
    # batch per-row cost grows with n (dense n×n iterate)
    assert batch_growth > push_growth


def test_ablation_truncation_tradeoff(benchmark, record):
    """ε controls the basis memory/accuracy trade-off monotonically."""
    normalized = random_normalized_graph(400, 8, seed=4)
    epsilons = [1e-8, 1e-3, 1e-2]

    def sweep():
        reference = PPRBasis.compute(
            normalized, damping=0.5, epsilon=0.0, method="batch"
        )
        rows = []
        rng = np.random.default_rng(0)
        q = {int(i): float(rng.random()) for i in
             rng.choice(400, size=10, replace=False)}
        exact = reference.combine(q)
        for eps in epsilons:
            basis = PPRBasis.compute(
                normalized, damping=0.5, epsilon=eps, method="batch"
            )
            error = float(np.max(np.abs(basis.combine(q) - exact)))
            rows.append((eps, basis.nnz, error))
        return rows

    rows = run_once(benchmark, sweep)
    table = ["epsilon      nnz        max combine error"]
    for eps, nnz, error in rows:
        table.append(f"{eps:<13g}{nnz:<11d}{error:.2e}")
    record("ablation_truncation", "\n".join(table))

    nnzs = [nnz for _, nnz, _ in rows]
    errors = [error for _, _, error in rows]
    assert nnzs == sorted(nnzs, reverse=True)  # memory shrinks with ε
    assert errors == sorted(errors)  # error grows with ε
    assert errors[0] < 1e-6  # tight ε ≈ exact
"""Reference Algorithm 4 the lazy selection is checked against.

:func:`select_qualification_tasks` is ``repro.core.qualification``'s
selection as it ran before lazy greedy: one dense basis row per
candidate, and every remaining candidate re-scored against the
coverage so far at each of the Q picks.
"""

from __future__ import annotations

import numpy as np


def select_qualification_tasks(basis, budget, candidates=None):
    """Greedy picks in order, each the candidate with the largest
    ``(new support, residual mass, -task id)`` key."""
    if budget <= 0:
        raise ValueError(f"budget must be positive, got {budget}")
    pool = list(candidates) if candidates is not None else list(
        range(basis.num_tasks)
    )
    rows = {t: basis.row(t) for t in pool}
    covered_mass = np.zeros(basis.num_tasks)
    selected = []
    remaining = set(pool)
    while remaining and len(selected) < budget:
        best_task = None
        best_key = None
        covered_support = covered_mass > 0
        for task_id in remaining:
            row = rows[task_id]
            new_support = int(np.count_nonzero((row != 0) & ~covered_support))
            residual = float(np.maximum(row - covered_mass, 0.0).sum())
            key = (new_support, residual, -task_id)
            if best_key is None or key > best_key:
                best_key = key
                best_task = task_id
        selected.append(best_task)
        remaining.discard(best_task)
        covered_mass = np.maximum(covered_mass, rows[best_task])
    return selected

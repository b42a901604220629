"""Reference online phase the array paths are checked against.

The per-candidate test scoring of Section 4.1 (step 3) and the
per-row Lemma 3 combination, written one item at a time.
:func:`choose_test_task` must pick the same task as
:meth:`repro.core.testing.PerformanceTester.choose_test_task`, and
:func:`combine_rows` must return the same floats, bit for bit, as the
dict path of :meth:`repro.core.ppr.PPRBasis.combine`.
"""

from __future__ import annotations

import numpy as np

from repro.core.testing import beta_variance

#: Maximum variance of a Beta(a, b) with a, b >= 1 (attained at a=b=1).
MAX_BETA_VARIANCE = 1.0 / 12.0


def uncertainty(tester, worker_id, task_id, observed=None):
    """Normalised Beta-posterior variance of the worker's observed
    accuracies over ``{task_id} ∪ neighbours(task_id)``, summed in that
    set's iteration order."""
    if observed is None:
        observed = tester.observed_of(worker_id)
    neighborhood = {task_id} | {j for j, _ in tester.graph.neighbors(task_id)}
    n_correct = 0.0
    n_total = 0.0
    for neighbor in neighborhood:
        q = observed.get(neighbor)
        if q is None:
            continue
        n_correct += q
        n_total += 1.0
    variance = beta_variance(n_correct, n_total - n_correct)
    return variance / MAX_BETA_VARIANCE


def coworker_quality(tester, task_state, accuracies):
    """Mean estimated accuracy of the workers already on the task: a
    left-to-right sum over ``assigned_workers``, divided by its size."""
    total = 0.0
    for worker_id in task_state.assigned_workers:
        vector = accuracies.get(worker_id)
        if vector is None:
            total += tester.prior_accuracy
        else:
            total += float(vector[task_state.task_id])
    if not task_state.assigned_workers:
        return 0.0
    return total / len(task_state.assigned_workers)


def score(tester, worker_id, task_state, accuracies, observed=None):
    """Combined test desirability of one candidate task."""
    w = tester.uncertainty_weight
    return w * uncertainty(
        tester, worker_id, task_state.task_id, observed=observed
    ) + (1.0 - w) * coworker_quality(tester, task_state, accuracies)


def choose_test_task(tester, worker_id, states, accuracies):
    """Score every unseen task that has a co-worker; keep the best,
    the lowest task id among equal scores."""
    best_task = None
    best_score = -1.0
    observed = tester.observed_of(worker_id)
    for state in states:
        if state.has_seen(worker_id):
            continue
        if not state.assigned_workers:
            continue
        value = score(tester, worker_id, state, accuracies, observed=observed)
        if value > best_score or (
            value == best_score
            and best_task is not None
            and state.task_id < best_task
        ):
            best_score = value
            best_task = state.task_id
    return best_task


def combine_rows(basis, q):
    """``Σ q_i · p_{t_i}`` over a dict, one basis row at a time, in dict
    order, skipping zero weights."""
    out = np.zeros(basis.num_tasks)
    for task_id, weight in q.items():
        if weight == 0.0:
            continue
        cols, vals = basis._row_slice(task_id)
        out[cols] += weight * vals
    return out

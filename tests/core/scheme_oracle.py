"""Reference scheme build the array path is checked against.

:func:`compute_top_worker_sets` builds one :class:`TopWorkerSet` per
task; :func:`heap_greedy_assign` is Algorithm 3 as a max-heap walk with
lazy invalidation over those objects; :func:`enumerate_optimal` is the
paper's enumeration of feasible schemes (Appendix D.4), the oracle for
:func:`repro.core.optimal.bitmask_optimal`.
"""

from __future__ import annotations

import heapq

from repro.core.assigner import (
    TopWorkerSet,
    compute_top_worker_sets_fast,
    greedy_assign,
)
from repro.core.optimal import _validate


def compute_top_worker_set(state, active_workers, accuracies):
    """Build Ŵ(t_i) for one task, or None when nothing can be assigned."""
    if state.completed or state.remaining == 0:
        return None
    # W^u(t_i): the active workers not already on this task
    eligible = [w for w in active_workers if not state.has_seen(w)]
    if not eligible:
        return None
    scored = sorted(
        ((w, float(accuracies[w][state.task_id])) for w in eligible),
        key=lambda pair: (-pair[1], pair[0]),
    )
    return TopWorkerSet(
        task_id=state.task_id,
        workers=tuple(scored[: state.remaining]),
    )


def compute_top_worker_sets(states, active_workers, accuracies):
    """Algorithm 2, step 1: top worker sets for all uncompleted tasks,
    one task at a time, in the order of ``states``."""
    sets = []
    for state in states:
        top = compute_top_worker_set(state, active_workers, accuracies)
        if top is not None and top.workers:
            sets.append(top)
    return sets


def enumerate_optimal(candidates):
    """Exhaustive search for the optimal scheme with B&B pruning.

    Candidates are sorted by descending value; at each node the residual
    upper bound (sum of remaining candidate values, ignoring conflicts)
    prunes branches that cannot beat the incumbent.  Returns the
    objective value and one optimal scheme (possibly empty).
    """
    cands = sorted(
        _validate(candidates),
        key=lambda c: (-c.sum_accuracy, c.task_id),
    )
    n = len(cands)
    # suffix_bound[i] = sum of values of candidates i..n-1
    suffix_bound = [0.0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_bound[i] = suffix_bound[i + 1] + cands[i].sum_accuracy

    best_value = 0.0
    best_scheme: list[TopWorkerSet] = []
    chosen: list[TopWorkerSet] = []

    def dfs(index, used, value):
        nonlocal best_value, best_scheme
        if value > best_value:
            best_value = value
            best_scheme = list(chosen)
        if index >= n or value + suffix_bound[index] <= best_value:
            return
        candidate = cands[index]
        if not (candidate.worker_ids & used):
            chosen.append(candidate)
            dfs(
                index + 1,
                used | candidate.worker_ids,
                value + candidate.sum_accuracy,
            )
            chosen.pop()
        dfs(index + 1, used, value)

    dfs(0, frozenset(), 0.0)
    return best_value, best_scheme


def heap_greedy_assign(candidates):
    """Pop candidates by ``(-avg_accuracy, task_id)``; keep each one
    whose workers are all still free."""
    heap = [(-c.avg_accuracy, c.task_id, c) for c in candidates if c.workers]
    heapq.heapify(heap)
    used = set()
    scheme: list[TopWorkerSet] = []
    while heap:
        _, _, candidate = heapq.heappop(heap)
        if candidate.worker_ids & used:
            continue  # overlaps an earlier selection
        scheme.append(candidate)
        used |= candidate.worker_ids
    return scheme


def as_bits(sets):
    """Candidates with every accuracy as its type and exact bit
    pattern (``-0.0`` and ``0.0`` differ here, unlike under ``==``)."""
    return [
        (
            type(c.task_id),
            c.task_id,
            tuple((w, type(p), float(p).hex()) for w, p in c.workers),
        )
        for c in sets
    ]


def assert_scheme_matches_reference(states, active_workers, accuracies):
    """The array build's top sets and scheme equal the reference top
    sets and the heap walk, element by element, floats bit-equal; a
    plain candidate list takes the same walk.  The array build emits
    its candidates in ascending task id order, the reference in the
    order of ``states``."""
    fast = compute_top_worker_sets_fast(states, active_workers, accuracies)
    slow = compute_top_worker_sets(states, active_workers, accuracies)
    assert as_bits(fast.top_set(i) for i in range(len(fast))) == as_bits(
        sorted(slow, key=lambda c: c.task_id)
    )
    oracle = as_bits(heap_greedy_assign(slow))
    assert as_bits(greedy_assign(fast)) == oracle
    assert as_bits(greedy_assign(slow)) == oracle

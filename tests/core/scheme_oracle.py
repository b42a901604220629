"""Reference scheme build the array path is checked against.

:func:`repro.core.assigner.compute_top_worker_sets` builds one
:class:`TopWorkerSet` per task; :func:`heap_greedy_assign` is Algorithm
3 as a max-heap walk with lazy invalidation over those objects.
"""

from __future__ import annotations

import heapq

from repro.core.assigner import (
    TopWorkerSet,
    compute_top_worker_sets,
    compute_top_worker_sets_fast,
    greedy_assign,
)


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

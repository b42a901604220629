"""Exact optimal microtask assignment (Definition 4; Appendix D.4).

The optimal assignment problem — pick a subset of ⟨task, top-worker-set⟩
candidates with pairwise-disjoint worker sets maximising the summed
worker accuracy — is NP-hard (Lemma 4: reduction from weighted k-set
packing).  The paper's Appendix D.4 compares the greedy Algorithm 3
against an enumeration-based optimum for small active-worker counts
(3–7 workers) and reports < 2% approximation error.

:func:`bitmask_optimal` finds that optimum by dynamic programming over
worker subsets, exact and fast whenever the active worker pool is small
(≤ ~20), which is exactly the regime of Appendix D.4.  The paper's
enumeration is kept in the tests as the oracle it is checked against.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.assigner import TopWorkerSet, scheme_value


def _validate(candidates: Sequence[TopWorkerSet]) -> list[TopWorkerSet]:
    out = [c for c in candidates if c.workers]
    for candidate in out:
        if len(candidate.worker_ids) != len(candidate.workers):
            raise ValueError(
                f"candidate for task {candidate.task_id} repeats a worker"
            )
    return out


def bitmask_optimal(
    candidates: Sequence[TopWorkerSet],
) -> tuple[float, list[TopWorkerSet]]:
    """Exact DP over worker subsets.

    State = set of busy workers (bitmask); for each candidate either
    skip it or, when its workers are free, take it.  Complexity
    O(|candidates| · 2^|workers|) — exact and practical for the small
    active pools of Appendix D.4.
    """
    cands = _validate(candidates)
    workers = sorted({w for c in cands for w in c.worker_ids})
    if len(workers) > 24:
        raise ValueError(
            f"bitmask solver supports ≤ 24 distinct workers, got "
            f"{len(workers)}"
        )
    index_of = {w: i for i, w in enumerate(workers)}
    masks = [
        sum(1 << index_of[w] for w in c.worker_ids) for c in cands
    ]

    # best[mask] = (value, chosen candidate indices) reachable with the
    # exact busy-set `mask`
    best: dict[int, tuple[float, tuple[int, ...]]] = {0: (0.0, ())}
    for idx, (candidate, mask) in enumerate(zip(cands, masks)):
        updates: dict[int, tuple[float, tuple[int, ...]]] = {}
        for busy, (value, picks) in best.items():
            if busy & mask:
                continue
            new_busy = busy | mask
            new_value = value + candidate.sum_accuracy
            incumbent = best.get(new_busy, updates.get(new_busy))
            if incumbent is None or new_value > incumbent[0]:
                updates[new_busy] = (new_value, picks + (idx,))
        for busy, entry in updates.items():
            incumbent = best.get(busy)
            if incumbent is None or entry[0] > incumbent[0]:
                best[busy] = entry

    value, picks = max(best.values(), key=lambda entry: entry[0])
    return value, [cands[i] for i in picks]


def approximation_error(
    candidates: Sequence[TopWorkerSet],
    greedy_scheme: Sequence[TopWorkerSet],
) -> float:
    """Appendix D.4's error metric ``(OPT − APP) / OPT × 100%``.

    ``OPT`` comes from :func:`bitmask_optimal`.  Returns 0 when the
    optimum is zero (empty instance).
    """
    opt, _ = bitmask_optimal(candidates)
    app = scheme_value(greedy_scheme)
    if opt <= 0:
        return 0.0
    return (opt - app) / opt * 100.0

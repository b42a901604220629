"""Index structures for large-scale assignment (Section 6.5 / Figure 10).

The paper's efficiency experiment inserts 0.2M microtasks at a time (up
to 1M) with a bounded neighbour count per task and reports sub-linear
growth of assignment time, crediting "effective index structures".  The
key to sub-linearity is that per-request work must depend on the *local*
neighbourhood a worker's evidence reaches — never on |T|:

- worker accuracy estimates are kept **sparse**: a dict over the support
  of the forward-push PPR combination (everything else sits at the
  prior),
- each worker carries a lazy max-heap over her support, so "best task
  for this worker" pops in O(log |support|),
- tasks at the prior (no evidence either way) are served from a shared
  frontier stack, O(1) amortised.

:class:`ScalableAssigner` packages these indexes behind the same
request/answer interaction the full framework uses, trading the global
greedy scheme for the indexed per-worker argmax — the regime the paper's
scalability simulation measures.
"""

from __future__ import annotations

import heapq
from collections.abc import Container, Mapping

from scipy import sparse

from repro.core.ppr import PushKernel
from repro.core.types import TaskId, WorkerId


class SparseEstimateIndex:
    """Per-worker sparse accuracy estimate with a lazy max-heap.

    The estimate is the forward-push PPR combination of the worker's
    observed accuracies; coordinates outside the support are implicitly
    at ``prior``.
    """

    def __init__(self, prior: float = 0.5) -> None:
        self.prior = prior
        self._values: dict[TaskId, float] = {}
        self._heap: list[tuple[float, TaskId]] = []

    def update(self, values: Mapping[TaskId, float]) -> None:
        """Merge new estimate entries (heap entries are lazily refreshed)."""
        for task_id, value in values.items():
            self._values[task_id] = value
            heapq.heappush(self._heap, (-value, task_id))

    def value(self, task_id: TaskId) -> float:
        """Current estimate for a task (prior when unobserved)."""
        return self._values.get(task_id, self.prior)

    def observed(self, task_id: TaskId) -> bool:
        """True when the task has an explicit estimate entry (i.e. is
        inside the support rather than implicitly at ``prior``)."""
        return task_id in self._values

    def __contains__(self, task_id: TaskId) -> bool:
        return self.observed(task_id)

    @property
    def support_size(self) -> int:
        return len(self._values)

    def pop_best(self, excluded: Container[TaskId]) -> TaskId | None:
        """Highest-estimate task not in ``excluded`` (lazy deletion).

        Stale heap entries (superseded values or excluded tasks) are
        discarded on the way; each entry is popped at most once, so the
        amortised cost is O(log |support|).
        """
        while self._heap:
            neg_value, task_id = heapq.heappop(self._heap)
            if task_id in excluded:
                continue
            if self._values.get(task_id) != -neg_value:
                continue  # superseded by an update
            return task_id
        return None

    def restore(self, task_id: TaskId) -> None:
        """Re-push a task consumed by :meth:`pop_best` but not served.

        An assigner that pops the best entry and then decides to serve
        something else (e.g. a frontier candidate) must put the entry
        back, or the task could never again be reached by estimate
        order.  No-op for tasks outside the support; duplicate pushes
        are harmless under lazy deletion.
        """
        value = self._values.get(task_id)
        if value is not None:
            heapq.heappush(self._heap, (-value, task_id))


class ScalableAssigner:
    """Indexed assignment for the Figure 10 scalability regime.

    Parameters
    ----------
    normalized:
        ``S'`` of the (large) similarity graph, CSR.
    damping:
        PPR follow probability ``1/(1+alpha)``.
    k:
        Assignment size per task.
    prior:
        Accuracy prior for unobserved coordinates.
    push_epsilon:
        Forward-push truncation; bounds per-observation work by the
        neighbourhood actually reached.
    """

    def __init__(
        self,
        normalized: sparse.csr_matrix,
        damping: float,
        k: int = 3,
        prior: float = 0.5,
        push_epsilon: float = 1e-4,
        neighborhood_only: bool = True,
    ) -> None:
        if k <= 0:
            raise ValueError("k must be positive")
        self.normalized = normalized
        self.damping = damping
        self.k = k
        self.prior = prior
        self.push_epsilon = push_epsilon
        #: Section 6.5 bounds "the maximal number of neighbours which
        #: can be influenced by a microtask in our accuracy inference":
        #: an observation updates the task itself and its direct
        #: neighbours only (one Neumann term), making per-observation
        #: work O(degree) — exactly the neighbour bound of Figure 10.
        #: Set False for the full localized push.
        self.neighborhood_only = neighborhood_only
        self.num_tasks = normalized.shape[0]
        self._indexes: dict[WorkerId, SparseEstimateIndex] = {}
        self._seen: dict[WorkerId, set[TaskId]] = {}
        self._votes: dict[TaskId, int] = {}
        self._completed: set[TaskId] = set()
        # frontier of prior-valued tasks, served LIFO
        self._frontier: list[TaskId] = list(range(self.num_tasks - 1, -1, -1))
        self._basis_cache: dict[TaskId, dict[TaskId, float]] = {}
        # shared flat-array push workspace: localized pushes for
        # different observed tasks reuse one set of dense buffers
        self._push_kernel: PushKernel | None = None

    # ------------------------------------------------------------------
    def _index_of(self, worker_id: WorkerId) -> SparseEstimateIndex:
        index = self._indexes.get(worker_id)
        if index is None:
            index = SparseEstimateIndex(prior=self.prior)
            self._indexes[worker_id] = index
        return index

    def observe(
        self, worker_id: WorkerId, task_id: TaskId, observed: float
    ) -> None:
        """Fold one observed accuracy into the worker's sparse estimate.

        Runs (or reuses) the localized PPR push from ``task_id`` and adds
        the ``observed``-weighted basis row into the worker's index —
        Lemma 3's linearity, restricted to the touched support.
        """
        basis_row = self._basis_cache.get(task_id)
        if basis_row is None:
            if self.neighborhood_only:
                basis_row = self._one_hop_row(task_id)
            else:
                if self._push_kernel is None:
                    self._push_kernel = PushKernel(self.normalized)
                nodes, values, _ = self._push_kernel.push(
                    task_id, self.damping, epsilon=self.push_epsilon
                )
                basis_row = {
                    int(node): float(value)
                    for node, value in zip(nodes.tolist(), values.tolist())
                }
            self._basis_cache[task_id] = basis_row
        index = self._index_of(worker_id)
        mass = self._mass_cache(task_id)
        updates: dict[TaskId, float] = {}
        for neighbor, value in basis_row.items():
            m = mass.get(neighbor, 0.0)
            if m <= 0:
                continue
            evidence = observed * value / m
            weight = min(m, 1.0)
            blended = weight * evidence + (1.0 - weight) * self.prior
            prev = index.value(neighbor)
            # average with any existing evidence (cheap online merge)
            if index.observed(neighbor):
                blended = 0.5 * (prev + blended)
            updates[neighbor] = min(max(blended, 0.0), 1.0)
        index.update(updates)

    def _one_hop_row(self, task_id: TaskId) -> dict[TaskId, float]:
        """Two-term Neumann truncation of the basis row.

        ``p ≈ (1-c)·e_s + c(1-c)·S' e_s`` — the observation influences
        the task itself plus its direct neighbours, bounding work by
        the configured neighbour count.
        """
        c = self.damping
        indptr = self.normalized.indptr
        indices = self.normalized.indices
        data = self.normalized.data
        row: dict[TaskId, float] = {task_id: 1.0 - c}
        start, end = indptr[task_id], indptr[task_id + 1]
        for idx in range(start, end):
            neighbor = int(indices[idx])
            value = c * (1.0 - c) * float(data[idx])
            if neighbor == task_id:
                row[task_id] += value
            else:
                row[neighbor] = row.get(neighbor, 0.0) + value
        return row

    def _mass_cache(self, task_id: TaskId) -> dict[TaskId, float]:
        # for a single observation the mass equals the basis row itself
        return self._basis_cache[task_id]

    # ------------------------------------------------------------------
    def request(self, worker_id: WorkerId) -> TaskId | None:
        """Serve the worker her best available task.

        Prefers the highest entry of her sparse estimate; falls back to
        the shared frontier of unevidenced tasks.  O(log |support|) —
        independent of |T|.
        """
        seen = self._seen.setdefault(worker_id, set())
        index = self._index_of(worker_id)
        excluded = seen | self._completed
        best = index.pop_best(excluded)
        if best is not None and index.value(best) > self.prior:
            seen.add(best)
            return best
        # fall back to the frontier (skipping completed/seen lazily)
        while self._frontier:
            candidate = self._frontier.pop()
            if candidate in self._completed or candidate in seen:
                continue
            if best is not None:
                # serving a frontier candidate instead: re-push the
                # heap entry pop_best consumed, or the task could
                # never again be served by estimate order
                index.restore(best)
            seen.add(candidate)
            return candidate
        if best is not None:
            seen.add(best)
            return best
        return None

    def answer(
        self, worker_id: WorkerId, task_id: TaskId, observed: float
    ) -> None:
        """Record an answer: vote count, completion, estimate update."""
        votes = self._votes.get(task_id, 0) + 1
        self._votes[task_id] = votes
        if votes >= self.k:
            self._completed.add(task_id)
        self.observe(worker_id, task_id, observed)

    @property
    def num_completed(self) -> int:
        return len(self._completed)

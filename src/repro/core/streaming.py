"""Section 6.5: indexed assignment over a growing or a frozen task graph.

The paper's scalability experiment does not build a 1M-task graph up
front: "Initially, the entire microtask set was empty.  We inserted 0.2
million microtasks at each time and ran iCrowd to evaluate the
efficiency."  That protocol needs a graph that *grows*:

- :class:`GrowableGraph` — adjacency-dict similarity graph with O(1)
  task insertion, O(degree) edge insertion, and on-demand symmetric
  normalisation rows (``s_ij / sqrt(d_i d_j)``) — no global rebuild;
- :class:`FrozenGraph` — a settled ``S'`` kept as CSR, read row by row
  (Figure 10's pre-built sweep);
- :class:`StreamingAssigner` — per-worker sparse estimate indexes
  (:mod:`repro.core.indexes`), a shared frontier of tasks without
  evidence, and one-hop estimate updates, reading rows of ``S'`` from
  either graph; :meth:`StreamingAssigner.insert_tasks` feeds new
  batches of a :class:`GrowableGraph` into the live frontier.

Per-request work stays neighbourhood-bounded, so assignment time is
flat in |T| and across insertion rounds — the Figure 10 shape.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import TYPE_CHECKING

from repro.core.indexes import SparseEstimateIndex
from repro.core.types import TaskId, WorkerId

if TYPE_CHECKING:
    from scipy import sparse


class GrowableGraph:
    """A similarity graph that supports incremental growth.

    Stores adjacency as one dict per task; the symmetric-normalised row
    needed by the estimation update is computed on demand from current
    degrees, so inserting tasks or edges never rebuilds anything.
    """

    def __init__(self) -> None:
        self._adjacency: list[dict[TaskId, float]] = []
        self._degree: list[float] = []

    @property
    def num_tasks(self) -> int:
        return len(self._adjacency)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return sum(len(adj) for adj in self._adjacency) // 2

    def add_tasks(self, count: int) -> range:
        """Append ``count`` isolated tasks; returns their id range.

        ``count == 0`` is a valid (empty) batch — edge-only insertion
        rounds between existing tasks pass zero here.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        start = self.num_tasks
        for _ in range(count):
            self._adjacency.append({})
            self._degree.append(0.0)
        return range(start, start + count)

    def add_edge(self, i: TaskId, j: TaskId, weight: float) -> None:
        """Insert (or overwrite) the undirected edge ``{i, j}``."""
        n = self.num_tasks
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i}, {j}) out of range (n={n})")
        if i == j:
            raise ValueError("self-loops are not allowed")
        if weight <= 0:
            raise ValueError(f"weight must be positive, got {weight}")
        previous = self._adjacency[i].get(j, 0.0)
        self._adjacency[i][j] = weight
        self._adjacency[j][i] = weight
        self._degree[i] += weight - previous
        self._degree[j] += weight - previous

    def neighbors(self, task_id: TaskId) -> dict[TaskId, float]:
        """Adjacency dict of a task (live view; do not mutate)."""
        return self._adjacency[task_id]

    def degree(self, task_id: TaskId) -> float:
        """Weighted degree ``D_ii``."""
        return self._degree[task_id]

    def normalized_row(self, task_id: TaskId) -> dict[TaskId, float]:
        """Row of ``S' = D^{-1/2} S D^{-1/2}`` under *current* degrees."""
        d_i = self._degree[task_id]
        if d_i <= 0:
            return {}
        out: dict[TaskId, float] = {}
        for j, weight in self._adjacency[task_id].items():
            d_j = self._degree[j]
            if d_j > 0:
                out[j] = weight / (d_i * d_j) ** 0.5
        return out


class FrozenGraph:
    """A settled ``S'`` kept as CSR, read one row at a time.

    Offers what :class:`StreamingAssigner` reads of a
    :class:`GrowableGraph` — ``num_tasks`` and :meth:`normalized_row` —
    without turning the matrix into per-row dicts, which at 200k tasks
    and 40 neighbours would double the peak memory of the Figure 10
    sweep.  The matrix must hold no duplicate entries.
    """

    def __init__(self, normalized: sparse.csr_matrix) -> None:
        self.num_tasks: int = normalized.shape[0]
        self._indptr = normalized.indptr
        self._indices = normalized.indices
        self._data = normalized.data

    def normalized_row(self, task_id: TaskId) -> dict[TaskId, float]:
        """Row ``task_id`` of ``S'`` as ``{neighbour: value}``."""
        start, end = self._indptr[task_id], self._indptr[task_id + 1]
        return dict(
            zip(
                self._indices[start:end].tolist(),
                self._data[start:end].tolist(),
            )
        )


class StreamingAssigner:
    """Indexed assignment for the Section 6.5 regime.

    Each worker's estimates live in a :class:`SparseEstimateIndex`
    over the tasks her observations reached; tasks without evidence
    are served from a shared frontier until they have ``k`` servings.
    An observation updates the task and its direct neighbours (the
    paper's bounded-neighbour inference), read from the graph's
    current rows of ``S'``, so edges inserted into a
    :class:`GrowableGraph` take effect immediately.

    Parameters
    ----------
    graph:
        The rows of ``S'``: a live :class:`GrowableGraph`, or a
        :class:`FrozenGraph` over a CSR snapshot.
    damping:
        PPR follow probability ``1/(1+alpha)``, in (0, 1).
    k:
        Assignment size per task.
    prior:
        Accuracy prior for unobserved coordinates.
    """

    def __init__(
        self,
        graph: GrowableGraph | FrozenGraph,
        damping: float,
        k: int = 3,
        prior: float = 0.5,
    ) -> None:
        if not 0 < damping < 1:
            raise ValueError(f"damping must be in (0, 1), got {damping}")
        if k <= 0:
            raise ValueError("k must be positive")
        self.graph = graph
        self.damping = damping
        self.k = k
        self.prior = prior
        self._indexes: dict[WorkerId, SparseEstimateIndex] = {}
        self._seen: dict[WorkerId, set[TaskId]] = {}
        self._votes: dict[TaskId, int] = {}
        self._completed: set[TaskId] = set()
        self._served: dict[TaskId, int] = {}
        # The frontier is every task in id order, and each worker walks
        # it from her own cursor.  Task t is open while _next[t] == t; a
        # closed one (completed or served k times) points at a later
        # task, and path halving keeps those chains short.  The last
        # entry of _next is the end sentinel.
        self._next: list[TaskId] = list(range(graph.num_tasks + 1))
        self._cursor: dict[WorkerId, TaskId] = {}

    # ------------------------------------------------------------------
    def insert_tasks(
        self,
        count: int,
        edges: Iterable[tuple[TaskId, TaskId, float]] = (),
    ) -> range:
        """Insert a batch of tasks (and their similarity edges) live.

        New tasks join the assignment frontier immediately; edges may
        connect new tasks to each other or to existing ones.  Needs a
        :class:`GrowableGraph`.
        """
        graph = self.graph
        if not isinstance(graph, GrowableGraph):
            raise TypeError("insert_tasks needs a GrowableGraph")
        new_ids = graph.add_tasks(count)
        for i, j, weight in edges:
            graph.add_edge(i, j, weight)
        return new_ids

    # ------------------------------------------------------------------
    def _index_of(self, worker_id: WorkerId) -> SparseEstimateIndex:
        index = self._indexes.get(worker_id)
        if index is None:
            index = SparseEstimateIndex(prior=self.prior)
            self._indexes[worker_id] = index
        return index

    def _one_hop_row(self, task_id: TaskId) -> dict[TaskId, float]:
        """Two-term Neumann truncation of the task's basis row.

        ``p ≈ (1-c)·e_t + c(1-c)·S' e_t`` — the observation reaches the
        task itself plus its direct neighbours, so the work is bounded
        by the neighbour count of Figure 10.
        """
        c = self.damping
        row = {task_id: 1.0 - c}
        for j, value in self.graph.normalized_row(task_id).items():
            row[j] = row.get(j, 0.0) + c * (1.0 - c) * value
        return row

    def observe(
        self, worker_id: WorkerId, task_id: TaskId, observed: float
    ) -> None:
        """Fold one observed accuracy into the worker's sparse estimate.

        Every task the one-hop row reaches blends ``observed`` with the
        prior by its mass (capped at 1), averaged with any estimate the
        worker already has there.
        """
        index = self._index_of(worker_id)
        updates: dict[TaskId, float] = {}
        for neighbor, mass in self._one_hop_row(task_id).items():
            if mass <= 0:
                continue
            weight = min(mass, 1.0)
            blended = weight * observed + (1.0 - weight) * self.prior
            if index.observed(neighbor):
                blended = 0.5 * (index.value(neighbor) + blended)
            updates[neighbor] = min(max(blended, 0.0), 1.0)
        index.update(updates)

    def request(self, worker_id: WorkerId) -> TaskId | None:
        """Serve the worker her best available task.

        Prefers her highest estimate above the prior; falls back to the
        first open frontier task she has not seen, then to her best
        estimate at or below the prior.  Completed and already-seen
        tasks are skipped by membership tests, so the cost is
        O(log |support|) amortised — independent of |T| and of how many
        tasks completed.
        """
        seen = self._seen.setdefault(worker_id, set())
        index = self._index_of(worker_id)
        best = index.pop_best(seen, self._completed)
        if best is None or index.value(best) <= self.prior:
            candidate = self._next_frontier_task(worker_id, seen)
            if candidate is not None:
                if best is not None:
                    # re-push the heap entry pop_best consumed, or the
                    # task could never again be served by estimate order
                    index.restore(best)
                best = candidate
        if best is not None:
            seen.add(best)
            self._served[best] = self._served.get(best, 0) + 1
        return best

    def _next_frontier_task(
        self, worker_id: WorkerId, seen: set[TaskId]
    ) -> TaskId | None:
        """First open frontier task past the worker's cursor that she
        has not seen; her cursor moves past it.

        A task stays open to other workers until it completes or has
        been served ``k`` times, so a task no one's evidence reaches
        still gets its ``k`` answers.  Each worker passes each task
        once, and closed tasks are skipped along the ``_next`` chains.
        """
        nxt = self._next
        # tasks the graph gained since the last request join the end
        nxt.extend(range(len(nxt), self.graph.num_tasks + 1))
        task = self._cursor.get(worker_id, 0)
        while True:
            while nxt[task] != task:
                nxt[task] = nxt[nxt[task]]
                task = nxt[task]
            if task == len(nxt) - 1:
                self._cursor[worker_id] = task
                return None
            if task in self._completed or self._served.get(task, 0) >= self.k:
                nxt[task] = task + 1
            elif task not in seen:
                self._cursor[worker_id] = task + 1
                return task
            task += 1

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
        """Number of tasks that received ``k`` answers."""
        return len(self._completed)

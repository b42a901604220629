"""Adaptive microtask assignment (Section 4).

Implements:

- **Top worker sets** (Definition 3): for each uncompleted task, the
  ``k' = k - |W^d(t_i)|`` eligible workers with the highest estimated
  accuracies.
- **Greedy optimal assignment** (Algorithm 3): the optimal microtask
  assignment of Definition 4 is NP-hard (Lemma 4, by reduction from
  k-set packing), so candidates are picked greedily by average worker
  accuracy, discarding candidates that share workers with selections.
- **Algorithm 2** (``assign``): top-worker generation, greedy selection,
  then performance testing for idle workers.

The online scheme build works on arrays: :class:`TaskBoard` keeps the
free slots, completion flags and (worker, task) marks of every task as
arrays updated per event, the top worker sets of every open task are
ranked from them in one numpy pass (:class:`CandidateArrays`), and the
greedy walk sorts the candidates once, then after each selection
closes every later candidate that shares one of its workers.
:class:`TopWorkerSet` objects are built only for the selected
candidates.  The per-task reference build is kept in the tests
(``tests/core/scheme_oracle.py``).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.config import AssignerConfig
from repro.core.types import Assignment, TaskId, WorkerId
from repro.obs.metrics import NULL_RECORDER, Recorder

if TYPE_CHECKING:
    from repro.core.testing import PerformanceTester


@dataclass(frozen=True)
class TopWorkerSet:
    """A candidate assignment ⟨t_i, Ŵ(t_i)⟩ (Definition 3).

    ``workers`` is ordered by descending estimated accuracy and has size
    ``min(k', |eligible|)``.
    """

    task_id: TaskId
    workers: tuple[tuple[WorkerId, float], ...]

    @property
    def worker_ids(self) -> frozenset[WorkerId]:
        return frozenset(w for w, _ in self.workers)

    @property
    def sum_accuracy(self) -> float:
        """Overall accuracy ``Σ_{w∈Ŵ(t_i)} p_i^w`` (Definition 4).

        Summed left to right, as :func:`greedy_assign` sums its arrays
        (Python 3.12's ``sum`` compensates rounding, which could reorder
        near-tied candidates).
        """
        total = 0.0
        for _, p in self.workers:
            total += p
        return total

    @property
    def avg_accuracy(self) -> float:
        """Greedy selection score of Algorithm 3 (average accuracy)."""
        if not self.workers:
            return 0.0
        return self.sum_accuracy / len(self.workers)


@dataclass
class TaskState:
    """Assignment-relevant state of one task, as seen by the assigner.

    ``assigned_workers`` is ``W^d(t_i)``: workers that answered the task
    or are currently holding it (their answers count toward ``k``).
    ``tested_workers`` saw the task as a performance test; their answers
    do not count toward ``k`` but they must not see the task again.
    """

    task_id: TaskId
    k: int
    assigned_workers: set[WorkerId] = field(default_factory=set)
    tested_workers: set[WorkerId] = field(default_factory=set)
    completed: bool = False

    @property
    def remaining(self) -> int:
        """Available assignment size ``k' = k - |W^d(t_i)|``."""
        return max(0, self.k - len(self.assigned_workers))

    def has_seen(self, worker_id: WorkerId) -> bool:
        """Whether the worker already saw this task (vote or test)."""
        return (
            worker_id in self.assigned_workers
            or worker_id in self.tested_workers
        )


#: Mark bits of :attr:`TaskBoard.marks`.
HOLD = 1
TESTED = 2


class TaskBoard:
    """The task states of a job, mirrored in arrays indexed by task id.

    ``states`` keeps one :class:`TaskState` per task; the iteration
    order of its ``assigned_workers`` is the order co-worker accuracies
    are summed in.  The arrays have one entry per task id below
    ``width`` (ids without a record stay 0 / False):

    - ``free[t]``: ``k' = k - |W^d(t)|`` while ``t`` is open, else 0;
    - ``crew[t]``: ``|W^d(t)|``;
    - ``done[t]``: ``t`` is globally completed;
    - ``marks[rows[w], t]``: bit :data:`HOLD` while ``w`` is in
      ``W^d(t)``, bit :data:`TESTED` once ``w`` was tested on ``t``.
      A worker gets a row when first marked; the last row stays all
      zero and stands for every worker without one.

    ``open_count`` is the number of records not completed.  A job
    changes records only through :meth:`hold`, :meth:`test`,
    :meth:`release` and :meth:`complete`, which keep the arrays equal
    to the records.  Constructing a board from records that already
    carry workers or completions packs them as they are.
    """

    def __init__(
        self, states: Iterable[TaskState] = (), width: int | None = None
    ) -> None:
        self.states: dict[TaskId, TaskState] = {s.task_id: s for s in states}
        records = list(self.states.values())
        ids = np.array([s.task_id for s in records], dtype=np.int64)
        if width is None:
            width = int(ids.max(initial=-1)) + 1
        self.free = np.zeros(width, dtype=np.int64)
        self.crew = np.zeros(width, dtype=np.int64)
        self.done = np.zeros(width, dtype=bool)
        self.crew[ids] = [len(s.assigned_workers) for s in records]
        self.done[ids] = [s.completed for s in records]
        self.free[ids] = [0 if s.completed else s.remaining for s in records]
        self.open_count = len(records) - int(self.done.sum())
        self.rows: dict[WorkerId, int] = {}
        rows: list[int] = []
        cols: list[TaskId] = []
        bits: list[int] = []
        for s in records:
            for bit, workers in (
                (HOLD, s.assigned_workers),
                (TESTED, s.tested_workers),
            ):
                for worker_id in workers:
                    rows.append(self.rows.setdefault(worker_id, len(self.rows)))
                    cols.append(s.task_id)
                    bits.append(bit)
        self.marks = np.zeros((len(self.rows) + 1, width), dtype=np.uint8)
        np.bitwise_or.at(
            self.marks, (rows, cols), np.array(bits, dtype=np.uint8)
        )

    @staticmethod
    def of(states: TaskBoard | Sequence[TaskState]) -> TaskBoard:
        """``states`` itself when it is a board, else a board packing it."""
        return states if isinstance(states, TaskBoard) else TaskBoard(states)

    def _row(self, worker_id: WorkerId) -> int:
        """The worker's mark row; a new worker takes the spare row and a
        fresh spare is appended (so ``marks`` is a new array)."""
        row = self.rows.get(worker_id)
        if row is None:
            row = self.rows[worker_id] = len(self.rows)
            spare = np.zeros((1, self.marks.shape[1]), dtype=np.uint8)
            self.marks = np.concatenate([self.marks, spare])
        return row

    def marks_of(self, workers: Sequence[WorkerId]) -> np.ndarray:
        """Mark rows of ``workers`` (workers × tasks); a worker without a
        row gets the all-zero spare row: she has seen nothing."""
        spare = len(self.rows)
        return self.marks[[self.rows.get(w, spare) for w in workers]]

    def hold(self, worker_id: WorkerId, task_id: TaskId) -> None:
        """Add ``worker_id`` to ``W^d(task_id)`` (an issued slot or a
        counted vote); a repeat changes nothing."""
        state = self.states[task_id]
        if worker_id in state.assigned_workers:
            return
        state.assigned_workers.add(worker_id)
        row = self._row(worker_id)  # may replace self.marks: call first
        self.marks[row, task_id] |= HOLD
        self._recount(state)

    def test(self, worker_id: WorkerId, task_id: TaskId) -> None:
        """Record that ``worker_id`` saw ``task_id`` as a performance
        test; ``free`` and ``crew`` do not change."""
        state = self.states[task_id]
        if worker_id in state.tested_workers:
            return
        state.tested_workers.add(worker_id)
        row = self._row(worker_id)  # may replace self.marks: call first
        self.marks[row, task_id] |= TESTED

    def release(self, worker_id: WorkerId, task_id: TaskId) -> bool:
        """Take ``worker_id`` out of ``W^d(task_id)``, clearing only her
        hold bit.  Returns False when she was not in it."""
        state = self.states[task_id]
        if worker_id not in state.assigned_workers:
            return False
        state.assigned_workers.discard(worker_id)
        self.marks[self.rows[worker_id], task_id] &= TESTED
        self._recount(state)
        return True

    def complete(self, task_id: TaskId) -> None:
        """Mark ``task_id`` globally completed; a repeat changes nothing."""
        state = self.states[task_id]
        if state.completed:
            return
        state.completed = True
        self.done[task_id] = True
        self.free[task_id] = 0
        self.open_count -= 1

    def _recount(self, state: TaskState) -> None:
        crew = len(state.assigned_workers)
        self.crew[state.task_id] = crew
        if not state.completed:
            self.free[state.task_id] = max(0, state.k - crew)


@dataclass(frozen=True)
class CandidateArrays:
    """Top worker sets of many tasks, as arrays (Definition 3).

    Candidate ``i`` is ⟨t, Ŵ(t)⟩ for ``t = task_ids[i]``.  Its
    ``sizes[i]`` workers are ``workers[members[j, i]]`` with estimated
    accuracy ``accuracies[j, i]`` for ranks ``j < sizes[i]``, ordered by
    ``(-accuracy, worker_id)``.  Ranks from ``sizes[i]`` on hold the
    padding row ``len(workers)`` and accuracy 0.0.  Every candidate has
    at least one worker.
    """

    task_ids: np.ndarray
    workers: tuple[WorkerId, ...]
    members: np.ndarray
    accuracies: np.ndarray
    sizes: np.ndarray

    def __len__(self) -> int:
        return len(self.task_ids)

    def top_set(self, i: int) -> TopWorkerSet:
        """Candidate ``i`` as a :class:`TopWorkerSet`."""
        size = int(self.sizes[i])
        rows = self.members[:size, i].tolist()
        return TopWorkerSet(
            task_id=int(self.task_ids[i]),
            workers=tuple(
                zip(
                    [self.workers[r] for r in rows],
                    self.accuracies[:size, i].tolist(),
                )
            ),
        )

    @classmethod
    def pack(cls, candidates: Sequence[TopWorkerSet]) -> CandidateArrays:
        """Arrays holding ``candidates`` (empty ones are dropped)."""
        kept = [c for c in candidates if c.workers]
        row_of: dict[WorkerId, int] = {}
        for candidate in kept:
            for worker_id, _ in candidate.workers:
                row_of.setdefault(worker_id, len(row_of))
        width = max((len(c.workers) for c in kept), default=0)
        members = np.full((width, len(kept)), len(row_of), dtype=np.intp)
        accuracies = np.zeros((width, len(kept)))
        for i, candidate in enumerate(kept):
            for j, (worker_id, p) in enumerate(candidate.workers):
                members[j, i] = row_of[worker_id]
                accuracies[j, i] = p
        return cls(
            task_ids=np.array([c.task_id for c in kept], dtype=np.int64),
            workers=tuple(row_of),
            members=members,
            accuracies=accuracies,
            sizes=np.array([len(c.workers) for c in kept], dtype=np.int64),
        )


def compute_top_worker_sets_fast(
    states: TaskBoard | Sequence[TaskState],
    active_workers: Sequence[WorkerId],
    accuracies: Mapping[WorkerId, np.ndarray],
) -> CandidateArrays:
    """Algorithm 2, step 1: top worker sets for all uncompleted tasks.

    The active workers' mark rows, sorted by worker id, give every
    task's eligible count, and ``min(free, eligible)`` its set size.
    Over the tasks with a positive size, the seen (worker, task) pairs
    are masked out of the workers × tasks accuracy matrix, and each
    rank is filled for every task at once by an ``argmax`` over the
    rows, which returns the lowest row among equal maxima: each set is
    ordered by ``(-accuracy, worker_id)``.  Candidates come in
    ascending task id order.  A sequence of task states is packed
    into a :class:`TaskBoard` first.  Active workers must be distinct.
    """
    board = TaskBoard.of(states)
    workers = tuple(sorted(active_workers))
    seen = board.marks_of(workers) != 0
    eligible = len(workers) - np.count_nonzero(seen, axis=0)
    sizes = np.minimum(board.free, eligible)
    ids = np.flatnonzero(sizes > 0)
    if not len(ids):
        return CandidateArrays.pack([])
    sizes = sizes[ids]
    scores = np.stack([accuracies[w] for w in workers])[:, ids]
    scores = scores.astype(np.float64, copy=False)
    scores[seen[:, ids]] = -np.inf
    width = int(sizes.max())
    cols = np.arange(len(sizes))
    members = np.empty((width, len(sizes)), dtype=np.intp)
    ranked = np.empty((width, len(sizes)))
    for rank in range(width):
        best = scores.argmax(axis=0)
        members[rank] = best
        ranked[rank] = scores[best, cols]
        scores[best, cols] = -np.inf
    padding = np.arange(width)[:, None] >= sizes
    members[padding] = len(workers)
    ranked[padding] = 0.0
    return CandidateArrays(
        task_ids=ids,
        workers=workers,
        members=members,
        accuracies=ranked,
        sizes=sizes,
    )


def greedy_assign(
    candidates: CandidateArrays | Sequence[TopWorkerSet],
) -> list[TopWorkerSet]:
    """Algorithm 3: greedy approximation of optimal microtask assignment.

    Repeatedly selects the candidate with the highest average worker
    accuracy whose workers are all still free, until no candidate
    remains.  Ties break by task id for determinism.

    The candidates are sorted once by ``(-average, task_id)``; the
    average is the left-to-right sum of the ranked accuracies over the
    set size, as :attr:`TopWorkerSet.avg_accuracy` computes it.  After
    each selection, one vectorised pass per rank closes every later
    candidate that holds a taken worker, so the walk builds no worker
    sets and handles any number of workers.  A plain sequence of
    :class:`TopWorkerSet` is packed into :class:`CandidateArrays` first.
    """
    if not isinstance(candidates, CandidateArrays):
        candidates = CandidateArrays.pack(candidates)
    if not len(candidates):
        return []
    total = candidates.accuracies[0].copy()
    for rank_accuracies in candidates.accuracies[1:]:
        total += rank_accuracies
    order = np.lexsort((candidates.task_ids, -(total / candidates.sizes)))
    members = candidates.members[:, order]
    free = np.ones(len(candidates.workers) + 1, dtype=bool)
    open_ = np.ones(len(order), dtype=bool)
    scheme: list[TopWorkerSet] = []
    start = 0
    while start < len(order):
        first = start + int(np.argmax(open_[start:]))
        if not open_[first]:
            break
        scheme.append(candidates.top_set(int(order[first])))
        free[members[:, first]] = False
        free[-1] = True  # the padding row is never taken
        start = first + 1
        later = open_[start:]
        for rank_members in members[:, start:]:
            later &= free[rank_members]
    return scheme


def scheme_value(scheme: Sequence[TopWorkerSet]) -> float:
    """Objective of Definition 4: Σ over selected tasks of Σ p_i^w."""
    return sum(c.sum_accuracy for c in scheme)


@dataclass
class _RoundCache:
    """One computed greedy scheme, reused across the requests of a round.

    ``key`` is ``(epoch, frozenset(actives))`` — the scheme stays valid
    while no answer has arrived (the framework bumps the epoch on every
    state mutation) and the active worker set is unchanged.  ``served``
    tracks workers whose scheme slot was already issued: issuing a slot
    mutates task state exactly as the scheme prescribed, so the rest of
    the scheme remains consistent, but re-serving the same slot would
    hand the worker a duplicate task.
    """

    key: tuple[int, frozenset[WorkerId]]
    scheme: list[TopWorkerSet]
    by_worker: dict[WorkerId, TopWorkerSet]
    served: set[WorkerId] = field(default_factory=set)


class AdaptiveAssigner:
    """Algorithm 2: the full adaptive assignment framework.

    Combines top-worker-set generation, greedy scheme selection and
    worker performance testing (delegated to a
    :class:`repro.core.testing.PerformanceTester` supplied by the
    framework).

    The greedy scheme is worker-disjoint, so one scheme answers a whole
    *round* of per-worker requests: when the framework supplies its
    invalidation ``epoch``, the scheme is cached and every request of
    the round is served by a dictionary lookup instead of a fresh
    O(|T| log |T|) computation.  The cache is dropped when the epoch
    advances (an answer arrived), the active set changes, or a worker
    re-requests an already-issued slot.
    """

    def __init__(
        self,
        config: AssignerConfig | None = None,
        tester: "PerformanceTester | None" = None,
        recorder: Recorder = NULL_RECORDER,
    ) -> None:
        self.config = config or AssignerConfig()
        self.tester = tester
        self.recorder = recorder
        self._round_cache: _RoundCache | None = None
        #: Number of greedy scheme computations performed (tests assert
        #: amortisation: one per invalidation epoch, not one per request).
        self.scheme_computations = 0

    def _compute_scheme(
        self,
        board: TaskBoard,
        active_workers: Sequence[WorkerId],
        accuracies: Mapping[WorkerId, np.ndarray],
    ) -> list[TopWorkerSet]:
        """Shared scheme walk: top worker sets, then greedy selection."""
        self.scheme_computations += 1
        self.recorder.counter(
            "repro_assigner_scheme_builds_total",
            "Greedy assignment schemes computed from scratch.",
        ).inc()
        with self.recorder.span("assigner.scheme"):
            candidates = compute_top_worker_sets_fast(
                board, active_workers, accuracies
            )
            return greedy_assign(candidates)

    def invalidate(self) -> None:
        """Drop the cached round scheme (state changed out of band)."""
        self._round_cache = None

    def _scheme_for_round(
        self,
        board: TaskBoard,
        active_workers: Sequence[WorkerId],
        accuracies: Mapping[WorkerId, np.ndarray],
        epoch: int | None,
    ) -> _RoundCache:
        key = (epoch, frozenset(active_workers))
        if (
            epoch is not None
            and self._round_cache is not None
            and self._round_cache.key == key
        ):
            self.recorder.counter(
                "repro_assigner_round_cache_hits_total",
                "Worker requests served from the cached round scheme.",
            ).inc()
            return self._round_cache
        scheme = self._compute_scheme(board, active_workers, accuracies)
        cache = _RoundCache(
            key=key,
            scheme=scheme,
            by_worker=self._index_by_worker(scheme),
        )
        self._round_cache = cache if epoch is not None else None
        return cache

    @staticmethod
    def _index_by_worker(
        scheme: Sequence[TopWorkerSet],
    ) -> dict[WorkerId, TopWorkerSet]:
        by_worker: dict[WorkerId, TopWorkerSet] = {}
        for selected in scheme:
            for scheme_worker, _ in selected.workers:
                by_worker[scheme_worker] = selected
        return by_worker

    def assign(
        self,
        states: TaskBoard | Sequence[TaskState],
        active_workers: Sequence[WorkerId],
        accuracies: Mapping[WorkerId, np.ndarray],
    ) -> list[Assignment]:
        """Produce assignments for the current active worker set.

        Returns one :class:`Assignment` per (worker, task) pair in the
        greedy scheme, plus test assignments (``is_test=True``) for
        workers left idle when a tester is configured.  A sequence of
        task states is packed into a :class:`TaskBoard` once.
        """
        board = TaskBoard.of(states)
        scheme = self._compute_scheme(board, active_workers, accuracies)
        assignments: list[Assignment] = []
        assigned_workers: set[WorkerId] = set()
        for selected in scheme:
            for worker_id, _ in selected.workers:
                assignments.append(
                    Assignment(task_id=selected.task_id, worker_id=worker_id)
                )
                assigned_workers.add(worker_id)
        if self.tester is not None:
            for worker_id in active_workers:
                if worker_id in assigned_workers:
                    continue
                test_task = self.tester.choose_test_task(
                    worker_id, board, accuracies
                )
                if test_task is not None:
                    assignments.append(
                        Assignment(
                            task_id=test_task,
                            worker_id=worker_id,
                            is_test=True,
                        )
                    )
        return assignments

    def assign_for_worker(
        self,
        worker_id: WorkerId,
        states: TaskBoard | Sequence[TaskState],
        active_workers: Sequence[WorkerId],
        accuracies: Mapping[WorkerId, np.ndarray],
        epoch: int | None = None,
    ) -> Assignment | None:
        """Assignment for one requesting worker (the platform's unit of
        interaction — each iteration is triggered by a worker request).

        Runs the full scheme over all active workers so the requesting
        worker is only given a task for which she is part of the best
        scheme; falls back to a performance test otherwise.  When the
        caller supplies its invalidation ``epoch``, the scheme is
        computed once per (epoch, active set) round and each request is
        served from the cached scheme.  A sequence of task states is
        packed into a :class:`TaskBoard` once.
        """
        if worker_id not in active_workers:
            raise ValueError(f"worker {worker_id!r} is not active")
        board = TaskBoard.of(states)
        cache = self._scheme_for_round(
            board, active_workers, accuracies, epoch
        )
        if worker_id in cache.served:
            # the worker re-requests while still holding her scheme slot:
            # recompute against current state (she is excluded from the
            # held task, so a fresh scheme may place her elsewhere).
            self._round_cache = None
            cache = self._scheme_for_round(
                board, active_workers, accuracies, epoch
            )
        selected = cache.by_worker.get(worker_id)
        if selected is not None:
            cache.served.add(worker_id)
            return Assignment(
                task_id=selected.task_id, worker_id=worker_id
            )
        # the requester is in no selected top worker set: test her
        # performance instead (Algorithm 2, step 3) — but only her; the
        # other idle workers get their tests when they request.
        if self.tester is None:
            return None
        test_task = self.tester.choose_test_task(
            worker_id, board, accuracies
        )
        if test_task is None:
            return None
        return Assignment(task_id=test_task, worker_id=worker_id, is_test=True)

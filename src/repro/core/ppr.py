"""Personalized-PageRank solvers for the estimation model (Section 3.1).

Equation (2) of the paper is solved in closed form (Lemma 1) by

    p* = (alpha / (1 + alpha)) · (I - S'/(1 + alpha))^{-1} · q

which Equation (4) computes iteratively:

    p ← c · S' p + (1 - c) · q,      c = 1 / (1 + alpha).

Solvers provided:

- :func:`power_iteration` — the paper's iteration, vectorised over the
  sparse normalised matrix; exact up to a tolerance.
- :func:`forward_push` — a localized push solver (Andersen–Chung–Lang
  style) on flat numpy buffers (see :class:`PushKernel`); this is what
  makes per-task basis vectors affordable on the Figure 10 scalability
  workload.
- :func:`forward_push_reference` — the original dict-and-deque push,
  kept as the differential-test oracle for the vectorised kernel.

Lemma 3's linearity property is realised by :class:`PPRBasis`: the
converged vector for every unit restart ``q = e_i`` is precomputed
offline (Algorithm 1's offline phase) and the online estimate is the
``q``-weighted sum of basis rows, an O(|T|) combination.  The offline
phase can run serially (``method="push"``) or split over a process
pool (``method="parallel-push"``); both produce identical bases.

The same linearity powers **incremental maintenance** for unbounded
task streams (:meth:`PPRBasis.repair`):
when the graph gains tasks or edges, an old solution ``p`` is still a
valid *partial* solution against the new matrix — the push invariant
``p* = p + (1-c)(I - cS')^{-1} r`` holds exactly for the residual
``r = e_i - (p - c·S'p)/(1-c)``.  Seeding :meth:`PushKernel.resume`
with ``(p, r)`` and draining to the usual ``epsilon`` invariant repairs
a perturbed row at O(Δ) cost instead of a cold re-solve; rows whose
support the change never reaches keep satisfying the invariant and are
carried over untouched.
"""

from __future__ import annotations

import os
import warnings
from collections import deque
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import cast

import numpy as np
from scipy import sparse

from repro.obs.metrics import MASS_BUCKETS, NULL_RECORDER, Recorder


class ConvergenceWarning(UserWarning):
    """A solver hit its work limit before driving residuals below
    tolerance; the returned estimate is truncated."""


@dataclass
class PushStats:
    """Work/quality counters of one forward-push solve.

    Pass a fresh instance via the ``stats`` parameter of
    :func:`forward_push` / :func:`forward_push_reference` (or read the
    one returned by :meth:`PushKernel.push`) to observe how much work
    the solve did and how much residual mass was left behind.
    """

    #: Node relaxations performed (one per pushed node per round).
    pushes: int = 0
    #: Total |residual| mass remaining at termination.
    residual_norm: float = 0.0
    #: True when the ``max_pushes`` limit cut the solve short.
    truncated: bool = False


@dataclass
class RepairStats:
    """Work summary of one incremental basis repair.

    Pass a fresh instance via the ``stats`` parameter of
    :meth:`PPRBasis.repair` to observe how much of the basis the change
    actually perturbed.
    """

    #: Existing rows re-pushed because the change reached their support.
    repaired_rows: int = 0
    #: Rows solved cold for tasks added since the basis was built.
    new_rows: int = 0
    #: Rows carried over untouched (their push invariant still holds).
    reused_rows: int = 0
    #: Node relaxations across all repair + cold pushes.
    pushes: int = 0


def power_iteration(
    normalized: sparse.spmatrix,
    q: np.ndarray,
    damping: float,
    tol: float = 1e-8,
    max_iter: int = 200,
) -> np.ndarray:
    """Iterate Eq. (4) to convergence.

    Parameters
    ----------
    normalized:
        ``S' = D^{-1/2} S D^{-1/2}`` (spectral radius ≤ 1).
    q:
        Observed-accuracy restart vector.
    damping:
        Follow probability ``c = 1 / (1 + alpha)`` in (0, 1).
    tol:
        L∞ convergence tolerance between successive iterates.
    max_iter:
        Iteration cap; the geometric rate ``c`` makes this generous.

    Returns
    -------
    numpy.ndarray
        The converged estimate ``p*``.
    """
    if not 0 < damping < 1:
        raise ValueError(f"damping must be in (0, 1), got {damping}")
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (normalized.shape[0],):
        raise ValueError(
            f"q has shape {q.shape}, expected ({normalized.shape[0]},)"
        )
    restart = (1.0 - damping) * q
    p = q.copy()
    for _ in range(max_iter):
        nxt = damping * (normalized @ p) + restart
        if np.max(np.abs(nxt - p)) < tol:
            return nxt
        p = nxt
    return p


def solve_exact(
    normalized: sparse.spmatrix, q: np.ndarray, damping: float
) -> np.ndarray:
    """Direct solve of Lemma 1's closed form (for tests / small graphs).

    Solves ``(I - c S') p = (1 - c) q`` with a sparse LU factorisation.
    """
    n = normalized.shape[0]
    system = sparse.identity(n, format="csc") - damping * normalized.tocsc()
    return sparse.linalg.spsolve(system, (1.0 - damping) * np.asarray(q))


def _default_push_limit(n: int) -> int:
    return 200 * n + 1000


class PushKernel:
    """Reusable flat-array workspace for localized forward push.

    Holds dense float64 residual/estimate buffers and the CSR arrays of
    ``S'`` so that consecutive pushes (the offline basis loop) allocate
    nothing per source.  The inner loop is fully vectorised: each round
    relaxes the whole frontier at once with gather/scatter numpy ops,
    and switches to scipy's C sparse matvec once the frontier covers a
    sizeable fraction of the graph (the dense regime of small epsilon
    on connected graphs), which is where the per-node queue of the
    reference implementation degenerates.

    Buffers are reset after every push by touching only the coordinates
    the push reached, so the amortised cost stays neighbourhood-local.
    """

    #: Frontier size (as a fraction denominator of n) above which the
    #: push switches from gather/scatter to full sparse matvec rounds.
    DENSE_SWITCH_DIVISOR = 16

    def __init__(
        self,
        normalized: sparse.csr_matrix,
        recorder: Recorder = NULL_RECORDER,
    ) -> None:
        matrix = normalized.tocsr()
        if matrix.shape[0] != matrix.shape[1]:
            raise ValueError("normalized matrix must be square")
        self._matrix = matrix
        self._recorder = recorder
        self.n = matrix.shape[0]
        self._indptr = matrix.indptr
        self._indices = matrix.indices
        self._data = matrix.data
        self._residual = np.zeros(self.n, dtype=np.float64)
        self._estimate = np.zeros(self.n, dtype=np.float64)
        self._dense_cut = max(64, self.n // self.DENSE_SWITCH_DIVISOR)

    def push(
        self,
        source: int,
        damping: float,
        epsilon: float = 1e-7,
        max_pushes: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray, PushStats]:
        """Localized solve of Eq. (4) for the unit restart ``q = e_source``.

        Returns ``(nodes, values, stats)`` where ``nodes`` is the sorted
        array of coordinates holding estimate mass and ``values`` their
        estimates.  Warns :class:`ConvergenceWarning` when ``max_pushes``
        truncates the solve.
        """
        if not 0 < damping < 1:
            raise ValueError(f"damping must be in (0, 1), got {damping}")
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        n = self.n
        if not 0 <= source < n:
            raise ValueError(f"source {source} out of range")
        limit = max_pushes if max_pushes is not None else _default_push_limit(n)
        self._residual[source] = 1.0
        frontier = np.array([source], dtype=np.int64)
        return self._drain(
            frontier, [frontier], damping, epsilon, limit,
            f"source {source}",
        )

    def resume(
        self,
        estimate_nodes: np.ndarray,
        estimate_values: np.ndarray,
        residual_nodes: np.ndarray,
        residual_values: np.ndarray,
        damping: float,
        epsilon: float = 1e-7,
        max_pushes: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray, PushStats]:
        """Continue a push from an explicit ``(estimate, residual)`` seed.

        The repair primitive of incremental basis maintenance: the push
        invariant ``p* = p + (1-c)(I - cS')^{-1} r`` holds for *any*
        seeded pair, so an old (possibly truncated) solution plus the
        residual it misses against a changed matrix drains to the same
        ``epsilon`` invariant as a cold :meth:`push` — at the cost of
        only the perturbed mass.  Node arrays must be deduplicated
        (canonical CSR row slices are); values may be negative (mass
        that the change *removed*).
        """
        if not 0 < damping < 1:
            raise ValueError(f"damping must be in (0, 1), got {damping}")
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        limit = (
            max_pushes if max_pushes is not None
            else _default_push_limit(self.n)
        )
        est_nodes = np.asarray(estimate_nodes, dtype=np.int64)
        res_nodes = np.asarray(residual_nodes, dtype=np.int64)
        self._estimate[est_nodes] = np.asarray(
            estimate_values, dtype=np.float64
        )
        self._residual[res_nodes] = np.asarray(
            residual_values, dtype=np.float64
        )
        frontier = res_nodes[np.abs(self._residual[res_nodes]) >= epsilon]
        return self._drain(
            frontier, [est_nodes, res_nodes], damping, epsilon, limit,
            "resumed seed",
        )

    def _drain(
        self,
        frontier: np.ndarray,
        touched: list[np.ndarray],
        damping: float,
        epsilon: float,
        limit: int,
        origin: str,
    ) -> tuple[np.ndarray, np.ndarray, PushStats]:
        """Shared push loop: relax residuals seeded in the workspace
        buffers until all sit below ``epsilon`` (or ``limit`` cuts the
        solve short), then collect the estimate and reset the buffers.
        """
        c = damping
        residual = self._residual
        estimate = self._estimate
        indptr = self._indptr
        indices = self._indices
        data = self._data
        pushes = 0
        dense = False
        truncated = False
        while True:
            if not dense and frontier.size > self._dense_cut:
                dense = True
            if dense:
                mask = np.abs(residual) >= epsilon
                count = int(mask.sum())
                if not count:
                    break
                r_push = np.where(mask, residual, 0.0)
                estimate += (1.0 - c) * r_push
                residual -= r_push
                residual += c * (self._matrix @ r_push)
                pushes += count
                if pushes >= limit and bool(
                    (np.abs(residual) >= epsilon).any()
                ):
                    truncated = True
                    break
                continue
            if not frontier.size:
                break
            r_front = residual[frontier]
            estimate[frontier] += (1.0 - c) * r_front
            residual[frontier] = 0.0
            pushes += frontier.size
            starts = indptr[frontier]
            counts = indptr[frontier + 1] - starts
            total = int(counts.sum())
            if total:
                # vectorised multi-range gather: the concatenation of
                # range(starts[k], starts[k] + counts[k]) over the frontier
                cum = np.cumsum(counts)
                offsets = np.arange(total) - np.repeat(cum - counts, counts)
                idx = np.repeat(starts, counts) + offsets
                neighbors = indices[idx]
                contrib = c * data[idx] * np.repeat(r_front, counts)
                np.add.at(residual, neighbors, contrib)
                candidates = np.unique(neighbors)
                touched.append(candidates)
                frontier = candidates[
                    np.abs(residual[candidates]) >= epsilon
                ]
            else:
                frontier = frontier[:0]
            if pushes >= limit and frontier.size:
                truncated = True
                break

        if dense:
            residual_norm = float(np.abs(residual).sum())
            nodes = np.flatnonzero(estimate)
            values = estimate[nodes].copy()
            residual[:] = 0.0
            estimate[:] = 0.0
        else:
            reached = np.unique(np.concatenate(touched))
            residual_norm = float(np.abs(residual[reached]).sum())
            # repro-lint: disable=RL004 -- exact-zero sparsity filter
            nodes = reached[estimate[reached] != 0.0]
            values = estimate[nodes].copy()
            residual[reached] = 0.0
            estimate[reached] = 0.0
        stats = PushStats(
            pushes=pushes, residual_norm=residual_norm, truncated=truncated
        )
        # one aggregate recording per solve keeps the inner loop clean
        recorder = self._recorder
        recorder.counter(
            "repro_ppr_push_solves_total",
            "Forward-push solves completed.",
        ).inc()
        recorder.counter(
            "repro_ppr_pushes_total",
            "Node relaxations across all forward-push solves.",
        ).inc(pushes)
        recorder.histogram(
            "repro_ppr_push_residual_mass",
            "Residual |r| mass left behind at push termination.",
            buckets=MASS_BUCKETS,
        ).observe(residual_norm)
        if truncated:
            recorder.counter(
                "repro_ppr_push_truncated_total",
                "Solves cut short by the max_pushes work limit.",
            ).inc()
            warnings.warn(
                f"forward push from {origin} truncated after "
                f"{pushes} pushes with residual mass "
                f"{residual_norm:.3g} >= epsilon={epsilon:g}; the "
                f"estimate is partial (raise max_pushes or epsilon)",
                ConvergenceWarning,
                stacklevel=3,
            )
        return nodes, values, stats


def forward_push(
    normalized: sparse.csr_matrix,
    source: int,
    damping: float,
    epsilon: float = 1e-7,
    max_pushes: int | None = None,
    kernel: PushKernel | None = None,
    stats: PushStats | None = None,
    recorder: Recorder = NULL_RECORDER,
) -> dict[int, float]:
    """Localized solve of Eq. (4) for a unit restart ``q = e_source``.

    Vectorised implementation (see :class:`PushKernel`); pass a shared
    ``kernel`` built on the same matrix to reuse its buffers across
    calls, and a :class:`PushStats` instance via ``stats`` to observe
    push counts and leftover residual mass.  ``recorder`` feeds the
    per-solve counters when no shared kernel is supplied (a shared
    kernel records on its own recorder).  Warns
    :class:`ConvergenceWarning` when ``max_pushes`` truncates the solve.

    Returns
    -------
    dict
        Sparse estimate mapping node → value (entries ≥ epsilon scale).
    """
    if kernel is None:
        kernel = PushKernel(normalized, recorder=recorder)
    elif kernel.n != normalized.shape[0]:
        raise ValueError("kernel was built on a different matrix size")
    nodes, values, push_stats = kernel.push(
        source, damping, epsilon=epsilon, max_pushes=max_pushes
    )
    if stats is not None:
        stats.pushes = push_stats.pushes
        stats.residual_norm = push_stats.residual_norm
        stats.truncated = push_stats.truncated
    return {
        int(node): float(value)
        for node, value in zip(nodes.tolist(), values.tolist())
    }


def forward_push_reference(
    normalized: sparse.csr_matrix,
    source: int,
    damping: float,
    epsilon: float = 1e-7,
    max_pushes: int | None = None,
    stats: PushStats | None = None,
) -> dict[int, float]:
    """Original dict-and-deque forward push (differential-test oracle).

    Maintains the push invariant ``p* = p + (1-c) Σ_k (cS')^k r``; a node
    is pushed when its residual exceeds ``epsilon``, so only the
    neighbourhood actually reached by probability mass is touched.  With
    spectral radius ≤ 1 and ``c < 1`` the residual decays geometrically.

    Returns
    -------
    dict
        Sparse estimate mapping node → value (entries ≥ epsilon scale).
    """
    if not 0 < damping < 1:
        raise ValueError(f"damping must be in (0, 1), got {damping}")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    n = normalized.shape[0]
    if not 0 <= source < n:
        raise ValueError(f"source {source} out of range")

    indptr = normalized.indptr
    indices = normalized.indices
    data = normalized.data

    estimate: dict[int, float] = {}
    residual: dict[int, float] = {source: 1.0}
    queue: deque[int] = deque([source])
    queued: set[int] = {source}
    pushes = 0
    truncated = False
    limit = max_pushes if max_pushes is not None else _default_push_limit(n)

    while queue:
        u = queue.popleft()
        queued.discard(u)
        r_u = residual.get(u, 0.0)
        if abs(r_u) < epsilon:
            continue
        residual[u] = 0.0
        estimate[u] = estimate.get(u, 0.0) + (1.0 - damping) * r_u
        start, end = indptr[u], indptr[u + 1]
        for idx in range(start, end):
            v = int(indices[idx])
            delta = damping * data[idx] * r_u
            new_r = residual.get(v, 0.0) + delta
            residual[v] = new_r
            if abs(new_r) >= epsilon and v not in queued:
                queue.append(v)
                queued.add(v)
        pushes += 1
        if pushes >= limit:
            truncated = bool(queue)
            break
    residual_norm = sum(abs(r) for r in residual.values())
    if stats is not None:
        stats.pushes = pushes
        stats.residual_norm = residual_norm
        stats.truncated = truncated
    if truncated:
        warnings.warn(
            f"forward push from source {source} truncated after {pushes} "
            f"pushes with residual mass {residual_norm:.3g} >= "
            f"epsilon={epsilon:g}; the estimate is partial (raise "
            f"max_pushes or epsilon)",
            ConvergenceWarning,
            stacklevel=2,
        )
    return estimate


# ----------------------------------------------------------------------
# parallel basis construction (process pool, nnz-sized chunks)
# ----------------------------------------------------------------------
#: Below these input sizes a parallel basis request is routed to the
#: serial kernel: pool start-up plus result IPC costs more than the
#: solve itself.  Both bounds must be cleared to go parallel (override
#: with ``force_parallel=True``); the routing decision is observable
#: via the ``repro_ppr_parallel_fallback_total`` counter.
PARALLEL_MIN_TASKS = 2048
PARALLEL_MIN_NNZ = 100_000

#: Work units per pool worker: a few chunks per worker lets stragglers
#: balance out without shrinking chunks below the IPC break-even size.
_CHUNKS_PER_WORKER = 4

#: Minimum transition-matrix nnz covered by one work unit; chunks are
#: sized by the nnz their rows touch (push work scales with traversed
#: edges, not with row count) and never cut finer than this.
_MIN_CHUNK_NNZ = 10_000

#: Per-process state installed by :func:`_pool_initializer`: the
#: kernel built on the transition matrix and the solve parameters.
_POOL_STATE: dict[str, object] = {}


def usable_cpu_count() -> int:
    """Cores this process may actually run on.

    ``os.cpu_count()`` reports the machine; CI runners and container
    limits often pin the process to fewer cores, and a pool sized to
    phantom cores just adds IPC overhead.  Affinity is the honest
    number where the platform exposes it.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        return len(getaffinity(0))
    return os.cpu_count() or 1


def _pool_initializer(
    matrix: sparse.csr_matrix,
    damping: float,
    push_epsilon: float,
    epsilon: float,
) -> None:
    """Build this worker's kernel once from the pool's ``initargs``.

    The transition matrix reaches each worker once — inherited with the
    address space under ``fork``, pickled under ``spawn`` /
    ``forkserver`` — so work units carry only their source ids and no
    OS-level segment outlives the pool.
    """
    _POOL_STATE["kernel"] = PushKernel(matrix)
    _POOL_STATE["params"] = (damping, push_epsilon, epsilon)


def _pool_push_unit(
    sources: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    kernel = cast(PushKernel, _POOL_STATE["kernel"])
    damping, push_epsilon, epsilon = cast(
        "tuple[float, float, float]", _POOL_STATE["params"]
    )
    return push_sources(kernel, sources, damping, push_epsilon, epsilon)


def basis_push_epsilon(epsilon: float) -> float:
    """Push tolerance used for a basis truncated at ``epsilon``: one
    decade tighter, so truncation (not solver error) dominates."""
    return max(epsilon * 0.1, 1e-12)


def push_sources(
    kernel: PushKernel,
    sources: Sequence[int] | np.ndarray | range,
    damping: float,
    push_epsilon: float,
    epsilon: float,
    stats: RepairStats | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Push every source in ``sources`` and pack the surviving entries.

    Returns per-row entry counts plus the concatenated column/value
    arrays — the raw CSR building blocks — without ever materialising
    per-entry Python objects.  Sources may be any id sequence (a
    contiguous range or a sorted id array).  ``stats`` accumulates the
    push count (the cold-row half of incremental repair).
    """
    counts = np.zeros(len(sources), dtype=np.int64)
    col_parts: list[np.ndarray] = []
    val_parts: list[np.ndarray] = []
    pushes = 0
    for offset, source in enumerate(sources):
        nodes, values, push_stats = kernel.push(
            int(source), damping, epsilon=push_epsilon
        )
        pushes += push_stats.pushes
        if epsilon > 0:
            keep = np.abs(values) >= epsilon
            nodes, values = nodes[keep], values[keep]
        counts[offset] = len(nodes)
        col_parts.append(nodes)
        val_parts.append(values)
    if stats is not None:
        stats.pushes += pushes
    cols = (
        np.concatenate(col_parts)
        if col_parts
        else np.zeros(0, dtype=np.int64)
    )
    vals = (
        np.concatenate(val_parts)
        if val_parts
        else np.zeros(0, dtype=np.float64)
    )
    return counts, cols, vals


def assemble_csr(
    counts: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    shape: tuple[int, int],
) -> sparse.csr_matrix:
    """CSR from per-row counts + packed columns/values (no COO pass).

    The push kernel emits each row's columns already sorted, so the
    ``(data, indices, indptr)`` constructor is valid directly.
    """
    indptr = np.zeros(shape[0] + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return sparse.csr_matrix(
        (
            np.asarray(vals, dtype=np.float64),
            np.asarray(cols, dtype=np.int64),
            indptr,
        ),
        shape=shape,
    )


def _rows_touching(
    indptr: np.ndarray, indices: np.ndarray, columns: np.ndarray
) -> np.ndarray:
    """Row ids of a CSR structure holding ≥ 1 stored entry in ``columns``.

    The dirty-source detector of incremental repair: a basis row can
    only be perturbed by a change whose Δ columns intersect its stored
    support (Lemma 3 linearity — ``Δ·p`` vanishes elsewhere).
    """
    if columns.size == 0 or indices.size == 0:
        return np.zeros(0, dtype=np.int64)
    hits = np.flatnonzero(np.isin(indices, columns))
    if hits.size == 0:
        return np.zeros(0, dtype=np.int64)
    rows = np.searchsorted(indptr, hits, side="right") - 1
    return np.unique(rows).astype(np.int64)


def repair_residual_seeds(
    rows: sparse.csr_matrix,
    sources: np.ndarray,
    normalized: sparse.csr_matrix,
    damping: float,
) -> sparse.csr_matrix:
    """Residual mass each old solution misses against the new matrix.

    For source ``i`` with old (truncated) solution ``p``, the exact
    residual making the push invariant hold against the *new* ``S'`` is

        ``r = e_i - (p - c·S'p) / (1-c)``

    — rearranging ``p* = (1-c)(I - cS')^{-1} e_i`` with ``p`` taken as
    the partial estimate.  When nothing changed inside ``p``'s reach,
    ``r`` is exactly the sub-``epsilon`` residual the original solve
    left behind; a changed entry of ``S'`` surfaces as new (possibly
    negative) mass at the perturbed coordinates.  Vectorised over all
    ``sources`` as one sparse product; ``rows[k]`` must be the old
    basis row of ``sources[k]``, padded to the new matrix width.
    """
    k = rows.shape[0]
    restart = sparse.csr_matrix(
        (
            np.ones(k, dtype=np.float64),
            (np.arange(k, dtype=np.int64), sources),
        ),
        shape=rows.shape,
    )
    propagated = (rows @ normalized).tocsr()
    correction = (1.0 / (1.0 - damping)) * (rows - damping * propagated)
    return (restart - correction).tocsr()


def repair_rows(
    kernel: PushKernel,
    normalized: sparse.csr_matrix,
    sources: np.ndarray,
    rows: sparse.csr_matrix,
    damping: float,
    push_epsilon: float,
    epsilon: float,
    stats: RepairStats | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Re-solve ``sources`` by pushing only their perturbed residual.

    Seeds each source's old row plus the residual it misses against
    ``normalized`` (see :func:`repair_residual_seeds`) and drains to
    ``push_epsilon`` — the same invariant a cold solve terminates on.
    Returns packed CSR parts like :func:`push_sources`.
    """
    seeds = repair_residual_seeds(rows, sources, normalized, damping)
    counts = np.zeros(sources.size, dtype=np.int64)
    col_parts: list[np.ndarray] = []
    val_parts: list[np.ndarray] = []
    pushes = 0
    for offset in range(sources.size):
        e0, e1 = rows.indptr[offset], rows.indptr[offset + 1]
        r0, r1 = seeds.indptr[offset], seeds.indptr[offset + 1]
        nodes, values, push_stats = kernel.resume(
            rows.indices[e0:e1],
            rows.data[e0:e1],
            seeds.indices[r0:r1],
            seeds.data[r0:r1],
            damping,
            epsilon=push_epsilon,
        )
        pushes += push_stats.pushes
        if epsilon > 0:
            keep = np.abs(values) >= epsilon
            nodes, values = nodes[keep], values[keep]
        counts[offset] = len(nodes)
        col_parts.append(nodes)
        val_parts.append(values)
    if stats is not None:
        stats.pushes += pushes
    cols = (
        np.concatenate(col_parts)
        if col_parts
        else np.zeros(0, dtype=np.int64)
    )
    vals = (
        np.concatenate(val_parts)
        if val_parts
        else np.zeros(0, dtype=np.float64)
    )
    return counts, cols, vals


def _as_dirty_array(dirty: "Sequence[int] | np.ndarray", n: int) -> np.ndarray:
    """Canonicalise a dirty-node collection: sorted unique int64 ids."""
    if isinstance(dirty, np.ndarray):
        arr = np.unique(dirty.astype(np.int64))
    else:
        arr = np.unique(np.fromiter(
            (int(d) for d in dirty), dtype=np.int64
        ))
    if arr.size and (arr[0] < 0 or arr[-1] >= n):
        raise ValueError(
            f"dirty ids must lie in [0, {n}), got "
            f"[{arr[0]}, {arr[-1]}]"
        )
    return arr


def _chunk_sources_by_nnz(
    indptr: np.ndarray, sources: np.ndarray, workers: int
) -> list[np.ndarray]:
    """Cut a source array into work units of roughly equal *push work*.

    Chunk boundaries follow the transition-matrix nnz the rows touch
    (push cost scales with traversed edges), not the row count — a few
    hub rows no longer ride in one chunk with thousands of leaves.
    """
    if sources.size == 0:
        return []
    row_nnz = indptr[sources + 1] - indptr[sources]
    # every row costs at least its own solve, even with no edges
    cum = np.cumsum(np.maximum(row_nnz, 1))
    total = int(cum[-1])
    chunk_nnz = max(total // (workers * _CHUNKS_PER_WORKER), _MIN_CHUNK_NNZ)
    targets = np.arange(chunk_nnz, total, chunk_nnz, dtype=np.int64)
    boundaries = np.unique(np.searchsorted(cum, targets, side="left") + 1)
    boundaries = boundaries[boundaries < sources.size]
    return [np.asarray(part) for part in np.split(sources, boundaries)]


def _resolve_workers(num_workers: int | None) -> int:
    if num_workers is None or num_workers <= 0:
        return usable_cpu_count()
    return num_workers


class PPRBasis:
    """Offline per-task PPR basis enabling O(|T|) online estimation.

    Algorithm 1's offline phase: for every task ``t_i`` compute the
    converged vector ``p_{t_i}`` of Eq. (4) under the unit restart
    ``q_{t_i} = e_i``.  The online phase (Lemma 3) then evaluates
    ``p* = Σ_i q_i · p_{t_i}`` — a sparse row combination.

    Basis rows are truncated at ``epsilon`` to bound memory; the
    truncation error of the combined estimate is at most
    ``epsilon · Σ|q_i| · n_nonzero`` and is validated against the exact
    solver in the test suite.
    """

    def __init__(self, matrix: sparse.csr_matrix) -> None:
        if matrix.shape[0] != matrix.shape[1]:
            raise ValueError("basis must be square (one row per task)")
        self._matrix = matrix.tocsr()

    #: Graphs up to this many nodes use the batched dense iteration
    #: under ``method="auto"``; larger graphs use localized push
    #: (split over a process pool when more than one worker resolves).
    AUTO_BATCH_LIMIT = 4096

    @classmethod
    def compute(
        cls,
        normalized: sparse.csr_matrix,
        damping: float,
        epsilon: float = 1e-6,
        method: str = "auto",
        tol: float = 1e-8,
        max_iter: int = 200,
        num_workers: int | None = None,
        force_parallel: bool = False,
        recorder: Recorder = NULL_RECORDER,
    ) -> "PPRBasis":
        """Precompute all basis rows.

        Parameters
        ----------
        normalized:
            ``S'`` of the similarity graph.
        damping:
            ``1 / (1 + alpha)``.
        epsilon:
            Truncation threshold for stored entries (0 keeps all).
        method:
            ``"auto"`` (default) picks ``"batch"`` for graphs up to
            :data:`AUTO_BATCH_LIMIT` nodes and ``"push"`` /
            ``"parallel-push"`` beyond (parallel when more than one
            worker resolves); ``"batch"`` iterates Eq. (4) on all unit
            restarts at once (one dense n×n iteration); ``"push"`` runs
            the vectorised localized solver per row;
            ``"parallel-push"`` splits the push rows over a process
            pool (identical output to ``"push"``); ``"power"`` runs the
            dense iteration per row (slow; kept as the test reference).
        num_workers:
            Process count for ``"parallel-push"`` (None/0 = the cores
            this process may run on, see :func:`usable_cpu_count`).
        force_parallel:
            ``"parallel-push"`` requests on inputs below
            :data:`PARALLEL_MIN_TASKS` / :data:`PARALLEL_MIN_NNZ` are
            routed to the serial kernel (pool start-up would dominate);
            pass True to run the pool anyway (tests, benchmarks).
        recorder:
            Observability recorder; the offline computation runs under
            a ``ppr.basis`` span and serial pushes record per-solve
            counters (pool workers record nothing — the rows-built
            counter covers them in aggregate).
        """
        n = normalized.shape[0]
        if method == "auto":
            if n <= cls.AUTO_BATCH_LIMIT:
                method = "batch"
            elif _resolve_workers(num_workers) > 1:
                method = "parallel-push"
            else:
                method = "push"
        with recorder.span("ppr.basis", method=method, rows=n):
            basis = cls._compute_with_method(
                normalized,
                damping,
                epsilon,
                method,
                tol,
                max_iter,
                num_workers,
                force_parallel,
                recorder,
            )
        recorder.counter(
            "repro_ppr_basis_rows_total",
            "Offline PPR basis rows computed (one per task).",
        ).inc(n)
        return basis

    @classmethod
    def _compute_with_method(
        cls,
        normalized: sparse.csr_matrix,
        damping: float,
        epsilon: float,
        method: str,
        tol: float,
        max_iter: int,
        num_workers: int | None,
        force_parallel: bool,
        recorder: Recorder,
    ) -> "PPRBasis":
        n = normalized.shape[0]
        if method == "batch":
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
            # rows of the basis are p_{t_i}; the iteration above tracks
            # columns (restart e_i per column), and S' is symmetric so
            # the matrix is symmetric too — transpose for clarity.
            return cls(sparse.csr_matrix(basis.T))
        if method in ("push", "parallel-push"):
            return cls(
                cls._compute_push(
                    normalized,
                    damping,
                    epsilon,
                    1 if method == "push" else num_workers,
                    force_parallel,
                    recorder,
                )
            )
        if method == "power":
            rows: list[int] = []
            cols_l: list[int] = []
            vals_l: list[float] = []
            for i in range(n):
                unit = np.zeros(n)
                unit[i] = 1.0
                vec = power_iteration(
                    normalized, unit, damping, tol=tol, max_iter=max_iter
                )
                keep = (
                    np.flatnonzero(np.abs(vec) >= epsilon)
                    if epsilon > 0
                    else np.flatnonzero(vec)
                )
                rows.extend([i] * len(keep))
                cols_l.extend(int(j) for j in keep)
                vals_l.extend(float(vec[j]) for j in keep)
            matrix = sparse.csr_matrix(
                (vals_l, (rows, cols_l)), shape=(n, n)
            )
            return cls(matrix)
        raise ValueError(f"unknown basis method {method!r}")

    @staticmethod
    def _compute_push(
        normalized: sparse.csr_matrix,
        damping: float,
        epsilon: float,
        num_workers: int | None,
        force_parallel: bool,
        recorder: Recorder,
    ) -> sparse.csr_matrix:
        """Push every source, split over a process pool when more than
        one worker resolves.

        Output is bit-identical to serial ``"push"``: workers run the
        same kernel on the same full matrix, sources are merely cut
        into contiguous nnz-balanced units, and ``map`` returns their
        packed results in source order.  Small inputs (below
        :data:`PARALLEL_MIN_TASKS` / :data:`PARALLEL_MIN_NNZ`) fall back
        to the serial kernel unless ``force_parallel`` is set — pool
        start-up would dominate.
        """
        n = normalized.shape[0]
        matrix = normalized.tocsr()
        workers = min(_resolve_workers(num_workers), max(1, n))
        push_eps = basis_push_epsilon(epsilon)
        small = n < PARALLEL_MIN_TASKS or matrix.nnz < PARALLEL_MIN_NNZ
        if workers > 1 and small and not force_parallel:
            recorder.counter(
                "repro_ppr_parallel_fallback_total",
                "Parallel basis requests routed to the serial kernel "
                "because the input sat below the small-n threshold.",
            ).inc()
            workers = 1
        if workers <= 1:
            kernel = PushKernel(matrix, recorder=recorder)
            counts, cols, vals = push_sources(
                kernel, range(n), damping, push_eps, epsilon
            )
            return assemble_csr(counts, cols, vals, (n, n))
        units = _chunk_sources_by_nnz(
            matrix.indptr, np.arange(n, dtype=np.int64), workers
        )
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_pool_initializer,
            initargs=(matrix, damping, push_eps, epsilon),
        ) as pool:
            packed = list(pool.map(_pool_push_unit, units))
        return assemble_csr(
            np.concatenate([part[0] for part in packed]),
            np.concatenate([part[1] for part in packed]),
            np.concatenate([part[2] for part in packed]),
            (n, n),
        )

    @property
    def num_tasks(self) -> int:
        return self._matrix.shape[0]

    @property
    def nnz(self) -> int:
        """Stored non-zeros (memory proxy for the truncation ablation)."""
        return self._matrix.nnz

    @property
    def matrix(self) -> sparse.csr_matrix:
        """The raw CSR basis matrix (row i = ``p_{t_i}``); used by the
        on-disk basis cache for exact serialisation."""
        return self._matrix

    def _row_slice(self, task_id: int) -> tuple[np.ndarray, np.ndarray]:
        """(column indices, values) of one basis row without copying
        the matrix structure (scipy's ``getrow`` builds a whole new CSR
        per call, which dominates the online-estimation profile)."""
        indptr = self._matrix.indptr
        start, end = indptr[task_id], indptr[task_id + 1]
        return (
            self._matrix.indices[start:end],
            self._matrix.data[start:end],
        )

    def row(self, task_id: int) -> np.ndarray:
        """Dense basis vector ``p_{t_i}``."""
        out = np.zeros(self.num_tasks)
        cols, vals = self._row_slice(task_id)
        out[cols] = vals
        return out

    def combine(self, q: np.ndarray | dict[int, float]) -> np.ndarray:
        """Online estimation: ``p* = Σ q_i · p_{t_i}`` (Lemma 3).

        Accepts either a dense restart vector or a sparse dict of
        observed accuracies keyed by task id.
        """
        n = self.num_tasks
        if isinstance(q, dict):
            out = np.zeros(n)
            for task_id, weight in q.items():
                # repro-lint: disable=RL004 -- exact-zero skip, not a tolerance
                if weight == 0.0:
                    continue
                cols, vals = self._row_slice(task_id)
                out[cols] += weight * vals
            return out
        q = np.asarray(q, dtype=np.float64)
        if q.shape != (n,):
            raise ValueError(f"q has shape {q.shape}, expected ({n},)")
        return np.asarray(q @ self._matrix).ravel()

    def _rows_block(
        self, task_ids: np.ndarray, width: int
    ) -> sparse.csr_matrix:
        """CSR block of the given basis rows, padded to ``width``
        columns (repair needs old rows in new-matrix coordinates)."""
        block = self._matrix[task_ids].tocsr()
        return sparse.csr_matrix(
            (block.data, block.indices, block.indptr),
            shape=(block.shape[0], width),
        )

    def repair(
        self,
        normalized: sparse.csr_matrix,
        dirty: "Sequence[int] | np.ndarray",
        damping: float,
        epsilon: float = 1e-6,
        stats: RepairStats | None = None,
        recorder: Recorder = NULL_RECORDER,
    ) -> "PPRBasis":
        """Incrementally repair this basis against a changed matrix.

        Parameters
        ----------
        normalized:
            The **new** ``S'`` (full, possibly larger than the matrix
            this basis was built on; the task set may only grow).
        dirty:
            Ids of every node whose *row of* ``S'`` changed since this
            basis was built — endpoints of new/changed edges plus their
            neighbours (degree renormalisation reaches one hop); see
            :meth:`repro.core.streaming.GrowableGraph.delta`.
        damping / epsilon:
            Must match the values the basis was built with: the repair
            drains to ``basis_push_epsilon(epsilon)`` and truncates
            stored entries at ``epsilon``, keeping the repaired rows in
            the same invariant class as a cold build.
        stats:
            Optional :class:`RepairStats` out-parameter.

        Returns the repaired basis (a new object; ``self`` is
        untouched).  Only sources whose stored support intersects
        ``dirty`` are re-pushed — seeded with their old solution plus
        the residual it misses against the new matrix — and tasks past
        the old size are solved cold; every other row is carried over
        by reference.  The result is within the ``epsilon`` invariant
        of a cold rebuild, but not bit-identical to one (residuals
        below the push tolerance differ).
        """
        matrix = normalized.tocsr()
        if matrix.shape[0] != matrix.shape[1]:
            raise ValueError("normalized matrix must be square")
        n_new = matrix.shape[0]
        n_old = self.num_tasks
        if n_new < n_old:
            raise ValueError(
                f"repair cannot shrink the task set ({n_old} -> {n_new})"
            )
        dirty_arr = _as_dirty_array(dirty, n_new)
        old = self._matrix
        dirty_cols = dirty_arr[dirty_arr < n_old]
        # rows to re-push: support touches a dirty column, plus the
        # dirty nodes themselves (their own S' row changed)
        dirty_sources = np.union1d(
            _rows_touching(old.indptr, old.indices, dirty_cols),
            dirty_cols,
        )
        push_eps = basis_push_epsilon(epsilon)
        with recorder.span(
            "ppr.repair",
            rows=n_new,
            dirty=int(dirty_sources.size),
            new=n_new - n_old,
        ):
            kernel = PushKernel(matrix, recorder=recorder)
            d_counts, d_cols, d_vals = repair_rows(
                kernel, matrix, dirty_sources,
                self._rows_block(dirty_sources, n_new),
                damping, push_eps, epsilon, stats,
            )
            new_sources = np.arange(n_old, n_new, dtype=np.int64)
            n_counts, n_cols, n_vals = push_sources(
                kernel, new_sources, damping, push_eps, epsilon, stats
            )
            # stitch: reused rows keep their slices of the old arrays
            d_indptr = np.zeros(dirty_sources.size + 1, dtype=np.int64)
            np.cumsum(d_counts, out=d_indptr[1:])
            counts = np.empty(n_new, dtype=np.int64)
            col_parts: list[np.ndarray] = []
            val_parts: list[np.ndarray] = []
            cursor = 0
            for row in range(n_old):
                if (
                    cursor < dirty_sources.size
                    and dirty_sources[cursor] == row
                ):
                    start, end = d_indptr[cursor], d_indptr[cursor + 1]
                    col_parts.append(d_cols[start:end])
                    val_parts.append(d_vals[start:end])
                    counts[row] = end - start
                    cursor += 1
                else:
                    start, end = old.indptr[row], old.indptr[row + 1]
                    col_parts.append(old.indices[start:end])
                    val_parts.append(old.data[start:end])
                    counts[row] = end - start
            counts[n_old:] = n_counts
            col_parts.append(n_cols)
            val_parts.append(n_vals)
            repaired = assemble_csr(
                counts,
                np.concatenate(col_parts)
                if col_parts
                else np.zeros(0, dtype=np.int64),
                np.concatenate(val_parts)
                if val_parts
                else np.zeros(0, dtype=np.float64),
                shape=(n_new, n_new),
            )
        if stats is not None:
            stats.repaired_rows += int(dirty_sources.size)
            stats.new_rows += n_new - n_old
            stats.reused_rows += n_old - int(dirty_sources.size)
        recorder.counter(
            "repro_ppr_repair_rows_total",
            "Basis rows re-pushed or solved cold by incremental repair.",
        ).inc(int(dirty_sources.size) + (n_new - n_old))
        recorder.counter(
            "repro_ppr_repair_reused_rows_total",
            "Basis rows carried over untouched by incremental repair.",
        ).inc(n_old - int(dirty_sources.size))
        return PPRBasis(repaired)


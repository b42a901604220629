"""Graph-based accuracy estimation (Section 3, Algorithm 1).

The estimator ties together the similarity graph, the offline PPR basis
and the observed accuracies:

- **offline** — build ``S'`` and precompute the basis vector ``p_{t_i}``
  for every task (Lemma 3 makes the online phase a weighted sum);
- **online** — given a worker's sparse observed accuracies ``q^w``,
  return the estimated vector ``p^w = Σ_i q_i^w · p_{t_i}``.

The offline phase is the dominant cost of a run, so it is both
parallelisable (on large graphs :meth:`repro.core.ppr.PPRBasis.compute`
splits the push rows over a process pool sized to the usable cores)
and cacheable: when a cache directory is
configured — explicitly, via ``EstimatorConfig.basis_cache_dir``, or
via the ``REPRO_BASIS_CACHE`` environment variable — the computed basis
is persisted keyed by a content hash of ``(S', damping, epsilon)`` and
later runs load it bit-identically instead of recomputing.

A subtlety the paper leaves implicit: the raw combination scales with
the number of observations (a worker with many completed tasks would get
arbitrarily large "accuracies").  The estimator therefore exposes both
the raw linear combination (used for *ranking* workers, which is all the
assigner needs) and a calibrated variant that renormalises by the
combination of an all-ones restart restricted to the observed support,
blending with the prior where the graph carries no signal.  The
all-ones "mass" vector depends only on the observed *support*, which
for a live worker is stable across many estimate refreshes — it is
memoised per support set.
"""

from __future__ import annotations

import os
import pathlib
from collections import OrderedDict
from collections.abc import Mapping, Sequence

import numpy as np

from repro.core.config import EstimatorConfig
from repro.core.graph import SimilarityGraph
from repro.core.ppr import PPRBasis, power_iteration
from repro.core.types import TaskId
from repro.obs.metrics import NULL_RECORDER, Recorder

#: Environment variable naming a default basis-cache directory; used
#: when neither the constructor nor the config names one (lets CLI and
#: experiment runs opt into warm starts without threading a parameter
#: through every call site).
BASIS_CACHE_ENV = "REPRO_BASIS_CACHE"

#: Memoised all-ones restart masses kept per estimator; past this many
#: the least recently used support is evicted.  A live worker's support
#: changes only when a task the worker answered completes, so a support
#: is reused soon after it was last used or not at all.
_MASS_CACHE_LIMIT = 128


class AccuracyEstimator:
    """Similarity-based accuracy estimation (Definition 2).

    Parameters
    ----------
    graph:
        The microtask similarity graph.
    config:
        Estimation knobs (``alpha``, tolerances, truncation, caching,
        incremental repair).
    basis_method:
        ``"auto"`` (default), ``"push"``, ``"parallel-push"``,
        ``"batch"`` or ``"power"`` for the offline basis computation.
    cache_dir:
        Overrides the basis-cache directory (takes precedence over
        ``config.basis_cache_dir`` and the ``REPRO_BASIS_CACHE``
        environment variable); None falls back to those.
    recorder:
        Observability recorder (``None`` = disabled).  Records basis
        cache hits/misses, estimate refreshes and support-mass cache
        traffic; rebindable via :attr:`recorder` because experiment
        setups share one estimator across runs.
    """

    def __init__(
        self,
        graph: SimilarityGraph,
        config: EstimatorConfig | None = None,
        basis_method: str = "auto",
        cache_dir: str | pathlib.Path | None = None,
        recorder: Recorder = NULL_RECORDER,
    ) -> None:
        self.graph = graph
        self.config = config or EstimatorConfig()
        self._basis_method = basis_method
        self._basis: PPRBasis | None = None
        self._cache_dir = self._resolve_cache_dir(cache_dir)
        self.recorder = recorder
        #: True when the current basis was served from the on-disk
        #: cache rather than computed (diagnostics / benches).
        self.basis_from_cache = False
        #: support -> mass, least recently used first
        self._mass_cache: OrderedDict[frozenset[TaskId], np.ndarray] = (
            OrderedDict()
        )

    def _resolve_cache_dir(
        self, explicit: str | pathlib.Path | None
    ) -> pathlib.Path | None:
        candidate = (
            explicit
            or self.config.basis_cache_dir
            or os.environ.get(BASIS_CACHE_ENV)
        )
        return pathlib.Path(candidate) if candidate else None

    # ------------------------------------------------------------------
    # offline phase
    # ------------------------------------------------------------------
    @property
    def basis(self) -> PPRBasis:
        """The offline PPR basis; loaded from cache or computed lazily
        on first access."""
        if self._basis is None:
            self._basis = self._load_or_compute_basis()
        return self._basis

    def _load_or_compute_basis(self) -> PPRBasis:
        with self.recorder.span("estimator.offline"):
            return self._load_or_compute_basis_inner()

    def _load_or_compute_basis_inner(self) -> PPRBasis:
        key = None
        if self._cache_dir is not None:
            from repro.core.persistence import (
                basis_cache_key,
                load_basis,
                save_basis,
            )

            key = basis_cache_key(
                self.graph.normalized,
                self.config.damping,
                self.config.basis_epsilon,
            )
            cached = load_basis(self._cache_dir, key)
            if cached is not None:
                self.basis_from_cache = True
                self.recorder.counter(
                    "repro_estimator_basis_cache_hits_total",
                    "Offline bases served from the on-disk cache.",
                ).inc()
                return cached
        if self._cache_dir is not None:
            self.recorder.counter(
                "repro_estimator_basis_cache_misses_total",
                "Offline bases computed because the cache missed.",
            ).inc()
        basis = PPRBasis.compute(
            self.graph.normalized,
            damping=self.config.damping,
            epsilon=self.config.basis_epsilon,
            method=self._basis_method,
            tol=self.config.ppr_tol,
            max_iter=self.config.ppr_max_iter,
            recorder=self.recorder,
        )
        self.basis_from_cache = False
        if key is not None:
            save_basis(basis, self._cache_dir, key)
        return basis

    def precompute(self) -> None:
        """Force the offline basis computation (Algorithm 1 lines 2-4)."""
        _ = self.basis

    def update_graph(
        self,
        graph: SimilarityGraph,
        dirty: "Sequence[TaskId]" = (),
    ) -> None:
        """Swap in a grown graph, maintaining the basis incrementally.

        ``graph`` must contain the old task set as a prefix (task ids
        are stable; the stream only appends).  ``dirty`` names every
        old task whose row of ``S'`` changed — pass
        ``GrowableGraph.delta().dirty_rows`` — new tasks are implied
        by the size difference and need not be listed.

        With ``config.incremental`` set and a basis already
        materialised, the basis is repaired in place of a recompute
        (:meth:`repro.core.ppr.PPRBasis.repair`): only perturbed and
        new rows are re-pushed, and the result — within
        ``basis_epsilon`` of a cold rebuild — is re-keyed into the
        on-disk cache under the new graph's content hash.  Without
        ``incremental`` (or before any basis exists), the basis is
        simply dropped and the next access recomputes cold.
        """
        old_graph = self.graph
        self.graph = graph
        self._mass_cache.clear()
        if not (self.config.incremental and self._basis is not None):
            self._basis = None
            self.basis_from_cache = False
            return
        if graph.num_tasks < old_graph.num_tasks:
            raise ValueError(
                "update_graph cannot shrink the task set "
                f"({old_graph.num_tasks} -> {graph.num_tasks})"
            )
        with self.recorder.span(
            "estimator.repair", tasks=graph.num_tasks
        ):
            repaired = self._basis.repair(
                graph.normalized,
                dirty,
                damping=self.config.damping,
                epsilon=self.config.basis_epsilon,
                recorder=self.recorder,
            )
        self._basis = repaired
        self.basis_from_cache = False
        if self._cache_dir is not None:
            from repro.core.persistence import basis_cache_key, save_basis

            key = basis_cache_key(
                graph.normalized,
                self.config.damping,
                self.config.basis_epsilon,
            )
            save_basis(repaired, self._cache_dir, key)

    # ------------------------------------------------------------------
    # online phase
    # ------------------------------------------------------------------
    def estimate_raw(self, observed: Mapping[TaskId, float]) -> np.ndarray:
        """Raw linear combination ``Σ q_i · p_{t_i}`` (Lemma 3).

        Monotone in each observation; suitable for ranking tasks/workers
        but not calibrated as a probability.
        """
        return self.basis.combine(dict(observed))

    def _support_mass(self, support: frozenset[TaskId]) -> np.ndarray:
        """All-ones restart mass over ``support`` (memoised).

        The mass depends only on *which* tasks were observed, not on
        the observed values, so successive estimates for a worker whose
        support has not changed reuse it.  Callers must not mutate the
        returned array.
        """
        mass = self._mass_cache.get(support)
        if mass is None:
            self.recorder.counter(
                "repro_estimator_mass_cache_misses_total",
                "Support-mass vectors computed afresh.",
            ).inc()
            mass = self.basis.combine({t: 1.0 for t in support})
            if len(self._mass_cache) >= _MASS_CACHE_LIMIT:
                self._mass_cache.popitem(last=False)
            self._mass_cache[support] = mass
        else:
            self.recorder.counter(
                "repro_estimator_mass_cache_hits_total",
                "Support-mass vectors served from the memo cache.",
            ).inc()
            self._mass_cache.move_to_end(support)
        return mass

    def estimate(self, observed: Mapping[TaskId, float]) -> np.ndarray:
        """Calibrated accuracy vector ``p^w`` over all tasks.

        The raw combination is normalised entry-wise by the "mass"
        reaching each task from the observed support under a unit
        restart (i.e. the same combination with every observed ``q_i``
        replaced by 1).  Entries receiving negligible mass fall back to
        the configured prior.  The result lies in ``[0, 1]`` and equals
        the exact Eq. (3) solution up to basis truncation wherever the
        support covers the graph.
        """
        self.recorder.counter(
            "repro_estimator_estimates_total",
            "Calibrated accuracy-vector refreshes computed.",
        ).inc()
        observed = dict(observed)
        if not observed:
            return np.full(
                self.graph.num_tasks, self.config.prior_accuracy
            )
        raw = self.basis.combine(observed)
        mass = self._support_mass(frozenset(observed))
        prior = self.config.prior_accuracy
        out = np.full(self.graph.num_tasks, prior, dtype=np.float64)
        reached = mass > 1e-9
        # Blend toward the prior where mass is weak: an entry with total
        # incoming mass m gets m-weighted evidence and (1-m)-weighted
        # prior, capping the evidence weight at 1.
        evidence = np.zeros_like(out)
        evidence[reached] = raw[reached] / mass[reached]
        weight = np.clip(mass, 0.0, 1.0)
        out = weight * evidence + (1.0 - weight) * prior
        np.clip(out, 0.0, 1.0, out=out)
        return out

    def estimate_exact(self, observed: Mapping[TaskId, float]) -> np.ndarray:
        """Reference implementation: run Eq. (4) directly on ``q``.

        Used by tests to validate the basis path; O(iterations × nnz)
        instead of O(|T|).
        """
        q = np.zeros(self.graph.num_tasks)
        for task_id, value in observed.items():
            q[task_id] = value
        return power_iteration(
            self.graph.normalized,
            q,
            damping=self.config.damping,
            tol=self.config.ppr_tol,
            max_iter=self.config.ppr_max_iter,
        )

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def influence_support(self, task_id: TaskId) -> set[TaskId]:
        """Tasks with a non-zero basis entry from ``t_i`` (Section 5's
        influence set, used by qualification selection)."""
        row = self.basis.row(task_id)
        return {int(i) for i in np.flatnonzero(row)}

"""Configuration for the iCrowd framework.

All tunables named in the paper live here with the paper's defaults:

- ``alpha`` — Eq. (2) balance between graph smoothness and fidelity to the
  observed accuracies; the paper's Appendix D.2 settles on ``alpha = 1.0``.
- ``k`` — assignment size per microtask (paper default 3).
- ``num_qualification`` — number Q of qualification microtasks (paper uses
  10 in Section 6.3.1).
- ``qualification_threshold`` — warm-up elimination threshold (Section 2.2
  example: 0.6, i.e. reject a worker answering fewer than 3 of 5 correctly).
- ``similarity_threshold`` — edges below this similarity are dropped
  (Appendix D.1 settles on 0.8 for cos(topic); 0.5 in the running example).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class EstimatorConfig:
    """Knobs of the graph-based accuracy estimator (Section 3)."""

    #: Eq. (2) trade-off; larger pulls estimates toward observations.
    alpha: float = 1.0
    #: Convergence tolerance of the personalized-PageRank iteration.
    ppr_tol: float = 1e-8
    #: Hard cap on PPR iterations (Eq. 4 converges geometrically).
    ppr_max_iter: int = 200
    #: Entries of a basis vector below this value are truncated to keep the
    #: offline basis sparse (localised PPR); 0 disables truncation.
    basis_epsilon: float = 1e-6
    #: Default accuracy for workers with no observations at all; the paper
    #: uses the warm-up average before the first estimate exists.
    prior_accuracy: float = 0.5
    #: Directory for the on-disk offline-basis cache; None disables it
    #: (the ``REPRO_BASIS_CACHE`` environment variable then acts as the
    #: fallback default, see :class:`repro.core.AccuracyEstimator`).
    basis_cache_dir: str | None = None
    #: Route graph updates through incremental basis repair
    #: (:meth:`repro.core.ppr.PPRBasis.repair`): when the estimator's
    #: graph is swapped via ``update_graph`` and a basis already
    #: exists, only the rows the change perturbs are re-pushed — the
    #: repaired basis stays within ``basis_epsilon`` of a cold rebuild.
    #: False (default) recomputes from scratch on every graph change.
    incremental: bool = False

    def __post_init__(self) -> None:
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if not 0 <= self.prior_accuracy <= 1:
            raise ValueError(
                f"prior_accuracy must be in [0, 1], got {self.prior_accuracy}"
            )
        if self.ppr_max_iter <= 0:
            raise ValueError("ppr_max_iter must be positive")
        if self.ppr_tol <= 0:
            raise ValueError("ppr_tol must be positive")
        if self.basis_epsilon < 0:
            raise ValueError("basis_epsilon must be >= 0")

    @property
    def damping(self) -> float:
        """PPR follow probability ``1 / (1 + alpha)`` from Eq. (4).

        Clamped strictly below 1 so the α→0 end of the Appendix D.2
        sweep (pure graph smoothing) stays numerically solvable; the
        iteration cap then acts as the effective smoothing horizon.
        """
        return min(1.0 / (1.0 + self.alpha), 1.0 - 1e-6)

    @property
    def restart(self) -> float:
        """PPR restart probability ``alpha / (1 + alpha)`` from Eq. (4)."""
        return self.alpha / (1.0 + self.alpha)


@dataclass(frozen=True)
class AssignerConfig:
    """Knobs of the adaptive assignment framework (Section 4)."""

    #: Assignment size per microtask (odd for simple majority voting).
    k: int = 3
    #: Weight of the beta-variance uncertainty term in worker performance
    #: testing (Section 4.1 Step 3); the co-worker quality term gets
    #: ``1 - uncertainty_weight``.
    uncertainty_weight: float = 0.5
    #: Time window (in platform ticks) after which a silent worker is
    #: treated as inactive (paper suggests a 30-minute window).
    active_window: int = 50

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise ValueError(f"k must be positive, got {self.k}")
        if not 0 <= self.uncertainty_weight <= 1:
            raise ValueError("uncertainty_weight must be in [0, 1]")
        if self.active_window <= 0:
            raise ValueError("active_window must be positive")


@dataclass(frozen=True)
class QualificationConfig:
    """Knobs of warm-up and qualification selection (Sections 2.2 & 5)."""

    #: Number Q of qualification microtasks to select / assign.
    num_qualification: int = 10
    #: Minimum average qualification accuracy to keep a worker.  The
    #: paper's Section 2.2 example uses 0.6; with strongly
    #: domain-diverse populations (Figure 6) a domain expert averages
    #: near 0.5 over a cross-domain qualification set, so the default
    #: here is 0.5 — strict enough to drop spammers without starving
    #: the pool of experts.
    qualification_threshold: float = 0.5
    #: Strategy for picking qualification tasks: "influence" (Alg. 4) or
    #: "random" (the RandomQF baseline in Section 6.3.1).
    selection: str = "influence"

    def __post_init__(self) -> None:
        if self.num_qualification <= 0:
            raise ValueError("num_qualification must be positive")
        if not 0 <= self.qualification_threshold <= 1:
            raise ValueError("qualification_threshold must be in [0, 1]")
        if self.selection not in ("influence", "random"):
            raise ValueError(
                f"selection must be 'influence' or 'random', "
                f"got {self.selection!r}"
            )


@dataclass(frozen=True)
class GraphConfig:
    """Knobs of similarity-graph construction (Section 3.3, Appendix D.1)."""

    #: Similarity measure: "jaccard", "tfidf", "topic" or "euclidean".
    measure: str = "topic"
    #: Edges with similarity below the threshold are dropped.
    threshold: float = 0.8
    #: Number of LDA topics for the "topic" measure.
    num_topics: int = 8
    #: Upper bound on neighbours kept per task (Fig. 10's "maximal number
    #: of neighbours"); 0 keeps all above-threshold edges.
    max_neighbors: int = 0

    def __post_init__(self) -> None:
        if self.measure not in ("jaccard", "tfidf", "topic", "euclidean"):
            raise ValueError(f"unknown similarity measure {self.measure!r}")
        if not 0 <= self.threshold <= 1:
            raise ValueError("threshold must be in [0, 1]")
        if self.num_topics <= 1:
            raise ValueError("num_topics must be > 1")
        if self.max_neighbors < 0:
            raise ValueError("max_neighbors must be >= 0")


@dataclass(frozen=True)
class ICrowdConfig:
    """Top-level configuration bundle for :class:`repro.core.ICrowd`."""

    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)
    assigner: AssignerConfig = field(default_factory=AssignerConfig)
    qualification: QualificationConfig = field(
        default_factory=QualificationConfig
    )
    graph: GraphConfig = field(default_factory=GraphConfig)
    #: Consensus rule once k answers are in: "majority" (the paper's
    #: default simple majority voting) or "weighted" (votes weighted by
    #: the voters' current estimated accuracies — the "(weighted)
    #: majority voting" variant Section 2.1 mentions).
    consensus: str = "majority"
    #: Seed for any internal stochastic choices (random qualification,
    #: tie breaking); experiments thread their own RNGs for workloads.
    seed: int = 0

    def __post_init__(self) -> None:
        if self.consensus not in ("majority", "weighted"):
            raise ValueError(
                f"consensus must be 'majority' or 'weighted', "
                f"got {self.consensus!r}"
            )

    @classmethod
    def paper_defaults(cls) -> "ICrowdConfig":
        """The configuration used across the paper's experiments."""
        return cls()

    def with_k(self, k: int) -> "ICrowdConfig":
        """Copy of this config with a different assignment size."""
        return replace(self, assigner=replace(self.assigner, k=k))

    def with_alpha(self, alpha: float) -> "ICrowdConfig":
        """Copy of this config with a different estimation alpha."""
        return replace(self, estimator=replace(self.estimator, alpha=alpha))

    def with_consensus(self, consensus: str) -> "ICrowdConfig":
        """Copy of this config with a different consensus rule."""
        return replace(self, consensus=consensus)

"""Unit tests for the graph-based accuracy estimator (Section 3.1)."""

import numpy as np
import pytest

from repro.core.config import EstimatorConfig
from repro.core.estimator import AccuracyEstimator
from repro.core.graph import SimilarityGraph
from tests.core.online_oracle import combine_rows


class TestEstimateRaw:
    def test_matches_direct_iteration(self, paper_graph):
        """Algorithm 1's basis path must equal Eq. (4) run directly."""
        estimator = AccuracyEstimator(
            paper_graph, EstimatorConfig(alpha=1.0, basis_epsilon=0.0)
        )
        observed = {0: 1.0, 1: 0.0, 2: 0.0, 5: 0.8}
        raw = estimator.estimate_raw(observed)
        exact = estimator.estimate_exact(observed)
        assert np.allclose(raw, exact, atol=1e-6)

    def test_empty_observation_gives_zero(self, paper_graph):
        estimator = AccuracyEstimator(paper_graph)
        assert np.allclose(estimator.estimate_raw({}), 0.0)


class TestEstimateCalibrated:
    def test_no_observations_returns_prior(self, paper_graph):
        config = EstimatorConfig(prior_accuracy=0.5)
        estimator = AccuracyEstimator(paper_graph, config)
        estimate = estimator.estimate({})
        assert np.allclose(estimate, 0.5)

    def test_estimates_in_unit_interval(self, paper_graph):
        estimator = AccuracyEstimator(paper_graph)
        estimate = estimator.estimate({0: 1.0, 1: 0.0, 7: 0.3})
        assert estimate.min() >= 0.0
        assert estimate.max() <= 1.0

    def test_propagates_to_similar_tasks(self, paper_tasks, paper_graph):
        """The paper's running intuition: correct on t1 (iPhone) →
        higher estimates on other iPhone tasks than on iPod/iPad ones."""
        estimator = AccuracyEstimator(paper_graph)
        # correct on t1, wrong on t2 (iPod) and t3 (iPad) — 0-indexed
        estimate = estimator.estimate({0: 1.0, 1: 0.0, 2: 0.0})
        iphone = [t.task_id for t in paper_tasks if t.domain == "iphone"]
        ipod = [t.task_id for t in paper_tasks if t.domain == "ipod"]
        mean_iphone = np.mean([estimate[i] for i in iphone])
        mean_ipod = np.mean([estimate[i] for i in ipod])
        assert mean_iphone > mean_ipod

    def test_unreached_tasks_sit_at_prior(self, two_cliques):
        config = EstimatorConfig(prior_accuracy=0.5)
        estimator = AccuracyEstimator(two_cliques, config)
        estimate = estimator.estimate({0: 1.0})
        # the other clique receives no evidence
        assert np.allclose(estimate[3:], 0.5)
        assert estimate[0] > 0.5

    def test_perfect_evidence_everywhere_saturates(self, two_cliques):
        estimator = AccuracyEstimator(two_cliques)
        estimate = estimator.estimate({i: 1.0 for i in range(6)})
        assert estimate.min() > 0.9

    def test_zero_evidence_pulls_below_prior(self, two_cliques):
        estimator = AccuracyEstimator(two_cliques)
        estimate = estimator.estimate({0: 0.0, 1: 0.0, 2: 0.0})
        assert estimate[0] < 0.5
        assert estimate[1] < 0.5

    def test_alpha_extremes(self, line_graph):
        """Large alpha keeps estimates near observations; small alpha
        smooths them across the graph (Appendix D.2's trade-off)."""
        observed = {0: 1.0}
        faithful = AccuracyEstimator(
            line_graph, EstimatorConfig(alpha=100.0)
        ).estimate(observed)
        smooth = AccuracyEstimator(
            line_graph, EstimatorConfig(alpha=0.01)
        ).estimate(observed)
        # faithful: nearly all signal stays on node 0
        assert faithful[0] > 0.95
        assert faithful[2] < 0.6
        # smooth: distant nodes receive much more of the signal
        assert smooth[2] > faithful[2]


def blended_estimate(estimator, observed):
    """``estimate`` as written before its temporaries went: a prior
    vector, a masked three-step division, then the blend."""
    basis = estimator.basis
    raw = combine_rows(basis, dict(observed))
    # the support-mass memo sums rows in frozenset order
    mass = combine_rows(basis, dict.fromkeys(frozenset(observed), 1.0))
    prior = estimator.config.prior_accuracy
    out = np.full(estimator.graph.num_tasks, prior, dtype=np.float64)
    reached = mass > 1e-9
    evidence = np.zeros_like(out)
    evidence[reached] = raw[reached] / mass[reached]
    weight = np.clip(mass, 0.0, 1.0)
    out = weight * evidence + (1.0 - weight) * prior
    np.clip(out, 0.0, 1.0, out=out)
    return out


class TestEstimateBitIdentity:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_blended_formula(self, seed):
        """Seeded observations on a graph of four components and five
        isolated tasks: some tasks get no mass from the support."""
        rng = np.random.default_rng([seed, 11])
        n = 45
        similarity = np.zeros((n, n))
        for lo in range(0, 40, 10):
            block = rng.uniform(0.2, 1.0, size=(10, 10))
            similarity[lo:lo + 10, lo:lo + 10] = block * (
                rng.uniform(size=(10, 10)) < 0.4
            )
        graph = SimilarityGraph.from_matrix(
            np.maximum(similarity, similarity.T)
        )
        estimator = AccuracyEstimator(
            graph, EstimatorConfig(prior_accuracy=0.6)
        )
        for size in (1, 3, 8):
            keys = rng.choice(n, size=size, replace=False).tolist()
            observed = dict(zip(keys, rng.uniform(size=size).tolist()))
            got = estimator.estimate(observed)
            want = blended_estimate(estimator, observed)
            mass = combine_rows(
                estimator.basis, dict.fromkeys(observed, 1.0)
            )
            assert (mass <= 1e-9).any()
            assert got.tobytes() == want.tobytes()


class TestInfluenceSupport:
    def test_support_is_component(self, two_cliques):
        estimator = AccuracyEstimator(
            two_cliques, EstimatorConfig(basis_epsilon=1e-9)
        )
        support = estimator.influence_support(0)
        assert support == {0, 1, 2}

    def test_precompute_idempotent(self, line_graph):
        estimator = AccuracyEstimator(line_graph)
        estimator.precompute()
        basis_first = estimator.basis
        estimator.precompute()
        assert estimator.basis is basis_first

"""Unit tests for qualification selection and warm-up (Sections 2.2 & 5)."""

import numpy as np
import pytest

from repro.core.estimator import AccuracyEstimator
from repro.core.config import EstimatorConfig
from repro.core.graph import SimilarityGraph
from repro.core.ppr import PPRBasis
from repro.core.qualification import (
    WarmUp,
    influence,
    select_qualification_tasks,
    select_random_tasks,
)
from repro.core.types import Label
from repro.datasets import make_yahooqa
from repro.experiments.setups import DATASET_GRAPHS
from tests.core import qualification_oracle
from tests.core.ppr_oracle import clustered_graph


@pytest.fixture
def clique_basis(two_cliques):
    estimator = AccuracyEstimator(
        two_cliques, EstimatorConfig(basis_epsilon=1e-9)
    )
    return estimator.basis


class TestInfluence:
    def test_empty_selection(self, clique_basis):
        assert influence(clique_basis, []) == 0

    def test_single_task_covers_its_component(self, clique_basis):
        assert influence(clique_basis, [0]) == 3

    def test_cross_component_adds(self, clique_basis):
        assert influence(clique_basis, [0, 3]) == 6

    def test_same_component_saturates(self, clique_basis):
        assert influence(clique_basis, [0, 1]) == 3


class TestSelectQualification:
    def test_first_picks_cover_components(self, clique_basis):
        selected = select_qualification_tasks(clique_basis, budget=2)
        components = [{0, 1, 2}, {3, 4, 5}]
        hit = [bool(set(selected) & c) for c in components]
        assert all(hit)

    def test_budget_respected(self, clique_basis):
        assert len(select_qualification_tasks(clique_basis, budget=4)) == 4

    def test_no_duplicates(self, clique_basis):
        selected = select_qualification_tasks(clique_basis, budget=6)
        assert len(selected) == len(set(selected))

    def test_candidate_restriction(self, clique_basis):
        selected = select_qualification_tasks(
            clique_basis, budget=2, candidates=[3, 4, 5]
        )
        assert set(selected) <= {3, 4, 5}

    def test_rejects_bad_budget(self, clique_basis):
        with pytest.raises(ValueError):
            select_qualification_tasks(clique_basis, budget=0)

    def test_greedy_matches_exhaustive_on_small_graph(self, clique_basis):
        """For budget 2 on two 3-cliques, greedy must find a pair with
        full coverage — the true optimum."""
        selected = select_qualification_tasks(clique_basis, budget=2)
        assert influence(clique_basis, selected) == 6

    def test_spreads_across_paper_graph(self, paper_graph, paper_tasks):
        """On the (connected) Table 1 graph the mass tie-break must
        still spread picks over at least two product clusters."""
        estimator = AccuracyEstimator(paper_graph)
        selected = select_qualification_tasks(estimator.basis, budget=3)
        assert len(selected) == 3
        domains = {paper_tasks[t].domain for t in selected}
        assert len(domains) >= 2


def assert_same_picks(basis, budgets, candidates=None):
    for budget in budgets:
        picks = select_qualification_tasks(basis, budget, candidates)
        expected = qualification_oracle.select_qualification_tasks(
            basis, budget, candidates
        )
        assert picks == expected
        assert all(type(task) is int for task in picks)


class TestLazyMatchesEager:
    """Lazy greedy picks what re-scoring every candidate picks."""

    @pytest.mark.parametrize("method", ["batch", "push"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_budgets_around_the_pool_size(self, method, seed):
        graph = clustered_graph(60, 3, 3, 5, seed=seed)
        basis = PPRBasis.compute(
            graph.normalized, damping=0.5, method=method
        )
        assert_same_picks(basis, (4, 60, 65))
        candidates = list(range(1, 60, 3))
        assert_same_picks(basis, (4, 20, 23), candidates)

    @pytest.mark.parametrize("method", ["batch", "push"])
    @pytest.mark.parametrize(
        "shape",
        [(300, 8, 3, 15), (200, 1, 5, 0), (400, 40, 2, 30), (1000, 10, 8, 0)],
    )
    def test_larger_graphs(self, method, shape):
        graph = clustered_graph(*shape, seed=5)
        basis = PPRBasis.compute(
            graph.normalized, damping=0.5, method=method
        )
        assert_same_picks(basis, (10,))
        assert_same_picks(basis, (10,), list(range(0, shape[0], 7)))

    @pytest.mark.parametrize("method", ["batch", "push"])
    @pytest.mark.parametrize("shape", ["cycle", "cliques"])
    def test_tied_candidates(self, method, shape):
        """Keys that are equal in exact arithmetic but that the rounding
        of dense sums splits: a first-round bound from a sparse sum must
        stay above each of them."""
        if shape == "cycle":
            num_tasks = 64
            edges = [(i, (i + 1) % num_tasks, 1.0) for i in range(num_tasks)]
        else:
            num_tasks = 72
            edges = [
                (c * 9 + i, c * 9 + j, 1.0)
                for c in range(8)
                for i in range(9)
                for j in range(i + 1, 9)
            ]
        graph = SimilarityGraph.from_edges(num_tasks, edges)
        basis = PPRBasis.compute(
            graph.normalized, damping=0.5, method=method
        )
        assert_same_picks(basis, (5, 20))

    @pytest.mark.parametrize("seed", [1, 2])
    def test_yahooqa_graphs(self, seed):
        tasks = make_yahooqa(seed=seed)
        graph = SimilarityGraph.from_tasks(
            list(tasks), DATASET_GRAPHS["yahooqa"], seed=seed
        )
        basis = AccuracyEstimator(graph).basis
        assert_same_picks(basis, (10, graph.num_tasks))

    def test_numpy_candidates_give_python_ints(self, clique_basis):
        picks = select_qualification_tasks(
            clique_basis, 2, np.array([5, 4, 3, 4])
        )
        assert all(type(task) is int for task in picks)
        assert set(picks) <= {3, 4, 5}

    def test_rejects_candidates_out_of_range(self, clique_basis):
        with pytest.raises(ValueError, match="candidate"):
            select_qualification_tasks(clique_basis, 2, [0, 6])


class TestSelectRandom:
    def test_size_and_range(self):
        rng = np.random.default_rng(0)
        selected = select_random_tasks(50, 10, rng)
        assert len(selected) == 10
        assert all(0 <= t < 50 for t in selected)
        assert len(set(selected)) == 10

    def test_budget_clamped_to_population(self):
        rng = np.random.default_rng(0)
        assert len(select_random_tasks(3, 10, rng)) == 3

    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError):
            select_random_tasks(5, 0, np.random.default_rng(0))


class TestWarmUp:
    def make_warmup(self, threshold=0.5):
        truth = {0: Label.YES, 1: Label.NO, 2: Label.YES, 3: Label.NO}
        return WarmUp(truth, threshold=threshold)

    def test_serves_pending_tasks_in_order(self):
        warmup = self.make_warmup()
        assert warmup.next_task("w") == 0
        warmup.grade("w", 0, Label.YES)
        assert warmup.next_task("w") == 1

    def test_grading(self):
        warmup = self.make_warmup()
        assert warmup.grade("w", 0, Label.YES) is True
        assert warmup.grade("w", 1, Label.YES) is False
        assert warmup.average_accuracy("w") == pytest.approx(0.5)

    def test_rejection_below_threshold(self):
        warmup = self.make_warmup(threshold=0.6)
        for task, answer in [
            (0, Label.NO),
            (1, Label.YES),
            (2, Label.NO),
            (3, Label.YES),
        ]:
            warmup.grade("w", task, answer)  # all wrong
        assert not warmup.is_qualified("w")
        assert warmup.next_task("w") is None

    def test_paper_example_three_of_five(self):
        """Section 2.2: threshold 0.6 over 5 tasks rejects < 3 correct."""
        truth = {i: Label.YES for i in range(5)}
        warmup = WarmUp(truth, threshold=0.6)
        answers = [Label.YES, Label.YES, Label.NO, Label.NO, Label.NO]
        for task, answer in enumerate(answers):
            warmup.grade("w", task, answer)
        assert not warmup.is_qualified("w")  # only 2 of 5 correct

        warmup2 = WarmUp(truth, threshold=0.6)
        answers2 = [Label.YES, Label.YES, Label.YES, Label.NO, Label.NO]
        for task, answer in enumerate(answers2):
            warmup2.grade("w2", task, answer)
        assert warmup2.is_qualified("w2")  # exactly 3 of 5

    def test_no_rejection_before_finishing(self):
        warmup = self.make_warmup(threshold=1.0)
        warmup.grade("w", 0, Label.NO)  # wrong, but only 1 of 4 answered
        assert warmup.is_qualified("w")
        assert not warmup.has_finished("w")

    def test_double_grading_rejected(self):
        warmup = self.make_warmup()
        warmup.grade("w", 0, Label.YES)
        with pytest.raises(ValueError, match="already graded"):
            warmup.grade("w", 0, Label.YES)

    def test_grade_unknown_task(self):
        warmup = self.make_warmup()
        with pytest.raises(ValueError, match="not a qualification"):
            warmup.grade("w", 99, Label.YES)

    def test_qualified_workers_lists_finished_only(self):
        warmup = self.make_warmup(threshold=0.0)
        for task in range(4):
            warmup.grade("done", task, Label.YES)
        warmup.grade("partial", 0, Label.YES)
        assert warmup.qualified_workers() == ["done"]

    def test_requires_tasks_and_valid_threshold(self):
        with pytest.raises(ValueError):
            WarmUp({}, threshold=0.5)
        with pytest.raises(ValueError):
            WarmUp({0: Label.YES}, threshold=1.5)

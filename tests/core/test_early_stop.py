"""Unit tests for confidence-based early stopping."""

import pytest

from repro.core.early_stop import EarlyStopICrowd
from repro.core.types import AnswerOutcome, Label, Task, TaskSet
from tests.core.board_oracle import assert_board_matches_records


@pytest.fixture
def framework(paper_tasks, paper_graph, tiny_config):
    framework = EarlyStopICrowd(
        paper_tasks,
        tiny_config,
        graph=paper_graph,
        qualification_tasks=[0, 1],
        confidence_threshold=0.6,
        min_votes=2,
    )
    # three perfectly-graded workers so estimates are confident
    for worker in ("w1", "w2", "w3"):
        framework.on_answer(worker, 0, paper_tasks[0].truth)
        framework.on_answer(worker, 1, paper_tasks[1].truth)
    return framework


class TestEarlyStop:
    def test_two_confident_agreeing_votes_complete_task(self, framework):
        framework.estimate_for("w1")
        framework.estimate_for("w2")
        framework.on_answer("w1", 5, Label.YES)
        assert 5 not in framework.completed_tasks()  # min_votes=2
        framework.on_answer("w2", 5, Label.YES)
        assert 5 in framework.completed_tasks()
        assert framework.predictions()[5] is Label.YES
        # completed with 2 of k = 3 votes: the slot left is closed too
        assert framework._board.free[5] == 0
        assert_board_matches_records(framework._board)

    def test_disagreement_defers_to_more_votes(self, framework):
        framework.estimate_for("w1")
        framework.estimate_for("w2")
        framework.on_answer("w1", 5, Label.YES)
        framework.on_answer("w2", 5, Label.NO)
        assert 5 not in framework.completed_tasks()
        framework.on_answer("w3", 5, Label.NO)
        # k=3 reached → completes regardless
        assert 5 in framework.completed_tasks()
        assert framework.predictions()[5] is Label.NO

    def test_votes_spent_counts_non_test_answers(self, framework):
        framework.on_answer("w1", 5, Label.YES)
        framework.on_answer("w2", 7, Label.NO, is_test=True)
        assert framework.votes_spent() == 1

    def test_repeated_vote_is_a_duplicate(self, framework):
        assert framework.on_answer("w1", 5, Label.YES) is AnswerOutcome.ACCEPTED
        assert framework.on_answer("w1", 5, Label.YES) is AnswerOutcome.DUPLICATE

    def test_vote_on_a_completed_task_is_ignored(self, framework):
        framework.estimate_for("w1")
        framework.estimate_for("w2")
        framework.on_answer("w1", 5, Label.YES)
        framework.on_answer("w2", 5, Label.YES)
        assert 5 in framework.completed_tasks()
        assert framework.on_answer("w3", 5, Label.NO) is AnswerOutcome.IGNORED
        assert framework.votes_spent() == 2

    def test_validation(self, paper_tasks, paper_graph, tiny_config):
        with pytest.raises(ValueError, match="confidence_threshold"):
            EarlyStopICrowd(
                paper_tasks, tiny_config, graph=paper_graph,
                qualification_tasks=[0, 1],
                confidence_threshold=0.4,
            )
        with pytest.raises(ValueError, match="min_votes"):
            EarlyStopICrowd(
                paper_tasks, tiny_config, graph=paper_graph,
                qualification_tasks=[0, 1],
                min_votes=0,
            )

    def test_rejects_m_choice_tasks(self, tiny_config):
        choices = ("cat", "dog", "bird")
        tasks = TaskSet(
            [Task(i, f"pet photo {i}", "d", choices[i % 3]) for i in range(6)],
            choices,
        )
        with pytest.raises(ValueError, match="binary"):
            EarlyStopICrowd(tasks, tiny_config, qualification_tasks=[0, 1])


class TestBudgetSavings:
    def test_spends_fewer_votes_than_fixed_k(self):
        """End to end: early stopping must save answers without a
        quality collapse."""
        from repro.experiments.runner import build_policy
        from repro.experiments.setups import make_setup
        from repro.platform import SimulatedPlatform

        setup = make_setup(
            "itemcompare", seed=17, scale=0.15, num_workers=14
        )
        fixed = build_policy("iCrowd", setup)
        fixed_report = SimulatedPlatform(
            setup.tasks, setup.fresh_pool("budget"), fixed
        ).run()
        early = EarlyStopICrowd(
            setup.tasks,
            setup.config,
            graph=setup.graph,
            qualification_tasks=list(setup.qualification_tasks),
            estimator=setup.estimator,
            confidence_threshold=0.7,
        )
        early_report = SimulatedPlatform(
            setup.tasks, setup.fresh_pool("budget"), early
        ).run()
        assert early_report.finished
        exclude = set(setup.qualification_tasks)
        fixed_votes = sum(
            1
            for e in fixed_report.events.answers()
            if not e.is_test and e.task_id not in exclude
        )
        assert early.votes_spent() < fixed_votes
        fixed_acc = fixed_report.accuracy(setup.tasks, exclude=exclude)
        early_acc = early_report.accuracy(setup.tasks, exclude=exclude)
        assert early_acc >= fixed_acc - 0.12


class TestOnThePlatform:
    def test_duplicate_submissions_do_not_break_the_run(self):
        """The simulator re-delivers duplicates to probe the policy; an
        early-stopping policy must report them, not accept them."""
        from repro.experiments.setups import make_setup
        from repro.platform import FaultConfig, SimulatedPlatform

        setup = make_setup("yahooqa", seed=5, num_workers=12)
        policy = EarlyStopICrowd(
            setup.tasks,
            setup.config,
            graph=setup.graph,
            qualification_tasks=list(setup.qualification_tasks),
            estimator=setup.estimator,
        )
        platform = SimulatedPlatform(
            setup.tasks,
            setup.fresh_pool("duplicates"),
            policy,
            faults=FaultConfig(duplicate_submission=0.1, seed=5),
            seed=5,
        )
        report = platform.run(max_steps=600)
        assert report.faults.duplicates_dropped > 0
        assert report.payments.duplicate_attempts == 0

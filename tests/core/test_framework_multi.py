"""``ICrowd`` over a 3-choice task set (the Section 2.1 extension)."""

import numpy as np
import pytest

from repro.core.config import GraphConfig, ICrowdConfig, QualificationConfig
from repro.core.framework import ICrowd
from repro.core.types import AnswerOutcome, Task, TaskSet
from repro.utils.rng import spawn_rng
from tests.core import online_oracle
from tests.core.board_oracle import assert_board_matches_records

CHOICES = ("cat", "dog", "bird")


def make_tasks():
    """Twelve 3-choice tasks in two textual clusters."""
    rows = []
    for i in range(6):
        rows.append(
            Task(
                task_id=i,
                text=f"animal farm barn picture {i} shared words",
                domain="farm",
                truth=CHOICES[i % 3],
            )
        )
    for i in range(6, 12):
        rows.append(
            Task(
                task_id=i,
                text=f"pet city apartment photo {i} common tokens",
                domain="city",
                truth=CHOICES[i % 3],
            )
        )
    return TaskSet(rows, CHOICES)


@pytest.fixture
def framework():
    config = ICrowdConfig(
        qualification=QualificationConfig(
            num_qualification=2, qualification_threshold=0.5
        ),
        graph=GraphConfig(measure="jaccard", threshold=0.3),
    )
    return ICrowd(make_tasks(), config, qualification_tasks=[0, 6])


def finish_warmup(framework, worker, correct=True):
    tasks = {t.task_id: t for t in framework.tasks}
    while True:
        assignment = framework.on_worker_request(worker)
        if assignment is None or not assignment.is_test:
            return assignment
        if assignment.task_id not in framework.qualification_tasks:
            return assignment
        truth = tasks[assignment.task_id].truth
        answer = truth if correct else next(
            c for c in CHOICES if c != truth
        )
        framework.on_answer(worker, assignment.task_id, answer)


class TestConstruction:
    def test_validates_truth_in_choices(self):
        bad = [Task(0, "x", "d", "dragon")]
        with pytest.raises(ValueError, match="not in"):
            TaskSet(bad, CHOICES)

    def test_validates_dense_ids(self):
        bad = [Task(3, "x", "d", "cat")]
        with pytest.raises(ValueError, match="dense"):
            TaskSet(bad, CHOICES)

    def test_validates_choice_count(self):
        tasks = [Task(0, "x", "d", "cat")]
        with pytest.raises(ValueError, match="two distinct"):
            TaskSet(tasks, ("cat",))

    def test_auto_qualification(self):
        config = ICrowdConfig(
            qualification=QualificationConfig(
                num_qualification=3, qualification_threshold=0.5
            ),
            graph=GraphConfig(measure="jaccard", threshold=0.3),
        )
        framework = ICrowd(make_tasks(), config)
        assert len(framework.qualification_tasks) == 3


class TestFlow:
    def test_warmup_then_assignment(self, framework):
        assignment = finish_warmup(framework, "w1")
        assert assignment is not None
        assert assignment.task_id not in framework.qualification_tasks

    def test_late_vote_after_test_release_is_duplicate(self, framework):
        """A vote held past its lease expiry, arriving after the same
        worker answered the re-leased task as a performance test, must
        not count."""
        assignment = finish_warmup(framework, "w1")
        assert assignment is not None and not assignment.is_test
        task_id = assignment.task_id
        # the vote lease expires: the slot is released
        assert framework.release_assignment("w1", task_id)
        # the task is leased again to w1 as a test, and answered
        assert framework.on_answer("w1", task_id, "cat", is_test=True).accepted
        votes_before = list(framework._votes[task_id].answers)
        # the held vote arrives last
        outcome = framework.on_answer("w1", task_id, "dog")
        assert outcome is AnswerOutcome.DUPLICATE
        assert framework._votes[task_id].answers == votes_before
        assert_board_matches_records(framework._board)

    def test_label_outside_the_choices_changes_nothing(self, framework):
        finish_warmup(framework, "w1")
        state = (
            framework._clock,
            framework._seq,
            framework.assignment_epoch,
            dict(framework._last_seen),
        )
        for task_id, is_test in ((0, False), (2, False), (3, True)):
            with pytest.raises(ValueError, match="not among"):
                framework.on_answer("w1", task_id, "dragon", is_test)
        assert state == (
            framework._clock,
            framework._seq,
            framework.assignment_epoch,
            dict(framework._last_seen),
        )
        assert framework._votes[2].answers == []

    def test_plurality_completion(self, framework):
        for worker in ("w1", "w2", "w3"):
            finish_warmup(framework, worker)
        framework.on_answer("w1", 2, "dog")
        framework.on_answer("w2", 2, "dog")
        framework.on_answer("w3", 2, "bird")
        assert 2 in framework.completed_tasks()
        assert framework.predictions()[2] == "dog"

    def test_weighted_consensus_lets_an_expert_win(self, framework):
        """Under the weighted rule one confident vote for "bird"
        outscores two doubtful votes for "dog" (0.95 - 0.4 against
        -0.95 + 0.4); plurality picks "dog"."""
        weighted = ICrowd(
            make_tasks(),
            framework.config.with_consensus("weighted"),
            qualification_tasks=[0, 6],
        )
        weight_of = {"expert": 0.95, "d1": 0.2, "d2": 0.2}
        for policy in (framework, weighted):
            policy._accuracy_of = lambda worker, _task: weight_of[worker]
            policy.on_answer("expert", 2, "bird")
            policy.on_answer("d1", 2, "dog")
            policy.on_answer("d2", 2, "dog")
        assert framework.consensus(2) == "dog"
        assert weighted.consensus(2) == "bird"

    def test_default_actives_are_the_activity_window(
        self, framework, monkeypatch
    ):
        """A request without ``active_workers`` (as the HTTP server
        sends it) plans Algorithm 3 over every recently seen worker."""
        for worker in ("w1", "w2", "w3"):
            finish_warmup(framework, worker)
        planned = []
        choose = framework._choose_assignment

        def spy(worker_id, actives):
            planned.append(sorted(actives))
            return choose(worker_id, actives)

        monkeypatch.setattr(framework, "_choose_assignment", spy)
        framework.on_worker_request("w1")
        assert planned == [["w1", "w2", "w3"]]

    def test_rejection(self, framework):
        config_threshold = framework.warmup.threshold
        assert config_threshold == 0.5
        tasks = {t.task_id: t for t in framework.tasks}
        for _ in range(2):
            assignment = framework.on_worker_request("bad")
            truth = tasks[assignment.task_id].truth
            wrong = next(c for c in CHOICES if c != truth)
            framework.on_answer("bad", assignment.task_id, wrong)
        assert framework.is_worker_rejected("bad")
        assert framework.on_worker_request("bad") is None

    def test_estimates_separate_good_and_bad(self, framework):
        finish_warmup(framework, "good", correct=True)
        finish_warmup(framework, "bad2", correct=True)
        # bad2 then answers a completed task against consensus
        for worker in ("good", "bad2", "w3"):
            if worker == "w3":
                finish_warmup(framework, worker)
        framework.on_answer("good", 3, "cat")
        framework.on_answer("w3", 3, "cat")
        framework.on_answer("bad2", 3, "bird")
        good = framework.estimate_for("good")
        bad = framework.estimate_for("bad2")
        assert good.mean() > bad.mean()

    def test_full_job_completes(self):
        config = ICrowdConfig(
            qualification=QualificationConfig(
                num_qualification=2, qualification_threshold=0.0
            ),
            graph=GraphConfig(measure="jaccard", threshold=0.3),
        )
        tasks = make_tasks()
        framework = ICrowd(tasks, config, qualification_tasks=[0, 6])
        rng = spawn_rng(1, "multi-full")
        truth = {t.task_id: t.truth for t in tasks}
        workers = [f"w{i}" for i in range(5)]

        def answer(worker, task_id):
            if rng.random() < 0.8:
                return truth[task_id]
            others = [c for c in CHOICES if c != truth[task_id]]
            return others[int(rng.integers(0, 2))]

        for _ in range(500):
            if framework.is_finished():
                break
            worker = workers[int(rng.integers(0, len(workers)))]
            assignment = framework.on_worker_request(worker, workers)
            if assignment is None:
                continue
            framework.on_answer(
                worker,
                assignment.task_id,
                answer(worker, assignment.task_id),
                assignment.is_test,
            )
        assert framework.is_finished()
        predictions = framework.predictions()
        accuracy = np.mean(
            [
                predictions[t.task_id] == t.truth
                for t in tasks
                if t.task_id not in framework.qualification_tasks
            ]
        )
        assert accuracy > 0.6

    def test_test_choice_matches_oracle(self):
        """The framework's own tester, over ``_observed_of``, picks the
        per-candidate oracle's test task for every worker mid-job."""
        config = ICrowdConfig(
            qualification=QualificationConfig(
                num_qualification=2, qualification_threshold=0.0
            ),
            graph=GraphConfig(measure="jaccard", threshold=0.3),
        )
        tasks = make_tasks()
        framework = ICrowd(tasks, config, qualification_tasks=[0, 6])
        truth = {t.task_id: t.truth for t in tasks}
        rng = spawn_rng(2, "multi-tester")
        workers = [f"w{i}" for i in range(6)]
        tester = framework.assigner.tester
        assert tester.observed_of == framework._observed_of
        picked = []
        for _ in range(40):
            worker = workers[int(rng.integers(0, len(workers)))]
            assignment = framework.on_worker_request(worker, workers)
            if assignment is not None:
                framework.on_answer(
                    worker,
                    assignment.task_id,
                    truth[assignment.task_id] if rng.random() < 0.7
                    else CHOICES[int(rng.integers(0, 3))],
                    assignment.is_test,
                )
            assert_board_matches_records(framework._board)
            states = list(framework._board.states.values())
            estimates = framework._estimates
            for other in workers:
                chosen = tester.choose_test_task(other, states, estimates)
                assert chosen == online_oracle.choose_test_task(
                    tester, other, states, estimates
                )
                picked.append(chosen)
        assert any(task is not None for task in picked)
        assert any(framework._observed_of(w) for w in workers)

"""Unit tests for AvgAccPV, QF-Only and BestEffort baselines."""

import numpy as np
import pytest

from repro.baselines import AvgAccPV, BestEffort, QFOnly
from repro.core.types import Label
from tests.core.board_oracle import assert_board_matches_records


class TestAvgAccPV:
    def make_policy(self, paper_tasks, threshold=0.5):
        return AvgAccPV(
            paper_tasks,
            qualification_tasks=[0, 1],
            threshold=threshold,
            k=3,
            seed=0,
        )

    def test_qualification_served_first(self, paper_tasks):
        policy = self.make_policy(paper_tasks)
        assignment = policy.on_worker_request("w1")
        assert assignment.is_test
        assert assignment.task_id in (0, 1)

    def test_rejection_below_threshold(self, paper_tasks):
        policy = self.make_policy(paper_tasks, threshold=1.0)
        for task_id in (0, 1):
            policy.on_worker_request("bad")
            policy.on_answer(
                "bad", task_id, paper_tasks[task_id].truth.flipped()
            )
        assert policy.is_worker_rejected("bad")
        assert policy.on_worker_request("bad") is None

    def test_qualified_worker_served_random_tasks(self, paper_tasks):
        policy = self.make_policy(paper_tasks, threshold=0.0)
        for task_id in (0, 1):
            policy.on_worker_request("w1")
            policy.on_answer("w1", task_id, paper_tasks[task_id].truth)
        assignment = policy.on_worker_request("w1")
        assert not assignment.is_test
        assert assignment.task_id not in (0, 1)

    def test_worker_accuracies_from_qualification(self, paper_tasks):
        policy = self.make_policy(paper_tasks, threshold=0.0)
        policy.on_answer("w1", 0, paper_tasks[0].truth)
        policy.on_answer("w1", 1, paper_tasks[1].truth.flipped())
        assert policy.worker_accuracies()["w1"] == pytest.approx(0.5)

    def test_pv_aggregation_weighted_by_accuracy(self, paper_tasks):
        policy = self.make_policy(paper_tasks, threshold=0.0)
        # expert answers both qualification tasks right, spammers wrong
        for worker, ok in [("expert", True), ("s1", False), ("s2", False)]:
            for task_id in (0, 1):
                truth = paper_tasks[task_id].truth
                policy.on_answer(
                    worker, task_id, truth if ok else truth.flipped()
                )
        # on task 5, the expert says YES, spammers say NO
        policy.on_answer("expert", 5, Label.YES)
        policy.on_answer("s1", 5, Label.NO)
        policy.on_answer("s2", 5, Label.NO)
        assert policy.predictions()[5] is Label.YES


@pytest.fixture
def variant_kwargs(paper_tasks, paper_graph, tiny_config):
    return dict(
        tasks=paper_tasks,
        config=tiny_config,
        graph=paper_graph,
        qualification_tasks=[0, 1],
    )


def warmup(policy, tasks, worker, correct=True):
    for _ in range(len(policy.qualification_tasks)):
        assignment = policy.on_worker_request(worker)
        truth = tasks[assignment.task_id].truth
        policy.on_answer(
            worker, assignment.task_id, truth if correct else truth.flipped()
        )


class TestQFOnly:
    def test_observed_frozen_to_qualification(self, variant_kwargs, paper_tasks):
        policy = QFOnly(**variant_kwargs)
        warmup(policy, paper_tasks, "w1")
        before = policy.estimate_for("w1").copy()
        # complete a consensus task — estimates must NOT change
        for worker in ("w1", "w2", "w3"):
            if worker != "w1":
                warmup(policy, paper_tasks, worker)
            policy.on_answer(worker, 5, Label.YES)
        after = policy.estimate_for("w1")
        assert (before == after).all()

    def test_still_assigns_tasks(self, variant_kwargs, paper_tasks):
        policy = QFOnly(**variant_kwargs)
        warmup(policy, paper_tasks, "w1")
        assignment = policy.on_worker_request("w1")
        assert assignment is not None


def best_effort_oracle(states, worker_id, accuracies):
    """The per-state loop ``BestEffort`` ran before the task board: the
    open, unfilled, unseen task with the highest estimate, the lowest
    task id among equal ones, in whatever order ``states`` come."""
    best_task = None
    best_value = -1.0
    for state in states:
        if state.completed or state.remaining == 0:
            continue
        if state.has_seen(worker_id):
            continue
        value = float(accuracies[state.task_id])
        if value > best_value or (
            value == best_value
            and best_task is not None
            and state.task_id < best_task
        ):
            best_value = value
            best_task = state.task_id
    return best_task


class TestBestEffort:
    def test_board_choice_matches_loop_oracle(self, variant_kwargs):
        """Seeded boards with accuracy ties, seen (held or tested),
        full and completed tasks: the array choice equals the loop's."""
        workers = [f"w{i}" for i in range(5)]
        grid = np.array([0.25, 0.5, 0.75])
        choices = []
        for seed in range(60):
            rng = np.random.default_rng(seed)
            policy = BestEffort(**variant_kwargs)
            board = policy._board
            ids = list(board.states)
            closing = [0.05, 0.5, 0.95][seed % 3]
            for _ in range(int(rng.integers(0, 60))):
                worker = workers[int(rng.integers(0, len(workers)))]
                task_id = ids[int(rng.integers(0, len(ids)))]
                [board.hold, board.test, board.release][
                    int(rng.integers(0, 3))
                ](worker, task_id)
                if rng.random() < closing:
                    board.complete(task_id)
            assert_board_matches_records(board)
            states = list(board.states.values())
            rng.shuffle(states)
            for worker in workers + ["fresh"]:
                vector = grid[rng.integers(0, 3, size=len(board.free))]
                policy._estimates[worker] = vector
                chosen = policy._choose_assignment(worker, [worker])
                expected = best_effort_oracle(states, worker, vector)
                assert (chosen and chosen.task_id) == expected
                choices.append(expected)
        assert None in choices
        assert len(set(choices)) > 5

    def test_assigns_workers_own_best_task(self, variant_kwargs, paper_tasks):
        policy = BestEffort(**variant_kwargs)
        warmup(policy, paper_tasks, "w1")
        assignment = policy.on_worker_request("w1")
        assert assignment is not None
        estimates = policy.estimate_for("w1")
        candidates = [
            t for t in policy.uncompleted_tasks()
        ]
        best_value = max(float(estimates[t]) for t in candidates)
        assert float(estimates[assignment.task_id]) == pytest.approx(
            best_value
        )

    def test_never_reassigns_seen_task(self, variant_kwargs, paper_tasks):
        policy = BestEffort(**variant_kwargs)
        warmup(policy, paper_tasks, "w1")
        seen = set()
        for _ in range(5):
            assignment = policy.on_worker_request("w1")
            if assignment is None:
                break
            assert assignment.task_id not in seen
            seen.add(assignment.task_id)
            policy.on_answer("w1", assignment.task_id, Label.YES)

    def test_returns_none_when_exhausted(self, paper_tasks, tiny_config, paper_graph):
        policy = BestEffort(
            paper_tasks,
            tiny_config,
            graph=paper_graph,
            qualification_tasks=[0, 1],
        )
        warmup(policy, paper_tasks, "w1")
        for _ in range(len(paper_tasks)):
            assignment = policy.on_worker_request("w1")
            if assignment is None:
                break
            policy.on_answer("w1", assignment.task_id, Label.YES)
        assert policy.on_worker_request("w1") is None

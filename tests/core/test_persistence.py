"""Unit tests for checkpoint/restore of a live iCrowd job."""

import json

import numpy as np
import pytest

from repro.core.framework import ICrowd
from repro.core.persistence import (
    CHECKPOINT_VERSION,
    checkpoint_state,
    load_checkpoint,
    restore_state,
    save_checkpoint,
)
from repro.core.types import Label
from tests.core.board_oracle import assert_board_matches_records


@pytest.fixture
def live_framework(paper_tasks, paper_graph, tiny_config):
    """A framework with warm-up progress, votes and a consensus."""
    framework = ICrowd(
        paper_tasks, tiny_config, graph=paper_graph,
        qualification_tasks=[0, 1],
    )
    # worker w1 finishes warm-up correctly; w2 gets one wrong
    framework.on_answer("w1", 0, paper_tasks[0].truth)
    framework.on_answer("w1", 1, paper_tasks[1].truth)
    framework.on_answer("w2", 0, paper_tasks[0].truth.flipped())
    framework.on_answer("w2", 1, paper_tasks[1].truth)
    # one consensus task completes (k=3)
    for worker in ("w1", "w2", "w3"):
        framework.on_answer(worker, 5, Label.YES)
    # one in-flight task
    framework.on_answer("w1", 7, Label.NO)
    # a test answer
    framework.on_answer("w2", 5, Label.NO, is_test=True)
    return framework


def rebuild(framework, paper_tasks, paper_graph, tiny_config, tmp_path):
    path = tmp_path / "checkpoint.json"
    save_checkpoint(framework, path)
    return load_checkpoint(
        paper_tasks, tiny_config, path, graph=paper_graph
    )


class TestRoundTrip:
    def test_checkpoint_is_json(self, live_framework, tmp_path):
        path = tmp_path / "c.json"
        save_checkpoint(live_framework, path)
        payload = json.loads(path.read_text())
        assert payload["version"] == CHECKPOINT_VERSION

    def test_predictions_identical(
        self, live_framework, paper_tasks, paper_graph, tiny_config,
        tmp_path,
    ):
        restored = rebuild(
            live_framework, paper_tasks, paper_graph, tiny_config,
            tmp_path,
        )
        assert restored.predictions() == live_framework.predictions()

    def test_completed_and_votes_identical(
        self, live_framework, paper_tasks, paper_graph, tiny_config,
        tmp_path,
    ):
        restored = rebuild(
            live_framework, paper_tasks, paper_graph, tiny_config,
            tmp_path,
        )
        assert restored.completed_tasks() == live_framework.completed_tasks()
        for task_id, vote_state in live_framework.votes().items():
            restored_votes = restored.votes()[task_id]
            assert [
                (a.worker_id, a.label) for a in restored_votes.answers
            ] == [(a.worker_id, a.label) for a in vote_state.answers]

    def test_estimates_recomputed_identically(
        self, live_framework, paper_tasks, paper_graph, tiny_config,
        tmp_path,
    ):
        original = live_framework.estimate_for("w1").copy()
        restored = rebuild(
            live_framework, paper_tasks, paper_graph, tiny_config,
            tmp_path,
        )
        assert np.allclose(restored.estimate_for("w1"), original)

    def test_warmup_progress_survives(
        self, live_framework, paper_tasks, paper_graph, tiny_config,
        tmp_path,
    ):
        restored = rebuild(
            live_framework, paper_tasks, paper_graph, tiny_config,
            tmp_path,
        )
        assert restored.warmup.has_finished("w1")
        assert restored.warmup.average_accuracy("w2") == pytest.approx(0.5)
        # w3 never saw qualification: still gets it first
        assignment = restored.on_worker_request("w3")
        assert assignment.task_id in restored.qualification_tasks

    def test_double_vote_still_deduplicated_after_restore(
        self, live_framework, paper_tasks, paper_graph, tiny_config,
        tmp_path,
    ):
        from repro.core.types import AnswerOutcome

        restored = rebuild(
            live_framework, paper_tasks, paper_graph, tiny_config,
            tmp_path,
        )
        votes_before = list(restored.votes()[7].answers)
        outcome = restored.on_answer("w1", 7, Label.YES)
        assert outcome is AnswerOutcome.DUPLICATE
        assert restored.votes()[7].answers == votes_before

    def test_run_continues_after_restore(
        self, live_framework, paper_tasks, paper_graph, tiny_config,
        tmp_path,
    ):
        restored = rebuild(
            live_framework, paper_tasks, paper_graph, tiny_config,
            tmp_path,
        )
        # completing task 7 with two more votes works
        restored.on_answer("w2", 7, Label.NO)
        restored.on_answer("w3", 7, Label.NO)
        assert 7 in restored.completed_tasks()

    def test_restored_board_replays_records_in_sorted_order(
        self, live_framework, paper_tasks, paper_graph, tiny_config,
        tmp_path,
    ):
        """Each restored worker set iterates as ``set(sorted_list)``
        (the co-worker summation order), and the board's arrays equal
        the restored records."""
        crowd = [f"x{i:02d}" for i in range(40)]
        board = live_framework._board
        for worker in reversed(crowd):
            board.test(worker, 9)
        for worker in crowd[::3]:
            board.hold(worker, 9)
        restored = rebuild(
            live_framework, paper_tasks, paper_graph, tiny_config,
            tmp_path,
        )
        for task_id, state in live_framework._board.states.items():
            again = restored._board.states[task_id]
            for field in ("assigned_workers", "tested_workers"):
                order = list(getattr(again, field))
                # repro-lint: disable=RL003 -- the set order is the check
                expected = list(set(sorted(getattr(state, field))))
                assert order == expected
            assert again.completed == state.completed
        assert_board_matches_records(restored._board)


class TestValidation:
    def test_version_mismatch(self, live_framework, paper_tasks,
                              paper_graph, tiny_config):
        payload = checkpoint_state(live_framework)
        payload["version"] = 99
        fresh = ICrowd(
            paper_tasks, tiny_config, graph=paper_graph,
            qualification_tasks=[0, 1],
        )
        with pytest.raises(ValueError, match="version"):
            restore_state(fresh, payload)

    def test_qualification_mismatch(self, live_framework, paper_tasks,
                                    paper_graph, tiny_config):
        payload = checkpoint_state(live_framework)
        fresh = ICrowd(
            paper_tasks, tiny_config, graph=paper_graph,
            qualification_tasks=[2, 3],
        )
        with pytest.raises(ValueError, match="qualification"):
            restore_state(fresh, payload)

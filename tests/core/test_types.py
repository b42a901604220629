"""Unit tests for core value types."""

import pytest

from repro.core.types import (
    Answer,
    Label,
    Task,
    TaskSet,
    VoteState,
)


class TestLabel:
    def test_flipped_is_involution(self):
        assert Label.YES.flipped() is Label.NO
        assert Label.NO.flipped() is Label.YES
        assert Label.YES.flipped().flipped() is Label.YES

    def test_from_bool(self):
        assert Label.from_bool(True) is Label.YES
        assert Label.from_bool(False) is Label.NO

    def test_int_values_match_binary_convention(self):
        assert int(Label.NO) == 0
        assert int(Label.YES) == 1


class TestTask:
    def test_tokens_are_lowercased(self):
        task = Task(0, "iPhone 4 WiFi", "phones", Label.YES)
        assert task.tokens() == frozenset({"iphone", "4", "wifi"})

    def test_tokens_deduplicate(self):
        task = Task(0, "a a b", "d", Label.NO)
        assert task.tokens() == frozenset({"a", "b"})

    def test_frozen(self):
        task = Task(0, "x", "d", Label.NO)
        with pytest.raises(AttributeError):
            task.text = "y"


class TestAnswer:
    def test_is_correct(self):
        answer = Answer(task_id=3, worker_id="w1", label=Label.YES)
        assert answer.is_correct(Label.YES)
        assert not answer.is_correct(Label.NO)


class TestTaskSet:
    def test_rejects_non_dense_ids(self):
        tasks = [Task(1, "x", "d", Label.NO)]
        with pytest.raises(ValueError, match="dense"):
            TaskSet(tasks)

    def test_choices_default_to_binary(self):
        tasks = TaskSet([Task(0, "x", "d", Label.YES)])
        assert tasks.choices == (Label.NO, Label.YES)

    def test_rejects_bad_choices(self):
        tasks = [Task(0, "x", "d", "a")]
        for choices in (("a",), ("a", "a"), ("a", "b", "a")):
            with pytest.raises(ValueError, match="two distinct"):
                TaskSet(tasks, choices)
        with pytest.raises(ValueError, match="not in"):
            TaskSet(tasks)

    def test_len_and_indexing(self):
        tasks = TaskSet(
            [Task(i, f"t{i}", "d", Label.NO) for i in range(4)]
        )
        assert len(tasks) == 4
        assert tasks[2].text == "t2"
        assert list(tasks.ids()) == [0, 1, 2, 3]

    def test_domains_in_first_appearance_order(self):
        tasks = TaskSet(
            [
                Task(0, "a", "beta", Label.NO),
                Task(1, "b", "alpha", Label.NO),
                Task(2, "c", "beta", Label.NO),
            ]
        )
        assert tasks.domains() == ["beta", "alpha"]

    def test_by_domain(self):
        tasks = TaskSet(
            [
                Task(0, "a", "x", Label.NO),
                Task(1, "b", "y", Label.NO),
                Task(2, "c", "x", Label.NO),
            ]
        )
        assert [t.task_id for t in tasks.by_domain("x")] == [0, 2]

    def test_truths(self):
        tasks = TaskSet(
            [
                Task(0, "a", "x", Label.YES),
                Task(1, "b", "x", Label.NO),
            ]
        )
        assert tasks.truths() == [Label.YES, Label.NO]


class TestVoteState:
    def test_rejects_duplicate_worker(self):
        state = VoteState(task_id=0, k=3)
        state.add(Answer(0, "w1", Label.YES))
        with pytest.raises(ValueError, match="already answered"):
            state.add(Answer(0, "w1", Label.NO))

    def test_completion_at_k(self):
        state = VoteState(task_id=0, k=3)
        for i, label in enumerate([Label.YES, Label.NO, Label.YES]):
            assert not state.is_complete()
            state.add(Answer(0, f"w{i}", label))
        assert state.is_complete()

    def test_consensus_majority(self):
        state = VoteState(task_id=0, k=3)
        state.add(Answer(0, "w1", Label.YES))
        state.add(Answer(0, "w2", Label.YES))
        state.add(Answer(0, "w3", Label.NO))
        assert state.consensus() is Label.YES

    def test_tie_breaks_to_no(self):
        state = VoteState(task_id=0, k=2)
        state.add(Answer(0, "w1", Label.YES))
        state.add(Answer(0, "w2", Label.NO))
        assert state.consensus() is Label.NO

    def test_workers(self):
        state = VoteState(task_id=0, k=3)
        state.add(Answer(0, "a", Label.YES))
        state.add(Answer(0, "b", Label.NO))
        assert state.workers() == {"a", "b"}

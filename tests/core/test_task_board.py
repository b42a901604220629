"""Unit tests for the task board: the array mirror of Def. 3's task
state (open slots, completion flags and (worker, task) marks)."""

import ast
import pathlib

import numpy as np
import pytest

from repro.core.assigner import (
    HOLD,
    TESTED,
    TaskBoard,
    TaskState,
    compute_top_worker_sets_fast,
)
from repro.core.graph import SimilarityGraph
from repro.core.testing import PerformanceTester
from tests.core.board_oracle import assert_board_matches_records

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"


def make_board(num_tasks=4, k=3, skip=()):
    return TaskBoard(
        [TaskState(task_id=t, k=k) for t in range(num_tasks) if t not in skip],
        width=num_tasks,
    )


def flat_accuracies(workers, num_tasks, value=0.5):
    return {w: np.full(num_tasks, value) for w in workers}


def top_sets(board, active, acc):
    fast = compute_top_worker_sets_fast(board, active, acc)
    return {
        c.task_id: [w for w, _ in c.workers]
        for c in (fast.top_set(i) for i in range(len(fast)))
    }


def make_tester(num_tasks, weight=0.0):
    return PerformanceTester(
        SimilarityGraph.from_edges(num_tasks, []),
        observed_of=lambda w: {},
        uncertainty_weight=weight,
    )


class TestWriters:
    def test_fresh_board(self):
        board = make_board(num_tasks=5, k=3, skip=(1,))
        assert board.free.tolist() == [3, 0, 3, 3, 3]
        assert board.crew.tolist() == [0] * 5
        assert not board.done.any()
        assert board.open_count == 4
        assert board.marks.shape == (1, 5)  # the spare row only
        assert_board_matches_records(board)

    def test_hold_fills_a_slot(self):
        board = make_board(k=2)
        board.hold("a", 1)
        assert board.free[1] == 1 and board.crew[1] == 1
        board.hold("b", 1)
        assert board.free[1] == 0 and board.crew[1] == 2
        assert board.marks_of(["a", "b"])[:, 1].tolist() == [HOLD, HOLD]
        assert_board_matches_records(board)

    def test_first_mark_of_a_new_worker_lands_in_the_grown_array(self):
        """``_row`` replaces ``marks`` when a worker is new; a mark
        written through the array read before the row was added would
        be lost."""
        board = make_board()
        for i, worker in enumerate(["a", "b", "c"]):
            before = board.marks
            board.hold(worker, i)
            assert board.marks is not before
            assert board.marks[board.rows[worker], i] == HOLD
        board.test("d", 3)
        assert board.marks[board.rows["d"], 3] == TESTED
        assert_board_matches_records(board)

    def test_release_clears_only_the_hold_bit(self):
        board = make_board()
        board.hold("a", 0)
        board.test("a", 0)
        assert board.marks_of(["a"])[0, 0] == HOLD | TESTED
        assert board.release("a", 0) is True
        assert board.marks_of(["a"])[0, 0] == TESTED
        assert board.free[0] == 3 and board.crew[0] == 0
        assert board.release("a", 0) is False
        assert_board_matches_records(board)

    def test_test_never_changes_free_or_crew(self):
        board = make_board(k=2)
        board.hold("a", 0)
        board.complete(1)
        free, crew = board.free.copy(), board.crew.copy()
        for task_id in range(4):
            board.test("t", task_id)
        assert np.array_equal(board.free, free)
        assert np.array_equal(board.crew, crew)
        assert_board_matches_records(board)

    def test_complete_closes_the_task(self):
        board = make_board()
        board.hold("a", 2)
        board.complete(2)
        assert board.done[2] and board.free[2] == 0 and board.crew[2] == 1
        assert board.open_count == 3
        board.complete(2)
        assert board.open_count == 3
        # a hold or release on a completed task leaves it closed
        board.hold("b", 2)
        board.release("a", 2)
        assert board.free[2] == 0 and board.crew[2] == 1
        assert_board_matches_records(board)

    def test_repeats_touch_no_array(self):
        """A repeated hold, test or completion returns before any
        array is written (submit stays flat)."""
        board = make_board()
        board.hold("a", 0)
        board.test("a", 1)
        board.complete(2)
        for array in (board.free, board.crew, board.done, board.marks):
            array.setflags(write=False)
        board.hold("a", 0)
        board.test("a", 1)
        board.complete(2)
        assert board.release("b", 0) is False

    def test_packing_records_mirrors_them(self):
        states = [
            TaskState(task_id=5, k=2, assigned_workers={"a", "b"}),
            TaskState(task_id=3, k=3, assigned_workers={"a"},
                      tested_workers={"a", "c"}),
            TaskState(task_id=1, k=3, assigned_workers={"d"},
                      completed=True),
        ]
        board = TaskBoard(states)
        assert len(board.free) == 6
        assert board.states[3] is states[1]
        assert board.free.tolist() == [0, 0, 0, 2, 0, 0]
        assert board.open_count == 2
        assert_board_matches_records(board)
        assert TaskBoard.of(board) is board


class TestReaders:
    def test_seen_means_hold_or_test_bit(self):
        board = make_board(num_tasks=3)
        board.hold("a", 0)
        board.test("a", 1)
        board.hold("b", 1)
        board.hold("b", 2)
        acc = flat_accuracies(["a", "b", "c"], 3)
        sets = top_sets(board, ["a", "b", "c"], acc)
        assert "a" not in sets[0] and "a" not in sets[1]
        assert "a" in sets[2]
        # a test candidate needs a co-worker and no mark of the worker
        assert make_tester(3).choose_test_task("a", board, acc) == 2

    def test_active_worker_without_a_row_has_seen_nothing(self):
        board = make_board(num_tasks=3)
        board.hold("a", 0)
        board.test("b", 1)
        rows = dict(board.rows)
        assert not board.marks_of(["z"]).any()
        acc = flat_accuracies(["a", "b", "z"], 3)
        sets = top_sets(board, ["z", "a", "b"], acc)
        assert all("z" in workers for workers in sets.values())
        assert make_tester(3).choose_test_task("z", board, acc) == 0
        assert board.rows == rows  # reading adds no row

    def test_lowest_worker_wins_a_rank_tie_whatever_the_rows(self):
        board = make_board(num_tasks=2, k=1)
        for worker in ("c", "b", "a"):
            board.test(worker, 1)  # rows c, b, a
        acc = flat_accuracies(["a", "b", "c"], 2)
        assert top_sets(board, ["c", "a", "b"], acc) == {0: ["a"]}

    def test_lowest_task_wins_a_score_tie(self):
        board = make_board(num_tasks=4)
        for task_id in (3, 1, 2):
            board.hold("a", task_id)
        acc = flat_accuracies(["a", "w"], 4)
        assert make_tester(4).choose_test_task("w", board, acc) == 1

    def test_candidates_in_ascending_task_order(self):
        states = [TaskState(task_id=t, k=2) for t in (5, 3, 4, 0)]
        acc = flat_accuracies(["a", "b"], 6)
        fast = compute_top_worker_sets_fast(states, ["b", "a"], acc)
        assert fast.task_ids.tolist() == [0, 3, 4, 5]

    def test_completed_tasks_stay_test_candidates(self):
        board = make_board(num_tasks=2, k=1)
        board.hold("a", 1)
        board.complete(1)
        acc = flat_accuracies(["a", "w"], 2)
        assert top_sets(board, ["w"], acc) == {0: ["w"]}
        assert make_tester(2).choose_test_task("w", board, acc) == 1


class TestOnlyTheBoardWritesTaskState:
    """Outside :class:`TaskBoard`, no code in ``src/repro`` adds to or
    discards from ``assigned_workers`` / ``tested_workers`` or assigns
    ``.completed``; building fresh ``TaskState`` records is allowed."""

    FIELDS = {"assigned_workers", "tested_workers", "completed"}
    MUTATORS = {
        "add", "discard", "remove", "pop", "clear", "update",
        "difference_update", "intersection_update",
        "symmetric_difference_update",
    }

    def violations(self, tree, path):
        found = []
        parents = {}
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                parents[child] = node

        def in_board(node):
            while node in parents:
                node = parents[node]
                if isinstance(node, ast.ClassDef) and node.name == "TaskBoard":
                    return True
            return False

        for node in ast.walk(tree):
            targets = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in self.MUTATORS
            ):
                # state.assigned_workers.add(...) and friends
                targets = [node.func.value]
            elif isinstance(node, ast.Delete):
                targets = node.targets
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and target.attr in self.FIELDS
                    and not in_board(node)
                ):
                    found.append(f"{path}:{node.lineno}")
        return found

    def test_scan_finds_writes(self):
        source = (
            "def f(state):\n"
            "    state.assigned_workers.add('w')\n"
            "    state.tested_workers.discard('w')\n"
            "    state.completed = True\n"
            "    state.assigned_workers |= {'w'}\n"
            "    return TaskState(task_id=0, k=3, completed=True)\n"
        )
        assert len(self.violations(ast.parse(source), "x")) == 4

    def test_src_writes_task_state_only_through_the_board(self):
        found = []
        for path in sorted(SRC.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            found += self.violations(tree, path.relative_to(SRC))
        assert found == []


@pytest.mark.parametrize("k", [0, 1, 3])
def test_k_bounds_free(k):
    board = make_board(num_tasks=2, k=k)
    assert board.free.tolist() == [k, k]
    board.hold("a", 0)
    assert board.free[0] == max(0, k - 1)
    assert_board_matches_records(board)

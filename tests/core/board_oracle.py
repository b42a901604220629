"""Recompute a :class:`repro.core.assigner.TaskBoard`'s arrays from its
records and compare.

The board's writers update ``free``, ``crew``, ``done``, ``marks`` and
``open_count`` per event; :func:`assert_board_matches_records` rebuilds
each of them from the :class:`TaskState` records alone and requires
equality, so a write lost to a stale array (or a reader-visible drift)
fails here.
"""

from __future__ import annotations

import numpy as np

from repro.core.assigner import HOLD, TESTED


def expected_arrays(board):
    """``free``, ``crew``, ``done``, ``marks`` and ``open_count`` as the
    records define them, with ``board.rows`` naming the mark rows."""
    width = len(board.free)
    free = np.zeros(width, dtype=np.int64)
    crew = np.zeros(width, dtype=np.int64)
    done = np.zeros(width, dtype=bool)
    marks = np.zeros((len(board.rows) + 1, width), dtype=np.uint8)
    for task_id, state in board.states.items():
        assert state.task_id == task_id
        crew[task_id] = len(state.assigned_workers)
        done[task_id] = state.completed
        free[task_id] = 0 if state.completed else state.remaining
        for worker_id in state.assigned_workers:
            marks[board.rows[worker_id], task_id] |= HOLD
        for worker_id in state.tested_workers:
            marks[board.rows[worker_id], task_id] |= TESTED
    open_count = sum(not s.completed for s in board.states.values())
    return free, crew, done, marks, open_count


def assert_board_matches_records(board):
    """Every array and the open count equal the ones recomputed from
    the records; mark rows are ``0 .. len(rows) - 1`` plus one all-zero
    spare row at the end."""
    assert sorted(board.rows.values()) == list(range(len(board.rows)))
    free, crew, done, marks, open_count = expected_arrays(board)
    for name, expected in (
        ("free", free), ("crew", crew), ("done", done), ("marks", marks)
    ):
        actual = getattr(board, name)
        assert actual.dtype == expected.dtype, name
        assert np.array_equal(actual, expected), name
    assert board.open_count == open_count
    assert not board.marks[-1].any()

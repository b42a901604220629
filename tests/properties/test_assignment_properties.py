"""Property-based tests for assignment invariants (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.assigner import (
    TaskBoard,
    TaskState,
    TopWorkerSet,
    greedy_assign,
    scheme_value,
)
from repro.core.graph import SimilarityGraph
from repro.core.optimal import bitmask_optimal
from repro.core.testing import PerformanceTester
from tests.core import online_oracle
from tests.core.board_oracle import assert_board_matches_records
from tests.core.scheme_oracle import (
    as_bits,
    assert_scheme_matches_reference,
    enumerate_optimal,
    heap_greedy_assign,
)


@st.composite
def candidate_instance(draw):
    """A random optimal-assignment instance with ≤ 8 workers."""
    num_workers = draw(st.integers(2, 8))
    workers = [f"w{i}" for i in range(num_workers)]
    num_candidates = draw(st.integers(1, 10))
    candidates = []
    for t in range(num_candidates):
        size = draw(st.integers(1, min(3, num_workers)))
        chosen = draw(
            st.lists(
                st.sampled_from(workers),
                min_size=size,
                max_size=size,
                unique=True,
            )
        )
        accuracies = draw(
            st.lists(
                st.floats(min_value=0.01, max_value=1.0),
                min_size=size,
                max_size=size,
            )
        )
        candidates.append(
            TopWorkerSet(
                task_id=t, workers=tuple(zip(chosen, accuracies))
            )
        )
    return candidates


@st.composite
def scheme_build_instance(draw):
    """Task states, an active set in any order and accuracy vectors.

    Accuracies come from a coarse grid as often as not (ties in accuracy
    and in average); some draws have more than 64 workers.
    """
    num_tasks = draw(st.integers(0, 8))
    num_workers = draw(st.one_of(st.integers(0, 8), st.integers(60, 72)))
    workers = [f"w{i:02d}" for i in range(num_workers)]
    value = st.one_of(
        st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), st.floats(0.0, 1.0)
    )
    accuracies = {
        w: np.array(
            draw(st.lists(value, min_size=num_tasks, max_size=num_tasks)),
            dtype=np.float64,
        )
        for w in workers
    }
    order = draw(st.permutations(workers))
    active = order[: draw(st.integers(0, num_workers))]
    seen = st.sets(st.sampled_from(workers), max_size=4) if workers else (
        st.just(set())
    )
    states = [
        TaskState(
            task_id=t,
            k=draw(st.integers(1, 4)),
            assigned_workers=draw(seen),
            tested_workers=draw(seen),
            completed=draw(st.booleans()),
        )
        for t in range(num_tasks)
    ]
    return states, active, accuracies


@st.composite
def choice_instance(draw):
    """A similarity graph (isolated tasks allowed), task states in any
    order with up to 9 co-workers, accuracy vectors for some workers,
    the requester ``"r"``'s observations and an uncertainty weight.

    Values come from a coarse grid as often as not (score ties).
    """
    num_tasks = draw(st.integers(1, 10))
    task = st.integers(0, num_tasks - 1)
    edges = draw(
        st.lists(st.tuples(task, task, st.floats(0.1, 1.0)), max_size=25)
    )
    workers = ["r"] + [f"w{i}" for i in range(draw(st.integers(0, 11)))]
    value = st.one_of(
        st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), st.floats(0.0, 1.0)
    )
    estimated = draw(st.sets(st.sampled_from(workers)))
    accuracies = {
        w: np.array(
            draw(st.lists(value, min_size=num_tasks, max_size=num_tasks))
        )
        for w in sorted(estimated)
    }
    crew = st.sets(st.sampled_from(workers), max_size=9)
    states = [
        TaskState(
            task_id=t,
            k=9,
            assigned_workers=draw(crew),
            tested_workers=draw(crew),
            completed=draw(st.booleans()),
        )
        for t in draw(st.permutations(range(num_tasks)))
    ]
    observed = draw(st.dictionaries(task, value, max_size=num_tasks))
    weight = draw(
        st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))
    )
    tester = PerformanceTester(
        SimilarityGraph.from_edges(num_tasks, edges),
        observed_of=lambda w: observed,
        uncertainty_weight=weight,
    )
    return tester, states, accuracies


@st.composite
def board_script(draw):
    """Task records (some ids have none, as qualification tasks do) and
    a script of board writes with repeats and no-ops; at least three
    workers are first marked mid-script, so the mark rows grow."""
    width = draw(st.integers(1, 6))
    ids = sorted(draw(st.sets(st.integers(0, width - 1), min_size=1)))
    ks = {t: draw(st.integers(0, 3)) for t in ids}
    workers = [f"w{i}" for i in range(draw(st.integers(3, 7)))]
    step = st.tuples(
        st.sampled_from(["hold", "test", "release", "complete"]),
        st.sampled_from(workers),
        st.sampled_from(ids),
    )
    script = draw(st.lists(step, max_size=40))
    for worker in workers[:3]:
        first = (
            draw(st.sampled_from(["hold", "test"])),
            worker,
            draw(st.sampled_from(ids)),
        )
        script.insert(draw(st.integers(0, len(script))), first)
    return width, ks, script


class TestTaskBoardProperties:
    @given(instance=board_script())
    @settings(max_examples=150, deadline=None)
    def test_arrays_equal_the_records_after_every_write(self, instance):
        width, ks, script = instance
        board = TaskBoard(
            [TaskState(task_id=t, k=k) for t, k in ks.items()], width=width
        )
        held = {t: set() for t in ks}
        tested = {t: set() for t in ks}
        done = set()
        assert_board_matches_records(board)
        for op, worker, task_id in script:
            if op == "hold":
                board.hold(worker, task_id)
                held[task_id].add(worker)
            elif op == "test":
                board.test(worker, task_id)
                tested[task_id].add(worker)
            elif op == "release":
                released = board.release(worker, task_id)
                assert released == (worker in held[task_id])
                held[task_id].discard(worker)
            else:
                board.complete(task_id)
                done.add(task_id)
            assert_board_matches_records(board)
            assert {
                t: (s.assigned_workers, s.tested_workers, s.completed)
                for t, s in board.states.items()
            } == {t: (held[t], tested[t], t in done) for t in ks}
        assert len(board.rows) >= 3


class TestArrayTestChoiceProperties:
    @given(instance=choice_instance())
    @settings(max_examples=150, deadline=None)
    def test_matches_per_candidate_oracle(self, instance):
        tester, states, accuracies = instance
        assert tester.choose_test_task(
            "r", states, accuracies
        ) == online_oracle.choose_test_task(tester, "r", states, accuracies)


class TestArraySchemeBuildProperties:
    @given(instance=scheme_build_instance())
    @settings(max_examples=80, deadline=None)
    def test_matches_reference_top_sets_and_heap_walk(self, instance):
        assert_scheme_matches_reference(*instance)

    @given(candidates=candidate_instance())
    @settings(max_examples=60, deadline=None)
    def test_greedy_on_candidate_list_matches_heap_walk(self, candidates):
        assert as_bits(greedy_assign(candidates)) == as_bits(
            heap_greedy_assign(candidates)
        )


class TestGreedyProperties:
    @given(candidates=candidate_instance())
    @settings(max_examples=60, deadline=None)
    def test_scheme_is_disjoint(self, candidates):
        scheme = greedy_assign(candidates)
        used = set()
        for selected in scheme:
            assert not (selected.worker_ids & used)
            used |= selected.worker_ids

    @given(candidates=candidate_instance())
    @settings(max_examples=60, deadline=None)
    def test_scheme_is_maximal(self, candidates):
        scheme = greedy_assign(candidates)
        chosen = {c.task_id for c in scheme}
        used = set()
        for selected in scheme:
            used |= selected.worker_ids
        for candidate in candidates:
            if candidate.task_id not in chosen:
                assert candidate.worker_ids & used

    @given(candidates=candidate_instance())
    @settings(max_examples=60, deadline=None)
    def test_greedy_bounded_by_optimum(self, candidates):
        greedy_value = scheme_value(greedy_assign(candidates))
        optimal_value, _ = bitmask_optimal(candidates)
        assert greedy_value <= optimal_value + 1e-9

    @given(candidates=candidate_instance())
    @settings(max_examples=30, deadline=None)
    def test_exact_solvers_agree(self, candidates):
        v_enum, _ = enumerate_optimal(candidates)
        v_mask, _ = bitmask_optimal(candidates)
        assert abs(v_enum - v_mask) < 1e-9

    @given(candidates=candidate_instance())
    @settings(max_examples=30, deadline=None)
    def test_optimal_scheme_value_consistent(self, candidates):
        value, scheme = enumerate_optimal(candidates)
        assert abs(scheme_value(scheme) - value) < 1e-9

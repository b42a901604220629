"""Property-based tests for assignment invariants (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.assigner import (
    TaskState,
    TopWorkerSet,
    greedy_assign,
    scheme_value,
)
from repro.core.optimal import bitmask_optimal, enumerate_optimal
from tests.core.scheme_oracle import (
    as_bits,
    assert_scheme_matches_reference,
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

"""Unit tests for adaptive assignment (Section 4)."""

import numpy as np
import pytest

from repro.core.assigner import (
    AdaptiveAssigner,
    TaskState,
    TopWorkerSet,
    compute_top_worker_sets_fast,
    greedy_assign,
    scheme_value,
)
from repro.core.config import AssignerConfig
from tests.core.scheme_oracle import (
    as_bits,
    assert_scheme_matches_reference,
    compute_top_worker_set,
    compute_top_worker_sets,
    heap_greedy_assign,
)


def accuracies_from(matrix: dict[str, list[float]]):
    return {w: np.array(v) for w, v in matrix.items()}


def make_candidate(task_id, workers):
    return TopWorkerSet(task_id=task_id, workers=tuple(workers))


class TestTopWorkerSet:
    def test_scores(self):
        cand = make_candidate(0, [("a", 0.8), ("b", 0.6)])
        assert cand.sum_accuracy == pytest.approx(1.4)
        assert cand.avg_accuracy == pytest.approx(0.7)
        assert cand.worker_ids == {"a", "b"}

    def test_empty_avg_is_zero(self):
        assert make_candidate(0, []).avg_accuracy == 0.0


class TestTaskState:
    def test_remaining(self):
        state = TaskState(task_id=0, k=3, assigned_workers={"a"})
        assert state.remaining == 2

    def test_remaining_never_negative(self):
        state = TaskState(task_id=0, k=1, assigned_workers={"a", "b"})
        assert state.remaining == 0

    def test_has_seen_includes_tests(self):
        state = TaskState(task_id=0, k=3, tested_workers={"t"})
        assert state.has_seen("t")
        assert not state.has_seen("x")


class TestComputeTopWorkerSet:
    def test_paper_table3_t4(self):
        """Table 3: t4 has no assigned workers; top-3 by accuracy."""
        acc = accuracies_from(
            {
                "w1": [0.6],
                "w2": [0.5],
                "w3": [0.3],
                "w4": [0.7],
                "w5": [0.75],
            }
        )
        state = TaskState(task_id=0, k=3)
        top = compute_top_worker_set(
            state, ["w1", "w2", "w3", "w4", "w5"], acc
        )
        assert [w for w, _ in top.workers] == ["w5", "w4", "w1"]

    def test_partial_assignment_shrinks_set(self):
        """Table 3: t11 already assigned to w2 → only k'=2 slots."""
        acc = accuracies_from(
            {"w1": [0.6], "w3": [0.8], "w5": [0.85]}
        )
        state = TaskState(task_id=0, k=3, assigned_workers={"w2"})
        top = compute_top_worker_set(state, ["w1", "w3", "w5"], acc)
        assert [w for w, _ in top.workers] == ["w5", "w3"]

    def test_completed_task_gives_none(self):
        acc = accuracies_from({"w1": [0.6]})
        state = TaskState(task_id=0, k=3, completed=True)
        assert compute_top_worker_set(state, ["w1"], acc) is None

    def test_no_eligible_workers_gives_none(self):
        acc = accuracies_from({"w1": [0.6]})
        state = TaskState(task_id=0, k=3, assigned_workers={"w1"})
        assert compute_top_worker_set(state, ["w1"], acc) is None

    def test_tie_breaks_by_worker_id(self):
        acc = accuracies_from({"b": [0.7], "a": [0.7], "c": [0.7]})
        state = TaskState(task_id=0, k=2)
        top = compute_top_worker_set(state, ["b", "a", "c"], acc)
        assert [w for w, _ in top.workers] == ["a", "b"]


class TestFastTopWorkerSets:
    def test_agrees_with_reference(self, rng):
        num_tasks, num_workers = 12, 7
        workers = [f"w{i}" for i in range(num_workers)]
        acc = {
            w: rng.uniform(0.2, 0.95, size=num_tasks) for w in workers
        }
        states = []
        for t in range(num_tasks):
            assigned = set(
                rng.choice(workers, size=rng.integers(0, 3), replace=False)
            )
            states.append(
                TaskState(
                    task_id=t,
                    k=3,
                    assigned_workers=assigned,
                    completed=bool(rng.random() < 0.2),
                )
            )
        slow = compute_top_worker_sets(states, workers, acc)
        fast = compute_top_worker_sets_fast(states, workers, acc)
        assert len(slow) == len(fast)
        assert as_bits(fast.top_set(i) for i in range(len(fast))) == as_bits(
            slow
        )

    def test_empty_workers(self):
        fast = compute_top_worker_sets_fast([], [], {})
        assert len(fast) == 0
        assert greedy_assign(fast) == []


def random_instance(
    seed,
    num_tasks=30,
    num_workers=10,
    num_active=8,
    k=3,
    levels=None,
    max_assigned=3,
    max_tested=1,
    completed=0.2,
    bystanders=0,
):
    """Seeded task states, a shuffled active set and accuracy vectors.

    ``levels`` draws accuracies from ``{0, 1/levels, ..., 1}`` (ties);
    the last ``bystanders`` workers are active but absent from every
    state.
    """
    rng = np.random.default_rng(seed)
    workers = [f"w{i:03d}" for i in range(num_workers)]
    in_states = workers[: num_workers - bystanders]
    active = [workers[i] for i in rng.permutation(num_workers)[:num_active]]
    active += workers[num_workers - bystanders :]
    acc = {}
    for worker in workers:
        if levels:
            acc[worker] = rng.integers(0, levels + 1, num_tasks) / levels
        else:
            acc[worker] = rng.uniform(0.0, 1.0, num_tasks)

    def some(limit):
        size = int(rng.integers(0, min(limit, len(in_states)) + 1))
        return set(rng.choice(in_states, size=size, replace=False).tolist())

    states = [
        TaskState(
            task_id=t,
            k=k,
            assigned_workers=some(max_assigned),
            tested_workers=some(max_tested),
            completed=bool(rng.random() < completed),
        )
        for t in range(num_tasks)
    ]
    return states, list(dict.fromkeys(active)), acc


class TestArraySchemeBuild:
    """Array scheme build vs. per-task top sets + heap walk."""

    @pytest.mark.parametrize(
        "case",
        [
            pytest.param({}, id="uniform"),
            pytest.param({"levels": 2}, id="ties"),
            pytest.param({"levels": 4, "k": 2}, id="ties-k2"),
            pytest.param(
                {"max_assigned": 0, "max_tested": 4}, id="tested-only"
            ),
            pytest.param(
                {"max_assigned": 2, "completed": 0.5}, id="partly-assigned"
            ),
            pytest.param(
                {"num_workers": 5, "num_active": 4, "k": 6},
                id="fewer-eligible-than-slots",
            ),
            pytest.param(
                {"num_workers": 14, "num_active": 6, "bystanders": 4},
                id="actives-absent-from-states",
            ),
            pytest.param(
                {"num_workers": 90, "num_active": 80, "k": 4},
                id="80-active",
            ),
            pytest.param(
                {"num_workers": 90, "num_active": 70, "levels": 3, "k": 1},
                id="70-active-ties",
            ),
        ],
    )
    def test_matches_reference(self, case):
        for seed in range(12):
            assert_scheme_matches_reference(*random_instance(seed, **case))

    def test_average_tie_breaks_by_task_id(self):
        acc = accuracies_from(
            {"a": [0.5] * 6, "b": [0.5] * 6, "c": [0.5] * 6}
        )
        states = [
            TaskState(task_id=5, k=1),
            TaskState(task_id=3, k=3, assigned_workers={"a"}),
            TaskState(task_id=4, k=3, completed=True),
        ]
        scheme = greedy_assign(
            compute_top_worker_sets_fast(states, ["c", "b", "a"], acc)
        )
        # both averages are 0.5: task 3 first (b, c), then 5 (a)
        assert [(c.task_id, c.workers) for c in scheme] == [
            (3, (("b", 0.5), ("c", 0.5))),
            (5, (("a", 0.5),)),
        ]
        assert_scheme_matches_reference(states, ["c", "b", "a"], acc)

    @pytest.mark.parametrize(
        "states, active",
        [
            ([], []),
            ([], ["a"]),
            ([TaskState(task_id=0, k=3)], []),
            ([TaskState(task_id=0, k=3, completed=True)], ["a"]),
            ([TaskState(task_id=0, k=1, assigned_workers={"b"})], ["a"]),
            ([TaskState(task_id=0, k=3, tested_workers={"a"})], ["a"]),
        ],
    )
    def test_empty_inputs(self, states, active):
        acc = accuracies_from({"a": [0.6], "b": [0.7]})
        fast = compute_top_worker_sets_fast(states, active, acc)
        assert len(fast) == 0
        assert greedy_assign(fast) == []
        assert_scheme_matches_reference(states, active, acc)

    def test_simulated_run_matches_oracle_event_log(
        self, chaos_event_log, monkeypatch
    ):
        """A seeded simulator run writes the same event log with the
        scheme build swapped for the reference top sets + heap walk."""
        import repro.core.assigner as assigner_module

        production, policy = chaos_event_log("production")
        builds = policy.assigner.scheme_computations
        oracle_builds = []

        def reference_top_sets(board, active, acc):
            states = list(board.states.values())
            oracle_builds.append(len(states))
            return compute_top_worker_sets(states, active, acc)

        monkeypatch.setattr(
            assigner_module, "compute_top_worker_sets_fast",
            reference_top_sets,
        )
        monkeypatch.setattr(
            assigner_module, "greedy_assign", heap_greedy_assign
        )
        reference, _ = chaos_event_log("oracle")
        assert builds > 50
        assert len(oracle_builds) == builds
        assert reference == production


class TestGreedyAssign:
    def test_paper_table3_walkthrough(self):
        """Section 4.2's example: greedy picks t11 then t9."""
        candidates = [
            make_candidate(4, [("w5", 0.75), ("w4", 0.7), ("w1", 0.6)]),
            make_candidate(11, [("w5", 0.85), ("w3", 0.8)]),
            make_candidate(9, [("w4", 0.85), ("w2", 0.75), ("w1", 0.7)]),
            make_candidate(10, [("w3", 0.7), ("w1", 0.6)]),
        ]
        scheme = greedy_assign(candidates)
        assert [c.task_id for c in scheme] == [11, 9]

    def test_disjointness_invariant(self, rng):
        workers = [f"w{i}" for i in range(10)]
        candidates = []
        for t in range(30):
            chosen = rng.choice(workers, size=3, replace=False)
            candidates.append(
                make_candidate(
                    t, [(w, float(rng.uniform(0.3, 0.9))) for w in chosen]
                )
            )
        scheme = greedy_assign(candidates)
        used = set()
        for selected in scheme:
            assert not (selected.worker_ids & used)
            used |= selected.worker_ids

    def test_maximality(self, rng):
        """No rejected candidate remains addable (greedy is maximal)."""
        workers = [f"w{i}" for i in range(8)]
        candidates = []
        for t in range(20):
            chosen = rng.choice(workers, size=2, replace=False)
            candidates.append(
                make_candidate(
                    t, [(w, float(rng.uniform(0.3, 0.9))) for w in chosen]
                )
            )
        scheme = greedy_assign(candidates)
        used = set().union(*(c.worker_ids for c in scheme))
        chosen_tasks = {c.task_id for c in scheme}
        for candidate in candidates:
            if candidate.task_id in chosen_tasks:
                continue
            assert candidate.worker_ids & used

    def test_empty_input(self):
        assert greedy_assign([]) == []

    def test_scheme_value(self):
        scheme = [
            make_candidate(0, [("a", 0.5), ("b", 0.5)]),
            make_candidate(1, [("c", 0.9)]),
        ]
        assert scheme_value(scheme) == pytest.approx(1.9)


class TestAdaptiveAssigner:
    def make_states(self):
        return [TaskState(task_id=t, k=3) for t in range(4)]

    def test_assign_respects_one_task_per_worker(self):
        acc = accuracies_from(
            {
                "w1": [0.9, 0.1, 0.1, 0.1],
                "w2": [0.8, 0.2, 0.1, 0.1],
                "w3": [0.7, 0.3, 0.1, 0.1],
            }
        )
        assigner = AdaptiveAssigner(AssignerConfig(k=3))
        assignments = assigner.assign(
            self.make_states(), ["w1", "w2", "w3"], acc
        )
        workers = [a.worker_id for a in assignments]
        assert len(workers) == len(set(workers))

    def test_assign_for_worker_returns_own_assignment(self):
        acc = accuracies_from(
            {
                "w1": [0.9, 0.1, 0.1, 0.1],
                "w2": [0.8, 0.2, 0.1, 0.1],
                "w3": [0.7, 0.3, 0.1, 0.1],
            }
        )
        assigner = AdaptiveAssigner(AssignerConfig(k=3))
        assignment = assigner.assign_for_worker(
            "w2", self.make_states(), ["w1", "w2", "w3"], acc
        )
        assert assignment is not None
        assert assignment.worker_id == "w2"
        assert assignment.task_id == 0  # everyone's best task

    def test_assign_for_worker_requires_active(self):
        assigner = AdaptiveAssigner()
        with pytest.raises(ValueError, match="not active"):
            assigner.assign_for_worker("ghost", [], ["w1"], {})

    def test_idle_worker_without_tester_gets_none(self):
        acc = accuracies_from(
            {
                "w1": [0.9],
                "w2": [0.8],
                "w3": [0.7],
                "w4": [0.1],
            }
        )
        states = [TaskState(task_id=0, k=3)]
        assigner = AdaptiveAssigner(AssignerConfig(k=3))
        assignment = assigner.assign_for_worker(
            "w4", states, ["w1", "w2", "w3", "w4"], acc
        )
        assert assignment is None

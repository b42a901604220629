"""Unit tests for the exact optimal-assignment solvers (Appendix D.4)."""

import pytest

from repro.core.assigner import TopWorkerSet, greedy_assign, scheme_value
from repro.core.optimal import approximation_error, bitmask_optimal
from tests.core.scheme_oracle import enumerate_optimal


def cand(task_id, workers):
    return TopWorkerSet(task_id=task_id, workers=tuple(workers))


def random_instance(rng, num_tasks=12, num_workers=6, set_size=2):
    workers = [f"w{i}" for i in range(num_workers)]
    candidates = []
    for t in range(num_tasks):
        chosen = rng.choice(workers, size=set_size, replace=False)
        candidates.append(
            cand(t, [(w, float(rng.uniform(0.3, 0.95))) for w in chosen])
        )
    return candidates


class TestEnumerateOptimal:
    def test_simple_disjoint(self):
        candidates = [
            cand(0, [("a", 0.9)]),
            cand(1, [("b", 0.8)]),
        ]
        value, scheme = enumerate_optimal(candidates)
        assert value == pytest.approx(1.7)
        assert {c.task_id for c in scheme} == {0, 1}

    def test_greedy_suboptimal_case(self):
        """Greedy by average accuracy can miss the optimum: a single
        high-average candidate blocks two medium ones."""
        candidates = [
            cand(0, [("a", 0.9), ("b", 0.9)]),  # avg .9, value 1.8
            cand(1, [("a", 0.85)]),  # value .85
            cand(2, [("b", 0.85)]),  # value .85
            cand(3, [("c", 0.5), ("d", 0.5)]),
        ]
        greedy = greedy_assign(candidates)
        opt_value, _ = enumerate_optimal(candidates)
        assert scheme_value(greedy) <= opt_value
        assert opt_value == pytest.approx(1.8 + 1.0)

    def test_empty(self):
        value, scheme = enumerate_optimal([])
        assert value == 0.0
        assert scheme == []

    def test_all_conflicting(self):
        candidates = [
            cand(0, [("a", 0.9)]),
            cand(1, [("a", 0.8)]),
            cand(2, [("a", 0.99)]),
        ]
        value, scheme = enumerate_optimal(candidates)
        assert value == pytest.approx(0.99)
        assert len(scheme) == 1

    def test_rejects_duplicate_worker_in_candidate(self):
        bad = cand(0, [("a", 0.5), ("a", 0.6)])
        with pytest.raises(ValueError, match="repeats"):
            enumerate_optimal([bad])


class TestBitmaskOptimal:
    def test_agrees_with_enumeration(self, rng):
        for trial in range(10):
            candidates = random_instance(
                rng,
                num_tasks=int(rng.integers(4, 14)),
                num_workers=int(rng.integers(3, 8)),
                set_size=int(rng.integers(1, 4)),
            )
            v_enum, _ = enumerate_optimal(candidates)
            v_mask, _ = bitmask_optimal(candidates)
            assert v_mask == pytest.approx(v_enum)

    def test_scheme_is_feasible(self, rng):
        candidates = random_instance(rng)
        _, scheme = bitmask_optimal(candidates)
        used = set()
        for selected in scheme:
            assert not (selected.worker_ids & used)
            used |= selected.worker_ids

    def test_rejects_too_many_workers(self):
        candidates = [
            cand(i, [(f"w{i}", 0.5)]) for i in range(30)
        ]
        with pytest.raises(ValueError, match="24"):
            bitmask_optimal(candidates)


class TestApproximationError:
    def test_zero_when_greedy_optimal(self):
        candidates = [cand(0, [("a", 0.9)]), cand(1, [("b", 0.8)])]
        greedy = greedy_assign(candidates)
        assert approximation_error(candidates, greedy) == pytest.approx(0.0)

    def test_error_is_percentage(self):
        candidates = [
            cand(0, [("a", 0.9), ("b", 0.9)]),
            cand(1, [("a", 0.85)]),
            cand(2, [("b", 0.85)]),
        ]
        greedy = greedy_assign(candidates)
        error = approximation_error(candidates, greedy)
        assert 0.0 <= error <= 100.0

    def test_greedy_never_beats_optimum(self, rng):
        for _ in range(20):
            candidates = random_instance(
                rng,
                num_tasks=int(rng.integers(3, 10)),
                num_workers=5,
                set_size=2,
            )
            greedy = greedy_assign(candidates)
            error = approximation_error(candidates, greedy)
            assert error >= -1e-9

    def test_empty_instance(self):
        assert approximation_error([], []) == 0.0

    def test_enumerate_solver_path(self, rng):
        """The error is measured against the enumeration optimum."""
        for _ in range(10):
            candidates = random_instance(rng, num_tasks=8, num_workers=5)
            greedy = greedy_assign(candidates)
            opt, _ = enumerate_optimal(candidates)
            expected = (opt - scheme_value(greedy)) / opt * 100.0
            error = approximation_error(candidates, greedy)
            assert error == pytest.approx(expected)

"""Unit tests for worker performance testing (Section 4.1, Step 3)."""

import numpy as np
import pytest

from repro.core.assigner import TaskState
from repro.core.graph import SimilarityGraph
from repro.core.testing import PerformanceTester, beta_variance
from tests.core import online_oracle as oracle


class TestBetaVariance:
    def test_uninformed_maximum(self):
        """Beta(1,1) has the maximal variance 1/12."""
        assert beta_variance(0, 0) == pytest.approx(1 / 12)

    def test_decreases_with_evidence(self):
        assert beta_variance(5, 5) < beta_variance(1, 1) < beta_variance(0, 0)

    def test_paper_formula(self):
        """(N1+1)(N0+1) / ((N1+N0+2)^2 (N1+N0+3)) for N1=3, N0=1."""
        expected = (4 * 2) / ((6**2) * 7)
        assert beta_variance(3, 1) == pytest.approx(expected)

    def test_fractional_counts_allowed(self):
        assert 0 < beta_variance(0.5, 0.4) <= 1 / 12

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            beta_variance(-1, 0)


class TestPerformanceTester:
    def make_tester(self, graph, observed=None, weight=0.5):
        observed = observed or {}
        return PerformanceTester(
            graph,
            observed_of=lambda w: observed.get(w, {}),
            uncertainty_weight=weight,
        )

    def test_uncertainty_max_without_observations(self, two_cliques):
        tester = self.make_tester(two_cliques)
        assert oracle.uncertainty(tester, "w", 0) == pytest.approx(1.0)

    def test_uncertainty_drops_with_neighborhood_evidence(self, two_cliques):
        tester = self.make_tester(
            two_cliques, observed={"w": {0: 1.0, 1: 1.0, 2: 0.0}}
        )
        # node 0's neighbourhood {0,1,2} has three observations
        assert oracle.uncertainty(tester, "w", 0) < 1.0
        # the other clique is untouched
        assert oracle.uncertainty(tester, "w", 3) == pytest.approx(1.0)

    def test_coworker_quality_mean(self, two_cliques):
        tester = self.make_tester(two_cliques)
        state = TaskState(task_id=0, k=3, assigned_workers={"a", "b"})
        acc = {"a": np.full(6, 0.9), "b": np.full(6, 0.5)}
        assert oracle.coworker_quality(tester, state, acc) == pytest.approx(0.7)

    def test_coworker_quality_uses_prior_for_unknown(self, two_cliques):
        tester = self.make_tester(two_cliques)
        state = TaskState(task_id=0, k=3, assigned_workers={"mystery"})
        assert oracle.coworker_quality(tester, state, {}) == pytest.approx(0.5)

    def test_choose_skips_seen_tasks(self, two_cliques):
        tester = self.make_tester(two_cliques)
        states = [
            TaskState(task_id=0, k=3, assigned_workers={"w", "x"}),
            TaskState(task_id=1, k=3, assigned_workers={"x"}),
        ]
        acc = {"x": np.full(6, 0.8)}
        chosen = tester.choose_test_task("w", states, acc)
        assert chosen == 1

    def test_choose_requires_coworkers(self, two_cliques):
        tester = self.make_tester(two_cliques)
        states = [TaskState(task_id=0, k=3)]  # nobody assigned
        assert tester.choose_test_task("w", states, {}) is None

    def test_prefers_uncertain_region(self, two_cliques):
        """Worker with evidence around clique 1 should be tested in
        clique 2 (higher estimation variance there)."""
        tester = self.make_tester(
            two_cliques,
            observed={"w": {0: 1.0, 1: 1.0, 2: 1.0}},
            weight=1.0,  # uncertainty only
        )
        states = [
            TaskState(task_id=1, k=3, assigned_workers={"x"}),
            TaskState(task_id=4, k=3, assigned_workers={"x"}),
        ]
        acc = {"x": np.full(6, 0.8)}
        assert tester.choose_test_task("w", states, acc) == 4

    def test_prefers_reliable_coworkers(self, two_cliques):
        """With weight 0, the co-worker quality factor decides."""
        tester = self.make_tester(two_cliques, weight=0.0)
        states = [
            TaskState(task_id=0, k=3, assigned_workers={"good"}),
            TaskState(task_id=3, k=3, assigned_workers={"bad"}),
        ]
        acc = {"good": np.full(6, 0.95), "bad": np.full(6, 0.3)}
        assert tester.choose_test_task("w", states, acc) == 0

    def test_rejects_bad_weight(self, two_cliques):
        with pytest.raises(ValueError):
            PerformanceTester(
                two_cliques, observed_of=lambda w: {}, uncertainty_weight=2.0
            )


def block_graph(rng, num_tasks, blocks=1, isolated=0, degree=3):
    """Random similarity graph whose edges stay inside ``blocks`` equal
    id ranges; the last ``isolated`` tasks have no edges."""
    similarity = np.zeros((num_tasks, num_tasks))
    linked = num_tasks - isolated
    bounds = np.linspace(0, linked, blocks + 1).astype(int)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        members = np.arange(lo, hi)
        for i in members:
            others = members[members != i]
            picks = rng.choice(
                others, size=min(degree, others.size), replace=False
            )
            similarity[i, picks] = rng.uniform(0.1, 1.0, size=picks.size)
    return SimilarityGraph.from_matrix(np.maximum(similarity, similarity.T))


def random_case(
    seed,
    num_tasks=40,
    num_workers=10,
    k=3,
    blocks=1,
    isolated=0,
    grid=False,
    observed="random",
    estimated=1.0,
    completed=0.2,
    tested=0.2,
    weight=0.5,
):
    """A tester, its requester ``"w0"``, task states and accuracies.

    ``grid`` draws accuracies and observations from a coarse grid (exact
    score ties); ``observed`` is ``"random"``, ``"empty"`` or
    ``"outside"`` (observations only on tasks that no candidate's
    neighbourhood holds); ``estimated`` is the share of workers with an
    accuracy vector.  Only the first block of tasks and the isolated
    tasks get workers.
    """
    rng = np.random.default_rng([seed, 17])
    graph = block_graph(rng, num_tasks, blocks, isolated)
    workers = [f"w{i}" for i in range(num_workers)]
    staffed = (num_tasks - isolated) // blocks if blocks > 1 else num_tasks

    def value(size):
        if grid:
            return rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=size)
        return rng.uniform(0.0, 1.0, size=size)

    states = []
    for task_id in rng.permutation(num_tasks).tolist():
        state = TaskState(task_id=task_id, k=k)
        if task_id < staffed or task_id >= num_tasks - isolated:
            size = int(rng.integers(0, k + 1))
            state.assigned_workers = set(
                rng.choice(workers, size=size, replace=False).tolist()
            )
            if rng.random() < tested:
                state.tested_workers = {
                    str(rng.choice(workers))
                } - state.assigned_workers
            state.completed = bool(
                size == k or (size and rng.random() < completed)
            )
        states.append(state)
    accuracies = {
        w: value(num_tasks) for w in workers if rng.random() < estimated
    }
    if observed == "empty":
        seen = {}
    else:
        pool = np.arange(staffed, num_tasks - isolated)
        if observed == "random":
            pool = np.arange(num_tasks)
        keys = rng.choice(pool, size=min(12, pool.size), replace=False)
        seen = dict(zip(keys.tolist(), value(keys.size).tolist()))
    tester = PerformanceTester(
        graph, observed_of=lambda w: seen, uncertainty_weight=weight
    )
    return tester, states, accuracies


def assert_matches_oracle(tester, states, accuracies, worker="w0"):
    """The array choice is the per-candidate oracle's; returns it."""
    chosen = tester.choose_test_task(worker, states, accuracies)
    assert chosen == oracle.choose_test_task(
        tester, worker, states, accuracies
    )
    assert chosen is None or type(chosen) is int
    return chosen


class TestArrayChoiceMatchesOracle:
    CASES = {
        "uniform": {},
        "grid ties": {"grid": True},
        "grid ties, few workers": {"grid": True, "num_workers": 4},
        "unestimated co-workers": {"estimated": 0.5},
        "no estimates": {"estimated": 0.0},
        "tested-only workers": {"tested": 0.9},
        "completed candidates": {"completed": 0.9},
        "empty observed": {"observed": "empty"},
        "observed outside every neighbourhood": {
            "observed": "outside", "blocks": 2,
        },
        "isolated tasks": {"isolated": 10},
        "uncertainty only": {"weight": 1.0},
        "co-workers only": {"weight": 0.0},
        "k = 9": {"k": 9, "num_workers": 14},
        "many tasks": {"num_tasks": 300, "num_workers": 30},
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_oracle(self, case):
        options = self.CASES[case]
        chosen = []
        for seed in range(15):
            tester, states, acc = random_case(seed, **options)
            chosen.append(assert_matches_oracle(tester, states, acc))
            # the neighbourhood arrays are reused across calls
            assert_matches_oracle(tester, states[::-1], acc, "w1")
        assert any(task is not None for task in chosen)

    def test_observed_outside_candidates_is_uninformed(self):
        """Observations that no candidate's neighbourhood holds leave
        every candidate at the uninformed variance."""
        tester, states, acc = random_case(3, observed="outside", blocks=2)
        seen = tester.observed_of("w0")
        assert seen
        bounds, members = tester._neighbourhoods()
        for state in states:
            if state.assigned_workers and not state.has_seen("w0"):
                hood = members[bounds[state.task_id]:bounds[state.task_id + 1]]
                assert not set(hood.tolist()) & set(seen)
                assert oracle.uncertainty(
                    tester, "w0", state.task_id
                ) == 1.0

    def test_neighbourhoods_keep_neighbors_set_order(self):
        """Each task's members come in the iteration order of the set
        the oracle builds from ``SimilarityGraph.neighbors``."""
        rng = np.random.default_rng(5)
        graph = block_graph(rng, 200, blocks=4, isolated=5, degree=8)
        tester = PerformanceTester(graph, observed_of=lambda w: {})
        bounds, members = tester._neighbourhoods()
        for task_id in range(graph.num_tasks):
            expected = {task_id} | {j for j, _ in graph.neighbors(task_id)}
            got = members[bounds[task_id]:bounds[task_id + 1]].tolist()
            assert got == list(expected)

    def test_score_tie_goes_to_lowest_task_id(self, two_cliques):
        """Tasks 1 and 4 have mirror-image neighbourhoods and the same
        co-worker; the lower id wins wherever it sits in ``states``."""
        tester = PerformanceTester(
            two_cliques, observed_of=lambda w: {0: 1.0, 3: 1.0}
        )
        acc = {"x": np.full(6, 0.6)}
        states = [
            TaskState(task_id=4, k=3, assigned_workers={"x"}),
            TaskState(task_id=1, k=3, assigned_workers={"x"}),
        ]
        assert assert_matches_oracle(tester, states, acc) == 1
        assert assert_matches_oracle(tester, states[::-1], acc) == 1

    def test_worker_who_saw_every_candidate_gets_none(self, two_cliques):
        tester = PerformanceTester(two_cliques, observed_of=lambda w: {})
        states = [
            TaskState(task_id=0, k=3, assigned_workers={"w0", "x"}),
            TaskState(task_id=1, k=3, assigned_workers={"x"},
                      tested_workers={"w0"}),
            TaskState(task_id=2, k=3),
        ]
        acc = {"x": np.full(6, 0.8)}
        assert assert_matches_oracle(tester, states, acc) is None

    def test_no_task_with_a_coworker_gets_none(self, two_cliques):
        tester = PerformanceTester(
            two_cliques, observed_of=lambda w: {0: 1.0}
        )
        states = [
            TaskState(task_id=t, k=3, tested_workers={"y"})
            for t in range(6)
        ]
        assert assert_matches_oracle(tester, states, {}) is None
        assert assert_matches_oracle(tester, [], {}) is None

    def test_unestimated_coworker_counts_as_prior(self, two_cliques):
        tester = PerformanceTester(
            two_cliques, observed_of=lambda w: {}, uncertainty_weight=0.0,
            prior_accuracy=0.9,
        )
        acc = {"known": np.full(6, 0.8)}
        states = [
            TaskState(task_id=0, k=3, assigned_workers={"known"}),
            TaskState(task_id=3, k=3, assigned_workers={"unknown"}),
        ]
        assert assert_matches_oracle(tester, states, acc) == 3

    def test_nine_coworkers_sum_left_to_right(self):
        """With k = 9, ``np.mean``'s pairwise sum can differ from the
        left-to-right one in the last bit.  Task A's nine co-workers
        average exactly (left to right) what task B's single co-worker
        has, so the two tie and the lower id wins; averaged with
        ``np.mean`` the tie would break the other way."""
        graph = SimilarityGraph.from_edges(2, [])
        tester = PerformanceTester(
            graph, observed_of=lambda w: {}, uncertainty_weight=0.0
        )
        crew = {f"c{i}" for i in range(9)}
        rng = np.random.default_rng(9)
        for _ in range(200):
            values = dict(zip(sorted(crew), rng.uniform(size=9).tolist()))
            in_order = [values[w] for w in crew]
            summed = 0.0
            for v in in_order:
                summed += v
            left_to_right = summed / 9
            pairwise = float(np.mean(in_order))
            if pairwise != left_to_right:
                break
        else:
            pytest.fail("no draw separates the two sums")
        # np.mean would pick task 1: A when its mean rounds up, else B
        task_a, task_b = (1, 0) if pairwise > left_to_right else (0, 1)
        acc = {w: np.full(2, v) for w, v in values.items()}
        acc["b"] = np.full(2, left_to_right)
        states = [
            TaskState(task_id=task_a, k=9, assigned_workers=crew),
            TaskState(task_id=task_b, k=9, assigned_workers={"b"}),
        ]
        assert assert_matches_oracle(tester, states, acc) == 0


class TestLoopMatchesOracle:
    def test_simulated_run_matches_oracle_event_log(
        self, chaos_event_log, monkeypatch
    ):
        """A seeded simulator run writes the same event log with the
        test choice and the Lemma 3 combination swapped for the
        per-candidate and per-row oracles."""
        from repro.core.ppr import PPRBasis

        production, _ = chaos_event_log("production")
        choices = []

        def oracle_choice(self, worker_id, board, accuracies):
            choices.append(worker_id)
            return oracle.choose_test_task(
                self, worker_id, list(board.states.values()), accuracies
            )

        original_combine = PPRBasis.combine

        def oracle_combine(self, q):
            if isinstance(q, dict):
                return oracle.combine_rows(self, q)
            return original_combine(self, q)

        monkeypatch.setattr(
            PerformanceTester, "choose_test_task", oracle_choice
        )
        monkeypatch.setattr(PPRBasis, "combine", oracle_combine)
        reference, _ = chaos_event_log("oracle")
        assert len(choices) >= 50
        assert reference == production

"""Fault injection and chaos resilience (the tentpole's contract).

The first class pins the regression guarantee: a platform constructed
without a fault config and one with ``FaultConfig.disabled()`` produce
byte-identical runs on a fixed seed.  The rest drives real policies
through injected duplicates, late answers, blackouts and malformed
submits and checks the resilient-loop invariants (job finishes, no
double payments, accuracy holds up).
"""

import pytest

from repro.baselines import RandomMV
from repro.core.types import Label, Task, TaskSet
from repro.platform import FaultConfig, FaultInjector, SimulatedPlatform
from repro.workers import WorkerPool, generate_profiles

pytestmark = pytest.mark.faults


def make_tasks(n=6, domain="d"):
    return TaskSet(
        [
            Task(i, f"task {i} tokens shared", domain,
                 Label.YES if i % 2 == 0 else Label.NO)
            for i in range(n)
        ]
    )


def make_pool(n=5, seed=0, domains=("d",)):
    return WorkerPool(generate_profiles(list(domains), n, seed=seed),
                      seed=seed)


def run_once(faults, *, seed=3, abandonment=0.0, timeout=50):
    tasks = make_tasks(6)
    pool = make_pool(5, seed=seed)
    policy = RandomMV(tasks, k=3, seed=seed)
    platform = SimulatedPlatform(
        tasks, pool, policy,
        abandonment=abandonment,
        assignment_timeout=timeout,
        faults=faults,
        seed=seed,
    )
    return platform.run(), pool


class TestDisabledFaultsAreFree:
    def test_run_byte_identical_with_and_without_fault_config(self):
        """faults=None and FaultConfig.disabled() must not differ in a
        single event, payment or prediction."""
        baseline, _ = run_once(None)
        disabled, _ = run_once(FaultConfig.disabled())
        assert list(baseline.events) == list(disabled.events)
        assert baseline.predictions == disabled.predictions
        assert baseline.steps == disabled.steps
        assert baseline.total_cost == disabled.total_cost
        assert (
            baseline.payments.statement()
            == disabled.payments.statement()
        )

    def test_disabled_stats_stay_zero(self):
        report, _ = run_once(FaultConfig.disabled())
        assert all(v == 0 for v in report.faults.as_dict().values())
        assert report.leases.expired == 0


class TestFaultConfig:
    def test_rates_validated(self):
        with pytest.raises(ValueError, match="late_answer"):
            FaultConfig(late_answer=1.5)
        with pytest.raises(ValueError, match="blackout_fraction"):
            FaultConfig(blackout_fraction=0.0)
        with pytest.raises(ValueError, match="blackout_duration"):
            FaultConfig(blackout_duration=0)

    def test_chaos_profile(self):
        config = FaultConfig.chaos(0.2, seed=9)
        assert config.duplicate_submission == 0.2
        assert config.late_answer == 0.2
        assert config.malformed_submission == 0.1
        assert config.blackout_rate == pytest.approx(0.04)
        assert config.enabled
        assert "duplicate_submission=0.2" in config.describe()
        assert FaultConfig.disabled().describe() == "none"

    def test_injector_draws_nothing_at_rate_zero(self):
        injector = FaultInjector(FaultConfig.disabled(), seed=0)
        state_before = injector._rng.bit_generator.state
        assert not injector.duplicate_submission()
        assert not injector.late_answer()
        assert not injector.malformed_submission()
        assert injector.blackout_victims(["w1", "w2"]) == []
        assert injector._rng.bit_generator.state == state_before


class TestInjectedFaults:
    def test_duplicates_never_double_pay_or_double_count(self):
        faults = FaultConfig(duplicate_submission=0.5)
        report, _ = run_once(faults)
        assert report.finished
        assert report.faults.duplicates_injected > 0
        assert (
            report.faults.duplicates_dropped
            == report.faults.duplicates_injected
        )
        assert report.payments.duplicate_attempts == 0
        # every recorded answer was paid exactly once
        assert report.total_cost == pytest.approx(
            report.num_answers * 0.01
        )
        # and k votes per task, never more
        assert report.num_answers == 6 * 3

    def test_late_answers_dropped_and_slot_requeued(self):
        faults = FaultConfig(late_answer=0.4)
        report, _ = run_once(faults, timeout=5)
        assert report.finished
        assert report.faults.late_injected > 0
        # every held answer that came due was dropped; a few may still
        # be in flight when the job finishes
        assert 0 < report.faults.late_dropped <= report.faults.late_injected
        assert report.leases.expired >= report.faults.late_dropped
        assert len(report.events.expirations()) == report.leases.expired
        assert report.num_answers == 6 * 3

    def test_malformed_submissions_never_reach_the_policy(self):
        faults = FaultConfig(malformed_submission=0.3)
        report, _ = run_once(faults, timeout=5)
        assert report.finished
        assert report.faults.malformed_injected > 0
        assert report.num_answers == 6 * 3

    def test_blackout_bursts_suspend_but_do_not_stall(self):
        faults = FaultConfig(
            blackout_rate=0.2, blackout_fraction=0.5,
            blackout_duration=4,
        )
        report, _ = run_once(faults)
        assert report.finished
        assert report.faults.blackout_bursts > 0
        assert report.faults.blackout_workers > 0

    def test_everything_at_once(self):
        report, _ = run_once(FaultConfig.chaos(0.2, seed=1), timeout=8)
        assert report.finished
        assert report.payments.duplicate_attempts == 0
        assert report.num_answers == 6 * 3


class TestAbandonment:
    def test_abandoning_worker_not_credited_a_submission(self):
        report, pool = run_once(None, abandonment=0.4, timeout=5)
        assert report.finished
        abandoned = pool.abandonment_counts()
        assert sum(abandoned.values()) > 0
        # submissions credited == answers actually recorded
        assert (
            sum(pool.submission_counts().values()) == report.num_answers
        )
        # every walked-away slot expired and was requeued
        assert report.leases.expired >= sum(abandoned.values())

    def test_expiry_runs_without_abandonment(self):
        """The sweep is unconditional: late answers expire leases even
        when abandonment is 0 (the old gating bug)."""
        report, _ = run_once(
            FaultConfig(late_answer=0.5), abandonment=0.0, timeout=5
        )
        assert report.leases.expired > 0
        assert len(report.events.expirations()) > 0


class TestICrowdLateVotes:
    def test_late_vote_after_test_lease_not_accepted(self):
        """Late answers on: a held vote whose task was leased again to
        the same worker as a test (and answered) used to be accepted,
        and ``SimulatedPlatform`` raised on the duplicate."""
        import numpy as np

        from repro.core import ICrowd, ICrowdConfig, SimilarityGraph

        seed = 4
        rng = np.random.default_rng([seed, 1])
        tasks = TaskSet(
            [
                Task(i, f"synthetic task {i}", f"D{i // 8}",
                     Label(int(rng.integers(0, 2))))
                for i in range(16)
            ]
        )
        similarity = np.zeros((16, 16))
        for lo in (0, 8):
            members = np.arange(lo, lo + 8)
            for i in members:
                picks = rng.choice(
                    members[members != i], size=3, replace=False
                )
                similarity[i, picks] = rng.uniform(0.3, 1.0, size=3)
        graph = SimilarityGraph.from_matrix(
            np.maximum(similarity, similarity.T)
        )
        policy = ICrowd(tasks, ICrowdConfig(), graph=graph)
        pool = WorkerPool(
            generate_profiles(tasks.domains(), 6, seed=0), seed=seed
        )
        platform = SimulatedPlatform(
            tasks, pool, policy,
            faults=FaultConfig(late_answer=0.5, seed=seed), seed=seed,
        )
        report = platform.run(max_steps=200)
        assert report.faults.late_injected > 0
        assert report.payments.duplicate_attempts == 0


class TestICrowdUnderChaos:
    """Acceptance: iCrowd at 10% duplicate+late faults still finishes,
    never double-pays, and loses at most 2 accuracy points."""

    @pytest.fixture(scope="class")
    def setup(self):
        from repro.experiments import make_setup

        return make_setup("itemcompare", seed=7, scale=0.1)

    def run_icrowd(self, setup, faults):
        from repro.experiments.runner import build_policy

        policy = build_policy("iCrowd", setup)
        pool = setup.fresh_pool(run_tag="chaos-acceptance")
        platform = SimulatedPlatform(
            setup.tasks, pool, policy, faults=faults, seed=7
        )
        report = platform.run()
        accuracy = report.accuracy(
            setup.tasks, exclude=set(setup.qualification_tasks)
        )
        return report, accuracy

    def test_icrowd_resilient_at_ten_percent_faults(self, setup):
        clean_report, clean_accuracy = self.run_icrowd(setup, None)
        faults = FaultConfig(
            duplicate_submission=0.10, late_answer=0.10
        )
        report, accuracy = self.run_icrowd(setup, faults)
        assert clean_report.finished
        assert report.finished
        assert (
            report.faults.duplicates_injected
            + report.faults.late_injected
            > 0
        )
        assert report.payments.duplicate_attempts == 0
        assert accuracy >= clean_accuracy - 0.02

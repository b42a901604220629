"""Every shipped policy implements the strict ``PolicyProtocol``.

The session calls each protocol member directly and logs a task's
completion from one ``consensus()`` call after the accepted vote, so
every policy must report an ``AnswerOutcome`` for each delivery and
keep ``consensus()`` in step with ``completed_tasks()``.  The chaos
runs keep the earlier completion detector — a ``completed_tasks()``
diff around every ``on_answer`` — as the oracle for the
``CompleteEvent``s the session writes.
"""

import pytest

from repro.baselines import (
    AvgAccPV,
    BestEffort,
    MatchingPolicy,
    QFOnly,
    RandomEM,
    RandomMV,
)
from repro.core import ICrowd
from repro.core.early_stop import EarlyStopICrowd
from repro.core.types import AnswerOutcome, Label, Task, TaskSet
from repro.platform import (
    AnswerEvent,
    CompleteEvent,
    FaultConfig,
    PolicyProtocol,
    SimulatedPlatform,
)

QUALIFICATION = [0, 1]
CHOICES = ("cat", "dog", "bird")
POLICIES = (
    "iCrowd",
    "QF-Only",
    "BestEffort",
    "Matching",
    "EarlyStop",
    "RandomMV",
    "RandomEM",
    "AvgAccPV",
    "MultiICrowd",  # ICrowd over a 3-choice task set
)
FRAMEWORKS = {
    "iCrowd": ICrowd,
    "QF-Only": QFOnly,
    "BestEffort": BestEffort,
    "Matching": MatchingPolicy,
    "EarlyStop": EarlyStopICrowd,
}


def multi_tasks():
    return TaskSet(
        [
            Task(
                task_id=i,
                text=f"animal picture {i // 6} shared words",
                domain=f"d{i // 6}",
                truth=CHOICES[i % 3],
            )
            for i in range(12)
        ],
        CHOICES,
    )


@pytest.fixture
def case(request, paper_tasks, paper_graph, tiny_config):
    """(policy, the label its votes carry) for one shipped policy."""
    name = request.param
    if name in FRAMEWORKS:
        policy = FRAMEWORKS[name](
            paper_tasks,
            tiny_config,
            graph=paper_graph,
            qualification_tasks=QUALIFICATION,
        )
        return policy, Label.YES
    if name == "AvgAccPV":
        return AvgAccPV(paper_tasks, QUALIFICATION, k=3), Label.YES
    if name == "MultiICrowd":
        policy = ICrowd(
            multi_tasks(), tiny_config, qualification_tasks=QUALIFICATION
        )
        return policy, CHOICES[0]
    policy_cls = {"RandomMV": RandomMV, "RandomEM": RandomEM}[name]
    return policy_cls(paper_tasks, k=3, excluded_tasks=QUALIFICATION), Label.YES


@pytest.mark.parametrize("case", POLICIES, indirect=True)
class TestStrictProtocol:
    def test_is_a_policy(self, case):
        policy, _ = case
        assert isinstance(policy, PolicyProtocol)

    def test_outcomes(self, case):
        policy, label = case
        assert policy.on_answer("p", 4, label) is AnswerOutcome.ACCEPTED
        assert policy.on_answer("p", 4, label) is AnswerOutcome.DUPLICATE
        for voter in ("v1", "v2", "v3"):
            policy.on_answer(voter, 5, label)
        assert 5 in policy.completed_tasks()
        assert policy.on_answer("late", 5, label) is AnswerOutcome.IGNORED

    def test_consensus_exactly_on_completed_tasks(self, case):
        policy, label = case
        for voter in ("v1", "v2", "v3"):
            policy.on_answer(voter, 5, label)
        policy.on_answer("v1", 6, label)
        completed = set(policy.completed_tasks())
        assert completed == {5}
        for task_id in range(12):
            consensus = policy.consensus(task_id)
            assert (consensus is not None) == (task_id in completed)
        assert policy.consensus(5) == policy.predictions()[5]


def run_with_diff_oracle(policy, setup, seed):
    """A chaos run of ``policy`` and, in order, the (task, result) pairs
    of the tasks each ``on_answer`` call completed, read from a
    ``completed_tasks()`` diff and ``predictions()`` right after it."""
    expected = []
    answer = policy.on_answer

    def diffed(worker_id, task_id, label, is_test=False):
        before = set(policy.completed_tasks())
        outcome = answer(worker_id, task_id, label, is_test)
        completed = set(policy.completed_tasks()) - before
        if completed:
            predictions = policy.predictions()
            expected.extend((t, predictions[t]) for t in sorted(completed))
        return outcome

    policy.on_answer = diffed
    report = SimulatedPlatform(
        setup.tasks,
        setup.fresh_pool("protocol"),
        policy,
        abandonment=0.1,
        assignment_timeout=20,
        faults=FaultConfig.chaos(0.15, seed=seed),
        seed=seed,
    ).run()
    return report, expected


@pytest.mark.faults
@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("name", POLICIES[:-1])
def test_complete_events_match_the_completed_tasks_diff(name, seed):
    from repro.experiments.runner import build_policy
    from repro.experiments.setups import make_setup

    setup = make_setup("itemcompare", seed=seed, scale=0.1, num_workers=12)
    if name == "EarlyStop":
        policy = EarlyStopICrowd(
            setup.tasks,
            setup.config,
            graph=setup.graph,
            qualification_tasks=list(setup.qualification_tasks),
            estimator=setup.estimator,
        )
    else:
        policy = build_policy(name, setup)
    report, expected = run_with_diff_oracle(policy, setup, seed)
    events = list(report.events)
    completions = [
        (i, e) for i, e in enumerate(events) if isinstance(e, CompleteEvent)
    ]
    assert expected
    assert [(e.task_id, e.consensus) for _, e in completions] == expected
    for i, event in completions:
        # the accepted vote that completed the task comes right before
        vote = events[i - 1]
        assert isinstance(vote, AnswerEvent)
        assert (vote.step, vote.task_id, vote.is_test) == (
            event.step, event.task_id, False,
        )

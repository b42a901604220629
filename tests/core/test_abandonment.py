"""Unit tests for assignment release and expiry (returned HITs)."""

import pytest

from repro.core.framework import ICrowd
from repro.core.types import Label


@pytest.fixture
def framework(paper_tasks, paper_graph, tiny_config):
    framework = ICrowd(
        paper_tasks, tiny_config, graph=paper_graph,
        qualification_tasks=[0, 1],
    )
    # one qualified worker
    framework.on_answer("w1", 0, paper_tasks[0].truth)
    framework.on_answer("w1", 1, paper_tasks[1].truth)
    return framework


class TestReleaseAssignment:
    def test_release_reopens_slot(self, framework):
        assignment = framework.on_worker_request("w1")
        task_id = assignment.task_id
        state = framework._board.states[task_id]
        assert "w1" in state.assigned_workers
        assert framework.release_assignment("w1", task_id) is True
        assert "w1" not in state.assigned_workers
        assert (("w1", task_id)) not in framework.pending_assignments()

    def test_release_unknown_pair(self, framework):
        assert framework.release_assignment("ghost", 5) is False

    def test_answer_clears_pending(self, framework):
        assignment = framework.on_worker_request("w1")
        framework.on_answer("w1", assignment.task_id, Label.YES)
        assert framework.pending_assignments() == {}

    def test_released_task_can_be_reassigned(self, framework):
        assignment = framework.on_worker_request("w1")
        framework.release_assignment("w1", assignment.task_id)
        again = framework.on_worker_request("w1")
        assert again is not None  # the worker is eligible again


class TestPlatformAbandonment:
    def test_job_completes_under_abandonment(self):
        from repro.experiments.runner import build_policy
        from repro.experiments.setups import make_setup
        from repro.platform import SimulatedPlatform

        setup = make_setup(
            "itemcompare", seed=31, scale=0.1, num_workers=12
        )
        policy = build_policy("iCrowd", setup)
        platform = SimulatedPlatform(
            setup.tasks,
            setup.fresh_pool("abandon"),
            policy,
            abandonment=0.15,
            assignment_timeout=20,
            seed=31,
        )
        report = platform.run()
        assert report.finished, "abandonment starved the job"

    def test_validates_parameters(self):
        from repro.experiments.runner import build_policy
        from repro.experiments.setups import make_setup
        from repro.platform import SimulatedPlatform

        setup = make_setup(
            "itemcompare", seed=31, scale=0.1, num_workers=12
        )
        policy = build_policy("RandomMV", setup)
        with pytest.raises(ValueError):
            SimulatedPlatform(
                setup.tasks, setup.fresh_pool("x"), policy,
                abandonment=1.0,
            )
        with pytest.raises(ValueError):
            SimulatedPlatform(
                setup.tasks, setup.fresh_pool("x"), policy,
                assignment_timeout=0,
            )

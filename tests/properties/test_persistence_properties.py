"""Property-based test: checkpoint/restore is behaviourally invisible.

Drives an ICrowd instance with a random interaction script, checkpoints
at a random point, restores into a fresh framework, then continues BOTH
copies with the same remaining script.  Every observable — predictions,
completed tasks, pending assignments, estimates — must stay identical:
a mid-job server restart may never change the outcome of the job.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import (
    AssignerConfig,
    EstimatorConfig,
    GraphConfig,
    ICrowdConfig,
    QualificationConfig,
)
from repro.core.framework import ICrowd
from repro.core.graph import SimilarityGraph
from repro.core.persistence import checkpoint_state, restore_state
from repro.core.types import Label, Task, TaskSet
from tests.core.board_oracle import assert_board_matches_records

WORKERS = ["w1", "w2", "w3", "w4"]


def make_workload():
    rows = [
        ("alpha beta gamma one", "x"),
        ("alpha beta delta two", "x"),
        ("alpha gamma delta three", "x"),
        ("omega sigma tau four", "y"),
        ("omega sigma rho five", "y"),
        ("omega tau rho six", "y"),
    ]
    tasks = TaskSet(
        [
            Task(i, text, domain, Label.YES if i % 2 == 0 else Label.NO)
            for i, (text, domain) in enumerate(rows)
        ]
    )
    config = ICrowdConfig(
        estimator=EstimatorConfig(),
        assigner=AssignerConfig(k=2),
        qualification=QualificationConfig(
            num_qualification=2, qualification_threshold=0.0
        ),
        graph=GraphConfig(measure="jaccard", threshold=0.2),
    )
    graph = SimilarityGraph.from_tasks(list(tasks), config.graph)
    return tasks, config, graph


def build(tasks, config, graph):
    return ICrowd(
        tasks, config, graph=graph, qualification_tasks=[0, 3]
    )


def play(framework, tasks, script):
    """Apply a script of (worker index, answer bit) interactions."""
    for worker_index, answer_bit in script:
        worker = WORKERS[worker_index]
        assignment = framework.on_worker_request(worker, WORKERS)
        if assignment is None:
            continue
        truth = tasks[assignment.task_id].truth
        label = truth if answer_bit else truth.flipped()
        framework.on_answer(
            worker, assignment.task_id, label, assignment.is_test
        )


def observables(framework):
    return (
        framework.predictions(),
        sorted(framework.completed_tasks()),
        framework.pending_assignments(),
        {
            t: [(a.worker_id, a.label) for a in vs.answers]
            for t, vs in framework.votes().items()
        },
    )


interaction = st.tuples(
    st.integers(0, len(WORKERS) - 1), st.booleans()
)


class TestCheckpointTransparency:
    @given(
        prefix=st.lists(interaction, min_size=0, max_size=25),
        suffix=st.lists(interaction, min_size=0, max_size=15),
    )
    @settings(max_examples=30, deadline=None)
    def test_restart_mid_job_changes_nothing(self, prefix, suffix):
        tasks, config, graph = make_workload()

        # reference: play the whole script without a restart
        reference = build(tasks, config, graph)
        play(reference, tasks, prefix)
        payload = checkpoint_state(reference)
        play(reference, tasks, suffix)

        # restarted copy: restore from the checkpoint, then continue
        restored = restore_state(build(tasks, config, graph), payload)
        assert_board_matches_records(restored._board)
        play(restored, tasks, suffix)

        assert observables(restored) == observables(reference)
        # estimates are derived state and must also agree
        for worker in WORKERS:
            if reference.warmup.state_of(worker).num_answered == 0:
                continue
            assert np.allclose(
                restored.estimate_for(worker),
                reference.estimate_for(worker),
            )

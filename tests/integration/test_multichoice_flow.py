"""Integration test: the m-choice voting layer against the estimator.

Simulates a small multi-choice crowdsourcing job by hand (everything
above the voting layer only sees observed accuracies, so this drives
:class:`VoteState` and m-choice Eq. (5) into the estimator directly).
"""

import numpy as np

from repro.core.config import EstimatorConfig
from repro.core.estimator import AccuracyEstimator
from repro.core.graph import SimilarityGraph
from repro.core.observed import consensus_observed_accuracy
from repro.core.types import Answer, VoteState
from repro.utils.rng import spawn_rng

CHOICES = ("rock", "paper", "scissors")


def test_multichoice_job_with_graph_estimation():
    """Workers vote on 3-choice tasks in two topical clusters; the
    estimator built from multichoice observed accuracies must still
    identify each worker's strong cluster."""
    rng = spawn_rng(0, "multichoice-flow")
    # two 5-cliques of tasks
    edges = []
    for base in (0, 5):
        for i in range(5):
            for j in range(i + 1, 5):
                edges.append((base + i, base + j, 1.0))
    graph = SimilarityGraph.from_edges(10, edges)
    estimator = AccuracyEstimator(graph, EstimatorConfig())

    truth = {t: CHOICES[int(rng.integers(0, 3))] for t in range(10)}
    # worker A is good on cluster 1 (tasks 0-4), bad on cluster 2
    worker_accuracy = {"A": (0.95, 0.2), "B": (0.2, 0.95), "C": (0.7, 0.7)}

    def answer(worker, task):
        strong, weak = worker_accuracy[worker]
        accuracy = strong if task < 5 else weak
        if rng.random() < accuracy:
            return truth[task]
        wrong = [c for c in CHOICES if c != truth[task]]
        return wrong[int(rng.integers(0, 2))]

    states = {}
    for task in range(10):
        state = VoteState(task_id=task, k=3, choices=CHOICES)
        for worker in ("A", "B", "C"):
            state.add(Answer(task, worker, answer(worker, task)))
        assert state.is_complete()
        states[task] = state

    # observed accuracies for worker A via the generalised Eq. (5)
    observed_a = {}
    for task, state in states.items():
        consensus = state.consensus()
        worker_choice = next(
            a.label for a in state.answers if a.worker_id == "A"
        )
        vote_list = [
            (a.label, 0.7)  # flat prior estimates for co-voters
            for a in state.answers
        ]
        observed_a[task] = consensus_observed_accuracy(
            worker_choice, consensus, vote_list, num_choices=3
        )
    estimate = estimator.estimate(observed_a)
    # A must be rated higher on her strong cluster
    assert np.mean(estimate[:5]) > np.mean(estimate[5:])

"""Reference forms of Eq. (5) the production one is checked against.

:func:`binary_observed_accuracy` is the paper's two-label formula in
its P1 / P̄1 / P2 / P̄2 form, computed the way ``repro.core.observed``
computed it before the m-choice product form replaced it.
:func:`logsumexp_observed_accuracy` is the m-choice posterior over all
``m`` labels, computed in log space.
"""

from __future__ import annotations

import math


def _clamp(p, floor=1e-6):
    return min(max(p, floor), 1.0 - floor)


def binary_observed_accuracy(worker_label, consensus, votes):
    """Eq. (5) with two labels: the posterior that the consensus
    (resp. the worker's minority) answer is correct."""
    p_agree = 1.0  # P1:  all agreeing workers answer correctly
    p_agree_bar = 1.0  # P̄1: all agreeing workers answer incorrectly
    p_disagree = 1.0  # P2
    p_disagree_bar = 1.0  # P̄2
    for label, accuracy in votes:
        accuracy = _clamp(accuracy)
        if label == consensus:
            p_agree *= accuracy
            p_agree_bar *= 1.0 - accuracy
        else:
            p_disagree *= accuracy
            p_disagree_bar *= 1.0 - accuracy
    numerator_match = p_agree * p_disagree_bar
    numerator_mismatch = p_agree_bar * p_disagree
    denominator = numerator_match + numerator_mismatch
    if denominator == 0.0:
        return 0.5
    if worker_label == consensus:
        return numerator_match / denominator
    return numerator_mismatch / denominator


def logsumexp_observed_accuracy(worker_label, votes, choices):
    """Posterior of ``worker_label`` over every label in ``choices``
    under the symmetric-error model, with a uniform prior."""
    spread = len(choices) - 1
    log_likelihood = {
        label: sum(
            math.log(_clamp(p))
            if voted == label
            else math.log((1.0 - _clamp(p)) / spread)
            for voted, p in votes
        )
        for label in choices
    }
    shift = max(log_likelihood.values())
    log_total = shift + math.log(
        math.fsum(math.exp(v - shift) for v in log_likelihood.values())
    )
    return math.exp(log_likelihood[worker_label] - log_total)

"""Property-based tests for the m-choice voting layer and Eq. (5).

Votes are drawn from the first ``m`` labels of :data:`CHOICES`, so
every vote set is one the m-choice model can produce.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.observed import consensus_observed_accuracy
from repro.core.types import Answer, Label, VoteState
from tests.core.eq5_oracle import (
    binary_observed_accuracy,
    logsumexp_observed_accuracy,
)

CHOICES = tuple("abcdefghij")
BINARY = (Label.NO, Label.YES)

accuracy = st.floats(min_value=0.0, max_value=1.0)


def first_choices(min_m):
    """Alphabets ``CHOICES[:m]`` for ``m`` from ``min_m`` to 10."""
    return st.integers(min_m, len(CHOICES)).map(lambda m: CHOICES[:m])


@st.composite
def vote_sets(draw, alphabets=first_choices(2)):
    """(alphabet, votes, worker label, consensus); ``k`` up to 7, and
    unanimous vote sets drawn on purpose."""
    alphabet = draw(alphabets)
    label = st.sampled_from(alphabet)
    labels = draw(st.lists(label, min_size=1, max_size=7))
    if draw(st.booleans()):
        labels = [labels[0]] * len(labels)
    votes = [(voted, draw(accuracy)) for voted in labels]
    return alphabet, votes, draw(label), draw(label)


class TestObservedAccuracyProperties:
    @given(case=vote_sets())
    @settings(max_examples=150)
    def test_in_unit_interval(self, case):
        alphabet, votes, worker, consensus = case
        value = consensus_observed_accuracy(
            worker, consensus, votes, num_choices=len(alphabet)
        )
        assert 0.0 <= value <= 1.0

    @given(case=vote_sets())
    @settings(max_examples=150)
    def test_candidate_posteriors_sum_to_at_most_one(self, case):
        """Each label's observed accuracy is the posterior of that
        label being true: the voted labels' posteriors sum to at most
        one, and all ``m`` labels' to one."""
        alphabet, votes, _, consensus = case
        m = len(alphabet)
        posterior = {
            label: consensus_observed_accuracy(
                label, consensus, votes, num_choices=m
            )
            for label in alphabet
        }
        voted = dict.fromkeys(label for label, _ in votes)
        assert sum(posterior[label] for label in voted) <= 1.0 + 1e-9
        assert abs(sum(posterior.values()) - 1.0) < 1e-9

    @given(case=vote_sets())
    @settings(max_examples=100)
    def test_relabeling_symmetry(self, case):
        """Permuting label names leaves observed accuracies unchanged."""
        alphabet, votes, _, _ = case
        m = len(alphabet)
        mapping = {c: alphabet[(i + 1) % m] for i, c in enumerate(alphabet)}
        permuted = [(mapping[c], p) for c, p in votes]
        original = consensus_observed_accuracy(
            votes[0][0], votes[0][0], votes, num_choices=m
        )
        renamed = consensus_observed_accuracy(
            mapping[votes[0][0]],
            mapping[votes[0][0]],
            permuted,
            num_choices=m,
        )
        assert abs(original - renamed) < 1e-9


class TestEq5MatchesOracles:
    @given(case=vote_sets(alphabets=st.just(BINARY)))
    @settings(max_examples=400)
    def test_binary_equals_the_two_label_formula(self, case):
        """At m = 2 the product form is the paper's formula bit for
        bit, unanimous vote sets included."""
        _, votes, worker, consensus = case
        assert consensus_observed_accuracy(
            worker, consensus, votes, num_choices=2
        ) == binary_observed_accuracy(worker, consensus, votes)

    @given(case=vote_sets(alphabets=first_choices(3)))
    @settings(max_examples=300)
    def test_m_choice_equals_the_log_space_posterior(self, case):
        alphabet, votes, worker, consensus = case
        value = consensus_observed_accuracy(
            worker, consensus, votes, num_choices=len(alphabet)
        )
        expected = logsumexp_observed_accuracy(worker, votes, alphabet)
        assert abs(value - expected) <= 1e-12


@st.composite
def vote_script(draw):
    n_votes = draw(st.integers(1, 7))
    return [
        (f"w{i}", draw(st.sampled_from(CHOICES[:4]))) for i in range(n_votes)
    ]


def fill(script):
    state = VoteState(task_id=0, k=len(script), choices=CHOICES[:4])
    for worker, picked in script:
        state.add(Answer(0, worker, picked))
    return state


class TestPluralityProperties:
    @given(script=vote_script())
    @settings(max_examples=150)
    def test_state_and_batch_agree(self, script):
        """The incremental state agrees with a batch plurality count
        whose ties go to the earlier choice."""
        tallies = Counter(picked for _, picked in script)
        best = max(tallies.values())
        batch = next(c for c in CHOICES[:4] if tallies[c] == best)
        assert fill(script).consensus() == batch

    @given(script=vote_script())
    @settings(max_examples=150)
    def test_consensus_has_max_tally(self, script):
        state = fill(script)
        tallies = Counter(answer.label for answer in state.answers)
        assert tallies[state.consensus()] == max(tallies.values())

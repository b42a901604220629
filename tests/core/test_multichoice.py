"""Unit tests for the m-choice voting layer and Eq. (5) with m labels."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.core.observed import consensus_observed_accuracy
from repro.core.types import Answer, Label, VoteState
from tests.core.eq5_oracle import binary_observed_accuracy

CHOICES = ("red", "green", "blue")
SRC = pathlib.Path(__file__).resolve().parents[2] / "src"


class TestMultiVoteState:
    """:class:`VoteState` over an m-choice alphabet."""

    def make_state(self, k=3):
        return VoteState(task_id=0, k=k, choices=CHOICES)

    def test_plurality_consensus(self):
        state = self.make_state()
        state.add(Answer(0, "w1", "red"))
        state.add(Answer(0, "w2", "red"))
        state.add(Answer(0, "w3", "blue"))
        assert state.is_complete()
        assert state.consensus() == "red"

    def test_tie_breaks_by_choice_order(self):
        state = self.make_state(k=2)
        state.add(Answer(0, "w1", "blue"))
        state.add(Answer(0, "w2", "green"))
        assert state.consensus() == "green"  # earlier in CHOICES

    def test_rejects_invalid_choice(self):
        state = self.make_state()
        with pytest.raises(ValueError, match="choice"):
            state.add(Answer(0, "w1", "magenta"))

    def test_rejects_double_vote(self):
        state = self.make_state()
        state.add(Answer(0, "w1", "red"))
        with pytest.raises(ValueError, match="already answered"):
            state.add(Answer(0, "w1", "blue"))


class TestPluralityVote:
    def test_empty(self):
        """With no votes the plurality is the first choice (what
        ``ICrowd.predictions`` reports for an unvoted task)."""
        assert VoteState(task_id=0, k=3, choices=CHOICES).consensus() == "red"


class TestMultichoiceObservedAccuracy:
    def test_reduces_to_binary_eq5(self):
        """At m=2 the generalisation must equal the paper's Eq. (5)."""
        votes_binary = [
            (Label.YES, 0.8),
            (Label.NO, 0.6),
            (Label.YES, 0.7),
        ]
        expected = binary_observed_accuracy(
            Label.YES, Label.YES, votes_binary
        )
        votes_multi = [("yes", 0.8), ("no", 0.6), ("yes", 0.7)]
        value = consensus_observed_accuracy(
            "yes", "yes", votes_multi, num_choices=2
        )
        assert value == expected

    def test_binary_disagree_case(self):
        votes_binary = [
            (Label.NO, 0.8),
            (Label.YES, 0.6),
            (Label.YES, 0.7),
        ]
        expected = binary_observed_accuracy(
            Label.NO, Label.YES, votes_binary
        )
        votes_multi = [("no", 0.8), ("yes", 0.6), ("yes", 0.7)]
        value = consensus_observed_accuracy(
            "no", "yes", votes_multi, num_choices=2
        )
        assert value == expected

    def test_unanimous_reliable_workers_near_one(self):
        votes = [("red", 0.9)] * 3
        value = consensus_observed_accuracy(
            "red", "red", votes, num_choices=3
        )
        assert value > 0.95

    def test_unanimous_unreliable_workers_score_low(self):
        """The labels nobody voted for stay in the normaliser, so
        unanimity among poor workers is weak evidence: three voters at
        0.3 out of three choices score about 0.24, not 1."""
        votes = [("red", 0.3)] * 3
        value = consensus_observed_accuracy(
            "red", "red", votes, num_choices=3
        )
        expected = 0.3**3 / (0.3**3 + 2 * 0.35**3)
        assert value == pytest.approx(expected, rel=1e-12)

    def test_minority_voter_scores_low(self):
        votes = [("red", 0.9), ("red", 0.9), ("blue", 0.9)]
        value = consensus_observed_accuracy(
            "blue", "red", votes, num_choices=3
        )
        assert value < 0.2

    def test_in_unit_interval(self):
        votes = [("red", 1.0), ("blue", 0.0), ("green", 0.5)]
        value = consensus_observed_accuracy(
            "green", "red", votes, num_choices=3
        )
        assert 0.0 <= value <= 1.0

    def test_more_choices_make_agreement_stronger(self):
        """With more alternatives, agreeing with the consensus is
        stronger evidence (a wrong pick lands on the consensus less
        often)."""
        votes3 = [("a", 0.7), ("a", 0.7), ("b", 0.7)]
        votes10 = list(votes3)
        value3 = consensus_observed_accuracy(
            "a", "a", votes3, num_choices=3
        )
        value10 = consensus_observed_accuracy(
            "a", "a", votes10, num_choices=10
        )
        assert value10 > value3

    def test_validation(self):
        with pytest.raises(ValueError):
            consensus_observed_accuracy("a", "a", [], num_choices=1)
        with pytest.raises(ValueError, match="distinct labels"):
            consensus_observed_accuracy(
                "a", "a", [("a", 0.9), ("b", 0.8), ("c", 0.7)], num_choices=2
            )

    def test_same_bits_under_any_hash_seed(self):
        """String labels hash differently per interpreter; the values
        must not depend on it."""
        script = (
            "from repro.core.observed import consensus_observed_accuracy\n"
            "from repro.utils.rng import spawn_rng\n"
            "rng = spawn_rng(3, 'eq5-hash-seed')\n"
            "labels = ('cat', 'dog', 'bird', 'fish')\n"
            "for _ in range(2000):\n"
            "    m = int(rng.integers(2, 5))\n"
            "    votes = [(labels[int(rng.integers(0, m))], float(rng.random()))\n"
            "             for _ in range(int(rng.integers(1, 8)))]\n"
            "    print(consensus_observed_accuracy(\n"
            "        votes[0][0], votes[-1][0], votes, num_choices=m).hex())\n"
        )
        outputs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
            result = subprocess.run(
                [sys.executable, "-c", script],
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
                check=True,
            )
            outputs.append(result.stdout.split())
        assert len(outputs[0]) == 2000
        assert outputs[0] == outputs[1]

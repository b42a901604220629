"""The Appendix A session behind both front-ends.

The scripted worker session of :mod:`tests.platform.http_script`, fed
to a bare ``Session`` on the server's tick sequence, must write the
byte-identical event log the server wrote for it over HTTP.  The
simulator and the server keep different clocks (a simulator step is a
request plus its answer, a server tick one HTTP call), so this is the
form their differential test takes.
"""

from repro.core.types import AnswerOutcome, Label
from repro.platform import Session, SettleResult
from tests.platform.http_script import (
    EXPECTED_EVENTS,
    LEASE_TIMEOUT,
    SCRIPT,
    make_policy,
)


def run_through_session(tmp_path):
    """SCRIPT through a bare session on the server's tick sequence."""
    policy = make_policy()
    session = Session(policy, LEASE_TIMEOUT)
    tick = 0
    for kind, *args in SCRIPT:
        if kind == "vote":
            worker, task, label = args
            policy.on_answer(worker, task, Label(label))
        elif kind in ("request", "submit"):
            tick += 1
            session.sweep(tick)
            if kind == "request":
                session.request(args[0], tick, None)
            else:
                worker, task, label = args
                session.submit(worker, task, Label(label), False, tick)
    path = tmp_path / "session.jsonl"
    session.events.to_jsonl(path)
    return path.read_bytes()


class TestSession:
    def test_bare_session_writes_the_server_event_log(self, tmp_path):
        assert run_through_session(tmp_path) == EXPECTED_EVENTS

    def test_policy_methods_are_looked_up_per_call(self):
        """Wrappers installed on the policy after the session was built
        (as the benchmark's timers are) see every call."""
        policy = make_policy()
        session = Session(policy, LEASE_TIMEOUT)
        seen = []
        request, answer = policy.on_worker_request, policy.on_answer

        def timed_request(worker_id, active_workers=None):
            seen.append("request")
            return request(worker_id, active_workers)

        def timed_answer(worker_id, task_id, label, is_test=False):
            seen.append("answer")
            return answer(worker_id, task_id, label, is_test)

        policy.on_worker_request = timed_request
        policy.on_answer = timed_answer
        lease = session.request("w1", 1, None)
        verdict = session.submit("w1", lease.task_id, Label.YES, False, 2)
        assert verdict is AnswerOutcome.ACCEPTED
        assert seen == ["request", "answer"]

    def test_unsettled_submits_never_reach_the_policy(self):
        policy = make_policy()
        session = Session(policy, LEASE_TIMEOUT)
        delivered = []
        answer = policy.on_answer

        def counted(*args):
            delivered.append(args)
            return answer(*args)

        policy.on_answer = counted
        lease = session.request("w1", 1, None)
        task = lease.task_id
        assert session.submit("w1", task + 1, Label.YES, False, 2) is (
            SettleResult.UNKNOWN
        )
        assert session.submit("w1", task, Label.YES, False, 3) is (
            AnswerOutcome.ACCEPTED
        )
        assert session.submit("w1", task, Label.YES, False, 4) is (
            SettleResult.DUPLICATE
        )
        lease = session.request("w2", 5, None)
        assert session.sweep(5 + LEASE_TIMEOUT + 1) == [lease]
        assert session.submit("w2", lease.task_id, Label.NO, False, 10) is (
            SettleResult.LATE
        )
        assert len(delivered) == 1
        assert session.payments.payments_made("w1") == 1
        assert session.payments.payments_made("w2") == 0

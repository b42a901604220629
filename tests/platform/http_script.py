"""A scripted worker session against ``ICrowdHTTPServer``.

The replies and the event log below were recorded from the server
before it became an adapter over :class:`repro.platform.Session`;
``test_server.py`` replays the script over HTTP and ``test_session.py``
through a bare session, and both must reproduce them exactly.  The
script covers every reply the server gives: 200, 204, 400, 404, 409
(a duplicate, a never-leased submit and a policy duplicate), 410 and
an ignored vote.
"""

import http.client
import json

from repro.baselines import RandomMV
from repro.core.types import Label, Task, TaskSet
from repro.platform import ICrowdHTTPServer

TASKS = TaskSet(
    [
        Task(i, f"microtask {i} shared tokens", "d",
             Label.YES if i % 2 == 0 else Label.NO)
        for i in range(4)
    ]
)
LEASE_TIMEOUT = 3

#: One worker session against ``RandomMV(k=2, seed=0)``.  "request" and
#: "submit" are HTTP calls that advance the server's clock; "http" calls
#: are rejected before it moves; a "vote" reaches the policy outside
#: the server, as a second front-end would deliver it.
SCRIPT = [
    ("request", "w1"),                    # tick 1: task 0
    ("submit", "w1", 0, 1),               # tick 2: accepted
    ("submit", "w1", 0, 1),               # tick 3: 409, ledger duplicate
    ("submit", "w1", 1, 0),               # tick 4: 409, never leased
    ("http", "GET", "/request", None),
    ("http", "POST", "/submit", '{"worker": "w1"}'),
    ("http", "POST", "/submit", "[1]"),
    ("http", "POST", "/submit", "not json"),
    ("http", "POST", "/submit", '{"worker": "w1", "task_id": 99, "label": 1}'),
    ("http", "POST", "/submit", '{"worker": "ghost", "task_id": 0, "label": 1}'),
    ("http", "GET", "/nowhere", None),
    ("request", "w2"),                    # tick 5: task 0, due at tick 8
    ("request", "w3"),                    # tick 6: task 2
    ("request", "w4"),                    # tick 7: task 3
    ("vote", "x1", 2, 1),
    ("vote", "x2", 2, 1),                 # task 2 completes off-server
    ("vote", "w4", 3, 0),
    ("submit", "w4", 3, 0),               # tick 8: 409, policy duplicate
    ("submit", "w3", 2, 0),               # tick 9: w2 expires; ignored
    ("submit", "w2", 0, 1),               # tick 10: 410
    ("request", "w5"),                    # tick 11: task 3
    ("submit", "w5", 3, 0),               # tick 12: completes task 3
    ("request", "w1"),                    # tick 13: task 1
    ("submit", "w1", 1, 0),               # tick 14: accepted
    ("request", "w1"),                    # tick 15: 204
    ("http", "GET", "/status", None),
]

#: The server's (status, body) reply to every HTTP call of SCRIPT.
EXPECTED_REPLIES = [
    (200, {"task_id": 0, "text": "microtask 0 shared tokens", "is_test": False}),
    (200, {"accepted": True, "outcome": "accepted", "task_completed": False}),
    (409, {"error": "worker 'w1' already submitted task 0"}),
    (409, {"error": "no outstanding assignment of task 1 for worker 'w1'"}),
    (400, {"error": "missing worker parameter"}),
    (400, {"error": "bad submit payload: 'task_id'"}),
    (400, {"error": "submit payload must be a JSON object"}),
    (400, {"error": "invalid JSON"}),
    (404, {"error": "unknown task 99"}),
    (404, {"error": "unknown worker 'ghost'"}),
    (404, {"error": "not found"}),
    (200, {"task_id": 0, "text": "microtask 0 shared tokens", "is_test": False}),
    (200, {"task_id": 2, "text": "microtask 2 shared tokens", "is_test": False}),
    (200, {"task_id": 3, "text": "microtask 3 shared tokens", "is_test": False}),
    (409, {"error": "worker 'w4' already answered task 3"}),
    (200, {"accepted": False, "outcome": "ignored", "task_completed": True}),
    (410, {"error": "assignment lease for task 0 expired; the slot was requeued"}),
    (200, {"task_id": 3, "text": "microtask 3 shared tokens", "is_test": False}),
    (200, {"accepted": True, "outcome": "accepted", "task_completed": True}),
    (200, {"task_id": 1, "text": "microtask 1 shared tokens", "is_test": False}),
    (200, {"accepted": True, "outcome": "accepted", "task_completed": False}),
    (204, None),
    (
        200,
        {
            "finished": False,
            "completed_tasks": 2,
            "total_tasks": 4,
            "leases": {
                "issued": 6,
                "answered": 5,
                "expired": 1,
                "late_answers": 1,
                "duplicate_answers": 1,
                "reissued": 0,
                "outstanding": 0,
            },
        },
    ),
]

#: ``EventLog.to_jsonl`` of the scripted session.
EXPECTED_EVENTS = b"""\
{"step": 1, "type": "request", "worker_id": "w1"}
{"is_test": false, "step": 1, "task_id": 0, "type": "assign", "worker_id": "w1"}
{"is_test": false, "label": 1, "step": 2, "task_id": 0, "type": "answer", "worker_id": "w1"}
{"step": 5, "type": "request", "worker_id": "w2"}
{"is_test": false, "step": 5, "task_id": 0, "type": "assign", "worker_id": "w2"}
{"step": 6, "type": "request", "worker_id": "w3"}
{"is_test": false, "step": 6, "task_id": 2, "type": "assign", "worker_id": "w3"}
{"step": 7, "type": "request", "worker_id": "w4"}
{"is_test": false, "step": 7, "task_id": 3, "type": "assign", "worker_id": "w4"}
{"step": 9, "task_id": 0, "type": "expire", "worker_id": "w2"}
{"step": 11, "type": "request", "worker_id": "w5"}
{"is_test": false, "step": 11, "task_id": 3, "type": "assign", "worker_id": "w5"}
{"is_test": false, "label": 0, "step": 12, "task_id": 3, "type": "answer", "worker_id": "w5"}
{"consensus": 0, "step": 12, "task_id": 3, "type": "complete"}
{"step": 13, "type": "request", "worker_id": "w1"}
{"is_test": false, "step": 13, "task_id": 1, "type": "assign", "worker_id": "w1"}
{"is_test": false, "label": 0, "step": 14, "task_id": 1, "type": "answer", "worker_id": "w1"}
{"step": 15, "type": "request", "worker_id": "w1"}
"""


def make_policy():
    return RandomMV(TASKS, k=2, seed=0)


def call(server, method, path, body=None):
    host, port = server.address
    conn = http.client.HTTPConnection(host, port, timeout=5)
    conn.request(method, path, body=body)
    response = conn.getresponse()
    raw = response.read()
    conn.close()
    return response.status, (json.loads(raw) if raw else None)


def run_over_http(tmp_path):
    """SCRIPT through a live server: its replies and its event log."""
    policy = make_policy()
    replies = []
    with ICrowdHTTPServer(
        TASKS, policy, lease_timeout=LEASE_TIMEOUT
    ) as server:
        for kind, *args in SCRIPT:
            if kind == "vote":
                worker, task, label = args
                policy.on_answer(worker, task, Label(label))
            elif kind == "request":
                replies.append(call(server, "GET", f"/request?worker={args[0]}"))
            elif kind == "submit":
                worker, task, label = args
                body = {"worker": worker, "task_id": task, "label": label}
                replies.append(call(server, "POST", "/submit", json.dumps(body)))
            else:
                replies.append(call(server, *args))
        path = tmp_path / "http.jsonl"
        server.events.to_jsonl(path)
    return replies, path.read_bytes()

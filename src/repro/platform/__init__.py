"""Simulated crowdsourcing platform (substitute for Amazon Mechanical
Turk; see Appendix A of the paper and DESIGN.md's substitution table).

The paper's deployment wraps MTurk's ExternalQuestion mechanism: workers
request tasks, iCrowd's web server decides the assignment, answers flow
back, payments are processed.  This package reproduces that interaction
loop against simulated workers:

- :class:`Session` — one job's request/assign/answer/pay/aggregate
  loop, driven by both the simulator and the HTTP facade,
- :class:`PolicyProtocol` — what an assignment policy must implement
  (both :class:`repro.core.ICrowd` and every baseline satisfy it),
- :class:`SimulatedPlatform` — runs a session against a simulated crowd,
- :mod:`repro.platform.leases` — the assignment-lease ledger (issue →
  answer / expire → requeue) a session owns,
- :mod:`repro.platform.faults` — fault injection (duplicate and late
  submissions, blackout bursts, malformed submits),
- :mod:`repro.platform.hits` — HIT batching (10 microtasks per HIT at
  $0.10 per assignment, the paper's pricing),
- :mod:`repro.platform.payments` — the idempotent payment ledger,
- :mod:`repro.platform.events` — a structured event log,
- :mod:`repro.platform.client` — bounded-retry client for the server.
"""

from repro.platform.client import ICrowdClient, SubmitResult, TransportError
from repro.platform.events import (
    AnswerEvent,
    AssignEvent,
    CompleteEvent,
    EventLog,
    ExpireEvent,
    RejectEvent,
    RequestEvent,
)
from repro.platform.faults import FaultConfig, FaultInjector, FaultStats
from repro.platform.hits import HIT, build_hits
from repro.platform.leases import (
    Lease,
    LeaseLedger,
    LeaseStats,
    LeaseStatus,
    SettleResult,
)
from repro.platform.payments import PaymentLedger
from repro.platform.platform import PlatformReport, SimulatedPlatform
from repro.platform.server import ICrowdHTTPServer
from repro.platform.session import PolicyProtocol, Session

__all__ = [
    "AnswerEvent",
    "AssignEvent",
    "CompleteEvent",
    "EventLog",
    "ExpireEvent",
    "FaultConfig",
    "FaultInjector",
    "FaultStats",
    "HIT",
    "ICrowdClient",
    "ICrowdHTTPServer",
    "Lease",
    "LeaseLedger",
    "LeaseStats",
    "LeaseStatus",
    "PaymentLedger",
    "PlatformReport",
    "PolicyProtocol",
    "RejectEvent",
    "RequestEvent",
    "Session",
    "SettleResult",
    "SimulatedPlatform",
    "SubmitResult",
    "TransportError",
    "build_hits",
]

"""Toy-size smoke run of the benchmark itself.

1. Runs every workload through ``run.py`` on toy inputs, untraced and
   traced, and checks that the last line names every metric of
   ``BENCHMARK.json`` with its unit (plus a sane exit and result).
2. Seeds one violation at a time into a valid event log, payment ledger
   and HTTP status, and checks that each correctness check fires.

Usage, from the root of a checkout::

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]


def check_cli(spec: dict) -> None:
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            done = subprocess.run(
                [
                    sys.executable, os.path.join(HERE, "run.py"),
                    "--workload", workload, "--seed", "3", "--seconds", "1",
                    "--trace", str(trace), "--size", "toy",
                ],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180,
            )
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert done.returncode == 0 and result["correct"], done.stdout
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["attempted"] >= 1 and result["failed"] == 0
            for metric in spec[group]:
                emitted = result["metrics"][metric["name"]]
                assert emitted["unit"] == metric["unit"], (metric, emitted)
                assert isinstance(emitted["value"], (int, float)), emitted
            print(f"ok  {workload} --trace {trace}: {len(spec[group])} metrics")


def expect_failure(check, *args) -> None:
    from checks import CheckFailed

    try:
        check(*args)
    except CheckFailed as exc:
        print(f"ok  {check.__name__} fired: {exc}")
        return
    raise AssertionError(f"{check.__name__} missed a seeded violation")


def check_checks() -> None:
    from checks import (
        check_http_completions,
        check_leases,
        check_payments,
        check_votes,
    )
    from repro.platform import (
        AnswerEvent,
        CompleteEvent,
        EventLog,
        ExpireEvent,
        PaymentLedger,
        SimulatedPlatform,
    )
    from repro.workers import WorkerPool
    from workloads import SIZES, build_framework, scale_inputs

    inputs = scale_inputs(5, SIZES["toy"]["sim_scale"])
    framework = build_framework(inputs.tasks, inputs.config, inputs.make_graph)
    platform = SimulatedPlatform(
        inputs.tasks,
        WorkerPool(list(inputs.profiles), seed=5),
        framework.icrowd,
        abandonment=inputs.abandonment,
        faults=inputs.faults,
        seed=5,
    )
    report = platform.run(max_steps=inputs.steps)
    events = report.events.snapshot()
    workers = [p.worker_id for p in inputs.profiles]
    k = inputs.config.assigner.k
    timeout = platform.assignment_timeout
    check_votes(report.events, k)
    check_leases(report.events, timeout)
    check_payments(report.events, report.payments, workers)
    print("ok  checks pass on a valid run")

    completion = next(e for e in events if isinstance(e, CompleteEvent))
    flipped = [
        dataclasses.replace(e, consensus=e.consensus.flipped())
        if e is completion else e
        for e in events
    ]
    expect_failure(check_votes, EventLog(flipped), k)

    vote = next(
        e for e in events
        if isinstance(e, AnswerEvent) and not e.is_test
        and e.task_id == completion.task_id
    )
    extra = events + [dataclasses.replace(vote, worker_id="intruder")]
    expect_failure(check_votes, EventLog(extra), k)

    answer = next(e for e in events if isinstance(e, AnswerEvent))
    index = events.index(answer)
    expired = (
        events[:index]
        + [ExpireEvent(answer.step, answer.worker_id, answer.task_id)]
        + events[index:]
    )
    expect_failure(check_leases, EventLog(expired), timeout)

    short = PaymentLedger()
    for e in report.events.answers()[1:]:
        short.pay_once(e.worker_id, e.task_id)
    expect_failure(check_payments, report.events, short, workers)

    check_http_completions({"finished": False, "completed_tasks": 4}, 4, True)
    expect_failure(
        check_http_completions,
        {"finished": True, "completed_tasks": 5}, 4, False,
    )
    expect_failure(
        check_http_completions,
        {"finished": False, "completed_tasks": 4}, 4, False,
    )


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    os.environ.pop("REPRO_BASIS_CACHE", None)
    check_checks()
    check_cli(spec)
    print("smoke run passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

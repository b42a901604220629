"""The HTTP workload's server process.

Builds ICrowd on the YahooQA task set of ``--seed``, serves it with
``ICrowdHTTPServer`` (default recorder, so ``GET /metrics`` works) and
prints one JSON line once ready.  Any line on stdin, or stdin closing,
stops the server; the process then writes the server's event log to
``--events`` and prints a final JSON line with its peak memory and,
with ``--trace 1``, the span aggregates of its layers.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

#: Cold set-ups (framework and server start) per server process.
SETUPS = 3


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--events", required=True)
    args = parser.parse_args()

    from tracer import Tracer, install_layers

    tracer = None
    if args.trace:
        tracer = Tracer(auto_request=True)
        install_layers(tracer, sim_requests=False)

    from repro.core import ICrowdConfig, SimilarityGraph
    from repro.datasets import make_yahooqa
    from repro.platform import ICrowdHTTPServer
    from workloads import YAHOOQA_GRAPH, build_framework

    tasks = make_yahooqa(seed=args.seed)
    config = ICrowdConfig(graph=YAHOOQA_GRAPH, seed=args.seed)
    # set-up takes ~20 ms here, so one sample is mostly noise: set up
    # (and start) the server several times, cold, and serve the last
    setups = []
    for attempt in range(SETUPS):
        framework = build_framework(
            tasks,
            config,
            lambda: SimilarityGraph.from_tasks(
                list(tasks), config.graph, seed=args.seed
            ),
        )
        started = time.perf_counter()
        server = ICrowdHTTPServer(tasks, framework.icrowd)
        server.start()
        setup = dict(framework.timings)
        setup["setup.server_s"] = time.perf_counter() - started
        setups.append(setup)
        if attempt < SETUPS - 1:
            server.stop()
    if tracer is not None:
        tracer.take()  # set-up is reported through ``setups``
    print(
        json.dumps(
            {
                "port": server.address[1],
                "setups": setups,
                "open_tasks": len(framework.icrowd.uncompleted_tasks()),
                "lease_timeout": server.leases.timeout,
                "k": config.assigner.k,
            }
        ),
        flush=True,
    )
    try:
        sys.stdin.readline()
    finally:
        server.stop()
    server.events.to_jsonl(args.events)
    final: dict[str, object] = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if tracer is not None:
        aggregates, tallies = tracer.take()
        final["spans"] = {
            name: [agg.count, agg.total_s, agg.self_s]
            for name, agg in aggregates.items()
        }
        final["tallies"] = tallies
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

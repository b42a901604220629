"""Command-line entry point: regenerate any table or figure.

Usage::

    python -m repro.cli list
    python -m repro.cli fig9 --dataset itemcompare --seed 7 --scale 0.33
    python -m repro.cli table5
    python -m repro.cli fig10 --sizes 25000 50000 100000

Each command prints the same rows/series the paper reports for that
experiment (see EXPERIMENTS.md for the paper-vs-measured record).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.analysis.cli import (
    add_lint_arguments,
    run_lint,
    split_forwarded_args,
)
from repro.experiments import (
    fig6_diversity,
    fig7_qualification,
    fig8_adaptive,
    fig9_comparison,
    fig10_scalability,
    fig12_similarity,
    fig13_alpha,
    fig14_assignment_size,
    fig15_distribution,
    table4_datasets,
    table5_approximation,
)

#: Experiments taking the standard (dataset, seed, scale) signature.
_STANDARD = {
    "fig6": fig6_diversity,
    "fig7": fig7_qualification,
    "fig8": fig8_adaptive,
    "fig9": fig9_comparison,
    "fig12": fig12_similarity,
    "fig13": fig13_alpha,
    "fig14": fig14_assignment_size,
    "fig15": fig15_distribution,
}

_DESCRIPTIONS = {
    "table4": "dataset statistics",
    "fig6": "worker accuracy diversity across domains",
    "fig7": "qualification selection: RandomQF vs InfQF",
    "fig8": "adaptive assignment: QF-Only / BestEffort / Adapt",
    "fig9": "comparison with RandomMV / RandomEM / AvgAccPV",
    "fig10": "assignment scalability",
    "fig12": "similarity measures and thresholds",
    "fig13": "alpha parameter sweep",
    "fig14": "assignment size (k) sweep",
    "table5": "greedy assignment approximation error",
    "fig15": "assignment distribution over workers",
    "perf": "offline-phase timings: kernel, parallel basis, cache",
    "chaos": "interaction-loop resilience under injected faults",
    "telemetry": "instrumented run: span timings, counters, SLOs, trace",
    "timeline": "flight recorder: per-task timelines from a trace file",
    "lint": "repro-lint static analysis (RL001-RL007; RL1xx-RL4xx "
    "with --deep) and the --race dynamic lockset sanitizer",
}


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser with one subcommand per experiment."""
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="Regenerate iCrowd (SIGMOD 2015) evaluation results.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    table4 = sub.add_parser("table4", help=_DESCRIPTIONS["table4"])
    table4.add_argument("--seed", type=int, default=7)
    for name, _ in _STANDARD.items():
        cmd = sub.add_parser(name, help=_DESCRIPTIONS[name])
        cmd.add_argument(
            "--dataset",
            choices=["itemcompare", "yahooqa"],
            default="itemcompare",
        )
        cmd.add_argument("--seed", type=int, default=7)
        cmd.add_argument(
            "--scale",
            type=float,
            default=0.33,
            help="fraction of the paper's task count (1.0 = full size)",
        )
    fig10 = sub.add_parser("fig10", help=_DESCRIPTIONS["fig10"])
    fig10.add_argument(
        "--sizes", type=int, nargs="+",
        default=[25_000, 50_000, 100_000, 200_000],
    )
    fig10.add_argument(
        "--neighbors", type=int, nargs="+", default=[20, 40]
    )
    fig10.add_argument("--requests", type=int, default=2000)
    fig10.add_argument("--seed", type=int, default=7)
    fig10.add_argument(
        "--insertion",
        action="store_true",
        help="run the Section 6.5 insertion protocol instead of the "
        "pre-built-graph sweep",
    )
    table5 = sub.add_parser("table5", help=_DESCRIPTIONS["table5"])
    table5.add_argument("--seed", type=int, default=7)
    table5.add_argument(
        "--workers", type=int, nargs="+", default=[3, 4, 5, 6, 7]
    )
    perf = sub.add_parser("perf", help=_DESCRIPTIONS["perf"])
    perf.add_argument(
        "--kernel-tasks", type=int, default=50_000,
        help="graph size for the push-kernel comparison",
    )
    perf.add_argument("--kernel-sources", type=int, default=3)
    perf.add_argument(
        "--basis-tasks", type=int, default=6_000,
        help="graph size for the serial vs parallel basis build",
    )
    perf.add_argument(
        "--cache-tasks", type=int, default=5_000,
        help="graph size for the cold vs warm estimator start",
    )
    perf.add_argument(
        "--workers", type=int, default=None,
        help="parallel-push pool size (default: one per core, min 2)",
    )
    perf.add_argument(
        "--cache-dir", default=None,
        help="basis cache directory (default: a throwaway temp dir; "
        "set REPRO_BASIS_CACHE to warm-start other commands too)",
    )
    perf.add_argument("--seed", type=int, default=7)
    perf.add_argument(
        "--incremental", dest="incremental", action="store_true",
        default=True,
        help="measure insertion-round basis repair vs full rebuild "
        "(default: on)",
    )
    perf.add_argument(
        "--no-incremental", dest="incremental", action="store_false",
        help="skip the incremental section",
    )
    perf.add_argument(
        "--stream-tasks", type=int, default=5_000,
        help="initial graph size for the incremental section",
    )
    perf.add_argument(
        "--stream-batch", type=int, default=100,
        help="tasks inserted per incremental round",
    )
    perf.add_argument(
        "--stream-rounds", type=int, default=3,
        help="insertion rounds in the incremental section",
    )
    perf.add_argument(
        "--sanitizer", dest="sanitizer", action="store_true",
        default=True,
        help="measure the race-sanitizer instrumentation tax "
        "(default: on)",
    )
    perf.add_argument(
        "--no-sanitizer", dest="sanitizer", action="store_false",
        help="skip the sanitizer section",
    )
    perf.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write machine-readable results to PATH",
    )
    perf.add_argument(
        "--profile", default=None, metavar="PATH",
        help="sample the measurement and write collapsed stacks "
        "(flamegraph input) to PATH",
    )
    chaos = sub.add_parser("chaos", help=_DESCRIPTIONS["chaos"])
    chaos.add_argument(
        "--dataset",
        choices=["itemcompare", "yahooqa"],
        default="itemcompare",
    )
    chaos.add_argument("--seed", type=int, default=7)
    chaos.add_argument(
        "--scale",
        type=float,
        default=0.33,
        help="fraction of the paper's task count (1.0 = full size)",
    )
    chaos.add_argument(
        "--rates", type=float, nargs="+",
        default=[0.0, 0.05, 0.10, 0.20],
        help="fault rates to sweep (0 is the fault-free control)",
    )
    chaos.add_argument(
        "--approaches", nargs="+", default=["iCrowd", "RandomMV"],
        help="assignment policies to stress",
    )
    chaos.add_argument(
        "--abandonment", type=float, default=0.0,
        help="probability a worker walks away from an assignment",
    )
    chaos.add_argument(
        "--timeout", type=int, default=50,
        help="assignment lease lifetime in platform steps",
    )
    telemetry = sub.add_parser(
        "telemetry", help=_DESCRIPTIONS["telemetry"]
    )
    telemetry.add_argument(
        "setup",
        choices=["itemcompare", "yahooqa"],
        help="experiment setup (dataset) to run instrumented",
    )
    telemetry.add_argument("--seed", type=int, default=7)
    telemetry.add_argument(
        "--scale",
        type=float,
        default=0.33,
        help="fraction of the paper's task count (1.0 = full size)",
    )
    telemetry.add_argument(
        "--trace", default="telemetry_trace.jsonl", metavar="PATH",
        help="JSONL span+event trace output (use '' to disable)",
    )
    telemetry.add_argument(
        "--max-steps", type=int, default=None,
        help="platform step cap (default: generous auto cap)",
    )
    telemetry.add_argument(
        "--faults", type=float, default=0.0, metavar="RATE",
        help="run a traced chaos round: FaultConfig.chaos(RATE)",
    )
    telemetry.add_argument(
        "--profile", default=None, metavar="PATH",
        help="sample the run and write collapsed stacks to PATH",
    )
    telemetry.add_argument(
        "--format", choices=["table", "json"], default="table",
        help="output format (json = machine-readable as_dict payload)",
    )
    timeline = sub.add_parser(
        "timeline", help=_DESCRIPTIONS["timeline"]
    )
    timeline.add_argument(
        "trace",
        help="combined span+event JSONL trace (telemetry --trace output)",
    )
    timeline.add_argument(
        "--task", type=int, default=None, metavar="ID",
        help="show only this task's lifecycle timeline",
    )
    timeline.add_argument(
        "--chrome", default=None, metavar="PATH",
        help="export a Chrome trace-event JSON file (Perfetto input)",
    )
    timeline.add_argument(
        "--validate", action="store_true",
        help="schema-check the Chrome trace; non-zero exit on errors",
    )
    timeline.add_argument(
        "--format", choices=["table", "json"], default="table",
        help="output format for the timelines themselves",
    )
    lint = sub.add_parser("lint", help=_DESCRIPTIONS["lint"])
    add_lint_arguments(lint)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    own = list(sys.argv[1:]) if argv is None else list(argv)
    forwarded: list[str] = []
    if own[:1] == ["lint"]:
        own, forwarded = split_forwarded_args(own)
    args = build_parser().parse_args(own)
    if args.command == "lint":
        return run_lint(args, forwarded)
    if args.command == "list":
        for name, description in _DESCRIPTIONS.items():
            print(f"{name:<8} {description}")
        return 0
    if args.command == "table4":
        print(table4_datasets(seed=args.seed).format_table())
        return 0
    if args.command == "fig10":
        if args.insertion:
            from repro.experiments import fig10_insertion

            result = fig10_insertion(
                batch_size=args.sizes[0],
                rounds=len(args.sizes),
                max_neighbors=args.neighbors[0],
                requests_per_round=args.requests,
                seed=args.seed,
            )
        else:
            result = fig10_scalability(
                sizes=args.sizes,
                neighbor_bounds=args.neighbors,
                requests_per_size=args.requests,
                seed=args.seed,
            )
        print(result.format_table())
        return 0
    if args.command == "table5":
        result = table5_approximation(
            seed=args.seed, worker_counts=args.workers
        )
        print(result.format_table())
        return 0
    if args.command == "perf":
        from repro.experiments import perf_offline

        result = perf_offline(
            kernel_tasks=args.kernel_tasks,
            kernel_sources=args.kernel_sources,
            basis_tasks=args.basis_tasks,
            cache_tasks=args.cache_tasks,
            num_workers=args.workers,
            cache_dir=args.cache_dir,
            seed=args.seed,
            incremental=args.incremental,
            stream_tasks=args.stream_tasks,
            stream_batch=args.stream_batch,
            stream_rounds=args.stream_rounds,
            sanitizer=args.sanitizer,
            profile_path=args.profile,
        )
        print(result.format_table())
        if args.json:
            print(f"wrote {result.write_json(args.json)}")
        return 0
    if args.command == "chaos":
        from repro.experiments import chaos_resilience

        result = chaos_resilience(
            dataset=args.dataset,
            seed=args.seed,
            scale=args.scale,
            rates=tuple(args.rates),
            approaches=tuple(args.approaches),
            abandonment=args.abandonment,
            assignment_timeout=args.timeout,
        )
        print(result.format_table())
        return 0
    if args.command == "telemetry":
        from repro.experiments import run_telemetry

        result = run_telemetry(
            dataset=args.setup,
            seed=args.seed,
            scale=args.scale,
            trace_path=args.trace or None,
            max_steps=args.max_steps,
            faults_rate=args.faults,
            profile_path=args.profile,
        )
        if args.format == "json":
            print(json.dumps(result.as_dict(), indent=2, sort_keys=True))
        else:
            print(result.format_table())
        return 0
    if args.command == "timeline":
        from repro.obs.flight import FlightRecorder, validate_chrome_trace

        recorder = FlightRecorder.from_jsonl(args.trace)
        if args.chrome or args.validate:
            trace = recorder.chrome_trace()
            errors = validate_chrome_trace(trace) if args.validate else []
            for error in errors:
                print(f"invalid chrome trace: {error}", file=sys.stderr)
            if args.chrome:
                out = recorder.write_chrome(args.chrome)
                print(f"wrote {out}")
            if errors:
                return 1
        if args.format == "json":
            print(json.dumps(recorder.as_dict(), indent=2, sort_keys=True))
        else:
            print(recorder.format_table(task_id=args.task))
        return 0
    runner = _STANDARD[args.command]
    result = runner(args.dataset, seed=args.seed, scale=args.scale)
    print(result.format_table())
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # stdout went away mid-print (e.g. `... | head`): the unix
        # convention is a quiet exit, not a traceback
        sys.stderr.close()
        sys.exit(141)

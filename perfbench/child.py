"""One measured run of one workload, in a fresh process.

``run.py`` starts this script with ``REPRO_BASIS_CACHE`` unset, so no
offline basis or set-up is ever inherited from an earlier run.  It runs
episodes of the workload until ``--seconds`` of timed window and enough
latency samples for a p99 are collected, checks every episode, and
prints one JSON summary as its last line of output.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

import numpy as np

#: Set-ups measured per run, in turn on each CPU (simulator workload).
SETUP_SAMPLES = 8
#: A p99 needs at least ten samples beyond it.
P99_SAMPLES = 1000
#: Episodes the traced measurement runs at most, so that a run with
#: ``--trace 1`` (an untraced and a traced measurement) ends in time.
TRACED_EPISODES = 4


def percentile_ms(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q)) * 1e3


def segment_figures(ep, size: int) -> list[tuple]:
    """(accepted answers per s, request p50 s, submit p50 s, request
    times, submit times) of every whole segment of ``size`` requests of
    the episode's window."""
    order = np.argsort(np.asarray(ep.request_at), kind="stable")
    request_at = np.asarray(ep.request_at)[order]
    request_s = np.asarray(ep.request_s)[order]
    submit_at = np.asarray(ep.submit_at)
    submit_s = np.asarray(ep.submit_s)
    accepted_at = np.asarray(ep.accepted_at)
    out = []
    for first in range(0, request_at.size - size + 1, size):
        last = first + size
        t0 = request_at[first]
        t1 = request_at[last] if last < request_at.size else ep.window_s
        submits = submit_s[(submit_at >= t0) & (submit_at < t1)]
        answers = np.count_nonzero((accepted_at >= t0) & (accepted_at < t1))
        out.append(
            (
                answers / (t1 - t0),
                float(np.median(request_s[first:last])),
                float(np.median(submits)) if submits.size else float("nan"),
                request_s[first:last],
                submits,
            )
        )
    return out


def fast_quartile(values, lower_is_better: bool = True) -> float:
    """The quartile on the fast side of the segments' figures.

    The 2-core virtual machine the benchmark was written on runs 40-60%
    slower in phases of a few seconds, on either CPU, often enough that
    they cover half of some runs and few of others; the median of a
    run's segments then jumps between the two speeds.  The quartile on
    the fast side moves only when slow phases cover three quarters of a
    run, and a slower program moves it as much as any other figure.
    """
    values = [v for v in values if v == v]
    return float(np.percentile(values, 25 if lower_is_better else 75))


def fast_half(segments: list[tuple], need: int) -> tuple[np.ndarray, np.ndarray]:
    """Request and submit times of the faster half of the segments (by
    request median) for the p99s, or of all segments if that half holds
    fewer than ``need`` of either: slow phases would otherwise set the
    tail."""
    cut = statistics.median(seg[1] for seg in segments)
    for chosen in ([seg for seg in segments if seg[1] <= cut], segments):
        requests = np.concatenate([seg[3] for seg in chosen])
        submits = np.concatenate([seg[4] for seg in chosen])
        if min(requests.size, submits.size) >= need:
            break
    return requests, submits


def _self(spans: dict, name: str) -> float:
    return float(spans.get(name, (0, 0.0, 0.0))[2])


def _total(spans: dict, name: str) -> float:
    return float(spans.get(name, (0, 0.0, 0.0))[1])


def _count(spans: dict, name: str) -> int:
    return int(spans.get(name, (0, 0.0, 0.0))[0])


def merge(episodes: list) -> tuple[dict, dict, dict]:
    """Span aggregates, tallies and HTTP totals summed over episodes."""
    spans: dict[str, list[float]] = {}
    tallies: dict[str, int] = {}
    http: dict[str, float] = {}
    for ep in episodes:
        for name, values in ep.spans.items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            for i, value in enumerate(values):
                acc[i] += value
        for key, value in ep.tallies.items():
            tallies[key] = tallies.get(key, 0) + value
        for key, value in ep.http.items():
            http[key] = http.get(key, 0) + value
    return spans, tallies, http


def layer_metrics(s: dict, t: dict, http: dict) -> dict[str, float]:
    """Per-layer metrics from span aggregates ``s``, tallies ``t`` and
    HTTP totals; layers a workload never calls are left out."""
    builds = _count(s, "assigner.top_sets")
    calls = _count(s, "assigner.assign_for_worker")
    requests = _count(s, "framework.request")
    out = {
        "assigner.top_sets_self_s": _self(s, "assigner.top_sets"),
        "assigner.greedy_self_s": _self(s, "assigner.greedy"),
        "assigner.scheme_builds": builds,
        "assigner.round_cache_hit_ratio": 1.0 - builds / calls if calls else 0.0,
        "estimator.estimates": _count(s, "estimator.estimate"),
        "estimator.estimate_self_s": _self(s, "estimator.estimate"),
        "observed.computes": _count(s, "observed.compute"),
        "observed.compute_self_s": _self(s, "observed.compute"),
        "testing.tests_chosen": t.get("testing.chosen", 0),
        "testing.choose_self_s": _self(s, "testing.choose"),
        "framework.request_self_s": _self(s, "framework.request"),
        "framework.answer_self_s": _self(s, "framework.answer"),
        "framework.is_finished_calls": _count(s, "framework.is_finished"),
        "framework.is_finished_self_s": _self(s, "framework.is_finished"),
        "framework.completed_tasks_calls": _count(s, "framework.completed_tasks"),
        "platform.blank_ratio": (
            t.get("framework.blank", 0) / requests if requests else 0.0
        ),
        "leases.issue_s": _total(s, "leases.issue"),
        "leases.settle_s": _total(s, "leases.settle"),
        "leases.expire_s": _total(s, "leases.expire"),
        "leases.expired": t.get("leases.expired", 0),
        "leases.late": t.get("leases.late", 0),
        "leases.duplicate": t.get("leases.duplicate", 0),
        "events.appends": _count(s, "events.append"),
        "events.append_s": _total(s, "events.append"),
    }
    for metric, span, value in (
        ("platform.loop_self_s", "platform.run", _self),
        ("payments.pay_s", "payments.pay_once", _total),
        ("faults.decide_s", "faults.decide", _total),
    ):
        if span in s:
            out[metric] = value(s, span)
    if http:
        policy_s = sum(v[1] for k, v in s.items() if k.startswith("framework."))
        out["http.handler_s"] = http["handler_s"]
        out["http.lock_wait_s"] = http["handler_s"] - policy_s
        out["http.transport_s"] = http["client_s"] - http["handler_s"]
        out["http.blank_ratio"] = http["blanks"] / http["requests"]
        out["http.policy_s"] = policy_s
        out["http.client_s"] = http["client_s"]
    return out


def predictions(workload: str, layers: dict[str, float], spans: dict) -> list[dict]:
    """The per-layer predictions the traced run tests."""
    if workload == "sim_scale":
        request_s = _total(spans, "framework.request")
        shares = {
            "core.assigner": _self(spans, "assigner.assign_for_worker")
            + _self(spans, "assigner.top_sets")
            + _self(spans, "assigner.greedy"),
            "core.estimator": _self(spans, "estimator.estimate"),
            "core.observed": _self(spans, "observed.compute"),
            "core.testing": _self(spans, "testing.choose"),
            "core.framework": _self(spans, "framework.request"),
        }
        shares = {k: v / request_s for k, v in shares.items()}
        return [
            {
                "claim": "core.assigner self time is the largest share of "
                "framework request time",
                "holds": max(shares, key=shares.get) == "core.assigner",
                "shares": shares,
            }
        ]
    if workload == "http_yahooqa":
        client_s = layers["http.client_s"]
        platform_s = sum(
            layers[k]
            for k in ("leases.issue_s", "leases.settle_s", "leases.expire_s",
                      "events.append_s")
        )
        share = (layers["http.transport_s"] + layers["http.lock_wait_s"]) / client_s
        return [
            {
                "claim": "transport + lock wait (which holds the platform.* "
                "time) is a visible share (>= 10%) of client round-trip time",
                "holds": share >= 0.10,
                "shares": {
                    "transport+lock_wait": share,
                    "transport": layers["http.transport_s"] / client_s,
                    "platform": platform_s / client_s,
                },
            }
        ]
    return []


def summarize(
    workload: str,
    episodes: list,
    fixed: int,
    setups: list[dict],
    traced: bool,
    segment: int,
    need: int,
) -> dict:
    """The answer rate and p50s as the fast quartile over segments of
    ``segment`` requests, p99s over the faster half of the segments,
    set-up as the median over set-ups; accuracy, cost and per-layer
    figures over the first ``fixed`` episodes."""
    segments = [seg for ep in episodes for seg in segment_figures(ep, segment)]
    if not segments:
        raise RuntimeError("no whole segment of timed requests")
    rates, request_p50s, submit_p50s, _, _ = zip(*segments)
    requests, submits = fast_half(segments, need)
    attempted = sum(ep.attempted for ep in episodes)
    # a failed operation fails the run's checks (raising before this
    # point), so a run that reports numbers had none
    failed = 0
    quality = episodes[:fixed]
    completed = sum(ep.completed for ep in quality)
    if workload == "http_yahooqa":
        peak_rss = max(ep.peak_rss_mb for ep in episodes)
    else:
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e = {
        "setup_s": statistics.median(sum(s.values()) for s in setups),
        "answers_per_s": fast_quartile(rates, lower_is_better=False),
        "request_p50_ms": fast_quartile(request_p50s) * 1e3,
        "request_p99_ms": percentile_ms(requests, 99),
        "submit_p50_ms": fast_quartile(submit_p50s) * 1e3,
        "submit_p99_ms": percentile_ms(submits, 99),
        "accuracy": sum(ep.correct for ep in quality) / completed,
        "answers_per_task": sum(ep.paid for ep in quality) / completed,
        "failed_frac": failed / attempted,
        "peak_rss_mb": peak_rss,
    }
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "episodes": len(episodes),
        "e2e": e2e,
        "samples": {
            "request": len(requests),
            "submit": len(submits),
            "segments": len(segments),
            "setup": len(setups),
        },
        "counts": dict(episodes[0].counts),
        "setup": {
            key: statistics.median(s[key] for s in setups) for key in setups[0]
        },
    }
    if traced:
        spans, tallies, http = merge(quality)
        layers = layer_metrics(spans, tallies, http)
        layers.update(result["setup"])
        result["layers"] = layers
        result["spans"] = spans
        result["predictions"] = predictions(workload, layers, spans)
        if workload != "http_yahooqa":
            first = layer_metrics(episodes[0].spans, episodes[0].tallies, {})
            for key in (
                "assigner.scheme_builds",
                "estimator.estimates",
                "framework.completed_tasks_calls",
                "leases.expired",
            ):
                result["counts"][key] = first[key]
    return result


def run(args: argparse.Namespace) -> dict:
    from checks import CheckFailed
    from tracer import Tracer, install_layers

    tracer = None
    if args.trace:
        tracer = Tracer()
        install_layers(tracer, sim_requests=args.workload != "http_yahooqa")

    from workloads import (
        SEGMENT_REQUESTS,
        SIZES,
        episode_seed,
        pinned_setup,
        run_sim_episode,
        scale_inputs,
    )

    size = SIZES[args.size][args.workload]
    fixed = int(size["episodes"])
    if args.trace:
        fixed = min(fixed, TRACED_EPISODES)
    need_samples = P99_SAMPLES if args.size == "full" else 1
    started = time.perf_counter()
    episodes: list = []
    sim_inputs: list = []
    try:
        if args.workload == "http_yahooqa":
            from http_load import run_http_episode

            def episode(seed: int):
                return run_http_episode(seed, size, args.out, tracer)

        else:
            scratch = os.path.join(args.out, f"events-{os.getpid()}.jsonl")

            def episode(seed: int):
                inputs = scale_inputs(seed, size)
                # only the latest inputs stay alive, so peak memory does
                # not grow with the number of episodes a run measures
                sim_inputs[:] = [inputs]
                ep = run_sim_episode(
                    inputs, seed, scratch, SEGMENT_REQUESTS[args.size]
                )
                if tracer is not None:
                    aggregates, ep.tallies = tracer.take()
                    ep.spans = {
                        name: [a.count, a.total_s, a.self_s]
                        for name, a in aggregates.items()
                    }
                return ep

        while True:
            episodes.append(episode(episode_seed(args.seed, len(episodes))))
            measured = sum(ep.window_s for ep in episodes)
            samples = min(
                sum(len(ep.request_s) for ep in episodes),
                sum(len(ep.submit_s) for ep in episodes),
            )
            enough = measured >= args.seconds and samples >= need_samples
            late = time.perf_counter() - started > args.budget
            if len(episodes) >= fixed and (enough or late):
                break
        setups = [s for ep in episodes for s in ep.setups]
        # extra cold set-ups of the simulator workload, where set-up is
        # cheap, for a steadier median
        while sim_inputs and len(setups) < SETUP_SAMPLES:
            setups.append(
                pinned_setup(sim_inputs[0]).timings
            )
        result = summarize(
            args.workload,
            episodes,
            fixed,
            setups,
            tracer is not None,
            SEGMENT_REQUESTS[args.size],
            need_samples,
        )
    except CheckFailed as exc:
        return _failure(episodes, f"check failed: {exc}")
    except Exception:  # any crash is a failed run, reported with its traceback
        return _failure(episodes, traceback.format_exc())
    if tracer is not None:
        tracer.write_jsonl(
            os.path.join(args.out, f"trace-{args.workload}-{args.seed}.jsonl")
        )
    return result


def _failure(episodes: list, error: str) -> dict:
    return {
        "correct": False,
        "attempted": max(1, sum(ep.attempted for ep in episodes)),
        "failed": 1,
        "error": error,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full")
    parser.add_argument("--out", required=True)
    parser.add_argument("--budget", type=float, required=True)
    result = run(parser.parse_args())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

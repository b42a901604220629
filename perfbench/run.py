"""Benchmark of the iCrowd interaction loop, end to end and per layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sim_scale --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with the program
unmodified.  ``--trace 1`` runs the same seed twice more, untraced and
with span wrappers around every layer, and reports the per-layer
metrics plus ``trace.overhead_ratio``.  Each measurement runs in a fresh
process.  The last line of output is one JSON object; the metric names
and units come from ``BENCHMARK.json``.  A run whose correctness checks
fail prints ``"correct": false`` with no metrics and exits with 1.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("sim_scale", "http_yahooqa")

#: Units of the metrics that are printed but not in BENCHMARK.json,
#: which gives the units of all the others.
EXTRA_UNITS = {
    "failed_frac": "ratio",
    "platform.loop_self_s": "s",
    "payments.pay_s": "s",
    "faults.decide_s": "s",
    "http.handler_s": "s",
    "http.lock_wait_s": "s",
    "http.transport_s": "s",
    "http.blank_ratio": "ratio",
    "http.policy_s": "s",
    "http.client_s": "s",
    "setup.server_s": "s",
}

#: Wall-clock limits that keep a whole run under 180 s: a measurement
#: starts no episode beyond its fixed ones after the budget, and is
#: stopped at the timeout, keyed by (``--trace``, measurement traced).
#: ``--trace 1`` makes two measurements; its untraced one runs all the
#: fixed episodes (8 HTTP jobs), its traced one at most 4.
CHILD_TIMEOUT_S = {(0, 0): 170.0, (1, 0): 100.0, (1, 1): 75.0}
EPISODE_BUDGET_S = {0: 90.0, 1: 40.0}


def metric_units(spec: dict) -> dict[str, str]:
    """Unit of every metric the benchmark prints."""
    units = dict(EXTRA_UNITS)
    for group in ("end_to_end", "per_layer"):
        units.update((m["name"], m["unit"]) for m in spec[group])
    return units


def run_child(args: argparse.Namespace, trace: int) -> dict:
    """One measurement of the workload in a fresh process."""
    env = dict(os.environ)
    env.pop("REPRO_BASIS_CACHE", None)
    env["PYTHONPATH"] = os.pathsep.join([SRC, HERE])
    # set iteration order must not differ between runs of one seed
    env["PYTHONHASHSEED"] = "0"
    command = [
        sys.executable,
        os.path.join(HERE, "child.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
        "--size", args.size,
        "--out", OUT,
        "--budget", str(EPISODE_BUDGET_S[args.trace]),
    ]
    try:
        done = subprocess.run(
            command,
            env=env,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT_S[args.trace, trace],
        )
    except subprocess.TimeoutExpired:
        return {"correct": False, "attempted": 1, "failed": 1,
                "error": "measurement timed out"}
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "attempted": 1, "failed": 1,
                "error": f"measurement exited with {done.returncode}: "
                f"{done.stdout[-2000:]}"}


def _table(title: str, values: dict[str, float], units: dict[str, str]) -> None:
    print(title)
    for name, value in values.items():
        print(f"  {name:<34}{value:>16.6g} {units[name]}")


def report_e2e(result: dict, units: dict[str, str]) -> None:
    samples = result["samples"]
    _table("end-to-end metrics", result["e2e"], units)
    print(
        f"  p99 samples (faster half of the segments): request "
        f"{samples['request']}, submit "
        f"{samples['submit']}; segments {samples['segments']}; "
        f"set-ups {samples['setup']}; "
        f"episodes {result['episodes']}; attempted {result['attempted']}, "
        f"failed {result['failed']}"
    )
    for kind in ("request", "submit"):
        if samples[kind] < 1000:
            print(f"  note: {kind} p99 has fewer than 10 samples beyond it")
    _table("set-up stages (median)", result["setup"], units)
    print("exact counts (repeat on the same seed):")
    for name, value in result["counts"].items():
        print(f"  {name:<34}{value}")


def report_layers(result: dict, units: dict[str, str]) -> None:
    _table(
        "per-layer metrics (sums over the run's fixed episodes; set-up "
        "stages are medians)",
        result["layers"],
        units,
    )
    print("spans (count, total s, self s), same episodes:")
    for name, (count, total, own) in sorted(result["spans"].items()):
        print(f"  {name:<30}{count:>9}{total:>12.4f}{own:>12.4f}")
    for prediction in result["predictions"]:
        verdict = "holds" if prediction["holds"] else "FAILED"
        shares = ", ".join(
            f"{k} {v:.1%}" for k, v in prediction["shares"].items()
        )
        print(f"prediction {verdict}: {prediction['claim']} ({shares})")
    print("exact counts (repeat on the same seed):")
    for name, value in result["counts"].items():
        print(f"  {name:<34}{value}")


def final_line(
    result: dict, names: list[str], values: dict, units: dict[str, str]
) -> str:
    return json.dumps(
        {
            "correct": True,
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": {
                name: {"value": values[name], "unit": units[name]}
                for name in names
            },
        }
    )


def fail(result: dict) -> int:
    print(f"FAILED: {result.get('error', 'unknown error')}")
    print(
        json.dumps(
            {
                "correct": False,
                "attempted": int(result.get("attempted", 1)),
                "failed": int(result.get("failed", 1)),
                "metrics": {},
            }
        )
    )
    return 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "toy"), default="full",
        help="toy inputs only exercise the code (smoke run)",
    )
    args = parser.parse_args()
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    units = metric_units(spec)
    os.makedirs(OUT, exist_ok=True)

    base = run_child(args, trace=0)
    if not base["correct"]:
        return fail(base)
    print(f"workload {args.workload}, seed {args.seed}")
    report_e2e(base, units)
    if not args.trace:
        names = [m["name"] for m in spec["end_to_end"]]
        print(final_line(base, names, base["e2e"], units))
        return 0

    traced = run_child(args, trace=1)
    if not traced["correct"]:
        return fail(traced)
    # the HTTP event log depends on thread interleaving; the simulator's
    # may not depend on anything but the seed
    digest = base["counts"].get("event_digest")
    if digest is not None and traced["counts"]["event_digest"] != digest:
        traced["error"] = "tracing changed the event log of the same seed"
        return fail(traced)
    layers = dict(traced["layers"])
    layers["trace.overhead_ratio"] = (
        base["e2e"]["answers_per_s"] / traced["e2e"]["answers_per_s"]
    )
    traced["layers"] = layers
    report_layers(traced, units)
    names = [m["name"] for m in spec["per_layer"]]
    print(final_line(traced, names, layers, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())

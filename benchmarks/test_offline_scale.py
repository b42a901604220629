"""Offline phase at large |T|: graph, PPR basis and Algorithm 4.

The family is sparse: domains of 100 tasks, each task linked to 8
random tasks of its own domain, built with ``SimilarityGraph.from_edges``
at 1k, 4k, 16k and 64k tasks.  Each size runs in its own process, so
its ``ru_maxrss`` is its own peak; a stage's time is the fastest of
three cold set-ups (graph, then ``AccuracyEstimator.precompute`` under
the default ``method="auto"``, then ``select_qualification_tasks`` with
the default Q).  A run of every size writes the table to
``benchmarks/results/offline_scale.txt``; a run of fewer sizes, such
as CI's 1k and 4k, leaves the recorded table as it is.

The basis runs on blocks of whole components and Alg. 4 on lazy
greedy, so both cost about the same per task at every size: the
per-task time at each size must stay within 3x of the 1k figure.

Run one size by hand with ``python benchmarks/test_offline_scale.py 64000``.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time

import numpy as np
import pytest

pytestmark = pytest.mark.benchmarks

DOMAIN = 100
NEIGHBOURS = 8
SIZES = (1_000, 4_000, 16_000, 64_000)
REPEATS = 3
#: Per-task time at a size over the 1k figure, for the basis and Alg. 4.
MAX_PER_TASK_RATIO = 3.0

_measured: dict[int, dict[str, float]] = {}


def family_edges(num_tasks: int, seed: int = 0) -> list[tuple[int, int, float]]:
    """8 distinct random in-domain neighbours per task, weights in
    [0.3, 1)."""
    rng = np.random.default_rng(seed)
    heads = np.repeat(np.arange(num_tasks), NEIGHBOURS)
    # a rank among the 99 other members of the task's domain
    ranks = np.argpartition(
        rng.random((num_tasks, DOMAIN - 1)), NEIGHBOURS, axis=1
    )[:, :NEIGHBOURS].ravel()
    local = heads % DOMAIN
    tails = heads - local + ranks + (ranks >= local)
    weights = rng.uniform(0.3, 1.0, heads.size)
    return list(zip(heads.tolist(), tails.tolist(), weights.tolist()))


def measure(num_tasks: int) -> dict[str, float]:
    """Fastest of ``REPEATS`` cold set-ups, per stage, in this process."""
    from repro.core import ICrowdConfig
    from repro.core.estimator import AccuracyEstimator
    from repro.core.graph import SimilarityGraph
    from repro.core.qualification import select_qualification_tasks

    config = ICrowdConfig()
    edges = family_edges(num_tasks)
    best = {
        "setup.graph_s": float("inf"),
        "setup.basis_s": float("inf"),
        "setup.qualification_s": float("inf"),
    }
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        graph = SimilarityGraph.from_edges(num_tasks, edges)
        t1 = time.perf_counter()
        estimator = AccuracyEstimator(graph, config.estimator)
        estimator.precompute()
        t2 = time.perf_counter()
        select_qualification_tasks(
            estimator.basis, config.qualification.num_qualification
        )
        t3 = time.perf_counter()
        for key, seconds in zip(best, (t1 - t0, t2 - t1, t3 - t2)):
            best[key] = min(best[key], seconds)
    best["ru_maxrss_mib"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    )
    return best


def measured(num_tasks: int) -> dict[str, float]:
    """``measure`` in a fresh process (once per session and size)."""
    if num_tasks not in _measured:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ)
        env.pop("REPRO_BASIS_CACHE", None)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src"), env.get("PYTHONPATH", "")]
        )
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), str(num_tasks)],
            check=True,
            capture_output=True,
            text=True,
            env=env,
        )
        _measured[num_tasks] = json.loads(done.stdout.splitlines()[-1])
    return _measured[num_tasks]


def render() -> str:
    lines = [
        "Offline phase at large |T|: 100-task domains, 8 in-domain "
        "neighbours per task; fastest of 3 cold set-ups per stage",
        "",
        "| |T| | graph_s | basis_s | qualification_s | basis us/task "
        "| Alg. 4 us/task | ru_maxrss MiB |",
        "|---|---|---|---|---|---|---|",
    ]
    for size in sorted(_measured):
        row = _measured[size]
        lines.append(
            f"| {size} | {row['setup.graph_s']:.3f} "
            f"| {row['setup.basis_s']:.3f} "
            f"| {row['setup.qualification_s']:.4f} "
            f"| {row['setup.basis_s'] / size * 1e6:.1f} "
            f"| {row['setup.qualification_s'] / size * 1e6:.2f} "
            f"| {row['ru_maxrss_mib']:.0f} |"
        )
    return "\n".join(lines)


@pytest.mark.parametrize("num_tasks", SIZES, ids=lambda n: f"tasks={n}")
def test_offline_scale(num_tasks, record):
    base = measured(SIZES[0])
    row = measured(num_tasks)
    if len(_measured) == len(SIZES):
        record("offline_scale", render())
    for stage in ("setup.basis_s", "setup.qualification_s"):
        ratio = (row[stage] / num_tasks) / (base[stage] / SIZES[0])
        assert ratio <= MAX_PER_TASK_RATIO, (stage, ratio, row, base)


if __name__ == "__main__":
    print(json.dumps(measure(int(sys.argv[1]))))

"""Scalability: indexed assignment over hundreds of thousands of tasks.

Reproduces the regime of the paper's Figure 10: a similarity graph with
a bounded neighbour count, grown in steps, with per-request assignment
work that depends on the local neighbourhood rather than |T| — so the
elapsed time for a fixed batch of requests grows sub-linearly.

Run:  python examples/scalability_demo.py
"""

import time

from repro.core.streaming import FrozenGraph, StreamingAssigner
from repro.experiments.figures import random_normalized_graph
from repro.utils.rng import spawn_rng

SIZES = [25_000, 50_000, 100_000, 200_000]
MAX_NEIGHBORS = 40
REQUESTS = 2_000
WORKERS = 50


def main() -> None:
    print(
        f"{REQUESTS} assignment requests against growing task sets "
        f"(max {MAX_NEIGHBORS} neighbours per task, {WORKERS} workers)\n"
    )
    print(f"{'# microtasks':<15}{'build graph':<14}{'assign':<12}"
          f"{'per request':<14}")
    for num_tasks in SIZES:
        t0 = time.perf_counter()
        normalized = random_normalized_graph(
            num_tasks, MAX_NEIGHBORS, seed=1
        )
        build_elapsed = time.perf_counter() - t0

        assigner = StreamingAssigner(
            FrozenGraph(normalized), damping=0.5, k=3
        )
        rng = spawn_rng(1, f"demo-{num_tasks}")
        t0 = time.perf_counter()
        for r in range(REQUESTS):
            worker = f"w{r % WORKERS}"
            task = assigner.request(worker)
            if task is None:
                break
            assigner.answer(worker, task, float(rng.random()))
        assign_elapsed = time.perf_counter() - t0
        print(
            f"{num_tasks:<15,}{build_elapsed:<14.2f}"
            f"{assign_elapsed:<12.3f}"
            f"{assign_elapsed / REQUESTS * 1e3:<14.3f}ms"
        )

    print(
        "\nassignment time stays nearly flat as |T| grows 8x — the "
        "sub-linear shape of the paper's Figure 10."
    )


if __name__ == "__main__":
    main()

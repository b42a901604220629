"""ExternalQuestion integration demo (paper Appendix A / Figure 11).

Starts the iCrowd web server the way the paper deploys it behind
Amazon Mechanical Turk's ExternalQuestion mechanism, then plays the
role of AMT: simulated workers poll ``GET /request`` for microtasks and
``POST /submit`` their answers until the job completes.

Run:  python examples/external_question_server.py
"""

from repro.core import ICrowd, ICrowdConfig
from repro.core.config import GraphConfig
from repro.datasets import make_itemcompare
from repro.platform import ICrowdClient, ICrowdHTTPServer
from repro.workers import WorkerPool, generate_profiles


def main() -> None:
    tasks = make_itemcompare(seed=3, tasks_per_domain=10)
    profiles = generate_profiles(tasks.domains(), num_workers=12, seed=3)
    pool = WorkerPool(profiles, seed=3)
    config = ICrowdConfig(
        graph=GraphConfig(measure="jaccard", threshold=0.3), seed=3
    )
    icrowd = ICrowd(tasks, config)

    with ICrowdHTTPServer(tasks, icrowd) as server, ICrowdClient(
        server.address, timeout=10
    ) as client:
        address = server.address
        print(f"iCrowd server listening on http://{address[0]}:{address[1]}")
        steps = 0
        while steps < 5000:
            steps += 1
            pool.tick()
            worker_id = pool.sample_requester()
            if worker_id is None:
                continue
            task = client.request_task(worker_id)
            if task is None:
                continue
            # the worker answers what the iframe showed her
            label = pool.worker(worker_id).answer(tasks[task["task_id"]])
            client.submit(worker_id, task["task_id"], label, task["is_test"])
            pool.note_submission(worker_id)
            progress = client.status()
            if progress["finished"]:
                break
        progress = client.status()
        print(
            f"finished={progress['finished']} after {steps} requests; "
            f"{progress['completed_tasks']}/{progress['total_tasks']} "
            f"tasks completed"
        )
        exclude = set(icrowd.qualification_tasks)
        predictions = icrowd.predictions()
        considered = [t for t in tasks if t.task_id not in exclude]
        correct = sum(
            1 for t in considered if predictions[t.task_id] == t.truth
        )
        print(f"accuracy over HTTP: {correct / len(considered):.3f}")


if __name__ == "__main__":
    main()

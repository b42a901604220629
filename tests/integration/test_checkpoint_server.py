"""Integration: checkpoint a live HTTP-served job and resume it.

The full Appendix A production story: the iCrowd server crashes
mid-job, a new process restores the checkpoint, and workers keep
going — nobody re-answers, nothing is lost, the job finishes.
"""

from repro.core import ICrowd, ICrowdConfig
from repro.core.config import GraphConfig, QualificationConfig
from repro.core.persistence import load_checkpoint, save_checkpoint
from repro.datasets import make_itemcompare
from repro.platform import ICrowdClient
from repro.platform.server import ICrowdHTTPServer
from repro.workers import WorkerPool, generate_profiles


def drive(client, pool, tasks, max_steps):
    """Run the worker loop against a server for up to max_steps."""
    for _ in range(max_steps):
        pool.tick()
        worker = pool.sample_requester()
        if worker is None:
            continue
        task = client.request_task(worker)
        if task is None:
            continue
        label = pool.worker(worker).answer(tasks[task["task_id"]])
        client.submit(worker, task["task_id"], label, task["is_test"])
        pool.note_submission(worker)


def test_restart_served_job_from_checkpoint(tmp_path):
    tasks = make_itemcompare(seed=23, tasks_per_domain=5)
    config = ICrowdConfig(
        qualification=QualificationConfig(
            num_qualification=4, qualification_threshold=0.0
        ),
        graph=GraphConfig(measure="jaccard", threshold=0.3),
        seed=23,
    )
    icrowd = ICrowd(tasks, config)
    pool = WorkerPool(
        generate_profiles(tasks.domains(), 8, seed=23), seed=23
    )

    # phase 1: serve part of the job, then "crash"
    with ICrowdHTTPServer(tasks, icrowd) as server, ICrowdClient(
        server.address
    ) as client:
        drive(client, pool, tasks, max_steps=60)
        checkpoint_path = tmp_path / "job.json"
        save_checkpoint(icrowd, checkpoint_path)
        progress_before = len(icrowd.completed_tasks())

    # phase 2: a new process restores and finishes the job
    restored = load_checkpoint(
        tasks, config, checkpoint_path, graph=icrowd.graph
    )
    assert len(restored.completed_tasks()) == progress_before
    with ICrowdHTTPServer(tasks, restored) as server, ICrowdClient(
        server.address
    ) as client:
        drive(client, pool, tasks, max_steps=3000)
        body = client.status()
    assert body["finished"] is True

    # quality sanity: the finished job predicts most tasks correctly
    exclude = set(restored.qualification_tasks)
    predictions = restored.predictions()
    considered = [t for t in tasks if t.task_id not in exclude]
    accuracy = sum(
        1 for t in considered if predictions[t.task_id] == t.truth
    ) / len(considered)
    assert accuracy > 0.55

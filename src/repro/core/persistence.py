"""Checkpointing a live iCrowd job to disk + the offline-basis cache.

A deployed iCrowd (the Appendix A web server) must survive restarts
mid-job: answers already paid for cannot be re-collected.  This module
serialises the full interaction state — answers, test answers, vote
tallies, consensus, warm-up grades, activity clocks — as versioned
JSON, and rebuilds an equivalent :class:`repro.core.ICrowd` from it.

It also hosts the **offline PPR basis cache**: the basis is a pure
function of ``(normalized matrix, damping, epsilon)``, so repeated
experiment/CLI runs over the same workload can skip Algorithm 1's
offline phase entirely.  Cache entries are ``.npz`` files holding the
exact CSR arrays of the basis, keyed by a SHA-256 content hash of the
three inputs; loads are bit-identical to the compute they replace.
Changing any of the three inputs changes the key (automatic
invalidation); stale entries are never wrong, only unused.

Accuracy estimates ARE persisted, and necessarily so: Eq. (5) grades a
worker's consensus answers using her co-voters' *current* estimates, so
the estimate cache is a fixed point of the interaction history, not a
pure function of the stored observations.  Recomputing estimates from
scratch after a restore would converge to a (slightly) different fixed
point and change subsequent assignments — the checkpoint-transparency
property test in ``tests/properties`` exists precisely to catch that.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib

import numpy as np
from scipy import sparse

from repro.core.assigner import TaskBoard, TaskState
from repro.core.config import ICrowdConfig
from repro.core.estimator import AccuracyEstimator
from repro.core.framework import ICrowd
from repro.core.graph import SimilarityGraph
from repro.core.ppr import PPRBasis
from repro.core.qualification import WarmUpState
from repro.core.types import Answer, Label, TaskSet

#: Schema version of the checkpoint format.
CHECKPOINT_VERSION = 1

#: Schema version of the on-disk basis cache (baked into the key, so a
#: format change silently misses rather than mis-loads old entries).
BASIS_CACHE_VERSION = 1


# ----------------------------------------------------------------------
# offline PPR basis cache
# ----------------------------------------------------------------------
def basis_cache_key(
    normalized: sparse.csr_matrix, damping: float, epsilon: float
) -> str:
    """Content hash identifying one offline basis.

    Hashes the canonicalised CSR arrays of ``S'`` together with the
    damping and truncation epsilon — exactly the inputs the basis is a
    pure function of.  Two graphs with equal entries hash equally
    regardless of how their CSR structure was built.
    """
    matrix = normalized.tocsr().sorted_indices()
    digest = hashlib.sha256()
    digest.update(f"ppr-basis-v{BASIS_CACHE_VERSION}".encode())
    digest.update(np.int64(matrix.shape[0]).tobytes())
    digest.update(np.asarray(matrix.indptr, dtype=np.int64).tobytes())
    digest.update(np.asarray(matrix.indices, dtype=np.int64).tobytes())
    digest.update(np.asarray(matrix.data, dtype=np.float64).tobytes())
    digest.update(np.float64(damping).tobytes())
    digest.update(np.float64(epsilon).tobytes())
    return digest.hexdigest()


def basis_cache_path(
    cache_dir: str | pathlib.Path, key: str
) -> pathlib.Path:
    """File path of one cache entry (``ppr-basis-<key>.npz``)."""
    return pathlib.Path(cache_dir) / f"ppr-basis-{key}.npz"


def save_basis(
    basis: PPRBasis,
    cache_dir: str | pathlib.Path,
    key: str,
) -> pathlib.Path:
    """Persist a basis under ``key``; atomic against concurrent readers.

    Stores the raw CSR arrays uncompressed so a reload reproduces the
    basis bit-for-bit.
    """
    directory = pathlib.Path(cache_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = basis_cache_path(directory, key)
    matrix = basis.matrix
    tmp = path.with_suffix(f".tmp-{os.getpid()}")
    with open(tmp, "wb") as handle:
        np.savez(
            handle,
            indptr=matrix.indptr,
            indices=matrix.indices,
            data=matrix.data,
            shape=np.asarray(matrix.shape, dtype=np.int64),
        )
    os.replace(tmp, path)
    return path


def load_basis(
    cache_dir: str | pathlib.Path, key: str
) -> PPRBasis | None:
    """Load the cached basis for ``key``, or None on a cache miss."""
    path = basis_cache_path(cache_dir, key)
    if not path.exists():
        return None
    with np.load(path) as payload:
        matrix = sparse.csr_matrix(
            (payload["data"], payload["indices"], payload["indptr"]),
            shape=tuple(payload["shape"]),
        )
    return PPRBasis(matrix)


def _answers_payload(answers: dict) -> dict:
    return {
        worker: [[a.task_id, int(a.label), a.seq] for a in worker_answers]
        for worker, worker_answers in answers.items()
    }


def _answers_restore(payload: dict, worker: str) -> list[Answer]:
    return [
        Answer(
            task_id=int(task_id),
            worker_id=worker,
            label=Label(int(label)),
            seq=int(seq),
        )
        for task_id, label, seq in payload
    ]


def checkpoint_state(framework: ICrowd) -> dict:
    """Snapshot a framework's interaction state as a JSON-able dict."""
    warmup_states = {}
    for worker, state in framework.warmup._states.items():
        warmup_states[worker] = {
            "pending": list(state.pending),
            "graded": {str(t): ok for t, ok in state.graded.items()},
            "rejected": state.rejected,
        }
    return {
        "version": CHECKPOINT_VERSION,
        "qualification_tasks": list(framework.qualification_tasks),
        "clock": framework._clock,
        "seq": framework._seq,
        "last_seen": dict(framework._last_seen),
        "answers": _answers_payload(framework._answers),
        "test_answers": _answers_payload(framework._test_answers),
        "consensus": {
            str(t): int(label) for t, label in framework._consensus.items()
        },
        "pending": [
            [worker, task, issued]
            for (worker, task), issued in framework._pending.items()
        ],
        "estimates": {
            worker: [float(v) for v in vector]
            for worker, vector in framework._estimates.items()
        },
        "dirty": sorted(framework._dirty),
        "states": {
            str(t): {
                "assigned": sorted(s.assigned_workers),
                "tested": sorted(s.tested_workers),
                "completed": s.completed,
            }
            for t, s in framework._board.states.items()
        },
        "warmup": warmup_states,
    }


def save_checkpoint(framework: ICrowd, path: str | pathlib.Path) -> None:
    """Write the framework's checkpoint JSON to ``path``."""
    payload = checkpoint_state(framework)
    pathlib.Path(path).write_text(json.dumps(payload))


def restore_state(framework: ICrowd, payload: dict) -> ICrowd:
    """Load a checkpoint dict into a freshly constructed framework.

    The framework must have been built with the same tasks, graph and
    qualification set the checkpoint was taken from.
    """
    version = payload.get("version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(
            f"unsupported checkpoint version {version!r} "
            f"(expected {CHECKPOINT_VERSION})"
        )
    saved_qualification = list(payload["qualification_tasks"])
    if saved_qualification != list(framework.qualification_tasks):
        raise ValueError(
            "checkpoint qualification set does not match the framework's"
        )
    framework._clock = int(payload["clock"])
    framework._seq = int(payload["seq"])
    framework._last_seen = {
        w: int(v) for w, v in payload["last_seen"].items()
    }
    framework._answers = {
        worker: _answers_restore(entries, worker)
        for worker, entries in payload["answers"].items()
    }
    framework._test_answers = {
        worker: _answers_restore(entries, worker)
        for worker, entries in payload["test_answers"].items()
    }
    framework._consensus = {
        int(t): Label(int(label))
        for t, label in payload["consensus"].items()
    }
    framework._pending = {
        (worker, int(task)): int(issued)
        for worker, task, issued in payload.get("pending", [])
    }
    # replay every record into a fresh board through its writers, in
    # sorted order: a restored set iterates as ``set(sorted_list)`` does
    board = TaskBoard(
        [
            TaskState(task_id=s.task_id, k=s.k)
            for s in framework._board.states.values()
        ],
        width=len(framework._board.free),
    )
    for t, entry in payload["states"].items():
        task_id = int(t)
        for worker in sorted(entry["assigned"]):
            board.hold(worker, task_id)
        for worker in sorted(entry["tested"]):
            board.test(worker, task_id)
        if entry["completed"]:
            board.complete(task_id)
    framework._board = board
    framework.warmup._states = {
        worker: WarmUpState(
            pending=[int(t) for t in entry["pending"]],
            graded={int(t): bool(ok) for t, ok in entry["graded"].items()},
            rejected=bool(entry["rejected"]),
        )
        for worker, entry in payload["warmup"].items()
    }
    # rebuild vote tallies from the persisted answers
    for vote_state in framework._votes.values():
        vote_state.answers.clear()
    flat = [
        answer
        for worker_answers in framework._answers.values()
        for answer in worker_answers
    ]
    flat.sort(key=lambda a: a.seq)
    qualification = set(framework.warmup.qualification_truth)
    for answer in flat:
        if answer.task_id in qualification:
            continue
        framework._votes[answer.task_id].answers.append(answer)
    # restore the estimate cache exactly (see the module docstring for
    # why estimates are path-dependent state, not derived state)
    import numpy as np

    framework._estimates = {
        worker: np.array(vector, dtype=np.float64)
        for worker, vector in payload.get("estimates", {}).items()
    }
    if "dirty" in payload:
        framework._dirty = set(payload["dirty"])
    else:
        framework._dirty = set(framework._answers) | set(
            framework._test_answers
        )
    # any scheme cached before the restore was computed against the old
    # state — advance the epoch and drop it
    framework._assign_epoch += 1
    framework.assigner.invalidate()
    return framework


def load_checkpoint(
    tasks: TaskSet,
    config: ICrowdConfig,
    path: str | pathlib.Path,
    graph: SimilarityGraph | None = None,
    estimator: AccuracyEstimator | None = None,
) -> ICrowd:
    """Reconstruct a framework from a checkpoint file.

    ``tasks`` / ``config`` / ``graph`` must match the original job (the
    checkpoint stores interaction state, not the workload).
    """
    payload = json.loads(pathlib.Path(path).read_text())
    framework = ICrowd(
        tasks,
        config,
        graph=graph,
        qualification_tasks=[
            int(t) for t in payload["qualification_tasks"]
        ],
        estimator=estimator,
    )
    return restore_state(framework, payload)

"""Differential tests for the vectorised push kernel and parallel basis.

The fast offline phase rewrites forward push on flat numpy buffers
(:class:`PushKernel`), splits basis rows over a process pool
(``method="parallel-push"``) and keeps the original dict-and-deque
implementation as :func:`forward_push_reference`.  These tests pin the
fast paths to the reference and to the exact solver.
"""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro.core import ppr
from repro.core.ppr import (
    ConvergenceWarning,
    PPRBasis,
    PushKernel,
    PushStats,
    forward_push,
    forward_push_reference,
    solve_exact,
)
from repro.experiments.figures import random_normalized_graph


def unit(n, i):
    q = np.zeros(n)
    q[i] = 1.0
    return q


class TestVectorisedVsReference:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_reference_on_random_graphs(self, seed):
        normalized = random_normalized_graph(300, 6, seed)
        for source in (0, 57, 299):
            fast = forward_push(
                normalized, source, damping=0.5, epsilon=1e-9
            )
            slow = forward_push_reference(
                normalized, source, damping=0.5, epsilon=1e-9
            )
            exact = solve_exact(normalized, unit(300, source), 0.5)
            # both approximations sit within the push tolerance of the
            # exact solution (they need not be identical to each other:
            # the kernel relaxes whole frontiers, the reference one node
            # at a time)
            for approx in (fast, slow):
                dense = np.zeros(300)
                for node, value in approx.items():
                    dense[node] = value
                assert np.max(np.abs(dense - exact)) < 1e-6

    def test_matches_reference_on_paper_graph(self, paper_graph):
        normalized = paper_graph.normalized
        for source in range(paper_graph.num_tasks):
            fast = forward_push(
                normalized, source, damping=0.5, epsilon=1e-10
            )
            slow = forward_push_reference(
                normalized, source, damping=0.5, epsilon=1e-10
            )
            assert set(fast) == set(slow)
            for node, value in fast.items():
                assert value == pytest.approx(slow[node], abs=1e-8)

    def test_locality_preserved(self, two_cliques):
        kernel = PushKernel(two_cliques.normalized)
        nodes, values, _ = kernel.push(0, damping=0.5, epsilon=1e-10)
        assert set(nodes.tolist()) <= {0, 1, 2}
        assert np.all(values > 0)

    def test_kernel_buffer_reuse_is_clean(self):
        """Consecutive pushes on one kernel equal fresh-kernel pushes."""
        normalized = random_normalized_graph(200, 5, 3)
        shared = PushKernel(normalized)
        for source in (0, 7, 7, 199, 42):
            n1, v1, _ = shared.push(source, damping=0.5, epsilon=1e-8)
            n2, v2, _ = PushKernel(normalized).push(
                source, damping=0.5, epsilon=1e-8
            )
            assert np.array_equal(n1, n2)
            assert np.array_equal(v1, v2)

    def test_kernel_rejects_mismatched_matrix(self, line_graph, two_cliques):
        kernel = PushKernel(two_cliques.normalized)
        with pytest.raises(ValueError, match="different matrix"):
            forward_push(line_graph.normalized, 0, 0.5, kernel=kernel)

    def test_validation_matches_reference(self, line_graph):
        for push in (forward_push, forward_push_reference):
            with pytest.raises(ValueError, match="damping"):
                push(line_graph.normalized, 0, 1.5)
            with pytest.raises(ValueError, match="epsilon"):
                push(line_graph.normalized, 0, 0.5, epsilon=0.0)
            with pytest.raises(ValueError, match="source"):
                push(line_graph.normalized, 9, 0.5)


class TestPushStats:
    def test_stats_filled(self, paper_graph):
        stats = PushStats()
        forward_push(
            paper_graph.normalized, 0, damping=0.5, epsilon=1e-8,
            stats=stats,
        )
        assert stats.pushes > 0
        assert not stats.truncated
        assert stats.residual_norm < 1e-5

    @pytest.mark.parametrize(
        "push", [forward_push, forward_push_reference]
    )
    def test_truncation_warns(self, paper_graph, push):
        stats = PushStats()
        with pytest.warns(ConvergenceWarning, match="truncated"):
            push(
                paper_graph.normalized, 0, damping=0.9, epsilon=1e-12,
                max_pushes=2, stats=stats,
            )
        assert stats.truncated
        assert stats.residual_norm > 0

    def test_no_warning_when_converged(self, paper_graph):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            forward_push(paper_graph.normalized, 0, damping=0.5)


SPAWN_POOL_SCRIPT = """
import multiprocessing
import sys

import numpy as np

from repro.core import ppr
from repro.experiments.figures import random_normalized_graph

multiprocessing.set_start_method("spawn")
ppr._MIN_CHUNK_NNZ = 100
normalized = random_normalized_graph(200, 5, 11)
serial = ppr.PPRBasis.compute(
    normalized, damping=0.5, epsilon=1e-6, method="push"
)
parallel = ppr.PPRBasis.compute(
    normalized, damping=0.5, epsilon=1e-6,
    method="parallel-push", num_workers=2, force_parallel=True,
)
same = all(
    np.array_equal(getattr(serial.matrix, part), getattr(parallel.matrix, part))
    for part in ("indptr", "indices", "data")
)
sys.exit(0 if same else 1)
"""


class TestParallelBasis:
    def test_parallel_identical_to_serial(self, monkeypatch):
        """The pool matches serial push bit for bit across several
        nnz-sized work units (force_parallel: 200 tasks sit below the
        small-n fallback threshold)."""
        # ~2k nnz make one unit at the production minimum; lower it so
        # the sources really are split over several units
        monkeypatch.setattr(ppr, "_MIN_CHUNK_NNZ", 100)
        normalized = random_normalized_graph(200, 5, 11)
        units = ppr._chunk_sources_by_nnz(
            normalized.indptr, np.arange(200), workers=2
        )
        assert len(units) > 2
        serial = PPRBasis.compute(
            normalized, damping=0.5, epsilon=1e-6, method="push"
        )
        parallel = PPRBasis.compute(
            normalized, damping=0.5, epsilon=1e-6,
            method="parallel-push", num_workers=2, force_parallel=True,
        )
        assert np.array_equal(serial.matrix.indptr, parallel.matrix.indptr)
        assert np.array_equal(
            serial.matrix.indices, parallel.matrix.indices
        )
        assert np.array_equal(serial.matrix.data, parallel.matrix.data)

    def test_parallel_nnz_chunks_identical_to_serial(self):
        """Default (nnz-derived) work units match serial bit-for-bit."""
        normalized = random_normalized_graph(200, 5, 11)
        serial = PPRBasis.compute(
            normalized, damping=0.5, epsilon=1e-6, method="push"
        )
        parallel = PPRBasis.compute(
            normalized, damping=0.5, epsilon=1e-6,
            method="parallel-push", num_workers=2, force_parallel=True,
        )
        assert np.array_equal(serial.matrix.data, parallel.matrix.data)
        assert np.array_equal(
            serial.matrix.indices, parallel.matrix.indices
        )

    def test_parallel_identical_to_serial_under_spawn(self):
        """Under ``spawn`` (the default on macOS and Windows) the pool
        pickles its ``initargs`` into each worker; a fresh interpreter
        keeps that start method out of this process."""
        src = pathlib.Path(ppr.__file__).resolve().parents[2]
        result = subprocess.run(
            [sys.executable, "-c", SPAWN_POOL_SCRIPT],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            timeout=300,
        )
        assert result.returncode == 0, result.stderr

    def test_small_input_falls_back_to_serial_with_counter(self):
        """Below the size thresholds, parallel requests run serially and
        the routing decision is observable on the metrics registry."""
        from repro.core.ppr import PARALLEL_MIN_TASKS
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        normalized = random_normalized_graph(100, 4, 7)
        assert normalized.shape[0] < PARALLEL_MIN_TASKS
        basis = PPRBasis.compute(
            normalized, damping=0.5, epsilon=1e-6,
            method="parallel-push", num_workers=4, recorder=registry,
        )
        serial = PPRBasis.compute(
            normalized, damping=0.5, epsilon=1e-6, method="push"
        )
        assert np.array_equal(basis.matrix.data, serial.matrix.data)
        snapshot = registry.snapshot()
        assert snapshot.get("repro_ppr_parallel_fallback_total") == 1.0

    def test_force_parallel_skips_fallback_counter(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        normalized = random_normalized_graph(64, 4, 7)
        PPRBasis.compute(
            normalized, damping=0.5, epsilon=1e-6,
            method="parallel-push", num_workers=2, force_parallel=True,
            recorder=registry,
        )
        snapshot = registry.snapshot()
        assert "repro_ppr_parallel_fallback_total" not in snapshot

    def test_parallel_one_worker_falls_back_to_serial(self, paper_graph):
        basis = PPRBasis.compute(
            paper_graph.normalized, damping=0.5, epsilon=1e-8,
            method="parallel-push", num_workers=1,
        )
        reference = PPRBasis.compute(
            paper_graph.normalized, damping=0.5, epsilon=1e-8,
            method="push",
        )
        assert np.array_equal(basis.matrix.data, reference.matrix.data)

    def test_push_matches_exact_solver(self, paper_graph):
        basis = PPRBasis.compute(
            paper_graph.normalized, damping=0.5, epsilon=1e-9,
            method="push",
        )
        n = paper_graph.num_tasks
        for i in range(n):
            exact = solve_exact(paper_graph.normalized, unit(n, i), 0.5)
            assert np.allclose(basis.row(i), exact, atol=1e-6)

    def test_auto_selects_parallel_above_limit(self, monkeypatch):
        """auto → parallel-push for big graphs when workers resolve > 1."""
        monkeypatch.setattr(PPRBasis, "AUTO_BATCH_LIMIT", 64)
        normalized = random_normalized_graph(128, 4, 5)
        auto = PPRBasis.compute(
            normalized, damping=0.5, epsilon=1e-6, method="auto",
            num_workers=2,
        )
        serial = PPRBasis.compute(
            normalized, damping=0.5, epsilon=1e-6, method="push"
        )
        assert np.array_equal(auto.matrix.data, serial.matrix.data)

    def test_worker_default_resolves_to_cpu_count(self, monkeypatch):
        """The default pool size is the usable (affinity) core count,
        not the machine's: a pool on phantom cores only adds IPC."""
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0}, raising=False
        )
        assert ppr.usable_cpu_count() == 1
        assert ppr._resolve_workers(None) == 1
        assert ppr._resolve_workers(0) == 1
        assert ppr._resolve_workers(3) == 3

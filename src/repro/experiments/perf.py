"""Offline-phase performance measurement (the Figure 10 speed story).

Times the three layers of the fast offline phase on *this* machine:

1. **Kernel** — the vectorised :class:`repro.core.ppr.PushKernel`
   against the dict-and-deque :func:`repro.core.ppr.forward_push_reference`
   on a large bounded-degree graph (per-source wall clock).
2. **Basis** — full offline basis construction, serial ``push`` vs
   process-pool ``parallel-push`` (identical outputs, different wall
   clock; parallel only wins with real cores).
3. **Cache** — cold estimator start (compute + save) vs warm start
   (load from the on-disk basis cache), bit-identity verified.
4. **Incremental** — the insertion-round protocol (Section 6.5): a
   clustered graph grows by one task batch per round, and per-round
   basis *repair* (:meth:`repro.core.ppr.PPRBasis.repair`, seeded by
   the :class:`~repro.core.streaming.GrowableGraph` change journal) is
   timed against a full rebuild, with the repaired basis checked
   within ``epsilon`` of the rebuild.  Both sides run serial, so this
   section is honest on any core count (no ``skipped_single_core``).
5. **Sanitizer** — the lockset race sanitizer's instrumentation tax:
   a threaded lease-ledger hammer timed clean vs under
   :func:`repro.analysis.sanitizer.sanitized`, asserting zero races
   either way.  The sanitizer is strictly opt-in, so this tax is paid
   only under ``lint --race``; the section documents its bound.

CPU counting is honest: :func:`repro.core.ppr.usable_cpu_count` reports
the cores this process may actually run on (``os.sched_getaffinity``),
the same count that sizes the basis pool, and on a single-usable-core
box the parallel timing section is marked ``"skipped_single_core"``
instead of recording a meaningless 1.00× "speedup".

``benchmarks/test_perf_offline.py`` runs this and records the table to
``benchmarks/results/perf_offline.txt`` plus machine-readable numbers
to ``BENCH_offline.json`` at the repo root; ``python -m repro.cli perf``
reproduces it from the command line.
"""

from __future__ import annotations

import json
import pathlib
import tempfile
import threading
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from repro.core.config import EstimatorConfig
from repro.core.estimator import AccuracyEstimator
from repro.core.graph import SimilarityGraph
from repro.core.ppr import (
    PPRBasis,
    PushKernel,
    RepairStats,
    basis_push_epsilon,
    forward_push_reference,
    usable_cpu_count,
)
from repro.core.streaming import GrowableGraph
from repro.experiments.figures import random_normalized_graph
from repro.obs.profiling import profile_call
from repro.obs.tracing import Stopwatch
from repro.utils.rng import spawn_rng


def random_similarity_graph(
    num_tasks: int, max_neighbors: int, seed: int
) -> SimilarityGraph:
    """Section 6.5's random bounded-degree workload as a raw
    :class:`SimilarityGraph` (so the estimator computes ``S'`` itself)."""
    rng = spawn_rng(seed, f"perf-graph-{num_tasks}-{max_neighbors}")
    rows = np.repeat(np.arange(num_tasks), max_neighbors)
    cols = rng.integers(0, num_tasks, size=num_tasks * max_neighbors)
    keep = rows != cols
    rows, cols = rows[keep], cols[keep]
    data = rng.uniform(0.5, 1.0, size=len(rows))
    matrix = sparse.csr_matrix(
        (data, (rows, cols)), shape=(num_tasks, num_tasks)
    )
    return SimilarityGraph(matrix.maximum(matrix.T))


def clustered_growable_graph(
    num_tasks: int, cluster_size: int, neighbors: int, seed: int
) -> GrowableGraph:
    """A :class:`GrowableGraph` of intra-cluster random edges.

    The streaming workload the paper's insertion protocol actually
    produces: tasks arrive in topical batches, similar mostly to each
    other.  Locality is what makes incremental repair pay — on an
    expander every basis row reaches every change and repair degrades
    to a rebuild, which would be the wrong workload to measure.
    """
    rng = spawn_rng(seed, f"perf-clustered-{num_tasks}-{cluster_size}")
    graph = GrowableGraph()
    graph.add_tasks(num_tasks)
    for start in range(0, num_tasks, cluster_size):
        end = min(start + cluster_size, num_tasks)
        _add_cluster_edges(graph, range(start, end), neighbors, rng)
    return graph


def _add_cluster_edges(graph, members, neighbors, rng) -> None:
    """Wire ``neighbors`` random intra-cluster edges per member."""
    members = list(members)
    if len(members) < 2:
        return
    for i in members:
        for _ in range(neighbors):
            j = int(members[int(rng.integers(0, len(members)))])
            if j != i:
                graph.add_edge(i, j, float(rng.uniform(0.5, 1.0)))


@dataclass
class PerfOfflineResult:
    """Measured offline-phase timings (see :func:`perf_offline`)."""

    cpu_count: int
    kernel: dict = field(default_factory=dict)
    basis: dict = field(default_factory=dict)
    cache: dict = field(default_factory=dict)
    incremental: dict = field(default_factory=dict)
    #: race-sanitizer instrumentation tax on a threaded ledger hammer
    sanitizer: dict = field(default_factory=dict)
    #: sampling-profiler summary of the whole measurement, when
    #: ``perf_offline(profile_path=...)`` was set
    profile: dict = field(default_factory=dict)

    def format_table(self) -> str:
        """Render the timing sections as an aligned text table."""
        k, b, c = self.kernel, self.basis, self.cache
        lines = [
            f"Offline-phase performance "
            f"({self.cpu_count} usable CPU core(s))",
            "",
            f"[kernel] forward push, {k['num_tasks']:,} tasks, "
            f"<= {k['max_neighbors']} neighbours, "
            f"epsilon={k['epsilon']:g}, {k['sample_sources']} sources",
            f"{'variant':<22}{'per-source (s)':<18}",
            f"{'reference (dict)':<22}{k['reference_per_source']:<18.4f}",
            f"{'vectorised':<22}{k['vectorized_per_source']:<18.4f}",
            f"kernel speedup: {k['speedup']:.1f}x",
            "",
            f"[basis] full offline basis, {b['num_tasks']:,} tasks, "
            f"epsilon={b['epsilon']:g}, nnz={b['nnz']:,}",
            f"{'variant':<22}{'wall clock (s)':<18}",
            f"{'serial push':<22}{b['serial_seconds']:<18.3f}",
        ]
        if b["status"] == "skipped_single_core":
            lines.append(
                "parallel-push: skipped_single_core (1 usable core — a "
                "pool cannot beat serial here)"
            )
        else:
            lines += [
                f"{'parallel-push (' + str(b['parallel_workers']) + 'w)':<22}"
                f"{b['parallel_seconds']:<18.3f}",
                f"parallel identical to serial: {b['identical']}; "
                f"speedup {b['speedup']:.2f}x "
                f"(expect > 1 only with >= 4 real cores)",
            ]
        lines += [
            "",
            f"[cache] estimator start, {c['num_tasks']:,} tasks "
            f"(Fig. 10 workload)",
            f"{'start':<22}{'wall clock (s)':<18}",
            f"{'cold (compute+save)':<22}{c['cold_seconds']:<18.3f}",
            f"{'warm (cache load)':<22}{c['warm_seconds']:<18.3f}",
            f"warm speedup: {c['speedup']:.1f}x; "
            f"bit-identical basis: {c['bit_identical']}",
        ]
        i = self.incremental
        if i:
            rebuilds = ", ".join(
                f"{t:.3f}" for t in i["rebuild_seconds"]
            )
            repairs = ", ".join(
                f"{t:.3f}" for t in i["repair_seconds"]
            )
            lines += [
                "",
                f"[incremental] insertion rounds, "
                f"{i['num_tasks']:,} -> {i['final_tasks']:,} tasks "
                f"({i['rounds']} round(s) x {i['batch']} tasks, "
                f"clusters of {i['cluster_size']}, "
                f"epsilon={i['epsilon']:g})",
                f"{'cold basis':<22}{i['cold_seconds']:<18.3f}",
                f"per-round full rebuild (s): [{rebuilds}]",
                f"per-round repair (s):       [{repairs}]",
                f"rows re-pushed per round: {i['repaired_rows']} "
                f"(+{i['batch']} new), reused: {i['reused_rows']}",
                f"repair within epsilon of rebuild: "
                f"{i['within_epsilon']} "
                f"(max |diff| {i['max_abs_diff']:.2e}); "
                f"repair speedup {i['speedup']:.1f}x (serial vs serial)",
            ]
        z = self.sanitizer
        if z:
            lines += [
                "",
                f"[sanitizer] lockset race sanitizer tax, "
                f"{z['threads']} thread(s) x {z['rounds']} "
                f"issue/settle round(s)",
                f"{'clean':<22}{z['clean_seconds']:<18.3f}",
                f"{'instrumented':<22}{z['instrumented_seconds']:<18.3f}",
                f"overhead {z['overhead_x']:.2f}x "
                f"(opt-in: zero when not installed); "
                f"races found: {z['races']}",
            ]
        if self.profile:
            hottest = self.profile.get("top") or [{}]
            lines += [
                "",
                f"[profile] {self.profile['samples']} samples "
                f"@ {self.profile['interval_s'] * 1000:g}ms -> "
                f"{self.profile['path']} "
                f"(hottest: {hottest[0].get('function', '?')})",
            ]
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        """Machine-readable payload (the ``BENCH_offline.json`` schema)."""
        return {
            "bench": "perf_offline",
            "cpu_count": self.cpu_count,
            "kernel": self.kernel,
            "basis": self.basis,
            "cache": self.cache,
            "incremental": self.incremental,
            "sanitizer": self.sanitizer,
            "profile": self.profile,
        }

    def write_json(self, path: str | pathlib.Path) -> pathlib.Path:
        """Write :meth:`to_json_dict` to ``path``; returns the path."""
        path = pathlib.Path(path)
        path.write_text(json.dumps(self.to_json_dict(), indent=2) + "\n")
        return path


def _bases_identical(a: PPRBasis, b: PPRBasis) -> bool:
    am, bm = a.matrix, b.matrix
    return (
        am.shape == bm.shape
        and np.array_equal(am.indptr, bm.indptr)
        and np.array_equal(am.indices, bm.indices)
        and np.array_equal(am.data, bm.data)
    )


def _measure_incremental(
    stream_tasks: int,
    stream_batch: int,
    stream_rounds: int,
    cluster_size: int,
    neighbors: int,
    epsilon: float,
    seed: int,
) -> dict:
    """Time the insertion-round protocol: repair vs full rebuild.

    A clustered graph (see :func:`clustered_growable_graph`) grows by
    one ``stream_batch``-task cluster per round, bridged to the
    existing graph by a few edges.  Each round times (a) a cold
    rebuild of the whole basis and (b) an incremental repair seeded by
    the change journal, and checks the repaired basis stays within
    tolerance of the rebuild.  The tolerance is
    ``epsilon + 10·push_epsilon``: stored entries agree to push
    accuracy, but an entry just above the ``epsilon`` storage cut-off
    on one side may be truncated on the other, so stored matrices can
    legitimately differ by up to ``epsilon`` plus push slack at the
    boundary.  Both sides are serial pushes on one kernel design, so
    the comparison is honest on any core count.
    """
    rng = spawn_rng(seed, f"perf-incremental-{stream_tasks}")
    graph = clustered_growable_graph(
        stream_tasks, cluster_size, neighbors, seed
    )
    damping = 0.5
    with Stopwatch() as sw:
        basis = PPRBasis.compute(
            graph.normalized_csr(), damping,
            epsilon=epsilon, method="push",
        )
    cold_seconds = sw.elapsed
    graph.mark_clean()
    rebuild_seconds: list[float] = []
    repair_seconds: list[float] = []
    repaired_rows: list[int] = []
    reused_rows: list[int] = []
    max_abs_diff = 0.0
    for _ in range(stream_rounds):
        new_ids = graph.add_tasks(stream_batch)
        _add_cluster_edges(graph, new_ids, neighbors, rng)
        # a few bridges into the existing graph (the realistic bit:
        # new batches are not fully disconnected)
        for _ in range(4):
            i = int(new_ids[int(rng.integers(0, len(new_ids)))])
            j = int(rng.integers(0, new_ids[0]))
            graph.add_edge(i, j, float(rng.uniform(0.5, 1.0)))
        delta = graph.mark_clean()
        normalized = graph.normalized_csr()
        with Stopwatch() as sw:
            rebuilt = PPRBasis.compute(
                normalized, damping, epsilon=epsilon, method="push"
            )
        rebuild_seconds.append(sw.elapsed)
        stats = RepairStats()
        with Stopwatch() as sw:
            basis = basis.repair(
                normalized, delta.dirty_rows, damping,
                epsilon=epsilon, stats=stats,
            )
        repair_seconds.append(sw.elapsed)
        repaired_rows.append(stats.repaired_rows)
        reused_rows.append(stats.reused_rows)
        diff = basis.matrix - rebuilt.matrix
        if diff.nnz:
            max_abs_diff = max(
                max_abs_diff, float(np.abs(diff.data).max())
            )
    total_rebuild = sum(rebuild_seconds)
    total_repair = sum(repair_seconds)
    tolerance = max(epsilon + 10.0 * basis_push_epsilon(epsilon), 1e-9)
    return {
        "status": "ok",
        "num_tasks": stream_tasks,
        "final_tasks": graph.num_tasks,
        "cluster_size": cluster_size,
        "neighbors": neighbors,
        "epsilon": epsilon,
        "rounds": stream_rounds,
        "batch": stream_batch,
        "cold_seconds": cold_seconds,
        "rebuild_seconds": rebuild_seconds,
        "repair_seconds": repair_seconds,
        "repaired_rows": repaired_rows,
        "reused_rows": reused_rows,
        "max_abs_diff": max_abs_diff,
        "tolerance": tolerance,
        "within_epsilon": bool(max_abs_diff <= tolerance),
        "speedup": total_rebuild / max(total_repair, 1e-12),
    }


def _measure_sanitizer(
    threads: int = 4, rounds: int = 1_500
) -> dict:
    """Instrumentation tax of the lockset race sanitizer.

    Runs the same threaded lease-ledger hammer twice — clean, then
    under :func:`repro.analysis.sanitizer.sanitized` — and reports the
    wall-clock ratio.  The hammer's hot loop lives in
    ``repro.platform.leases``, a default sanitizer target, so this is
    the *worst case*: essentially every executed line is traced.  The
    representative <5x bound on the real hammer suite is asserted by
    ``benchmarks/test_race_overhead.py``.
    """
    from repro.analysis.sanitizer import sanitized
    from repro.platform.leases import LeaseLedger

    def hammer() -> float:
        ledger = LeaseLedger(timeout=10)

        def work(i: int) -> None:
            for k in range(rounds):
                ledger.issue(f"w{i}", k, now=0)
                ledger.settle(f"w{i}", k, now=1)

        pool = [
            threading.Thread(target=work, args=(i,))
            for i in range(threads)
        ]
        with Stopwatch() as sw:
            for t in pool:
                t.start()
            for t in pool:
                t.join()
        if ledger.stats.answered != threads * rounds:
            raise AssertionError("hammer lost updates")
        return sw.elapsed

    clean_seconds = hammer()
    with sanitized() as sanitizer:
        instrumented_seconds = hammer()
    return {
        "workload": "lease issue/settle hammer",
        "threads": threads,
        "rounds": rounds,
        "clean_seconds": clean_seconds,
        "instrumented_seconds": instrumented_seconds,
        "overhead_x": instrumented_seconds / max(clean_seconds, 1e-12),
        "races": len(sanitizer.reports),
    }


def perf_offline(
    kernel_tasks: int = 50_000,
    kernel_neighbors: int = 20,
    kernel_sources: int = 3,
    kernel_epsilon: float = 1e-6,
    basis_tasks: int = 6_000,
    basis_neighbors: int = 12,
    basis_epsilon: float = 1e-4,
    cache_tasks: int = 5_000,
    cache_neighbors: int = 20,
    num_workers: int | None = None,
    cache_dir: str | pathlib.Path | None = None,
    seed: int = 7,
    incremental: bool = True,
    stream_tasks: int = 5_000,
    stream_batch: int = 100,
    stream_rounds: int = 3,
    stream_neighbors: int = 6,
    cluster_size: int = 100,
    sanitizer: bool = True,
    profile_path: str | pathlib.Path | None = None,
) -> PerfOfflineResult:
    """Measure kernel / basis / cache / incremental timings.

    ``num_workers`` sets the pool size for the parallel measurement
    (default: the *usable* cpu count, capped at 8).  On a box with a
    single usable core the parallel timing is skipped and marked
    ``"skipped_single_core"`` — an honest result beats a fake 1.00x.
    ``cache_dir`` defaults to a throwaway temp directory.

    ``incremental=False`` drops the insertion-round section; the
    ``stream_*`` / ``cluster_size`` knobs size its workload
    (``stream_tasks`` initial tasks in ``cluster_size``-task clusters,
    ``stream_rounds`` rounds of ``stream_batch`` new tasks each).  Its
    repair-vs-rebuild comparison is serial on both sides, so it never
    needs a multicore skip.

    ``sanitizer=False`` drops the race-sanitizer tax section (a
    threaded lease hammer timed clean vs instrumented).

    ``profile_path`` samples the whole measurement with
    :class:`repro.obs.SamplingProfiler` and writes collapsed stacks
    (flamegraph input) there; the profile summary lands in
    ``result.profile`` and the ``BENCH_offline.json`` payload.
    """
    if profile_path is not None:
        result, profiler = profile_call(
            lambda: perf_offline(
                kernel_tasks=kernel_tasks,
                kernel_neighbors=kernel_neighbors,
                kernel_sources=kernel_sources,
                kernel_epsilon=kernel_epsilon,
                basis_tasks=basis_tasks,
                basis_neighbors=basis_neighbors,
                basis_epsilon=basis_epsilon,
                cache_tasks=cache_tasks,
                cache_neighbors=cache_neighbors,
                num_workers=num_workers,
                cache_dir=cache_dir,
                seed=seed,
                incremental=incremental,
                stream_tasks=stream_tasks,
                stream_batch=stream_batch,
                stream_rounds=stream_rounds,
                stream_neighbors=stream_neighbors,
                cluster_size=cluster_size,
                sanitizer=sanitizer,
            )
        )
        out = profiler.write_collapsed(profile_path)
        result.profile = {"path": str(out), **profiler.summary()}
        return result
    cpu_count = usable_cpu_count()
    multicore = cpu_count >= 2
    result = PerfOfflineResult(cpu_count=cpu_count)

    # ---- layer 1: kernel vs reference ---------------------------------
    normalized = random_normalized_graph(
        kernel_tasks, kernel_neighbors, seed
    )
    sources = list(range(kernel_sources))
    with Stopwatch() as sw:
        for source in sources:
            forward_push_reference(
                normalized, source, damping=0.5, epsilon=kernel_epsilon
            )
    reference_per_source = sw.elapsed / len(sources)
    kernel = PushKernel(normalized)
    with Stopwatch() as sw:
        for source in sources:
            kernel.push(source, damping=0.5, epsilon=kernel_epsilon)
    vectorized_per_source = sw.elapsed / len(sources)
    result.kernel = {
        "num_tasks": kernel_tasks,
        "max_neighbors": kernel_neighbors,
        "epsilon": kernel_epsilon,
        "sample_sources": len(sources),
        "reference_per_source": reference_per_source,
        "vectorized_per_source": vectorized_per_source,
        "speedup": reference_per_source / max(vectorized_per_source, 1e-12),
    }

    # ---- layer 2: serial vs parallel basis ----------------------------
    normalized = random_normalized_graph(basis_tasks, basis_neighbors, seed)
    with Stopwatch() as sw:
        serial = PPRBasis.compute(
            normalized, damping=0.5, epsilon=basis_epsilon, method="push"
        )
    serial_seconds = sw.elapsed
    workers = num_workers or max(2, min(cpu_count, 8))
    result.basis = {
        "num_tasks": basis_tasks,
        "epsilon": basis_epsilon,
        "nnz": int(serial.nnz),
        "serial_seconds": serial_seconds,
    }
    if multicore:
        with Stopwatch() as sw:
            parallel = PPRBasis.compute(
                normalized,
                damping=0.5,
                epsilon=basis_epsilon,
                method="parallel-push",
                num_workers=workers,
                force_parallel=True,
            )
        parallel_seconds = sw.elapsed
        result.basis.update(
            {
                "status": "ok",
                "parallel_seconds": parallel_seconds,
                "parallel_workers": workers,
                "speedup": serial_seconds / max(parallel_seconds, 1e-12),
                "identical": _bases_identical(serial, parallel),
            }
        )
    else:
        result.basis["status"] = "skipped_single_core"

    # ---- layer 3: cold vs warm (cached) estimator start ---------------
    graph = random_similarity_graph(cache_tasks, cache_neighbors, seed)
    with tempfile.TemporaryDirectory() as tmp:
        directory = pathlib.Path(cache_dir) if cache_dir else pathlib.Path(tmp)
        config = EstimatorConfig(basis_cache_dir=str(directory))
        cold = AccuracyEstimator(graph, config, basis_method="push")
        with Stopwatch() as sw:
            cold.precompute()
        cold_seconds = sw.elapsed
        warm = AccuracyEstimator(graph, config, basis_method="push")
        with Stopwatch() as sw:
            warm.precompute()
        warm_seconds = sw.elapsed
        result.cache = {
            "num_tasks": cache_tasks,
            "max_neighbors": cache_neighbors,
            "cold_seconds": cold_seconds,
            "warm_seconds": warm_seconds,
            "speedup": cold_seconds / max(warm_seconds, 1e-12),
            "warm_from_cache": warm.basis_from_cache,
            "bit_identical": _bases_identical(cold.basis, warm.basis),
        }

    # ---- layer 4: incremental repair vs rebuild -----------------------
    if incremental:
        result.incremental = _measure_incremental(
            stream_tasks,
            stream_batch,
            stream_rounds,
            cluster_size,
            stream_neighbors,
            basis_epsilon,
            seed,
        )

    # ---- layer 5: race-sanitizer instrumentation tax ------------------
    if sanitizer:
        result.sanitizer = _measure_sanitizer()
    return result

"""Offline-phase performance acceptance bench (DESIGN.md §5).

Runs :func:`repro.experiments.perf.perf_offline` and asserts the
speedups the fast offline phase is built to deliver:

- the vectorised push kernel is ≥ 5× faster than the dict-and-deque
  reference on a 50k-task sparse graph,
- ``parallel-push`` produces output identical to serial push, and
  beats it when the machine actually has ≥ 4 usable cores (a 1-core
  container marks the parallel timings ``skipped_single_core``),
- a warm (cached) estimator start is ≥ 10× faster than a cold compute
  on the Fig. 10 workload, bit-identical to the fresh basis,
- the race sanitizer finds nothing on the hardened ledgers, and its
  worst-case (all-traced-loop) tax stays bounded; the <5× acceptance
  bound on the real hammer suite lives in ``test_race_overhead.py``.

Results land in ``benchmarks/results/perf_offline.txt`` (rendered) and
``BENCH_offline.json`` at the repo root (machine-readable).
Reproduce from the command line with ``python -m repro.cli perf``.
"""

import pathlib

import pytest
from conftest import run_once

from repro.experiments.perf import perf_offline, usable_cpu_count

REPO_ROOT = pathlib.Path(__file__).parent.parent

pytestmark = pytest.mark.benchmarks


def test_perf_offline(benchmark, record):
    result = run_once(benchmark, perf_offline)

    record("perf_offline", result.format_table())
    result.write_json(REPO_ROOT / "BENCH_offline.json")
    cores = usable_cpu_count()
    assert result.cpu_count == cores

    # kernel: the vectorised push must beat the reference comfortably
    assert result.kernel["speedup"] >= 5.0, result.kernel

    # parallel basis: identical whenever the pool actually ran; faster
    # only with real cores
    if result.basis["status"] == "ok":
        assert result.basis["identical"]
        if cores >= 4:
            assert result.basis["speedup"] > 1.0, result.basis
    else:
        assert result.basis["status"] == "skipped_single_core"
        assert cores < 2

    # cache: warm start loads the same basis much faster
    assert result.cache["warm_from_cache"]
    assert result.cache["bit_identical"]
    assert result.cache["speedup"] >= 10.0, result.cache

    # sanitizer: clean ledgers, and the worst-case micro-hammer tax
    # (every loop line traced) stays within an order of magnitude
    assert result.sanitizer["races"] == 0, result.sanitizer
    assert result.sanitizer["overhead_x"] < 30.0, result.sanitizer

"""Fast correctness smoke for the perf harness (CI-sized).

The full acceptance bench (``test_perf_offline.py``) takes minutes and
asserts speedups that only hold on real multi-core hardware.  This
smoke runs the same measurement code on toy sizes (≤ 500 tasks, 2
workers, the pool forced on) and asserts *identity only* — never a
speedup — so it is meaningful on any runner, including single-core
containers.  CI runs it on every push.
"""

import pytest

from repro.experiments.perf import perf_offline

pytestmark = pytest.mark.benchmarks


def test_perf_smoke(tmp_path):
    result = perf_offline(
        kernel_tasks=1_000,
        kernel_sources=2,
        basis_tasks=400,
        basis_neighbors=6,
        cache_tasks=300,
        num_workers=2,
        cache_dir=tmp_path,
        seed=7,
        stream_tasks=300,
        stream_batch=50,
        stream_rounds=2,
        cluster_size=50,
    )

    # every section ran and reported an honest shape — no speedup
    # guards here: toy sizes on shared runners make timing assertions
    # pure noise
    assert result.cpu_count >= 1
    assert result.kernel["reference_per_source"] > 0
    assert result.basis["serial_seconds"] > 0
    if result.basis["status"] == "ok":
        assert result.basis["identical"], result.basis
    else:
        assert result.basis["status"] == "skipped_single_core"

    assert result.cache["warm_from_cache"]
    assert result.cache["bit_identical"]

    # repair-equals-rebuild identity: the repaired basis must stay
    # within tolerance of a cold rebuild on every insertion round
    # (identity only — the >= 5x speedup guard lives in the full bench)
    incremental = result.incremental
    assert incremental["status"] == "ok"
    assert incremental["rounds"] == 2
    assert incremental["within_epsilon"], incremental
    assert all(r > 0 for r in incremental["reused_rows"]), incremental

    # sanitizer section ran and found nothing on the hardened ledgers
    # (no overhead guard at toy sizes — that lives in the full bench)
    assert result.sanitizer["races"] == 0, result.sanitizer
    assert result.sanitizer["instrumented_seconds"] > 0

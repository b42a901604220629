"""Tests for the on-disk PPR basis cache and the estimator warm start."""

import numpy as np

from repro.core.config import EstimatorConfig
from repro.core.estimator import BASIS_CACHE_ENV, AccuracyEstimator
from repro.core.persistence import (
    basis_cache_key,
    basis_cache_path,
    load_basis,
    save_basis,
)
from repro.core.ppr import PPRBasis


class TestCacheKey:
    def test_deterministic(self, paper_graph):
        a = basis_cache_key(paper_graph.normalized, 0.5, 1e-6)
        b = basis_cache_key(paper_graph.normalized, 0.5, 1e-6)
        assert a == b
        assert len(a) == 64  # sha256 hex

    def test_sensitive_to_every_input(self, paper_graph, line_graph):
        base = basis_cache_key(paper_graph.normalized, 0.5, 1e-6)
        assert basis_cache_key(paper_graph.normalized, 0.6, 1e-6) != base
        assert basis_cache_key(paper_graph.normalized, 0.5, 1e-7) != base
        assert basis_cache_key(line_graph.normalized, 0.5, 1e-6) != base

    def test_independent_of_csr_layout(self, paper_graph):
        """Equal matrix entries hash equally regardless of construction."""
        normalized = paper_graph.normalized
        rebuilt = normalized.tocoo().tocsr()
        assert basis_cache_key(rebuilt, 0.5, 1e-6) == basis_cache_key(
            normalized, 0.5, 1e-6
        )


class TestSaveLoad:
    def test_roundtrip_bit_identical(self, paper_graph, tmp_path):
        basis = PPRBasis.compute(
            paper_graph.normalized, damping=0.5, epsilon=1e-8,
            method="push",
        )
        key = basis_cache_key(paper_graph.normalized, 0.5, 1e-8)
        path = save_basis(basis, tmp_path, key)
        assert path == basis_cache_path(tmp_path, key)
        assert path.exists()
        loaded = load_basis(tmp_path, key)
        assert loaded is not None
        assert np.array_equal(loaded.matrix.indptr, basis.matrix.indptr)
        assert np.array_equal(loaded.matrix.indices, basis.matrix.indices)
        assert np.array_equal(loaded.matrix.data, basis.matrix.data)

    def test_miss_returns_none(self, tmp_path):
        assert load_basis(tmp_path, "0" * 64) is None
        assert load_basis(tmp_path / "absent", "0" * 64) is None

    def test_no_tmp_files_left(self, paper_graph, tmp_path):
        basis = PPRBasis.compute(paper_graph.normalized, damping=0.5)
        save_basis(basis, tmp_path, "k" * 64)
        leftovers = [
            p for p in tmp_path.iterdir() if not p.suffix == ".npz"
        ]
        assert leftovers == []


class TestEstimatorWarmStart:
    def test_cold_then_warm(self, paper_graph, tmp_path):
        config = EstimatorConfig(basis_cache_dir=str(tmp_path))
        cold = AccuracyEstimator(paper_graph, config)
        cold.precompute()
        assert not cold.basis_from_cache
        warm = AccuracyEstimator(paper_graph, config)
        warm.precompute()
        assert warm.basis_from_cache
        assert np.array_equal(
            warm.basis.matrix.data, cold.basis.matrix.data
        )
        assert np.array_equal(
            warm.basis.matrix.indices, cold.basis.matrix.indices
        )

    def test_cached_estimates_identical(self, paper_graph, tmp_path):
        config = EstimatorConfig(basis_cache_dir=str(tmp_path))
        observed = {0: 1.0, 3: 0.0, 7: 1.0}
        cold = AccuracyEstimator(paper_graph, config)
        fresh = cold.estimate(observed)
        warm = AccuracyEstimator(paper_graph, config)
        assert np.array_equal(warm.estimate(observed), fresh)
        assert warm.basis_from_cache

    def test_config_change_misses_cache(self, paper_graph, tmp_path):
        AccuracyEstimator(
            paper_graph, EstimatorConfig(basis_cache_dir=str(tmp_path))
        ).precompute()
        other = AccuracyEstimator(
            paper_graph,
            EstimatorConfig(alpha=2.0, basis_cache_dir=str(tmp_path)),
        )
        other.precompute()
        assert not other.basis_from_cache

    def test_explicit_dir_beats_config(self, paper_graph, tmp_path):
        explicit = tmp_path / "explicit"
        configured = tmp_path / "configured"
        estimator = AccuracyEstimator(
            paper_graph,
            EstimatorConfig(basis_cache_dir=str(configured)),
            cache_dir=explicit,
        )
        estimator.precompute()
        assert any(explicit.iterdir())
        assert not configured.exists()

    def test_env_var_fallback(self, paper_graph, tmp_path, monkeypatch):
        monkeypatch.setenv(BASIS_CACHE_ENV, str(tmp_path))
        AccuracyEstimator(paper_graph).precompute()
        assert any(tmp_path.iterdir())
        warm = AccuracyEstimator(paper_graph)
        warm.precompute()
        assert warm.basis_from_cache

    def test_no_cache_dir_never_touches_disk(self, paper_graph, tmp_path):
        estimator = AccuracyEstimator(paper_graph)
        estimator.precompute()
        assert not estimator.basis_from_cache
        assert list(tmp_path.iterdir()) == []


class TestMassMemoisation:
    def test_mass_reused_for_same_support(self, paper_graph):
        estimator = AccuracyEstimator(paper_graph)
        calls = 0
        original = estimator.basis.combine

        def counting(q):
            nonlocal calls
            calls += 1
            return original(q)

        estimator.basis.combine = counting
        estimator.estimate({0: 1.0, 3: 0.0})
        first = calls  # raw + mass
        estimator.estimate({0: 0.0, 3: 1.0})  # same support, new values
        assert calls == first + 1  # only the raw combination
        estimator.estimate({0: 1.0, 5: 1.0})  # new support
        assert calls == first + 3

    def test_memoised_estimates_stay_correct(self, paper_graph):
        memo = AccuracyEstimator(paper_graph)
        fresh = AccuracyEstimator(paper_graph)
        warm_up = memo.estimate({0: 1.0, 3: 0.5})
        again = memo.estimate({0: 0.2, 3: 0.9})
        assert np.array_equal(
            again, fresh.estimate({0: 0.2, 3: 0.9})
        )
        assert warm_up.shape == again.shape

    def test_cache_bounded(self, paper_graph):
        from repro.core import estimator as mod

        est = AccuracyEstimator(paper_graph)
        limit = mod._MASS_CACHE_LIMIT
        mod_limit = 4
        try:
            mod._MASS_CACHE_LIMIT = mod_limit
            for i in range(mod_limit + 2):
                est.estimate({i % 12: 1.0, (i + 1) % 12: 0.5})
            assert len(est._mass_cache) <= mod_limit + 1
            # least recently used goes first: the oldest support that is
            # touched again survives the next eviction, the next oldest
            # (untouched) does not
            held = list(est._mass_cache)
            touched, untouched = held[0], held[1]
            est.estimate(dict.fromkeys(touched, 0.3))
            est.estimate({10: 1.0, 11: 0.5})
            assert len(est._mass_cache) == mod_limit
            assert touched in est._mass_cache
            assert untouched not in est._mass_cache
        finally:
            mod._MASS_CACHE_LIMIT = limit

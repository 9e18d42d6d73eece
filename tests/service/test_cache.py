"""ProblemCache: content addressing, hit/miss accounting, LRU eviction."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import get_backend
from repro.core.qubo import QUBOModel
from repro.service import ProblemCache, problem_key
from tests.conftest import random_qubo


class TestProblemKey:
    def test_same_content_same_key(self):
        a = random_qubo(12, seed=1)
        b = QUBOModel(np.asarray(a.upper).copy(), name="other-name")
        assert problem_key(a) == problem_key(b)

    def test_canonicalization_is_content(self):
        """Energy-equivalent raw matrices (upper vs folded lower) hash equal."""
        rng = np.random.default_rng(2)
        mat = rng.integers(-5, 6, size=(8, 8))
        upper = QUBOModel(np.triu(mat) + np.tril(mat, -1).T)
        folded = QUBOModel(mat)
        assert problem_key(upper) == problem_key(folded)

    def test_different_content_different_key(self):
        a = random_qubo(12, seed=1)
        b = random_qubo(12, seed=2)
        c = random_qubo(13, seed=1)
        assert len({problem_key(a), problem_key(b), problem_key(c)}) == 3

    def test_sparse_model_key_is_stable(self):
        from repro.core.sparse import SparseQUBOModel

        dense = random_qubo(16, seed=3, density=0.3)
        sparse = SparseQUBOModel.from_dense(dense)
        assert problem_key(sparse) == problem_key(
            SparseQUBOModel.from_dense(dense)
        )


class TestProblemCache:
    def test_miss_then_hit_reuses_handle(self):
        cache = ProblemCache(capacity=4)
        model = random_qubo(10, seed=4)
        first = cache.prepare(model, "numpy-dense")
        again = cache.prepare(model, "numpy-dense")
        assert again is first  # the resident representation, not a rebuild
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.hit_rate == 0.5

    def test_equivalent_model_objects_hit(self):
        cache = ProblemCache()
        a = random_qubo(10, seed=5)
        b = QUBOModel(np.asarray(a.upper).copy())
        first = cache.prepare(a, "numpy-dense")
        second = cache.prepare(b, "numpy-dense")
        assert second is first
        assert cache.stats.hits == 1

    def test_backend_is_part_of_the_key(self):
        cache = ProblemCache()
        model = random_qubo(10, seed=6)
        dense = cache.prepare(model, "numpy-dense")
        sparse = cache.prepare(model, "numpy-sparse")
        assert dense is not sparse
        assert dense.backend is get_backend("numpy-dense")
        assert sparse.backend is get_backend("numpy-sparse")
        assert cache.stats.misses == 2

    def test_lru_eviction_order(self):
        cache = ProblemCache(capacity=2)
        models = [random_qubo(8, seed=s) for s in (10, 11, 12)]
        cache.prepare(models[0], "numpy-dense")
        cache.prepare(models[1], "numpy-dense")
        cache.prepare(models[0], "numpy-dense")  # refresh 0 → 1 is now LRU
        cache.prepare(models[2], "numpy-dense")  # evicts 1
        assert cache.stats.evictions == 1
        assert cache.contains(models[0], "numpy-dense")
        assert not cache.contains(models[1], "numpy-dense")
        assert cache.contains(models[2], "numpy-dense")
        assert len(cache) == 2

    def test_clear_keeps_stats(self):
        cache = ProblemCache()
        cache.prepare(random_qubo(8, seed=13), "numpy-dense")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.misses == 1

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ProblemCache(capacity=0)

    def test_prepared_handle_solves_identically(self):
        """A solver built from a cached handle is bit-exact with one that
        prepared its own kernels."""
        from repro.solver.dabs import DABSConfig, DABSSolver

        model = random_qubo(16, seed=7)
        cache = ProblemCache()
        cfg = DABSConfig(num_gpus=2, blocks_per_gpu=4, pool_capacity=8)
        plain = DABSSolver(model, cfg, seed=0).solve(max_rounds=4)
        cached = DABSSolver(
            model, cfg, seed=0, prepared=cache.prepare(model)
        ).solve(max_rounds=4)
        assert cached.best_energy == plain.best_energy
        assert np.array_equal(cached.best_vector, plain.best_vector)

    def test_prepared_handle_model_mismatch(self):
        from repro.solver.dabs import DABSSolver

        cache = ProblemCache()
        handle = cache.prepare(random_qubo(8, seed=8))
        with pytest.raises(ValueError, match="prepared handle"):
            DABSSolver(random_qubo(9, seed=9), prepared=handle)
        # same size but different content must be rejected too — the
        # kernels would silently evaluate the wrong instance
        with pytest.raises(ValueError, match="prepared handle"):
            DABSSolver(random_qubo(8, seed=99), prepared=handle)

    def test_prepared_handle_accepts_equivalent_model_object(self):
        from repro.solver.dabs import DABSSolver

        model = random_qubo(8, seed=8)
        twin = QUBOModel(np.asarray(model.upper).copy())
        handle = ProblemCache().prepare(model)
        solver = DABSSolver(twin, prepared=handle)  # content-equal: fine
        assert solver.model is twin

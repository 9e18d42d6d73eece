"""A direct solve prepares each model object's kernels once per backend.

``DABSSolver(model, config)`` reuses the kernel an earlier solver built
for the same model object on the same resolved backend.  The key is the
object, not its content, and the entry lives no longer than the model.
A failed prepare is never remembered, so the fallback path degrades on
every solver as it always did.
"""

from __future__ import annotations

import gc
import warnings
import weakref

import pytest

from repro.backends import BackendFallbackWarning, NumpySparseBackend
from repro.core.qubo import QUBOModel
from repro.solver import dabs
from repro.solver.dabs import DABSConfig, DABSSolver
from tests.conftest import random_qubo

CONFIG = DABSConfig(num_gpus=2, blocks_per_gpu=4, pool_capacity=8, backend="numpy-sparse")


@pytest.fixture
def prepares(monkeypatch):
    """The models ``NumpySparseBackend.prepare`` was called with."""
    seen = []
    original = NumpySparseBackend.prepare

    def counted(self, model):
        seen.append(model)
        return original(self, model)

    monkeypatch.setattr(NumpySparseBackend, "prepare", counted)
    return seen


def solve(model, seed=0):
    result = DABSSolver(model, CONFIG, seed=seed).solve(max_rounds=3)
    return (result.best_energy, result.best_vector.tobytes(), result.total_flips,
            result.launches, [event.energy for event in result.history])


def test_two_solves_of_one_model_prepare_once(prepares):
    model = random_qubo(20, seed=1)
    solve(model, seed=0)
    solve(model, seed=1)
    assert prepares == [model]


def test_an_equal_but_distinct_model_prepares_again(prepares):
    model = random_qubo(20, seed=1)
    twin = QUBOModel(model.upper)
    solve(model)
    solve(twin)
    assert prepares == [model, twin]


def test_a_reused_kernel_solves_as_a_fresh_one():
    model = random_qubo(20, seed=2)
    first = solve(model, seed=5)
    again = solve(model, seed=5)
    fresh = solve(QUBOModel(model.upper), seed=5)
    assert first == again == fresh


def test_solvers_sharing_a_kernel_share_a_pack_key():
    """A remembered kernel is one pack key: two solvers of one model
    object may pack together, and a service still serves them by share
    and priority (``TestFairness`` in ``tests/service/test_service.py``)."""
    model = random_qubo(20, seed=5)
    first, second = (DABSSolver(model, CONFIG, seed=seed) for seed in range(2))
    assert first.gpus[0].kernel is second.gpus[0].kernel
    assert first.gpus[0].pack_key == first.gpus[1].pack_key
    assert first.gpus[0].pack_key == second.gpus[0].pack_key


def test_a_dropped_model_is_not_kept_alive():
    model = random_qubo(20, seed=3)
    solve(model)
    assert model in dabs._kernels
    ref = weakref.ref(model)
    del model
    gc.collect()
    assert ref() is None


def test_a_failed_prepare_degrades_every_time_and_is_not_remembered(monkeypatch):
    model = random_qubo(20, seed=4)

    def refuse(self, model):
        raise RuntimeError("no pages left")

    with monkeypatch.context() as patch:
        patch.setattr(NumpySparseBackend, "prepare", refuse)
        for seed in range(2):
            with pytest.warns(BackendFallbackWarning, match="failed to prepare"):
                solver = DABSSolver(model, CONFIG, seed=seed)
            assert solver.gpus[0].backend.name == "numpy-dense"
            result = solver.solve(max_rounds=2)
            assert result.degraded and "failed to prepare" in result.degraded_reasons[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error", BackendFallbackWarning)
        solver = DABSSolver(model, CONFIG, seed=0)
    assert solver.gpus[0].backend.name == "numpy-sparse"
    assert not solver.solve(max_rounds=2).degraded
    assert DABSSolver(model, CONFIG).gpus[0].kernel is solver.gpus[0].kernel

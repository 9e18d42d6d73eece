"""Resident Δ rows: a device keeps the Δ rows and energies of its
``block_x`` between launches, and a launch gathers them instead of
recomputing them from x (DESIGN.md §12).

They must always equal a from-scratch reset of ``block_x``, and a
``block_x`` written from outside (tests do), ``VirtualGPU.reset()`` and a
backend degradation must make the next launch recompute them.  Each
observed launch is held against the stepwise oracle of
``tests/backends/launch_parity.py``, which resets from ``block_x``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import available_backends
from repro.core.delta import BatchDeltaState
from repro.core.packet import MainAlgorithm
from repro.engine.coalesce import PackSegment, SuperLaunch
from repro.search.batch import BatchSearchConfig
from tests.backends.launch_parity import (
    assert_same,
    make_batch,
    make_gpu,
    observe,
    stepwise_launch,
)
from tests.conftest import random_qubo, with_native

M, C, R, P, T = (
    MainAlgorithm.MAXMIN,
    MainAlgorithm.CYCLICMIN,
    MainAlgorithm.RANDOMMIN,
    MainAlgorithm.POSITIVEMIN,
    MainAlgorithm.TWONEIGHBOR,
)
ALGS = [M, C, R, P, T, M]
BACKENDS = with_native("numpy-dense", "numpy-sparse")
CONFIG = BatchSearchConfig(batch_flip_factor=2.0, tabu_period=5)
N = 20


def model():
    return random_qubo(N, seed=11)


def reset_of(gpu):
    """(Δ rows, energies) of a from-scratch reset of ``gpu.block_x``."""
    state = BatchDeltaState(
        gpu.model, batch=gpu.num_blocks, backend=gpu.backend, kernel=gpu.kernel
    )
    state.reset(gpu.block_x)
    return state.delta, state.energy


def check_launch(gpu, oracle, batch):
    """*gpu*'s launch of *batch* against the stepwise oracle on *oracle*."""
    assert_same(observe(gpu, gpu.launch(batch)), observe(oracle, stepwise_launch(oracle, batch)))


def assert_resident_is_reset(gpu):
    resident = gpu.resident_delta()
    assert resident is not None
    delta, energy = reset_of(gpu)
    assert np.array_equal(resident[0], delta)
    assert np.array_equal(resident[1], energy)


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_fresh_device_holds_the_zero_vector_rows(backend):
    """Δ of the zero vector is the linear term, at energy 0."""
    gpu = make_gpu(model(), len(ALGS), CONFIG, backend=backend)
    assert_resident_is_reset(gpu)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("start", [None, 7])
def test_resident_rows_equal_a_reset_after_every_launch(backend, start):
    gpu = make_gpu(model(), len(ALGS), CONFIG, backend=backend, start=start)
    for seed in range(4):
        gpu.launch(make_batch(ALGS, N, seed=seed))
        assert_resident_is_reset(gpu)


@pytest.mark.parametrize("backend", BACKENDS)
def test_launches_match_the_stepwise_oracle_across_launches(backend):
    """Launches after the first start from the resident rows; each one
    matches the oracle, which resets from block_x."""
    gpu = make_gpu(model(), len(ALGS), CONFIG, backend=backend, start=3)
    oracle = make_gpu(model(), len(ALGS), CONFIG, backend=backend, start=3)
    for seed in range(4):
        check_launch(gpu, oracle, make_batch(ALGS, N, seed=seed))


@pytest.mark.parametrize("backend", BACKENDS)
def test_an_outside_write_to_block_x_is_noticed(backend):
    gpu = make_gpu(model(), len(ALGS), CONFIG, backend=backend)
    oracle = make_gpu(model(), len(ALGS), CONFIG, backend=backend)
    check_launch(gpu, oracle, make_batch(ALGS, N, seed=1))
    gpu.block_x[2, 5] ^= 1
    oracle.block_x[2, 5] ^= 1
    assert gpu.resident_delta() is None
    check_launch(gpu, oracle, make_batch(ALGS, N, seed=2))
    assert_resident_is_reset(gpu)


@pytest.mark.parametrize("backend", BACKENDS)
def test_reset_drops_the_resident_rows(backend):
    gpu = make_gpu(model(), len(ALGS), CONFIG, backend=backend, start=4)
    oracle = make_gpu(model(), len(ALGS), CONFIG, backend=backend, start=4)
    batch = make_batch(ALGS, N, seed=5)
    gpu.launch(batch)
    stepwise_launch(oracle, batch)
    gpu.reset()
    oracle.reset()
    assert gpu.resident_delta() is None
    check_launch(gpu, oracle, make_batch(ALGS, N, seed=6))
    assert_resident_is_reset(gpu)


def test_degrading_drops_the_resident_rows():
    (backend,) = with_native("numpy-dense")[-1:]
    gpu = make_gpu(model(), len(ALGS), CONFIG, backend=backend, start=2)
    gpu.allow_fallback = True
    gpu.launch(make_batch(ALGS, N, seed=1))
    assert gpu.resident_delta() is not None
    with pytest.warns(Warning, match="degrading"):
        assert gpu._degrade(RuntimeError("lost the device"))
    assert gpu.resident_delta() is None
    gpu.launch(make_batch(ALGS, N, seed=2))
    assert_resident_is_reset(gpu)


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_pack_with_one_stale_device_matches_solo_launches(backend):
    """One device's rows are resident, its pack-mate's block_x was
    written from outside: every row of the pack is right."""
    m = model()
    first = make_gpu(m, 4, CONFIG, backend=backend, seed=1)
    devices = [first, make_gpu(m, 4, CONFIG, backend=backend, kernel=first.kernel, seed=2)]
    twins = [make_gpu(m, 4, CONFIG, backend=backend, seed=s) for s in (1, 2)]
    warm = make_batch([M, C, R, T], N, seed=3)
    for gpu, twin in zip(devices, twins):
        gpu.launch(warm)
        stepwise_launch(twin, warm)
    devices[1].block_x[0] ^= 1
    twins[1].block_x[0] ^= 1
    assert devices[0].resident_delta() is not None and devices[1].resident_delta() is None
    batches = [make_batch([P, M, T, C], N, seed=4), make_batch([R, R, M, P], N, seed=5)]
    segments = [PackSegment(i, 1, gpu, b, None) for i, (gpu, b) in enumerate(zip(devices, batches))]
    done = SuperLaunch(segments).run({})
    for res, gpu, twin, batch in zip(done, devices, twins, batches):
        oracle = observe(twin, stepwise_launch(twin, batch))
        assert_same(observe(gpu, (res.result, res.flips)), oracle)
        assert_resident_is_reset(gpu)


@pytest.mark.skipif("native" not in available_backends(), reason="needs the native backend")
def test_native_packs_start_without_a_reset(monkeypatch):
    """On native, every launch of a device that nothing wrote from
    outside gathers its resident rows: no reset runs."""
    from repro.backends.native import NativeBackend

    resets = []
    compute = NativeBackend._compute_from_x

    def counting(self, state):
        resets.append(state.batch)
        return compute(self, state)

    monkeypatch.setattr(NativeBackend, "_compute_from_x", counting)
    gpu = make_gpu(model(), len(ALGS), CONFIG, backend="native")
    for seed in range(3):
        gpu.launch(make_batch(ALGS, N, seed=seed))
    assert resets == []
    gpu.block_x[0, 0] ^= 1
    gpu.launch(make_batch(ALGS, N, seed=4))
    assert len(resets) == 1

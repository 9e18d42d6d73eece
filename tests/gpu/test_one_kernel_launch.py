"""One launch kernel: a packable device's ``launch`` against two oracles.

A device with a pack key runs each launch as a one-segment super-launch
(DESIGN.md §12).  The contract under test: that launch is bit-exact with
the per-algorithm group loop the other devices keep, and with the
stepwise reference schedule (``run_batch_search(fused=False)``, one
``select → flip → record → fold`` round-trip per flip) — results, per-row
flips, the persistent block solutions, RNG lanes and CyclicMin cursor,
and every device counter, over consecutive launches.  The packed-vs-solo
pins compare packs with this launch, so they rest on this test.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.gpu.virtual_gpu as virtual_gpu
from repro.core.delta import BatchDeltaState
from repro.core.packet import MainAlgorithm, PacketBatch
from repro.core.rng import XorShift64Star, host_generator
from repro.gpu.device import DeviceSpec
from repro.gpu.virtual_gpu import VirtualGPU
from repro.search.batch import BatchSearchConfig, run_batch_search
from tests.conftest import random_qubo

M, C, R, P, T = (
    MainAlgorithm.MAXMIN,
    MainAlgorithm.CYCLICMIN,
    MainAlgorithm.RANDOMMIN,
    MainAlgorithm.POSITIVEMIN,
    MainAlgorithm.TWONEIGHBOR,
)
N = 40
#: three launches in a row: all five algorithms, then one batch without
#: CyclicMin (its cursor must survive the launch it sits out), then all
#: five again with CyclicMin on as many rows as the first time
LAUNCHES = [
    [M, C, R, P, T, M, C, R],
    [M, M, R, P, T, T, R, P],
    [C, T, M, P, R, M, C, P],
]


def make_twins(backend, tabu_period, count=3):
    density = 0.3 if backend == "numpy-sparse" else 1.0
    model = random_qubo(N, seed=17, density=density)
    config = BatchSearchConfig(
        batch_flip_factor=2.0, tabu_period=tabu_period, cyclicmin_c=8, randommin_c=8
    )
    return [
        VirtualGPU(
            model,
            DeviceSpec(num_blocks=len(LAUNCHES[0])),
            config,
            tuple(MainAlgorithm),
            host_generator(5),
            backend=backend,
        )
        for _ in range(count)
    ]


def make_batch(algs, seed):
    rng = np.random.default_rng(seed)
    vectors = rng.integers(0, 2, size=(len(algs), N), dtype=np.uint8)
    operations = rng.integers(0, 4, size=len(algs), dtype=np.uint8)
    return PacketBatch.void(vectors, np.array(algs, dtype=np.uint8), operations)


def stepwise_launch(gpu, batch):
    """The reference launch, written out here: each algorithm group runs
    the stepwise batch search on fresh buffers, then persists its rows."""
    out_vectors = np.empty_like(batch.vectors)
    out_energies = np.empty(len(batch), dtype=np.int64)
    flips = np.zeros(len(batch), dtype=np.int64)
    truncations = 0
    for alg, rows in batch.group_by_algorithm().items():
        state = BatchDeltaState(
            gpu.model, batch=rows.size, backend=gpu.backend, kernel=gpu.kernel
        )
        state.reset(gpu.block_x[rows])
        lanes = XorShift64Star(gpu.rng_state[rows])
        tracker, group_flips = run_batch_search(
            state,
            batch.vectors[rows],
            gpu.algorithms[alg],
            lanes,
            gpu.config,
            fused=False,
        )
        out_vectors[rows] = tracker.best_x
        out_energies[rows] = tracker.best_energy
        flips[rows] = group_flips
        truncations += int(tracker.greedy_truncated.sum())
        gpu.block_x[rows] = state.x
        gpu.rng_state[rows] = lanes.state
    gpu.greedy_truncations += truncations
    gpu.truncation_events += 1 if truncations else 0
    gpu.total_flips += int(flips.sum())
    gpu.launch_count += 1
    return PacketBatch(out_vectors, out_energies, batch.algorithms, batch.operations), flips


def device_state(gpu):
    cursor = gpu.algorithms[C]._cursor
    return (
        gpu.block_x.copy(),
        gpu.rng_state.copy(),
        None if cursor is None else cursor.copy(),
        gpu.total_flips,
        gpu.launch_count,
        gpu.greedy_truncations,
        gpu.truncation_events,
    )


def assert_same(a, b):
    (out_a, flips_a, dev_a), (out_b, flips_b, dev_b) = a, b
    assert np.array_equal(out_a.vectors, out_b.vectors)
    assert np.array_equal(out_a.energies, out_b.energies)
    assert np.array_equal(out_a.algorithms, out_b.algorithms)
    assert np.array_equal(out_a.operations, out_b.operations)
    assert np.array_equal(flips_a, flips_b)
    x_a, rng_a, cursor_a, *counters_a = dev_a
    x_b, rng_b, cursor_b, *counters_b = dev_b
    assert np.array_equal(x_a, x_b)
    assert np.array_equal(rng_a, rng_b)
    assert (cursor_a is None) == (cursor_b is None)
    if cursor_a is not None:
        assert np.array_equal(cursor_a, cursor_b)
    assert counters_a == counters_b


@pytest.fixture
def batch_searches(monkeypatch):
    """Count the group loop's ``run_batch_search`` calls."""
    calls = []
    original = virtual_gpu.run_batch_search

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(virtual_gpu, "run_batch_search", counted)
    return calls


@pytest.mark.parametrize("tabu_period", [8, 0], ids=["tabu", "no-tabu"])
@pytest.mark.parametrize("backend", ["numpy-dense", "numpy-sparse"])
def test_launch_matches_group_loop_and_stepwise(backend, tabu_period, batch_searches):
    kernel_gpu, group_gpu, stepwise_gpu = make_twins(backend, tabu_period)
    assert kernel_gpu.pack_key is not None
    for i, algs in enumerate(LAUNCHES):
        batch = make_batch(algs, seed=i)
        del batch_searches[:]
        kernel = (*kernel_gpu.launch(batch), device_state(kernel_gpu))
        assert batch_searches == []  # one kernel: no per-group batch search
        group = (*group_gpu._launch_groups(batch), device_state(group_gpu))
        assert len(batch_searches) == len(set(algs))
        stepwise = (*stepwise_launch(stepwise_gpu, batch), device_state(stepwise_gpu))
        assert_same(kernel, group)
        assert_same(kernel, stepwise)
    assert kernel_gpu.algorithms[C]._cursor is not None
    assert kernel_gpu.launch_count == len(LAUNCHES)

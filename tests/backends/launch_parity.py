"""Shared oracles of the launch parity tests.

Every ``VirtualGPU.launch`` is one super-launch (DESIGN.md §12).  The
parity tests hold it against the stepwise oracle written out here: each
algorithm group of a batch runs :func:`~repro.search.batch.run_batch_search`
(one ``select → flip → record → fold`` round-trip per flip) on fresh
buffers, then persists its rows into the device, as a launch does.  The
observables compared are the result packets, per-row flips, the
persistent block solutions, RNG lanes and CyclicMin cursor, and every
device counter.
"""

from __future__ import annotations

import numpy as np

from repro.core.delta import BatchDeltaState
from repro.core.packet import MainAlgorithm, PacketBatch
from repro.core.rng import XorShift64Star, host_generator
from repro.gpu.device import DeviceSpec
from repro.gpu.virtual_gpu import VirtualGPU
from repro.search.batch import BatchSearchConfig, run_batch_search


def make_gpu(model, blocks, config, seed=5, backend=None, kernel=None, start=None):
    """A device of *blocks* rows; *start* seeds random block solutions."""
    gpu = VirtualGPU(
        model,
        DeviceSpec(num_blocks=blocks),
        config,
        tuple(MainAlgorithm),
        host_generator(seed),
        backend=backend,
        kernel=kernel,
    )
    if start is not None:
        rng = np.random.default_rng(start)
        gpu.block_x[...] = rng.integers(0, 2, size=gpu.block_x.shape, dtype=np.uint8)
    return gpu


def make_batch(algs, n, seed):
    """A launch batch: random targets, one row per entry of *algs*."""
    rng = np.random.default_rng(seed)
    vectors = rng.integers(0, 2, size=(len(algs), n), dtype=np.uint8)
    operations = rng.integers(0, 4, size=len(algs), dtype=np.uint8)
    return PacketBatch.void(vectors, np.array(algs, dtype=np.uint8), operations)


def stepwise_launch(gpu, batch):
    """The stepwise oracle of ``gpu.launch(batch)``."""
    out_vectors = np.empty_like(batch.vectors)
    out_energies = np.empty(len(batch), dtype=np.int64)
    flips = np.zeros(len(batch), dtype=np.int64)
    truncations = 0
    for alg, rows in batch.group_by_algorithm().items():
        state = BatchDeltaState(gpu.model, batch=rows.size, backend=gpu.backend, kernel=gpu.kernel)
        state.reset(gpu.block_x[rows])
        lanes = XorShift64Star(gpu.rng_state[rows])
        tracker, group_flips = run_batch_search(
            state, batch.vectors[rows], gpu.algorithms[alg], lanes, gpu.config
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


def launch_vs_stepwise(model, algorithm, backend, tabu_period, oracle_backend=None, rows=5):
    """One launch of a *rows*-row batch that all runs *algorithm* on
    *backend*, and the stepwise oracle of it on *oracle_backend* (default:
    the same), both observed."""
    config = BatchSearchConfig(batch_flip_factor=2.0, tabu_period=tabu_period)
    batch = make_batch([algorithm] * rows, model.n, seed=6)
    gpu = make_gpu(model, rows, config, backend=backend, start=7)
    oracle = make_gpu(model, rows, config, backend=oracle_backend or backend, start=7)
    return (
        observe(gpu, gpu.launch(batch)),
        observe(oracle, stepwise_launch(oracle, batch)),
    )


def device_state(gpu):
    """Everything a launch leaves behind on *gpu*."""
    cursor = gpu.algorithms[MainAlgorithm.CYCLICMIN]._cursor
    return (
        gpu.block_x.copy(),
        gpu.rng_state.copy(),
        None if cursor is None else cursor.copy(),
        gpu.total_flips,
        gpu.launch_count,
        gpu.greedy_truncations,
        gpu.truncation_events,
    )


def observe(gpu, outcome):
    """``(result, flips, device state)`` of one launch of *gpu*."""
    return (*outcome, device_state(gpu))


def assert_same(a, b):
    """Two observed launches agree bit for bit."""
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

"""Tests for the virtual GPU substrate."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.packet import (
    VOID_ENERGY,
    GeneticOp,
    MainAlgorithm,
    Packet,
    PacketBatch,
)
from repro.core.rng import host_generator
from repro.gpu.device import A100_SPEC, DeviceSpec
from repro.gpu.virtual_gpu import VirtualGPU
from repro.search.batch import BatchSearchConfig
from tests.conftest import force_group_loop, random_qubo

N = 16
BLOCKS = 6


def make_gpu(seed=0, algorithm_set=tuple(MainAlgorithm), model=None):
    model = model or random_qubo(N, seed=3)
    return model, VirtualGPU(
        model,
        DeviceSpec(num_blocks=BLOCKS),
        BatchSearchConfig(batch_flip_factor=2.0),
        algorithm_set,
        host_generator(seed),
    )


def make_batch(n=N, blocks=BLOCKS, algs=None, seed=0):
    rng = np.random.default_rng(seed)
    algs = algs or [MainAlgorithm(i % 5) for i in range(blocks)]
    packets = [
        Packet(
            rng.integers(0, 2, n, dtype=np.uint8),
            VOID_ENERGY,
            algs[i],
            GeneticOp.RANDOM,
        )
        for i in range(blocks)
    ]
    return PacketBatch.from_packets(packets)


class TestDeviceSpec:
    def test_defaults(self):
        assert DeviceSpec().num_blocks == 16

    def test_a100_spec_matches_paper(self):
        assert A100_SPEC.num_blocks == 216  # 108 SMs × 2 resident blocks

    def test_rejects_bad_blocks(self):
        with pytest.raises(ValueError):
            DeviceSpec(num_blocks=0)


class TestVirtualGPU:
    def test_launch_returns_filled_packets(self):
        model, gpu = make_gpu()
        out, flips = gpu.launch(make_batch())
        assert len(out) == BLOCKS
        assert np.all(out.energies < VOID_ENERGY)
        assert np.all(flips > 0)

    def test_reported_energy_matches_vector(self):
        model, gpu = make_gpu()
        out, _ = gpu.launch(make_batch())
        assert np.array_equal(model.energies(out.vectors), out.energies)

    def test_strategy_fields_passed_through(self):
        model, gpu = make_gpu()
        batch = make_batch()
        out, _ = gpu.launch(batch)
        assert np.array_equal(out.algorithms, batch.algorithms)
        assert np.array_equal(out.operations, batch.operations)

    def test_block_state_persists_across_launches(self):
        model, gpu = make_gpu()
        gpu.launch(make_batch(seed=1))
        after_first = gpu.block_x.copy()
        assert after_first.any()  # blocks moved off the zero vector
        gpu.launch(make_batch(seed=2))
        # state must have evolved from the persisted vectors, not reset
        assert gpu.block_x.shape == after_first.shape

    def test_rng_lanes_advance(self):
        model, gpu = make_gpu()
        before = gpu.rng_state.copy()
        gpu.launch(make_batch())
        assert not np.array_equal(gpu.rng_state, before)

    def test_deterministic_given_seed(self):
        _, gpu1 = make_gpu(seed=5)
        _, gpu2 = make_gpu(seed=5)
        out1, _ = gpu1.launch(make_batch(seed=9))
        out2, _ = gpu2.launch(make_batch(seed=9))
        assert np.array_equal(out1.energies, out2.energies)
        assert np.array_equal(out1.vectors, out2.vectors)

    def test_rejects_wrong_batch_size(self):
        _, gpu = make_gpu()
        with pytest.raises(ValueError, match="expected"):
            gpu.launch(make_batch(blocks=BLOCKS + 1))

    def test_rejects_wrong_vector_length(self):
        _, gpu = make_gpu()
        with pytest.raises(ValueError, match="length"):
            gpu.launch(make_batch(n=N + 1))

    def test_rejects_disabled_algorithm(self):
        _, gpu = make_gpu(algorithm_set=(MainAlgorithm.MAXMIN,))
        batch = make_batch(algs=[MainAlgorithm.CYCLICMIN] * BLOCKS)
        with pytest.raises(ValueError, match="not enabled"):
            gpu.launch(batch)

    def test_total_flips_accumulates(self):
        _, gpu = make_gpu()
        gpu.launch(make_batch())
        first = gpu.total_flips
        gpu.launch(make_batch(seed=4))
        assert gpu.total_flips > first

    def test_mixed_algorithm_groups_all_processed(self):
        model, gpu = make_gpu()
        algs = [
            MainAlgorithm.MAXMIN,
            MainAlgorithm.MAXMIN,
            MainAlgorithm.TWONEIGHBOR,
            MainAlgorithm.CYCLICMIN,
            MainAlgorithm.POSITIVEMIN,
            MainAlgorithm.RANDOMMIN,
        ]
        out, flips = gpu.launch(make_batch(algs=algs))
        assert np.all(out.energies < VOID_ENERGY)

    def test_reset_clears_block_state(self):
        _, gpu = make_gpu()
        gpu.launch(make_batch())
        gpu.reset()
        assert not gpu.block_x.any()


class TestDeviceBufferCache:
    def test_packable_device_holds_one_pack_scratch(self):
        """A one-kernel device reuses one merged buffer set and never
        builds the group loop's buffers."""
        _, gpu = make_gpu()
        assert gpu.pack_key is not None
        gpu.launch(make_batch(seed=1))
        (scratch,) = gpu._pack_scratch.values()
        x_buf, delta_buf = scratch.state.x, scratch.state.delta
        gpu.launch(make_batch(seed=2))
        assert list(gpu._pack_scratch.values()) == [scratch]
        assert scratch.capacity == BLOCKS
        assert scratch.state.x is x_buf
        assert scratch.state.delta is delta_buf
        assert gpu._groups is None and gpu._views == {}

    def test_group_views_cached_across_launches(self):
        """Same-size lockstep groups reuse the same buffer views."""
        _, gpu = make_gpu()
        force_group_loop(gpu)
        algs = [MainAlgorithm.MAXMIN] * 3 + [MainAlgorithm.CYCLICMIN] * 3
        gpu.launch(make_batch(algs=algs, seed=1))
        views_after_first = dict(gpu._views)
        assert set(views_after_first) == {3}
        gpu.launch(make_batch(algs=algs, seed=2))
        assert gpu._views[3] is views_after_first[3]
        assert gpu._pack_scratch == {}

    def test_views_share_the_full_size_buffers(self):
        """Memory stays bounded: every group size aliases one buffer set."""
        _, gpu = make_gpu()
        force_group_loop(gpu)
        algs = (
            [MainAlgorithm.MAXMIN] * 2
            + [MainAlgorithm.CYCLICMIN] * 3
            + [MainAlgorithm.RANDOMMIN]
        )
        gpu.launch(make_batch(algs=algs, seed=1))
        full_state, full_tabu, full_tracker = gpu._groups
        assert set(gpu._views) == {1, 2, 3}
        for state, tabu, tracker in gpu._views.values():
            assert np.shares_memory(state.x, full_state.x)
            assert np.shares_memory(state.delta, full_state.delta)
            assert np.shares_memory(tabu._stamp, full_tabu._stamp)
            assert np.shares_memory(tracker.best_x, full_tracker.best_x)
            assert state.kernel is gpu.kernel

    def test_full_size_buffers_not_reallocated(self):
        _, gpu = make_gpu()
        force_group_loop(gpu)
        algs = [MainAlgorithm.MAXMIN] * BLOCKS
        gpu.launch(make_batch(algs=algs, seed=1))
        state = gpu._groups[0]
        x_buf, delta_buf = state.x, state.delta
        gpu.launch(make_batch(algs=algs, seed=2))
        assert gpu._groups[0] is state
        assert state.x is x_buf
        assert state.delta is delta_buf

    def test_caching_preserves_determinism(self):
        """A launch sequence equals the same sequence on a fresh GPU."""
        _, gpu1 = make_gpu(seed=5)
        _, gpu2 = make_gpu(seed=5)
        # different groupings per launch exercise reset-in-place paths
        seq = [
            [MainAlgorithm.MAXMIN] * BLOCKS,
            [MainAlgorithm.MAXMIN] * 3 + [MainAlgorithm.CYCLICMIN] * 3,
            [MainAlgorithm.TWONEIGHBOR] * 2 + [MainAlgorithm.RANDOMMIN] * 4,
        ]
        for i, algs in enumerate(seq):
            out1, f1 = gpu1.launch(make_batch(algs=algs, seed=i))
            out2, f2 = gpu2.launch(make_batch(algs=algs, seed=i))
            assert np.array_equal(out1.energies, out2.energies)
            assert np.array_equal(out1.vectors, out2.vectors)
            assert np.array_equal(f1, f2)

    def test_explicit_backend_override_matches_auto(self):
        model = random_qubo(N, seed=3)

        def run(backend):
            gpu = VirtualGPU(
                model,
                DeviceSpec(num_blocks=BLOCKS),
                BatchSearchConfig(batch_flip_factor=2.0),
                tuple(MainAlgorithm),
                host_generator(0),
                backend=backend,
            )
            out, _ = gpu.launch(make_batch(seed=4))
            return out

        ref = run(None)
        out = run("numpy-sparse")
        assert np.array_equal(ref.energies, out.energies)
        assert np.array_equal(ref.vectors, out.vectors)

"""Tests for the fleet worker group."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.packet import PacketBatch
from repro.core.rng import host_generator
from repro.engine.coalesce import PackSegment
from repro.engine.workers import (
    WORKER_NAME_PREFIX,
    FleetWorkerGroup,
    WorkerError,
    run_launch,
)
from repro.gpu.device import DeviceSpec
from repro.gpu.virtual_gpu import VirtualGPU
from repro.resilience import RetryPolicy
from repro.search.batch import BatchSearchConfig
from repro.core.packet import MainAlgorithm
from tests.conftest import random_qubo

B, N = 4, 12


def make_gpu(seed: int = 3) -> VirtualGPU:
    model = random_qubo(N, seed=seed)
    return VirtualGPU(
        model,
        DeviceSpec(num_blocks=B, name="test"),
        BatchSearchConfig(batch_flip_factor=2.0),
        tuple(MainAlgorithm),
        host_generator(seed),
    )


def make_batch(seed: int = 7) -> PacketBatch:
    rng = np.random.default_rng(seed)
    return PacketBatch.void(
        rng.integers(0, 2, size=(B, N), dtype=np.uint8),
        rng.integers(0, 5, size=B, dtype=np.uint8),
        rng.integers(0, 8, size=B, dtype=np.uint8),
    )


def collect_all(group, count, timeout=30.0):
    out = []
    while len(out) < count:
        comp = group.next_completion(timeout)
        assert comp is not None, "worker timed out"
        out.append(comp)
    return out


class TestFleetWorkerGroup:
    def test_launch_matches_direct_execution(self):
        direct = make_gpu()
        threaded = make_gpu()
        batch = make_batch()
        expect, expect_flips = direct.launch(batch)
        with FleetWorkerGroup(1) as group:
            group.submit_launch(0, 0, 1, threaded, batch)
            comp = collect_all(group, 1)[0]
        assert comp.device_id == 0 and comp.seq == 1
        assert np.array_equal(comp.batch.vectors, expect.vectors)
        assert np.array_equal(comp.batch.energies, expect.energies)
        assert np.array_equal(comp.flips, expect_flips)

    def test_lane_fifo_depth(self):
        """Two queued launches on one lane run in submission order."""
        gpu = make_gpu()
        with FleetWorkerGroup(1) as group:
            group.submit_launch(0, 0, 1, gpu, make_batch(seed=1))
            group.submit_launch(0, 0, 2, gpu, make_batch(seed=2))
            comps = collect_all(group, 2)
        assert [c.seq for c in comps] == [1, 2]
        assert gpu.launch_count == 2

    def test_reset_runs_behind_queued_launches(self):
        """``run_on`` queues a reset in the lane FIFO: it runs after the
        launch submitted before it and before the one submitted after."""
        events = []
        gpu = make_gpu()
        launch = gpu.launch

        def logged(batch):
            events.append("launch")
            return launch(batch)

        gpu.launch = logged
        with FleetWorkerGroup(1) as group:
            group.submit_launch(0, 0, 1, gpu, make_batch(seed=1))
            group.run_on(0, lambda: events.append("reset"))
            group.submit_launch(0, 0, 2, gpu, make_batch(seed=2))
            collect_all(group, 2)
        assert events == ["launch", "reset", "launch"]

    def test_many_launches_match_direct_execution_in_order(self):
        """A long run of launches on one lane is bit-exact with the same
        launches made directly, one after another, on a twin device."""
        direct = make_gpu()
        threaded = make_gpu()
        batches = [make_batch(seed=s) for s in range(12)]
        expected = [direct.launch(batch) for batch in batches]
        with FleetWorkerGroup(1) as group:
            for seq, batch in enumerate(batches, start=1):
                group.submit_launch(0, 0, seq, threaded, batch)
            comps = collect_all(group, len(batches))
        assert [c.seq for c in comps] == list(range(1, len(batches) + 1))
        for comp, (expect, expect_flips) in zip(comps, expected):
            assert np.array_equal(comp.batch.vectors, expect.vectors)
            assert np.array_equal(comp.batch.energies, expect.energies)
            assert np.array_equal(comp.flips, expect_flips)
        assert np.array_equal(threaded.rng_state, direct.rng_state)

    def test_lanes_keep_their_own_fifo_order(self):
        """Completions of two lanes interleave freely, but each lane's
        launches arrive in its submission order, tagged with the
        submitter's coordinates."""
        gpus = [make_gpu(seed=3), make_gpu(seed=4)]
        with FleetWorkerGroup(2) as group:
            for seq in range(1, 4):
                for lane, gpu in enumerate(gpus):
                    group.submit_launch(
                        lane, lane, seq, gpu, make_batch(seed=seq), tag=lane
                    )
            comps = collect_all(group, 6)
        for lane in range(2):
            mine = [c for c in comps if c.device_id == lane]
            assert [c.seq for c in mine] == [1, 2, 3]
            assert {c.tag for c in mine} == {lane}
        assert [gpu.launch_count for gpu in gpus] == [3, 3]

    def test_submit_after_close_is_dropped(self):
        gpu = make_gpu()
        group = FleetWorkerGroup(1)
        group.close()
        group.submit_launch(0, 0, 1, gpu, make_batch())
        assert group.next_completion(0.05) is None
        assert gpu.launch_count == 0

    def test_worker_error_propagates(self):
        gpu = make_gpu()
        gpu.launch = lambda batch: (_ for _ in ()).throw(RuntimeError("boom"))
        with FleetWorkerGroup(1) as group:
            group.submit_launch(0, 0, 1, gpu, make_batch())
            with pytest.raises(WorkerError, match="boom"):
                collect_all(group, 1)

    def test_close_joins_threads_and_is_idempotent(self):
        group = FleetWorkerGroup(2)
        group.submit_launch(0, 0, 1, make_gpu(), make_batch())
        collect_all(group, 1)
        group.close()
        group.close()
        leftovers = [
            t.name
            for t in threading.enumerate()
            if t.name.startswith(WORKER_NAME_PREFIX)
        ]
        assert leftovers == []


class TestInlineGroup:
    """Zero lanes: every launch runs on the thread that submits it."""

    def test_launch_runs_on_the_calling_thread(self):
        direct = make_gpu()
        inline = make_gpu()
        batch = make_batch()
        expect, expect_flips = direct.launch(batch)
        before = threading.active_count()
        seen = []
        launch = inline.launch

        def recorded(batch):
            seen.append(threading.current_thread())
            return launch(batch)

        inline.launch = recorded
        with FleetWorkerGroup(0) as group:
            group.submit_launch(3, 0, 1, inline, batch)
            comp = group.next_completion(0)
            assert threading.active_count() == before
        assert seen == [threading.current_thread()]
        assert np.array_equal(comp.batch.vectors, expect.vectors)
        assert np.array_equal(comp.flips, expect_flips)

    def test_launch_error_raises_to_the_caller(self):
        gpu = make_gpu()
        gpu.launch = lambda batch: (_ for _ in ()).throw(RuntimeError("boom"))
        with FleetWorkerGroup(0) as group:
            with pytest.raises(RuntimeError, match="boom"):
                group.submit_launch(0, 0, 1, gpu, make_batch())
            assert group.next_completion(0) is None

    def test_inline_group_is_unsupervised(self):
        with pytest.raises(ValueError, match="unsupervised"):
            FleetWorkerGroup(0, retry=RetryPolicy(max_retries=1))


class _CountingGPU:
    """Stand-in device: truncates two rows in one event per launch."""

    def __init__(self):
        self.greedy_truncations = 5
        self.truncation_events = 0

    def launch(self, batch):
        self.greedy_truncations += 2
        self.truncation_events += 1
        return batch, np.zeros(1, dtype=np.int64)


class TestRunLaunch:
    def test_truncations_are_device_counter_deltas(self):
        gpu = _CountingGPU()
        (completion,) = run_launch(PackSegment(0, 1, gpu, "x", None))
        assert (completion.device_id, completion.seq, completion.batch) == (0, 1, "x")
        assert completion.truncations == 2
        assert completion.truncation_events == 1
